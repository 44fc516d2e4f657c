"""Gradient-guided value search on a deliberately hostile model.

Builds the paper's "M3-style" scenario: a model whose default random values
drive a vulnerable operator (Log of a shifted input) straight into NaN, so
differential testing would have to throw the test case away.  Random
re-sampling rarely fixes it; the gradient-guided search (Algorithm 3) does,
with and without proxy derivatives for comparison.

Run with:  python examples/value_search_demo.py
"""

import numpy as np

from repro.core.value_search import gradient_search, sampling_search
from repro.autodiff import DEFAULT_PROXY, NO_PROXY
from repro.graph.builder import GraphBuilder
from repro.runtime import Interpreter


def build_hostile_model():
    """Relu(x) - 6 feeds Log: the Relu zero-region needs proxy gradients."""
    builder = GraphBuilder("hostile")
    x = builder.input([8])
    shift = builder.weight(np.full(8, -6.0, dtype=np.float32))
    pre = builder.op1("Relu", [x])
    shifted = builder.op1("Add", [pre, shift])
    builder.op1("Log", [shifted])
    return builder.build()


def main() -> None:
    model = build_hostile_model()
    rng = np.random.default_rng(0)

    naive = Interpreter().run_detailed(
        model, {model.inputs[0]: rng.uniform(1, 9, 8).astype(np.float32)})
    print(f"naive random values numerically valid? {naive.numerically_valid}")

    for label, runner in [
        ("random sampling", lambda: sampling_search(
            model, np.random.default_rng(1))),
        ("gradient (no proxy)", lambda: gradient_search(
            model, np.random.default_rng(1), proxy=NO_PROXY)),
        ("gradient + proxy", lambda: gradient_search(
            model, np.random.default_rng(1), proxy=DEFAULT_PROXY)),
    ]:
        result = runner()
        print(f"{label:<22} success={result.success!s:<5} "
              f"iterations={result.iterations:<4} time={result.elapsed * 1000:.1f} ms")
        if result.success:
            run = Interpreter().run_detailed(result.apply_weights(model), result.inputs)
            print(f"{'':<22} verified numerically valid: {run.numerically_valid}")


if __name__ == "__main__":
    main()
