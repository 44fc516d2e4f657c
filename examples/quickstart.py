"""Quickstart: generate one valid DNN model, run it, and inspect it.

This is the smallest useful tour of the public API:

1. generate a random-but-valid computation graph with the constraint-guided
   generator (Algorithm 1 + attribute binning),
2. find numerically valid inputs/weights with gradient-guided search
   (Algorithm 3),
3. run the model on the reference interpreter and on one compiler under test,
   and check that they agree.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro.compilers import CompileOptions, GraphRTCompiler
from repro.compilers.bugs import BugConfig
from repro.core import GeneratorConfig, generate_model, search_values
from repro.runtime import Interpreter, export_model


def main() -> None:
    # 1. Generate a 10-operator model (deterministic for a fixed seed).
    generated = generate_model(GeneratorConfig(n_nodes=10, seed=2024))
    model = generated.model
    print("Generated model:")
    print(model.summary())
    print()

    # 2. Search for inputs/weights that avoid NaN/Inf anywhere in the graph.
    search = search_values(model, method="gradient_proxy",
                           rng=np.random.default_rng(0))
    print(f"Value search: success={search.success} after {search.iterations} "
          f"iteration(s) in {search.elapsed * 1000:.1f} ms")
    model = search.apply_weights(model)

    # 3. Run the oracle and a compiler under test on the same inputs.
    oracle = Interpreter().run_detailed(model, search.inputs)
    print(f"Oracle run numerically valid: {oracle.numerically_valid}")

    exported = export_model(model, bugs=BugConfig.none())
    compiler = GraphRTCompiler(CompileOptions(opt_level=2, bugs=BugConfig.none()))
    compiled = compiler.compile_model(exported)
    outputs = compiled.run(search.inputs)

    print(f"GraphRT applied passes: {', '.join(compiled.applied_passes)}")
    for name, expected in oracle.outputs.items():
        matches = np.allclose(np.asarray(expected, dtype=np.float64),
                              np.asarray(outputs[name], dtype=np.float64),
                              rtol=1e-3, atol=1e-4)
        print(f"  output {name}: shapes {expected.shape} — "
              f"{'MATCH' if matches else 'MISMATCH'}")


if __name__ == "__main__":
    main()
