"""Write your own test oracle in ~20 lines.

An oracle is anything that turns ``(model, inputs)`` into a list of
``CompilerVerdict``s — register a factory under a name and every engine
entry point (the serial ``Fuzzer``, the sharded/matrix parallel campaign,
the CLI's ``--oracle``/``--oracles`` axis and the experiment drivers) can
run it, checkpoint it and race it against the built-ins
(``difftest``/``crash``/``shape``/``perf``/``gradcheck``).

Run with:  PYTHONPATH=src python examples/custom_oracle.py
"""

import numpy as np

# --- the ~20 lines -------------------------------------------------------
from repro.core.difftest import CompilerVerdict, judge_compilers
from repro.core.oracle import BaseOracle, register_oracle


@register_oracle("finite")
class FiniteOutputsOracle(BaseOracle):
    """Flags compilers whose outputs contain NaN/Inf on *finite* inputs."""

    name = "finite"

    def evaluate(self, model, inputs, numerically_valid=None):
        def check(compiler, compiled, exported):
            # judge_compilers exported and compiled the model — sharing the
            # export and the builds with the other oracles that judge this
            # model in the same campaign iteration — and a crash here or
            # there is classified and credited like the built-ins'.  The
            # run below is this oracle's own.
            outputs = compiled.run(inputs)
            bad = [name for name, value in outputs.items()
                   if np.asarray(value).dtype.kind == "f"
                   and not np.all(np.isfinite(value))]
            if not bad:
                return CompilerVerdict(compiler.name, "ok")
            return CompilerVerdict(compiler.name, "semantic", "execution",
                                   f"non-finite outputs: {bad}")

        return judge_compilers(model, self.compilers, self.bugs, check)
# -------------------------------------------------------------------------


def main():
    from repro.core import FuzzerConfig, GeneratorConfig, run_parallel_campaign

    config = FuzzerConfig(generator=GeneratorConfig(n_nodes=8),
                          max_iterations=10, seed=1)
    # Race the custom oracle against the built-ins through the one campaign
    # engine: identical model streams, per-oracle provenance.
    result = run_parallel_campaign(config=config, n_workers=1,
                                   oracles=["difftest", "finite"])
    print(f"{result.generated_models} models over {result.iterations} "
          f"iterations; findings per oracle:")
    for key, cell in sorted(result.cells.items()):
        print(f"  {key:<44} {len(cell.report_keys)} report(s), "
              f"{len(cell.seeded_bugs_found)} seeded bug(s)")


if __name__ == "__main__":
    main()
