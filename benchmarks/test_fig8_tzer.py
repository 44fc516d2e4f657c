"""Figure 8: NNSmith vs the Tzer baseline on the DeepC (TVM-analogue) compiler.

Paper result: graph-level fuzzing (NNSmith) covers 1.4x more branches than
the IR-level Tzer overall and vastly more of the pass files, but Tzer keeps a
non-trivial set of unique low-level branches because some low-level behaviour
is not reachable from the graph level.
"""

from benchmarks.conftest import COVERAGE_ITERATIONS
from repro.experiments import (
    StrategyCaseGenerator,
    run_coverage_campaign,
    run_tzer_campaign,
    unique_counts,
)
from repro.experiments.venn import format_venn_table


def test_fig8_nnsmith_vs_tzer(benchmark):
    def campaign():
        nnsmith = run_coverage_campaign(
            StrategyCaseGenerator("nnsmith", seed=4), "deepc",
            max_iterations=COVERAGE_ITERATIONS, seed=4)
        tzer = run_tzer_campaign(max_iterations=COVERAGE_ITERATIONS * 2, seed=4)
        return nnsmith, tzer

    nnsmith, tzer = benchmark.pedantic(campaign, rounds=1, iterations=1)

    all_files = {"nnsmith": nnsmith.arcs, "tzer": tzer.arcs}
    pass_files = {"nnsmith": nnsmith.pass_arcs, "tzer": tzer.pass_arcs}
    print("\n[Figure 8a] all DeepC files")
    print(format_venn_table(all_files))
    print("[Figure 8b] pass-only files")
    print(format_venn_table(pass_files))

    # Shape checks: NNSmith wins overall and on pass files; Tzer still has
    # unique low-level branches.
    assert nnsmith.total_coverage > tzer.total_coverage
    assert nnsmith.pass_coverage > tzer.pass_coverage
    assert unique_counts(all_files)["tzer"] > 0
