"""A complete fuzzing campaign against the three compilers under test.

This is the workload the paper's introduction motivates: generate diverse
valid models, give them numerically valid inputs, and differentially test
several DL compilers, collecting deduplicated bug reports.

The campaign can run serially (one ``Fuzzer`` loop), sharded across worker
processes, or as a **matrix campaign** over compiler subsets × optimization
levels (:mod:`repro.core.parallel`):

* the iteration budget of every compiler-set × opt-level combination is
  split evenly over N shards; each shard's seed comes from
  ``SeedSequence((campaign_seed, shard_index))`` and every iteration's
  generator and value-search RNGs from
  ``SeedSequence((shard_seed, generator_seed, iteration, stream))`` — so
  shards explore disjoint model streams while every *combination* replays
  the identical streams (apples-to-apples per-backend comparison);
* the coordinator sends each idle worker the next lease, one lease per
  cell, so a worker whose cell finishes early picks up the next unleased cell
  (``n_shards`` splits a campaign into more, smaller cells); cells of
  different combinations differ in cost, so a matrix campaign leases them
  in pieces that shrink as it drains, and a worker that finishes early
  takes the rest of a slower cell (cells that differ only in their oracle
  go out together, as one lease that judges each case once);
* every completed iteration is streamed to the coordinator, which folds it
  into per-cell results (global report dedup via ``CampaignResult.merge``)
  and, when a checkpoint path is set, persists it — a campaign killed
  mid-shard resumes from the exact iteration it reached
  (see ``python -m repro.campaign --checkpoint ...``);
* the merged result carries per-cell provenance (``result.cells``), which
  ``repro.experiments.venn.campaign_cell_sets`` slices into per-backend /
  per-opt-level bug Venn diagrams.

Run with:  python examples/fuzz_campaign.py [iterations] [workers] [--matrix]
"""

import sys

from repro.compilers.base import DEFAULT_COMPILERS, build_compiler_set
from repro.compilers.bugs import BugConfig, bug_spec
from repro.core import (
    Fuzzer,
    FuzzerConfig,
    GeneratorConfig,
    first_line,
    run_parallel_campaign,
)
from repro.experiments.venn import campaign_cell_sets, format_venn_table


def main(iterations: int = 150, workers: int = 1, matrix: bool = False) -> None:
    bugs = BugConfig.all()  # every seeded bug is live, as in a real campaign
    config = FuzzerConfig(
        generator=GeneratorConfig(n_nodes=10),
        max_iterations=iterations,
        value_search_method="gradient_proxy",
        bugs=bugs,
        seed=7,
    )

    if matrix:
        # Race two compiler subsets over the same model streams at O0 and
        # O2; the per-cell provenance feeds the Venn analysis below.
        print(f"Matrix campaign: [graphrt+deepc | turbo] x O[0,2], "
              f"{iterations} iterations per combination, "
              f"{max(workers, 1)} worker(s) ...")
        result = run_parallel_campaign(
            config=config,
            n_workers=max(workers, 1),
            compiler_sets=[["graphrt", "deepc"], ["turbo"]],
            opt_levels=[0, 2],
        )
    elif workers > 1:
        print(f"Fuzzing {', '.join(DEFAULT_COMPILERS)} for {iterations} "
              f"iterations across {workers} worker processes ...")
        result = run_parallel_campaign(config=config, n_workers=workers)
    else:
        compilers = build_compiler_set(DEFAULT_COMPILERS, bugs=bugs)
        fuzzer = Fuzzer(compilers, config)
        print(f"Fuzzing {', '.join(c.name for c in compilers)} "
              f"for {iterations} iterations ...")
        result = fuzzer.run()

    print(f"\n{result.generated_models} models generated in {result.elapsed:.1f}s "
          f"({result.numerically_valid_models} numerically valid)")
    print(f"{len(result.reports)} deduplicated findings, "
          f"{len(result.seeded_bugs_found)} distinct seeded bugs hit:\n")
    for report in result.reports:
        print(f"  [{report.compiler:<7}] {report.status:<8} ({report.phase}) "
              f"{first_line(report.message, 90)}")
    print("\nGround-truth seeded bugs found:")
    for bug_id in sorted(result.seeded_bugs_found):
        spec = bug_spec(bug_id)
        print(f"  {bug_id:<38} {spec.system}/{spec.phase}/{spec.symptom}")
    print("\nPer-system counts:", result.bugs_by_system())
    if matrix:
        print()
        print(format_venn_table(campaign_cell_sets(result, by="compiler_set"),
                                title="Seeded bugs by compiler subset:"))
        print()
        print(format_venn_table(campaign_cell_sets(result, by="opt_level"),
                                title="Seeded bugs by opt level:"))


if __name__ == "__main__":
    positional = [arg for arg in sys.argv[1:] if not arg.startswith("--")]
    main(int(positional[0]) if positional else 150,
         int(positional[1]) if len(positional) > 1 else 1,
         matrix="--matrix" in sys.argv[1:])
