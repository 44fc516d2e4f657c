"""The fuzzer-comparison summary (the paper's Table 2 / §5.4 head-to-head).

Runs one generator-axis matrix campaign — every registered fuzzing strategy
against the three default compilers over identical budgets — and renders the
per-fuzzer comparison the paper tabulates: unique crashes per compiler,
distinct seeded bugs found, and the design-level reachability bound from
:func:`repro.experiments.bug_study.reachability_analysis`.

Run scaled-down from the command line (the ``make table2`` target)::

    PYTHONPATH=src python -m repro.experiments.table2 [iterations] [workers]
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from repro.experiments.bug_study import (CrashComparisonResult,
                                         crash_comparison,
                                         reachability_analysis)
from repro.experiments.reporting import format_table

DEFAULT_FUZZERS = ("nnsmith", "graphfuzzer", "lemon", "targeted")


def format_fuzzer_comparison(result: CrashComparisonResult,
                             title: str = "Fuzzer comparison") -> str:
    """Render a crash-comparison result as the paper-style summary table."""
    rows = []
    for fuzzer, per_compiler in result.unique_crashes.items():
        row = {"fuzzer": fuzzer}
        row.update(per_compiler)
        row["seeded bugs"] = len(result.seeded_found.get(fuzzer, ()))
        rows.append(row)
    columns = ["fuzzer"] + sorted(
        {key for row in rows for key in row if key != "fuzzer"} - {"seeded bugs"}
    ) + ["seeded bugs"]
    return format_table(rows, columns, title=title)


def run_table2(max_iterations: int = 36, seed: int = 0, n_nodes: int = 8,
               workers: int = 2,
               fuzzers: Sequence[str] = DEFAULT_FUZZERS) -> str:
    """Run the comparison campaign and return the formatted summary."""
    comparison = crash_comparison(max_iterations=max_iterations, seed=seed,
                                  n_nodes=n_nodes, workers=workers,
                                  fuzzers=fuzzers)
    lines = [format_fuzzer_comparison(
        comparison,
        title=f"Fuzzer comparison ({max_iterations} iterations each, "
              f"one generator-axis campaign):")]
    reach = reachability_analysis()
    lines.append("")
    lines.append(f"Design-level reachability: nnsmith {reach['nnsmith']}, "
                 f"graphfuzzer {reach['graphfuzzer']}, "
                 f"lemon {reach['lemon']} of {reach['total_bugs']} seeded "
                 f"bugs ({reach['unreachable_by_baselines']} unreachable by "
                 "both baseline designs)")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    max_iterations = int(argv[0]) if argv else 36
    workers = int(argv[1]) if len(argv) > 1 else 2
    print(run_table2(max_iterations=max_iterations, workers=workers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
