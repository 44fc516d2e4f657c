"""Command-line front end for sharded and matrix fuzzing campaigns.

Run a flat parallel campaign against the three in-repo compilers::

    python -m repro.campaign --iterations 200 --workers 4

Run a **matrix campaign** — the same shard seed streams raced over several
compiler subsets and optimization levels, with per-cell provenance for
Venn-style per-backend/per-opt-level analysis::

    python -m repro.campaign --iterations 100 --workers 4 \\
        --compilers graphrt,deepc --compilers turbo --opt-levels 0,2

``--matrix`` is shorthand for "every registered compiler on its own"
(crossed with ``--opt-levels``).

Race several *generation strategies* (NNSmith vs the baselines, or the
``targeted`` motif strategy) through the same engine with ``--generators``
— the paper's fuzzer-comparison in one campaign, with per-generator
provenance::

    python -m repro.campaign --iterations 90 --workers 2 \\
        --generators nnsmith,graphfuzzer,lemon

``--oracle`` picks the judging oracle (``difftest`` by default; ``crash``
skips the numeric comparison), and ``--pool-mode per-subset`` lets every
matrix cell probe its own compiler subset's operator support instead of the
shared union pool.

``--oracles`` makes the oracle itself a matrix axis: every named oracle
judges the *same* shard seed streams and the summary slices found bugs per
oracle — which is how the bug classes only the ``perf`` (more kernel
calls than O0) and ``gradcheck`` (autodiff backprop vs finite differences)
oracles can see show up as their exclusive Venn regions::

    python -m repro.campaign --iterations 60 --workers 4 \\
        --oracles difftest,perf,gradcheck

``--pipelines`` makes the *pass pipeline* a matrix axis: each token is
either a canonical opt-level pipeline (``O0``/``O1``/``O2``) or a sampler
``random:<k>@<seed>`` that expands to ``k`` deterministic random pass
subsequences/orderings (pure function of the campaign seed and sampler
seed, so every worker and every resume sees the same pipelines).  Sampled
cells run equivalence-modulo-passes differential testing — the same model
population compiled under a shuffled pass sequence versus the canonical
one — which is how ordering-dependent compiler bugs that no canonical
``-O<k>`` level can trigger become visible, each attributable to a minimal
pass subsequence via :mod:`repro.experiments.pass_bisect`::

    python -m repro.campaign --iterations 60 --workers 4 \\
        --compilers graphrt --pipelines O2,random:4@11

``--list-passes`` dumps the registered pass pipelines per backend stage
and exits.

Checkpointing streams *per-iteration* progress: a campaign killed mid-shard
resumes from the exact iteration it reached, re-executing only the missing
iterations of each matrix cell (pure time-budget campaigns track consumed
budget per cell and resume with the remainder)::

    python -m repro.campaign --iterations 200 --workers 4 \\
        --checkpoint campaign.ckpt.json

``--schedule`` picks the lease scheduler (:mod:`repro.core.schedule`):
``static`` pre-plans one lease per cell, ``adaptive`` splits budgets into
chunks that idle workers steal from slower cells, and ``coverage`` turns
the campaign into a coverage-guided one — workers trace compiler branch
arcs per iteration and stream deltas to the coordinator, which leases the
next chunk to the cell with the best recent novelty-per-second and records
per-cell and global coverage-over-time series (the Figure 4/5-style
curves).  Scheduling never changes *which* iterations run: for a fixed
iteration budget the merged findings are bit-identical across all three
(only lease order/placement moves).

``--workers 1`` runs the campaign in-process: the one worker is an inline
transport whose lease frames the coordinator pulls one at a time, through
the same drain loop that serves process pools and socket fleets — no
worker process, no queues, and each iteration is folded and checkpointed
before the next one runs.  ``--workers 0`` (or
``--serial``) runs the PR-1 reference path (one ``Fuzzer`` per shard,
merged); it has no checkpoint support and refuses ``--checkpoint`` loudly.

**Distributed campaigns** hang off three subcommands (see
:mod:`repro.core.fabric.service`): ``serve`` runs the coordinator as a TCP
service, ``worker`` joins a remote fleet member, and ``status`` fetches the
live JSON snapshot::

    python -m repro.campaign serve --port 7777 --iterations 200 &
    python -m repro.campaign worker --connect localhost:7777 &
    python -m repro.campaign status --connect localhost:7777

Findings are transport-independent: the same campaign over local queues,
over sockets, or checkpoint-resumed across the two, produces bit-identical
findings.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.compilers.base import registered_compilers
from repro.compilers.bugs import bug_spec
from repro.compilers.coverage import is_pass_arc
from repro.core.difftest import first_line
from repro.core.fuzzer import CampaignResult, FuzzerConfig
from repro.core.generator import GeneratorConfig
from repro.core.oracle import DEFAULT_ORACLE, registered_oracles
from repro.core.parallel import (
    default_compiler_factory,
    run_parallel_campaign,
    run_sharded_serial,
)
from repro.core.schedule import DEFAULT_SCHEDULER, registered_schedulers
from repro.core.strategy import DEFAULT_STRATEGY, registered_strategies
from repro.experiments.venn import campaign_cell_sets, format_venn_table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Sharded / matrix process-parallel fuzzing campaign runner.")
    parser.add_argument("--iterations", type=int, default=100,
                        help="total iterations per compiler-set x opt-level "
                             "combination, split across shards (default 100)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes; 1 = in-process, "
                             "0 = serial reference (default 2)")
    parser.add_argument("--shards", type=int, default=None,
                        help="shards per combination (default: --workers)")
    parser.add_argument("--serial", action="store_true",
                        help="run the PR-1 serial reference path")
    parser.add_argument("--compilers", action="append", default=None,
                        metavar="NAME[,NAME...]",
                        help="a compiler subset to race as matrix columns; "
                             "repeat for several subsets "
                             "(e.g. --compilers graphrt,deepc --compilers turbo)")
    parser.add_argument("--matrix", action="store_true",
                        help="shorthand: every registered compiler as its own "
                             "single-element subset")
    parser.add_argument("--opt-levels", default=None, metavar="N[,N...]",
                        help="optimization levels crossed with --compilers "
                             "(default 2)")
    parser.add_argument("--generators", default=None, metavar="NAME[,NAME...]",
                        help="generation strategies raced as a matrix axis "
                             "(e.g. nnsmith,graphfuzzer,lemon); "
                             f"registered: {', '.join(registered_strategies())}")
    parser.add_argument("--oracle", default=DEFAULT_ORACLE,
                        help="test oracle judging every case; registered: "
                             f"{', '.join(registered_oracles())} "
                             f"(default {DEFAULT_ORACLE})")
    parser.add_argument("--oracles", default=None, metavar="NAME[,NAME...]",
                        help="test oracles raced as a matrix axis (e.g. "
                             "difftest,perf,gradcheck): every oracle judges "
                             "the same shard seed streams and the summary "
                             "slices found bugs per oracle; registered: "
                             f"{', '.join(registered_oracles())}")
    parser.add_argument("--pipelines", default=None, metavar="TOK[,TOK...]",
                        help="pass pipelines raced as a matrix axis: 'O0'/"
                             "'O1'/'O2' name the canonical opt-level "
                             "pipelines, 'random:<k>@<seed>' expands to k "
                             "deterministic sampled pass subsequences/"
                             "orderings (e.g. --pipelines O2,random:4@11); "
                             "sampled cells difftest equivalence-modulo-"
                             "passes against the canonical pipeline")
    parser.add_argument("--list-passes", action="store_true",
                        help="print the registered pass registry (per "
                             "backend stage, canonical order) and exit")
    parser.add_argument("--pool-mode", default="union",
                        choices=("union", "per-subset"),
                        help="operator-pool probing for --compilers matrices: "
                             "'union' bakes one shared pool into every cell "
                             "(apples-to-apples streams); 'per-subset' lets "
                             "each cell fuzz every operator its own subset "
                             "supports (default union)")
    parser.add_argument("--schedule", default=DEFAULT_SCHEDULER,
                        choices=registered_schedulers(),
                        help="lease scheduler: 'static' pre-plans cell "
                             "budgets, 'adaptive' lets idle workers steal "
                             "from slower cells, 'coverage' leases by "
                             "recent new-arc rate using per-iteration "
                             "coverage feedback (findings are identical "
                             "across schedulers; default "
                             f"{DEFAULT_SCHEDULER})")
    parser.add_argument("--nodes", type=int, default=10,
                        help="operators per generated model (default 10)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
    parser.add_argument("--method", default="gradient_proxy",
                        choices=("sampling", "gradient", "gradient_proxy"),
                        help="value-search method (default gradient_proxy)")
    parser.add_argument("--time-budget", type=float, default=None,
                        help="wall-clock budget per shard in seconds")
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="JSON checkpoint path; streams per-iteration "
                             "progress and resumes mid-cell")
    parser.add_argument("--checkpoint-every", type=int, default=1, metavar="N",
                        help="persist the checkpoint every N folded "
                             "iterations (default 1 = finest resume "
                             "granularity; raise for long campaigns — the "
                             "snapshot is rewritten in full on every save, "
                             "and with --schedule coverage it includes "
                             "every cell's cumulative arc set, so per-"
                             "iteration saves grow quadratic in coverage)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress streamed per-finding progress")
    parser.add_argument("--verify-passes", action="store_true",
                        help="check IR well-formedness at every pass "
                             "boundary of every compile (repro.analysis); "
                             "ill-formed IR surfaces as 'verifier' findings "
                             "that no execution-based oracle can observe")
    parser.add_argument("--fault-tolerance", default="fail",
                        choices=("fail", "requeue"),
                        help="dead-worker policy: 'fail' aborts the campaign "
                             "loudly (default); 'requeue' redistributes a "
                             "dead worker's leases to the survivors — "
                             "findings are bit-identical either way")
    parser.add_argument("--stagnation-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="early-terminate a cell whose coverage novelty "
                             "has been flat for this many compute seconds "
                             "(requires --schedule coverage)")
    return parser


def make_config(args: argparse.Namespace) -> FuzzerConfig:
    return FuzzerConfig(
        generator=GeneratorConfig(n_nodes=args.nodes),
        max_iterations=args.iterations,
        time_budget=args.time_budget,
        value_search_method=args.method,
        seed=args.seed,
        oracle=getattr(args, "oracle", DEFAULT_ORACLE),
        verify_passes=getattr(args, "verify_passes", False),
    )


def parse_generators(args: argparse.Namespace) -> Optional[List[str]]:
    """The generator-axis strategies requested on the command line."""
    if not args.generators:
        return None
    names = [name.strip() for name in args.generators.split(",")
             if name.strip()]
    return names or None


def parse_oracles(args: argparse.Namespace) -> Optional[List[str]]:
    """The oracle-axis oracles requested on the command line."""
    if not getattr(args, "oracles", None):
        return None
    names = [name.strip() for name in args.oracles.split(",")
             if name.strip()]
    return names or None


def parse_pipelines(args: argparse.Namespace) -> Optional[List[str]]:
    """The pipeline-axis tokens requested on the command line."""
    if not getattr(args, "pipelines", None):
        return None
    names = [name.strip() for name in args.pipelines.split(",")
             if name.strip()]
    return names or None


def parse_compiler_sets(args: argparse.Namespace) -> Optional[List[List[str]]]:
    """The matrix columns requested on the command line, or None (flat)."""
    sets: List[List[str]] = []
    if args.compilers:
        for spec in args.compilers:
            names = [name.strip() for name in spec.split(",") if name.strip()]
            if names:
                sets.append(names)
    if args.matrix and not sets:
        sets = [[name] for name in registered_compilers()]
    return sets or None


def parse_opt_levels(args: argparse.Namespace) -> Optional[List[int]]:
    if args.opt_levels is None:
        return None
    return [int(level.strip()) for level in args.opt_levels.split(",")
            if level.strip()]


def print_summary(result: CampaignResult) -> None:
    print(f"\n{result.generated_models} models generated over "
          f"{result.iterations} iterations in {result.elapsed:.1f}s "
          f"({result.numerically_valid_models} numerically valid)")
    print(f"{len(result.reports)} deduplicated findings, "
          f"{len(result.seeded_bugs_found)} distinct seeded bugs hit")
    for report in result.reports:
        print(f"  [{report.compiler:<7}] {report.status:<8} ({report.phase}) "
              f"{first_line(report.message, 90)}")
    if result.seeded_bugs_found:
        print("\nGround-truth seeded bugs found:")
        for bug_id in sorted(result.seeded_bugs_found):
            spec = bug_spec(bug_id)
            print(f"  {bug_id:<38} {spec.system}/{spec.phase}/{spec.symptom}")
    print("\nPer-system counts:", result.bugs_by_system())
    if result.coverage_arcs:
        pass_arcs = sum(1 for arc in result.coverage_arcs
                        if is_pass_arc(arc))
        print(f"\nCompiler coverage: {len(result.coverage_arcs)} branch "
              f"arcs ({pass_arcs} in pass files) over "
              f"{len(result.coverage_timeline)} sampled iterations")
        if result.cells:
            for key in sorted(result.cells):
                cell = result.cells[key]
                if cell.coverage_arcs:
                    print(f"  [{key}] {len(cell.coverage_arcs)} arcs")
    if result.cells and any(cell.compilers for cell in result.cells.values()):
        print()
        print(format_venn_table(campaign_cell_sets(result, by="compiler_set"),
                                title="Seeded bugs by compiler subset:"))
        by_opt = campaign_cell_sets(result, by="opt_level")
        if len(by_opt) > 1:
            print()
            print(format_venn_table(by_opt,
                                    title="Seeded bugs by opt level:"))
    if result.cells and any(cell.generator for cell in result.cells.values()):
        print()
        print(format_venn_table(campaign_cell_sets(result, by="generator"),
                                title="Seeded bugs by generator:"))
    if result.cells and any(cell.oracle for cell in result.cells.values()):
        print()
        print(format_venn_table(campaign_cell_sets(result, by="oracle"),
                                title="Seeded bugs by oracle:"))
    if result.cells and any(cell.pipeline for cell in result.cells.values()):
        print()
        print(format_venn_table(campaign_cell_sets(result, by="pipeline"),
                                title="Seeded bugs by pipeline:"))


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("serve", "worker", "status"):
        # Fabric subcommands (repro.core.fabric.service): the coordinator
        # service, a fleet worker, and the live-status client.  Dispatched
        # here rather than via subparsers so the historical flag-only
        # invocation (and every script parsing `build_parser()`) is
        # untouched.
        from repro.core.fabric.service import fabric_main

        return fabric_main(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_passes:
        from repro.compilers.pipeline import describe_pass_registry
        print(describe_pass_registry())
        return 0
    config = make_config(args)
    serial = args.serial or args.workers == 0
    n_workers = max(args.workers, 1)
    compiler_sets = parse_compiler_sets(args)
    opt_levels = parse_opt_levels(args)
    generators = parse_generators(args)
    oracles = parse_oracles(args)
    pipelines = parse_pipelines(args)
    if opt_levels is not None and compiler_sets is None:
        # Factory mode fixes its own opt levels; silently ignoring the flag
        # would hand the user an O2 campaign labeled as whatever they asked.
        parser.error("--opt-levels requires --compilers or --matrix")

    if serial:
        if args.checkpoint:
            # The reference path has no checkpoint pipeline; silently
            # ignoring the flag would look like resume support.  Refuse.
            parser.error("--checkpoint requires the parallel engine; "
                         "use --workers 1 for an in-process run with "
                         "checkpoint support")
        if compiler_sets or generators or oracles or pipelines:
            parser.error("--compilers/--matrix/--generators/--oracles/"
                         "--pipelines require the parallel engine; use "
                         "--workers 1 for an in-process matrix run")
        if args.schedule != DEFAULT_SCHEDULER:
            # The reference path has no lease scheduler at all; silently
            # ignoring the flag would look like coverage-guided scheduling.
            parser.error("--schedule requires the parallel engine; use "
                         "--workers 1 for an in-process run")
        print(f"Fuzzing graphrt, deepc, turbo for {args.iterations} "
              f"iterations serially ...")
        result = run_sharded_serial(config, n_workers)
        print_summary(result)
        return 0

    if compiler_sets:
        columns = " | ".join(",".join(subset) for subset in compiler_sets)
        levels = ",".join(str(level) for level in (opt_levels or [2]))
        mode = f"matrix [{columns}] x O[{levels}]"
    else:
        mode = "graphrt, deepc, turbo"
    if generators:
        mode += f" x gen[{','.join(generators)}]"
    if oracles:
        mode += f" x oracle[{','.join(oracles)}]"
    if pipelines:
        mode += f" x pipe[{','.join(pipelines)}]"
    how = "in-process" if n_workers == 1 else \
        f"across {n_workers} worker processes"
    print(f"Fuzzing {mode} for {args.iterations} iterations {how} "
          f"({args.schedule} scheduling) ...")

    def on_event(kind, cell_key, payload):
        if kind == "progress" and not args.quiet:
            print(f"  [{cell_key}] iteration {payload['iteration']} "
                  f"{payload['status']} in {payload['compiler']}")

    result = run_parallel_campaign(
        config=config,
        n_workers=n_workers,
        compiler_factory=default_compiler_factory,
        compiler_sets=compiler_sets,
        opt_levels=opt_levels,
        generators=generators,
        oracles=oracles,
        pipelines=pipelines,
        pool_mode=args.pool_mode,
        n_shards=args.shards,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        schedule=args.schedule,
        on_event=on_event,
        fault_tolerance=args.fault_tolerance,
        stagnation_budget=args.stagnation_budget,
    )
    print_summary(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
