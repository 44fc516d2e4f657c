"""Command-line front end for sharded and matrix fuzzing campaigns.

Run a flat parallel campaign against the three in-repo compilers (deepc,
graphrt and turbo at O2)::

    python -m repro.campaign --iterations 200 --workers 4

Run a **matrix campaign** — the same shard seed streams raced over several
compiler subsets and optimization levels, with per-cell provenance for
Venn-style per-backend/per-opt-level analysis::

    python -m repro.campaign --iterations 100 --workers 4 \\
        --compilers graphrt,deepc --compilers turbo --opt-levels 0,2

``--matrix`` is shorthand for "every registered compiler on its own"
(crossed with ``--opt-levels``); ``--opt-levels`` alone crosses the three
in-repo compilers with those levels.

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

``--checkpoint`` names a journal: a header line naming the campaign, then
one JSON line per iteration, appended as the coordinator folds it, so a
fold costs one iteration's line on disk.  A campaign killed mid-shard
resumes from the exact iteration it reached: the journal is replayed, and
only the iterations missing from it run again (a line cut short by the
kill is dropped, and its iteration re-runs).  A file that is no journal
of this campaign is refused and left as it is.  ``--iterations`` is a
campaign's only bound — no wall clock decides which iterations run — so
to stop a long campaign early, press Ctrl-C and re-run the same command
later::

    python -m repro.campaign --iterations 200 --workers 4 \\
        --checkpoint campaign.ckpt.jsonl

Pin ``--shards`` to resume on another ``--workers``: the shard count
defaults to the worker count, so otherwise the checkpoint is refused.

``--coverage`` traces compiler branch arcs around every oracle call:
each iteration's result carries its new arcs to the coordinator, which records
per-cell arc sets and per-cell and global coverage-over-time series (the
Figure 4/5-style curves).  Tracing never changes *which* iterations run,
so the merged findings are bit-identical with and without it.  Every
oracle group — the cells that differ only in their oracle — is one lease
(``--shards`` splits finer), whose cells share each case's export, builds
and runs; groups of unlike cost, across a matrix axis, or fewer unfinished
groups than workers, are split across a pool or fleet.

``--workers 1`` runs the campaign in-process: the one worker is an inline
transport whose lease frames the coordinator pulls one at a time, through
the same drain loop that serves process pools and socket fleets — no
worker process, no queues, and each iteration is folded and journalled
before the next one runs.  ``--serial`` runs the reference path instead:
one ``Fuzzer`` per shard (``--shards``, default ``--workers``), merged, so
its findings equal the engine's for the same flags.  ``--workers 0``
selects it too, with one shard by default.  The reference path has no
checkpoint support and refuses ``--checkpoint`` loudly.

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
from typing import Any, Callable, List, Optional, Sequence

from repro.compilers.base import DEFAULT_COMPILERS, registered_compilers
from repro.compilers.bugs import bug_spec
from repro.compilers.coverage import is_pass_arc
from repro.compilers.pipeline import OPT_LEVELS, expand_pipeline_tokens
from repro.core.difftest import first_line
from repro.core.fuzzer import CampaignResult, FuzzerConfig
from repro.core.generator import GeneratorConfig
from repro.core.oracle import DEFAULT_ORACLE, registered_oracles
from repro.core.parallel import ParallelCampaign, run_sharded_serial
from repro.core.strategy import DEFAULT_STRATEGY, registered_strategies
from repro.errors import ReproError
from repro.experiments.venn import campaign_cell_sets, format_venn_table


def count_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse ``type`` for integers of at least ``minimum``."""

    def count(text: str) -> int:
        value = int(text)  # argparse reports "invalid count value: ..."
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value

    return count


def opt_level_list(text: str) -> List[int]:
    """An argparse ``type`` for ``--opt-levels``: comma-separated levels of
    :data:`~repro.compilers.pipeline.OPT_LEVELS`."""
    tokens = [token.strip() for token in text.split(",") if token.strip()]
    levels = [str(level) for level in OPT_LEVELS]
    if not tokens or any(token not in levels for token in tokens):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated levels {', '.join(levels[:-1])} or "
            f"{levels[-1]}, got {text!r}")
    return [int(token) for token in tokens]


def registered_name(registry: Callable[[], Sequence[str]],
                    what: str) -> Callable[[str], str]:
    """An argparse ``type`` for one name that ``registry()`` lists when the
    command line is parsed (so names registered before ``main`` count)."""

    def name(text: str) -> str:
        known = registry()
        if text not in known:
            raise argparse.ArgumentTypeError(
                f"unknown {what} {text!r}; registered: {', '.join(known)}")
        return text

    return name


def registered_names(registry: Callable[[], Sequence[str]],
                     what: str) -> Callable[[str], List[str]]:
    """An argparse ``type`` for comma-separated registered names, at least
    one: a list naming nothing would silently drop the user's axis."""
    check = registered_name(registry, what)

    def names(text: str) -> List[str]:
        listed = [check(name.strip()) for name in text.split(",")
                  if name.strip()]
        if not listed:
            raise argparse.ArgumentTypeError(
                f"expected at least one {what} name, got {text!r}")
        return listed

    return names


def pipeline_tokens(text: str) -> List[str]:
    """An argparse ``type`` for ``--pipelines``: at least one comma-separated
    token that :func:`~repro.compilers.pipeline.resolve_pipeline` accepts,
    or a sampler drawing at least one pipeline."""
    tokens = [token.strip() for token in text.split(",") if token.strip()]
    if not tokens:
        raise argparse.ArgumentTypeError(
            f"expected at least one pipeline token, got {text!r}")
    try:
        # The campaign seed only picks which pipelines a sampler draws.
        expand_pipeline_tokens(tokens, campaign_seed=0)
    except (KeyError, ValueError) as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None
    return tokens


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Sharded / matrix process-parallel fuzzing campaign runner.")
    parser.add_argument("--iterations", type=count_at_least(1), default=100,
                        help="total iterations per compiler-set x opt-level "
                             "combination, split across shards (default 100)")
    parser.add_argument("--workers", type=count_at_least(0), default=2,
                        help="worker processes; 1 = in-process, "
                             "0 = serial reference (default 2)")
    parser.add_argument("--shards", type=count_at_least(1), default=None,
                        help="shards per combination (default: --workers; "
                             "pin it to resume a checkpoint with another "
                             "--workers)")
    parser.add_argument("--serial", action="store_true",
                        help="run the serial reference path: one Fuzzer "
                             "per shard, merged")
    parser.add_argument("--compilers", action="append", default=None,
                        type=registered_names(registered_compilers,
                                              "compiler"),
                        metavar="NAME[,NAME...]",
                        help="a compiler subset to race as matrix columns; "
                             "repeat for several subsets "
                             "(e.g. --compilers graphrt,deepc --compilers turbo)")
    parser.add_argument("--matrix", action="store_true",
                        help="shorthand: every registered compiler as its own "
                             "single-element subset")
    parser.add_argument("--opt-levels", type=opt_level_list, default=None,
                        metavar="N[,N...]",
                        help="optimization levels 0-2 crossed with "
                             "--compilers, or with deepc,graphrt,turbo "
                             "without it (default 2)")
    parser.add_argument("--generators", default=None, metavar="NAME[,NAME...]",
                        type=registered_names(registered_strategies,
                                              "generation strategy"),
                        help="generation strategies raced as a matrix axis "
                             "(e.g. nnsmith,graphfuzzer,lemon); "
                             f"registered: {', '.join(registered_strategies())}")
    parser.add_argument("--oracle", default=DEFAULT_ORACLE,
                        type=registered_name(registered_oracles, "oracle"),
                        help="test oracle judging every case; registered: "
                             f"{', '.join(registered_oracles())} "
                             f"(default {DEFAULT_ORACLE})")
    parser.add_argument("--oracles", default=None, metavar="NAME[,NAME...]",
                        type=registered_names(registered_oracles, "oracle"),
                        help="test oracles raced as a matrix axis (e.g. "
                             "difftest,perf,gradcheck): every oracle judges "
                             "the same shard seed streams and the summary "
                             "slices found bugs per oracle; registered: "
                             f"{', '.join(registered_oracles())}")
    parser.add_argument("--pipelines", default=None, metavar="TOK[,TOK...]",
                        type=pipeline_tokens,
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
    parser.add_argument("--coverage", action="store_true",
                        help="trace compiler branch arcs around every "
                             "oracle call and report per-cell coverage "
                             "(findings are identical without it)")
    parser.add_argument("--nodes", type=count_at_least(1), default=10,
                        help="operators per generated model (default 10)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
    parser.add_argument("--method", default="gradient_proxy",
                        choices=("sampling", "gradient", "gradient_proxy"),
                        help="value-search method (default gradient_proxy)")
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="checkpoint journal (JSON lines): every folded "
                             "iteration is appended as it completes, and a "
                             "re-run of the same command resumes mid-cell")
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
    return parser


def make_config(args: argparse.Namespace) -> FuzzerConfig:
    return FuzzerConfig(
        generator=GeneratorConfig(n_nodes=args.nodes),
        max_iterations=args.iterations,
        value_search_method=args.method,
        seed=args.seed,
        oracle=getattr(args, "oracle", DEFAULT_ORACLE),
        verify_passes=getattr(args, "verify_passes", False),
    )


def parse_compiler_sets(args: argparse.Namespace) -> Optional[List[List[str]]]:
    """The matrix columns requested on the command line, or None (the
    default compilers)."""
    sets = list(args.compilers or ())
    if args.matrix and not sets:
        sets = [[name] for name in registered_compilers()]
    return sets or None


def campaign_from_args(args: argparse.Namespace,
                       **fields: Any) -> ParallelCampaign:
    """The campaign a parsed command line asks for, shared by the campaign
    command and ``serve``; ``fields`` are the caller's own
    :class:`~repro.core.parallel.ParallelCampaign` fields (its event
    printer, ``serve``'s transport).  Every name was checked by argparse."""
    return ParallelCampaign(
        config=make_config(args),
        n_workers=max(args.workers, 1),
        compiler_sets=parse_compiler_sets(args),
        opt_levels=args.opt_levels,
        generators=args.generators,
        oracles=args.oracles,
        pipelines=args.pipelines,
        pool_mode=args.pool_mode,
        n_shards=args.shards,
        checkpoint_path=args.checkpoint,
        trace_coverage=args.coverage,
        fault_tolerance=args.fault_tolerance,
        **fields)


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
    by_subset = campaign_cell_sets(result, by="compiler_set")
    if len(by_subset) > 1:
        print()
        print(format_venn_table(by_subset,
                                title="Seeded bugs by compiler subset:"))
    by_opt = campaign_cell_sets(result, by="opt_level")
    if len(by_opt) > 1:
        print()
        print(format_venn_table(by_opt, title="Seeded bugs by opt level:"))
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
    """Run the command line; an expected error (a :class:`ReproError`, such
    as a checkpoint of another campaign) prints ``error: <message>`` and
    returns 1 instead of a traceback."""
    try:
        return _main(list(sys.argv[1:] if argv is None else argv))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _main(argv: List[str]) -> int:
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

    def on_event(kind, cell_key, payload):
        if kind == "progress" and not args.quiet:
            print(f"  [{cell_key}] iteration {payload['iteration']} "
                  f"{payload['status']} in {payload['compiler']}")

    campaign = campaign_from_args(args, on_event=on_event)
    axes = (campaign.compiler_sets, campaign.opt_levels, campaign.generators,
            campaign.oracles, campaign.pipelines)
    if args.serial or args.workers == 0:
        if args.checkpoint:
            # The reference path has no checkpoint pipeline; silently
            # ignoring the flag would look like resume support.  Refuse.
            parser.error("--checkpoint requires the parallel engine; "
                         "use --workers 1 for an in-process run with "
                         "checkpoint support")
        if any(axes):
            # The reference path runs the config alone against the default
            # compilers at O2; silently ignoring an axis would hand the
            # user an O2 campaign labeled as whatever they asked for.
            parser.error("--compilers/--matrix/--opt-levels/--generators/"
                         "--oracles/--pipelines require the parallel "
                         "engine; use --workers 1 for an in-process matrix "
                         "run")
        if args.coverage:
            # The reference path traces nothing; silently ignoring the flag
            # would hand the user a campaign without its coverage.
            parser.error("--coverage requires the parallel engine; use "
                         "--workers 1 for an in-process run")
        print(f"Fuzzing {', '.join(DEFAULT_COMPILERS)} for {args.iterations} "
              f"iterations serially ...")
        result = run_sharded_serial(campaign.config,
                                    args.shards or campaign.n_workers)
        print_summary(result)
        return 0

    compiler_sets, opt_levels, generators, oracles, pipelines = axes
    if compiler_sets or opt_levels:
        columns = " | ".join(",".join(subset) for subset
                             in compiler_sets or [DEFAULT_COMPILERS])
        levels = ",".join(str(level) for level in (opt_levels or [2]))
        mode = f"matrix [{columns}] x O[{levels}]"
    else:
        mode = ", ".join(DEFAULT_COMPILERS)
    if generators:
        mode += f" x gen[{','.join(generators)}]"
    if oracles:
        mode += f" x oracle[{','.join(oracles)}]"
    if pipelines:
        mode += f" x pipe[{','.join(pipelines)}]"
    how = "in-process" if campaign.n_workers == 1 else \
        f"across {campaign.n_workers} worker processes"
    traced = ", tracing coverage" if args.coverage else ""
    print(f"Fuzzing {mode} for {args.iterations} iterations {how}"
          f"{traced} ...")
    print_summary(campaign.run())
    return 0


if __name__ == "__main__":
    sys.exit(main())
