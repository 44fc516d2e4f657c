"""Matrix campaigns: sharded, process-parallel fuzzing over a compiler matrix.

:class:`repro.core.fuzzer.Fuzzer` is a strictly serial loop; a campaign uses
one core no matter how many are available.  The search is embarrassingly
parallel, so this module schedules it over a fleet of workers.  The unit
of work is a **matrix cell** — one shard's seed stream produced by one
*generation strategy*, run against one *compiler subset* at one
*optimization level* (:class:`MatrixCell`).  A campaign without a
compiler axis is the degenerate 1×1 matrix: N shards against
:data:`~repro.compilers.base.DEFAULT_COMPILERS` at O2, generated by the
config's strategy.  Compilers, generators and oracles are registry names
(:mod:`repro.compilers.base`, :mod:`repro.core.strategy`,
:mod:`repro.core.oracle`) rebuilt inside workers — only names and data
cross a process boundary or reach a checkpoint — which is what lets
NNSmith-vs-baseline comparisons run as *one* sharded, checkpointed
campaign with a generator axis
(``generators=("nnsmith", "graphfuzzer", "lemon")``).

One coordinator loop serves three transports
(:mod:`repro.core.fabric.transport`): the inline worker of a one-worker
campaign (nothing is spawned; each iteration is folded before the next
runs), a ``multiprocessing`` pool, and a TCP socket fleet.  Every worker
runs one lease generator, :func:`lease_frames`; ``ParallelCampaign.
_drain`` decides which worker runs which lease and folds every
iteration, whatever carried it.

Three properties distinguish the matrix engine from a flat shard list:

* **Shared streams.**  Every compiler subset sees the *same* shard seed
  streams: cell ``(shard=s, subset=A, O2)`` and cell ``(shard=s, subset=B,
  O0)`` generate and value-search identical models.  Combined with the
  per-cell provenance recorded in :class:`~repro.core.fuzzer.CellOutcome`,
  this makes per-backend / per-opt-level bug Venn diagrams
  (:func:`repro.experiments.venn.campaign_cell_sets`) an apples-to-apples
  comparison.  When ``probe_operator_support`` is on, the operator pool is
  probed once over the *union* of all matrix compilers so every cell
  generates from the same pool.
* **Intra-cell checkpointing.**  Workers stream every completed iteration's
  result back to the coordinator, which folds it and, with a
  ``checkpoint_path``, appends it to a JSON-lines journal
  (``format_version`` 10): a header line naming the campaign, then one
  line per folded (cell, iteration) holding its duration, its stamp on
  the coordinator's clock and the iteration's payload.  A fold costs one
  iteration's line on disk, and an interrupted cell resumes *mid-stream*:
  the journal is replayed through the same fold, and only the iterations
  missing from it are re-executed.  This is
  sound because every iteration is seeded purely from ``(config,
  iteration)`` (see :func:`repro.core.fuzzer.iteration_seed`), so iterations
  can be re-executed in any order on any worker.  Every cell is bounded by
  its iteration count alone, so no wall clock decides which iterations
  run; a campaign stopped with Ctrl-C resumes from its checkpoint.
* **Oracle-group leases.**  The cells that differ only in their oracle
  form an *oracle group* (a campaign without an oracle axis has groups of
  one), and a lease is a run of iterations of one group: each iteration
  runs for every cell of the lease in cell order, still one
  :func:`~repro.core.fuzzer.single_iteration_result` and one
  :class:`~repro.core.fabric.protocol.IterationResult` per cell.  The
  cells make each case once: one strategy generates it, one value search
  (or random draw) finds its inputs, and every cell judges those same
  objects, sharing the case's export, its builds and each build's run on
  its inputs (:class:`~repro.core.difftest.JudgingMemo`).  Requeued
  work goes out first, then each group whole, in cell order
  (``n_shards`` splits finer); groups of unlike cost, or fewer
  unfinished groups than live workers, are split across them
  (:meth:`ParallelCampaign._next_lease`).
  With ``trace_coverage`` on, workers trace compiler branch arcs per
  iteration and each iteration's result carries the arcs new to its
  worker (:class:`repro.compilers.coverage.CoverageFeedback`), and the
  coordinator keeps per-cell arc sets, the campaign-wide union and the
  coverage-over-time series behind Figures 4–8.  A traced cell searches
  and judges on its own, so its arcs stay its own.  Tracing records arcs
  and never changes which ``(config, iteration)`` pairs run or their
  seeds.

Determinism: the merged found-bug sets, per-cell iteration counts and
deduplicated reports (a cell keeps each key's report from its lowest
iteration: key, message and iteration) depend only on the campaign config
and matrix shape — not on worker count, lease order, interruption or
coverage tracing.

Checkpoints are fingerprinted by everything that changes what a cell
computes — including the compiler subsets and opt levels of the matrix —
so a differently-shaped campaign can never silently cross-load another
campaign's checkpoint.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (AbstractSet, Any, Callable, Deque, Dict, FrozenSet,
                    Iterator, List, Optional, Sequence, Set, TextIO, Tuple)

import numpy as np

from repro.compilers.base import (DEFAULT_COMPILERS, build_compiler_set,
                                  registered_compilers)
from repro.compilers.coverage import CoverageFeedback, is_pass_arc
from repro.compilers.pipeline import (OPT_LEVELS, expand_pipeline_tokens,
                                      resolve_pipeline)
from repro.core.difftest import DifferentialTester, SharedJudging, sharing
from repro.core.fabric.protocol import (PROTOCOL_VERSION, Claim, ChunkDone,
                                        IterationResult, Lease, Message,
                                        ProtocolError, WorkerError,
                                        config_to_dict, decode, encode,
                                        task_from_dict)
from repro.core.fabric.transport import (CoordinatorTransport,
                                         InlineTransport, LocalTransport)
from repro.core.fuzzer import (BugReport, CampaignResult, CellOutcome, Fuzzer,
                               FuzzerConfig, probe_supported_pool,
                               single_iteration_result)
from repro.core.oracle import build_oracle
from repro.core.strategy import (GenerationStrategy, build_strategy,
                                 registered_strategies)
from repro.errors import ReproError
from repro.graph.serialize import to_jsonable

#: v10 is an append-only journal: a header line (this version, the
#: campaign fingerprint, ``coverage_feedback``), then one line per folded
#: (cell, iteration).  v9 and older files were whole-campaign snapshots,
#: rewritten on every fold.  The fingerprint's config part is the fabric's
#: :func:`~repro.core.fabric.protocol.config_to_dict`, so the wire and the
#: checkpoint share one serialization.  Deliberately *not* in the
#: fingerprint: the transport, the worker count and the fault-tolerance
#: mode — a campaign checkpointed on local queues resumes over sockets (and
#: vice versa) because what a cell computes is seeded purely from
#: ``(config, iteration)``.  Older checkpoints, and journals of another
#: campaign, are *rejected with an error* rather than silently discarded: an
#: old file is a real mid-campaign state the user cared about, and quietly
#: restarting from scratch would look like resume while throwing that state
#: away.
CHECKPOINT_FORMAT_VERSION = 10

#: Accepted ``ParallelCampaign.fault_tolerance`` modes.  ``"fail"`` is the
#: historical behavior: a dead worker's lease fails the campaign loudly.
#: ``"requeue"`` requeues a dead worker's lease and finishes the campaign
#: with the survivors — findings stay bit-identical because iterations are
#: seeded purely from ``(config, iteration)`` and folds deduplicate
#: replays.
FAULT_TOLERANCE_MODES = ("fail", "requeue")

#: Coordinator poll interval while waiting for worker messages, and the
#: interval between its checks of every worker's liveness (seconds).
POLL_TIMEOUT = 1.0
#: Consecutive liveness checks a worker must fail before it is given up on
#: and retired for good (its final messages can still be in flight right
#: after exit).
DEAD_WORKER_POLLS = 3

# --------------------------------------------------------------------------- #
# Shard seeding
# --------------------------------------------------------------------------- #
def shard_seed(campaign_seed: int, shard_index: int) -> int:
    """Derive a shard's campaign seed; disjoint streams across shards *and*
    across nearby campaign seeds (SeedSequence mixing, not linear offsets)."""
    entropy = (campaign_seed % (1 << 63), shard_index % (1 << 63))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def shard_configs(config: FuzzerConfig, n_workers: int) -> List[FuzzerConfig]:
    """Split a campaign config into per-shard configs with disjoint seeds.

    The iteration budget, the only bound a campaign has, is divided as
    evenly as possible (earlier shards absorb the remainder, and shards
    beyond the budget get none).
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    total = config.max_iterations
    if total is None or total < 1:
        raise ValueError("max_iterations must be an iteration count of at "
                         f"least 1, got {total!r}: iterations alone bound "
                         "a campaign")
    shards: List[FuzzerConfig] = []
    for index in range(n_workers):
        budget = total // n_workers + (1 if index < total % n_workers else 0)
        shards.append(dataclasses.replace(
            config,
            generator=dataclasses.replace(config.generator),
            max_iterations=budget,
            seed=shard_seed(config.seed, index),
        ))
    return shards


def deterministic_config(config: FuzzerConfig,
                         max_steps: int = 32) -> FuzzerConfig:
    """A copy of ``config`` with ``value_search_max_steps=max_steps``.

    Value search is always step-bounded, so this is a plain field update.
    It remains only because ``perfbench/workloads.py`` imports it; the
    next change to perfbench builds a plain :class:`FuzzerConfig` instead
    and deletes it."""
    return dataclasses.replace(config, value_search_max_steps=max_steps)


# --------------------------------------------------------------------------- #
# The campaign matrix
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MatrixCell:
    """One work unit of a matrix campaign.

    ``compilers`` is a sorted tuple of registered compiler names, built at
    ``opt_level``.  ``generator`` names the cell's generation strategy;
    None means "the campaign config's strategy", and an absent axis adds
    no component to the cell key.
    """

    shard: int
    compilers: Tuple[str, ...] = DEFAULT_COMPILERS
    opt_level: int = 2
    generator: Optional[str] = None
    #: The cell's test oracle; None means "the campaign config's oracle".
    oracle: Optional[str] = None
    #: The cell's pipeline token (``"O<k>"`` / ``"rand:<seed>:<index>"``,
    #: see :mod:`repro.compilers.pipeline`); None means "the canonical
    #: pipeline of the cell's opt level".
    pipeline: Optional[str] = None

    def outcome(self) -> CellOutcome:
        """A fresh, empty provenance record for this cell."""
        return CellOutcome(shard=self.shard, compilers=tuple(self.compilers),
                           opt_level=self.opt_level, generator=self.generator,
                           oracle=self.oracle, pipeline=self.pipeline)

    @property
    def key(self) -> str:
        return self.outcome().key()


@dataclass
class CellTask:
    """A matrix cell plus the shard config it executes.

    ``trace_coverage`` tells the executing worker to trace compiler branch
    arcs per iteration and report each iteration's new arcs — set by the
    coordinator when the campaign traces coverage
    (``ParallelCampaign.trace_coverage``).
    (It rides on the task, not the worker entry point, so the worker
    signature stays stable for tests that substitute workers.)
    """

    cell: MatrixCell
    config: FuzzerConfig
    trace_coverage: bool = False


def build_matrix(config: FuzzerConfig, n_shards: int,
                 compiler_sets: Optional[Sequence[Sequence[str]]] = None,
                 opt_levels: Optional[Sequence[int]] = None,
                 generators: Optional[Sequence[str]] = None,
                 oracles: Optional[Sequence[str]] = None,
                 pipelines: Optional[Sequence[str]] = None) -> List[CellTask]:
    """Expand a config into the shard × compilers × opt × generator × oracle
    × pipeline matrix.

    Every ``(compiler_set, opt_level, generator, oracle)`` combination
    receives the *full* campaign iteration budget, split over ``n_shards``
    shards exactly like a flat campaign — so each combination explores
    comparable model streams and results slice cell-by-cell.  With
    ``compiler_sets=None`` the compiler axis is
    :data:`~repro.compilers.base.DEFAULT_COMPILERS`, crossed with
    ``opt_levels`` (default ``[2]``, each one of
    :data:`~repro.compilers.pipeline.OPT_LEVELS`); with ``generators=None``
    the generator axis degenerates to the config's own strategy, with
    ``oracles=None`` the oracle axis to the config's own oracle, and
    neither adds a cell-key component.  Cells with an explicit
    generator/oracle carry it in their shard config (``config.strategy`` /
    ``config.oracle``) so workers rebuild the right component by name.
    Oracle cells share the same shard seed streams as every other axis
    (iteration seeds never mix the oracle in), so per-oracle Venn slices
    compare identical model populations.  ``pipelines`` takes pipeline
    *tokens* (``"O<k>"``, ``"rand:<seed>:<index>"`` or the sampler syntax
    ``"random:<k>@<seed>"``, expanded here against the campaign seed so the
    draw is a pure function of the config); with ``pipelines=None`` the
    axis degenerates to "each compiler's canonical pipeline", again
    without a key component.
    """
    if pipelines is not None:
        pipeline_axis: List[Optional[str]] = list(
            expand_pipeline_tokens(pipelines, config.seed))
        if not pipeline_axis:
            raise ValueError("pipelines must name at least one pipeline")
    else:
        pipeline_axis = [None]
    shards = shard_configs(config, n_shards)
    known = set(registered_compilers())
    subsets: List[Tuple[str, ...]] = []
    for subset in (compiler_sets if compiler_sets is not None
                   else [DEFAULT_COMPILERS]):
        names = tuple(sorted(subset))
        if not names:
            raise ValueError("empty compiler subset in compiler_sets")
        unknown = [name for name in names if name not in known]
        if unknown:
            raise KeyError(f"unknown compiler(s) {unknown}; "
                           f"registered: {sorted(known)}")
        subsets.append(names)
    if not subsets:
        raise ValueError("compiler_sets must name at least one subset")
    levels = list(opt_levels) if opt_levels else [2]
    unknown_levels = [level for level in levels if level not in OPT_LEVELS]
    if unknown_levels:
        raise ValueError(f"unknown opt level(s) {unknown_levels}; "
                         f"expected levels in {list(OPT_LEVELS)}")
    # Dedupe: repeated subsets/levels would produce cells with identical
    # keys, which collide in the checkpoint and double-count provenance.
    combos: List[Tuple[Tuple[str, ...], int]] = []
    for subset in subsets:
        for level in levels:
            if (subset, level) not in combos:
                combos.append((subset, level))
    if generators is None:
        generator_axis: List[Optional[str]] = [None]
    else:
        known_strategies = set(registered_strategies())
        generator_axis = []
        for name in generators:
            if name not in known_strategies:
                raise KeyError(f"unknown generation strategy {name!r}; "
                               f"registered: {sorted(known_strategies)}")
            if name not in generator_axis:
                generator_axis.append(name)
        if not generator_axis:
            raise ValueError("generators must name at least one strategy")
    if oracles is None:
        oracle_axis: List[Optional[str]] = [None]
    else:
        from repro.core.oracle import registered_oracles

        known_oracles = set(registered_oracles())
        oracle_axis = []
        for name in oracles:
            if name not in known_oracles:
                raise KeyError(f"unknown oracle {name!r}; "
                               f"registered: {sorted(known_oracles)}")
            if name not in oracle_axis:
                oracle_axis.append(name)
        if not oracle_axis:
            raise ValueError("oracles must name at least one oracle")

    def cell_config(shard: FuzzerConfig, generator: Optional[str],
                    oracle: Optional[str],
                    pipeline: Optional[str]) -> FuzzerConfig:
        if generator is None and oracle is None and pipeline is None:
            return shard
        return dataclasses.replace(
            shard,
            generator=dataclasses.replace(shard.generator),
            strategy=shard.strategy if generator is None else generator,
            oracle=shard.oracle if oracle is None else oracle,
            pipeline=shard.pipeline if pipeline is None else pipeline)

    return [CellTask(cell=MatrixCell(shard=index, compilers=subset,
                                     opt_level=level, generator=generator,
                                     oracle=oracle, pipeline=pipeline),
                     config=cell_config(shard, generator, oracle, pipeline))
            for pipeline in pipeline_axis
            for oracle in oracle_axis
            for generator in generator_axis
            for subset, level in combos
            for index, shard in enumerate(shards)]


# --------------------------------------------------------------------------- #
# Campaign-result (de)serialization for checkpoints
# --------------------------------------------------------------------------- #
def campaign_result_to_dict(result: CampaignResult) -> Dict[str, Any]:
    """JSON-compatible encoding of a campaign result."""
    return {
        "iterations": result.iterations,
        "generated_models": result.generated_models,
        "generation_failures": result.generation_failures,
        "numerically_valid_models": result.numerically_valid_models,
        "elapsed": result.elapsed,
        "reports": [to_jsonable(dataclasses.asdict(report))
                    for report in result.reports],
        "operator_instances": sorted(result.operator_instances),
        "seeded_bugs_found": sorted(result.seeded_bugs_found),
        "timeline": to_jsonable(result.timeline),
        "coverage_arcs": sorted(result.coverage_arcs),
        "coverage_timeline": to_jsonable(result.coverage_timeline),
        "cells": {
            key: {
                "shard": cell.shard,
                "compilers": list(cell.compilers),
                "opt_level": cell.opt_level,
                "generator": cell.generator,
                "oracle": cell.oracle,
                "pipeline": cell.pipeline,
                "iterations": cell.iterations,
                "seeded_bugs_found": sorted(cell.seeded_bugs_found),
                "report_keys": sorted(cell.report_keys),
                "coverage_arcs": sorted(cell.coverage_arcs),
            }
            for key, cell in result.cells.items()
        },
    }


def campaign_result_from_dict(payload: Dict[str, Any]) -> CampaignResult:
    """Rebuild a campaign result from :func:`campaign_result_to_dict`."""
    cells = {
        key: CellOutcome(
            shard=entry["shard"],
            compilers=tuple(entry["compilers"]),
            opt_level=entry["opt_level"],
            iterations=entry.get("iterations", 0),
            seeded_bugs_found=set(entry.get("seeded_bugs_found", [])),
            report_keys=set(entry.get("report_keys", [])),
            generator=entry.get("generator"),
            oracle=entry.get("oracle"),
            coverage_arcs=set(entry.get("coverage_arcs", [])),
            pipeline=entry.get("pipeline"),
        )
        for key, entry in payload.get("cells", {}).items()
    }
    return CampaignResult(
        iterations=payload.get("iterations", 0),
        generated_models=payload.get("generated_models", 0),
        generation_failures=payload.get("generation_failures", 0),
        numerically_valid_models=payload.get("numerically_valid_models", 0),
        elapsed=payload.get("elapsed", 0.0),
        reports=[BugReport(**entry) for entry in payload.get("reports", [])],
        operator_instances=set(payload.get("operator_instances", [])),
        seeded_bugs_found=set(payload.get("seeded_bugs_found", [])),
        timeline=list(payload.get("timeline", [])),
        cells=cells,
        coverage_arcs=set(payload.get("coverage_arcs", [])),
        coverage_timeline=list(payload.get("coverage_timeline", [])),
    )


def _differences(saved: Dict[str, Any], current: Dict[str, Any],
                 prefix: str = "") -> List[str]:
    """``"key: A in the checkpoint, B now"`` per differing entry of two
    checkpoint fingerprints (nested keys dotted, values cut at 40)."""
    lines = []
    for key in sorted(set(saved) | set(current)):
        old, new = saved.get(key), current.get(key)
        if isinstance(old, dict) and isinstance(new, dict):
            lines += _differences(old, new, f"{prefix}{key}.")
        elif old != new:
            lines.append(f"{prefix}{key}: {json.dumps(old)[:40]} in the "
                         f"checkpoint, {json.dumps(new)[:40]} now")
    return lines


def _ranges_from_iterations(iterations: AbstractSet[int]
                            ) -> List[List[int]]:
    """Compact a set of iteration indices into inclusive [start, end] runs."""
    runs: List[List[int]] = []
    for value in sorted(iterations):
        if runs and value == runs[-1][1] + 1:
            runs[-1][1] = value
        else:
            runs.append([value, value])
    return runs


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #
#: A cell's built oracle, effective config, strategy and coverage channel.
CellRuntime = Tuple[DifferentialTester, FuzzerConfig, GenerationStrategy,
                    Optional[CoverageFeedback]]


def _cell_tester(task: CellTask) -> CellRuntime:
    """Build a cell's oracle, effective config, strategy and coverage channel.

    The cell's compilers come from the compiler registry at its opt level;
    the oracle and strategy are rebuilt from their registry names in the
    cell config — names travel through process boundaries and checkpoint
    fingerprints, instances are built on arrival.  Cells whose config still
    asks for probing (``per-subset`` pool mode) probe the operator pool
    locally over their own compilers; in the default ``union`` mode cells
    arrive with the pool already probed and baked in by the coordinator.
    Probing is skipped for strategies that do not consume the operator
    pool.
    """
    cell, config = task.cell, task.config
    spec = None
    if config.pipeline is not None:
        spec = resolve_pipeline(config.pipeline)
    compilers = build_compiler_set(cell.compilers, opt_level=cell.opt_level,
                                   bugs=config.bugs, pipeline=spec,
                                   verify_passes=config.verify_passes)
    tester = build_oracle(config.oracle, compilers, bugs=config.bugs)
    strategy = build_strategy(config.strategy, config)
    if config.probe_operator_support and \
            strategy.capabilities.supports_op_pool:
        config = dataclasses.replace(
            config,
            generator=dataclasses.replace(
                config.generator,
                op_pool=probe_supported_pool(tester.compilers,
                                             config.generator.op_pool)),
            probe_operator_support=False)
        # Rebuild on the probed config: the strategy captured the pre-probe
        # generator knobs at construction time.
        strategy = build_strategy(config.strategy, config)
    coverage = None
    if task.trace_coverage:
        systems = sorted({compiler.name for compiler in tester.compilers})
        coverage = CoverageFeedback(systems=systems)
    return tester, config, strategy, coverage


def lease_frames(worker: str, lease: Lease,
                 runtimes: Dict[int, CellRuntime],
                 tasks: Optional[List[CellTask]] = None
                 ) -> Iterator[Message]:
    """Run one lease, yielding its protocol frames as they happen.

    The worker core of every transport: a :class:`Claim`, then one
    :class:`IterationResult` per (cell, iteration) — each iteration for
    every cell of the lease, in cell order; its payload's
    ``coverage_arcs`` are the arcs new to this worker's view of the cell —
    then :class:`ChunkDone`, or a single :class:`WorkerError`, after which
    the worker retires.  Only ``Exception`` becomes a ``WorkerError``:
    ``GeneratorExit`` and Ctrl-C pass through.

    The lease's cells form one oracle group, so they make the same case
    each iteration: every cell calls the first cell's strategy, which
    answers the repeated ``(seed, iteration)`` with the model it made for
    the first (:meth:`~repro.core.strategy.GenerationStrategy.generate`),
    and one :class:`~repro.core.difftest.SharedJudging` per iteration
    gives every cell the same searched model and inputs and lets them
    share its export, its builds and each build's run on the case's
    inputs.  A cell that traces coverage searches and judges on its own,
    so its arcs stay its own.

    Pool workers pass the task list they were forked with; socket workers
    pass ``tasks=None`` and rebuild each cell's task from the lease's
    payload.  ``runtimes`` caches each cell's built tester across a
    worker's leases.  ``lease.stop`` is inclusive.  Each iteration's
    wall-clock ``duration`` is telemetry only: it feeds the cell's
    compute-time axis, never which iterations run.
    """
    yield Claim(worker=worker, chunk_id=lease.chunk_id)
    cell_index = lease.cells[0]
    try:
        for position, cell_index in enumerate(lease.cells):
            if cell_index in runtimes:
                continue
            if tasks is not None:
                task = tasks[cell_index]
            elif lease.tasks is not None:
                task = task_from_dict(lease.tasks[position])
            else:
                raise ProtocolError(
                    f"lease {lease.chunk_id} names cell {cell_index} but "
                    "carries no task payload and this worker holds no task "
                    "list")
            runtimes[cell_index] = _cell_tester(task)
        strategy = runtimes[lease.cells[0]][2]
        for iteration in range(lease.start, lease.stop + 1):
            siblings = SharedJudging()
            for cell_index in lease.cells:
                tester, config, _, coverage = runtimes[cell_index]
                iter_start = time.monotonic()
                with sharing(siblings if coverage is None else None):
                    # Looked up as this module's global at call time: the
                    # benchmark harness rebinds it to time each iteration.
                    partial = single_iteration_result(
                        tester, config, iteration, strategy=strategy,
                        coverage=coverage)
                duration = time.monotonic() - iter_start
                yield IterationResult(worker=worker, chunk_id=lease.chunk_id,
                                      cell_index=cell_index,
                                      iteration=iteration, duration=duration,
                                      payload=campaign_result_to_dict(partial))
    except Exception as exc:
        yield WorkerError(worker=worker, chunk_id=lease.chunk_id,
                          cell_index=cell_index,
                          message=f"{type(exc).__name__}: {exc}")
        return
    yield ChunkDone(worker=worker, chunk_id=lease.chunk_id)


def _matrix_worker(worker_index: int, tasks: List[CellTask], task_queue,
                   result_queue) -> None:
    """Pool worker: run the leases sent to it until told to stop.

    Both queues carry encoded fabric frames (:mod:`repro.core.fabric`):
    the worker's own task queue delivers the ``lease`` frames the
    coordinator addresses to it (and a ``shutdown`` frame at teardown),
    the result queue all workers share receives each lease's
    :func:`lease_frames` — after an ``error`` frame the worker exits and
    the coordinator sends the remaining leases to the survivors.
    """
    worker = f"local-{worker_index}"
    runtimes: Dict[int, CellRuntime] = {}
    while True:
        message = decode(task_queue.get())
        if message.kind == "shutdown":
            return
        for frame in lease_frames(worker, message, runtimes, tasks):
            result_queue.put(encode(frame))
            if frame.kind == "error":
                return


# --------------------------------------------------------------------------- #
# Coordinator
# --------------------------------------------------------------------------- #
@dataclass
class _CellState:
    """Coordinator-side bookkeeping for one matrix cell."""

    task: CellTask
    result: Optional[CampaignResult] = None
    completed: Set[int] = field(default_factory=set)
    done: bool = False
    #: ``result.reports`` by dedup key, so per-iteration folds stay
    #: O(new reports) instead of rebuilding the map every fold.
    reports_by_key: Dict[str, BugReport] = field(default_factory=dict)
    #: Wall-clock seconds of completed iterations: telemetry only (the
    #: per-cell coverage time axis and the status snapshot).
    time_used: float = 0.0
    #: Running count of pass-only arcs in ``result.coverage_arcs`` so the
    #: per-fold coverage sample stays O(delta), not O(cumulative arcs).
    pass_arcs: int = 0
    #: Iterations not yet covered by any lease or completion — the cell's
    #: dynamic lease ledger.
    unleased: Set[int] = field(default_factory=set)
    #: Leases of this cell currently sent to a worker.
    outstanding: int = 0
    #: A lease of this cell was abandoned after a worker death or error in
    #: ``fault_tolerance="fail"`` mode (the campaign raises after draining).
    failed: bool = False


@dataclass
class ParallelCampaign:
    """Coordinator for a (possibly matrix-shaped) sharded fuzzing campaign.

    With only ``config`` and ``n_workers`` this schedules a flat 1×1
    matrix: N shards against
    :data:`~repro.compilers.base.DEFAULT_COMPILERS` at O2.  Passing
    ``compiler_sets`` and/or ``opt_levels`` expands the campaign into the
    full shard × compiler-set × opt-level matrix; every combination runs
    the same shard seed streams and the merged :class:`CampaignResult`
    carries per-cell provenance for Venn-style analysis.
    """

    config: FuzzerConfig = field(default_factory=FuzzerConfig)
    n_workers: int = 2
    #: Named compiler subsets forming the matrix columns (None =
    #: ``[DEFAULT_COMPILERS]``).
    compiler_sets: Optional[Sequence[Sequence[str]]] = None
    #: Optimization levels crossed with ``compiler_sets`` (default: [2]).
    opt_levels: Optional[Sequence[int]] = None
    #: Generation strategies forming the generator axis (None = the config's
    #: own ``strategy``, with no generator component in the cell keys).
    generators: Optional[Sequence[str]] = None
    #: Test oracles forming the oracle axis (None = the config's own
    #: ``oracle``).  Every oracle judges the same shard seed streams, so
    #: ``campaign_cell_sets(by="oracle")`` slices an apples-to-apples
    #: per-oracle bug Venn out of one campaign.  The cells that differ only
    #: in their oracle are leased together and share each case's export,
    #: builds and runs.
    oracles: Optional[Sequence[str]] = None
    #: Pipeline tokens forming the pipeline axis (None = each compiler's
    #: canonical pipeline).  Tokens are ``"O<k>"``,
    #: ``"rand:<seed>:<index>"`` or the sampler ``"random:<k>@<seed>"``
    #: (expanded against the campaign seed in :func:`build_matrix`).
    pipelines: Optional[Sequence[str]] = None
    #: Operator-pool probing mode: ``"union"``
    #: probes once over every compiler in the matrix so all cells generate
    #: from one shared pool (apples-to-apples streams, the PR-2 behaviour);
    #: ``"per-subset"`` lets every cell probe its own compiler subset, also
    #: fuzzing operators only some backends support — at the cost of
    #: cell-comparable streams.
    pool_mode: str = "union"
    #: Shards per combination (default: ``n_workers``).
    n_shards: Optional[int] = None
    #: Journal every folded iteration here and resume mid-cell on re-run.
    checkpoint_path: Optional[str] = None
    #: Trace compiler branch arcs around every oracle call: cells then carry
    #: their arc sets and coverage-over-time series (Figures 4–8).  Findings
    #: are identical with tracing on or off.
    trace_coverage: bool = False
    #: Optional observer for streamed events (kind, cell_key, payload).
    on_event: Optional[Callable[[str, str, Any], None]] = None
    #: Transport carrying the coordinator↔worker protocol.  None picks
    #: automatically: an :class:`~repro.core.fabric.transport.InlineTransport`
    #: (no process spawned) for effectively-one-worker campaigns, a
    #: :class:`~repro.core.fabric.transport.LocalTransport` pool otherwise.
    #: A :class:`~repro.core.fabric.transport.SocketTransport` here turns
    #: the campaign into the network coordinator service.
    transport: Optional[CoordinatorTransport] = None
    #: ``"fail"`` (historical default): a dead worker's lease fails the
    #: campaign loudly.  ``"requeue"``: a dead worker's lease is requeued
    #: and the survivors finish the campaign — findings stay bit-identical
    #: (iterations are seeded purely from ``(config, iteration)``; folds
    #: deduplicate replays).
    fault_tolerance: str = "fail"

    # ------------------------------------------------------------------ #
    def run(self) -> CampaignResult:
        """Run every matrix cell and return the merged campaign result."""
        started = time.monotonic()
        if self.fault_tolerance not in FAULT_TOLERANCE_MODES:
            raise ValueError(
                f"unknown fault_tolerance {self.fault_tolerance!r}; "
                f"expected one of {FAULT_TOLERANCE_MODES}")
        tasks = self._build_tasks()
        states = [_CellState(task=task) for task in tasks]
        #: Campaign-wide arc union (the ``global_total`` coverage series).
        self._global_arcs: Set[str] = set()
        # A resumed campaign continues its journal's clock, so its stamps
        # and coverage samples sort after the replayed ones.
        self._run_started = started - self._open_journal(states)
        #: send→claim round-trip seconds per claimed lease (the
        #: coordinator-side lease latency the status endpoint and
        #: ``tools/bench_transport.py`` report).
        self._lease_latencies: List[float] = []
        self._sent_at: Dict[int, float] = {}
        #: The latest status snapshot (also served by the transport's
        #: status endpoint when it has one).
        self.last_status: Dict[str, Any] = {}

        try:
            self._init_ledger(states)
            if self._dispatchable(states):
                transport = self.transport
                if transport is None:
                    # Never spawn more workers than cells with work:
                    # n_shards is what spreads a campaign over more of them.
                    workers = min(self.n_workers,
                                  sum(1 for state in states if state.unleased))
                    transport = (LocalTransport(workers, _matrix_worker)
                                 if workers > 1
                                 else InlineTransport(lease_frames))
                transport.start([state.task for state in states])
                try:
                    self._drain(states, transport)
                finally:
                    transport.stop()
        finally:
            if self._journal is not None:
                self._journal.close()

        merged = CampaignResult.merge_all(
            [self._provenanced_result(state) for state in states])
        merged.elapsed = max(merged.elapsed, time.monotonic() - started)
        return merged

    # ------------------------------------------------------------------ #
    def _build_tasks(self) -> List[CellTask]:
        if self.pool_mode not in ("union", "per-subset"):
            raise ValueError(f"unknown pool_mode {self.pool_mode!r}; "
                             "expected 'union' or 'per-subset'")
        n_shards = self.n_shards if self.n_shards is not None else self.n_workers
        tasks = build_matrix(self.config, n_shards,
                             compiler_sets=self.compiler_sets,
                             opt_levels=self.opt_levels,
                             generators=self.generators,
                             oracles=self.oracles,
                             pipelines=self.pipelines)
        if self.config.probe_operator_support and \
                self.pool_mode == "union" and \
                self._any_strategy_uses_pool():
            # Probe once over the union of every compiler in the matrix and
            # bake the shared pool into every cell (see module docstring).
            # In per-subset mode probing stays with the cells: each worker
            # probes its own compiler subset in _cell_tester.
            names = sorted({name for task in tasks
                            for name in task.cell.compilers})
            pool = probe_supported_pool(
                build_compiler_set(names, bugs=self.config.bugs),
                self.config.generator.op_pool)
            tasks = [CellTask(
                cell=task.cell,
                config=dataclasses.replace(
                    task.config,
                    generator=dataclasses.replace(task.config.generator,
                                                  op_pool=list(pool)),
                    probe_operator_support=False))
                for task in tasks]
        if self.trace_coverage:
            tasks = [dataclasses.replace(task, trace_coverage=True)
                     for task in tasks]
        return tasks

    def _any_strategy_uses_pool(self) -> bool:
        """Whether any cell's strategy consumes the operator pool (probing
        is pure cost for mutation baselines, which ignore the pool)."""
        names = (set(self.generators) if self.generators
                 else {self.config.strategy})
        return any(build_strategy(name, self.config).capabilities.supports_op_pool
                   for name in names)

    def _init_ledger(self, states: List[_CellState]) -> None:
        """Seed each cell's dynamic lease ledger — the exact set of
        unleased iterations — from its (possibly journal-restored)
        completion state, and group the cells that differ only in their
        oracle."""
        #: Each dead lease's requeued iterations per cell, awaiting
        #: redispatch (recovery work: served before fresh leases).
        self._requeued: Deque[Dict[int, FrozenSet[int]]] = deque()
        self._next_chunk_id = 0
        groups: Dict[MatrixCell, List[int]] = {}
        for index, state in enumerate(states):
            groups.setdefault(dataclasses.replace(state.task.cell,
                                                  oracle=None),
                              []).append(index)
        #: Oracle groups, each in cell order, ordered by their first cell.
        self._groups: List[List[int]] = list(groups.values())
        #: Whether the groups differ only in their shard, and so cost alike.
        self._groups_alike = len({dataclasses.replace(cell, shard=0)
                                  for cell in groups}) <= 1
        for state in states:
            state.outstanding = 0
            state.unleased = {
                i for i in range(1, state.task.config.max_iterations + 1)
                if i not in state.completed}
            state.done = not state.unleased

    def _cell_wants_lease(self, state: _CellState) -> bool:
        return not state.done and not state.failed and bool(state.unleased)

    def _dispatchable(self, states: List[_CellState]) -> bool:
        return bool(self._requeued) or \
            any(self._cell_wants_lease(state) for state in states)

    def _next_lease(self, states: List[_CellState],
                    workers: int = 1) -> Optional[Lease]:
        """Carve the next lease out of the ledger, or None when no cell has
        dispatchable work.

        A lease is a run of iterations of one oracle group, for the
        group's cells that have all of it left (a campaign without an
        oracle axis has groups of one).  Requeued recovery work is served
        first, FIFO.  Otherwise the lease is the first contiguous run of
        unleased iterations of the lowest-index group that has any: a
        fresh group goes out whole, and a resumed one a run at a time,
        each run ending where the set of its cells that still need the
        next iteration changes.

        Groups that differ in more than their shard (a generator,
        compiler-set, opt-level or pipeline axis) differ in cost, and
        fewer unfinished groups than live workers would leave some idle.
        In either case, with ``workers`` > 1 live, the group with the most
        unleased iterations goes first (every group is started before any
        is continued), and a lease takes at most ``ceil(R / (2 *
        workers))`` of them, R counting each group iteration once
        (factoring): leases shrink as the campaign drains, and a worker
        that finishes early takes the rest of a slower group.
        """
        # Iterations folded before their worker died are not re-run.
        requeued: Dict[int, Set[int]] = {}
        while self._requeued and not requeued:
            entry = self._requeued.popleft()
            requeued = {index: set(iterations) - states[index].completed
                        for index, iterations in entry.items()}
            requeued = {index: pending for index, pending in requeued.items()
                        if pending}
        size = None  # the whole run
        if requeued:
            pending = requeued
        else:
            unleased = {}
            for number, group in enumerate(self._groups):
                wanting = [index for index in group
                           if self._cell_wants_lease(states[index])]
                if wanting:
                    unleased[number] = len(set().union(
                        *(states[index].unleased for index in wanting)))
            if not unleased:
                return None
            number = min(unleased)
            unfinished = sum(1 for group in self._groups
                             if any(not states[index].done and
                                    not states[index].failed
                                    for index in group))
            if workers > 1 and (not self._groups_alike or
                                unfinished < workers):
                number = max(unleased, key=lambda key: (unleased[key], -key))
                size = -(-sum(unleased.values()) // (2 * workers))
            pending = {index: states[index].unleased
                       for index in self._groups[number]
                       if self._cell_wants_lease(states[index])}
        start = stop = min(min(iterations) for iterations in pending.values())
        cells = tuple(index for index in sorted(pending)
                      if start in pending[index])
        # Extend the run while exactly the same cells need the next
        # iteration, so every iteration goes out with all of its cells.
        while stop - start + 1 != size and \
                all((stop + 1 in pending[index]) == (index in cells)
                    for index in pending):
            stop += 1
        for index in cells:
            pending[index].difference_update(range(start, stop + 1))
            states[index].outstanding += 1
        if requeued:  # the rest of a requeued entry keeps its place in line
            rest = {index: frozenset(iterations)
                    for index, iterations in pending.items() if iterations}
            if rest:
                self._requeued.appendleft(rest)
        self._next_chunk_id += 1
        return Lease(chunk_id=self._next_chunk_id - 1, cells=cells,
                     start=start, stop=stop)

    # ------------------------------------------------------------------ #
    def _fold_iteration(self, states: List[_CellState], cell_index: int,
                        iteration: int, payload: Dict[str, Any],
                        duration: float) -> None:
        """Fold one live iteration (its ``iter`` frame's ``payload`` and
        wall-clock ``duration``) into its cell, after appending it to the
        checkpoint journal when there is one.

        Every iteration a worker runs passes here once, so a subclass that
        overrides this sees exactly the executed iterations: a resume
        replays its journal through :meth:`_fold` instead.
        """
        state = states[cell_index]
        if iteration in state.completed:
            return  # replayed message (e.g. duplicate after a worker retry)
        stamp = time.monotonic() - self._run_started
        if self._journal is not None:
            self._journal.write(json.dumps({
                "cell": state.task.cell.key, "iteration": iteration,
                "duration": duration, "stamp": stamp,
                "payload": payload}) + "\n")
            self._journal.flush()
        partial = campaign_result_from_dict(payload)
        self._fold(state, iteration, partial, duration, stamp)
        for report in partial.reports:
            self._emit("progress", state.task.cell.key,
                       {"iteration": iteration, "compiler": report.compiler,
                        "status": report.status})

    def _fold(self, state: _CellState, iteration: int,
              partial: CampaignResult, duration: float,
              stamp: float) -> None:
        """Accumulate one iteration's result, its ``duration`` (the cell's
        compute time) and its ``stamp`` on the campaign clock into its
        cell: the fold of a live iteration and of a replayed journal line.

        A hand-rolled fold rather than ``CampaignResult.merge``: merge
        rebuilds the report dedup set and re-sorts the whole timeline on
        every call, which would make the coordinator quadratic in cell
        size.  Unlike merge it keeps, per dedup key, the report of the
        lowest iteration, replacing one folded earlier from a later
        iteration, and keeps the cell's reports in iteration order: what a
        serial loop over the cell's iterations reports, whatever order
        the iterations fold in.
        """
        state.completed.add(iteration)
        state.time_used += duration
        if state.result is None:
            state.result = CampaignResult()
        result = state.result
        # Samples carry the coordinator's campaign clock so merged
        # throughput curves order iterations by when they actually
        # completed, whichever worker ran them.
        for sample in partial.timeline:
            sample["elapsed"] = stamp
        result.iterations += partial.iterations
        result.generated_models += partial.generated_models
        result.generation_failures += partial.generation_failures
        result.numerically_valid_models += partial.numerically_valid_models
        result.elapsed = max(result.elapsed, stamp)
        for report in partial.reports:
            key = report.dedup_key()
            kept = state.reports_by_key.get(key)
            if kept is not None:
                if kept.iteration <= report.iteration:
                    continue
                result.reports.remove(kept)
            state.reports_by_key[key] = report
            position = len(result.reports)
            while position and \
                    result.reports[position - 1].iteration > report.iteration:
                position -= 1
            result.reports.insert(position, report)
        result.operator_instances.update(partial.operator_instances)
        result.seeded_bugs_found.update(partial.seeded_bugs_found)
        result.timeline.extend(partial.timeline)
        if self.trace_coverage:
            # The partial carries this iteration's arc *delta* (new to the
            # emitting worker's cell view); re-deduplicate against the
            # cell's cumulative set and the campaign-wide union, then
            # sample both series — the per-cell and global
            # coverage-over-time curves (Figure 4/5) fall out of these.
            delta = partial.coverage_arcs
            new_cell = delta - result.coverage_arcs
            result.coverage_arcs |= new_cell
            state.pass_arcs += sum(1 for arc in new_cell if is_pass_arc(arc))
            self._global_arcs |= new_cell
            result.coverage_timeline.append({
                "cell": state.task.cell.key,
                "elapsed": stamp,
                # The cell's *own* cumulative compute seconds — the time
                # axis for per-cell/per-fuzzer coverage curves.  The shared
                # coordinator clock ("elapsed") would charge a cell for the
                # gaps other cells' leases spent running, inflating cheap
                # cells' curves whenever leases interleave on few workers.
                "cell_elapsed": state.time_used,
                "iteration": float(len(state.completed)),
                "total": float(len(result.coverage_arcs)),
                "pass_only": float(state.pass_arcs),
                "global_total": float(len(self._global_arcs)),
            })

    def _finish_chunk(self, states: List[_CellState], cell_index: int) -> None:
        """Account a lease's end (a clean ``chunk_done`` or a requeued
        death), and finish the cell once nothing of it is left to run."""
        state = states[cell_index]
        state.outstanding = max(0, state.outstanding - 1)
        if state.done or state.failed or state.outstanding > 0 or \
                state.unleased:
            return
        if any(cell_index in entry for entry in self._requeued):
            return  # recovery work for this cell awaits redispatch
        state.done = True
        self._emit("cell_done", state.task.cell.key,
                   {"iterations": len(state.completed)})

    def _provenanced_result(self, state: _CellState) -> CampaignResult:
        result = state.result if state.result is not None else CampaignResult()
        outcome = state.task.cell.outcome()
        outcome.iterations = result.iterations
        outcome.seeded_bugs_found = set(result.seeded_bugs_found)
        outcome.report_keys = {report.dedup_key() for report in result.reports}
        outcome.coverage_arcs = set(result.coverage_arcs)
        result.cells = {outcome.key(): outcome}
        return result

    def _emit(self, kind: str, cell_key: str, payload: Any) -> None:
        if self.on_event is not None:
            self.on_event(kind, cell_key, payload)

    # ------------------------------------------------------------------ #
    def _requeue_lease(self, states: List[_CellState],
                       lease: Lease) -> Dict[int, FrozenSet[int]]:
        """Return a dead worker's lease to the ledger; returns the
        iterations requeued, per cell of the lease.

        Iterations the lease already folded stay folded (`_fold_iteration`
        deduplicates replays, so nothing is double-counted).
        """
        remaining = {}
        for index in lease.cells:
            completed = states[index].completed
            remaining[index] = frozenset(
                i for i in range(lease.start, lease.stop + 1)
                if i not in completed)
        requeued = {index: iterations for index, iterations
                    in remaining.items() if iterations}
        if requeued:
            self._requeued.append(requeued)
        for index in lease.cells:
            self._finish_chunk(states, index)
        return remaining

    def _drain(self, states: List[_CellState],
               transport: CoordinatorTransport) -> None:
        """The coordinator loop: every lease of every transport is handed
        out here, and every iteration is folded here.

        The coordinator owns the ``worker → lease`` map: each live, idle
        worker is sent the next :meth:`_next_lease`, and a worker is idle
        again once its ``chunk_done`` arrives.  Once per ``POLL_TIMEOUT``,
        on every pass, it checks each worker's liveness; a worker dead
        over ``DEAD_WORKER_POLLS`` consecutive checks is retired for good,
        and its lease is released per ``fault_tolerance``: ``"requeue"``
        returns it to the ledger and the survivors finish the campaign,
        ``"fail"`` fails its cell and the campaign after draining.
        """
        assigned: Dict[str, Lease] = {}
        retired: Set[str] = set()
        dead_polls: Dict[str, int] = {}
        errors: List[str] = []
        requeue = self.fault_tolerance == "requeue"
        next_check = 0.0
        item: Optional[Tuple[str, Message]] = None

        def fail(cell_index: int, message: str) -> None:
            errors.append(f"cell {states[cell_index].task.cell.key}: "
                          f"{message}")
            states[cell_index].failed = True

        def release(worker_id: str, description: str) -> None:
            lease = assigned.pop(worker_id, None)
            if lease is None:
                return
            if not requeue:
                for index in lease.cells:
                    fail(index, f"worker {worker_id} {description}")
                return
            requeued = self._requeue_lease(states, lease)
            for index in lease.cells:
                self._emit("worker_lost", states[index].task.cell.key,
                           {"worker": worker_id,
                            "requeued": _ranges_from_iterations(
                                requeued[index])})

        while True:
            # One clock read per pass: lease latency, send times and the
            # liveness cadence all use it.
            now = time.monotonic()
            if item is not None:
                worker_id, message = item
                kind = message.kind
                if kind == "hello":
                    self._emit("worker_joined", "", {"worker": worker_id})
                elif kind == "claim":
                    sent = self._sent_at.pop(message.chunk_id, None)
                    if sent is not None:
                        self._lease_latencies.append(now - sent)
                elif kind == "iter":
                    self._fold_iteration(
                        states, message.cell_index, message.iteration,
                        message.payload, message.duration)
                elif kind == "chunk_done":
                    # A retired worker reporting a lease the coordinator
                    # already released must not finish it twice.
                    lease = assigned.get(worker_id)
                    if lease is not None and \
                            lease.chunk_id == message.chunk_id:
                        del assigned[worker_id]
                        for index in lease.cells:
                            self._finish_chunk(states, index)
                elif kind == "error":
                    retired.add(worker_id)
                    assigned.pop(worker_id, None)
                    fail(message.cell_index, message.message)
                    self._emit("error",
                               states[message.cell_index].task.cell.key,
                               message.message)

            if now >= next_check:
                # A worker killed by the OS (OOM, signal) never reports
                # back; detect silent death instead of blocking forever.
                next_check = now + POLL_TIMEOUT
                for worker_id in transport.worker_ids():
                    if worker_id in retired:
                        continue
                    if transport.worker_alive(worker_id):
                        dead_polls[worker_id] = 0
                        continue
                    dead_polls[worker_id] = dead_polls.get(worker_id, 0) + 1
                    if dead_polls[worker_id] < DEAD_WORKER_POLLS:
                        continue
                    retired.add(worker_id)
                    exit_code = transport.exit_code(worker_id)
                    release(worker_id,
                            f"died with exit code {exit_code}"
                            if exit_code is not None
                            else "died (heartbeat timeout)")

            idle = [worker_id for worker_id in transport.worker_ids()
                    if worker_id not in assigned and worker_id not in retired
                    and transport.worker_alive(worker_id)]
            if idle:
                live = transport.live_worker_count()
                for worker_id in idle:
                    lease = self._next_lease(states, live)
                    if lease is None:
                        break
                    assigned[worker_id] = lease
                    self._sent_at[lease.chunk_id] = now
                    transport.send(worker_id, lease)
            elif not transport.elastic and \
                    all(worker_id in retired
                        for worker_id in transport.worker_ids()):
                # Nobody is left to run the remaining work, and a
                # non-elastic fleet never grows one back.
                for index, state in enumerate(states):
                    if not state.done and not state.failed:
                        fail(index, "no live worker left to run it")
                self._requeued.clear()

            self._publish_status(states, transport, assigned)
            if not assigned and not self._dispatchable(states):
                break
            item = transport.recv(timeout=POLL_TIMEOUT)

        if errors:
            raise ReproError("parallel campaign worker(s) failed: "
                             + "; ".join(errors))

    # ------------------------------------------------------------------ #
    def _publish_status(self, states: List[_CellState],
                        transport: CoordinatorTransport,
                        assigned: Dict[str, Lease]) -> None:
        """Build (and hand the transport) the live campaign snapshot."""
        cells: Dict[str, Any] = {}
        findings = 0
        for state in states:
            result = state.result
            reports = 0 if result is None else len(result.reports)
            findings += reports
            cells[state.task.cell.key] = {
                "completed": len(state.completed),
                "total": state.task.config.max_iterations,
                "done": state.done,
                "findings": reports,
                "time_used": round(state.time_used, 3),
            }
        latencies = self._lease_latencies
        snapshot: Dict[str, Any] = {
            "protocol": PROTOCOL_VERSION,
            "elapsed": round(time.monotonic() - self._run_started, 3),
            "iterations": sum(len(state.completed) for state in states),
            "findings": findings,
            "cells": cells,
            "lease_latency": {
                "claims": len(latencies),
                "mean_seconds": (round(sum(latencies) / len(latencies), 6)
                                 if latencies else None),
            },
            "workers": {worker: {**view, "busy": worker in assigned}
                        for worker, view in transport.worker_view().items()},
        }
        self.last_status = snapshot
        transport.publish_status(snapshot)

    # ------------------------------------------------------------------ #
    def _checkpoint_fingerprint(self, n_cells: int) -> Dict[str, Any]:
        """Everything that changes what a cell computes.  A checkpoint whose
        fingerprint differs is rejected with an error, never reused or
        overwritten — including the matrix shape (compiler subsets and opt
        levels), so a differently-shaped campaign can never cross-load cell
        results.
        The campaign config enters as the fabric's wire encoding, so every
        field a remote worker receives is fingerprinted too.

        Deliberately absent: ``n_workers``, the transport,
        ``fault_tolerance`` and ``trace_coverage``.  Those change *where*
        iterations run, or what is recorded about them, never what they
        compute, so a local checkpoint resumes under a socket fleet and
        back.  ``n_shards`` is present, and defaults to ``n_workers``: a
        resume on another worker count must pin it."""
        n_shards = self.n_shards if self.n_shards is not None else self.n_workers
        return {
            "n_cells": n_cells,
            "n_shards": n_shards,
            "compiler_sets": sorted(sorted(subset) for subset in (
                self.compiler_sets if self.compiler_sets is not None
                else [DEFAULT_COMPILERS])),
            "opt_levels": list(self.opt_levels or [2]),
            "generators": (None if self.generators is None
                           else list(self.generators)),
            "oracles": (None if self.oracles is None
                        else list(self.oracles)),
            "pipelines": (None if self.pipelines is None
                          else list(self.pipelines)),
            "pool_mode": self.pool_mode,
            "config": config_to_dict(self.config),
        }

    def _open_journal(self, states: List[_CellState]) -> float:
        """Replay the checkpoint journal into ``states`` and open it for
        appending; returns its clock, the latest replayed stamp (0.0 when
        nothing was replayed).

        A missing or empty file starts fresh.  Otherwise the first line
        must be the header of a v10 journal of this campaign, or the
        campaign is refused with the file left as it is
        (:meth:`_check_header`).  Every later line is folded through
        :meth:`_fold`, the fold a live iteration takes; a line that does
        not decode (a tail cut by a kill mid-append) is dropped, and its
        iteration runs again.  The file is then rewritten, once, as this
        run's header and the intact lines, and each fold appends one line
        to it (:meth:`_fold_iteration`).
        """
        self._journal: Optional[TextIO] = None
        path = self.checkpoint_path
        if not path:
            return 0.0
        lines: List[str] = []
        if os.path.exists(path):
            # Undecodable bytes fail the line they are on, not the read.
            with open(path, encoding="utf-8", errors="replace") as handle:
                lines = handle.read().splitlines()
        fingerprint = self._checkpoint_fingerprint(len(states))
        kept: List[str] = []
        clock = 0.0
        if lines:
            self._check_header(path, lines[0], fingerprint,
                               has_folds=len(lines) > 1)
            by_key = {state.task.cell.key: state for state in states}
            for line in lines[1:]:
                try:
                    entry = json.loads(line)
                    state = by_key[entry["cell"]]
                    iteration = entry["iteration"]
                    if iteration in state.completed or iteration not in \
                            range(1, state.task.config.max_iterations + 1):
                        continue
                    partial = campaign_result_from_dict(entry["payload"])
                    duration = float(entry["duration"])
                    stamp = float(entry["stamp"])
                except (ValueError, KeyError, TypeError, AttributeError):
                    continue
                self._fold(state, iteration, partial, duration, stamp)
                clock = max(clock, stamp)
                kept.append(line)
        header = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "campaign": fingerprint,
            # Whether the folded iterations carry their arcs.  Deliberately
            # outside the fingerprint: a traced journal resumes untraced,
            # and a traced resume refuses an untraced one (_check_header).
            "coverage_feedback": self.trace_coverage,
        }
        tmp_path = f"{path}.tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.writelines(f"{line}\n"
                              for line in [json.dumps(header), *kept])
        os.replace(tmp_path, path)
        self._journal = open(path, "a", encoding="utf-8")
        return clock

    def _check_header(self, path: str, line: str,
                      fingerprint: Dict[str, Any], has_folds: bool) -> None:
        """Refuse a journal this campaign must not resume: a file whose
        first line is no journal header, another format version, another
        campaign, or (for a traced campaign) an untraced journal with
        folds."""
        try:
            header = json.loads(line)
        except ValueError:
            header = None
        if not isinstance(header, dict) or "format_version" not in header:
            raise ReproError(
                f"checkpoint {path} is not a campaign checkpoint journal: "
                "its first line is no journal header.  Refusing to "
                "overwrite it; pass another path, or delete the file to "
                "start fresh.")
        version = header["format_version"]
        if version != CHECKPOINT_FORMAT_VERSION:
            # A well-formed checkpoint of another format is real campaign
            # state; silently restarting from scratch would look like
            # resume while discarding it.  Fail loudly and let the user
            # delete or move the file deliberately.
            raise ReproError(
                f"checkpoint {path} has format_version {version!r}; this "
                f"engine reads v{CHECKPOINT_FORMAT_VERSION} journals only "
                "(v9 and older files are whole-campaign snapshots).  Delete "
                "the file to start fresh, or finish the campaign with the "
                "engine version that wrote it.")
        saved = header.get("campaign")
        if saved != fingerprint:
            # Another campaign's state: starting over would overwrite it.
            saved = saved if isinstance(saved, dict) else {}
            hint = ""
            if self.n_shards is None and saved.get("n_shards") not in (
                    None, fingerprint["n_shards"]):
                hint = (f"  n_shards defaults to n_workers: pass --shards "
                        f"{saved.get('n_shards')} to resume it with another "
                        "worker count.")
            raise ReproError(
                f"checkpoint {path} belongs to a different campaign "
                f"({'; '.join(_differences(saved, fingerprint)[:4])}).{hint}"
                "  Delete or move the file to start this campaign fresh, or "
                "re-run the command that wrote it to resume that campaign.")
        if self.trace_coverage and has_folds and \
                not header.get("coverage_feedback", False):
            # The journal's iterations were never traced: their arcs are
            # unrecoverable, and resuming would silently present the
            # remainder's arcs as the campaign's coverage.  The reverse
            # direction is fine (an untraced fold ignores arcs).
            raise ReproError(
                f"checkpoint {path} was written without coverage tracing; "
                "its folded iterations have no recorded arcs, so a "
                "--coverage resume would report partial coverage as if it "
                "were complete.  Resume without --coverage, or delete the "
                "file to re-run traced.")


def run_parallel_campaign(config: Optional[FuzzerConfig] = None,
                          **fields: Any) -> CampaignResult:
    """Convenience wrapper: ``ParallelCampaign(config, **fields).run()``.

    ``fields`` are :class:`ParallelCampaign` fields (``n_workers``,
    ``compiler_sets``, ``trace_coverage``, ``checkpoint_path``, ...), with the
    same defaults.
    """
    return ParallelCampaign(config=config or FuzzerConfig(), **fields).run()


def run_sharded_serial(config: FuzzerConfig,
                       n_workers: int) -> CampaignResult:
    """Run the same shard configs in-process, serially, and merge them.

    This is the reference implementation the parallel engine is equivalent
    to (``--serial``): one :class:`~repro.core.fuzzer.Fuzzer` per shard,
    with no lease, fold or checkpoint machinery in between.
    """
    results = []
    for shard in shard_configs(config, n_workers):
        compilers = build_compiler_set(DEFAULT_COMPILERS, bugs=shard.bugs,
                                       verify_passes=shard.verify_passes)
        fuzzer = Fuzzer(compilers, shard)
        results.append(fuzzer.run())
    merged = CampaignResult.merge_all(results)
    # merge() assumes concurrent shards (elapsed = max); these ran back to
    # back, so wall-clock is the sum.
    merged.elapsed = sum(result.elapsed for result in results)
    return merged
