"""Coverage campaigns: the machinery behind Figures 4–8.

These experiments used to run bespoke serial loops (generate → export →
compile → run under a tracer, one loop per fuzzer).  They now ride the
matrix campaign engine: :func:`run_fuzzer_comparison` is **one** matrix
campaign with a generator axis and the ``coverage`` scheduler — workers
trace compiler branch arcs per iteration and stream deltas up the feedback
channel, the coordinator records per-cell and global coverage-over-time
series, and the per-fuzzer :class:`CoverageCampaignResult` views are sliced
out of the merged result's per-cell provenance.  One engine, one
checkpointable campaign, same figures.

Generators come from the strategy registry (:mod:`repro.core.strategy`):
:class:`StrategyCaseGenerator` adapts any registered
:class:`~repro.core.strategy.GenerationStrategy` to a ``next_case()``
protocol (and carries the campaign config the engine path reuses).

Tzer is driven through its own entry point because it mutates DeepC's
low-level IR directly rather than producing models.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.baselines.tzer import TzerFuzzer
from repro.compilers.bugs import BugConfig
from repro.compilers.coverage import (CoverageTimeline, CoverageTracer,
                                      arc_from_str)
from repro.core.generator import GeneratorConfig
from repro.core.strategy import build_strategy
from repro.graph.model import Model


class StrategyCaseGenerator:
    """A registered generation strategy that produces one model per
    ``next_case()`` call.

    Seeds each iteration exactly like the campaign engine
    (:func:`repro.core.fuzzer.iteration_seed`), so a coverage experiment and
    a bug-finding campaign with the same seed explore the same model
    streams.
    """

    def __init__(self, name: str, seed: int = 0, n_nodes: int = 10,
                 use_binning: bool = True) -> None:
        from repro.core.fuzzer import FuzzerConfig

        self.name = name
        self._config = FuzzerConfig(
            generator=GeneratorConfig(n_nodes=n_nodes,
                                      use_binning=use_binning),
            seed=seed, strategy=name)
        self._strategy = build_strategy(name, self._config)
        self._iteration = 0
        #: operator-instance signatures of every generated model (Figure 9).
        self.op_instances: List[str] = []

    def next_case(self) -> Model:
        from repro.core.fuzzer import iteration_seed

        self._iteration += 1
        generated = self._strategy.generate(
            iteration_seed(self._config.seed, self._config.generator.seed,
                           self._iteration, strategy=self.name),
            self._iteration)
        self.op_instances.extend(generated.op_instances)
        return generated.model


@dataclass
class CoverageCampaignResult:
    """Outcome of one fuzzer-vs-compiler coverage campaign."""

    fuzzer: str
    compiler: str
    iterations: int
    elapsed: float
    arcs: FrozenSet = frozenset()
    pass_arcs: FrozenSet = frozenset()
    timeline: CoverageTimeline = field(default_factory=CoverageTimeline)
    crashes: int = 0

    @property
    def total_coverage(self) -> int:
        return len(self.arcs)

    @property
    def pass_coverage(self) -> int:
        return len(self.pass_arcs)


#: LEMON mutates full real-world models, which the paper reports as up to two
#: orders of magnitude slower per test case than NNSmith; the scaled-down
#: zoo does not reproduce that cost by itself, so a per-iteration penalty
#: models it (only wall-clock throughput is affected, never coverage math).
LEMON_ITERATION_PENALTY = 0.05


def run_coverage_campaign(generator: StrategyCaseGenerator,
                          compiler_name: str,
                          max_iterations: Optional[int] = 50,
                          time_budget: Optional[float] = None,
                          seed: int = 0) -> CoverageCampaignResult:
    """Fuzz one compiler with one generator while tracing branch coverage.

    Runs as a single-cell campaign on the matrix engine with the coverage
    feedback channel.  ``seed`` is the campaign seed (it drives the
    per-iteration generation *and* input streams — the generator's
    construction seed only fixes its config defaults), matching every
    in-repo caller, which passes the same seed to both.
    """
    config = dataclasses.replace(
        generator._config,
        max_iterations=max_iterations,
        time_budget=time_budget,
        seed=seed)
    result = _run_coverage_matrix(config, compiler_name,
                                  generators=None, n_workers=1)
    return _slice_fuzzer_result(result, generator.name, compiler_name,
                                match_generator=None)


def run_tzer_campaign(max_iterations: Optional[int] = 50,
                      time_budget: Optional[float] = None,
                      seed: int = 0) -> CoverageCampaignResult:
    """Run the Tzer baseline against DeepC's low-level pipeline (Figure 8)."""
    fuzzer = TzerFuzzer(seed=seed, bugs=BugConfig.none())
    tracer = CoverageTracer(systems=("deepc",))
    timeline = CoverageTimeline()
    crashes = 0
    start = time.monotonic()
    iteration = 0
    while True:
        if max_iterations is not None and iteration >= max_iterations:
            break
        if time_budget is not None and (time.monotonic() - start) >= time_budget:
            break
        iteration += 1
        with tracer:
            if fuzzer.run_iteration(tracer):
                crashes += 1
        timeline.record(time.monotonic() - start, iteration,
                        tracer.count(), tracer.count(pass_only=True))
    return CoverageCampaignResult(
        fuzzer="tzer",
        compiler="deepc",
        iterations=iteration,
        elapsed=time.monotonic() - start,
        arcs=tracer.arcs_by_scope(pass_only=False),
        pass_arcs=tracer.arcs_by_scope(pass_only=True),
        timeline=timeline,
        crashes=crashes,
    )


def _run_coverage_matrix(config, compiler_name: str,
                         generators: Optional[Sequence[str]],
                         n_workers: int):
    """One coverage-scheduled matrix campaign over a single compiler column.

    The campaign config is normalized for coverage measurement: seeded
    bugs off (the paper traces *correct* compilers), the cheap ``crash``
    oracle (no reference-interpreter diffing — coverage needs compile +
    run only), no operator-support probing (the historical loops generated
    from the full pool), and a short 8-step value search.
    """
    from repro.core.parallel import run_parallel_campaign

    config = dataclasses.replace(
        config,
        generator=dataclasses.replace(config.generator),
        value_search_max_steps=8,
        bugs=BugConfig.none(),
        oracle="crash",
        probe_operator_support=False)
    return run_parallel_campaign(
        config=config,
        n_workers=max(1, n_workers),
        n_shards=1,
        compiler_sets=[[compiler_name]],
        opt_levels=[2],
        generators=list(generators) if generators else None,
        schedule="coverage",
    )


def _slice_fuzzer_result(result, fuzzer: str, compiler_name: str,
                         match_generator: Optional[str]
                         ) -> CoverageCampaignResult:
    """Project one fuzzer's :class:`CoverageCampaignResult` view out of a
    merged campaign result, using the per-cell coverage provenance.

    ``match_generator`` is the cell's ``generator`` tag to select (None
    selects untagged cells — single-strategy campaigns without a generator
    axis).  Arc strings are decoded back to ``(file, from, to)`` tuples so
    the result stays set-compatible with :func:`run_tzer_campaign` and the
    Venn tooling.  The time axis is each sample's ``cell_elapsed`` — the
    cell's *own* cumulative compute seconds — not the campaign's shared
    coordinator clock, which would charge a fuzzer for the gaps other
    fuzzers' interleaved leases spent running (exactly what the replaced
    per-fuzzer serial loops measured).  LEMON's per-iteration penalty is
    applied on top (see ``LEMON_ITERATION_PENALTY`` — wall-clock only,
    never coverage math).  ``crashes`` counts *deduplicated* crash
    signatures (the engine streams deduplicated reports), not crashing
    iterations, consistent with how the campaign engine counts findings
    everywhere.
    """
    cells = {key: cell for key, cell in result.cells.items()
             if cell.generator == match_generator}
    cell_keys = set(cells)
    arcs = frozenset(arc_from_str(arc) for cell in cells.values()
                     for arc in cell.coverage_arcs)
    pass_arcs = frozenset(arc for arc in arcs if _is_pass(arc))
    samples = sorted((s for s in result.coverage_timeline
                      if s["cell"] in cell_keys),
                     key=lambda s: (s["cell_elapsed"], s["iteration"]))
    penalty = LEMON_ITERATION_PENALTY if fuzzer == "lemon" else 0.0
    timeline = CoverageTimeline()
    for sample in samples:
        timeline.record(
            elapsed=(sample["cell_elapsed"]
                     + penalty * sample["iteration"]),
            iteration=int(sample["iteration"]),
            total_arcs=int(sample["total"]),
            pass_arcs=int(sample["pass_only"]))
    elapsed = (timeline.samples[-1]["elapsed"] if timeline.samples
               else result.elapsed)
    crashes = len({key for cell in cells.values()
                   for key in cell.report_keys if "|crash|" in key})
    return CoverageCampaignResult(
        fuzzer=fuzzer,
        compiler=compiler_name,
        iterations=sum(cell.iterations for cell in cells.values()),
        elapsed=elapsed,
        arcs=arcs,
        pass_arcs=pass_arcs,
        timeline=timeline,
        crashes=crashes,
    )


def _is_pass(arc) -> bool:
    from repro.compilers.coverage import is_pass_file

    return is_pass_file(arc[0])


def run_fuzzer_comparison(compiler_name: str,
                          fuzzers: Sequence[str] = ("nnsmith", "graphfuzzer",
                                                    "lemon"),
                          max_iterations: int = 40,
                          time_budget: Optional[float] = None,
                          seed: int = 0,
                          workers: Optional[int] = None
                          ) -> Dict[str, CoverageCampaignResult]:
    """Run every fuzzer against one compiler (the per-subplot data of Fig. 4-7).

    This is now **one** matrix campaign with a generator axis and the
    ``coverage`` scheduler, replacing the historical one-serial-loop-per-
    fuzzer design: every fuzzer is a matrix cell sharing the engine's seed
    discipline, workers ship per-iteration arc deltas up the feedback
    channel, and the per-fuzzer results are sliced from the merged
    per-cell coverage provenance.  ``workers=1`` runs in-process; the
    default races one worker per fuzzer.  Streams are deterministic
    (step-bounded value search), so worker count never changes the arcs.
    """
    from repro.core.fuzzer import FuzzerConfig

    config = FuzzerConfig(
        generator=GeneratorConfig(n_nodes=10),
        max_iterations=max_iterations,
        time_budget=time_budget,
        seed=seed,
    )
    n_workers = len(fuzzers) if workers is None else workers
    try:
        result = _run_coverage_matrix(config, compiler_name,
                                      generators=fuzzers,
                                      n_workers=n_workers)
    except (OSError, multiprocessing.ProcessError):
        if n_workers <= 1:
            raise
        # No subprocess support here (sandboxes, restricted environments):
        # the streams are deterministic, so the in-process path produces
        # identical arcs — just slower.
        result = _run_coverage_matrix(config, compiler_name,
                                      generators=fuzzers, n_workers=1)
    return {name: _slice_fuzzer_result(result, name, compiler_name,
                                       match_generator=name)
            for name in fuzzers}
