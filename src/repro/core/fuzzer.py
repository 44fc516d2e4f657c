"""The end-to-end fuzzing campaign loop.

One iteration = generate a model (Algorithm 1 + 2), search for numerically
valid inputs/weights (Algorithm 3), then differentially test every compiler
under test.  The campaign records:

* unique bug reports (deduplicated by crash message / mismatch signature,
  following §5.1's bug counting) and their ground-truth seeded-bug ids;
* the operator-instance signatures exercised (Figure 9's diversity metric);
* per-iteration timing, usable for the coverage/throughput figures.

The single-iteration step is factored into module-level pure functions
(:func:`iteration_seed`, :func:`generate_for_iteration`,
:func:`run_campaign_iteration`, :func:`fold_case`) so the serial loop here
and the sharded parallel engine in :mod:`repro.core.parallel` share exactly
the same per-iteration behaviour — a prerequisite for the parallel engine's
serial-equivalence guarantee.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.compilers.base import DEFAULT_COMPILERS, Compiler
from repro.compilers.bugs import BugConfig
from repro.compilers.coverage import CoverageFeedback
from repro.core.concretize import GeneratedModel
from repro.core.difftest import (CaseResult, DifferentialTester, finding_key,
                                 first_line, searched_case)
from repro.core.generator import GeneratorConfig, generate_model
from repro.core.oracle import DEFAULT_ORACLE, build_oracle
from repro.core.strategy import (DEFAULT_STRATEGY, GenerationStrategy,
                                 build_strategy, strategy_entropy)
from repro.core.value_search import search_values
from repro.errors import GenerationError, ReproError
from repro.runtime.interpreter import random_inputs


@dataclass
class BugReport:
    """A deduplicated finding of the campaign."""

    compiler: str
    status: str
    phase: str
    message: str
    triggered_bugs: List[str]
    iteration: int
    #: Pass provenance: the passes that rewrote the IR in the compilation
    #: this finding came from (not part of the dedup key).
    modified_by: List[str] = field(default_factory=list)
    #: Per-node perf attribution for ``perf`` findings (see
    #: :class:`repro.core.difftest.CompilerVerdict.slow_nodes`).
    slow_nodes: List[Dict[str, str]] = field(default_factory=list)

    def dedup_key(self) -> str:
        return finding_key(self)


@dataclass
class FuzzerConfig:
    """Campaign configuration."""

    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    value_search_method: str = "gradient_proxy"
    #: Step bound per value search: trials (sampling) or optimizer
    #: iterations (gradient search).  The only bound, so searches are
    #: deterministic.
    value_search_max_steps: int = 32
    #: Iterations to run: a campaign's only bound, so which iterations run
    #: never depends on machine speed.
    max_iterations: int = 100
    bugs: BugConfig = field(default_factory=BugConfig.all)
    seed: int = 0
    #: Probe every compiler's operator support matrix (by asking it which of
    #: the pool's operator kinds it implements) and only generate operators
    #: every compiler supports, avoiding "Not-Implemented" noise (§4).
    #: Only meaningful for strategies whose capabilities declare
    #: ``supports_op_pool`` (probing is skipped otherwise).
    probe_operator_support: bool = True
    #: Registered generation strategy producing this campaign's models
    #: (see :mod:`repro.core.strategy`).
    strategy: str = DEFAULT_STRATEGY
    #: Registered oracle judging every test case
    #: (see :mod:`repro.core.oracle`).
    oracle: str = DEFAULT_ORACLE
    #: Pipeline token of this campaign/cell (``"O<k>"`` or
    #: ``"rand:<seed>:<index>"``, see :mod:`repro.compilers.pipeline`);
    #: None means "the canonical pipeline of each compiler's opt level" —
    #: the historical behavior.
    pipeline: Optional[str] = None
    #: Check IR well-formedness at every pass boundary of every compile
    #: (:mod:`repro.analysis`).  Violations surface as ``verifier``
    #: verdicts; with the flag off campaign findings are bit-identical to
    #: historical behavior.
    verify_passes: bool = False


@dataclass
class CellOutcome:
    """Per-matrix-cell provenance of a campaign result.

    A *cell* is the matrix campaign engine's work unit: one shard's seed
    stream run against one compiler subset at one optimization level
    (:class:`repro.core.parallel.MatrixCell`).  Keeping per-cell iteration
    counts and bug sets inside the merged :class:`CampaignResult` lets
    :mod:`repro.experiments.venn` compute per-backend / per-opt-level bug
    Venn diagrams directly from a single campaign.
    """

    shard: int
    #: Compiler subset names, sorted.
    compilers: Tuple[str, ...] = DEFAULT_COMPILERS
    #: Optimization level the subset was built at.
    opt_level: int = 2
    iterations: int = 0
    seeded_bugs_found: Set[str] = field(default_factory=set)
    #: Deduplicated report keys observed in this cell.
    report_keys: Set[str] = field(default_factory=set)
    #: Generation strategy of this cell; None means "the campaign default".
    generator: Optional[str] = None
    #: Test oracle of this cell; None means "the campaign config's oracle".
    oracle: Optional[str] = None
    #: Compiler branch arcs this cell covered, as encoded strings
    #: (:func:`repro.compilers.coverage.arc_to_str`).  Empty unless the
    #: campaign traced coverage (``--coverage``), in which case
    #: :func:`repro.experiments.venn.campaign_cell_sets` slices coverage
    #: along any matrix axis exactly like bugs.
    coverage_arcs: Set[str] = field(default_factory=set)
    #: Pipeline token of this cell; None means "the canonical pipeline of
    #: the cell's opt level".
    pipeline: Optional[str] = None

    def key(self) -> str:
        """Stable identifier of the matrix cell this outcome belongs to.

        ``shard<s>|<compilers joined by +>|O<level>``, then one component
        per generator/oracle/pipeline axis in use: an absent axis adds no
        key component.
        """
        base = (f"shard{self.shard}|{'+'.join(self.compilers)}"
                f"|O{self.opt_level}")
        if self.generator is not None:
            base = f"{base}|{self.generator}"
        if self.oracle is not None:
            base = f"{base}|oracle:{self.oracle}"
        if self.pipeline is not None:
            base = f"{base}|pipe:{self.pipeline}"
        return base

    def copy(self) -> "CellOutcome":
        return CellOutcome(self.shard, tuple(self.compilers), self.opt_level,
                           self.iterations, set(self.seeded_bugs_found),
                           set(self.report_keys), self.generator,
                           self.oracle, set(self.coverage_arcs),
                           self.pipeline)

    def fold(self, other: "CellOutcome") -> None:
        """Accumulate another outcome of the *same* cell into this one."""
        self.iterations += other.iterations
        self.seeded_bugs_found |= other.seeded_bugs_found
        self.report_keys |= other.report_keys
        self.coverage_arcs |= other.coverage_arcs


@dataclass
class CampaignResult:
    """Aggregated results of one fuzzing campaign."""

    iterations: int = 0
    generated_models: int = 0
    generation_failures: int = 0
    numerically_valid_models: int = 0
    elapsed: float = 0.0
    reports: List[BugReport] = field(default_factory=list)
    operator_instances: Set[str] = field(default_factory=set)
    seeded_bugs_found: Set[str] = field(default_factory=set)
    #: (elapsed seconds, iteration) samples for throughput plots.
    timeline: List[Dict[str, float]] = field(default_factory=list)
    #: Per-matrix-cell provenance, keyed by :meth:`CellOutcome.key`.  Empty
    #: for plain serial campaigns that have no cell structure.
    cells: Dict[str, CellOutcome] = field(default_factory=dict)
    #: Union of compiler branch arcs covered (encoded strings, see
    #: :func:`repro.compilers.coverage.arc_to_str`).  For a streamed
    #: one-iteration partial this holds that iteration's *delta* — arcs new
    #: to the emitting worker's view of the cell — so union-folding partials
    #: reproduces the cumulative set.  Empty without coverage feedback.
    coverage_arcs: Set[str] = field(default_factory=set)
    #: Coverage-over-time samples (``cell``, ``elapsed``, ``iteration``,
    #: ``total``, ``pass_only``, ``global_total``), appended by the
    #: campaign coordinator per folded iteration — the data behind the
    #: Figure 4/5-style coverage curves, per cell and global.
    coverage_timeline: List[Dict[str, Any]] = field(default_factory=list)
    #: Always empty.  Kept only because the benchmark harness
    #: (``perfbench/child.py``) reads it; delete it together with that read.
    cache_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def unique_crashes(self, compiler: Optional[str] = None) -> int:
        keys = {first_line(report.message)
                for report in self.reports
                if report.status == "crash" and
                (compiler is None or report.compiler == compiler)}
        return len(keys)

    def bugs_by_system(self) -> Dict[str, int]:
        found: Dict[str, Set[str]] = {}
        for report in self.reports:
            for bug_id in report.triggered_bugs:
                system = bug_id.split("-")[0]
                found.setdefault(system, set()).add(bug_id)
        return {system: len(ids) for system, ids in found.items()}

    # ------------------------------------------------------------------ #
    def merge(self, other: "CampaignResult") -> "CampaignResult":
        """Fold another (shard) result into this one, in place.

        Counters add up; bug/operator sets union; reports are globally
        re-deduplicated by :meth:`BugReport.dedup_key` keeping the first
        occurrence in fold order.  ``elapsed`` is the max of the two (shards
        run concurrently), and the merged timeline re-numbers iterations
        cumulatively in elapsed order so throughput plots stay monotonic.
        """
        self.iterations += other.iterations
        self.generated_models += other.generated_models
        self.generation_failures += other.generation_failures
        self.numerically_valid_models += other.numerically_valid_models
        self.elapsed = max(self.elapsed, other.elapsed)
        seen = {report.dedup_key() for report in self.reports}
        for report in other.reports:
            key = report.dedup_key()
            if key not in seen:
                seen.add(key)
                self.reports.append(report)
        self.operator_instances.update(other.operator_instances)
        self.seeded_bugs_found.update(other.seeded_bugs_found)
        samples = sorted(self.timeline + other.timeline,
                         key=lambda sample: sample["elapsed"])
        self.timeline = [{"elapsed": sample["elapsed"], "iteration": float(rank)}
                         for rank, sample in enumerate(samples, start=1)]
        self.coverage_arcs |= other.coverage_arcs
        # Coverage samples keep their per-cell identity (unlike the
        # throughput timeline they are never renumbered); ``global_total``
        # is stamped by the coordinator that owned the campaign-wide union,
        # so merging keeps it meaningful only within one campaign.
        self.coverage_timeline = sorted(
            self.coverage_timeline + other.coverage_timeline,
            key=lambda sample: sample["elapsed"])
        for key, cell in other.cells.items():
            mine = self.cells.get(key)
            if mine is None:
                self.cells[key] = cell.copy()
            else:
                mine.fold(cell)
        return self

    @classmethod
    def merge_all(cls, results: Sequence["CampaignResult"]) -> "CampaignResult":
        """Merge shard results (in shard order) into a fresh campaign result."""
        merged = cls()
        for result in results:
            merged.merge(result)
        return merged


# --------------------------------------------------------------------------- #
# The single-iteration step, shared by the serial and parallel engines.
# --------------------------------------------------------------------------- #
def iteration_seed(campaign_seed: int, generator_seed: Optional[int],
                   iteration: int, stream: int = 0,
                   strategy: Optional[str] = None) -> int:
    """Mix campaign seed, generator seed and iteration into one stream seed.

    Uses :class:`numpy.random.SeedSequence` so nearby campaign seeds produce
    unrelated per-iteration streams.  (The previous linear mixing
    ``gen_seed * 100_003 + iteration + campaign_seed`` made campaigns with
    seeds ``s`` and ``s + 1`` replay almost the same generator stream shifted
    by one iteration.)

    ``stream`` separates independent per-iteration consumers: stream 0 seeds
    the model generator, stream 1 the value-search RNG.  ``strategy`` mixes
    the generation strategy's name into the entropy so different strategies
    explore unrelated streams; the default (``nnsmith``) contributes *no*
    extra entropy, keeping these seeds bit-identical to the pre-registry
    engine (existing campaign seeds and the frozen corpus stay meaningful).
    Seeding *every* random decision of an iteration from ``(config,
    iteration)`` alone makes iterations order-independent, which is what
    lets the matrix campaign engine checkpoint mid-cell and re-execute any
    subset of iterations on any worker while still reproducing a serial run
    exactly.
    """
    entropy = [campaign_seed % (1 << 63), (generator_seed or 0) % (1 << 63),
               iteration % (1 << 63), stream % (1 << 63)]
    extra = strategy_entropy(strategy)
    if extra is not None:
        entropy.append(extra)
    return int(np.random.SeedSequence(tuple(entropy))
               .generate_state(1, np.uint64)[0])


def iteration_rng(config: "FuzzerConfig", iteration: int) -> np.random.Generator:
    """The value-search RNG for one iteration (stream 1 of the seed mix)."""
    return np.random.default_rng(
        iteration_seed(config.seed, config.generator.seed, iteration, stream=1,
                       strategy=config.strategy))


def generate_for_iteration(config: FuzzerConfig, iteration: int,
                           strategy: Optional[GenerationStrategy] = None
                           ) -> Optional[GeneratedModel]:
    """Generate this iteration's model, or None when generation fails.

    ``strategy`` lets long-lived callers (the serial fuzzer, cell workers)
    reuse one strategy instance; by default the config's named strategy is
    built fresh — equivalent, since ``generate`` is pure in
    ``(seed, iteration)``.
    """
    if strategy is None:
        strategy = build_strategy(config.strategy, config)
    seed = iteration_seed(config.seed, config.generator.seed, iteration,
                          strategy=config.strategy)
    try:
        return strategy.generate(seed, iteration)
    except (GenerationError, ReproError):
        return None


def search_and_difftest(tester: DifferentialTester, config: FuzzerConfig,
                         generated: GeneratedModel,
                         rng: np.random.Generator,
                         strategy: Optional[GenerationStrategy] = None,
                         coverage: Optional[CoverageFeedback] = None
                         ) -> Optional[CaseResult]:
    """Value-search a generated model and test it against the oracle.

    Inputs and weights are forwarded to the oracle only when the search
    *succeeded*; a failed search's last-trial values are known-invalid, so
    the case is re-tested with the model's original weights on fresh random
    inputs instead, and the numeric-validity flag established by a
    successful search is recorded rather than re-derived.

    Strategies that do not declare ``needs_value_search`` (the mutation
    baselines) skip Algorithm 3 entirely and are tested on plain random
    inputs, like the paper's head-to-head comparison.

    The cells of an oracle group run this with one generated model per
    iteration, inside the iteration's
    :func:`~repro.core.difftest.sharing` block: the search (or the random
    draw) runs for the first cell, and every cell judges the same model and
    input objects (:func:`~repro.core.difftest.searched_case`).

    ``coverage`` is the optional per-iteration feedback channel: the oracle
    call (compile + run, the only part that executes compiler code) runs
    under its tracer, so every campaign iteration can report branch arcs —
    not just the bespoke coverage-experiment loops.  Generation and value
    search stay untraced: they never enter the compiler packages, and
    ``sys.settrace`` overhead there would be pure cost.
    """

    def search():
        if strategy is not None and \
                not strategy.capabilities.needs_value_search:
            try:
                return (generated.model, random_inputs(generated.model, rng),
                        None)
            except ReproError:
                return None  # the case is dropped, for every cell
        found = search_values(generated.model,
                              method=config.value_search_method,
                              rng=rng,
                              max_steps=config.value_search_max_steps)
        if not found.success:
            return (generated.model, random_inputs(generated.model, rng),
                    None)
        model = found.apply_weights(generated.model) if found.weights \
            else generated.model
        return model, found.inputs, True

    case = searched_case(generated, search)
    if case is None:
        return None
    model, inputs, validity = case
    try:
        if coverage is None:
            return tester.run_case(model, inputs=inputs,
                                   numerically_valid=validity)
        with coverage.tracer:
            return tester.run_case(model, inputs=inputs,
                                   numerically_valid=validity)
    except ReproError:
        return None


def run_campaign_iteration(tester: DifferentialTester, config: FuzzerConfig,
                           iteration: int, rng: np.random.Generator,
                           strategy: Optional[GenerationStrategy] = None,
                           coverage: Optional[CoverageFeedback] = None
                           ) -> Tuple[Optional[GeneratedModel], Optional[CaseResult]]:
    """One full generate → value-search → oracle step (pure, picklable)."""
    generated = generate_for_iteration(config, iteration, strategy)
    if generated is None:
        return None, None
    return generated, search_and_difftest(tester, config, generated, rng,
                                          strategy, coverage)


def _bug_observable_by(bug_id: str, status: str) -> bool:
    """Whether a verdict of ``status`` can actually *observe* a seeded bug.

    Oracle-only bugs ride along in trigger sets recorded at compile/backward
    time — e.g. the repack pessimization tags its node during *every*
    oracle's compile, so a difftest crash on the same model would otherwise
    credit a ``perf``-symptom bug to difftest, corrupting the per-oracle
    Venn.  A ``perf`` bug counts as found only through a ``perf`` verdict,
    a ``gradient`` bug only through a ``gradient`` verdict and a
    ``verifier`` bug only through a ``verifier`` verdict;
    crash/semantic bugs keep their historical any-failing-verdict credit.
    """
    from repro.compilers.bugs import _ALL_BUGS

    spec = _ALL_BUGS.get(bug_id)
    if spec is None or spec.symptom not in ("perf", "gradient", "verifier"):
        return True
    return status == spec.symptom


def fold_case(result: CampaignResult, case: CaseResult, iteration: int,
              seen_reports: Set[str]) -> List[BugReport]:
    """Fold one case's verdicts into a campaign result, deduplicating reports.

    Returns the reports that were new to this campaign (useful for streaming
    findings out of parallel shard workers).
    """
    fresh: List[BugReport] = []
    if case.numerically_valid:
        result.numerically_valid_models += 1
    for verdict in case.verdicts:
        if not verdict.found_bug:
            continue
        result.seeded_bugs_found.update(
            bug for bug in verdict.triggered_bugs
            if _bug_observable_by(bug, verdict.status))
        key = verdict.dedup_key()
        if key in seen_reports:
            continue
        seen_reports.add(key)
        report = BugReport(
            compiler=verdict.compiler,
            status=verdict.status,
            phase=verdict.phase,
            message=verdict.message,
            triggered_bugs=list(verdict.triggered_bugs),
            iteration=iteration,
            modified_by=list(getattr(verdict, "modified_by", [])),
            slow_nodes=[dict(entry)
                        for entry in getattr(verdict, "slow_nodes", [])],
        )
        result.reports.append(report)
        fresh.append(report)
    return fresh


def single_iteration_result(tester: DifferentialTester, config: FuzzerConfig,
                            iteration: int,
                            strategy: Optional[GenerationStrategy] = None,
                            coverage: Optional[CoverageFeedback] = None
                            ) -> CampaignResult:
    """Run one iteration and fold it into a fresh one-iteration result.

    This is the unit of work the matrix campaign engine streams between
    workers and the coordinator: because every iteration is seeded purely
    from ``(config, iteration)`` (see :func:`iteration_seed`), merging these
    one-iteration results — in any order, across any process boundary —
    reproduces exactly what a serial loop over the same iterations computes.

    With a ``coverage`` feedback channel the oracle runs traced and the
    returned partial's ``coverage_arcs`` holds this iteration's *delta*
    (arcs new to the channel's seen-set) — compact novelty, not the
    cumulative set, which is what the worker→coordinator queue carries.
    A judged case adds one timeline sample; the coordinator stamps its
    ``elapsed`` when it folds the iteration.
    """
    result = CampaignResult(iterations=1)
    generated, case = run_campaign_iteration(
        tester, config, iteration, iteration_rng(config, iteration), strategy,
        coverage)
    if coverage is not None:
        result.coverage_arcs = set(coverage.flush())
    if generated is None:
        result.generation_failures += 1
        return result
    result.generated_models += 1
    result.operator_instances.update(generated.op_instances)
    if case is not None:
        fold_case(result, case, iteration, set())
        result.timeline.append({"elapsed": 0.0, "iteration": float(iteration)})
    return result


def probe_supported_pool(compilers: Sequence[Compiler], pool):
    """Restrict an operator-spec pool to kinds every compiler implements.

    NNSmith probes compilers for their support matrices to avoid
    "Not-Implemented" noise (§4).  Exposed at module level so the matrix
    campaign engine can probe once over the *union* of all compilers in the
    matrix and bake the same pool into every cell — per-cell probing would
    give different compiler subsets different generator streams, breaking
    the apples-to-apples property the per-cell Venn diagrams rely on.
    """
    kinds = [spec.op_kind for spec in pool]
    supported = set(kinds)
    for compiler in compilers:
        supported &= set(compiler.supported_ops(kinds))
    filtered = [spec for spec in pool if spec.op_kind in supported]
    return filtered or list(pool)


class Fuzzer:
    """The serial fuzzing loop over the in-repo compilers.

    Generation and judging are delegated to the registries: the config's
    ``strategy`` name picks the generator (NNSmith by default), ``oracle``
    picks the verdict function (differential testing by default).
    """

    def __init__(self, compilers: Sequence[Compiler],
                 config: Optional[FuzzerConfig] = None) -> None:
        self.compilers = list(compilers)
        self.config = config or FuzzerConfig()
        if self.config.max_iterations is None or \
                self.config.max_iterations < 0:
            # Zero is a legitimate shard: 1 iteration over 3 shards splits
            # 1/0/0.
            raise ValueError("max_iterations must be a non-negative "
                             "iteration count, got "
                             f"{self.config.max_iterations!r}: iterations "
                             "alone bound a campaign")
        self.tester = build_oracle(self.config.oracle, self.compilers,
                                   bugs=self.config.bugs)
        self.strategy = build_strategy(self.config.strategy, self.config)
        if self.config.probe_operator_support and \
                self.strategy.capabilities.supports_op_pool:
            self.config.generator.op_pool = probe_supported_pool(
                self.compilers, self.config.generator.op_pool)

    # ------------------------------------------------------------------ #
    def run(self, on_iteration: Optional[Callable[[int, CaseResult], None]] = None,
            coverage: Optional[CoverageFeedback] = None) -> CampaignResult:
        """Run the campaign's ``max_iterations`` iterations.

        ``coverage`` optionally traces compiler branch arcs per iteration
        (see :func:`search_and_difftest`); the result then accumulates the
        covered arcs in ``coverage_arcs`` — the serial loop speaks the same
        feedback protocol as the parallel engine's workers.
        """
        result = CampaignResult()
        seen_reports: Set[str] = set()
        start = time.monotonic()
        iteration = 0

        while iteration < self.config.max_iterations:
            iteration += 1
            generated, case = run_campaign_iteration(
                self.tester, self.config, iteration,
                iteration_rng(self.config, iteration), self.strategy, coverage)
            if coverage is not None:
                result.coverage_arcs.update(coverage.flush())
            if generated is None:
                result.generation_failures += 1
                continue
            result.generated_models += 1
            result.operator_instances.update(generated.op_instances)
            if case is None:
                continue
            fold_case(result, case, iteration, seen_reports)
            result.timeline.append(
                {"elapsed": time.monotonic() - start, "iteration": float(iteration)})
            if on_iteration is not None:
                on_iteration(iteration, case)

        result.iterations = iteration
        result.elapsed = time.monotonic() - start
        return result
