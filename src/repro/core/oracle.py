"""Pluggable test oracles and their named registry.

The campaign engine used to hardwire one oracle — the crash + numeric-diff
:class:`~repro.core.difftest.DifferentialTester`.  This module names that
choice: an *oracle* consumes a model plus concrete inputs and returns one
:class:`~repro.core.difftest.CompilerVerdict` per system under test.  New
oracles register a factory and slot into the serial loop, the matrix engine
and the CLI without touching any of them.  Registered here:

* ``difftest`` — the paper's oracle (crash + numeric differential test);
* ``crash`` — compile-and-run, crashes only (~2x cheaper per case);
* ``shape`` — shape-infer vs executed output shapes (pipeline smoke);
* ``perf`` — performance regression: the cell's optimized build is timed
  against an O0 build of the same model with a calibrated repeat/warmup
  harness; an optimized build slower than O0 beyond a noise threshold
  learned per worker is a ``perf`` verdict
  (:class:`PerfRegressionOracle`);
* ``gradcheck`` — autodiff gradient check: reverse-mode backprop through
  :mod:`repro.autodiff` is compared against central finite differences of
  the reference interpreter *and* of every compiled backend, reporting
  wrong-gradient verdicts with per-output max-error provenance
  (:class:`GradientCheckOracle`).

Like compilers and generation strategies, oracles travel through worker
processes and checkpoint fingerprints *by name* and are instantiated on
arrival via :func:`build_oracle`.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.compilers.base import Compiler
from repro.compilers.bugs import BugConfig
from repro.core.difftest import (CaseResult, CompilerVerdict,
                                 DifferentialTester, first_line)
from repro.errors import (CompilerError, ConversionError, IRVerificationError,
                          ReproError)

#: The oracle assumed when a config predates the registry.
DEFAULT_ORACLE = "difftest"

#: A picklable-by-name factory building an oracle inside a worker.
OracleFactory = Callable[[Sequence[Compiler], BugConfig], "Oracle"]

# The Oracle contract (structural, like compilers' CompiledModel):
#   name: str                       -- registry identifier
#   compilers: Sequence[Compiler]   -- systems under test (for pool probing)
#   evaluate(model, inputs, numerically_valid=None) -> List[CompilerVerdict]
#   run_case(model, inputs=None, numerically_valid=None) -> CaseResult
# DifferentialTester already satisfies it (difftest.py adds name/evaluate);
# Oracle below is a convenience base class for new implementations that
# derives run_case from evaluate.
Oracle = DifferentialTester  # default implementation doubles as the alias


class BaseOracle:
    """Convenience base: implement ``evaluate``, inherit ``run_case``."""

    name: str = "oracle"

    def __init__(self, compilers: Sequence[Compiler],
                 bugs: Optional[BugConfig] = None) -> None:
        self.compilers = list(compilers)
        self.bugs = bugs if bugs is not None else BugConfig.all()

    def evaluate(self, model, inputs,
                 numerically_valid: Optional[bool] = None
                 ) -> List[CompilerVerdict]:
        raise NotImplementedError

    def run_case(self, model, inputs=None,
                 numerically_valid: Optional[bool] = None,
                 rng: Optional[np.random.Generator] = None) -> CaseResult:
        """Evaluate one case, drawing random inputs when none are given.

        ``rng`` seeds those random inputs (default: a fixed stream, for
        reproducible standalone calls — pass a generator to vary inputs
        across calls).  ``numerically_valid`` is forwarded *as-is*:
        ``None`` means "validity unknown" and is preserved in the result —
        unlike :class:`DifferentialTester`, which derives validity from
        its reference-interpreter run, oracles built on this base never
        ran the reference, so coercing unknown to ``False`` would record
        every case as numerically invalid.
        """
        from repro.runtime.interpreter import random_inputs

        if inputs is None:
            rng = rng if rng is not None else np.random.default_rng(0)
            inputs = random_inputs(model, rng)
        verdicts = self.evaluate(model, inputs, numerically_valid)
        return CaseResult(model=model,
                          numerically_valid=numerically_valid,
                          verdicts=verdicts)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_ORACLE_REGISTRY: Dict[str, OracleFactory] = {}


def register_oracle(name: str, factory: Optional[OracleFactory] = None):
    """Register an oracle factory under ``name`` (usable as a decorator)."""

    def _register(factory: OracleFactory) -> OracleFactory:
        existing = _ORACLE_REGISTRY.get(name)
        if existing is not None and existing is not factory:
            raise ValueError(f"oracle name {name!r} already registered")
        _ORACLE_REGISTRY[name] = factory
        return factory

    if factory is not None:
        return _register(factory)
    return _register


def registered_oracles() -> Tuple[str, ...]:
    """Names of every registered oracle, in deterministic order."""
    return tuple(sorted(_ORACLE_REGISTRY))


def build_oracle(name: str, compilers: Sequence[Compiler],
                 bugs: Optional[BugConfig] = None):
    """Instantiate a registered oracle over the given systems under test."""
    try:
        factory = _ORACLE_REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown oracle {name!r}; registered: "
                       f"{sorted(_ORACLE_REGISTRY)}") from None
    return factory(compilers, bugs if bugs is not None else BugConfig.all())


@register_oracle(DEFAULT_ORACLE)
def _difftest_factory(compilers: Sequence[Compiler],
                      bugs: BugConfig) -> DifferentialTester:
    """The paper's oracle: crash detection + numeric differential testing."""
    return DifferentialTester(compilers, bugs=bugs)


# --------------------------------------------------------------------------- #
# Shape-only oracle
# --------------------------------------------------------------------------- #
@register_oracle("shape")
class ShapeOnlyOracle(BaseOracle):
    """Pipeline-smoke oracle comparing output *shapes* only.

    The reference is the model's statically shape-inferred output types
    (generated models are fully concretized, so every output shape is
    known without running anything); each compiler's outputs must match
    them in shape, values are never compared.  That makes it the cheapest
    full-pipeline oracle — no reference-interpreter run, no numeric
    tolerance questions — suitable for smoke campaigns and for catching
    the large class of layout/reshape/broadcast bugs that change a result
    tensor's shape.  Value-level semantic bugs are invisible to it by
    design; crashes are reported exactly like ``difftest``.
    """

    name = "shape"

    def evaluate(self, model, inputs,
                 numerically_valid: Optional[bool] = None
                 ) -> List[CompilerVerdict]:
        from repro.runtime.exporter import ExportReport, export_model

        expected = {name: tuple(model.type_of(name).shape)
                    for name in model.outputs}
        report = ExportReport()
        exported = export_model(model, bugs=self.bugs, report=report)
        verdicts: List[CompilerVerdict] = []
        for compiler in self.compilers:
            verdict = self._judge_compiler(compiler, exported, inputs,
                                           expected)
            verdict.triggered_bugs.extend(
                bug for bug in report.triggered_bugs
                if bug not in verdict.triggered_bugs)
            verdicts.append(verdict)
        return verdicts

    def _judge_compiler(self, compiler, exported, inputs,
                        expected) -> CompilerVerdict:
        from repro.core.difftest import _bugs_from_error

        try:
            compiled = compiler.compile_model(exported)
        except IRVerificationError as exc:
            return CompilerVerdict(compiler.name, "verifier", "transformation",
                                   str(exc), _bugs_from_error(exc))
        except ConversionError as exc:
            return CompilerVerdict(compiler.name, "crash", "conversion",
                                   str(exc), _bugs_from_error(exc))
        except CompilerError as exc:
            return CompilerVerdict(compiler.name, "crash", "transformation",
                                   str(exc), _bugs_from_error(exc))
        triggered = list(getattr(compiled, "triggered_bugs", []))
        modified = list(getattr(compiled, "modified_by", []))
        try:
            outputs = compiled.run(inputs)
        except ReproError as exc:
            return CompilerVerdict(compiler.name, "crash", "execution",
                                   str(exc),
                                   triggered + _bugs_from_error(exc),
                                   modified)
        for name, shape in expected.items():
            if name not in outputs:
                return CompilerVerdict(
                    compiler.name, "semantic", "execution",
                    f"output {name!r} missing from compiled results",
                    triggered, modified)
            actual = tuple(np.asarray(outputs[name]).shape)
            if actual != shape:
                return CompilerVerdict(
                    compiler.name, "semantic", "execution",
                    f"output {name!r} shape mismatch: inferred {shape}, "
                    f"got {actual}", triggered, modified)
        return CompilerVerdict(compiler.name, "ok", "", "", triggered,
                               modified)


# --------------------------------------------------------------------------- #
# Crash-only oracle
# --------------------------------------------------------------------------- #
@register_oracle("crash")
class CrashOnlyOracle(BaseOracle):
    """Compile-and-run oracle that reports crashes only.

    Skips the reference-interpreter run and the numeric comparison, making
    it roughly 2x cheaper per case than ``difftest`` — useful for long
    crash-hunting campaigns and as the registry's proof that a second
    oracle slots in without touching the engine.  Semantic (wrong-output)
    bugs are invisible to it by design.
    """

    name = "crash"

    def __init__(self, compilers: Sequence[Compiler],
                 bugs: Optional[BugConfig] = None) -> None:
        super().__init__(compilers, bugs)

    def evaluate(self, model, inputs,
                 numerically_valid: Optional[bool] = None
                 ) -> List[CompilerVerdict]:
        from repro.core.difftest import _bugs_from_error
        from repro.runtime.exporter import ExportReport, export_model

        report = ExportReport()
        exported = export_model(model, bugs=self.bugs, report=report)
        verdicts: List[CompilerVerdict] = []
        for compiler in self.compilers:
            modified: List[str] = []
            try:
                compiled = compiler.compile_model(exported)
                triggered = list(getattr(compiled, "triggered_bugs", []))
                modified = list(getattr(compiled, "modified_by", []))
                compiled.run(inputs)
                verdict = CompilerVerdict(compiler.name, "ok", "", "",
                                          triggered, modified)
            except IRVerificationError as exc:
                verdict = CompilerVerdict(compiler.name, "verifier",
                                          "transformation", str(exc),
                                          _bugs_from_error(exc))
            except ConversionError as exc:
                verdict = CompilerVerdict(compiler.name, "crash", "conversion",
                                          str(exc), _bugs_from_error(exc))
            except CompilerError as exc:
                verdict = CompilerVerdict(compiler.name, "crash",
                                          "transformation", str(exc),
                                          _bugs_from_error(exc))
            except ReproError as exc:
                verdict = CompilerVerdict(compiler.name, "crash", "execution",
                                          str(exc), _bugs_from_error(exc),
                                          modified)
            verdict.triggered_bugs.extend(
                bug for bug in report.triggered_bugs
                if bug not in verdict.triggered_bugs)
            verdicts.append(verdict)
        return verdicts


# --------------------------------------------------------------------------- #
# Performance-regression oracle
# --------------------------------------------------------------------------- #
@register_oracle("perf")
class PerfRegressionOracle(BaseOracle):
    """Optimized-vs-O0 runtime comparison (Tzer-style pass-level hunting).

    For every compiler the model is compiled twice — at the compiler's own
    optimization level and at O0 — and both executables are timed with a
    warmup + min-of-repeats harness (the minimum is robust to additive
    scheduler noise).  An optimized build slower than the O0 build beyond
    a noise threshold is reported as a ``perf`` verdict: optimizations are
    allowed to be useless, not to pessimize.

    The threshold is *learned per worker*: the first case calibrates by
    timing the same O0 executable twice and widening the floor by the
    observed run-to-run noise, so a loaded CI machine raises the bar
    instead of flaking.  ``timer`` / ``threshold`` are injectable for
    deterministic tests (a fake clock makes every measurement scripted).

    Repeat counts are *size-adaptive* by default: tiny models run in
    microseconds where dispatch jitter dominates, so they get more timed
    repeats; big models are individually slow but self-averaging, so they
    get fewer — keeping per-case timing work roughly constant
    (:meth:`counts_for_cost`, √ scaling against :data:`REFERENCE_COST`).
    Passing explicit ``repeats``/``warmup`` pins fixed counts and disables
    the scaling entirely.

    Crashes are reported exactly like ``difftest``; value correctness is
    out of scope (run ``difftest`` alongside via the oracle matrix axis).

    Unlike every other oracle, ``perf`` verdicts depend on real wall time,
    so campaigns that include it are not bit-reproducible run-to-run —
    seeded-bug attribution stays stable (triggers are recorded at compile
    time), but borderline findings can flip.  The scheduler-equivalence
    guarantees apply to the deterministic oracles.
    """

    name = "perf"

    #: Untimed runs before measuring (caches, lazy init).
    WARMUP = 1
    #: Timed runs per measurement; the minimum is kept.
    REPEATS = 3
    #: Model cost (graph nodes × input elements) at which the base
    #: WARMUP/REPEATS apply unscaled.  Roughly a 10-node model over a
    #: few hundred elements — the campaign generator's typical output.
    REFERENCE_COST = 4096.0
    #: Clamp bounds of the size-adaptive counts: even a huge model keeps a
    #: noise-robust min-of-2, even a tiny one never exceeds 9 repeats
    #: (3 warmups) per measurement.
    MIN_REPEATS, MAX_REPEATS = 2, 9
    MIN_WARMUP, MAX_WARMUP = 1, 3
    #: Minimum slowdown ratio ever reported, however quiet the machine.
    #: Generous: the tiny models campaigns generate run in microseconds,
    #: where per-node dispatch jitter is multiplicative — real seeded
    #: pessimizations sit orders of magnitude above this.
    THRESHOLD_FLOOR = 4.0
    #: How much observed calibration noise widens the threshold.
    CALIBRATION_SLACK = 4.0

    def __init__(self, compilers: Sequence[Compiler],
                 bugs: Optional[BugConfig] = None,
                 timer: Optional[Callable[[], float]] = None,
                 repeats: Optional[int] = None,
                 warmup: Optional[int] = None,
                 threshold: Optional[float] = None) -> None:
        import time

        super().__init__(compilers, bugs)
        self._timer = timer if timer is not None else time.perf_counter
        #: Explicit counts pin fixed behaviour (deterministic fake-clock
        #: tests depend on a scripted number of timer reads); leaving both
        #: unset enables per-case size-adaptive counts.
        self._adaptive = repeats is None and warmup is None
        self.repeats = self.REPEATS if repeats is None else max(1, repeats)
        self.warmup = self.WARMUP if warmup is None else max(0, warmup)
        #: Calibrated slowdown threshold; None until the per-worker
        #: calibration run (an explicit ``threshold`` skips calibration).
        self._threshold: Optional[float] = threshold

    # ------------------------------------------------------------------ #
    @classmethod
    def model_cost(cls, model, inputs) -> float:
        """Per-run work estimate: graph nodes × total input elements."""
        nodes = max(1, len(getattr(model, "nodes", []) or []))
        elements = max(1, sum(int(getattr(value, "size", 1) or 1)
                              for value in (inputs or {}).values()))
        return float(nodes * elements)

    @classmethod
    def counts_for_cost(cls, cost: float) -> Tuple[int, int]:
        """``(warmup, repeats)`` for a model of per-run ``cost``.

        √ scaling keeps total timing work per case roughly constant: a
        model 4× cheaper than :data:`REFERENCE_COST` gets 2× the repeats
        (its jitter-to-runtime ratio is worse), a 4× dearer one gets half.
        Clamped to [MIN, MAX] on both counts.
        """
        import math

        if cost <= 0.0:
            return cls.WARMUP, cls.REPEATS
        scale = math.sqrt(cls.REFERENCE_COST / cost)
        warmup = int(round(cls.WARMUP * scale))
        repeats = int(round(cls.REPEATS * scale))
        return (max(cls.MIN_WARMUP, min(cls.MAX_WARMUP, warmup)),
                max(cls.MIN_REPEATS, min(cls.MAX_REPEATS, repeats)))

    def _measure(self, compiled, inputs) -> float:
        """Min-of-repeats wall time of one executable, in seconds."""
        for _ in range(self.warmup):
            compiled.run(inputs)
        best: Optional[float] = None
        for _ in range(self.repeats):
            start = self._timer()
            compiled.run(inputs)
            elapsed = self._timer() - start
            if best is None or elapsed < best:
                best = elapsed
        return max(best if best is not None else 0.0, 1e-9)

    def _calibrated_threshold(self, compiled, inputs) -> float:
        """The per-worker noise threshold, calibrating on first use.

        Two independent min-of-repeats measurements of the *same*
        executable should agree; their ratio estimates this worker's
        timing noise, and the reporting threshold widens accordingly.
        """
        if self._threshold is None:
            first = self._measure(compiled, inputs)
            second = self._measure(compiled, inputs)
            noise = max(first, second) / min(first, second)
            self._threshold = max(
                self.THRESHOLD_FLOOR,
                1.0 + self.CALIBRATION_SLACK * (noise - 1.0))
        return self._threshold

    # ------------------------------------------------------------------ #
    def evaluate(self, model, inputs,
                 numerically_valid: Optional[bool] = None
                 ) -> List[CompilerVerdict]:
        from repro.runtime.exporter import ExportReport, export_model

        if self._adaptive:
            self.warmup, self.repeats = self.counts_for_cost(
                self.model_cost(model, inputs))
        report = ExportReport()
        exported = export_model(model, bugs=self.bugs, report=report)
        verdicts: List[CompilerVerdict] = []
        for compiler in self.compilers:
            verdict = self._judge_compiler(compiler, exported, inputs)
            verdict.triggered_bugs.extend(
                bug for bug in report.triggered_bugs
                if bug not in verdict.triggered_bugs)
            verdicts.append(verdict)
        return verdicts

    def _judge_compiler(self, compiler, exported, inputs) -> CompilerVerdict:
        from repro.compilers.base import CompileOptions
        from repro.core.difftest import _bugs_from_error

        try:
            optimized = compiler.compile_model(exported)
        except IRVerificationError as exc:
            return CompilerVerdict(compiler.name, "verifier", "transformation",
                                   str(exc), _bugs_from_error(exc))
        except ConversionError as exc:
            return CompilerVerdict(compiler.name, "crash", "conversion",
                                   str(exc), _bugs_from_error(exc))
        except CompilerError as exc:
            return CompilerVerdict(compiler.name, "crash", "transformation",
                                   str(exc), _bugs_from_error(exc))
        triggered = list(getattr(optimized, "triggered_bugs", []))
        modified = list(getattr(optimized, "modified_by", []))
        try:
            optimized.run(inputs)
        except ReproError as exc:
            return CompilerVerdict(compiler.name, "crash", "execution",
                                   str(exc),
                                   triggered + _bugs_from_error(exc),
                                   modified)
        opt_level = getattr(getattr(compiler, "options", None),
                            "opt_level", None)
        if not opt_level:
            # Already an O0 (or unleveled) build: no optimized-vs-baseline
            # contrast exists for this cell.
            return CompilerVerdict(compiler.name, "ok", "", "", triggered,
                                   modified)
        try:
            baseline = type(compiler)(
                CompileOptions(opt_level=0, bugs=self.bugs)
            ).compile_model(exported)
            baseline.run(inputs)
        except ReproError:
            # The unoptimized build itself fails; crash-class oracles own
            # that case — there is no baseline to regress against.
            return CompilerVerdict(compiler.name, "ok", "", "", triggered,
                                   modified)
        threshold = self._calibrated_threshold(baseline, inputs)
        optimized_time = self._measure(optimized, inputs)
        baseline_time = self._measure(baseline, inputs)
        ratio = optimized_time / baseline_time
        if ratio <= threshold:
            return CompilerVerdict(compiler.name, "ok", "", "", triggered,
                                   modified)
        message = (f"optimized (O{opt_level}) build is {ratio:.1f}x slower "
                   f"than O0 ({optimized_time * 1e3:.3f}ms vs "
                   f"{baseline_time * 1e3:.3f}ms; calibrated threshold "
                   f"{threshold:.2f}x)")
        # Bisect the flagged regression to the nodes that carry it.  The
        # attribution is pure provenance: it runs only after the verdict is
        # already decided, never changes the message or dedup key, and
        # executables without per-node profiling hooks yield [].
        slow_nodes = attribute_slow_nodes(optimized, baseline, inputs,
                                          timer=self._timer)
        return CompilerVerdict(compiler.name, "perf", "transformation",
                               message, triggered, modified,
                               slow_nodes=slow_nodes)


def _min_profile(profiler, inputs, timer, repeats: int
                 ) -> List[Tuple[str, str, float]]:
    order: List[Tuple[str, str]] = []
    best: Dict[str, float] = {}
    for _ in range(max(1, repeats)):
        for name, op, seconds in profiler(inputs, timer):
            if name not in best:
                order.append((name, op))
                best[name] = seconds
            elif seconds < best[name]:
                best[name] = seconds
    return [(name, op, best[name]) for name, op in order]


def attribute_slow_nodes(optimized: Any, baseline: Any,
                         inputs: Mapping[str, np.ndarray],
                         timer: Optional[Callable[[], float]] = None,
                         repeats: int = 2, top: int = 3,
                         share_floor: float = 0.8) -> List[Dict[str, str]]:
    """Bisect a flagged perf regression to the nodes that carry it.

    Both executables are profiled node-at-a-time through their own
    ``profile_nodes(inputs, timer)`` hook (min-of-``repeats`` per node, the
    same noise discipline as the perf oracle's measurements); per-node
    excess over the baseline is ranked and the dominating nodes returned as
    ``{"node", "op", "share"}`` provenance dicts.  Executables without the
    hook (codegen backends, test doubles) yield ``[]`` — attribution is
    strictly additive provenance, never a gate.
    """
    import time

    timer = timer if timer is not None else time.perf_counter
    optimized_profiler = getattr(optimized, "profile_nodes", None)
    baseline_profiler = getattr(baseline, "profile_nodes", None)
    if not callable(optimized_profiler) or not callable(baseline_profiler):
        return []
    try:
        optimized_times = _min_profile(optimized_profiler, inputs, timer,
                                       repeats)
        baseline_times = _min_profile(baseline_profiler, inputs, timer,
                                      repeats)
    except Exception:
        return []
    baseline_by_name = {name: seconds for name, _op, seconds in baseline_times}
    excess = [(name, op, seconds - baseline_by_name.get(name, 0.0))
              for name, op, seconds in optimized_times]
    positive = sorted((entry for entry in excess if entry[2] > 0.0),
                      key=lambda entry: -entry[2])
    total = sum(entry[2] for entry in positive)
    if total <= 0.0:
        return []
    slow: List[Dict[str, str]] = []
    covered = 0.0
    for name, op, seconds in positive[:max(1, top)]:
        slow.append({"node": name, "op": op, "share": f"{seconds / total:.0%}"})
        covered += seconds
        if covered / total >= share_floor:
            break
    return slow


# --------------------------------------------------------------------------- #
# Autodiff gradient-check oracle
# --------------------------------------------------------------------------- #
@register_oracle("gradcheck")
class GradientCheckOracle(BaseOracle):
    """Backprop through :mod:`repro.autodiff` vs central finite differences.

    Whole bug classes are invisible to forward-output differential testing:
    a wrong vector-Jacobian product produces perfectly correct forward
    results and silently corrupts every gradient consumer.  This oracle
    runs reverse-mode backprop over the generated model (proxy derivatives
    *disabled* — true derivatives only, so analytic and numeric gradients
    agree on smooth paths) and compares the analytic input gradients
    against central finite differences of

    * the reference interpreter (verdict ``"autodiff"`` — the repo's
      autograd itself is the system under test), and
    * every compiled backend, where supported (gradients observed through
      each compiler's forward function must match too).

    Comparisons sample a deterministic subset of elements per float graph
    input; wrong-gradient verdicts carry per-output max-error provenance
    (which output's gradient, against which input element, analytic vs
    numeric value).  Cases that are numerically invalid, have no float
    inputs/outputs, or contain operators without a registered VJP are
    skipped (all-ok verdicts) — gradients are only comparable on smooth,
    finite paths.
    """

    name = "gradcheck"

    #: Elements checked per float graph input (deterministic, evenly
    #: spaced over the flattened tensor).
    SAMPLES_PER_TENSOR = 3
    #: Central-difference step, scaled by the element's magnitude.
    FD_STEP = 1e-3
    #: Mismatch tolerances: a sample disagrees when the absolute error
    #: exceeds ATOL *and* the error relative to max(1, |analytic|,
    #: |numeric|) exceeds RTOL.  Deliberately loose (like difftest's
    #: forward tolerances) so float32 truncation and benign kinks never
    #: alarm.
    RTOL = 5e-2
    ATOL = 1e-2

    def evaluate(self, model, inputs,
                 numerically_valid: Optional[bool] = None
                 ) -> List[CompilerVerdict]:
        from repro.autodiff.backprop import backpropagate
        from repro.autodiff.proxy import NO_PROXY
        from repro.runtime.exporter import ExportReport, export_model
        from repro.runtime.interpreter import Interpreter

        interpreter = Interpreter(record_intermediates=True)
        try:
            run = interpreter.run_detailed(model, inputs)
        except ReproError:
            return self._skip_verdicts()
        if numerically_valid is None:
            numerically_valid = run.numerically_valid
        float_outputs = [name for name in model.outputs
                         if model.type_of(name).dtype.is_float]
        targets = self._sampled_targets(model, inputs)
        if not numerically_valid or not float_outputs or not targets:
            return self._skip_verdicts()

        triggered: List[str] = []
        analytic: Dict[str, Dict[str, np.ndarray]] = {}
        try:
            for out in float_outputs:
                seed = {out: np.ones(np.asarray(run.outputs[out]).shape,
                                     dtype=np.float64)}
                analytic[out] = backpropagate(model, run.values, seed,
                                              proxy=NO_PROXY,
                                              bugs=self.bugs,
                                              triggered=triggered)
        except ReproError:
            return self._skip_verdicts()  # some operator has no VJP

        try:
            reference = self._judge_runner(
                "autodiff",
                lambda perturbed: Interpreter(record_intermediates=False)
                .run_detailed(model, perturbed).outputs,
                inputs, float_outputs, targets, analytic, triggered)
        except ReproError:
            # A perturbed reference run failed outright (domain edge):
            # gradients are not comparable here.
            reference = CompilerVerdict("autodiff", "ok", "", "",
                                        list(triggered))
        verdicts = [reference]

        report = ExportReport()
        exported = export_model(model, bugs=self.bugs, report=report)
        for compiler in self.compilers:
            verdict = self._judge_compiled(compiler, exported, inputs,
                                           float_outputs, targets, analytic,
                                           triggered)
            verdict.triggered_bugs.extend(
                bug for bug in report.triggered_bugs
                if bug not in verdict.triggered_bugs)
            verdicts.append(verdict)
        return verdicts

    # ------------------------------------------------------------------ #
    def _skip_verdicts(self) -> List[CompilerVerdict]:
        """All-ok verdicts for cases gradients cannot be checked on."""
        return [CompilerVerdict("autodiff", "ok", "", "")] + \
            [CompilerVerdict(compiler.name, "ok", "", "")
             for compiler in self.compilers]

    def _sampled_targets(self, model, inputs):
        """(input name, sampled flat indices) for every float graph input.

        Only graph inputs are perturbed (weights are baked into compiled
        executables, so they cannot be finite-differenced through a
        backend); the sampled elements are deterministic — evenly spaced
        over the flattened tensor — so campaign iterations are pure in
        ``(config, iteration)`` like every other engine component.
        """
        targets = []
        for name in model.inputs:
            if not model.type_of(name).dtype.is_float:
                continue
            size = int(np.asarray(inputs[name]).size)
            if size == 0:
                continue
            count = min(self.SAMPLES_PER_TENSOR, size)
            indices = sorted({int(round(i * (size - 1) / max(count - 1, 1)))
                              for i in range(count)})
            targets.append((name, indices))
        return targets

    def _judge_compiled(self, compiler, exported, inputs, float_outputs,
                        targets, analytic, triggered) -> CompilerVerdict:
        from repro.core.difftest import _bugs_from_error

        try:
            compiled = compiler.compile_model(exported)
        except IRVerificationError as exc:
            return CompilerVerdict(compiler.name, "verifier", "transformation",
                                   str(exc), _bugs_from_error(exc))
        except ConversionError as exc:
            return CompilerVerdict(compiler.name, "crash", "conversion",
                                   str(exc), _bugs_from_error(exc))
        except CompilerError as exc:
            return CompilerVerdict(compiler.name, "crash", "transformation",
                                   str(exc), _bugs_from_error(exc))
        compile_triggered = list(getattr(compiled, "triggered_bugs", []))
        modified = list(getattr(compiled, "modified_by", []))
        try:
            verdict = self._judge_runner(compiler.name, compiled.run, inputs,
                                         float_outputs, targets, analytic,
                                         triggered)
        except ReproError as exc:
            return CompilerVerdict(compiler.name, "crash", "execution",
                                   str(exc),
                                   compile_triggered + _bugs_from_error(exc),
                                   modified)
        verdict.triggered_bugs.extend(
            bug for bug in compile_triggered
            if bug not in verdict.triggered_bugs)
        verdict.modified_by = modified
        return verdict

    def _judge_runner(self, system, runner, inputs, float_outputs, targets,
                      analytic, triggered) -> CompilerVerdict:
        """Compare analytic gradients against central FD through ``runner``.

        ``runner`` maps an inputs dict to an outputs dict; the scalar loss
        per output is the sum of its elements, so one pair of perturbed
        runs yields every output's directional derivative at once.
        """
        worst: Dict[str, Tuple[float, str, int, float, float]] = {}
        mismatched = False
        for name, indices in targets:
            base = np.asarray(inputs[name])
            for index in indices:
                value = float(base.reshape(-1)[index])
                step = self.FD_STEP * max(1.0, abs(value))
                outs_plus = runner(self._perturbed(inputs, name, index, step))
                outs_minus = runner(self._perturbed(inputs, name, index, -step))
                for out in float_outputs:
                    if out not in outs_plus or out not in outs_minus:
                        continue
                    hi = float(np.sum(np.asarray(outs_plus[out],
                                                 dtype=np.float64)))
                    lo = float(np.sum(np.asarray(outs_minus[out],
                                                 dtype=np.float64)))
                    if not (np.isfinite(hi) and np.isfinite(lo)):
                        continue  # perturbation left the smooth domain
                    numeric = (hi - lo) / (2.0 * step)
                    grads = analytic[out].get(name)
                    if grads is None:
                        continue
                    exact = float(np.asarray(grads).reshape(-1)[index])
                    error = abs(exact - numeric)
                    scale = max(1.0, abs(exact), abs(numeric))
                    record = worst.get(out)
                    if record is None or error > record[0]:
                        worst[out] = (error, name, index, exact, numeric)
                    if error > self.ATOL and error / scale > self.RTOL:
                        mismatched = True
        if not mismatched:
            return CompilerVerdict(system, "ok", "", "", list(triggered))
        provenance = "; ".join(
            f"output {out!r}: max |analytic-numeric| {error:.4g} "
            f"(input {name!r}[{index}], analytic {exact:.4g}, "
            f"numeric {numeric:.4g})"
            for out, (error, name, index, exact, numeric)
            in sorted(worst.items()))
        return CompilerVerdict(system, "gradient", "backward",
                               f"wrong gradient: {provenance}",
                               list(triggered))

    @staticmethod
    def _perturbed(inputs, name, index, delta):
        perturbed = dict(inputs)
        array = np.array(inputs[name], copy=True)
        flat = array.reshape(-1)
        flat[index] = flat[index] + delta
        perturbed[name] = array
        return perturbed


__all__ = [
    "BaseOracle",
    "CrashOnlyOracle",
    "DEFAULT_ORACLE",
    "GradientCheckOracle",
    "Oracle",
    "PerfRegressionOracle",
    "ShapeOnlyOracle",
    "attribute_slow_nodes",
    "build_oracle",
    "first_line",
    "register_oracle",
    "registered_oracles",
]
