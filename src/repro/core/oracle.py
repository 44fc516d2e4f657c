"""Pluggable test oracles and their named registry.

An *oracle* consumes a model plus concrete inputs and returns one
:class:`~repro.core.difftest.CompilerVerdict` per system under test.  New
oracles register a factory and slot into the serial loop, the matrix engine
and the CLI without touching any of them.  Every built-in judges through
:func:`~repro.core.difftest.judge_compilers` (export, compile, crash
classification, bug attribution) and adds only its own check of the
executable.  Registered here:

* ``difftest`` — the paper's oracle (crash + numeric differential test);
* ``crash`` — compile-and-run, crashes only (no reference-interpreter run,
  no output comparison);
* ``shape`` — shape-infer vs executed output shapes (pipeline smoke);
* ``perf`` — performance regression: the cell's optimized build and an O0
  build of the same model each run once while their kernel calls are
  counted; an optimized build making more than 4x the O0 build's calls is
  a ``perf`` verdict (:class:`PerfRegressionOracle`);
* ``gradcheck`` — autodiff gradient check: reverse-mode backprop through
  :mod:`repro.autodiff` is compared against one central finite difference
  (a ``+`` and a ``-`` run moving the sampled input elements together) of
  the reference interpreter *and* of every compiled backend, reporting
  wrong-gradient verdicts that name the moved elements and each
  mismatching output's directional derivatives
  (:class:`GradientCheckOracle`).

Like compilers and generation strategies, oracles travel through worker
processes and checkpoint fingerprints *by name* and are instantiated on
arrival via :func:`build_oracle`.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compilers.base import CompileOptions, Compiler
from repro.compilers.bugs import BugConfig
from repro.core.difftest import (CaseResult, CompilerVerdict,
                                 DifferentialTester, first_line,
                                 judge_compilers)
from repro.errors import ReproError
from repro.ops.semantics import counting_kernel_calls
from repro.runtime.interpreter import Interpreter, random_inputs

#: The oracle assumed when a config predates the registry.
DEFAULT_ORACLE = "difftest"

#: A picklable-by-name factory building an oracle inside a worker.
OracleFactory = Callable[[Sequence[Compiler], BugConfig], "BaseOracle"]


class BaseOracle:
    """Convenience base: implement ``evaluate``, inherit ``run_case``.

    The oracle contract is structural, like compilers' ``CompiledModel``:

    * ``name: str`` — registry identifier;
    * ``compilers: Sequence[Compiler]`` — systems under test (for pool
      probing);
    * ``evaluate(model, inputs, numerically_valid=None)
      -> List[CompilerVerdict]``;
    * ``run_case(model, inputs=None, numerically_valid=None, rng=None)
      -> CaseResult``.

    :class:`~repro.core.difftest.DifferentialTester` satisfies it without
    this base.  An ``evaluate`` that returns
    ``judge_compilers(model, self.compilers, self.bugs, check)`` inherits
    the built-ins' crash classification and bug attribution and supplies
    only ``check(compiler, compiled, exported) -> CompilerVerdict``.
    """

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
        expected = {name: tuple(model.type_of(name).shape)
                    for name in model.outputs}

        def compare_shapes(compiler, compiled, exported) -> CompilerVerdict:
            outputs = compiled.run(inputs)
            for name, shape in expected.items():
                if name not in outputs:
                    return CompilerVerdict(
                        compiler.name, "semantic", "execution",
                        f"output {name!r} missing from compiled results")
                actual = tuple(np.asarray(outputs[name]).shape)
                if actual != shape:
                    return CompilerVerdict(
                        compiler.name, "semantic", "execution",
                        f"output {name!r} shape mismatch: inferred {shape}, "
                        f"got {actual}")
            return CompilerVerdict(compiler.name, "ok")

        return judge_compilers(model, self.compilers, self.bugs,
                               compare_shapes)


# --------------------------------------------------------------------------- #
# Crash-only oracle
# --------------------------------------------------------------------------- #
@register_oracle("crash")
class CrashOnlyOracle(BaseOracle):
    """Compile-and-run oracle that reports crashes only.

    Unlike ``difftest`` it skips the reference-interpreter run and the
    numeric comparison — useful for long crash-hunting campaigns and as the
    registry's proof that a second oracle slots in without touching the
    engine.  Semantic (wrong-output) bugs are invisible to it by design.
    """

    name = "crash"

    def evaluate(self, model, inputs,
                 numerically_valid: Optional[bool] = None
                 ) -> List[CompilerVerdict]:
        def run(compiler, compiled, exported) -> CompilerVerdict:
            compiled.run(inputs)
            return CompilerVerdict(compiler.name, "ok")

        return judge_compilers(model, self.compilers, self.bugs, run)


# --------------------------------------------------------------------------- #
# Performance-regression oracle
# --------------------------------------------------------------------------- #
@register_oracle("perf")
class PerfRegressionOracle(BaseOracle):
    """Optimized-vs-O0 kernel-call comparison (Tzer-style pass-level hunting).

    For every compiler the model is compiled twice — at the compiler's own
    optimization level and at O0 — and each executable runs once under
    :func:`repro.ops.semantics.counting_kernel_calls`.  An optimized build
    that dispatches more than :data:`THRESHOLD` times the O0 build's
    kernel calls is reported as a ``perf`` verdict: optimizations are
    allowed to be useless, not to pessimize.  The verdict's ``slow_nodes``
    names the nodes whose calls exceed the O0 build's most.

    Counted work, unlike wall time, does not depend on machine load, so
    ``perf`` findings are as reproducible as every other oracle's.  Only
    kernels dispatched through :func:`repro.ops.semantics.execute_node` are
    counted: graphrt's fused ``BiasSoftmax``, deepc's layout pack/unpack and
    turbo's seeded kernel overrides bypass it and count zero.  A zero count
    can only make an optimized build look cheaper, never flag it.

    Crashes are reported exactly like ``difftest``; value correctness is
    out of scope (run ``difftest`` alongside via the oracle matrix axis).
    """

    name = "perf"

    #: Optimized-to-O0 kernel-call ratio above which a build is reported.
    #: Generous: the seeded pessimization dispatches tens of times more
    #: calls, while a clean optimized build dispatches at most as many.
    THRESHOLD = 4.0

    def evaluate(self, model, inputs,
                 numerically_valid: Optional[bool] = None
                 ) -> List[CompilerVerdict]:
        return judge_compilers(
            model, self.compilers, self.bugs,
            lambda compiler, optimized, exported: self._count_against_o0(
                compiler, optimized, exported, inputs))

    def _count_against_o0(self, compiler, optimized, exported,
                          inputs) -> CompilerVerdict:
        with counting_kernel_calls() as optimized_calls:
            optimized.run(inputs)
        opt_level = getattr(getattr(compiler, "options", None),
                            "opt_level", None)
        if not opt_level:
            # Already an O0 (or unleveled) build: no optimized-vs-baseline
            # contrast exists for this cell.
            return CompilerVerdict(compiler.name, "ok")
        try:
            baseline = type(compiler)(
                CompileOptions(opt_level=0, bugs=self.bugs)
            ).compile_model(exported)
            with counting_kernel_calls() as baseline_calls:
                baseline.run(inputs)
        except ReproError:
            # The unoptimized build itself fails; crash-class oracles own
            # that case — there is no baseline to regress against.
            return CompilerVerdict(compiler.name, "ok")
        optimized_total = sum(optimized_calls.values())
        baseline_total = sum(baseline_calls.values())
        ratio = optimized_total / max(baseline_total, 1)
        if ratio <= self.THRESHOLD:
            return CompilerVerdict(compiler.name, "ok")
        message = (f"optimized (O{opt_level}) build makes {ratio:.1f}x the "
                   f"kernel calls of O0 ({optimized_total} vs "
                   f"{baseline_total}; threshold {self.THRESHOLD:.1f}x)")
        return CompilerVerdict(compiler.name, "perf", "transformation",
                               message,
                               slow_nodes=_slow_nodes(optimized_calls,
                                                      baseline_calls))


def _slow_nodes(optimized: Counter, baseline: Counter
                ) -> List[Dict[str, str]]:
    """The nodes carrying a perf regression, as ``{"node", "op", "share"}``.

    Ranks each ``(node, op)``'s calls in excess of the O0 build's and keeps
    the top three, stopping once they cover 80% of the total excess.
    """
    excess = optimized - baseline  # keeps positive differences only
    total = sum(excess.values())
    slow: List[Dict[str, str]] = []
    covered = 0
    for (name, op), calls in excess.most_common(3):
        slow.append({"node": name, "op": op, "share": f"{calls / total:.0%}"})
        covered += calls
        if covered / total >= 0.8:
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

    The check is directional: a deterministic sample of elements per
    float graph input moves together, so each system runs one ``+`` and
    one ``-`` copy of the inputs, and each float output's central
    difference is compared with the backprop gradient along the same
    direction.  Wrong-gradient verdicts name the moved elements and, for
    each mismatching output, its analytic and numeric directional
    derivatives.  Cases that are numerically invalid, have no float
    inputs/outputs, or contain operators without a registered VJP are
    skipped (all-ok verdicts) — gradients are only comparable on smooth,
    finite paths.
    """

    name = "gradcheck"

    #: Elements moved per float graph input (deterministic, evenly
    #: spaced over the flattened tensor).
    SAMPLES_PER_TENSOR = 3
    #: Central-difference step, scaled by the element's magnitude.
    FD_STEP = 1e-3
    #: Mismatch tolerances: an output disagrees when the absolute error
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
        return [reference] + judge_compilers(
            model, self.compilers, self.bugs,
            lambda compiler, compiled, exported: self._judge_runner(
                compiler.name, compiled.run, inputs, float_outputs, targets,
                analytic, triggered))

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

    def _judge_runner(self, system, runner, inputs, float_outputs, targets,
                      analytic, triggered) -> CompilerVerdict:
        """Compare analytic directional derivatives against one central
        difference through ``runner``.

        Every sampled element moves together by ``FD_STEP·max(1, |x|)``:
        one run with them all up, one with them all down.  ``runner`` maps
        an inputs dict to an outputs dict; the scalar loss per output is
        the sum of its elements, so that run pair checks every output's
        directional derivative ``Σᵢ ∂loss/∂xᵢ · max(1, |xᵢ|)`` at once.
        """
        scales = {name: np.maximum(1.0, np.abs(np.asarray(
            inputs[name]).reshape(-1)[indices].astype(np.float64)))
            for name, indices in targets}
        probes = []
        for sign in (1.0, -1.0):
            probe = dict(inputs)
            for name, indices in targets:
                array = np.array(inputs[name], copy=True)
                array.reshape(-1)[indices] += sign * self.FD_STEP * \
                    scales[name]
                probe[name] = array
            probes.append(runner(probe))
        outs_plus, outs_minus = probes
        mismatches = []
        for out in float_outputs:
            if out not in outs_plus or out not in outs_minus:
                continue
            hi = float(np.sum(np.asarray(outs_plus[out], dtype=np.float64)))
            lo = float(np.sum(np.asarray(outs_minus[out], dtype=np.float64)))
            if not (np.isfinite(hi) and np.isfinite(lo)):
                continue  # perturbation left the smooth domain
            numeric = (hi - lo) / (2.0 * self.FD_STEP)
            exact = sum(float(np.dot(
                np.asarray(analytic[out][name]).reshape(-1)[indices],
                scales[name])) for name, indices in targets
                if name in analytic[out])
            error = abs(exact - numeric)
            scale = max(1.0, abs(exact), abs(numeric))
            if error > self.ATOL and error / scale > self.RTOL:
                mismatches.append(f"output {out!r}: analytic {exact:.4g}, "
                                  f"numeric {numeric:.4g}")
        if not mismatches:
            return CompilerVerdict(system, "ok", "", "", list(triggered))
        moved = ", ".join(f"{name}[{', '.join(map(str, indices))}]"
                          for name, indices in targets)
        return CompilerVerdict(system, "gradient", "backward",
                               f"wrong gradient along {moved}: "
                               + "; ".join(mismatches), list(triggered))


__all__ = [
    "BaseOracle",
    "CrashOnlyOracle",
    "DEFAULT_ORACLE",
    "GradientCheckOracle",
    "PerfRegressionOracle",
    "ShapeOnlyOracle",
    "build_oracle",
    "first_line",
    "register_oracle",
    "registered_oracles",
]
