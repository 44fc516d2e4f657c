"""Differential testing of compiled models against the reference oracle.

Follows §4 of the paper:

* the reference interpreter (the "PyTorch" of the repo) runs the *original*
  generated model and its results are the oracle;
* each compiler under test imports the *exported* model, compiles it and runs
  it on the same inputs;
* a crash anywhere in conversion/compilation/execution is a **crash bug**;
* an output mismatch beyond a generous floating-point tolerance is a
  candidate **semantic bug**.  For fault localization the model is then
  re-compiled at O0: if the unoptimized build agrees with the oracle, the
  mismatch is attributed to the optimizer (transformation phase).

The crash classification and bug attribution are :func:`judge_compilers`,
the judging step every oracle of :mod:`repro.core.oracle` shares.  It judges
through a :class:`JudgingMemo`, which exports a case once, builds it once
per compiler configuration and runs each build once on the case's inputs.
The oracle cells of one campaign iteration judge the very same case
objects, made once for all of them, and share its memo (:func:`sharing`).
"""

from __future__ import annotations

import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.compilers.base import CompiledModel, CompileOptions, Compiler
from repro.compilers.bugs import BugConfig
from repro.errors import (CompilerError, ConversionError,
                          IRVerificationError, ReproError)
from repro.graph.model import Model
from repro.ops.semantics import counting_kernel_calls
from repro.runtime.exporter import ExportReport, export_model
from repro.runtime.interpreter import Interpreter, random_inputs

#: Output comparison tolerances.  The paper deliberately uses a high error
#: tolerance to avoid false alarms from valid floating-point reassociation.
RELATIVE_TOLERANCE = 1e-2
ABSOLUTE_TOLERANCE = 1e-3


def first_line(message: str, limit: int = 160) -> str:
    """First line of a (possibly empty) message, truncated to ``limit``.

    Crash messages are deduplicated by their first line; some seeded bugs
    raise with an empty message, where ``message.splitlines()[0]`` would
    raise ``IndexError``.
    """
    lines = message.splitlines()
    return lines[0][:limit] if lines else ""


def compare_outputs(reference: Mapping[str, np.ndarray],
                    candidate: Mapping[str, np.ndarray],
                    rtol: float = RELATIVE_TOLERANCE,
                    atol: float = ABSOLUTE_TOLERANCE) -> Optional[str]:
    """Return a mismatch description, or None when the outputs agree."""
    for name, expected in reference.items():
        if name not in candidate:
            return f"output {name!r} missing from compiled results"
        actual = candidate[name]
        expected = np.asarray(expected)
        actual = np.asarray(actual)
        if tuple(expected.shape) != tuple(actual.shape):
            return (f"output {name!r} shape mismatch: "
                    f"{expected.shape} vs {actual.shape}")
        if expected.dtype.kind == "f" or actual.dtype.kind == "f":
            close = np.allclose(expected.astype(np.float64),
                                actual.astype(np.float64),
                                rtol=rtol, atol=atol, equal_nan=True)
        else:
            close = np.array_equal(expected, actual)
        if not close:
            diff = _max_difference(expected, actual)
            return f"output {name!r} value mismatch (max difference {diff:g})"
    return None


def _max_difference(expected: np.ndarray, actual: np.ndarray) -> float:
    try:
        delta = np.abs(expected.astype(np.float64) - actual.astype(np.float64))
        return float(np.nanmax(delta))
    except (TypeError, ValueError):
        return float("nan")


def finding_key(finding) -> str:
    """Deduplication key of a verdict or report, mirroring "unique crashes
    by error message".

    Crashes key on the first line of their message and semantic mismatches
    on compiler/phase.  ``perf``/``gradient``/``verifier`` findings
    additionally key on the seeded bugs whose buggy path executed: their
    messages embed per-case details (ratios, max errors, node labels) that
    would explode the key, while compiler/phase alone would collapse
    *distinct* seeded bugs of one system into a single report.
    """
    if finding.status == "crash":
        return f"{finding.compiler}|crash|{first_line(finding.message)}"
    if finding.status in ("perf", "gradient", "verifier"):
        marks = "+".join(sorted(finding.triggered_bugs))
        return f"{finding.compiler}|{finding.status}|{finding.phase}|{marks}"
    return f"{finding.compiler}|{finding.status}|{finding.phase}"


@dataclass
class CompilerVerdict:
    """Differential-testing outcome for one compiler on one test case."""

    compiler: str
    status: str                      # "ok" | "crash" | "semantic" | "perf" | "gradient" | "verifier"
    phase: str = ""                  # "conversion" | "transformation" | "execution" | "backward" | ""
    message: str = ""
    #: Ground-truth seeded bugs whose buggy path executed (compile + export).
    triggered_bugs: List[str] = field(default_factory=list)
    #: Pass provenance: the passes that rewrote the IR during compilation
    #: (empty when compilation itself crashed before finishing).
    modified_by: List[str] = field(default_factory=list)
    #: Per-node perf attribution: for ``perf`` findings, the nodes whose
    #: kernel calls exceed the O0 build's most, as ``{"node", "op",
    #: "share"}`` dicts (share of the excess calls).  Provenance only —
    #: never part of the dedup key.
    slow_nodes: List[Dict[str, str]] = field(default_factory=list)

    @property
    def found_bug(self) -> bool:
        # Anything that is not a clean pass is a finding: crash, semantic
        # mismatch, performance regression ("perf") or wrong gradient
        # ("gradient").
        return self.status != "ok"

    def dedup_key(self) -> str:
        return finding_key(self)


@dataclass
class CaseResult:
    """Outcome of differential testing for one generated model.

    ``numerically_valid`` is tri-state: True/False when the validity of the
    tested values is actually known (derived by the oracle or established
    by a successful value search), ``None`` when it was never derived —
    oracles that do not run the reference interpreter (``crash``,
    ``shape``, ...) must not masquerade unknown validity as invalid.
    """

    model: Model
    numerically_valid: Optional[bool]
    verdicts: List[CompilerVerdict] = field(default_factory=list)
    exporter_bugs: List[str] = field(default_factory=list)

    @property
    def found_any_bug(self) -> bool:
        return any(verdict.found_bug for verdict in self.verdicts)


class DifferentialTester:
    """Runs one generated model through every compiler and compares outputs.

    This is the default *oracle* of the campaign engine: it satisfies the
    contract documented on :class:`repro.core.oracle.BaseOracle`
    (``name``, ``compilers``, ``evaluate``/``run_case``) and is registered
    there as ``"difftest"``.
    """

    #: Registry identifier (see :mod:`repro.core.oracle`).
    name = "difftest"

    def __init__(self, compilers: Sequence[Compiler],
                 bugs: Optional[BugConfig] = None,
                 rtol: float = RELATIVE_TOLERANCE,
                 atol: float = ABSOLUTE_TOLERANCE) -> None:
        self.compilers = list(compilers)
        self.bugs = bugs if bugs is not None else BugConfig.all()
        self.rtol = rtol
        self.atol = atol
        self._interpreter = Interpreter(record_intermediates=False)

    # ------------------------------------------------------------------ #
    def run_case(self, model: Model,
                 inputs: Optional[Dict[str, np.ndarray]] = None,
                 numerically_valid: Optional[bool] = None,
                 rng: Optional[np.random.Generator] = None) -> CaseResult:
        """Differentially test one model (weights are baked into the model).

        ``numerically_valid`` lets the caller forward an already-established
        validity verdict (e.g. from a successful value search over the same
        inputs/weights) instead of re-deriving it from the oracle run.
        ``rng`` seeds the random inputs drawn when ``inputs`` is None; the
        default is a fixed stream (for reproducible standalone calls), so
        callers wanting varied inputs must pass their own generator.
        """
        if inputs is None:
            rng = rng if rng is not None else np.random.default_rng(0)
            inputs = random_inputs(model, rng)

        oracle = self._interpreter.run_detailed(model, inputs)
        if numerically_valid is None:
            numerically_valid = oracle.numerically_valid
        memo = case_memo(model, inputs, self.bugs)

        def compare(compiler: Compiler, compiled: CompiledModel,
                    exported: Model) -> CompilerVerdict:
            outputs = memo.run(compiler).result()
            if not numerically_valid:
                # NaN/Inf reached some operator: results are not comparable
                # (§2.3, challenge #3) — never raise a semantic alarm here.
                return CompilerVerdict(compiler.name, "ok")
            mismatch = compare_outputs(oracle.outputs, outputs, self.rtol,
                                       self.atol)
            if mismatch is None:
                return CompilerVerdict(compiler.name, "ok")
            phase = self._localize_fault(memo, compiler, oracle.outputs)
            if getattr(compiler.options, "pipeline", None) is not None:
                mismatch += self._canonical_pipeline_note(memo, compiler,
                                                          oracle.outputs)
            return CompilerVerdict(compiler.name, "semantic", phase, mismatch)

        verdicts = judge_compilers(model, self.compilers, self.bugs, compare,
                                   memo=memo)
        return CaseResult(model=model,
                          numerically_valid=numerically_valid,
                          verdicts=verdicts,
                          exporter_bugs=list(memo.export()[1]))

    def evaluate(self, model: Model, inputs: Dict[str, np.ndarray],
                 numerically_valid: Optional[bool] = None
                 ) -> List[CompilerVerdict]:
        """Oracle-protocol view of :meth:`run_case`: just the verdicts."""
        return self.run_case(model, inputs=inputs,
                             numerically_valid=numerically_valid).verdicts

    # ------------------------------------------------------------------ #
    def _localize_fault(self, memo: JudgingMemo, compiler: Compiler,
                        oracle_outputs: Dict[str, np.ndarray]) -> str:
        """Recompile at O0: if it agrees with the oracle the optimizer is wrong."""
        try:
            outputs = memo.run(memo.reference(compiler, 0)).result()
        except ReproError:
            return "conversion"
        if compare_outputs(oracle_outputs, outputs, self.rtol, self.atol) is None:
            return "transformation"
        return "conversion"

    def _canonical_pipeline_note(self, memo: JudgingMemo, compiler: Compiler,
                                 oracle_outputs: Dict[str, np.ndarray]) -> str:
        """Equivalence-modulo-passes, second reference point.

        A compiler carrying an explicit (sampled) pipeline spec is judged
        against O0 by :meth:`_localize_fault` *and* against the canonical
        pipeline of its opt level here: if the canonical build agrees with
        the oracle, the mismatch depends on the pass sequence itself.  The
        note lands in the (semantic) message, which is not part of the
        dedup key.
        """
        token = compiler.options.pipeline.name
        canonical = memo.reference(compiler, compiler.options.opt_level)
        try:
            outputs = memo.run(canonical).result()
        except ReproError as exc:
            return (f" [pipeline {token}: canonical pipeline also fails: "
                    f"{first_line(str(exc))}]")
        if compare_outputs(oracle_outputs, outputs, self.rtol, self.atol) is None:
            return (f" [pipeline {token}: canonical pipeline agrees with the "
                    f"oracle — pass-sequence-dependent miscompilation]")
        return f" [pipeline {token}: canonical pipeline disagrees too]"


@dataclass
class CaseRun:
    """One build's run on a case's inputs: its outputs, or the
    :class:`~repro.errors.ReproError` it raised, and the kernel calls it
    made (:func:`~repro.ops.semantics.counting_kernel_calls`)."""

    outputs: Optional[Dict[str, np.ndarray]] = None
    error: Optional[ReproError] = None
    kernel_calls: Counter = field(default_factory=Counter)

    def result(self) -> Dict[str, np.ndarray]:
        """The outputs; raises the run's error again if it failed."""
        if self.error is not None:
            raise self.error
        return self.outputs


class JudgingMemo:
    """The judging work of one case, done once for every oracle judging it.

    It holds the exported model and its exporter bugs; every build, keyed
    by compiler, opt level, pipeline, ``verify_passes`` and bugs, or the
    :class:`~repro.errors.ReproError` its compile raised; and each build's
    one run on the case's ``inputs`` (:class:`CaseRun`).  Builds and runs
    are made on first request, so an oracle pays only for what it reads.

    A memo serves another oracle only for the same model and input
    objects (:meth:`holds`): the cells of an oracle group judge the one
    case their group made this iteration (:func:`searched_case`), so they
    share its memo, while an equal copy gets a memo of its own.  Oracles
    read the case and the outputs and must not change them.
    """

    def __init__(self, model: Model,
                 inputs: Optional[Mapping[str, np.ndarray]],
                 bugs: BugConfig) -> None:
        self.model = model
        #: None for a memo made by a caller that named no inputs; it then
        #: exports and builds, but runs nothing.
        self.inputs = inputs
        self.bugs = bugs
        self._export: Optional[Tuple[Model, List[str]]] = None
        self._builds: Dict[Tuple, Any] = {}
        self._runs: Dict[Tuple, CaseRun] = {}

    def holds(self, model: Model, inputs: Optional[Mapping[str, np.ndarray]],
              bugs: BugConfig) -> bool:
        """Whether this memo judges the case ``(model, inputs)`` under
        ``bugs``: the same objects (``inputs=None`` names the model alone)
        and the same enabled bugs."""
        return (model is self.model and
                (inputs is None or inputs is self.inputs) and
                bugs.enabled_ids() == self.bugs.enabled_ids())

    def export(self) -> Tuple[Model, List[str]]:
        """The exported model and the seeded exporter bugs it triggered."""
        if self._export is None:
            report = ExportReport()
            # Looked up as this module's global at call time: the benchmark
            # harness rebinds it to time the exporter.
            exported = export_model(self.model, bugs=self.bugs, report=report)
            self._export = exported, list(report.triggered_bugs)
        return self._export

    def build(self, compiler: Compiler) -> CompiledModel:
        """``compiler``'s build of the exported model; raises its compile
        error again on every call."""
        key = _build_key(compiler)
        if key not in self._builds:
            try:
                self._builds[key] = compiler.compile_model(self.export()[0])
            except ReproError as exc:
                self._builds[key] = exc
        built = self._builds[key]
        if isinstance(built, ReproError):
            raise built
        return built

    def run(self, compiler: Compiler) -> CaseRun:
        """The run of ``compiler``'s build on the case's inputs; raises the
        build's compile error."""
        key = _build_key(compiler)
        run = self._runs.get(key)
        if run is None:
            compiled = self.build(compiler)
            run = self._runs[key] = CaseRun()
            with counting_kernel_calls() as run.kernel_calls:
                try:
                    run.outputs = compiled.run(self.inputs)
                except ReproError as exc:
                    run.error = exc
        return run

    def reference(self, compiler: Compiler, opt_level: int) -> Compiler:
        """``compiler``'s system at ``opt_level``, with that level's
        canonical pipeline and no pass verification: the build that
        localizes a fault (O0) or checks a sampled pipeline."""
        return type(compiler)(CompileOptions(opt_level=opt_level,
                                             bugs=self.bugs))


#: A case ready to judge: the model, its inputs and its numeric validity
#: (None when unknown).
Case = Tuple[Model, Dict[str, np.ndarray], Optional[bool]]


class SharedJudging:
    """What the oracle cells of one campaign iteration share (see
    :func:`sharing`): the case made from the generated model, with its
    inputs and validity (:func:`searched_case`), and the memo of the case
    judged last."""

    def __init__(self) -> None:
        self.generated: Any = None
        self.case: Optional[Case] = None
        self.memo: Optional[JudgingMemo] = None


#: The :class:`SharedJudging` of the iteration being judged, or None.  An
#: oracle's ``run_case(model, inputs, ...)`` carries no memo, so the engine
#: hands the iteration's to the oracles through :func:`sharing`.
_shared: Optional[SharedJudging] = None


@contextmanager
def sharing(shared: Optional[SharedJudging]) -> Iterator[None]:
    """Judge the block's cases through ``shared`` (None shares nothing).

    The campaign engine opens one :class:`SharedJudging` per iteration of
    an oracle group and runs each of the group's cells inside this block
    (:func:`repro.core.parallel.lease_frames`).
    """
    global _shared
    previous, _shared = _shared, shared
    try:
        yield
    finally:
        _shared = previous


def searched_case(generated: Any,
                  search: Callable[[], Optional[Case]]) -> Optional[Case]:
    """The case ``(model, inputs, numerically_valid)`` that ``search()``
    makes from the generated model ``generated`` (None: no case to judge).

    Inside :func:`sharing`, ``search`` runs once per generated model and
    every later call for the same object returns the same case objects,
    so the oracles judging it share its memo; outside, it runs per call.
    """
    shared = _shared
    if shared is None:
        return search()
    if shared.generated is not generated:
        shared.generated, shared.case = generated, search()
    return shared.case


def case_memo(model: Model, inputs: Optional[Mapping[str, np.ndarray]],
              bugs: BugConfig) -> JudgingMemo:
    """The memo that judges ``(model, inputs)`` under ``bugs``.

    Inside :func:`sharing`, the shared memo when it holds these objects
    (:meth:`JudgingMemo.holds`), or else a fresh memo that is shared from
    then on; outside, a fresh memo per call.  ``inputs=None`` matches the
    model alone.
    """
    shared = _shared
    if shared is not None and shared.memo is not None and \
            shared.memo.holds(model, inputs, bugs):
        return shared.memo
    memo = JudgingMemo(model, inputs, bugs)
    if shared is not None:
        shared.memo = memo
    return memo


def _build_key(compiler: Compiler) -> Tuple:
    """What a build depends on; a compiler without options is its own key."""
    options = getattr(compiler, "options", None)
    if not isinstance(options, CompileOptions):
        return (id(compiler),)
    return (type(compiler), options.opt_level, options.pipeline,
            options.verify_passes, options.bugs.enabled_ids())


def judge_compilers(model: Model, compilers: Sequence[Compiler],
                    bugs: BugConfig,
                    check: Callable[[Compiler, CompiledModel, Model],
                                    CompilerVerdict],
                    *, memo: Optional[JudgingMemo] = None
                    ) -> List[CompilerVerdict]:
    """The judging step every oracle shares: export, compile, run, attribute.

    ``model`` is exported and every compiler builds the exported model,
    both through ``memo`` (default: :func:`case_memo` of the model alone,
    so an oracle judging the model object another oracle of its campaign
    iteration judged reuses that export and those builds).  A compile
    failure is the verdict: :class:`~repro.errors.IRVerificationError` is
    ``verifier``, :class:`~repro.errors.ConversionError` a ``conversion``
    crash and any other :class:`~repro.errors.CompilerError` a
    ``transformation`` crash.  Otherwise ``check(compiler, compiled,
    exported)`` runs the executable and returns the oracle's verdict; a
    :class:`~repro.errors.ReproError` it raises is an ``execution`` crash.
    Every verdict then lists the seeded bugs the compile recorded (after
    any the check listed) and the exporter's, and the passes that modified
    the IR.
    """
    memo = memo if memo is not None else case_memo(model, None, bugs)
    exported, exporter_bugs = memo.export()
    verdicts = []
    for compiler in compilers:
        try:
            compiled = memo.build(compiler)
        except IRVerificationError as exc:
            # The pass-boundary verifier refused an executing-but-ill-formed
            # IR: a dedicated symptom, not a crash (the compiler would have
            # carried on happily without --verify-passes).
            verdict = CompilerVerdict(compiler.name, "verifier",
                                      "transformation", str(exc),
                                      _bugs_from_error(exc))
        except ConversionError as exc:
            verdict = CompilerVerdict(compiler.name, "crash", "conversion",
                                      str(exc), _bugs_from_error(exc))
        except CompilerError as exc:
            verdict = CompilerVerdict(compiler.name, "crash", "transformation",
                                      str(exc), _bugs_from_error(exc))
        else:
            triggered = list(getattr(compiled, "triggered_bugs", []))
            modified = list(getattr(compiled, "modified_by", []))
            try:
                verdict = check(compiler, compiled, exported)
            except ReproError as exc:
                verdict = CompilerVerdict(compiler.name, "crash", "execution",
                                          str(exc),
                                          triggered + _bugs_from_error(exc),
                                          modified)
            else:
                verdict.triggered_bugs.extend(
                    bug for bug in triggered
                    if bug not in verdict.triggered_bugs)
                verdict.modified_by = modified
        verdict.triggered_bugs.extend(
            bug for bug in exporter_bugs if bug not in verdict.triggered_bugs)
        verdicts.append(verdict)
    return verdicts


def _bugs_from_error(exc: Exception) -> List[str]:
    """Extract seeded-bug identifiers embedded in crash messages."""
    return re.findall(
        r"\[((?:graphrt|deepc|turbo|exporter|autodiff)-[a-z0-9-]+)\]",
        str(exc))
