"""Spans and counters around each layer's public entry point.

The tracer wraps functions and methods of the installed ``repro`` package
from outside: no file of the program is edited.  Every wrapped call records
a span (name, start, end, parent) in memory, plus counters taken at the same
boundary (solver nodes, rejected queries, value-search steps, failures,
verdicts).  :meth:`Tracer.summary` folds the spans into per-layer totals:

* ``s``      — inclusive seconds inside the layer's spans;
* ``self_s`` — ``s`` minus the time covered by child spans, so the
  interpreter time spent inside value search stays apart from the
  interpreter time spent inside the oracle;
* ``calls``  — number of spans.

Self times telescope: the self times of all spans under the iteration span,
plus the iteration span's own self time (``iteration.other_s``), add up to
``iteration.s`` exactly.

Two wrapping gotchas (see README.md):

* ``search_values``, ``export_model``, ``backpropagate`` and
  ``single_iteration_result`` are imported *by name* into their callers, so
  those bindings are patched as well as the defining module;
* ``import repro.core.concretize as m`` yields the ``concretize`` function
  (``repro.core`` re-exports it under the module's name), so modules are
  resolved with :func:`importlib.import_module`.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Compilers of the default factory, by registry name.
COMPILERS = ("graphrt", "deepc", "turbo")
#: Interpreter spans are split by the layer that called them.
INTERPRETER_PARENTS = ("value_search", "oracle", "other")
#: Verdict statuses an oracle can return.
VERDICT_STATUSES = ("ok", "crash", "semantic", "perf", "gradient", "verifier")


class Span:
    """One wrapped call."""

    __slots__ = ("name", "parent", "start", "end", "child_s", "failed")

    def __init__(self, name: str, parent: Optional["Span"]) -> None:
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0
        self.failed = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self._stack: List[Span] = []
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: The latest exception that escaped a span, and the deepest span it
        #: escaped from, so a drop is charged to the layer that raised it,
        #: not to every layer it crossed.  Only one is kept alive at a time.
        self._last_exc: Optional[BaseException] = None
        self._last_origin: Optional[str] = None
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    def parent_name(self) -> Optional[str]:
        return self._stack[-1].name if self._stack else None

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] += amount

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span.failed = True
            if exc is not self._last_exc:
                self._last_exc, self._last_origin = exc, name
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += span.end - span.start

    def origin(self, exc: BaseException) -> Optional[str]:
        """The deepest span ``exc`` escaped from (None if it escaped none)."""
        return self._last_origin if exc is self._last_exc else None

    # ------------------------------------------------------------------ #
    def patch(self, owner: Any, attr: str, wrapper_factory) -> None:
        """Replace ``owner.attr`` by ``wrapper_factory(original)``."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper_factory(original)))

    def rebind(self, owner: Any, attr: str, replacement: Any) -> None:
        """Point a by-name import binding at an already wrapped function."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, float]:
        """Per-layer totals: ``<name>.s``, ``.self_s``, ``.calls``,
        ``.failures``, interpreter split by parent, plus the counters."""
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            duration = span.duration
            out[f"{span.name}.s"] += duration
            out[f"{span.name}.self_s"] += duration - span.child_s
            out[f"{span.name}.calls"] += 1
            if span.failed:
                out[f"{span.name}.failures"] += 1
            if span.name == "interpreter":
                parent = span.parent.name if span.parent is not None else None
                where = parent if parent in INTERPRETER_PARENTS else "other"
                out[f"interpreter.{where}.s"] += duration
                out[f"interpreter.{where}.calls"] += 1
        for key, value in self.counters.items():
            out[key] += value
        return dict(out)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's public entry point; returns the tracer."""
    _module = importlib.import_module
    solver = _module("repro.solver.solver")
    generator = _module("repro.core.generator")
    binning = _module("repro.core.binning")
    concretize = _module("repro.core.concretize")
    strategy = _module("repro.core.strategy")
    value_search = _module("repro.core.value_search")
    backprop = _module("repro.autodiff.backprop")
    autodiff = _module("repro.autodiff")
    interpreter = _module("repro.runtime.interpreter")
    exporter = _module("repro.runtime.exporter")
    runtime = _module("repro.runtime")
    difftest = _module("repro.core.difftest")
    oracle = _module("repro.core.oracle")
    fuzzer = _module("repro.core.fuzzer")
    parallel = _module("repro.core.parallel")
    graphrt = _module("repro.compilers.graphrt.compiler")
    deepc = _module("repro.compilers.deepc.compiler")
    turbo = _module("repro.compilers.turbo.compiler")

    def plain(name):
        def factory(original):
            def wrapped(*args, **kwargs):
                return tracer.call(name, original, *args, **kwargs)
            return wrapped
        return factory

    def solver_factory(original):
        def wrapped(self, *args, **kwargs):
            kind = ("solver.bin" if tracer.parent_name() == "binning"
                    else "solver.insert")
            before = self.stats["nodes"]
            accepted = tracer.call(kind, original, self, *args, **kwargs)
            tracer.count(f"{kind}.nodes", self.stats["nodes"] - before)
            if not accepted:
                tracer.count(f"{kind}.rejected")
            return accepted
        return wrapped

    def search_factory(original):
        def wrapped(*args, **kwargs):
            result = tracer.call("value_search", original, *args, **kwargs)
            tracer.count("value_search.steps", result.iterations)
            if result.success:
                tracer.count("value_search.successes")
            return result
        return wrapped

    def oracle_factory(original):
        def wrapped(*args, **kwargs):
            try:
                case = tracer.call("oracle", original, *args, **kwargs)
            except BaseException as exc:
                origin = tracer.origin(exc)
                reason = "exporter" if origin == "exporter" else "oracle"
                tracer.count(f"funnel.drop.{reason}")
                raise
            for verdict in case.verdicts:
                tracer.count(f"funnel.verdicts.{verdict.status}")
            return case
        return wrapped

    def generate_factory(original):
        def wrapped(*args, **kwargs):
            try:
                return tracer.call("generate", original, *args, **kwargs)
            except BaseException:
                tracer.count("funnel.drop.generation")
                raise
        return wrapped

    tracer.patch(solver.Solver, "try_add_constraints", solver_factory)
    tracer.patch(generator.GraphGenerator, "generate_symbolic",
                 plain("generator"))
    tracer.patch(binning, "apply_attribute_binning", plain("binning"))
    tracer.patch(concretize, "concretize", plain("concretize"))
    for cls in (strategy.NNSmithStrategy, strategy.GraphFuzzerStrategy):
        tracer.patch(cls, "generate", generate_factory)

    tracer.patch(value_search, "search_values", search_factory)
    tracer.rebind(fuzzer, "search_values", value_search.search_values)
    tracer.patch(backprop, "backpropagate", plain("autodiff"))
    tracer.rebind(autodiff, "backpropagate", backprop.backpropagate)
    tracer.rebind(value_search, "backpropagate", backprop.backpropagate)
    tracer.patch(interpreter.Interpreter, "run_detailed", plain("interpreter"))

    tracer.patch(exporter, "export_model", plain("exporter"))
    tracer.rebind(runtime, "export_model", exporter.export_model)
    tracer.rebind(difftest, "export_model", exporter.export_model)
    tracer.patch(difftest.DifferentialTester, "run_case", oracle_factory)
    tracer.patch(oracle.BaseOracle, "run_case", oracle_factory)

    for compiler_cls, executable_cls in (
            (graphrt.GraphRTCompiler, graphrt.GraphRTExecutable),
            (deepc.DeepCCompiler, deepc.DeepCExecutable),
            (turbo.TurboCompiler, turbo.TurboEngine)):
        name = compiler_cls.name
        tracer.patch(compiler_cls, "compile_model", plain(f"compile.{name}"))
        tracer.patch(executable_cls, "run", plain(f"execute.{name}"))

    tracer.patch(fuzzer, "single_iteration_result", plain("iteration"))
    tracer.rebind(parallel, "single_iteration_result",
                  fuzzer.single_iteration_result)
    return tracer
