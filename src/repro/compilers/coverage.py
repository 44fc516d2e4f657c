"""Branch (line-arc) coverage tracing for the compilers under test.

The paper measures C++ source branch coverage of TVM and ONNXRuntime with
Clang instrumentation.  The analogous measurement for the in-repo compilers
is Python *arc* coverage — pairs of consecutive executed line numbers inside
the compiler packages — collected with ``sys.settrace``.  An arc corresponds
to one control-flow edge, which is the closest Python equivalent of a taken
branch.

Two scopes are supported, matching the paper's "all files" and "pass-only"
views:

* **all files** — every module under ``repro.compilers.<system>``;
* **pass-only** — only modules whose path contains a ``passes`` directory
  (``graphrt/passes/...``, ``deepc/passes/...``), mirroring the paper's
  instrumentation of ``onnxruntime/core/optimizer`` and TVM's ``transforms``
  folders.

Besides the tracer itself this module provides the **feedback channel**
the campaign engine uses on its workers: arcs have a compact string
encoding (:func:`arc_to_str`), and :class:`CoverageFeedback` keys each
iteration's arcs against a worker-local seen-set, so each iteration's
result carries only the arcs new to that worker's view of the cell, never
a full cumulative set.
"""

from __future__ import annotations

import os
import sys
from types import CodeType
from typing import (Dict, FrozenSet, Iterable, Optional, Sequence, Set,
                    Tuple)

Arc = Tuple[str, int, int]

_PACKAGE_ROOT = os.path.dirname(os.path.abspath(__file__))

#: Separator of the compact arc encoding.  Safe because it cannot occur in a
#: relative source path or a line number.
_ARC_SEP = "|"


def arc_to_str(arc: Arc) -> str:
    """Compact, picklable/JSON-friendly encoding of one arc."""
    return f"{arc[0]}{_ARC_SEP}{arc[1]}{_ARC_SEP}{arc[2]}"


def arc_from_str(encoded: str) -> Arc:
    """Inverse of :func:`arc_to_str`."""
    filename, start, end = encoded.rsplit(_ARC_SEP, 2)
    return (filename, int(start), int(end))


def is_pass_arc(encoded: str) -> bool:
    """Does an encoded arc belong to the pass-only scope?"""
    return is_pass_file(encoded.rsplit(_ARC_SEP, 2)[0])


class CoverageTracer:
    """Collects executed line arcs inside the compiler packages."""

    def __init__(self, systems: Optional[Iterable[str]] = None) -> None:
        self.systems = tuple(systems) if systems is not None else ("graphrt", "deepc")
        self._prefixes = tuple(
            os.path.join(_PACKAGE_ROOT, system) + os.sep for system in self.systems
        )
        self.arcs: Set[Arc] = set()
        self._previous_trace = None
        #: The exact trace function object installed by :meth:`start`
        #: (``self._trace_call`` creates a *fresh* bound method on every
        #: attribute access, so identity checks must use this).
        self._installed = None
        self._active = False

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Begin collecting coverage.

        Nested starts of the same tracer are a caller bug — the second
        ``stop`` would silently disable tracing halfway through the outer
        region — and raise instead of silently no-opping.
        """
        if self._active:
            raise RuntimeError(
                "CoverageTracer.start() while already tracing; nested "
                "starts are not supported (use a second tracer instance)")
        self._previous_trace = sys.gettrace()
        self._installed = self._trace_call
        sys.settrace(self._installed)
        self._active = True

    def stop(self) -> None:
        """Stop collecting coverage.

        Raises if another trace function was installed since :meth:`start`:
        blindly restoring ``_previous_trace`` would silently disable that
        other tracer, corrupting both measurements.
        """
        if not self._active:
            return
        current = sys.gettrace()
        if current is not self._installed:
            self._active = False
            self._installed = None
            raise RuntimeError(
                "another trace function was installed while this "
                "CoverageTracer was active; refusing to overwrite it")
        sys.settrace(self._previous_trace)
        self._previous_trace = None
        self._installed = None
        self._active = False

    def __enter__(self) -> "CoverageTracer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def reset(self) -> None:
        """Forget every collected arc."""
        self.arcs.clear()

    # ------------------------------------------------------------------ #
    def snapshot(self) -> FrozenSet[Arc]:
        """The set of arcs observed so far."""
        return frozenset(self.arcs)

    def count(self, pass_only: bool = False) -> int:
        """Number of distinct arcs (optionally restricted to pass files)."""
        if not pass_only:
            return len(self.arcs)
        return sum(1 for arc in self.arcs if is_pass_file(arc[0]))

    def arcs_by_scope(self, pass_only: bool = False) -> FrozenSet[Arc]:
        if not pass_only:
            return frozenset(self.arcs)
        return frozenset(arc for arc in self.arcs if is_pass_file(arc[0]))

    # ------------------------------------------------------------------ #
    def _relevant(self, filename: str) -> bool:
        return filename.startswith(_PACKAGE_ROOT) and \
            any(filename.startswith(prefix) for prefix in self._prefixes)

    def _trace_call(self, frame, event, arg):
        if event != "call":
            return None
        filename = frame.f_code.co_filename
        if not self._relevant(filename):
            return None
        short = _shorten(filename)
        previous_line = [frame.f_lineno]
        arcs = self.arcs

        def trace_line(inner_frame, inner_event, inner_arg):
            if inner_event == "line":
                arcs.add((short, previous_line[0], inner_frame.f_lineno))
                previous_line[0] = inner_frame.f_lineno
            return trace_line

        return trace_line


def _shorten(filename: str) -> str:
    """Store file names relative to the compilers package."""
    return os.path.relpath(filename, _PACKAGE_ROOT)


def is_pass_file(short_filename: str) -> bool:
    """Does this (shortened) file belong to the pass-only scope?"""
    parts = short_filename.split(os.sep)
    return "passes" in parts or "lowpasses" in parts


def executable_line_count(source: str, filename: str = "<coverage>") -> int:
    """Number of *executable* lines of a Python source text.

    Compiles the source and walks every code object's ``co_lines`` table,
    so the count is exactly the set of lines the interpreter can attribute
    instructions to — docstring bodies, continuation-only lines, comments
    and blanks are excluded.  (The previous heuristic counted every
    non-blank, non-``#`` line, which systematically inflated the coverage
    denominator with docstring and continuation lines.)
    """
    try:
        code = compile(source, filename, "exec")
    except SyntaxError:
        return 0
    lines: Set[int] = set()
    stack = [code]
    while stack:
        current = stack.pop()
        for const in current.co_consts:
            if isinstance(const, CodeType):
                stack.append(const)
        for _start, _end, line in current.co_lines():
            if line is not None and line > 0:
                lines.add(line)
    return len(lines)


def estimate_total_arcs(systems: Iterable[str] = ("graphrt", "deepc"),
                        pass_only: bool = False) -> int:
    """A static proxy for the coverage denominator ("total branches").

    Counts executable source lines (per :func:`executable_line_count`) of
    the instrumented modules; used only to report coverage percentages
    comparable in spirit to the paper's "11579/64854 = 17.9%" annotations.
    """
    total = 0
    for system in systems:
        root = os.path.join(_PACKAGE_ROOT, system)
        for dirpath, _dirnames, filenames in os.walk(root):
            for filename in filenames:
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                short = _shorten(path)
                if pass_only and not is_pass_file(short):
                    continue
                with open(path, "r", encoding="utf-8") as fh:
                    total += executable_line_count(fh.read(), path)
    return total


# --------------------------------------------------------------------------- #
# The worker-side feedback channel
# --------------------------------------------------------------------------- #
class CoverageFeedback:
    """Worker-local coverage channel for one matrix cell.

    Wraps a :class:`CoverageTracer` over the cell's compiler systems plus
    the seen-set that turns per-iteration snapshots into deltas: the engine
    runs each oracle call under :attr:`tracer` and calls :meth:`flush`
    after the iteration to obtain the arcs that are new *to this worker's
    view of the cell*.  They travel as the ``coverage_arcs`` of the
    iteration's result.  The coordinator re-deduplicates across workers (a
    requeued lease's worker starts with a fresh seen-set), so deltas may
    overlap between workers but never within one.
    """

    def __init__(self, systems: Sequence[str]) -> None:
        self.tracer = CoverageTracer(systems=tuple(systems))
        self._seen: Set[Arc] = set()

    def flush(self) -> Tuple[str, ...]:
        """Drain the tracer: the not-yet-reported arcs, encoded and sorted."""
        new = self.tracer.arcs - self._seen
        self._seen |= new
        self.tracer.reset()
        return tuple(sorted(arc_to_str(arc) for arc in new))


class CoverageTimeline:
    """Accumulates (elapsed seconds, iteration, total arcs) samples.

    Used by the coverage experiments to reproduce the coverage-over-time
    (Figure 4/6) and coverage-over-iterations (Figure 5) curves.
    """

    def __init__(self) -> None:
        self.samples: list = []

    def record(self, elapsed: float, iteration: int, total_arcs: int,
               pass_arcs: int) -> None:
        self.samples.append(
            {"elapsed": elapsed, "iteration": iteration,
             "total": total_arcs, "pass_only": pass_arcs})

    def final_total(self) -> int:
        return self.samples[-1]["total"] if self.samples else 0

    def final_pass_only(self) -> int:
        return self.samples[-1]["pass_only"] if self.samples else 0

    def as_series(self, key: str = "total") -> Dict[str, list]:
        return {
            "elapsed": [s["elapsed"] for s in self.samples],
            "iteration": [s["iteration"] for s in self.samples],
            key: [s[key] for s in self.samples],
        }
