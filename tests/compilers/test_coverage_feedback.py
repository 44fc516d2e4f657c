"""Tests for the coverage feedback primitives and tracer/denominator fixes.

Covers the delta-oriented worker channel (:class:`CoverageFeedback`, arc
string codecs), the regression for nested/interleaved tracer start/stop
(previously silent no-ops that could disable a foreign tracer), and the
``estimate_total_arcs`` denominator fix (docstring and continuation lines
no longer count as executable).
"""

import sys

import pytest

from repro.compilers import CompileOptions, GraphRTCompiler
from repro.compilers.bugs import BugConfig
from repro.compilers.coverage import (
    CoverageFeedback,
    CoverageTracer,
    arc_from_str,
    arc_to_str,
    estimate_total_arcs,
    executable_line_count,
    is_pass_arc,
)

#: Fixture source with 3-line module docstring, function docstring, a
#: continuation, a comment and a blank line.  The naive "non-blank,
#: non-comment" heuristic counts 10 lines; the interpreter can attribute
#: instructions to exactly 6 (the module docstring's implicit ``__doc__``
#: assignment on line 1, ``X = 1``, the ``def``, the two halves of the
#: parenthesized expression, and the ``return``).
FIXTURE_SOURCE = '''"""Module docstring
spanning
three lines."""

X = 1


def f(a,
      b):
    """Function docstring."""
    y = (a +
         b)
    # comment
    return y
'''


class TestExecutableLineCount:
    def test_fixture_denominator_is_pinned(self):
        assert executable_line_count(FIXTURE_SOURCE) == 6

    def test_naive_heuristic_would_overcount(self):
        naive = sum(1 for line in FIXTURE_SOURCE.splitlines()
                    if line.strip() and not line.strip().startswith("#"))
        assert naive == 10  # what the old heuristic reported
        assert executable_line_count(FIXTURE_SOURCE) < naive

    def test_syntax_errors_count_zero(self):
        assert executable_line_count("def broken(:\n") == 0

    def test_estimate_total_arcs_positive_and_ordered(self):
        total = estimate_total_arcs()
        pass_only = estimate_total_arcs(pass_only=True)
        assert total > pass_only > 0


class TestTracerNestingRegression:
    def test_nested_start_raises(self, mlp_model):
        tracer = CoverageTracer(systems=("graphrt",))
        with tracer:
            with pytest.raises(RuntimeError, match="nested"):
                tracer.start()
        # the failed nested start must not have killed the outer session
        assert tracer._active is False  # cleanly stopped by the with-block

    def test_interleaved_foreign_tracer_raises_on_stop(self):
        tracer = CoverageTracer(systems=("graphrt",))
        tracer.start()

        def foreign(frame, event, arg):  # pragma: no cover - never fires
            return None

        sys.settrace(foreign)
        try:
            with pytest.raises(RuntimeError, match="another trace function"):
                tracer.stop()
            # the foreign tracer was left in place, not clobbered
            assert sys.gettrace() is foreign
        finally:
            sys.settrace(None)

    def test_stop_when_inactive_is_a_noop(self):
        tracer = CoverageTracer(systems=("graphrt",))
        tracer.stop()  # never started: nothing to restore, no error
        assert tracer._active is False

    def test_sequential_reuse_still_works(self, mlp_model):
        tracer = CoverageTracer(systems=("graphrt",))
        compiler = GraphRTCompiler(CompileOptions(bugs=BugConfig.none()))
        with tracer:
            compiler.compile_model(mlp_model)
        first = tracer.count()
        with tracer:
            compiler.compile_model(mlp_model)
        assert tracer.count() >= first > 0


class TestArcCodec:
    def test_roundtrip(self):
        arc = ("graphrt/passes/fusion.py", 10, 12)
        assert arc_from_str(arc_to_str(arc)) == arc

    def test_pass_scope_from_encoded_arc(self):
        import os

        inside = arc_to_str((os.path.join("graphrt", "passes", "x.py"), 1, 2))
        outside = arc_to_str((os.path.join("graphrt", "compiler.py"), 1, 2))
        assert is_pass_arc(inside)
        assert not is_pass_arc(outside)


class TestCoverageFeedback:
    def test_flush_emits_only_new_arcs(self, mlp_model, conv_model):
        feedback = CoverageFeedback(systems=("graphrt",))
        compiler = GraphRTCompiler(CompileOptions(bugs=BugConfig.none()))
        with feedback.tracer:
            compiler.compile_model(mlp_model)
        first = feedback.flush()
        assert len(first) > 0
        # same work again: everything already seen, delta is empty
        with feedback.tracer:
            compiler.compile_model(mlp_model)
        assert len(feedback.flush()) == 0
        # different work: only the novelty ships
        with feedback.tracer:
            compiler.compile_model(conv_model)
        second = feedback.flush()
        assert set(second).isdisjoint(first)
