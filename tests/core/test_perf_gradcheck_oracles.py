"""Tests for the ``perf`` and ``gradcheck`` oracles.

The perf oracle judges counted kernel calls, not wall time, so its verdicts
are deterministic: a scripted fake compiler pins the threshold, the verdict
shape and the per-node slow-node attribution, and the seeded repack bug is
checked end to end on its exact call counts.  Gradcheck's finite-difference
probe is one run pair per system, checked through the reference
interpreter.  Also pins the ``BaseOracle.run_case`` satellite fixes: the
optional ``rng`` threads through to random-input generation and
``numerically_valid=None`` is preserved instead of being coerced to False.
"""

import re
from collections import Counter

import numpy as np
import pytest

from repro.compilers import CompileOptions, GraphRTCompiler
from repro.compilers.bugs import BugConfig
from repro.core.difftest import DifferentialTester
from repro.core.oracle import (
    BaseOracle,
    GradientCheckOracle,
    PerfRegressionOracle,
    _slow_nodes,
    build_oracle,
    registered_oracles,
)
from repro.graph.builder import GraphBuilder
from repro.graph.node import Node
from repro.ops import semantics


class _ScriptedCompiler:
    """Fake system whose executables call ``semantics.execute_node`` a
    scripted number of times per node: ``BASELINE`` for the O0 build,
    ``OPTIMIZED`` for any other (see :func:`_scripted`).  ``builds``
    records the opt level of every build, the oracle's O0 twin included."""

    name = "scripted"
    OPTIMIZED = {"n0": 1}
    BASELINE = {"n0": 1}

    def __init__(self, options=None):
        self.options = options or CompileOptions()

    def compile_model(self, model):
        self.builds.append(self.options.opt_level)
        script = self.OPTIMIZED if self.options.opt_level else self.BASELINE

        class _Compiled:
            triggered_bugs = []

            def run(self, inputs):
                for name, calls in script.items():
                    for _ in range(calls):
                        semantics.execute_node(Node("Relu", name, [], []),
                                               [np.zeros(1)])
                return {}

        return _Compiled()


def _scripted(optimized, baseline, opt_level=2):
    """A scripted system built at ``opt_level``; the oracle builds its O0
    twin through the class, so the scripts live on a fresh subclass."""
    class _Scripted(_ScriptedCompiler):
        OPTIMIZED, BASELINE = optimized, baseline
        builds = []

    return _Scripted(CompileOptions(opt_level=opt_level))


def _perf_verdict(system, model):
    oracle = PerfRegressionOracle([system], bugs=BugConfig.none())
    (verdict,) = oracle.run_case(model).verdicts
    return verdict


class TestPerfOracleDeterministic:
    def test_registered(self):
        assert "perf" in registered_oracles()
        oracle = build_oracle("perf", [], bugs=BugConfig.none())
        assert isinstance(oracle, PerfRegressionOracle)

    def test_regression_detected_with_counted_calls(self, mlp_model):
        system = _scripted({"n0": 10, "n1": 10}, {"n0": 1, "n1": 1})
        verdict = _perf_verdict(system, mlp_model)
        assert system.builds == [2, 0]
        assert verdict.status == "perf"
        assert verdict.phase == "transformation"
        assert verdict.message == (
            "optimized (O2) build makes 10.0x the kernel calls of O0 "
            "(20 vs 2; threshold 4.0x)")
        assert verdict.found_bug

    def test_no_regression_is_ok(self, mlp_model):
        verdict = _perf_verdict(
            _scripted({"n0": 2, "n1": 1}, {"n0": 1, "n1": 1}), mlp_model)
        assert verdict.status == "ok"
        assert verdict.slow_nodes == []

    def test_same_case_same_verdict(self, mlp_model):
        """Determinism: judging one case twice gives the same verdict and
        message — counted calls do not depend on machine load."""
        oracle = PerfRegressionOracle(
            [_scripted({"n0": 9}, {"n0": 2})], bugs=BugConfig.none())

        def run():
            (verdict,) = oracle.run_case(mlp_model).verdicts
            return (verdict.status, verdict.phase, verdict.message,
                    verdict.slow_nodes)

        first = run()
        assert first[0] == "perf"
        assert run() == first

    @pytest.mark.parametrize("optimized_calls,status",
                             [(8, "ok"), (9, "perf")])
    def test_threshold_is_exactly_four_times(self, mlp_model,
                                             optimized_calls, status):
        verdict = _perf_verdict(_scripted({"n0": optimized_calls},
                                          {"n0": 2}), mlp_model)
        assert verdict.status == status

    def test_o0_build_has_no_contrast(self, mlp_model):
        """An O0 cell is its own baseline: the oracle builds no O0 twin."""
        system = _scripted({"n0": 1}, {"n0": 100}, opt_level=0)
        verdict = _perf_verdict(system, mlp_model)
        assert verdict.status == "ok"
        assert system.builds == [0]


class TestPerfOracleEndToEnd:
    def test_seeded_repack_bug_detected(self, mlp_model):
        """The seeded MatMul repack bug makes the optimized GraphRT build
        recompute each product 256x: its two repacked Gemm nodes carry the
        whole excess of kernel calls over O0."""
        bugs = BugConfig.only("graphrt-matmul-repack-small")
        oracle = PerfRegressionOracle(
            [GraphRTCompiler(CompileOptions(opt_level=2, bugs=bugs))],
            bugs=bugs)
        (verdict,) = oracle.run_case(mlp_model).verdicts
        assert verdict.status == "perf"
        assert verdict.message == (
            "optimized (O2) build makes 128.5x the kernel calls of O0 "
            "(514 vs 4; threshold 4.0x)")
        assert "graphrt-matmul-repack-small" in verdict.triggered_bugs
        assert verdict.slow_nodes == [
            {"node": "gemm4", "op": "Gemm", "share": "50%"},
            {"node": "gemm10", "op": "Gemm", "share": "50%"},
        ]

    def test_clean_compiler_not_flagged(self, mlp_model):
        oracle = PerfRegressionOracle(
            [GraphRTCompiler(CompileOptions(opt_level=2,
                                            bugs=BugConfig.none()))],
            bugs=BugConfig.none())
        (verdict,) = oracle.run_case(mlp_model).verdicts
        assert verdict.status == "ok"

    def test_repack_tag_survives_gemm_fusion(self):
        """Regression: MatMulRepackSelection must run *after* GemmFusion —
        a MatMul+Add pair is rewritten into a fresh Gemm node, which used
        to shed the repack tag (trigger recorded, slowdown never
        executed)."""
        builder = GraphBuilder("mm_add")
        x = builder.input([3, 4])
        gen = np.random.default_rng(0)
        w = builder.weight(gen.normal(0, 0.4, size=(4, 5)).astype(np.float32))
        bias = builder.weight(np.zeros(5, dtype=np.float32))
        product = builder.op1("MatMul", [x, w])
        builder.output(builder.op1("Add", [product, bias]))
        model = builder.build()

        bugs = BugConfig.only("graphrt-matmul-repack-small")
        compiled = GraphRTCompiler(
            CompileOptions(opt_level=2, bugs=bugs)).compile_model(model)
        assert "graphrt-matmul-repack-small" in compiled.triggered_bugs
        assert any(node.attrs.get("_graphrt_repack_blocks")
                   for node in compiled.model.nodes), \
            "repack tag lost to a later rewriting pass"
        oracle = PerfRegressionOracle(
            [GraphRTCompiler(CompileOptions(opt_level=2, bugs=bugs))],
            bugs=bugs)
        (verdict,) = oracle.run_case(model).verdicts
        assert verdict.status == "perf"

    def test_distinct_seeded_bugs_get_distinct_report_keys(self):
        """Regression: perf/gradient findings dedup by triggered seeded
        bugs, not compiler/phase alone — two wrong-VJP bugs in one system
        must not collapse into a single report."""
        from repro.core.difftest import CompilerVerdict

        tanh = CompilerVerdict("autodiff", "gradient", "backward",
                               "wrong gradient: ...",
                               ["autodiff-tanh-grad-linear"])
        sigmoid = CompilerVerdict("autodiff", "gradient", "backward",
                                  "wrong gradient: ...",
                                  ["autodiff-sigmoid-grad-unscaled"])
        assert tanh.dedup_key() != sigmoid.dedup_key()

    def test_repack_bug_invisible_to_difftest(self, mlp_model):
        """The pessimization is results-preserving: differential testing
        sees identical outputs and reports nothing."""
        bugs = BugConfig.only("graphrt-matmul-repack-small")
        tester = DifferentialTester(
            [GraphRTCompiler(CompileOptions(opt_level=2, bugs=bugs))],
            bugs=bugs)
        case = tester.run_case(mlp_model)
        assert all(v.status == "ok" for v in case.verdicts)
        # ... though the trigger itself is recorded at compile time
        assert any("graphrt-matmul-repack-small" in v.triggered_bugs
                   for v in case.verdicts)


class TestSlowNodeAttribution:
    def test_dominant_excess_node_is_named(self):
        slow = _slow_nodes(Counter({("n0", "Gemm"): 10, ("n1", "Relu"): 1}),
                           Counter({("n0", "Gemm"): 1, ("n1", "Relu"): 1}))
        assert slow == [{"node": "n0", "op": "Gemm", "share": "100%"}]

    def test_share_floor_truncates_the_tail(self):
        optimized = Counter({("n0", "MatMul"): 81, ("n1", "Add"): 16,
                             ("n2", "Relu"): 6})
        baseline = Counter({("n0", "MatMul"): 1, ("n1", "Add"): 1,
                            ("n2", "Relu"): 1})
        slow = _slow_nodes(optimized, baseline)
        assert slow == [{"node": "n0", "op": "MatMul", "share": "80%"}]

    def test_no_positive_excess_returns_nothing(self):
        same = Counter({("n0", "Gemm"): 2, ("n1", "Relu"): 1})
        assert _slow_nodes(same, Counter(same)) == []


def _tanh_model():
    builder = GraphBuilder("tanh")
    x = builder.input([2, 3])
    builder.output(builder.op1("Tanh", [x]))
    return builder.build()


def _sigmoid_model():
    builder = GraphBuilder("sigmoid")
    x = builder.input([2, 3])
    builder.output(builder.op1("Sigmoid", [x]))
    return builder.build()


class TestGradcheckOracle:
    def test_registered(self):
        assert "gradcheck" in registered_oracles()
        oracle = build_oracle("gradcheck", [], bugs=BugConfig.none())
        assert isinstance(oracle, GradientCheckOracle)

    def test_correct_gradients_pass(self, mlp_model):
        oracle = GradientCheckOracle(
            [GraphRTCompiler(CompileOptions(bugs=BugConfig.none()))],
            bugs=BugConfig.none())
        case = oracle.run_case(mlp_model)
        assert [v.status for v in case.verdicts] == ["ok", "ok"]
        assert case.verdicts[0].compiler == "autodiff"

    @pytest.mark.parametrize("bug_id,model_builder", [
        ("autodiff-tanh-grad-linear", _tanh_model),
        ("autodiff-sigmoid-grad-unscaled", _sigmoid_model),
    ])
    def test_seeded_wrong_vjp_detected(self, bug_id, model_builder):
        bugs = BugConfig.only(bug_id)
        oracle = GradientCheckOracle([], bugs=bugs)
        # Small activations keep the buggy and true derivatives far apart
        # (both bugs degenerate to the truth as the activation saturates).
        inputs = {"x1": np.full((2, 3), 0.5, dtype=np.float32)}
        model = model_builder()
        case = oracle.run_case(model, inputs=inputs)
        (verdict,) = case.verdicts
        assert verdict.compiler == "autodiff"
        assert verdict.status == "gradient"
        assert verdict.phase == "backward"
        assert bug_id in verdict.triggered_bugs
        # directional provenance: the elements the probe moved, then the
        # output with its analytic and numeric directional derivatives
        (out,) = model.outputs
        match = re.fullmatch(
            rf"wrong gradient along x1\[0, 2, 5\]: output '{out}': "
            r"analytic (\S+), numeric (\S+)", verdict.message)
        assert match, verdict.message
        analytic, numeric = (float(value) for value in match.groups())
        assert abs(analytic - numeric) > oracle.RTOL * max(
            1.0, abs(analytic), abs(numeric))

    def test_wrong_vjp_observed_through_backends_too(self):
        bugs = BugConfig.only("autodiff-tanh-grad-linear")
        oracle = GradientCheckOracle(
            [GraphRTCompiler(CompileOptions(bugs=bugs))], bugs=bugs)
        case = oracle.run_case(_tanh_model())
        statuses = {v.compiler: v.status for v in case.verdicts}
        assert statuses == {"autodiff": "gradient", "graphrt": "gradient"}

    def test_wrong_vjp_invisible_to_difftest(self):
        bugs = BugConfig.only("autodiff-tanh-grad-linear")
        tester = DifferentialTester(
            [GraphRTCompiler(CompileOptions(bugs=bugs))], bugs=bugs)
        case = tester.run_case(_tanh_model())
        assert all(v.status == "ok" for v in case.verdicts)
        assert all(not v.triggered_bugs for v in case.verdicts)

    def test_numerically_invalid_case_skipped(self):
        builder = GraphBuilder("invalid")
        x = builder.input([2, 2])
        builder.output(builder.op1("Tanh", [x]))
        model = builder.build()
        oracle = GradientCheckOracle(
            [], bugs=BugConfig.only("autodiff-tanh-grad-linear"))
        case = oracle.run_case(model, numerically_valid=False)
        assert all(v.status == "ok" for v in case.verdicts)

    def test_integer_only_model_skipped(self):
        from repro.dtypes import DType

        builder = GraphBuilder("ints")
        x = builder.input([2, 2], DType.int32)
        builder.output(builder.op1("Abs", [x]))
        oracle = GradientCheckOracle([], bugs=BugConfig.all())
        case = oracle.run_case(builder.build())
        assert all(v.status == "ok" for v in case.verdicts)

    def test_value_search_backprop_unaffected_by_seeded_bugs(self):
        """The buggy VJPs activate only for callers passing a BugConfig;
        gradient-guided value search must keep its exact streams."""
        from repro.autodiff.backprop import backpropagate
        from repro.runtime.interpreter import Interpreter

        model = _tanh_model()
        inputs = {"x1": np.full((2, 3), 0.5, dtype=np.float32)}
        run = Interpreter(record_intermediates=True).run_detailed(model,
                                                                  inputs)
        seed = {model.outputs[0]: np.ones((2, 3))}
        plain = backpropagate(model, run.values, seed)
        with_all_bugs_registered = backpropagate(model, run.values, seed)
        np.testing.assert_array_equal(plain["x1"],
                                      with_all_bugs_registered["x1"])
        buggy = backpropagate(model, run.values, seed,
                              bugs=BugConfig.all(), triggered=[])
        assert not np.array_equal(plain["x1"], buggy["x1"])


def _spy_reference_runs(monkeypatch):
    """Record a copy of the inputs of every reference interpreter run."""
    from repro.runtime.interpreter import Interpreter

    seen = []
    original = Interpreter.run_detailed

    def spy(self, model, inputs):
        seen.append({name: np.array(value, copy=True)
                     for name, value in inputs.items()})
        return original(self, model, inputs)

    monkeypatch.setattr(Interpreter, "run_detailed", spy)
    return seen


class TestGradcheckProbes:
    """The finite-difference probe is one run pair per system: a run with
    every sampled element moved up, then a run with them all moved down,
    each by ``FD_STEP·max(1, |x|)``."""

    def test_sampled_elements_move_together_in_one_run_pair(self, mlp_model,
                                                            monkeypatch):
        from repro.runtime.interpreter import random_inputs

        inputs = random_inputs(mlp_model, np.random.default_rng(3))
        oracle = GradientCheckOracle([], bugs=BugConfig.none())
        targets = dict(oracle._sampled_targets(mlp_model, inputs))
        assert sum(len(indices) for indices in targets.values()) == 3
        seen = _spy_reference_runs(monkeypatch)
        (verdict,) = oracle.evaluate(mlp_model, inputs)
        assert verdict.status == "ok"
        probes = seen[1:]  # seen[0] is the recorded forward run
        assert len(probes) == 2
        for probe, sign in zip(probes, (1.0, -1.0)):
            for name, value in inputs.items():
                if name not in targets:
                    np.testing.assert_array_equal(probe[name], value)
                    continue
                base = np.asarray(value).reshape(-1)
                moved = probe[name].reshape(-1)
                indices = targets[name]
                assert list(np.flatnonzero(moved != base)) == indices
                expected = base[indices] + sign * oracle.FD_STEP * \
                    np.maximum(1.0, np.abs(base[indices].astype(np.float64)))
                np.testing.assert_array_equal(
                    moved[indices], expected.astype(base.dtype))

    def test_probes_leave_the_case_inputs_untouched(self, mlp_model):
        from repro.runtime.interpreter import random_inputs

        inputs = random_inputs(mlp_model, np.random.default_rng(4))
        frozen = {name: array.copy() for name, array in inputs.items()}
        GradientCheckOracle(
            [GraphRTCompiler(CompileOptions(bugs=BugConfig.none()))],
            bugs=BugConfig.none()).evaluate(mlp_model, inputs)
        for name, array in frozen.items():
            np.testing.assert_array_equal(inputs[name], array)

    @pytest.mark.parametrize("seed", [1, 2, 4, 7, 9, 12])
    def test_generated_model_verdicts_identical_with_reused_and_fresh_plans(
            self, seed, monkeypatch):
        # Every probe reruns the same model, so all but the first reference
        # run reuse the model's execution plan; a new plan per run must not
        # change a verdict.
        import dataclasses

        from repro.core.generator import GeneratorConfig, generate_model
        from repro.runtime import interpreter
        from repro.runtime.interpreter import random_inputs

        model = generate_model(GeneratorConfig(n_nodes=6, seed=seed)).model
        inputs = random_inputs(model, np.random.default_rng(seed))
        seen = _spy_reference_runs(monkeypatch)
        outcomes = []
        for fresh in (False, True):
            del seen[:]
            with monkeypatch.context() as patch:
                if fresh:
                    # run_detailed looks the plan up at call time.
                    patch.setattr(interpreter, "execution_plan",
                                  interpreter.build_execution_plan)
                oracle = GradientCheckOracle(
                    [GraphRTCompiler(CompileOptions(bugs=BugConfig.all()))],
                    bugs=BugConfig.all())
                verdicts = oracle.evaluate(model, inputs)
            outcomes.append(([dataclasses.astuple(v) for v in verdicts],
                             len(seen)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] > 1  # the reference was actually probed


class _EchoOracle(BaseOracle):
    """Minimal BaseOracle subclass recording what evaluate() received."""

    name = "echo"

    def evaluate(self, model, inputs, numerically_valid=None):
        self.seen_inputs = {name: np.array(value)
                            for name, value in inputs.items()}
        self.seen_validity = numerically_valid
        return []


class TestBaseOracleRunCase:
    """Regression tests for the run_case satellite fixes."""

    def test_rng_varies_random_inputs(self, mlp_model):
        oracle = _EchoOracle([], bugs=BugConfig.none())
        oracle.run_case(mlp_model, rng=np.random.default_rng(1))
        first = oracle.seen_inputs
        oracle.run_case(mlp_model, rng=np.random.default_rng(2))
        second = oracle.seen_inputs
        assert any(not np.array_equal(first[name], second[name])
                   for name in first)

    def test_default_rng_is_reproducible(self, mlp_model):
        oracle = _EchoOracle([], bugs=BugConfig.none())
        oracle.run_case(mlp_model)
        first = oracle.seen_inputs
        oracle.run_case(mlp_model)
        second = oracle.seen_inputs
        assert all(np.array_equal(first[name], second[name])
                   for name in first)

    def test_none_validity_preserved(self, mlp_model):
        """Unknown validity used to be coerced to False — recording every
        standalone case as numerically invalid."""
        oracle = _EchoOracle([], bugs=BugConfig.none())
        case = oracle.run_case(mlp_model)
        assert case.numerically_valid is None
        assert oracle.seen_validity is None

    def test_explicit_validity_forwarded(self, mlp_model):
        oracle = _EchoOracle([], bugs=BugConfig.none())
        assert oracle.run_case(mlp_model,
                               numerically_valid=True).numerically_valid \
            is True
        assert oracle.run_case(mlp_model,
                               numerically_valid=False).numerically_valid \
            is False

    def test_difftest_run_case_accepts_rng_too(self, mlp_model):
        bugs = BugConfig.none()
        tester = DifferentialTester(
            [GraphRTCompiler(CompileOptions(bugs=bugs))], bugs=bugs)
        case = tester.run_case(mlp_model, rng=np.random.default_rng(7))
        assert case.verdicts
