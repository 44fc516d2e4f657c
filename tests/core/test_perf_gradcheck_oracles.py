"""Tests for the ``perf`` and ``gradcheck`` oracles.

The perf oracle's timing harness is driven by an injectable clock, so the
detection logic (calibration, thresholding, verdict shape) is tested fully
deterministically — CI never depends on real wall time except for the one
end-to-end check of the seeded repack bug, whose ~100x slowdown dwarfs any
plausible scheduler noise.  Per-node slow-node attribution is tested on
scripted profiles, and gradcheck's finite-difference probes run by run
through the reference interpreter.  Also pins the ``BaseOracle.run_case`` satellite
fixes: the optional ``rng`` threads through to random-input generation and
``numerically_valid=None`` is preserved instead of being coerced to False.
"""

import numpy as np
import pytest

from repro.compilers import CompileOptions, GraphRTCompiler
from repro.compilers.bugs import BugConfig
from repro.core.difftest import DifferentialTester
from repro.core.oracle import (
    BaseOracle,
    GradientCheckOracle,
    PerfRegressionOracle,
    attribute_slow_nodes,
    build_oracle,
    registered_oracles,
)
from repro.errors import CompilerError, ExecutionError
from repro.graph.builder import GraphBuilder


class FakeClock:
    """Scripted ``perf_counter`` replacement: returns the given instants."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


class _NoopCompiler:
    """Fake system whose executable does nothing; timing comes entirely
    from the injected fake clock."""

    name = "noop"

    def __init__(self, options=None):
        self.options = options or CompileOptions()

    def compile_model(self, model):
        class _Compiled:
            triggered_bugs = []

            def run(self, inputs):
                return {}

        return _Compiled()

    def supported_ops(self, candidate_ops):
        return list(candidate_ops)


class _CrashingCompiler(_NoopCompiler):
    name = "boom"

    def compile_model(self, model):
        raise CompilerError("kaboom in a pass")


def _ms(*milliseconds):
    return [value / 1000.0 for value in milliseconds]


class TestPerfOracleDeterministic:
    def test_registered(self):
        assert "perf" in registered_oracles()
        oracle = build_oracle("perf", [], bugs=BugConfig.none())
        assert isinstance(oracle, PerfRegressionOracle)

    def test_regression_detected_with_fake_clock(self, mlp_model):
        # repeats=1/warmup=0 with explicit threshold: exactly two timed
        # runs — optimized [0, 10ms], baseline [10ms, 11ms].
        oracle = PerfRegressionOracle(
            [_NoopCompiler(CompileOptions(opt_level=2))],
            bugs=BugConfig.none(),
            timer=FakeClock(_ms(0, 10, 10, 11)),
            repeats=1, warmup=0, threshold=2.0)
        (verdict,) = oracle.run_case(mlp_model).verdicts
        assert verdict.status == "perf"
        assert verdict.phase == "transformation"
        assert "10.0x slower" in verdict.message
        assert verdict.found_bug

    def test_no_regression_is_ok(self, mlp_model):
        oracle = PerfRegressionOracle(
            [_NoopCompiler(CompileOptions(opt_level=2))],
            bugs=BugConfig.none(),
            timer=FakeClock(_ms(0, 1, 1, 2)),
            repeats=1, warmup=0, threshold=2.0)
        (verdict,) = oracle.run_case(mlp_model).verdicts
        assert verdict.status == "ok"

    def test_same_clock_same_verdict(self, mlp_model):
        """Determinism: identical scripted clocks produce identical
        verdicts — the fake clock removes every timing dependency."""
        def run():
            oracle = PerfRegressionOracle(
                [_NoopCompiler(CompileOptions(opt_level=2))],
                bugs=BugConfig.none(),
                timer=FakeClock(_ms(0, 10, 10, 11)),
                repeats=1, warmup=0, threshold=2.0)
            (verdict,) = oracle.run_case(mlp_model).verdicts
            return (verdict.status, verdict.phase, verdict.message)

        assert run() == run()

    def test_noisy_calibration_widens_threshold(self, mlp_model):
        # Calibration measures the baseline twice: 1ms then 2ms -> noise
        # 2.0 -> threshold 1 + 4*(2-1) = 5.0.  The 4.5x "regression"
        # afterwards stays under it.
        oracle = PerfRegressionOracle(
            [_NoopCompiler(CompileOptions(opt_level=2))],
            bugs=BugConfig.none(),
            timer=FakeClock(_ms(0, 1, 1, 3, 3, 7.5, 7.5, 8.5)),
            repeats=1, warmup=0)
        (verdict,) = oracle.run_case(mlp_model).verdicts
        assert verdict.status == "ok"
        assert oracle._threshold == pytest.approx(5.0)

    def test_quiet_calibration_keeps_floor(self, mlp_model):
        # Calibration 1ms/1ms -> noise 1.0 -> threshold floor 4.0; the same
        # 4.5x slowdown is now over it.
        oracle = PerfRegressionOracle(
            [_NoopCompiler(CompileOptions(opt_level=2))],
            bugs=BugConfig.none(),
            timer=FakeClock(_ms(0, 1, 1, 2, 2, 6.5, 6.5, 7.5)),
            repeats=1, warmup=0)
        (verdict,) = oracle.run_case(mlp_model).verdicts
        assert verdict.status == "perf"
        assert oracle._threshold == pytest.approx(4.0)

    def test_o0_build_has_no_contrast(self, mlp_model):
        oracle = PerfRegressionOracle(
            [_NoopCompiler(CompileOptions(opt_level=0))],
            bugs=BugConfig.none(), timer=FakeClock([]),
            repeats=1, warmup=0, threshold=2.0)
        (verdict,) = oracle.run_case(mlp_model).verdicts
        assert verdict.status == "ok"

    def test_crash_reported_like_difftest(self, mlp_model):
        oracle = PerfRegressionOracle([_CrashingCompiler()],
                                      bugs=BugConfig.none(),
                                      timer=FakeClock([]))
        (verdict,) = oracle.run_case(mlp_model).verdicts
        assert verdict.status == "crash"
        assert verdict.phase == "transformation"


class TestPerfOracleEndToEnd:
    def test_seeded_repack_bug_detected(self, mlp_model):
        """The seeded MatMul repack bug makes the optimized GraphRT build
        recompute each product 256x; with min-of-repeats timing the
        measured slowdown dwarfs the calibrated threshold."""
        bugs = BugConfig.only("graphrt-matmul-repack-small")
        oracle = PerfRegressionOracle(
            [GraphRTCompiler(CompileOptions(opt_level=2, bugs=bugs))],
            bugs=bugs)
        (verdict,) = oracle.run_case(mlp_model).verdicts
        assert verdict.status == "perf"
        assert "graphrt-matmul-repack-small" in verdict.triggered_bugs
        # Per-node attribution: the repacked Gemm/MatMul carries the
        # slowdown, and the provenance says so (node, op, excess share).
        assert verdict.slow_nodes
        assert verdict.slow_nodes[0]["op"] in ("Gemm", "MatMul")
        assert verdict.slow_nodes[0]["share"].endswith("%")

    def test_fake_compiled_executables_get_no_attribution(self, mlp_model):
        # Duck-typing contract: executables without a profile_nodes hook
        # (codegen backends, test doubles) yield empty slow_nodes and the
        # attribution consumes zero timer reads — the sentinel instant
        # stays unread, so scripted FakeClock tests never go out of sync.
        clock = FakeClock(_ms(0, 10, 10, 11, 99))
        oracle = PerfRegressionOracle(
            [_NoopCompiler(CompileOptions(opt_level=2))],
            bugs=BugConfig.none(), timer=clock,
            repeats=1, warmup=0, threshold=2.0)
        (verdict,) = oracle.run_case(mlp_model).verdicts
        assert verdict.status == "perf"
        assert verdict.slow_nodes == []
        assert clock.times == _ms(99)

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


class _FakeProfiled:
    """Executable double with a scripted ``profile_nodes`` hook; each call
    pops the next script (the last one repeats)."""

    def __init__(self, *scripts):
        self._scripts = list(scripts)

    def profile_nodes(self, inputs, timer):
        script = self._scripts[0]
        if len(self._scripts) > 1:
            self._scripts.pop(0)
        return list(script)


class TestSlowNodeAttribution:
    def test_dominant_excess_node_is_named(self):
        optimized = _FakeProfiled([("n0", "Gemm", 0.010),
                                   ("n1", "Relu", 0.001)])
        baseline = _FakeProfiled([("n0", "Gemm", 0.001),
                                  ("n1", "Relu", 0.001)])
        slow = attribute_slow_nodes(optimized, baseline, {}, repeats=1)
        assert slow == [{"node": "n0", "op": "Gemm", "share": "100%"}]

    def test_min_of_repeats_discards_noise_spikes(self):
        # First optimized sample is a 20x outlier; min-of-repeats keeps the
        # clean 2ms reading and the excess shrinks accordingly.
        optimized = _FakeProfiled([("n0", "Gemm", 0.040)],
                                  [("n0", "Gemm", 0.002)])
        baseline = _FakeProfiled([("n0", "Gemm", 0.001)])
        slow = attribute_slow_nodes(optimized, baseline, {}, repeats=2)
        assert slow == [{"node": "n0", "op": "Gemm", "share": "100%"}]

    def test_share_floor_truncates_the_tail(self):
        optimized = _FakeProfiled([("n0", "MatMul", 0.80),
                                   ("n1", "Add", 0.15),
                                   ("n2", "Relu", 0.05)])
        baseline = _FakeProfiled([("n0", "MatMul", 0.0),
                                  ("n1", "Add", 0.0),
                                  ("n2", "Relu", 0.0)])
        slow = attribute_slow_nodes(optimized, baseline, {}, repeats=1,
                                    share_floor=0.8)
        assert slow == [{"node": "n0", "op": "MatMul", "share": "80%"}]

    def test_no_positive_excess_returns_nothing(self):
        same = [("n0", "Gemm", 0.002), ("n1", "Relu", 0.001)]
        slow = attribute_slow_nodes(_FakeProfiled(same), _FakeProfiled(same),
                                    {}, repeats=1)
        assert slow == []

    def test_executables_without_hook_are_skipped(self):
        class _Plain:
            pass

        assert attribute_slow_nodes(_Plain(), _Plain(), {}) == []
        assert attribute_slow_nodes(_FakeProfiled([]), _Plain(), {}) == []

    def test_profiler_failure_is_swallowed(self):
        class _Broken:
            def profile_nodes(self, inputs, timer):
                raise ExecutionError("kernel exploded mid-profile")

        baseline = _FakeProfiled([("n0", "Gemm", 0.001)])
        assert attribute_slow_nodes(_Broken(), baseline, {}) == []


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
        case = oracle.run_case(model_builder(), inputs=inputs)
        (verdict,) = case.verdicts
        assert verdict.compiler == "autodiff"
        assert verdict.status == "gradient"
        assert verdict.phase == "backward"
        assert bug_id in verdict.triggered_bugs
        # per-output max-error provenance
        assert "max |analytic-numeric|" in verdict.message
        assert "analytic" in verdict.message and "numeric" in verdict.message

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
    """Finite-difference probes run one at a time through the reference
    interpreter: a +step run, then a -step run, per sampled element."""

    def test_each_sampled_element_gets_one_run_pair(self, mlp_model,
                                                    monkeypatch):
        from repro.runtime.interpreter import random_inputs

        inputs = random_inputs(mlp_model, np.random.default_rng(3))
        oracle = GradientCheckOracle([], bugs=BugConfig.none())
        seen = _spy_reference_runs(monkeypatch)
        (verdict,) = oracle.evaluate(mlp_model, inputs)
        assert verdict.status == "ok"
        expected = [(name, index, sign)
                    for name, indices in oracle._sampled_targets(mlp_model,
                                                                 inputs)
                    for index in indices for sign in (1.0, -1.0)]
        assert len(expected) == 6
        probes = seen[1:]  # seen[0] is the recorded forward run
        assert len(probes) == len(expected)
        for probe, (name, index, sign) in zip(probes, expected):
            delta = (probe[name].astype(np.float64).reshape(-1)
                     - np.asarray(inputs[name], np.float64).reshape(-1))
            assert list(np.flatnonzero(delta)) == [index]
            assert np.sign(delta[index]) == sign
            for other in inputs:
                if other != name:
                    np.testing.assert_array_equal(probe[other], inputs[other])

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
