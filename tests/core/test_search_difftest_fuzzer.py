"""Tests for loss functions, value search, differential testing and the fuzzer."""

import numpy as np
import pytest

from repro.compilers import CompileOptions, DeepCCompiler, GraphRTCompiler, TurboCompiler
from repro.compilers.bugs import BugConfig
from repro.core import (
    DifferentialTester,
    Fuzzer,
    FuzzerConfig,
    GeneratorConfig,
    compare_outputs,
    generate_model,
    gradient_search,
    sampling_search,
    search_values,
)
from repro.core.losses import (
    VULNERABLE_OPERATORS,
    is_vulnerable,
    losses_for_node,
    magnitude_loss,
)
from repro.dtypes import DType
from repro.graph.builder import GraphBuilder
from repro.graph.node import Node
from repro.runtime import Interpreter

NO_BUGS = BugConfig.none()


def _log_model():
    builder = GraphBuilder("logm")
    x = builder.input([6])
    w = builder.weight(np.full(6, -5.0, dtype=np.float32))
    shifted = builder.op1("Add", [x, w])
    builder.op1("Log", [shifted])
    return builder.build()


def _dead_log_model():
    """``Log(x - x)`` is ``-inf`` for every input and its loss gradient
    cancels, so every value search fails."""
    builder = GraphBuilder("deadlog")
    x = builder.input([4])
    zero = builder.op1("Sub", [x, x])
    builder.op1("Log", [zero])
    return builder.build()


def _round_pole_model():
    """``Reciprocal(Round(Log(Reciprocal(x))))`` over 4096 inputs from
    ``[1, 9]``: the ~8% of them below ``e**0.5`` round to zero.  Each must
    stop as soon as it is fixed: moving on past ``x = 0`` hands ``Log`` a
    negative input that its gradient then pushes further down."""
    builder = GraphBuilder("roundpole")
    x = builder.input([4096])
    inverse = builder.op1("Reciprocal", [x])
    rounded = builder.op1("Round", [builder.op1("Log", [inverse])])
    builder.op1("Reciprocal", [rounded])
    return builder.build()


class TestLosses:
    def test_vulnerable_operator_registry(self):
        for op in ("Log", "Sqrt", "Asin", "Div", "Pow"):
            assert is_vulnerable(op)
        assert not is_vulnerable("Relu")

    @pytest.mark.parametrize("op", sorted(VULNERABLE_OPERATORS))
    def test_loss_positive_iff_domain_violated(self, op):
        terms = VULNERABLE_OPERATORS[op]
        good = {
            "Asin": [np.array([0.5])], "Acos": [np.array([0.5])],
            "Log": [np.array([2.0])], "Log2": [np.array([2.0])],
            "Sqrt": [np.array([2.0])], "Reciprocal": [np.array([2.0])],
            "Div": [np.array([1.0]), np.array([2.0])],
            "Pow": [np.array([2.0]), np.array([3.0])],
            "Exp": [np.array([1.0])], "Softmax": [np.array([1.0])],
        }[op]
        bad = {
            "Asin": [np.array([3.0])], "Acos": [np.array([-3.0])],
            "Log": [np.array([-1.0])], "Log2": [np.array([-1.0])],
            "Sqrt": [np.array([-1.0])], "Reciprocal": [np.array([0.0])],
            "Div": [np.array([1.0]), np.array([0.0])],
            "Pow": [np.array([-2.0]), np.array([3.0])],
            "Exp": [np.array([100.0])], "Softmax": [np.array([200.0])],
        }[op]
        assert all(term.value(good) == 0 for term in terms)
        assert any(term.value(bad) > 0 for term in terms)

    def test_loss_gradients_point_into_domain(self):
        term = VULNERABLE_OPERATORS["Log"][0]
        grads = term.grads([np.array([-2.0, 3.0])])
        # Gradient descent subtracts the gradient, so a negative gradient on
        # the violating element pushes it upward (into x > 0).
        assert grads[0][0] < 0 and grads[0][1] == 0

    def test_magnitude_fallback(self):
        term = magnitude_loss()
        assert term.value([np.array([1e6])]) > 0
        assert term.value([np.array([1.0])]) == 0

    def test_losses_for_node_always_has_fallback(self):
        terms = losses_for_node(Node("Relu", "r", [], []))
        assert len(terms) == 1  # only the fallback
        terms = losses_for_node(Node("Pow", "p", [], []))
        assert len(terms) >= 3


class TestValueSearch:
    def test_gradient_search_fixes_log_domain(self):
        model = _log_model()
        result = gradient_search(model, np.random.default_rng(0),
                                 max_iterations=200)
        assert result.success
        patched = result.apply_weights(model)
        run = Interpreter().run_detailed(patched, result.inputs)
        assert run.numerically_valid

    def test_gradient_search_stops_fixed_elements(self):
        result = gradient_search(_round_pole_model(), np.random.default_rng(0),
                                 max_iterations=32)
        assert result.success
        assert result.iterations > 1

    def test_sampling_search_fails_on_hard_model(self):
        # Inputs are drawn from [1, 9] and the weight shifts them by -5, so a
        # random draw succeeds only if every one of the 6 elements lands > 5.
        model = _log_model()
        result = sampling_search(model, np.random.default_rng(0), max_trials=3)
        patched = result.apply_weights(model)
        run = Interpreter().run_detailed(patched, result.inputs)
        assert run.numerically_valid == result.success

    @pytest.mark.parametrize("method", ["sampling", "gradient", "gradient_proxy"])
    @pytest.mark.parametrize("build, max_steps",
                             [(_log_model, 4), (_dead_log_model, 6)])
    def test_search_values_dispatch(self, method, build, max_steps):
        model = build()
        first, second = (search_values(model, method=method,
                                       rng=np.random.default_rng(1),
                                       max_steps=max_steps)
                         for _ in range(2))
        assert first.method == method
        assert first.success == (build is _log_model)
        # The step count is the only bound: a failed search used all of it.
        if not first.success:
            assert first.iterations == max_steps
        assert 1 <= first.iterations <= max_steps
        assert (second.success, second.iterations) == \
            (first.success, first.iterations)
        assert first.inputs.keys() == second.inputs.keys()
        for name, value in first.inputs.items():
            np.testing.assert_array_equal(second.inputs[name], value)

    def test_search_values_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            search_values(_log_model(), method="annealing")

    def test_valid_model_succeeds_immediately(self, mlp_model):
        result = gradient_search(mlp_model, np.random.default_rng(0))
        assert result.success
        assert result.iterations == 1


class TestCompareOutputs:
    def test_identical_outputs_match(self):
        ref = {"y": np.array([1.0, 2.0])}
        assert compare_outputs(ref, {"y": np.array([1.0, 2.0])}) is None

    def test_small_fp_noise_tolerated(self):
        ref = {"y": np.array([1.0, 2.0])}
        assert compare_outputs(ref, {"y": np.array([1.0 + 1e-6, 2.0])}) is None

    def test_value_mismatch_detected(self):
        assert compare_outputs({"y": np.array([1.0])}, {"y": np.array([2.0])})

    def test_shape_mismatch_detected(self):
        assert "shape" in compare_outputs({"y": np.zeros((2,))}, {"y": np.zeros((2, 1))})

    def test_missing_output_detected(self):
        assert "missing" in compare_outputs({"y": np.zeros(2)}, {})

    def test_integer_outputs_exact(self):
        assert compare_outputs({"y": np.array([1, 2])}, {"y": np.array([1, 3])})


def _make_tester(bugs):
    return DifferentialTester([
        GraphRTCompiler(CompileOptions(bugs=bugs)),
        DeepCCompiler(CompileOptions(bugs=bugs)),
        TurboCompiler(CompileOptions(bugs=bugs)),
    ], bugs=bugs)


class TestDifferentialTester:
    def test_clean_model_reports_ok(self, conv_model, rng):
        tester = _make_tester(NO_BUGS)
        from repro.runtime import random_inputs

        case = tester.run_case(conv_model, random_inputs(conv_model, rng))
        assert case.numerically_valid
        assert not case.found_any_bug
        assert {v.compiler for v in case.verdicts} == {"graphrt", "deepc", "turbo"}

    def test_semantic_bug_detected_and_localized(self):
        builder = GraphBuilder("vecrem")
        x = builder.input([7])
        builder.op1("Sigmoid", [x])
        model = builder.build()
        bugs = BugConfig.only("deepc-lowlevel-vectorize-remainder")
        tester = _make_tester(bugs)
        case = tester.run_case(model, {model.inputs[0]:
                                       np.linspace(0.2, 0.9, 7).astype(np.float32)})
        deepc = next(v for v in case.verdicts if v.compiler == "deepc")
        assert deepc.status == "semantic"
        assert deepc.phase == "transformation"
        assert "deepc-lowlevel-vectorize-remainder" in deepc.triggered_bugs

    def test_crash_bug_detected(self):
        builder = GraphBuilder("sred")
        x = builder.input([3, 4])
        builder.op1("ReduceMax", [x], axes=None, keepdims=False)
        model = builder.build()
        tester = _make_tester(BugConfig.only("deepc-import-scalar-reduce"))
        case = tester.run_case(model)
        deepc = next(v for v in case.verdicts if v.compiler == "deepc")
        assert deepc.status == "crash" and deepc.phase == "conversion"

    def test_nan_results_never_flag_semantic_bugs(self):
        builder = GraphBuilder("nan")
        x = builder.input([4])
        builder.op1("Log", [x])
        model = builder.build()
        tester = _make_tester(BugConfig.all())
        case = tester.run_case(model, {model.inputs[0]:
                                       np.array([-1, 1, 2, 3], dtype=np.float32)})
        assert not case.numerically_valid
        assert all(v.status != "semantic" for v in case.verdicts)

    def test_exporter_bug_attributed(self):
        builder = GraphBuilder("clip32")
        x = builder.input([4], DType.int32)
        builder.op1("Clip", [x], min=0, max=2)
        model = builder.build()
        tester = _make_tester(BugConfig.only("exporter-clip-int32-opset"))
        case = tester.run_case(model)
        assert "exporter-clip-int32-opset" in case.exporter_bugs
        graphrt = next(v for v in case.verdicts if v.compiler == "graphrt")
        assert graphrt.status == "crash"


class TestFuzzer:
    def test_campaign_finds_seeded_bugs(self):
        bugs = BugConfig.all()
        fuzzer = Fuzzer([GraphRTCompiler(CompileOptions(bugs=bugs)),
                         DeepCCompiler(CompileOptions(bugs=bugs)),
                         TurboCompiler(CompileOptions(bugs=bugs))],
                        FuzzerConfig(generator=GeneratorConfig(n_nodes=10),
                                     max_iterations=30, seed=7, bugs=bugs))
        result = fuzzer.run()
        assert result.generated_models > 0
        assert result.numerically_valid_models > 0
        assert result.seeded_bugs_found
        assert all(report.triggered_bugs for report in result.reports)
        assert result.operator_instances

    def test_campaign_clean_compilers_find_nothing(self):
        fuzzer = Fuzzer([GraphRTCompiler(CompileOptions(bugs=NO_BUGS)),
                         DeepCCompiler(CompileOptions(bugs=NO_BUGS))],
                        FuzzerConfig(generator=GeneratorConfig(n_nodes=6),
                                     max_iterations=8, seed=3, bugs=NO_BUGS))
        result = fuzzer.run()
        assert not result.seeded_bugs_found
        assert not result.reports

    def test_reports_are_deduplicated(self):
        bugs = BugConfig.only("deepc-import-scalar-reduce")
        fuzzer = Fuzzer([DeepCCompiler(CompileOptions(bugs=bugs))],
                        FuzzerConfig(generator=GeneratorConfig(n_nodes=8),
                                     max_iterations=25, seed=5, bugs=bugs))
        result = fuzzer.run()
        messages = [r.message.splitlines()[0] for r in result.reports]
        assert len(messages) == len(set(messages))

    def test_operator_support_probing_filters_pool(self):
        bugs = BugConfig.none()
        fuzzer = Fuzzer([DeepCCompiler(CompileOptions(bugs=bugs))],
                        FuzzerConfig(generator=GeneratorConfig(n_nodes=5), bugs=bugs,
                                     max_iterations=1))
        kinds = {spec.op_kind for spec in fuzzer.config.generator.op_pool}
        assert "Erf" not in kinds and "Relu" in kinds
