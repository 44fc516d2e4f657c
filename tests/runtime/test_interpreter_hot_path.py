"""Interpreter hot-path regressions: initializer aliasing, integer sampling
bounds, eager dead-value dropping, the run loop's terminal errors, and the
cached execution plan's invisibility — a plan served from the ``exec_plan``
stage runs bit-identically to one built afresh and to a node-at-a-time
:func:`~repro.ops.semantics.execute_node` walk."""

import numpy as np
import pytest

from repro.core import cache
from repro.core.generator import GeneratorConfig, generate_model
from repro.core.oplib import ALL_SPECS, SPEC_BY_KIND
from repro.dtypes import DType
from repro.errors import (GenerationError, GraphError, ReproError,
                          UnsupportedOperatorError)
from repro.graph.model import Model
from repro.graph.node import Node
from repro.graph.tensor_type import TensorType
from repro.ops.semantics import execute_node
from repro.runtime.interpreter import (Interpreter, random_inputs,
                                       random_weights)
from repro.testing import build_mlp_model


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test starts cold and leaves the process-default switch on."""
    cache.reset()
    cache.configure(enabled=True)
    yield
    cache.reset()
    cache.configure(enabled=True)


def _chain_model(depth: int, op: str = "Relu") -> Model:
    """x -> op -> op -> ... -> output, one value live at a time."""
    model = Model("chain")
    model.add_input("x", TensorType((4, 4), DType.float32))
    previous = "x"
    for index in range(depth):
        out = f"v{index}"
        model.add_node(Node(op, f"{op.lower()}{index}", [previous], [out]),
                       [TensorType((4, 4), DType.float32)])
        previous = out
    model.mark_output(previous)
    return model


def _same_array(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def _outcome(model, inputs, record, enabled):
    """The run's result, or its exception normalized for equality checks."""
    cache.configure(enabled=enabled)
    try:
        return ("ok", Interpreter(record_intermediates=record).run_detailed(
            model, inputs))
    except ReproError as exc:
        return ("raised", type(exc).__name__, str(exc))
    except KeyError as exc:
        return ("raised", "KeyError", str(exc))
    finally:
        cache.configure(enabled=True)


def _assert_same_run(want, got):
    assert want[0] == got[0], (want, got)
    if want[0] == "raised":
        assert want[1:] == got[1:]
        return
    a, b = want[1], got[1]
    assert list(a.outputs) == list(b.outputs)
    for name in a.outputs:
        assert _same_array(a.outputs[name], b.outputs[name]), name
    assert list(a.values) == list(b.values)
    for name in a.values:
        assert _same_array(a.values[name], b.values[name]), name
    assert a.first_exceptional_node == b.first_exceptional_node
    assert a.exceptional_nodes == b.exceptional_nodes
    assert a.peak_live_values == b.peak_live_values


def _fresh_cold_warm(model, inputs, record):
    """Runs with the cache off, then cold (a plan miss) and warm (a hit).

    Returns the three outcomes and the warm run's ``exec_plan`` hit count.
    """
    fresh = _outcome(model, inputs, record, enabled=False)
    cache.reset()
    cold = _outcome(model, inputs, record, enabled=True)
    before = cache.stats_snapshot()
    warm = _outcome(model, inputs, record, enabled=True)
    hits = cache.stats_delta(before).get("exec_plan", {}).get("hits", 0)
    return fresh, cold, warm, hits


class TestInitializerAliasing:
    def test_values_expose_readonly_views_of_initializers(self):
        model = build_mlp_model()
        inputs = random_inputs(model, np.random.default_rng(0))
        run = Interpreter(record_intermediates=True).run_detailed(model, inputs)
        for name in model.initializers:
            view = run.values[name]
            assert view.flags.writeable is False
            with pytest.raises(ValueError):
                view[(0,) * view.ndim] = 0.0

    def test_caller_mutation_cannot_corrupt_model_weights(self):
        model = build_mlp_model()
        frozen = {name: array.copy()
                  for name, array in model.initializers.items()}
        inputs = random_inputs(model, np.random.default_rng(1))
        run = Interpreter(record_intermediates=True).run_detailed(model, inputs)
        for name, view in run.values.items():
            if name in model.initializers:
                with pytest.raises(ValueError):
                    view += 1.0
        for name, original in frozen.items():
            np.testing.assert_array_equal(model.initializers[name], original)

    def test_repeated_runs_identical(self):
        model = build_mlp_model()
        inputs = random_inputs(model, np.random.default_rng(2))
        interp = Interpreter(record_intermediates=False)
        first = interp.run_detailed(model, inputs)
        second = interp.run_detailed(model, inputs)
        for name in first.outputs:
            np.testing.assert_array_equal(first.outputs[name],
                                          second.outputs[name])


class TestIntegerBounds:
    def _int_model(self):
        model = Model("ints")
        model.add_input("x", TensorType((4000,), DType.int64))
        model.mark_output("x")
        return model

    def test_inclusive_default_covers_full_closed_range(self):
        data = random_inputs(self._int_model(),
                             np.random.default_rng(7))["x"]
        assert data.min() == 1
        assert data.max() == 9  # the range is closed

    def test_inclusive_stream_is_pinned(self):
        # The campaign seed contract: the default integer stream is exactly
        # rng.integers(int(low), int(high) + 1).  Every pinned smoke seed
        # and the regenerated corpus depend on it.
        data = random_inputs(self._int_model(),
                             np.random.default_rng(29))["x"]
        expected = np.random.default_rng(29).integers(1, 10, size=(4000,))
        np.testing.assert_array_equal(data, expected.astype(np.int64))

    def test_inclusive_still_spans_sub_integer_ranges(self):
        data = random_inputs(self._int_model(), np.random.default_rng(3),
                             low=2.0, high=2.9)["x"]
        assert set(np.unique(data)) == {2}  # [2, 2] closed range, no crash

    def test_swapped_bounds_are_reordered(self):
        data = random_inputs(self._int_model(), np.random.default_rng(11),
                             low=9.0, high=1.0)["x"]
        expected = np.random.default_rng(11).integers(1, 10, size=(4000,))
        np.testing.assert_array_equal(data, expected.astype(np.int64))

    def test_random_weights_cover_full_closed_range(self):
        model = Model("w")
        model.add_input("x", TensorType((1,), DType.float32))
        model.add_initializer("w", np.arange(4000, dtype=np.int64))
        model.mark_output("x")
        weights = random_weights(model, np.random.default_rng(5))["w"]
        assert weights.max() == 9


class TestEagerDrop:
    def test_peak_liveness_shrinks_on_deep_chain(self):
        model = _chain_model(30)
        inputs = {"x": np.ones((4, 4), dtype=np.float32)}
        recorded = Interpreter(record_intermediates=True).run_detailed(
            model, inputs)
        lean = Interpreter(record_intermediates=False).run_detailed(
            model, inputs)
        # Recording keeps all 31 values; the eager path holds at most the
        # input plus a producer/consumer pair at any step.
        assert recorded.peak_live_values == 31
        assert lean.peak_live_values <= 3
        np.testing.assert_array_equal(recorded.outputs["v29"],
                                      lean.outputs["v29"])

    def test_lean_run_reports_no_intermediates(self):
        model = _chain_model(5)
        run = Interpreter(record_intermediates=False).run_detailed(
            model, {"x": np.ones((4, 4), dtype=np.float32)})
        assert run.values == {}
        assert set(run.outputs) == {"v4"}

    def test_fanout_value_survives_until_last_consumer(self):
        # x feeds both an early and a late consumer; dropping it after the
        # first read would crash the second.
        model = Model("fanout")
        model.add_input("x", TensorType((4,), DType.float32))
        model.add_node(Node("Relu", "r", ["x"], ["a"]),
                       [TensorType((4,), DType.float32)])
        model.add_node(Node("Neg", "n", ["a"], ["b"]),
                       [TensorType((4,), DType.float32)])
        model.add_node(Node("Add", "s", ["b", "x"], ["c"]),
                       [TensorType((4,), DType.float32)])
        model.mark_output("c")
        x = np.array([1.0, -2.0, 3.0, -4.0], dtype=np.float32)
        run = Interpreter(record_intermediates=False).run_detailed(
            model, {"x": x})
        np.testing.assert_allclose(run.outputs["c"],
                                   -np.maximum(x, 0.0) + x)

    def test_graph_output_survives_its_last_consumer(self):
        # v0 is both a graph output and an input of the next node; its
        # refcount reaches zero mid-run, but outputs are never dropped.
        model = _chain_model(2)
        model.mark_output("v0")
        x = np.array([[1.0, -2.0, 3.0, -4.0]] * 4, dtype=np.float32)
        run = Interpreter(record_intermediates=False).run_detailed(
            model, {"x": x})
        assert set(run.outputs) == {"v0", "v1"}
        np.testing.assert_array_equal(run.outputs["v0"], np.maximum(x, 0.0))

    def test_exceptional_node_tracking_unchanged(self):
        model = Model("nan")
        model.add_input("x", TensorType((2,), DType.float32))
        model.add_node(Node("Log", "log", ["x"], ["y"]),
                       [TensorType((2,), DType.float32)])
        model.add_node(Node("Relu", "relu", ["y"], ["z"]),
                       [TensorType((2,), DType.float32)])
        model.mark_output("z")
        run = Interpreter(record_intermediates=False).run_detailed(
            model, {"x": np.array([-1.0, 1.0], dtype=np.float32)})
        assert run.first_exceptional_node == "log"
        assert not run.numerically_valid


@pytest.mark.parametrize("enabled", [True, False])
class TestTerminalErrors:
    """Terminal errors fire alike from a cached plan and a fresh one."""

    def test_unsupported_operator_raises_after_prior_steps(self, enabled):
        # The kernel is looked up when the plan is built, but the error
        # fires only when the run reaches the node.
        cache.configure(enabled=enabled)
        model = _chain_model(2)
        model.add_node(Node("NoSuchOp", "weird", ["v1"], ["bad"]),
                       [TensorType((4, 4), DType.float32)])
        model.mark_output("bad")
        with pytest.raises(UnsupportedOperatorError, match="NoSuchOp"):
            Interpreter(record_intermediates=False).run_detailed(
                model, {"x": np.ones((4, 4), dtype=np.float32)})

    def test_unavailable_input_raises_graph_error(self, enabled):
        # A mutilated graph (the LEMON-mutation hazard): drop the producer
        # of v0 so the next node consumes a value that never exists.
        cache.configure(enabled=enabled)
        model = _chain_model(3)
        del model.nodes[0]
        model.structure_version += 1
        with pytest.raises(GraphError, match="unavailable value 'v0'"):
            Interpreter(record_intermediates=False).run_detailed(
                model, {"x": np.ones((4, 4), dtype=np.float32)})

    def test_unproduced_output_raises_key_error(self, enabled):
        cache.configure(enabled=enabled)
        model = _chain_model(2)
        del model.nodes[-1]
        model.structure_version += 1
        with pytest.raises(KeyError, match="v1"):
            Interpreter(record_intermediates=False).run_detailed(
                model, {"x": np.ones((4, 4), dtype=np.float32)})


class TestCachedPlanEquivalence:
    """Cold (plan miss) and warm (plan hit) runs are bit-identical to a run
    with the cache off: outputs, recorded values, exceptional-node
    provenance, peak liveness and terminal errors."""

    @pytest.mark.parametrize("record", [False, True])
    def test_mlp_bit_identical(self, record):
        model = build_mlp_model()
        inputs = random_inputs(model, np.random.default_rng(7))
        fresh, cold, warm, hits = _fresh_cold_warm(model, inputs, record)
        assert fresh[0] == "ok"
        assert hits == 1
        _assert_same_run(fresh, cold)
        _assert_same_run(fresh, warm)

    @pytest.mark.parametrize("seed", range(12))
    def test_generated_models_bit_identical(self, seed):
        model = generate_model(GeneratorConfig(n_nodes=6, seed=seed)).model
        inputs = random_inputs(model, np.random.default_rng(seed))
        for record in (False, True):
            fresh, cold, warm, hits = _fresh_cold_warm(model, inputs, record)
            assert hits == 1
            _assert_same_run(fresh, cold)
            _assert_same_run(fresh, warm)

    def test_exceptional_values_tracked_identically(self):
        # Log of a negative input manufactures NaNs mid-graph; every run
        # must agree on which nodes went exceptional, and in what order.
        model = _chain_model(3, op="Log")
        inputs = {"x": np.full((4, 4), -2.0, dtype=np.float32)}
        fresh, cold, warm, _hits = _fresh_cold_warm(model, inputs, False)
        _assert_same_run(fresh, cold)
        _assert_same_run(fresh, warm)
        assert fresh[1].first_exceptional_node == "log0"
        assert fresh[1].exceptional_nodes == ["log0", "log1", "log2"]

    def test_missing_and_misshapen_inputs_raise_identically(self):
        model = build_mlp_model()
        (name,) = list(random_inputs(model, np.random.default_rng(0)))
        bad_shape = {name: np.zeros((1, 1), dtype=np.float32)}
        for bad in ({}, bad_shape):
            fresh, cold, warm, _hits = _fresh_cold_warm(model, bad, False)
            assert fresh[:2] == ("raised", "ExecutionError")
            assert cold == fresh
            assert warm == fresh


def _single_spec_model(spec):
    """A small generated model that contains ``spec``'s operator.

    Specs whose inputs are all boolean get boolean placeholders; BatchNorm
    never inserts on its own within the attempt budget, and Flatten gives
    it a partner that does.  The first seed that yields the operator wins,
    so the choice is deterministic.
    """
    combos = spec.dtype_combos()
    bool_only = all(all(dtype == DType.bool_ for dtype in ins)
                    for ins, _outs in combos)
    pool = ([spec, SPEC_BY_KIND["Flatten"]] if spec.op_kind == "BatchNorm"
            else [spec])
    for seed in range(10):
        config = GeneratorConfig(n_nodes=3, seed=seed, op_pool=pool)
        if bool_only:
            config.dtype_weights = {DType.bool_: 1.0}
        try:
            model = generate_model(config).model
        except GenerationError:
            continue
        if any(node.op == spec.op_kind for node in model.nodes):
            return model, seed
    raise AssertionError(f"no generated model contains {spec.op_kind}")


def _node_walk(model, inputs):
    """Reference semantics: ``execute_node`` over the topological order,
    keeping every value.  Returns the values and the exceptional nodes."""
    values = {name: np.asarray(inputs[name],
                               dtype=model.type_of(name).dtype.numpy)
              for name in model.inputs}
    values.update(model.initializers)
    exceptional = []
    for node in model.topological_order():
        results = execute_node(node, [values[name] for name in node.inputs])
        values.update(zip(node.outputs, results))
        if any(result.dtype.kind == "f" and not np.all(np.isfinite(result))
               for result in results):
            exceptional.append(node.name)
    return values, exceptional


@pytest.mark.parametrize("spec", ALL_SPECS,
                         ids=[spec.op_kind for spec in ALL_SPECS])
def test_plan_loop_matches_node_walk(spec):
    # Every operator the generator can emit runs through the plan loop —
    # pre-resolved kernel, eager dead-value dropping, cached or fresh plan
    # — exactly as node-at-a-time dispatch would run it.
    model, seed = _single_spec_model(spec)
    inputs = random_inputs(model, np.random.default_rng(seed))
    values, exceptional = _node_walk(model, inputs)
    for enabled in (True, False):
        for record in (False, True):
            cache.configure(enabled=enabled)
            run = Interpreter(record_intermediates=record).run_detailed(
                model, inputs)
            assert list(run.outputs) == list(model.outputs)
            for name in model.outputs:
                assert _same_array(run.outputs[name], values[name]), name
            if record:
                assert set(run.values) == set(values)
                for name, array in values.items():
                    assert _same_array(run.values[name], array), name
            assert run.exceptional_nodes == exceptional
            assert run.first_exceptional_node == (
                exceptional[0] if exceptional else None)
