"""Tests for the autodiff engine: VJPs, graph backprop and optimizers."""

import numpy as np
import pytest

from repro.autodiff import Adam, DEFAULT_PROXY, NO_PROXY, SGD, backpropagate, unbroadcast
from repro.autodiff.backprop import _node_order
from repro.autodiff.vjp import backward_node, has_vjp
from repro.dtypes import DType
from repro.graph.builder import GraphBuilder
from repro.graph.node import Node
from repro.graph.tensor_type import TensorType
from repro.ops.registry import all_ops
from repro.ops.semantics import execute_node
from repro.runtime.interpreter import Interpreter, execution_plan


def _numeric_grad(op, attrs, inputs, which, epsilon=1e-5):
    """Central-difference gradient of sum(output) w.r.t. inputs[which]."""
    node = Node(op, "n", [], [], attrs)
    base = [np.array(x, dtype=np.float64) for x in inputs]
    grad = np.zeros_like(base[which])
    flat = grad.reshape(-1)
    for index in range(flat.size):
        for sign in (+1, -1):
            perturbed = [np.array(x, copy=True) for x in base]
            perturbed[which].reshape(-1)[index] += sign * epsilon
            out = execute_node(node, perturbed)[0].astype(np.float64).sum()
            flat[index] += sign * out / (2 * epsilon)
    return grad


GRAD_CHECK_CASES = [
    ("Relu", {}, [np.array([0.5, -0.3, 1.2])]),
    ("Sigmoid", {}, [np.array([0.2, -0.7])]),
    ("Tanh", {}, [np.array([0.2, -0.7])]),
    ("Exp", {}, [np.array([0.1, 0.5])]),
    ("Log", {}, [np.array([0.5, 2.0])]),
    ("Sqrt", {}, [np.array([0.5, 2.0])]),
    ("Abs", {}, [np.array([0.5, -2.0])]),
    ("Neg", {}, [np.array([0.5, -2.0])]),
    ("Softmax", {"axis": 0}, [np.array([0.5, 1.5, -0.5])]),
    ("Add", {}, [np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]])]),
    ("Sub", {}, [np.array([1.0, 2.0]), np.array([3.0, 4.0])]),
    ("Mul", {}, [np.array([1.0, 2.0]), np.array([3.0, 4.0])]),
    ("Div", {}, [np.array([1.0, 2.0]), np.array([3.0, 4.0])]),
    ("Max", {}, [np.array([1.0, 5.0]), np.array([3.0, 4.0])]),
    ("MatMul", {}, [np.arange(6, dtype=np.float64).reshape(2, 3) * 0.3,
                    np.arange(12, dtype=np.float64).reshape(3, 4) * 0.1]),
    ("Gemm", {}, [np.arange(6, dtype=np.float64).reshape(2, 3) * 0.3,
                  np.arange(12, dtype=np.float64).reshape(3, 4) * 0.1,
                  np.arange(4, dtype=np.float64) * 0.2]),
    ("Conv2d", {"stride": 1, "padding": 1},
     [np.random.default_rng(0).normal(size=(1, 2, 4, 4)),
      np.random.default_rng(1).normal(size=(3, 2, 3, 3))]),
    ("MaxPool2d", {"kh": 2, "kw": 2, "stride": 2, "padding": 0},
     [np.random.default_rng(2).normal(size=(1, 1, 4, 4))]),
    ("AvgPool2d", {"kh": 2, "kw": 2, "stride": 1, "padding": 0},
     [np.random.default_rng(3).normal(size=(1, 1, 4, 4))]),
    ("GlobalAvgPool2d", {}, [np.random.default_rng(4).normal(size=(1, 2, 3, 3))]),
    ("Reshape", {"shape": [6]}, [np.arange(6, dtype=np.float64).reshape(2, 3)]),
    ("Transpose", {"perm": [1, 0]}, [np.arange(6, dtype=np.float64).reshape(2, 3)]),
    ("Slice", {"starts": [1], "ends": [3], "axes": [0], "steps": [1]},
     [np.arange(4, dtype=np.float64)]),
    ("Pad", {"pads": [1, 1], "mode": "constant", "value": 0.0},
     [np.arange(3, dtype=np.float64)]),
    ("Pad", {"pads": [1, -1], "mode": "constant", "value": 0.0},
     [np.arange(4, dtype=np.float64)]),
    ("BroadcastTo", {"shape": [2, 3]}, [np.array([[1.0], [2.0]])]),
    ("ReduceSum", {"axes": [1], "keepdims": False},
     [np.arange(6, dtype=np.float64).reshape(2, 3)]),
    ("ReduceMean", {"axes": [0], "keepdims": True},
     [np.arange(6, dtype=np.float64).reshape(2, 3)]),
    ("ReduceMax", {"axes": [1], "keepdims": False},
     [np.array([[1.0, 5.0, 2.0], [7.0, 1.0, 3.0]])]),
    ("BatchNorm", {"epsilon": 1e-5},
     [np.random.default_rng(5).normal(size=(2, 3, 2, 2)),
      np.array([1.0, 2.0, 0.5]), np.array([0.1, -0.2, 0.3]),
      np.array([0.0, 0.5, -0.5]), np.array([1.0, 2.0, 1.5])]),
    ("Concat", {"axis": 0}, [np.array([1.0, 2.0]), np.array([3.0])]),
    ("Where", {}, [np.array([True, False]), np.array([1.0, 2.0]),
                   np.array([3.0, 4.0])]),
]


@pytest.mark.parametrize("op,attrs,inputs", GRAD_CHECK_CASES,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(GRAD_CHECK_CASES)])
def test_vjp_matches_numeric_gradient(op, attrs, inputs):
    node = Node(op, "n", [], [], attrs)
    arrays = [np.asarray(x, dtype=np.float64) for x in inputs]
    outputs = execute_node(node, arrays)
    seed = [np.ones(out.shape, dtype=np.float64) for out in outputs]
    # Exact-gradient check: proxy derivatives intentionally deviate from the
    # true derivative in zero-gradient regions, so they are disabled here.
    analytic = backward_node(node, arrays, outputs, seed, NO_PROXY)
    for index, array in enumerate(arrays):
        if array.dtype.kind == "b":
            continue
        numeric = _numeric_grad(op, attrs, arrays, index)
        np.testing.assert_allclose(analytic[index], numeric, rtol=1e-3, atol=1e-4,
                                   err_msg=f"{op} input {index}")


class TestUnbroadcast:
    def test_reduces_leading_axes(self):
        grad = np.ones((4, 3, 2))
        reduced = unbroadcast(grad, (3, 2))
        assert reduced.shape == (3, 2)
        np.testing.assert_allclose(reduced, 4 * np.ones((3, 2)))

    def test_reduces_broadcast_dims(self):
        grad = np.ones((4, 3))
        reduced = unbroadcast(grad, (4, 1))
        assert reduced.shape == (4, 1)
        np.testing.assert_allclose(reduced, 3 * np.ones((4, 1)))

    def test_noop_when_same_shape(self):
        grad = np.ones((2, 2))
        assert unbroadcast(grad, (2, 2)).shape == (2, 2)


class TestProxyDerivatives:
    def test_relu_zero_region(self):
        node = Node("Relu", "r", [], [])
        x = np.array([-1.0, -2.0])
        y = execute_node(node, [x])
        with_proxy = backward_node(node, [x], y, [np.ones(2)], DEFAULT_PROXY)[0]
        without = backward_node(node, [x], y, [np.ones(2)], NO_PROXY)[0]
        assert np.all(with_proxy > 0)
        assert np.all(without == 0)

    def test_floor_straight_through(self):
        node = Node("Floor", "f", [], [])
        x = np.array([1.3, 2.9])
        y = execute_node(node, [x])
        with_proxy = backward_node(node, [x], y, [np.ones(2)], DEFAULT_PROXY)[0]
        without = backward_node(node, [x], y, [np.ones(2)], NO_PROXY)[0]
        np.testing.assert_allclose(with_proxy, np.ones(2))
        np.testing.assert_allclose(without, np.zeros(2))

    def test_comparison_has_zero_grad(self):
        node = Node("Greater", "g", [], [])
        x = [np.array([1.0]), np.array([2.0])]
        y = execute_node(node, x)
        grads = backward_node(node, x, y, [np.ones(1)])
        assert all(np.all(g == 0) for g in grads)

    def test_every_registered_op_has_vjp(self):
        for info in all_ops():
            assert has_vjp(info.name), f"missing VJP for {info.name}"


class TestGraphBackprop:
    def test_chain_rule_through_mlp(self, mlp_model, rng):
        from repro.runtime.interpreter import random_inputs

        inputs = random_inputs(mlp_model, rng)
        run = Interpreter().run_detailed(mlp_model, inputs)
        output_name = mlp_model.outputs[0]
        seed = {output_name: np.ones(run.outputs[output_name].shape)}
        grads = backpropagate(mlp_model, run.values, seed)
        for name in list(mlp_model.inputs) + list(mlp_model.initializers):
            assert name in grads
            assert grads[name].shape == mlp_model.type_of(name).shape

    def test_gradient_direction_reduces_loss(self):
        """One gradient step on sum(Sqrt(x)) loss-style objective moves x up."""
        builder = GraphBuilder("g")
        x = builder.input([3])
        out = builder.op1("Sqrt", [x])
        model = builder.build()
        values = {x: np.array([-1.0, -2.0, 4.0]), out: np.array([np.nan, np.nan, 2.0])}
        # Seed gradient of a "make x positive" hinge loss: dL/dx = -(x<=0).
        grads = backpropagate(model, values, {x: -(values[x] <= 0).astype(float)})
        assert grads[x][0] < 0 and grads[x][2] == 0

    def test_stop_after_limits_work(self, conv_model, rng):
        from repro.runtime.interpreter import random_inputs

        inputs = random_inputs(conv_model, rng)
        run = Interpreter().run_detailed(conv_model, inputs)
        first = conv_model.nodes[0]
        seed = {first.outputs[0]: np.ones(run.values[first.outputs[0]].shape)}
        grads = backpropagate(conv_model, run.values, seed, stop_after=first.name)
        assert grads[conv_model.inputs[0]].shape == conv_model.type_of(
            conv_model.inputs[0]).shape


class TestNodeOrder:
    """Backprop walks the interpreter's execution plan, falling back to
    ``topological_order()`` when the plan is truncated."""

    @staticmethod
    def _names(nodes):
        return [node.name for node in nodes]

    def test_node_order_is_the_plan_order(self):
        from repro.core.generator import GeneratorConfig, generate_model

        model = generate_model(GeneratorConfig(n_nodes=6, seed=3)).model
        plan = execution_plan(model)
        assert _node_order(model) == [node for _k, node, _b in plan.steps]
        assert self._names(_node_order(model)) == \
            self._names(model.topological_order())

    def test_node_order_follows_a_structural_mutation(self, mlp_model):
        before = self._names(_node_order(mlp_model))
        tail = mlp_model.outputs[0]
        mlp_model.add_node(Node("Neg", "neg_tail", [tail], ["negated"]),
                           [mlp_model.type_of(tail)])
        assert self._names(_node_order(mlp_model)) == before + ["neg_tail"]

    def test_truncated_plan_falls_back_to_the_topological_walk(self):
        # Dropping the first producer leaves the next node reading a value
        # that never exists: the plan stops there, the walk lists every node.
        builder = GraphBuilder("g")
        value = builder.input([3])
        for op in ("Relu", "Neg", "Abs"):
            value = builder.op1(op, [value])
        model = builder.build()
        model.remove_node(model.nodes[0])
        assert len(execution_plan(model).steps) == 1
        assert self._names(_node_order(model)) == \
            self._names(model.topological_order())
        assert len(_node_order(model)) == 2


class TestOptimizers:
    def test_adam_converges_on_quadratic(self):
        params = {"w": np.array([5.0, -3.0])}
        adam = Adam(learning_rate=0.3)
        for _ in range(200):
            grads = {"w": 2 * params["w"]}
            params = adam.step(params, grads)
        np.testing.assert_allclose(params["w"], np.zeros(2), atol=1e-2)

    def test_adam_is_lazy(self):
        # An element whose gradient turns zero stays put instead of coasting
        # on its momentum; the other element keeps descending.
        adam = Adam()
        first = adam.step({"w": np.zeros(2)}, {"w": np.ones(2)})
        second = adam.step(first, {"w": np.array([1.0, 0.0])})
        assert second["w"][0] < first["w"][0]
        assert second["w"][1] == first["w"][1]

    def test_adam_reset(self):
        adam = Adam()
        adam.step({"w": np.ones(2)}, {"w": np.ones(2)})
        adam.reset()
        assert adam._step == 0

    def test_sgd_step(self):
        sgd = SGD(learning_rate=0.5)
        updated = sgd.step({"w": np.array([1.0])}, {"w": np.array([2.0])})
        np.testing.assert_allclose(updated["w"], [0.0])

    def test_adam_handles_missing_grad(self):
        adam = Adam()
        updated = adam.step({"w": np.ones(3)}, {})
        np.testing.assert_allclose(updated["w"], np.ones(3))
