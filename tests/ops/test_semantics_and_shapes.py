"""Operator kernels vs shape inference: behaviour and mutual consistency.

``OP_CASES`` enumerates, for (almost) every operator kind, one or more
concrete configurations.  Each case is exercised twice:

* the kernel must produce outputs whose shape/dtype match shape inference
  (this is the central invariant that makes generated models executable);
* selected cases additionally check values against a hand-computed result.
"""

import numpy as np
import pytest

from repro.dtypes import DType
from repro.errors import ShapeInferenceError
from repro.graph.node import Node
from repro.graph.tensor_type import TensorType
from repro.ops.registry import all_ops, op_info
from repro.ops.semantics import (counting_kernel_calls, execute_node,
                                 has_kernel, pad_spatial)
from repro.ops.shape_infer import infer_output_types


def _arr(shape, dtype=np.float32, low=0.5, high=2.5, seed=0):
    rng = np.random.default_rng(seed)
    if np.dtype(dtype).kind == "f":
        return rng.uniform(low, high, size=shape).astype(dtype)
    if np.dtype(dtype).kind == "b":
        return rng.integers(0, 2, size=shape).astype(bool)
    return rng.integers(1, 5, size=shape).astype(dtype)


# (op, attrs, list of input arrays)
OP_CASES = [
    # elementwise unary
    ("Relu", {}, [_arr((2, 3)) - 1.5]),
    ("LeakyRelu", {"alpha": 0.1}, [_arr((2, 3)) - 1.5]),
    ("Sigmoid", {}, [_arr((4,))]),
    ("Tanh", {}, [_arr((4,))]),
    ("Abs", {}, [_arr((2, 2)) - 1.5]),
    ("Neg", {}, [_arr((2, 2))]),
    ("Sign", {}, [_arr((5,)) - 1.5]),
    ("Exp", {}, [_arr((3,))]),
    ("Log", {}, [_arr((3,))]),
    ("Log2", {}, [_arr((3,))]),
    ("Sqrt", {}, [_arr((3,))]),
    ("Sin", {}, [_arr((3,))]),
    ("Cos", {}, [_arr((3,))]),
    ("Asin", {}, [_arr((3,), low=-0.9, high=0.9)]),
    ("Acos", {}, [_arr((3,), low=-0.9, high=0.9)]),
    ("Atan", {}, [_arr((3,))]),
    ("Floor", {}, [_arr((3,)) * 3]),
    ("Ceil", {}, [_arr((3,)) * 3]),
    ("Round", {}, [_arr((3,)) * 3]),
    ("Erf", {}, [_arr((3,))]),
    ("Softplus", {}, [_arr((3,))]),
    ("Reciprocal", {}, [_arr((3,))]),
    ("Identity", {}, [_arr((2, 3))]),
    ("Dropout", {"ratio": 0.5}, [_arr((2, 3))]),
    ("Clip", {"min": 0.0, "max": 1.0}, [_arr((2, 3)) - 1.0]),
    ("Softmax", {"axis": 1}, [_arr((2, 5))]),
    ("Not", {}, [_arr((4,), dtype=np.bool_)]),
    ("Cast", {"to": "int64"}, [_arr((2, 3)) * 4]),
    ("Cast", {"to": "float64"}, [_arr((2, 3), dtype=np.int32)]),
    # binary broadcasting
    ("Add", {}, [_arr((2, 3)), _arr((1, 3), seed=1)]),
    ("Sub", {}, [_arr((2, 3)), _arr((3,), seed=1)]),
    ("Mul", {}, [_arr((4, 1)), _arr((1, 5), seed=1)]),
    ("Div", {}, [_arr((2, 3)), _arr((2, 3), seed=1)]),
    ("Div", {}, [_arr((2, 3), dtype=np.int32), _arr((2, 3), dtype=np.int32, seed=1)]),
    ("Pow", {}, [_arr((2, 2)), _arr((2, 2), seed=1)]),
    ("Max", {}, [_arr((2, 3)), _arr((2, 3), seed=1)]),
    ("Min", {}, [_arr((2, 3)), _arr((2, 3), seed=1)]),
    ("Mod", {}, [_arr((2, 3)) * 7, _arr((2, 3), seed=1) * 3]),
    ("Equal", {}, [_arr((2, 3)), _arr((2, 3), seed=1)]),
    ("Greater", {}, [_arr((2, 3)), _arr((2, 3), seed=1)]),
    ("Less", {}, [_arr((2, 3)), _arr((1, 3), seed=1)]),
    ("GreaterOrEqual", {}, [_arr((2, 3)), _arr((2, 3), seed=1)]),
    ("LessOrEqual", {}, [_arr((2, 3)), _arr((2, 3), seed=1)]),
    ("And", {}, [_arr((4,), dtype=np.bool_), _arr((4,), dtype=np.bool_, seed=1)]),
    ("Or", {}, [_arr((4,), dtype=np.bool_), _arr((4,), dtype=np.bool_, seed=1)]),
    ("Xor", {}, [_arr((4,), dtype=np.bool_), _arr((4,), dtype=np.bool_, seed=1)]),
    ("Where", {}, [_arr((2, 3), dtype=np.bool_), _arr((2, 3)), _arr((1, 3), seed=1)]),
    # matrix / nn
    ("MatMul", {}, [_arr((3, 4)), _arr((4, 5), seed=1)]),
    ("MatMul", {}, [_arr((4,)), _arr((4, 5), seed=1)]),
    ("MatMul", {}, [_arr((3, 4)), _arr((4,), seed=1)]),
    ("MatMul", {}, [_arr((4,)), _arr((4,), seed=1)]),
    ("Gemm", {}, [_arr((3, 4)), _arr((4, 5), seed=1), _arr((5,), seed=2)]),
    ("Conv2d", {"stride": 1, "padding": 1}, [_arr((1, 3, 6, 6)), _arr((4, 3, 3, 3), seed=1)]),
    ("Conv2d", {"stride": 2, "padding": 0, "dilation": 2},
     [_arr((1, 2, 9, 9)), _arr((3, 2, 2, 2), seed=1)]),
    ("Conv2d", {"stride": 1, "padding": 0},
     [_arr((2, 2, 5, 5)), _arr((2, 2, 1, 1), seed=1), _arr((2,), seed=2)]),
    ("MaxPool2d", {"kh": 2, "kw": 2, "stride": 2, "padding": 0}, [_arr((1, 2, 6, 6))]),
    ("AvgPool2d", {"kh": 3, "kw": 3, "stride": 1, "padding": 1}, [_arr((1, 2, 5, 5))]),
    ("GlobalAvgPool2d", {}, [_arr((2, 3, 4, 4))]),
    ("BatchNorm", {"epsilon": 1e-5},
     [_arr((2, 3, 4, 4)), _arr((3,), seed=1), _arr((3,), seed=2),
      _arr((3,), seed=3), _arr((3,), seed=4)]),
    ("Resize2d", {"scale_h": 2, "scale_w": 3}, [_arr((1, 2, 3, 3))]),
    # data movement
    ("Reshape", {"shape": [3, 8]}, [_arr((2, 3, 4))]),
    ("Reshape", {"shape": [4, -1]}, [_arr((2, 3, 4))]),
    ("Flatten", {"axis": 2}, [_arr((2, 3, 4, 5))]),
    ("Transpose", {"perm": [1, 0, 2]}, [_arr((2, 3, 4))]),
    ("Transpose", {}, [_arr((2, 3))]),
    ("Squeeze", {"axes": [1]}, [_arr((2, 1, 4))]),
    ("Squeeze", {}, [_arr((1, 2, 1, 4))]),
    ("Unsqueeze", {"axes": [0, 2]}, [_arr((3, 4))]),
    ("Slice", {"starts": [1], "ends": [4], "axes": [1], "steps": [2]}, [_arr((2, 6))]),
    ("Slice", {"starts": [0, 1], "ends": [2, 5], "axes": [0, 1], "steps": [1, 1]},
     [_arr((3, 6))]),
    ("Pad", {"pads": [1, 2, 1, 2], "mode": "constant", "value": 0.0}, [_arr((2, 3))]),
    ("Pad", {"pads": [0, -1, 0, 2], "mode": "constant", "value": 0.0}, [_arr((2, 4))]),
    ("Pad", {"pads": [4, -1, -4, 8], "mode": "constant", "value": 0.0}, [_arr((1, 1))]),
    ("Pad", {"pads": [0, 1, 0, 1], "mode": "reflect"}, [_arr((2, 3))]),
    ("Pad", {"pads": [0, 1, 0, 1], "mode": "replicate"}, [_arr((2, 3))]),
    ("BroadcastTo", {"shape": [2, 3, 4]}, [_arr((3, 1))]),
    ("Concat", {"axis": 1}, [_arr((2, 2)), _arr((2, 3), seed=1), _arr((2, 1), seed=2)]),
    ("Split", {"axis": 1}, [_arr((2, 6))]),
    ("Tile", {"repeats": [2, 3]}, [_arr((2, 2))]),
    ("Gather", {"axis": 1}, [_arr((3, 4)), np.array([0, 2, 1], dtype=np.int64)]),
    # reductions
    ("ReduceSum", {"axes": [1], "keepdims": True}, [_arr((2, 3, 4))]),
    ("ReduceSum", {"axes": None, "keepdims": False}, [_arr((2, 3))]),
    ("ReduceMean", {"axes": [0, 2], "keepdims": False}, [_arr((2, 3, 4))]),
    ("ReduceMax", {"axes": [1], "keepdims": False}, [_arr((2, 3))]),
    ("ReduceMin", {"axes": [0], "keepdims": True}, [_arr((2, 3))]),
    ("ReduceProd", {"axes": [1], "keepdims": False}, [_arr((2, 3))]),
    ("ArgMax", {"axis": 1, "keepdims": False}, [_arr((2, 5))]),
    ("ArgMax", {"axis": 0, "keepdims": True}, [_arr((3, 2))]),
    ("ArgMin", {"axis": 1, "keepdims": False}, [_arr((2, 5))]),
]

_CASE_IDS = [f"{case[0]}-{index}" for index, case in enumerate(OP_CASES)]


@pytest.mark.parametrize("op,attrs,inputs", OP_CASES, ids=_CASE_IDS)
def test_kernel_matches_shape_inference(op, attrs, inputs):
    """The central invariant: inferred types equal actual kernel output types."""
    node = Node(op, "n", [f"i{k}" for k in range(len(inputs))],
                [f"o{k}" for k in range(op_info(op).n_outputs)], attrs)
    input_types = [TensorType(x.shape, DType.from_numpy(x.dtype)) for x in inputs]
    inferred = infer_output_types(node, input_types)
    outputs = execute_node(node, inputs)
    assert len(inferred) == len(outputs)
    for expected, actual in zip(inferred, outputs):
        assert tuple(actual.shape) == expected.shape, f"{op}: shape mismatch"
        assert DType.from_numpy(actual.dtype) is expected.dtype, f"{op}: dtype mismatch"


class TestKernelValues:
    def test_relu(self):
        out = execute_node(Node("Relu", "r", ["x"], ["y"]),
                           [np.array([-1.0, 2.0], dtype=np.float32)])[0]
        np.testing.assert_allclose(out, [0.0, 2.0])

    def test_conv2d_identity_kernel(self):
        x = _arr((1, 1, 4, 4))
        w = np.ones((1, 1, 1, 1), dtype=np.float32)
        out = execute_node(Node("Conv2d", "c", [], [], {"stride": 1, "padding": 0}),
                           [x, w])[0]
        np.testing.assert_allclose(out, x, rtol=1e-6)

    def test_integer_div_truncates(self):
        out = execute_node(Node("Div", "d", [], []),
                           [np.array([7, 8], dtype=np.int32),
                            np.array([2, 3], dtype=np.int32)])[0]
        np.testing.assert_array_equal(out, [3, 2])

    def test_where_selects(self):
        out = execute_node(Node("Where", "w", [], []),
                           [np.array([True, False]), np.array([1.0, 1.0]),
                            np.array([2.0, 2.0])])[0]
        np.testing.assert_allclose(out, [1.0, 2.0])

    def test_softmax_rows_sum_to_one(self):
        out = execute_node(Node("Softmax", "s", [], [], {"axis": 1}),
                           [_arr((3, 5))])[0]
        np.testing.assert_allclose(out.sum(axis=1), np.ones(3), rtol=1e-5)

    def test_pad_negative_crops(self):
        x = np.arange(6, dtype=np.float32).reshape(1, 6)
        out = execute_node(Node("Pad", "p", [], [],
                                {"pads": [0, -2, 0, -1], "mode": "constant"}), [x])[0]
        np.testing.assert_allclose(out, [[2.0, 3.0, 4.0]])

    def test_batchnorm_normalizes(self):
        x = _arr((2, 3, 2, 2), seed=5)
        scale = np.ones(3, dtype=np.float32)
        bias = np.zeros(3, dtype=np.float32)
        mean = x.mean(axis=(0, 2, 3)).astype(np.float32)
        var = x.var(axis=(0, 2, 3)).astype(np.float32)
        out = execute_node(Node("BatchNorm", "bn", [], [], {"epsilon": 1e-5}),
                           [x, scale, bias, mean, var])[0]
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), np.zeros(3), atol=1e-4)

    def test_argmax_dtype(self):
        out = execute_node(Node("ArgMax", "a", [], [], {"axis": 1}), [_arr((2, 4))])[0]
        assert out.dtype == np.int64

    def test_resize_nearest(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
        out = execute_node(Node("Resize2d", "r", [], [],
                                {"scale_h": 2, "scale_w": 2}), [x])[0]
        assert out.shape == (1, 1, 4, 4)
        np.testing.assert_allclose(out[0, 0], [[1, 1, 2, 2], [1, 1, 2, 2],
                                               [3, 3, 4, 4], [3, 3, 4, 4]])


class TestKernelCallCounter:
    def _relu(self, name="r"):
        execute_node(Node("Relu", name, [], []), [_arr((2,))])

    def test_counts_calls_per_node_inside_the_block(self):
        with counting_kernel_calls() as calls:
            self._relu("a")
            self._relu("a")
            execute_node(Node("Neg", "b", [], []), [_arr((2,))])
        assert calls == {("a", "Relu"): 2, ("b", "Neg"): 1}

    def test_nothing_counted_outside_the_block(self):
        with counting_kernel_calls() as calls:
            pass
        self._relu()
        assert calls == {}

    def test_nested_block_restores_the_outer_counter(self):
        with counting_kernel_calls() as outer:
            with counting_kernel_calls() as inner:
                self._relu("in")
            self._relu("out")
        assert inner == {("in", "Relu"): 1}
        assert outer == {("out", "Relu"): 1}

    def test_exception_restores_the_outer_counter(self):
        with counting_kernel_calls() as outer:
            with pytest.raises(RuntimeError):
                with counting_kernel_calls():
                    raise RuntimeError("kernel failed")
            self._relu()
        assert outer == {("r", "Relu"): 1}


class TestPadSpatial:
    """``pad_spatial`` is the conv and pool kernels' ``np.pad``: the same
    dtype, bytes and memory layout for every fill they use."""

    @staticmethod
    def _layouts(array):
        # C order, Fortran order, and a strided view that is neither.
        yield array
        yield np.asfortranarray(array)
        yield np.concatenate([array, array], axis=3)[:, :, :, ::2]

    @pytest.mark.parametrize("dtype", ["float32", "float64", "int32",
                                       "int64"])
    @pytest.mark.parametrize("padding", [0, 1, 2, 3])
    @pytest.mark.parametrize("fill", ["zero", "lowest"])
    def test_matches_np_pad(self, dtype, padding, fill):
        dtype = np.dtype(dtype)
        value = 0
        if fill == "lowest":
            value = -np.inf if dtype.kind == "f" else np.iinfo(dtype).min
        base = np.random.default_rng(padding).normal(
            size=(2, 3, 4, 5)) * 100
        for x in self._layouts(base.astype(dtype)):
            expected = np.pad(x, ((0, 0), (0, 0), (padding, padding),
                                  (padding, padding)), constant_values=value)
            padded = pad_spatial(x, padding, value)
            assert padded.dtype == expected.dtype
            assert padded.shape == expected.shape
            assert padded.strides == expected.strides
            assert padded.tobytes("A") == expected.tobytes("A")
            if padding == 0 and x.flags.c_contiguous:
                assert padded is x


class TestShapeInferenceErrors:
    @pytest.mark.parametrize("op,attrs,shapes", [
        ("MatMul", {}, [(2, 3), (4, 5)]),
        ("Conv2d", {"stride": 1, "padding": 0}, [(1, 3, 2, 2), (4, 3, 5, 5)]),
        ("Conv2d", {"stride": 1, "padding": 0}, [(1, 3, 6, 6), (4, 2, 3, 3)]),
        ("Reshape", {"shape": [7]}, [(2, 3)]),
        ("Concat", {"axis": 0}, [(2, 3), (2, 4)]),
        ("Squeeze", {"axes": [0]}, [(2, 3)]),
        ("Transpose", {"perm": [0, 0]}, [(2, 3)]),
        ("BroadcastTo", {"shape": [2, 3]}, [(4,)]),
        ("Gemm", {}, [(2, 3), (4, 5)]),
        ("Split", {"axis": 0}, [(3, 2)]),
        ("Tile", {"repeats": [2]}, [(2, 3)]),
        ("Pad", {"pads": [0, 0]}, [(2, 3)]),
    ])
    def test_invalid_configurations_rejected(self, op, attrs, shapes):
        node = Node(op, "n", [f"i{k}" for k in range(len(shapes))], ["o0"], attrs)
        types = [TensorType(shape, DType.float32) for shape in shapes]
        with pytest.raises(ShapeInferenceError):
            infer_output_types(node, types)

    def test_unknown_operator(self):
        with pytest.raises(ShapeInferenceError):
            infer_output_types(Node("Bogus", "b", ["x"], ["y"]),
                               [TensorType((2,), DType.float32)])


class TestRepeatedInference:
    """Inference is recomputed on every call from ``(op, attrs, input
    types)``: equal answers, never a shared list, and an error every time."""

    def test_each_call_returns_a_new_equal_list(self):
        node = Node("Relu", "r", ["x"], ["y"])
        types = [TensorType((3, 4), DType.float32)]
        first = infer_output_types(node, types)
        second = infer_output_types(node, tuple(types))
        assert first == second and first is not second
        first.append("sentinel")
        assert infer_output_types(node, types) == second

    def test_array_valued_attr_is_accepted(self):
        plain = Node("Relu", "r", ["x"], ["y"])
        arrayed = Node("Relu", "r", ["x"], ["y"],
                       attrs={"extra": np.array([1, 2])})
        types = [TensorType((2,), DType.float32)]
        assert infer_output_types(arrayed, types) == \
            infer_output_types(plain, types)

    def test_failed_inference_raises_on_every_call(self):
        node = Node("Add", "a", ["x", "y"], ["z"])
        types = [TensorType((3,), DType.float32),
                 TensorType((4,), DType.float32)]
        for _ in range(2):
            with pytest.raises(ShapeInferenceError, match="broadcast"):
                infer_output_types(node, types)


class TestRegistry:
    def test_every_registered_op_has_kernel_and_rule(self):
        from repro.ops.shape_infer import _RULES

        for info in all_ops():
            assert has_kernel(info.name), f"missing kernel for {info.name}"
            assert info.name in _RULES, f"missing shape rule for {info.name}"

    def test_shape_preserving_set(self):
        from repro.ops.registry import SHAPE_PRESERVING_OPS

        assert "Relu" in SHAPE_PRESERVING_OPS
        assert "Conv2d" not in SHAPE_PRESERVING_OPS
        assert "Reshape" not in SHAPE_PRESERVING_OPS

    def test_unknown_op_info(self):
        from repro.errors import UnsupportedOperatorError
        from repro.ops.registry import op_info

        with pytest.raises(UnsupportedOperatorError):
            op_info("NoSuchOp")

    def test_conflicting_registration_rejected(self):
        from repro.ops.registry import OpCategory, register_op

        with pytest.raises(ValueError):
            register_op("Relu", OpCategory.reduction, 3)
