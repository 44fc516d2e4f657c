"""Concrete shape and dtype inference for every operator kind.

``infer_output_types(node, input_types)`` mirrors the numpy kernels in
:mod:`repro.ops.semantics`: for every operator the inferred output type must
equal the type of the array the kernel would actually produce.  A property
test in ``tests/ops/test_consistency.py`` checks this agreement.

These rules serve two roles:

* the model validator (:mod:`repro.graph.validate`) — the "type checker"
  that DL compilers run on imported models, and
* the compilers' own shape-inference stages.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence

from repro.dtypes import DType, promote
from repro.errors import ShapeInferenceError
from repro.graph.node import Node
from repro.graph.tensor_type import TensorType, broadcast_shapes

InferRule = Callable[[Node, List[TensorType]], List[TensorType]]

_RULES: Dict[str, InferRule] = {}


def rule(*names: str) -> Callable[[InferRule], InferRule]:
    def wrap(func: InferRule) -> InferRule:
        for name in names:
            _RULES[name] = func
        return func

    return wrap


def infer_output_types(node: Node, input_types: Sequence[TensorType]) -> List[TensorType]:
    """Infer the output types of ``node`` given its concrete input types."""
    func = _RULES.get(node.op)
    if func is None:
        raise ShapeInferenceError(f"no shape inference rule for operator {node.op!r}")
    try:
        return func(node, list(input_types))
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        raise ShapeInferenceError(f"{node.op}: {exc}") from exc


def _float_like(dtype: DType) -> DType:
    """Match the kernel convention: float dtypes pass through, ints promote."""
    return dtype if dtype.is_float else DType.float64


def _expect_inputs(node: Node, input_types: Sequence[TensorType], count: int) -> None:
    if len(input_types) != count:
        raise ShapeInferenceError(
            f"{node.op} expects {count} inputs, got {len(input_types)}")


# --------------------------------------------------------------------------- #
# Elementwise
# --------------------------------------------------------------------------- #
@rule("Relu", "LeakyRelu", "Abs", "Neg", "Sign", "Floor", "Ceil", "Round",
      "Identity", "Dropout", "Clip")
def _same_type(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 1)
    return [inputs[0]]


@rule("Exp", "Log", "Log2", "Sqrt", "Sin", "Cos", "Asin", "Acos", "Atan",
      "Sigmoid", "Tanh", "Softplus", "Erf", "Reciprocal", "Softmax")
def _float_unary(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 1)
    return [TensorType(inputs[0].shape, _float_like(inputs[0].dtype))]


@rule("Not")
def _not_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 1)
    return [TensorType(inputs[0].shape, DType.bool_)]


@rule("Cast")
def _cast_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 1)
    return [TensorType(inputs[0].shape, DType.from_str(node.attrs["to"]))]


@rule("Add", "Sub", "Mul", "Div", "Max", "Min", "Mod")
def _binary_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 2)
    shape = broadcast_shapes(inputs[0].shape, inputs[1].shape)
    return [TensorType(shape, promote(inputs[0].dtype, inputs[1].dtype))]


@rule("Pow")
def _pow_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 2)
    shape = broadcast_shapes(inputs[0].shape, inputs[1].shape)
    dtype = promote(inputs[0].dtype, inputs[1].dtype)
    if not dtype.is_float:
        dtype = DType.float64
    return [TensorType(shape, dtype)]


@rule("Equal", "Greater", "Less", "GreaterOrEqual", "LessOrEqual",
      "And", "Or", "Xor")
def _compare_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 2)
    shape = broadcast_shapes(inputs[0].shape, inputs[1].shape)
    return [TensorType(shape, DType.bool_)]


@rule("Where")
def _where_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 3)
    cond, lhs, rhs = inputs
    shape = broadcast_shapes(broadcast_shapes(cond.shape, lhs.shape), rhs.shape)
    return [TensorType(shape, promote(lhs.dtype, rhs.dtype))]


# --------------------------------------------------------------------------- #
# Matrix / NN
# --------------------------------------------------------------------------- #
@rule("MatMul")
def _matmul_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 2)
    lhs, rhs = inputs
    dtype = promote(lhs.dtype, rhs.dtype)
    a, b = lhs.shape, rhs.shape
    if len(a) == 0 or len(b) == 0:
        raise ShapeInferenceError("MatMul does not accept scalar inputs")
    if len(a) == 1 and len(b) == 1:
        if a[0] != b[0]:
            raise ShapeInferenceError(f"MatMul contraction mismatch {a} vs {b}")
        return [TensorType((), dtype)]
    if len(a) == 1:
        if a[0] != b[-2]:
            raise ShapeInferenceError(f"MatMul contraction mismatch {a} vs {b}")
        return [TensorType(b[:-2] + (b[-1],), dtype)]
    if len(b) == 1:
        if a[-1] != b[0]:
            raise ShapeInferenceError(f"MatMul contraction mismatch {a} vs {b}")
        return [TensorType(a[:-1], dtype)]
    if a[-1] != b[-2]:
        raise ShapeInferenceError(f"MatMul contraction mismatch {a} vs {b}")
    batch = broadcast_shapes(a[:-2], b[:-2])
    return [TensorType(batch + (a[-2], b[-1]), dtype)]


@rule("Gemm")
def _gemm_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    if len(inputs) not in (2, 3):
        raise ShapeInferenceError("Gemm expects 2 or 3 inputs")
    x, w = inputs[0], inputs[1]
    if x.rank != 2 or w.rank != 2:
        raise ShapeInferenceError("Gemm expects rank-2 inputs")
    if x.shape[1] != w.shape[0]:
        raise ShapeInferenceError(
            f"Gemm contraction mismatch {x.shape} vs {w.shape}")
    dtype = promote(x.dtype, w.dtype)
    if len(inputs) == 3 and inputs[2].shape not in ((w.shape[1],), (), (1,)):
        raise ShapeInferenceError("Gemm bias shape must be (N,)")
    return [TensorType((x.shape[0], w.shape[1]), dtype)]


@rule("Conv2d")
def _conv2d_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    if len(inputs) not in (2, 3):
        raise ShapeInferenceError("Conv2d expects 2 or 3 inputs")
    x, w = inputs[0], inputs[1]
    if x.rank != 4 or w.rank != 4:
        raise ShapeInferenceError("Conv2d expects rank-4 input and kernel")
    stride = int(node.attrs.get("stride", 1))
    padding = int(node.attrs.get("padding", 0))
    dilation = int(node.attrs.get("dilation", 1))
    batch, in_ch, in_h, in_w = x.shape
    out_ch, w_in_ch, k_h, k_w = w.shape
    if in_ch != w_in_ch:
        raise ShapeInferenceError(
            f"Conv2d channel mismatch: {in_ch} vs kernel {w_in_ch}")
    eff_kh = (k_h - 1) * dilation + 1
    eff_kw = (k_w - 1) * dilation + 1
    out_h = (in_h + 2 * padding - eff_kh) // stride + 1
    out_w = (in_w + 2 * padding - eff_kw) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ShapeInferenceError("Conv2d output would be empty")
    if len(inputs) == 3 and inputs[2].shape != (out_ch,):
        raise ShapeInferenceError("Conv2d bias must have shape (out_channels,)")
    return [TensorType((batch, out_ch, out_h, out_w), promote(x.dtype, w.dtype))]


def _pool_rule(node: Node, inputs: List[TensorType], average: bool) -> List[TensorType]:
    _expect_inputs(node, inputs, 1)
    x = inputs[0]
    if x.rank != 4:
        raise ShapeInferenceError("2-D pooling expects a rank-4 input")
    k_h, k_w = int(node.attrs["kh"]), int(node.attrs["kw"])
    stride = int(node.attrs.get("stride", 1))
    padding = int(node.attrs.get("padding", 0))
    batch, channels, in_h, in_w = x.shape
    out_h = (in_h + 2 * padding - k_h) // stride + 1
    out_w = (in_w + 2 * padding - k_w) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ShapeInferenceError("pooling output would be empty")
    dtype = x.dtype if x.dtype.is_float else DType.float64
    return [TensorType((batch, channels, out_h, out_w), dtype)]


@rule("MaxPool2d")
def _maxpool_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    return _pool_rule(node, inputs, average=False)


@rule("AvgPool2d")
def _avgpool_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    return _pool_rule(node, inputs, average=True)


@rule("GlobalAvgPool2d")
def _global_avgpool_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 1)
    x = inputs[0]
    if x.rank != 4:
        raise ShapeInferenceError("GlobalAvgPool2d expects a rank-4 input")
    return [TensorType((x.shape[0], x.shape[1], 1, 1), _float_like(x.dtype))]


@rule("BatchNorm")
def _batchnorm_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 5)
    x = inputs[0]
    if x.rank < 2:
        raise ShapeInferenceError("BatchNorm expects rank >= 2")
    channels = x.shape[1]
    for name, param in zip(("scale", "bias", "mean", "var"), inputs[1:]):
        if param.shape != (channels,):
            raise ShapeInferenceError(
                f"BatchNorm {name} must have shape ({channels},), got {param.shape}")
    return [TensorType(x.shape, _float_like(x.dtype))]


@rule("Resize2d")
def _resize_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 1)
    x = inputs[0]
    if x.rank != 4:
        raise ShapeInferenceError("Resize2d expects a rank-4 input")
    scale_h = int(node.attrs.get("scale_h", 2))
    scale_w = int(node.attrs.get("scale_w", 2))
    if scale_h < 1 or scale_w < 1:
        raise ShapeInferenceError("Resize2d scales must be >= 1")
    shape = (x.shape[0], x.shape[1], x.shape[2] * scale_h, x.shape[3] * scale_w)
    return [TensorType(shape, x.dtype)]


# --------------------------------------------------------------------------- #
# Data movement
# --------------------------------------------------------------------------- #
@rule("Reshape")
def _reshape_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 1)
    x = inputs[0]
    shape = [int(d) for d in node.attrs["shape"]]
    negative = [i for i, d in enumerate(shape) if d == -1]
    if len(negative) > 1:
        raise ShapeInferenceError("Reshape allows at most one -1 dimension")
    if negative:
        known = math.prod(d for d in shape if d != -1)
        if known == 0 or x.numel % known != 0:
            raise ShapeInferenceError(
                f"cannot infer -1 in Reshape target {shape} from {x.shape}")
        shape[negative[0]] = x.numel // known
    if math.prod(shape) != x.numel:
        raise ShapeInferenceError(
            f"Reshape element count mismatch: {x.shape} -> {shape}")
    return [TensorType(shape, x.dtype)]


@rule("Flatten")
def _flatten_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 1)
    x = inputs[0]
    axis = int(node.attrs.get("axis", 1))
    if not 0 <= axis <= x.rank:
        raise ShapeInferenceError(f"Flatten axis {axis} out of range for rank {x.rank}")
    lead = math.prod(x.shape[:axis]) if axis > 0 else 1
    trail = math.prod(x.shape[axis:]) if axis < x.rank else 1
    return [TensorType((lead, trail), x.dtype)]


@rule("Transpose")
def _transpose_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 1)
    x = inputs[0]
    perm = node.attrs.get("perm")
    perm = [int(p) for p in perm] if perm is not None else list(range(x.rank))[::-1]
    if sorted(perm) != list(range(x.rank)):
        raise ShapeInferenceError(f"invalid permutation {perm} for rank {x.rank}")
    return [TensorType(tuple(x.shape[p] for p in perm), x.dtype)]


@rule("Squeeze")
def _squeeze_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 1)
    x = inputs[0]
    axes = node.attrs.get("axes")
    if axes is None:
        shape = tuple(d for d in x.shape if d != 1)
        return [TensorType(shape, x.dtype)]
    axes = {int(a) % max(x.rank, 1) for a in axes}
    for axis in axes:
        if x.shape[axis] != 1:
            raise ShapeInferenceError(
                f"cannot squeeze axis {axis} of size {x.shape[axis]}")
    shape = tuple(d for i, d in enumerate(x.shape) if i not in axes)
    return [TensorType(shape, x.dtype)]


@rule("Unsqueeze")
def _unsqueeze_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 1)
    x = inputs[0]
    axes = sorted(int(a) for a in node.attrs["axes"])
    shape = list(x.shape)
    for axis in axes:
        if not 0 <= axis <= len(shape):
            raise ShapeInferenceError(f"Unsqueeze axis {axis} out of range")
        shape.insert(axis, 1)
    return [TensorType(shape, x.dtype)]


@rule("Slice")
def _slice_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 1)
    x = inputs[0]
    starts = [int(v) for v in node.attrs["starts"]]
    ends = [int(v) for v in node.attrs["ends"]]
    axes = [int(v) for v in node.attrs.get("axes", range(len(starts)))]
    steps = [int(v) for v in node.attrs.get("steps", [1] * len(starts))]
    shape = list(x.shape)
    for start, end, axis, step in zip(starts, ends, axes, steps):
        if axis >= x.rank:
            raise ShapeInferenceError(f"Slice axis {axis} out of range")
        if step <= 0:
            raise ShapeInferenceError("Slice steps must be positive")
        length = shape[axis]
        start_clamped = min(max(start if start >= 0 else start + length, 0), length)
        end_clamped = min(max(end if end >= 0 else end + length, 0), length)
        extent = max(0, end_clamped - start_clamped)
        shape[axis] = (extent + step - 1) // step
    if any(d == 0 for d in shape):
        raise ShapeInferenceError("Slice produces an empty tensor")
    return [TensorType(shape, x.dtype)]


@rule("Pad")
def _pad_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 1)
    x = inputs[0]
    pads = [int(p) for p in node.attrs["pads"]]
    if len(pads) != 2 * x.rank:
        raise ShapeInferenceError(
            f"Pad expects {2 * x.rank} pad values, got {len(pads)}")
    shape = []
    for i, dim in enumerate(x.shape):
        new_dim = dim + pads[i] + pads[i + x.rank]
        if new_dim <= 0:
            raise ShapeInferenceError("Pad produces an empty tensor")
        shape.append(new_dim)
    return [TensorType(shape, x.dtype)]


@rule("BroadcastTo")
def _broadcast_to_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 1)
    x = inputs[0]
    shape = tuple(int(d) for d in node.attrs["shape"])
    expanded = broadcast_shapes(x.shape, shape)
    if expanded != shape:
        raise ShapeInferenceError(
            f"cannot broadcast {x.shape} to {shape}")
    return [TensorType(shape, x.dtype)]


@rule("Concat")
def _concat_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    if not inputs:
        raise ShapeInferenceError("Concat requires at least one input")
    axis = int(node.attrs.get("axis", 0))
    first = inputs[0]
    if not 0 <= axis < max(first.rank, 1):
        raise ShapeInferenceError(f"Concat axis {axis} out of range")
    dtype = first.dtype
    total = 0
    for t in inputs:
        if t.rank != first.rank:
            raise ShapeInferenceError("Concat inputs must have equal rank")
        for i in range(first.rank):
            if i != axis and t.shape[i] != first.shape[i]:
                raise ShapeInferenceError(
                    f"Concat inputs disagree on dimension {i}: {t.shape} vs {first.shape}")
        total += t.shape[axis]
        dtype = promote(dtype, t.dtype)
    shape = list(first.shape)
    shape[axis] = total
    return [TensorType(shape, dtype)]


@rule("Split")
def _split_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 1)
    x = inputs[0]
    axis = int(node.attrs.get("axis", 0))
    if not 0 <= axis < max(x.rank, 1):
        raise ShapeInferenceError(f"Split axis {axis} out of range")
    if x.shape[axis] % 2 != 0:
        raise ShapeInferenceError("Split requires an even dimension")
    shape = list(x.shape)
    shape[axis] //= 2
    half = TensorType(shape, x.dtype)
    return [half, half]


@rule("Tile")
def _tile_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 1)
    x = inputs[0]
    repeats = [int(r) for r in node.attrs["repeats"]]
    if len(repeats) != x.rank:
        raise ShapeInferenceError("Tile repeats must match input rank")
    if any(r < 1 for r in repeats):
        raise ShapeInferenceError("Tile repeats must be >= 1")
    return [TensorType(tuple(d * r for d, r in zip(x.shape, repeats)), x.dtype)]


@rule("Gather")
def _gather_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 2)
    data, indices = inputs
    axis = int(node.attrs.get("axis", 0))
    if not 0 <= axis < max(data.rank, 1):
        raise ShapeInferenceError(f"Gather axis {axis} out of range")
    if not indices.dtype.is_int:
        raise ShapeInferenceError("Gather indices must be integers")
    shape = data.shape[:axis] + indices.shape + data.shape[axis + 1:]
    return [TensorType(shape, data.dtype)]


# --------------------------------------------------------------------------- #
# Reductions
# --------------------------------------------------------------------------- #
def _reduced_shape(shape, axes, keepdims):
    rank = len(shape)
    if axes is None:
        axes_set = set(range(rank))
    else:
        axes_set = {int(a) % rank if rank else 0 for a in axes}
    result = []
    for i, dim in enumerate(shape):
        if i in axes_set:
            if keepdims:
                result.append(1)
        else:
            result.append(dim)
    return tuple(result)


@rule("ReduceSum", "ReduceMax", "ReduceMin", "ReduceProd")
def _reduce_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 1)
    x = inputs[0]
    shape = _reduced_shape(x.shape, node.attrs.get("axes"),
                           bool(node.attrs.get("keepdims", False)))
    return [TensorType(shape, x.dtype)]


@rule("ReduceMean")
def _reduce_mean_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 1)
    x = inputs[0]
    shape = _reduced_shape(x.shape, node.attrs.get("axes"),
                           bool(node.attrs.get("keepdims", False)))
    return [TensorType(shape, _float_like(x.dtype))]


@rule("ArgMax", "ArgMin")
def _arg_rule(node: Node, inputs: List[TensorType]) -> List[TensorType]:
    _expect_inputs(node, inputs, 1)
    x = inputs[0]
    if x.rank == 0:
        raise ShapeInferenceError(f"{node.op} requires a non-scalar input")
    axis = int(node.attrs.get("axis", 0)) % x.rank
    keepdims = bool(node.attrs.get("keepdims", False))
    shape = list(x.shape)
    if keepdims:
        shape[axis] = 1
    else:
        shape.pop(axis)
    return [TensorType(shape, DType.int64)]
