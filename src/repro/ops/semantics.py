"""Reference numpy semantics for every operator kind.

These kernels define what each operator *means*.  They are used by:

* the reference interpreter (:mod:`repro.runtime.interpreter`) — the oracle
  of the differential-testing harness (the "PyTorch" of this repo), and
* the kernel libraries of the compilers under test — so that a compiler
  whose optimization passes are correct produces bit-identical results to the
  oracle, and any observed divergence is attributable to a (seeded or real)
  bug in its conversion/transformation logic.

The compilers dispatch through :func:`execute_node`, which is also where the
``perf`` oracle counts their work (:func:`counting_kernel_calls`).
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.dtypes import DType, promote
from repro.errors import ExecutionError, UnsupportedOperatorError
from repro.graph.node import Node

Kernel = Callable[[dict, List[np.ndarray]], List[np.ndarray]]

_KERNELS: Dict[str, Kernel] = {}


def kernel(name: str) -> Callable[[Kernel], Kernel]:
    """Decorator registering a kernel for an operator kind."""

    def wrap(func: Kernel) -> Kernel:
        _KERNELS[name] = func
        return func

    return wrap


def has_kernel(name: str) -> bool:
    return name in _KERNELS


def kernel_for(name: str):
    """The registered kernel for ``name``, or ``None`` (used by execution
    plans to resolve dispatch once per model instead of once per run)."""
    return _KERNELS.get(name)


#: The counter of the innermost open :func:`counting_kernel_calls` block.
_kernel_calls: Optional[Counter] = None


@contextmanager
def counting_kernel_calls() -> Iterator[Counter]:
    """Count :func:`execute_node` calls per ``(node.name, node.op)``.

    Only calls made while the block is open are counted, into the
    ``Counter`` it yields.  A nested block counts into its own counter and
    the enclosing one resumes when it exits, also on an exception.  The
    reference interpreter resolves kernels with :func:`kernel_for` and never
    enters :func:`execute_node`, so it is never counted.
    """
    global _kernel_calls
    previous = _kernel_calls
    _kernel_calls = counter = Counter()
    try:
        yield counter
    finally:
        _kernel_calls = previous


def execute_node(node: Node, inputs: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Execute one node on concrete input arrays."""
    func = _KERNELS.get(node.op)
    if func is None:
        raise UnsupportedOperatorError(f"no kernel for operator {node.op!r}")
    if _kernel_calls is not None:
        _kernel_calls[node.name, node.op] += 1
    try:
        return func(node.attrs, [np.asarray(x) for x in inputs])
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        raise ExecutionError(f"kernel {node.op} failed: {exc}") from exc


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def _result_dtype(inputs: Sequence[np.ndarray]) -> np.dtype:
    result = DType.from_numpy(inputs[0].dtype)
    for array in inputs[1:]:
        result = promote(result, DType.from_numpy(array.dtype))
    return result.numpy


def _unary(func: Callable[[np.ndarray], np.ndarray]) -> Kernel:
    def run(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
        (x,) = inputs
        with np.errstate(all="ignore"):
            out = func(x.astype(np.float64) if x.dtype.kind in "iub" else x)
        return [np.asarray(out).astype(_float_like(x.dtype))]

    return run


def _float_like(dtype: np.dtype) -> np.dtype:
    """Float unary ops keep float dtype; integer inputs are promoted to f64."""
    if np.dtype(dtype).kind == "f":
        return np.dtype(dtype)
    return np.dtype(np.float64)


def _binary(func: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Kernel:
    def run(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
        lhs, rhs = inputs
        target = _result_dtype(inputs)
        with np.errstate(all="ignore"):
            out = func(lhs.astype(target), rhs.astype(target))
        return [np.asarray(out).astype(target)]

    return run


def _comparison(func: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Kernel:
    def run(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
        lhs, rhs = inputs
        target = _result_dtype(inputs)
        return [np.asarray(func(lhs.astype(target), rhs.astype(target)), dtype=np.bool_)]

    return run


def _logical(func: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Kernel:
    def run(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
        lhs, rhs = inputs
        return [np.asarray(func(lhs.astype(np.bool_), rhs.astype(np.bool_)), dtype=np.bool_)]

    return run


# --------------------------------------------------------------------------- #
# Elementwise unary
# --------------------------------------------------------------------------- #
@kernel("Relu")
def _relu(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    return [np.maximum(x, np.asarray(0, dtype=x.dtype))]


@kernel("LeakyRelu")
def _leaky_relu(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    alpha = float(attrs.get("alpha", 0.01))
    return [np.where(x >= 0, x, alpha * x).astype(x.dtype)]


@kernel("Sigmoid")
def _sigmoid(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    with np.errstate(all="ignore"):
        out = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
    return [out.astype(_float_like(x.dtype))]


@kernel("Tanh")
def _tanh(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    return [np.tanh(x).astype(_float_like(x.dtype))]


@kernel("Softplus")
def _softplus(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    with np.errstate(all="ignore"):
        out = np.logaddexp(0.0, x.astype(np.float64))
    return [out.astype(_float_like(x.dtype))]


@kernel("Erf")
def _erf(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    vec = np.vectorize(math.erf)
    return [vec(x.astype(np.float64)).astype(_float_like(x.dtype))]


@kernel("Abs")
def _abs(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    return [np.abs(x)]


@kernel("Neg")
def _neg(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    return [(-x).astype(x.dtype)]


@kernel("Sign")
def _sign(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    return [np.sign(x).astype(x.dtype)]


@kernel("Reciprocal")
def _reciprocal(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    with np.errstate(all="ignore"):
        out = 1.0 / x.astype(_float_like(x.dtype))
    return [out.astype(_float_like(x.dtype))]


_KERNELS["Exp"] = _unary(np.exp)
_KERNELS["Log"] = _unary(np.log)
_KERNELS["Log2"] = _unary(np.log2)
_KERNELS["Sqrt"] = _unary(np.sqrt)
_KERNELS["Sin"] = _unary(np.sin)
_KERNELS["Cos"] = _unary(np.cos)
_KERNELS["Asin"] = _unary(np.arcsin)
_KERNELS["Acos"] = _unary(np.arccos)
_KERNELS["Atan"] = _unary(np.arctan)


@kernel("Floor")
def _floor(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    return [np.floor(x).astype(x.dtype)]


@kernel("Ceil")
def _ceil(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    return [np.ceil(x).astype(x.dtype)]


@kernel("Round")
def _round(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    return [np.round(x).astype(x.dtype)]


@kernel("Identity")
def _identity(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    return [np.array(x, copy=True)]


@kernel("Dropout")
def _dropout(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    # Inference-mode dropout is the identity.
    (x,) = inputs
    return [np.array(x, copy=True)]


@kernel("Not")
def _not(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    return [np.logical_not(x.astype(np.bool_))]


@kernel("Clip")
def _clip(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    lo = attrs.get("min")
    hi = attrs.get("max")
    lo = -np.inf if lo is None else lo
    hi = np.inf if hi is None else hi
    return [np.clip(x, lo, hi).astype(x.dtype)]


@kernel("Cast")
def _cast(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    target = DType.from_str(attrs["to"])
    with np.errstate(all="ignore"):
        return [x.astype(target.numpy)]


@kernel("Softmax")
def _softmax(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    axis = int(attrs.get("axis", -1))
    data = x.astype(_float_like(x.dtype))
    with np.errstate(all="ignore"):
        shifted = data - np.max(data, axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out = exp / np.sum(exp, axis=axis, keepdims=True)
    return [out.astype(_float_like(x.dtype))]


# --------------------------------------------------------------------------- #
# Elementwise binary (broadcasting)
# --------------------------------------------------------------------------- #
_KERNELS["Add"] = _binary(np.add)
_KERNELS["Sub"] = _binary(np.subtract)
_KERNELS["Mul"] = _binary(np.multiply)
_KERNELS["Max"] = _binary(np.maximum)
_KERNELS["Min"] = _binary(np.minimum)
_KERNELS["Equal"] = _comparison(np.equal)
_KERNELS["Greater"] = _comparison(np.greater)
_KERNELS["Less"] = _comparison(np.less)
_KERNELS["GreaterOrEqual"] = _comparison(np.greater_equal)
_KERNELS["LessOrEqual"] = _comparison(np.less_equal)
_KERNELS["And"] = _logical(np.logical_and)
_KERNELS["Or"] = _logical(np.logical_or)
_KERNELS["Xor"] = _logical(np.logical_xor)


@kernel("Div")
def _div(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    lhs, rhs = inputs
    target = _result_dtype(inputs)
    with np.errstate(all="ignore"):
        if np.dtype(target).kind in "iu":
            out = np.floor_divide(lhs.astype(np.int64), rhs.astype(np.int64))
        else:
            out = np.divide(lhs.astype(target), rhs.astype(target))
    return [np.asarray(out).astype(target)]


@kernel("Mod")
def _mod(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    lhs, rhs = inputs
    target = _result_dtype(inputs)
    with np.errstate(all="ignore"):
        out = np.mod(lhs.astype(target), rhs.astype(target))
    return [np.asarray(out).astype(target)]


@kernel("Pow")
def _pow(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    lhs, rhs = inputs
    target = _result_dtype(inputs)
    if np.dtype(target).kind in "iu":
        target = np.dtype(np.float64)
    with np.errstate(all="ignore"):
        out = np.power(lhs.astype(target), rhs.astype(target))
    return [np.asarray(out).astype(target)]


@kernel("Where")
def _where(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    cond, lhs, rhs = inputs
    target = _result_dtype([lhs, rhs])
    return [np.where(cond.astype(np.bool_), lhs.astype(target), rhs.astype(target))]


# --------------------------------------------------------------------------- #
# Matrix / NN operators
# --------------------------------------------------------------------------- #
@kernel("MatMul")
def _matmul(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    lhs, rhs = inputs
    target = _result_dtype(inputs)
    with np.errstate(all="ignore"):
        out = np.matmul(lhs.astype(target), rhs.astype(target))
    return [np.asarray(out).astype(target)]


@kernel("Gemm")
def _gemm(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    x = inputs[0]
    w = inputs[1]
    target = _result_dtype(inputs[:2])
    with np.errstate(all="ignore"):
        out = np.matmul(x.astype(target), w.astype(target))
        if len(inputs) > 2:
            out = out + inputs[2].astype(target)
    return [np.asarray(out).astype(target)]


@kernel("Conv2d")
def _conv2d(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    x, weight = inputs[0], inputs[1]
    bias = inputs[2] if len(inputs) > 2 else None
    stride = int(attrs.get("stride", 1))
    padding = int(attrs.get("padding", 0))
    dilation = int(attrs.get("dilation", 1))
    out = conv2d_reference(x, weight, bias, stride, padding, dilation)
    return [out]


def conv2d_reference(x: np.ndarray, weight: np.ndarray, bias, stride: int,
                     padding: int, dilation: int = 1) -> np.ndarray:
    """Direct (im2col) 2-D convolution used by every backend in the repo."""
    batch, in_ch, in_h, in_w = x.shape
    out_ch, w_in_ch, k_h, k_w = weight.shape
    if in_ch != w_in_ch:
        raise ExecutionError(
            f"Conv2d channel mismatch: input has {in_ch}, kernel expects {w_in_ch}"
        )
    eff_kh = (k_h - 1) * dilation + 1
    eff_kw = (k_w - 1) * dilation + 1
    out_h = (in_h + 2 * padding - eff_kh) // stride + 1
    out_w = (in_w + 2 * padding - eff_kw) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ExecutionError("Conv2d produces an empty output")
    target = _result_dtype([x, weight])
    padded = np.pad(
        x.astype(target),
        ((0, 0), (0, 0), (padding, padding), (padding, padding)),
        mode="constant",
    )
    columns = np.zeros((batch, in_ch, k_h, k_w, out_h, out_w), dtype=target)
    for i in range(k_h):
        for j in range(k_w):
            top = i * dilation
            left = j * dilation
            columns[:, :, i, j, :, :] = padded[
                :, :,
                top:top + stride * out_h:stride,
                left:left + stride * out_w:stride,
            ]
    flat_cols = columns.reshape(batch, in_ch * k_h * k_w, out_h * out_w)
    flat_weight = weight.astype(target).reshape(out_ch, in_ch * k_h * k_w)
    with np.errstate(all="ignore"):
        out = np.einsum("of,bfp->bop", flat_weight, flat_cols)
    out = out.reshape(batch, out_ch, out_h, out_w)
    if bias is not None:
        out = out + bias.astype(target).reshape(1, out_ch, 1, 1)
    return out.astype(target)


def _pool2d(x: np.ndarray, k_h: int, k_w: int, stride: int, padding: int,
            mode: str) -> np.ndarray:
    batch, channels, in_h, in_w = x.shape
    out_h = (in_h + 2 * padding - k_h) // stride + 1
    out_w = (in_w + 2 * padding - k_w) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ExecutionError("pooling produces an empty output")
    if mode == "max":
        fill = -np.inf if x.dtype.kind == "f" else np.iinfo(x.dtype).min
    else:
        fill = 0.0
    padded = np.pad(
        x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
        mode="constant", constant_values=fill,
    )
    windows = np.zeros((batch, channels, k_h * k_w, out_h, out_w), dtype=padded.dtype)
    for i in range(k_h):
        for j in range(k_w):
            windows[:, :, i * k_w + j, :, :] = padded[
                :, :, i:i + stride * out_h:stride, j:j + stride * out_w:stride]
    if mode == "max":
        out = windows.max(axis=2)
    else:
        out = windows.astype(np.float64).mean(axis=2)
    return out.astype(x.dtype if x.dtype.kind == "f" else np.float64)


@kernel("MaxPool2d")
def _maxpool(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    return [_pool2d(x, int(attrs["kh"]), int(attrs["kw"]),
                    int(attrs.get("stride", 1)), int(attrs.get("padding", 0)), "max")]


@kernel("AvgPool2d")
def _avgpool(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    return [_pool2d(x, int(attrs["kh"]), int(attrs["kw"]),
                    int(attrs.get("stride", 1)), int(attrs.get("padding", 0)), "avg")]


@kernel("GlobalAvgPool2d")
def _global_avgpool(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    out = x.astype(np.float64).mean(axis=(2, 3), keepdims=True)
    return [out.astype(_float_like(x.dtype))]


@kernel("BatchNorm")
def _batchnorm(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    x, scale, bias, mean, var = inputs
    epsilon = float(attrs.get("epsilon", 1e-5))
    target = _float_like(x.dtype)
    shape = (1, -1) + (1,) * (x.ndim - 2)
    with np.errstate(all="ignore"):
        normalized = (x.astype(target) - mean.astype(target).reshape(shape)) / np.sqrt(
            var.astype(target).reshape(shape) + epsilon)
        out = normalized * scale.astype(target).reshape(shape) + \
            bias.astype(target).reshape(shape)
    return [out.astype(target)]


@kernel("Resize2d")
def _resize2d(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    scale_h = int(attrs.get("scale_h", 2))
    scale_w = int(attrs.get("scale_w", 2))
    out = np.repeat(np.repeat(x, scale_h, axis=2), scale_w, axis=3)
    return [out]


# --------------------------------------------------------------------------- #
# Data movement
# --------------------------------------------------------------------------- #
@kernel("Reshape")
def _reshape(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    shape = [int(d) for d in attrs["shape"]]
    return [np.reshape(x, shape)]


@kernel("Flatten")
def _flatten(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    axis = int(attrs.get("axis", 1))
    lead = int(np.prod(x.shape[:axis])) if axis > 0 else 1
    return [np.reshape(x, (lead, -1))]


@kernel("Transpose")
def _transpose(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    perm = attrs.get("perm")
    perm = [int(p) for p in perm] if perm is not None else list(range(x.ndim))[::-1]
    return [np.transpose(x, perm)]


@kernel("Squeeze")
def _squeeze(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    axes = attrs.get("axes")
    if axes is None:
        return [np.squeeze(x)]
    return [np.squeeze(x, axis=tuple(int(a) for a in axes))]


@kernel("Unsqueeze")
def _unsqueeze(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    axes = sorted(int(a) for a in attrs["axes"])
    out = x
    for axis in axes:
        out = np.expand_dims(out, axis=axis)
    return [out]


@kernel("Slice")
def _slice(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    starts = [int(v) for v in attrs["starts"]]
    ends = [int(v) for v in attrs["ends"]]
    axes = [int(v) for v in attrs.get("axes", range(len(starts)))]
    steps = [int(v) for v in attrs.get("steps", [1] * len(starts))]
    slices = [slice(None)] * x.ndim
    for start, end, axis, step in zip(starts, ends, axes, steps):
        slices[axis] = slice(start, end, step)
    return [x[tuple(slices)]]


@kernel("Pad")
def _pad(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    pads = [int(p) for p in attrs["pads"]]
    mode = attrs.get("mode", "constant")
    value = attrs.get("value", 0)
    rank = x.ndim
    pairs = [(pads[i], pads[i + rank]) for i in range(rank)]
    # Negative pad widths crop.  Following ONNX semantics, the output extent
    # is ``dim + begin + end``: positive widths are applied first, then the
    # negative widths crop the padded result from the respective edge.
    nonneg = [(max(0, before), max(0, after)) for before, after in pairs]
    if mode == "constant":
        out = np.pad(x, nonneg, mode="constant", constant_values=value)
    elif mode == "reflect":
        out = np.pad(x, nonneg, mode="reflect")
    elif mode == "replicate":
        out = np.pad(x, nonneg, mode="edge")
    else:
        raise ExecutionError(f"unknown pad mode {mode!r}")
    crops = []
    for before, after in pairs:
        crop_before = max(0, -before)
        crop_after = max(0, -after)
        crops.append(slice(crop_before, None if crop_after == 0 else -crop_after))
    return [out[tuple(crops)]]


@kernel("BroadcastTo")
def _broadcast_to(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    shape = [int(d) for d in attrs["shape"]]
    return [np.broadcast_to(x, shape).copy()]


@kernel("Concat")
def _concat(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    axis = int(attrs.get("axis", 0))
    target = _result_dtype(inputs)
    return [np.concatenate([x.astype(target) for x in inputs], axis=axis)]


@kernel("Split")
def _split(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    axis = int(attrs.get("axis", 0))
    parts = np.split(x, 2, axis=axis)
    return [np.ascontiguousarray(p) for p in parts]


@kernel("Tile")
def _tile(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    repeats = [int(r) for r in attrs["repeats"]]
    return [np.tile(x, repeats)]


@kernel("Gather")
def _gather(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    data, indices = inputs
    axis = int(attrs.get("axis", 0))
    return [np.take(data, indices.astype(np.int64), axis=axis)]


# --------------------------------------------------------------------------- #
# Reductions
# --------------------------------------------------------------------------- #
def _reduce(func: Callable[..., np.ndarray]) -> Kernel:
    def run(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
        (x,) = inputs
        axes = attrs.get("axes")
        keepdims = bool(attrs.get("keepdims", False))
        axis = tuple(int(a) for a in axes) if axes is not None else None
        with np.errstate(all="ignore"):
            out = func(x, axis=axis, keepdims=keepdims)
        return [np.asarray(out).astype(x.dtype if func is not np.mean else _float_like(x.dtype))]

    return run


_KERNELS["ReduceSum"] = _reduce(np.sum)
_KERNELS["ReduceMean"] = _reduce(np.mean)
_KERNELS["ReduceMax"] = _reduce(np.max)
_KERNELS["ReduceMin"] = _reduce(np.min)
_KERNELS["ReduceProd"] = _reduce(np.prod)


@kernel("ArgMax")
def _argmax(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    axis = int(attrs.get("axis", 0))
    keepdims = bool(attrs.get("keepdims", False))
    out = np.argmax(x, axis=axis)
    if keepdims:
        out = np.expand_dims(out, axis=axis)
    return [out.astype(np.int64)]


@kernel("ArgMin")
def _argmin(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    (x,) = inputs
    axis = int(attrs.get("axis", 0))
    keepdims = bool(attrs.get("keepdims", False))
    out = np.argmin(x, axis=axis)
    if keepdims:
        out = np.expand_dims(out, axis=axis)
    return [out.astype(np.int64)]
