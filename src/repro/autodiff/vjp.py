"""Vector-Jacobian products (VJPs) for every operator kind.

Together with :mod:`repro.autodiff.backprop` these form the reverse-mode
autodiff engine of the repo (the role PyTorch's autograd plays in the
original NNSmith).  Each VJP receives the node, its concrete input and output
arrays (as computed by the reference kernels in :mod:`repro.ops.semantics`),
and the gradients flowing into each output; it returns the gradient flowing
into each input.

Conventions:

* gradients are always float64 arrays of the same shape as the respective
  input;
* a ``None`` output gradient means "no gradient flows through this output"
  and is treated as zero;
* operators without a useful derivative (comparisons, ArgMax, ...) return
  zero gradients, which simply stops gradient flow along that path.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.dtypes import DType
from repro.errors import UnsupportedOperatorError
from repro.graph.node import Node
from repro.ops.semantics import pad_spatial
from repro.autodiff.proxy import DEFAULT_PROXY, ProxyConfig

Arrays = Sequence[np.ndarray]
Grads = List[np.ndarray]
VJP = Callable[[Node, Arrays, Arrays, Grads, ProxyConfig], Grads]

_VJPS: Dict[str, VJP] = {}

_EPS = 1e-12


def vjp(name: str) -> Callable[[VJP], VJP]:
    def wrap(func: VJP) -> VJP:
        _VJPS[name] = func
        return func

    return wrap


def has_vjp(name: str) -> bool:
    return name in _VJPS


def backward_node(node: Node, inputs: Arrays, outputs: Arrays,
                  grad_outputs: Sequence[Optional[np.ndarray]],
                  proxy: ProxyConfig = DEFAULT_PROXY,
                  bugs=None, triggered: Optional[List[str]] = None) -> Grads:
    """Compute input gradients for one node.

    ``bugs`` optionally activates the *seeded* wrong-VJP bugs (a
    :class:`repro.compilers.bugs.BugConfig`); the default ``None`` keeps
    every VJP correct, so gradient-guided value search and the ablation
    experiments are never perturbed — only callers that opt in (the
    ``gradcheck`` oracle) can observe the buggy backward paths.
    ``triggered`` collects the ids of seeded bugs whose buggy path
    actually executed.
    """
    func = _VJPS.get(node.op)
    if func is None:
        raise UnsupportedOperatorError(f"no VJP registered for operator {node.op!r}")
    if bugs is not None:
        seeded = _AUTODIFF_BUG_VJPS.get(node.op)
        if seeded is not None:
            bug_id, buggy = seeded
            if bugs.enabled(bug_id):
                func = buggy
                if triggered is not None and bug_id not in triggered:
                    triggered.append(bug_id)
    seeds = [
        np.zeros(out.shape, dtype=np.float64) if grad is None else np.asarray(grad, np.float64)
        for out, grad in zip(outputs, grad_outputs)
    ]
    inputs64 = [np.asarray(x, dtype=np.float64) for x in inputs]
    outputs64 = [np.asarray(y, dtype=np.float64) for y in outputs]
    with np.errstate(all="ignore"):
        grads = func(node, inputs64, outputs64, seeds, proxy)
    result = []
    for array, grad in zip(inputs, grads):
        grad = np.zeros(np.shape(array), dtype=np.float64) if grad is None else grad
        result.append(np.nan_to_num(np.asarray(grad, dtype=np.float64),
                                    nan=0.0, posinf=1e6, neginf=-1e6))
    return result


# --------------------------------------------------------------------------- #
# Shape helpers
# --------------------------------------------------------------------------- #
def unbroadcast(grad: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    """Reduce a broadcasted gradient back to the original operand shape."""
    shape = tuple(shape)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape == shape:
        return grad
    # Sum over the leading broadcast axes first.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Then over axes where the operand had size 1.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _zeros_like_all(inputs: Arrays) -> Grads:
    return [np.zeros(np.shape(x), dtype=np.float64) for x in inputs]


# --------------------------------------------------------------------------- #
# Elementwise unary
# --------------------------------------------------------------------------- #
@vjp("Relu")
def _relu_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    mask = (x > 0).astype(np.float64)
    if proxy.enabled:
        mask = mask + proxy.alpha * (x <= 0)
    return [g * mask]


@vjp("LeakyRelu")
def _leaky_relu_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    alpha = float(node.attrs.get("alpha", 0.01))
    return [g * np.where(x >= 0, 1.0, alpha)]


@vjp("Sigmoid")
def _sigmoid_vjp(node, inputs, outputs, grads, proxy):
    (y,), (g,) = outputs, grads
    return [g * y * (1.0 - y)]


@vjp("Tanh")
def _tanh_vjp(node, inputs, outputs, grads, proxy):
    (y,), (g,) = outputs, grads
    return [g * (1.0 - y * y)]


@vjp("Softplus")
def _softplus_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    return [g / (1.0 + np.exp(-x))]


@vjp("Erf")
def _erf_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    return [g * (2.0 / math.sqrt(math.pi)) * np.exp(-x * x)]


@vjp("Abs")
def _abs_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    sign = np.sign(x)
    if proxy.enabled:
        sign = np.where(sign == 0, proxy.alpha, sign)
    return [g * sign]


@vjp("Neg")
def _neg_vjp(node, inputs, outputs, grads, proxy):
    (g,) = grads
    return [-g]


@vjp("Sign")
def _sign_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    slope = proxy.alpha if proxy.enabled else 0.0
    return [g * slope]


@vjp("Reciprocal")
def _reciprocal_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    return [-g / (x * x + _EPS)]


@vjp("Exp")
def _exp_vjp(node, inputs, outputs, grads, proxy):
    (y,), (g,) = outputs, grads
    return [g * y]


@vjp("Log")
def _log_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    return [g / (x + _EPS)]


@vjp("Log2")
def _log2_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    return [g / ((x + _EPS) * math.log(2.0))]


@vjp("Sqrt")
def _sqrt_vjp(node, inputs, outputs, grads, proxy):
    (y,), (g,) = outputs, grads
    return [g / (2.0 * y + _EPS)]


@vjp("Sin")
def _sin_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    return [g * np.cos(x)]


@vjp("Cos")
def _cos_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    return [-g * np.sin(x)]


@vjp("Asin")
def _asin_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    return [g / np.sqrt(np.maximum(1.0 - x * x, _EPS))]


@vjp("Acos")
def _acos_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    return [-g / np.sqrt(np.maximum(1.0 - x * x, _EPS))]


@vjp("Atan")
def _atan_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    return [g / (1.0 + x * x)]


def _step_function_vjp(node, inputs, outputs, grads, proxy):
    (g,) = grads
    slope = proxy.straight_through if proxy.enabled else 0.0
    return [g * slope]


_VJPS["Floor"] = _step_function_vjp
_VJPS["Ceil"] = _step_function_vjp
_VJPS["Round"] = _step_function_vjp


@vjp("Identity")
def _identity_vjp(node, inputs, outputs, grads, proxy):
    return [grads[0]]


_VJPS["Dropout"] = _identity_vjp


@vjp("Not")
def _not_vjp(node, inputs, outputs, grads, proxy):
    return _zeros_like_all(inputs)


@vjp("Clip")
def _clip_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    lo = node.attrs.get("min")
    hi = node.attrs.get("max")
    lo = -np.inf if lo is None else lo
    hi = np.inf if hi is None else hi
    inside = ((x >= lo) & (x <= hi)).astype(np.float64)
    if proxy.enabled:
        inside = inside + proxy.alpha * (inside == 0)
    return [g * inside]


@vjp("Cast")
def _cast_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    target = DType.from_str(node.attrs["to"])
    if target.is_float:
        return [g]
    slope = proxy.straight_through if proxy.enabled else 0.0
    return [g * slope]


@vjp("Softmax")
def _softmax_vjp(node, inputs, outputs, grads, proxy):
    (y,), (g,) = outputs, grads
    axis = int(node.attrs.get("axis", -1))
    inner = np.sum(g * y, axis=axis, keepdims=True)
    return [y * (g - inner)]


# --------------------------------------------------------------------------- #
# Elementwise binary
# --------------------------------------------------------------------------- #
@vjp("Add")
def _add_vjp(node, inputs, outputs, grads, proxy):
    a, b = inputs
    (g,) = grads
    return [unbroadcast(g, a.shape), unbroadcast(g, b.shape)]


@vjp("Sub")
def _sub_vjp(node, inputs, outputs, grads, proxy):
    a, b = inputs
    (g,) = grads
    return [unbroadcast(g, a.shape), unbroadcast(-g, b.shape)]


@vjp("Mul")
def _mul_vjp(node, inputs, outputs, grads, proxy):
    a, b = inputs
    (g,) = grads
    return [unbroadcast(g * b, a.shape), unbroadcast(g * a, b.shape)]


@vjp("Div")
def _div_vjp(node, inputs, outputs, grads, proxy):
    a, b = inputs
    (g,) = grads
    safe_b = np.where(np.abs(b) < _EPS, _EPS, b)
    return [
        unbroadcast(g / safe_b, a.shape),
        unbroadcast(-g * a / (safe_b * safe_b), b.shape),
    ]


@vjp("Pow")
def _pow_vjp(node, inputs, outputs, grads, proxy):
    a, b = inputs
    (y,) = outputs
    (g,) = grads
    safe_a = np.where(np.abs(a) < _EPS, _EPS, a)
    grad_a = g * b * y / safe_a
    grad_b = g * y * np.log(np.where(a > 0, a, 1.0))
    return [unbroadcast(grad_a, a.shape), unbroadcast(grad_b, b.shape)]


@vjp("Max")
def _max_vjp(node, inputs, outputs, grads, proxy):
    a, b = inputs
    (g,) = grads
    mask = (a >= b).astype(np.float64)
    return [unbroadcast(g * mask, a.shape), unbroadcast(g * (1.0 - mask), b.shape)]


@vjp("Min")
def _min_vjp(node, inputs, outputs, grads, proxy):
    a, b = inputs
    (g,) = grads
    mask = (a <= b).astype(np.float64)
    return [unbroadcast(g * mask, a.shape), unbroadcast(g * (1.0 - mask), b.shape)]


@vjp("Mod")
def _mod_vjp(node, inputs, outputs, grads, proxy):
    a, b = inputs
    (g,) = grads
    return [unbroadcast(g, a.shape), np.zeros(b.shape, dtype=np.float64)]


def _no_grad_binary(node, inputs, outputs, grads, proxy):
    return _zeros_like_all(inputs)


for _name in ["Equal", "Greater", "Less", "GreaterOrEqual", "LessOrEqual",
              "And", "Or", "Xor"]:
    _VJPS[_name] = _no_grad_binary


@vjp("Where")
def _where_vjp(node, inputs, outputs, grads, proxy):
    cond, a, b = inputs
    (g,) = grads
    mask = cond.astype(np.float64)
    return [
        np.zeros(cond.shape, dtype=np.float64),
        unbroadcast(g * mask, a.shape),
        unbroadcast(g * (1.0 - mask), b.shape),
    ]


# --------------------------------------------------------------------------- #
# Matrix / NN operators
# --------------------------------------------------------------------------- #
@vjp("MatMul")
def _matmul_vjp(node, inputs, outputs, grads, proxy):
    a, b = inputs
    (g,) = grads
    a2 = a.reshape(1, -1) if a.ndim == 1 else a
    b2 = b.reshape(-1, 1) if b.ndim == 1 else b
    g2 = g
    if a.ndim == 1 and b.ndim == 1:
        g2 = g.reshape(1, 1)
    elif a.ndim == 1:
        g2 = np.expand_dims(g, axis=-2)
    elif b.ndim == 1:
        g2 = np.expand_dims(g, axis=-1)
    grad_a = np.matmul(g2, np.swapaxes(b2, -1, -2))
    grad_b = np.matmul(np.swapaxes(a2, -1, -2), g2)
    return [unbroadcast(grad_a.reshape(a.shape) if a.ndim <= 2 else grad_a, a.shape),
            unbroadcast(grad_b.reshape(b.shape) if b.ndim <= 2 else grad_b, b.shape)]


@vjp("Gemm")
def _gemm_vjp(node, inputs, outputs, grads, proxy):
    x, w = inputs[0], inputs[1]
    (g,) = grads
    grad_x = np.matmul(g, w.T)
    grad_w = np.matmul(x.T, g)
    result = [grad_x, grad_w]
    if len(inputs) > 2:
        result.append(unbroadcast(g.sum(axis=0), inputs[2].shape))
    return result


@vjp("Conv2d")
def _conv2d_vjp(node, inputs, outputs, grads, proxy):
    x, weight = inputs[0], inputs[1]
    (g,) = grads
    stride = int(node.attrs.get("stride", 1))
    padding = int(node.attrs.get("padding", 0))
    dilation = int(node.attrs.get("dilation", 1))
    batch, in_ch, in_h, in_w = x.shape
    out_ch, _, k_h, k_w = weight.shape
    _, _, out_h, out_w = g.shape

    padded = pad_spatial(x, padding)
    grad_padded = np.zeros_like(padded)
    grad_weight = np.zeros_like(weight)
    for i in range(k_h):
        for j in range(k_w):
            top, left = i * dilation, j * dilation
            window = padded[:, :, top:top + stride * out_h:stride,
                            left:left + stride * out_w:stride]
            # dL/dW[o, c, i, j] = sum_{b, oh, ow} g[b, o, oh, ow] * window[b, c, oh, ow]
            grad_weight[:, :, i, j] += np.einsum("bohw,bchw->oc", g, window)
            # dL/dX gets W[o, c, i, j] * g scattered back onto the window.
            contribution = np.einsum("bohw,oc->bchw", g, weight[:, :, i, j])
            grad_padded[:, :, top:top + stride * out_h:stride,
                        left:left + stride * out_w:stride] += contribution
    if padding > 0:
        grad_x = grad_padded[:, :, padding:padding + in_h, padding:padding + in_w]
    else:
        grad_x = grad_padded
    result = [grad_x, grad_weight]
    if len(inputs) > 2:
        result.append(g.sum(axis=(0, 2, 3)))
    return result


def _pool_windows(x: np.ndarray, k_h: int, k_w: int, stride: int, padding: int,
                  fill: float):
    batch, channels, in_h, in_w = x.shape
    out_h = (in_h + 2 * padding - k_h) // stride + 1
    out_w = (in_w + 2 * padding - k_w) // stride + 1
    padded = pad_spatial(x, padding, fill)
    windows = np.zeros((batch, channels, k_h * k_w, out_h, out_w), dtype=np.float64)
    for i in range(k_h):
        for j in range(k_w):
            windows[:, :, i * k_w + j] = padded[:, :, i:i + stride * out_h:stride,
                                                j:j + stride * out_w:stride]
    return windows, padded.shape, out_h, out_w


def _scatter_windows(grad_windows: np.ndarray, padded_shape, k_h: int, k_w: int,
                     stride: int, padding: int, x_shape) -> np.ndarray:
    grad_padded = np.zeros(padded_shape, dtype=np.float64)
    out_h, out_w = grad_windows.shape[-2:]
    for i in range(k_h):
        for j in range(k_w):
            grad_padded[:, :, i:i + stride * out_h:stride,
                        j:j + stride * out_w:stride] += grad_windows[:, :, i * k_w + j]
    if padding > 0:
        return grad_padded[:, :, padding:padding + x_shape[2], padding:padding + x_shape[3]]
    return grad_padded


@vjp("MaxPool2d")
def _maxpool_vjp(node, inputs, outputs, grads, proxy):
    (x,), (y,), (g,) = inputs, outputs, grads
    k_h, k_w = int(node.attrs["kh"]), int(node.attrs["kw"])
    stride = int(node.attrs.get("stride", 1))
    padding = int(node.attrs.get("padding", 0))
    windows, padded_shape, _, _ = _pool_windows(x, k_h, k_w, stride, padding, -np.inf)
    is_max = (windows == y[:, :, None]).astype(np.float64)
    counts = np.maximum(is_max.sum(axis=2, keepdims=True), 1.0)
    grad_windows = is_max / counts * g[:, :, None]
    return [_scatter_windows(grad_windows, padded_shape, k_h, k_w, stride, padding, x.shape)]


@vjp("AvgPool2d")
def _avgpool_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    k_h, k_w = int(node.attrs["kh"]), int(node.attrs["kw"])
    stride = int(node.attrs.get("stride", 1))
    padding = int(node.attrs.get("padding", 0))
    _, padded_shape, out_h, out_w = _pool_windows(x, k_h, k_w, stride, padding, 0.0)
    grad_windows = np.broadcast_to(
        (g / (k_h * k_w))[:, :, None], (x.shape[0], x.shape[1], k_h * k_w, out_h, out_w))
    return [_scatter_windows(grad_windows, padded_shape, k_h, k_w, stride, padding, x.shape)]


@vjp("GlobalAvgPool2d")
def _global_avgpool_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    scale = 1.0 / (x.shape[2] * x.shape[3])
    return [np.broadcast_to(g * scale, x.shape).copy()]


@vjp("BatchNorm")
def _batchnorm_vjp(node, inputs, outputs, grads, proxy):
    x, scale, bias, mean, var = inputs
    (g,) = grads
    epsilon = float(node.attrs.get("epsilon", 1e-5))
    shape = (1, -1) + (1,) * (x.ndim - 2)
    inv_std = 1.0 / np.sqrt(var.reshape(shape) + epsilon)
    normalized = (x - mean.reshape(shape)) * inv_std
    reduce_axes = (0,) + tuple(range(2, x.ndim))
    grad_x = g * scale.reshape(shape) * inv_std
    grad_scale = (g * normalized).sum(axis=reduce_axes)
    grad_bias = g.sum(axis=reduce_axes)
    grad_mean = (-g * scale.reshape(shape) * inv_std).sum(axis=reduce_axes)
    grad_var = (g * scale.reshape(shape) * (x - mean.reshape(shape)) *
                (-0.5) * inv_std ** 3).sum(axis=reduce_axes)
    return [grad_x, grad_scale, grad_bias, grad_mean, grad_var]


@vjp("Resize2d")
def _resize_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    scale_h = int(node.attrs.get("scale_h", 2))
    scale_w = int(node.attrs.get("scale_w", 2))
    batch, channels, in_h, in_w = x.shape
    reshaped = g.reshape(batch, channels, in_h, scale_h, in_w, scale_w)
    return [reshaped.sum(axis=(3, 5))]


# --------------------------------------------------------------------------- #
# Data movement
# --------------------------------------------------------------------------- #
def _reshape_like_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    return [g.reshape(x.shape)]


for _name in ["Reshape", "Flatten", "Squeeze", "Unsqueeze"]:
    _VJPS[_name] = _reshape_like_vjp


@vjp("Transpose")
def _transpose_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    perm = node.attrs.get("perm")
    perm = [int(p) for p in perm] if perm is not None else list(range(x.ndim))[::-1]
    inverse = np.argsort(perm)
    return [np.transpose(g, inverse)]


@vjp("Slice")
def _slice_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    starts = [int(v) for v in node.attrs["starts"]]
    ends = [int(v) for v in node.attrs["ends"]]
    axes = [int(v) for v in node.attrs.get("axes", range(len(starts)))]
    steps = [int(v) for v in node.attrs.get("steps", [1] * len(starts))]
    slices = [slice(None)] * x.ndim
    for start, end, axis, step in zip(starts, ends, axes, steps):
        slices[axis] = slice(start, end, step)
    grad_x = np.zeros(x.shape, dtype=np.float64)
    grad_x[tuple(slices)] = g
    return [grad_x]


@vjp("Pad")
def _pad_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    pads = [int(p) for p in node.attrs["pads"]]
    rank = x.ndim
    # With pad-then-crop semantics, input element i along an axis with begin
    # pad ``before`` lands at output index ``i + before``; only indices that
    # stay inside the output receive a gradient.
    grad_x = np.zeros(x.shape, dtype=np.float64)
    src = []
    dst = []
    for i in range(rank):
        before = pads[i]
        low = max(0, -before)
        high = min(x.shape[i], g.shape[i] - before)
        if high <= low:
            return [grad_x]
        dst.append(slice(low, high))
        src.append(slice(low + before, high + before))
    grad_x[tuple(dst)] = g[tuple(src)]
    return [grad_x]


@vjp("BroadcastTo")
def _broadcast_to_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    return [unbroadcast(g, x.shape)]


@vjp("Concat")
def _concat_vjp(node, inputs, outputs, grads, proxy):
    (g,) = grads
    axis = int(node.attrs.get("axis", 0))
    sizes = [x.shape[axis] for x in inputs]
    splits = np.cumsum(sizes)[:-1]
    return [np.asarray(part, dtype=np.float64)
            for part in np.split(g, splits, axis=axis)]


@vjp("Split")
def _split_vjp(node, inputs, outputs, grads, proxy):
    axis = int(node.attrs.get("axis", 0))
    return [np.concatenate(grads, axis=axis)]


@vjp("Tile")
def _tile_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    repeats = [int(r) for r in node.attrs["repeats"]]
    # Reshape g to (r0, d0, r1, d1, ...) and sum over the repeat axes.
    interleaved = []
    for repeat, dim in zip(repeats, x.shape):
        interleaved.extend([repeat, dim])
    reshaped = g.reshape(interleaved)
    return [reshaped.sum(axis=tuple(range(0, 2 * x.ndim, 2)))]


@vjp("Gather")
def _gather_vjp(node, inputs, outputs, grads, proxy):
    data, indices = inputs
    (g,) = grads
    axis = int(node.attrs.get("axis", 0))
    grad_data = np.zeros(data.shape, dtype=np.float64)
    moved = np.moveaxis(grad_data, axis, 0)
    grad_moved = np.moveaxis(g, tuple(range(axis, axis + indices.ndim)),
                             tuple(range(indices.ndim)))
    flat_idx = indices.astype(np.int64).reshape(-1)
    flat_grad = grad_moved.reshape((flat_idx.size,) + moved.shape[1:])
    np.add.at(moved, flat_idx, flat_grad)
    return [grad_data, np.zeros(indices.shape, dtype=np.float64)]


# --------------------------------------------------------------------------- #
# Reductions
# --------------------------------------------------------------------------- #
def _reduce_axes(node: Node, rank: int):
    axes = node.attrs.get("axes")
    if axes is None:
        return tuple(range(rank))
    return tuple(int(a) % rank for a in axes)


def _expand_reduced(grad: np.ndarray, x: np.ndarray, axes, keepdims: bool) -> np.ndarray:
    if not keepdims:
        for axis in sorted(axes):
            grad = np.expand_dims(grad, axis=axis)
    return np.broadcast_to(grad, x.shape).copy()


@vjp("ReduceSum")
def _reduce_sum_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    axes = _reduce_axes(node, x.ndim)
    return [_expand_reduced(g, x, axes, bool(node.attrs.get("keepdims", False)))]


@vjp("ReduceMean")
def _reduce_mean_vjp(node, inputs, outputs, grads, proxy):
    (x,), (g,) = inputs, grads
    axes = _reduce_axes(node, x.ndim)
    count = float(np.prod([x.shape[a] for a in axes])) or 1.0
    expanded = _expand_reduced(g, x, axes, bool(node.attrs.get("keepdims", False)))
    return [expanded / count]


def _reduce_extreme_vjp(node, inputs, outputs, grads, proxy):
    (x,), (y,), (g,) = inputs, outputs, grads
    axes = _reduce_axes(node, x.ndim)
    keepdims = bool(node.attrs.get("keepdims", False))
    expanded_y = _expand_reduced(y, x, axes, keepdims)
    expanded_g = _expand_reduced(g, x, axes, keepdims)
    mask = (x == expanded_y).astype(np.float64)
    counts = mask.sum(axis=axes, keepdims=True)
    counts = np.broadcast_to(np.maximum(counts, 1.0), x.shape)
    return [expanded_g * mask / counts]


_VJPS["ReduceMax"] = _reduce_extreme_vjp
_VJPS["ReduceMin"] = _reduce_extreme_vjp


@vjp("ReduceProd")
def _reduce_prod_vjp(node, inputs, outputs, grads, proxy):
    (x,), (y,), (g,) = inputs, outputs, grads
    axes = _reduce_axes(node, x.ndim)
    keepdims = bool(node.attrs.get("keepdims", False))
    expanded_y = _expand_reduced(y, x, axes, keepdims)
    expanded_g = _expand_reduced(g, x, axes, keepdims)
    safe_x = np.where(np.abs(x) < _EPS, _EPS, x)
    return [expanded_g * expanded_y / safe_x]


def _no_grad_reduce(node, inputs, outputs, grads, proxy):
    return _zeros_like_all(inputs)


_VJPS["ArgMax"] = _no_grad_reduce
_VJPS["ArgMin"] = _no_grad_reduce


# --------------------------------------------------------------------------- #
# Seeded wrong-VJP bugs (see repro.compilers.bugs, system "autodiff").
# Forward results are untouched — these are visible only to a gradient
# check, mirroring the class of autograd bugs differential testing of
# forward outputs can never catch.  They activate only when a caller
# passes a BugConfig to backward_node/backpropagate (the gradcheck
# oracle); plain value-search backprop always uses the correct VJPs.
# --------------------------------------------------------------------------- #
def _tanh_vjp_buggy(node, inputs, outputs, grads, proxy):
    (y,), (g,) = outputs, grads
    return [g * (1.0 - y)]  # BUG: drops the square of the activation


def _sigmoid_vjp_buggy(node, inputs, outputs, grads, proxy):
    (y,), (g,) = outputs, grads
    return [g * (1.0 - y)]  # BUG: forgets the leading y factor


#: op kind -> (seeded bug id, buggy VJP replacing the correct one).
_AUTODIFF_BUG_VJPS: Dict[str, tuple] = {
    "Tanh": ("autodiff-tanh-grad-linear", _tanh_vjp_buggy),
    "Sigmoid": ("autodiff-sigmoid-grad-unscaled", _sigmoid_vjp_buggy),
}
