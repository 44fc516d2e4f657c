"""GraphRT's kernel-dispatch runtime.

Like ONNXRuntime, GraphRT does not generate code: after graph optimization
every node is dispatched to a pre-compiled kernel.  Most kernels are shared
with the reference semantics; fused internal operators introduced by the
optimizer (e.g. ``BiasSoftmax``) have their own kernels here.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping

import numpy as np

from repro.errors import ExecutionError, UnsupportedOperatorError
from repro.graph.model import Model
from repro.graph.node import Node
from repro.ops import semantics

InternalKernel = Callable[[dict, List[np.ndarray]], List[np.ndarray]]


def _bias_softmax(attrs: dict, inputs: List[np.ndarray]) -> List[np.ndarray]:
    x, bias = inputs
    axis = int(attrs.get("axis", -1))
    combined = x.astype(np.float64) + bias.astype(np.float64)
    shifted = combined - np.max(combined, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out = exp / np.sum(exp, axis=axis, keepdims=True)
    target = x.dtype if x.dtype.kind == "f" else np.float64
    return [out.astype(target)]


#: Kernels for GraphRT-internal fused operators.
INTERNAL_KERNELS: Dict[str, InternalKernel] = {
    "BiasSoftmax": _bias_softmax,
}


def execute_graph(model: Model, inputs: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Run an (optimized) GraphRT graph on concrete inputs."""
    values: Dict[str, np.ndarray] = {}
    for name in model.inputs:
        if name not in inputs:
            raise ExecutionError(f"missing graph input {name!r}")
        values[name] = np.asarray(inputs[name], dtype=model.type_of(name).dtype.numpy)
    for name, array in model.initializers.items():
        values[name] = np.asarray(array)

    for node in model.topological_order():
        node_inputs = [values[name] for name in node.inputs]
        values.update(zip(node.outputs, _dispatch(node, node_inputs)))

    missing = [name for name in model.outputs if name not in values]
    if missing:
        raise ExecutionError(f"graph outputs never produced: {missing}")
    return {name: values[name] for name in model.outputs}


def _dispatch(node: Node, inputs: List[np.ndarray]) -> List[np.ndarray]:
    internal = INTERNAL_KERNELS.get(node.op)
    if internal is not None:
        return internal(node.attrs, inputs)
    if not semantics.has_kernel(node.op):
        raise UnsupportedOperatorError(
            f"GraphRT has no kernel for operator {node.op!r}")
    repack_blocks = int(node.attrs.get("_graphrt_repack_blocks", 0))
    if repack_blocks > 0:
        # The mis-selected repacked kernel (see MatMulRepackSelection):
        # recomputes the full product once per output block.  Results are
        # bit-identical — the bug is purely a performance regression.
        for _ in range(repack_blocks - 1):
            semantics.execute_node(node, inputs)
    return semantics.execute_node(node, inputs)


def supported_operators() -> List[str]:
    """Operator kinds GraphRT can execute (registry kernels + internal ones)."""
    from repro.ops.registry import all_ops

    names = [info.name for info in all_ops() if semantics.has_kernel(info.name)]
    names.extend(INTERNAL_KERNELS)
    return sorted(set(names))
