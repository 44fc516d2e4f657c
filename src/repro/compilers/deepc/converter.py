"""DeepC's front end: convert an interchange model into the DeepC graph IR.

This is the *conversion phase* of the compiler (§2.2 of the paper).  Every
operator kind has an import handler; several handlers contain seeded
conversion bugs mirroring the TVM importer bugs found by NNSmith (scalar
handling in reduce operators, three-way broadcasting in ``Where``,
single-rank broadcasting ``MatMul``, silent dtype casts).
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.compilers.bugs import BugConfig
from repro.compilers.deepc.ir import DGraph
from repro.dtypes import DType
from repro.errors import ConversionError, ShapeInferenceError
from repro.graph.model import Model
from repro.graph.node import Node
from repro.graph.tensor_type import TensorType
from repro.ops.registry import is_registered, op_info
from repro.ops.shape_infer import infer_output_types
from repro.ops.semantics import has_kernel


class ConversionContext:
    """State threaded through one model import."""

    def __init__(self, bugs: BugConfig) -> None:
        self.bugs = bugs
        self.triggered_bugs: List[str] = []

    def record_bug(self, bug_id: str) -> None:
        if bug_id not in self.triggered_bugs:
            self.triggered_bugs.append(bug_id)


#: DeepC does not implement kernels for every interchange operator; this
#: mirrors how real compilers support different operator subsets, which the
#: fuzzer discovers by probing (§4).
UNSUPPORTED_OPS = frozenset({"Erf", "Softplus", "Mod", "Tile"})


def supported_operators() -> List[str]:
    from repro.ops.registry import all_ops

    return sorted(info.name for info in all_ops()
                  if has_kernel(info.name) and info.name not in UNSUPPORTED_OPS)


def convert_model(model: Model, bugs: BugConfig) -> "tuple[DGraph, List[str]]":
    """Import a model, returning the DeepC graph and triggered conversion bugs.

    Raises:
        ConversionError: when the model uses unsupported constructs or when a
            (seeded or genuine) importer limitation is hit.
    """
    ctx = ConversionContext(bugs)
    graph = DGraph(f"{model.name}.deepc")

    for name in model.inputs:
        graph.add_input(name, model.type_of(name))
    for name, array in model.initializers.items():
        graph.add_initializer(name, np.array(array, copy=True))

    for node in model.topological_order():
        _check_operator_supported(node)
        if node.attrs.get("opset_unsupported"):
            raise ConversionError(
                f"DeepC: node {node.name!r} ({node.op}) uses a construct this "
                "model-format version does not allow")
        handler = _IMPORT_HANDLERS.get(node.op, _import_generic)
        handler(graph, model, node, ctx)

    for name in model.outputs:
        graph.mark_output(name)
    return graph, ctx.triggered_bugs


def _check_operator_supported(node: Node) -> None:
    if not is_registered(node.op):
        raise ConversionError(f"DeepC: unknown operator {node.op!r}")
    if node.op in UNSUPPORTED_OPS or not has_kernel(node.op):
        raise ConversionError(f"DeepC: operator {node.op!r} is not implemented")


def _import_generic(graph: DGraph, model: Model, node: Node,
                    ctx: ConversionContext) -> None:
    """Default import: re-infer output types and annotate the pattern kind."""
    imported = node.clone()
    input_types = [graph.type_of(name) for name in imported.inputs]
    try:
        output_types = infer_output_types(imported, input_types)
    except ShapeInferenceError as exc:
        raise ConversionError(f"DeepC import of {node.op}: {exc}") from exc
    graph.add_node(imported, output_types)
    graph.annotate(imported, pattern=op_info(node.op).category)


def _import_reduce(graph: DGraph, model: Model, node: Node,
                   ctx: ConversionContext) -> None:
    """Reduce operators; seeded bug for scalar (rank-0) results."""
    input_type = graph.type_of(node.inputs[0])
    keepdims = bool(node.attrs.get("keepdims", False))
    axes = node.attrs.get("axes")
    reduces_all = axes is None or len(set(int(a) % max(input_type.rank, 1)
                                          for a in axes)) == input_type.rank
    if ctx.bugs.enabled("deepc-import-scalar-reduce") and reduces_all and not keepdims:
        ctx.record_bug("deepc-import-scalar-reduce")
        raise ConversionError(
            f"[deepc-import-scalar-reduce] DeepC importer cannot handle "
            f"{node.op} producing a scalar result")
    _import_generic(graph, model, node, ctx)


def _import_where(graph: DGraph, model: Model, node: Node,
                  ctx: ConversionContext) -> None:
    """Where; seeded bug ignores the lowest-ranked operand's shape."""
    cond, lhs, rhs = (graph.type_of(name) for name in node.inputs)
    ranks = [cond.rank, lhs.rank, rhs.rank]
    if ctx.bugs.enabled("deepc-import-where-broadcast-rank"):
        lowest = min(ranks)
        if ranks.count(lowest) == 1 and lowest < max(ranks):
            # The buggy importer infers the output shape from only the two
            # higher-ranked operands; if the ignored operand actually
            # contributes a dimension, later type checking fails.
            from repro.graph.tensor_type import broadcast_shapes

            shapes = sorted([cond.shape, lhs.shape, rhs.shape], key=len)
            try:
                partial = broadcast_shapes(shapes[1], shapes[2])
                full = broadcast_shapes(partial, shapes[0])
            except ValueError:
                # Operands that do not broadcast at all never reach the
                # bug; the generic importer reports them.
                partial = full = None
            if partial != full:
                ctx.record_bug("deepc-import-where-broadcast-rank")
                raise ConversionError(
                    "[deepc-import-where-broadcast-rank] DeepC importer "
                    "inferred an incomplete broadcast shape for Where")
    _import_generic(graph, model, node, ctx)


def _import_matmul(graph: DGraph, model: Model, node: Node,
                   ctx: ConversionContext) -> None:
    """MatMul; seeded bug rejects rank-1 (vector) operands."""
    lhs, rhs = (graph.type_of(name) for name in node.inputs)
    if ctx.bugs.enabled("deepc-import-matmul-vector") and 1 in (lhs.rank, rhs.rank):
        ctx.record_bug("deepc-import-matmul-vector")
        raise ConversionError(
            "[deepc-import-matmul-vector] DeepC importer does not support "
            "MatMul with single-rank broadcasting")
    _import_generic(graph, model, node, ctx)


def _import_argextreme(graph: DGraph, model: Model, node: Node,
                       ctx: ConversionContext) -> None:
    """ArgMax/ArgMin; seeded bug flips tie-breaking for bool inputs."""
    input_type = graph.type_of(node.inputs[0])
    if ctx.bugs.enabled("deepc-import-bool-cast-argmax") and input_type.dtype is DType.bool_:
        ctx.record_bug("deepc-import-bool-cast-argmax")
        imported = node.clone()
        # Buggy: the importer silently swaps ArgMax and ArgMin while casting
        # bool inputs, flipping which index wins ties.
        imported.op = "ArgMin" if node.op == "ArgMax" else "ArgMax"
        output_types = infer_output_types(
            imported, [graph.type_of(name) for name in imported.inputs])
        graph.add_node(imported, output_types)
        graph.annotate(imported, pattern=op_info(imported.op).category)
        return
    _import_generic(graph, model, node, ctx)


_IMPORT_HANDLERS: Dict[str, Callable] = {
    "ReduceSum": _import_reduce,
    "ReduceMean": _import_reduce,
    "ReduceMax": _import_reduce,
    "ReduceMin": _import_reduce,
    "ReduceProd": _import_reduce,
    "Where": _import_where,
    "MatMul": _import_matmul,
    "ArgMax": _import_argextreme,
    "ArgMin": _import_argextreme,
}
