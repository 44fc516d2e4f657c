"""Lowering: turn an optimized DeepC graph into the low-level IR.

Each fusion group becomes one :class:`~repro.compilers.deepc.lowir.Kernel`.
Lowering chooses the index dtype of every kernel and materializes per-
instruction loop extents.  Two seeded bugs reproduce the int32/int64 shape
arithmetic mismatches the paper reports as a recurring TVM pain point: large
``Reshape`` targets and high-rank ``BroadcastTo`` expansions make the
(buggy) index-dtype selection inconsistent and abort compilation.
"""

from __future__ import annotations

from typing import Dict, List

from repro.compilers.bugs import BugConfig
from repro.compilers.deepc.ir import DGraph
from repro.compilers.deepc.lowir import Buffer, Kernel, LowModule, TensorInstr
from repro.errors import TransformationError

#: Tensors at least this large conceptually require 64-bit index arithmetic in
#: the (scaled-down) DeepC lowering model.
I64_ELEMENT_THRESHOLD = 1024


class LoweringContext:
    def __init__(self, bugs: BugConfig) -> None:
        self.bugs = bugs
        self.triggered_bugs: List[str] = []

    def record_bug(self, bug_id: str) -> None:
        if bug_id not in self.triggered_bugs:
            self.triggered_bugs.append(bug_id)


def lower_graph(graph: DGraph, bugs: BugConfig) -> "tuple[LowModule, List[str]]":
    """Lower a DeepC graph to a :class:`LowModule`.

    Raises:
        TransformationError: for seeded int32/int64 lowering failures.
    """
    ctx = LoweringContext(bugs)
    groups = _ordered_groups(graph)
    kernels: List[Kernel] = []
    for index, group in enumerate(groups):
        kernels.append(_lower_group(graph, group, index, ctx))
    module = LowModule(
        name=f"{graph.name}.lowered",
        kernels=kernels,
        graph_inputs=list(graph.inputs),
        graph_outputs=list(graph.outputs),
        params={name: array for name, array in graph.initializers.items()},
        value_types=dict(graph.value_types),
    )
    return module, ctx.triggered_bugs


def _ordered_groups(graph: DGraph) -> List[List[str]]:
    """Fusion groups ordered so producer groups come before consumer groups.

    When the fusion pass has not run (opt level 0) every node forms its own
    group.  Groups are scheduled by a topological sort of the group-level
    dependency graph (a group depends on every group producing one of its
    external inputs).
    """
    order = graph.topological_order()
    if not graph.fusion_groups:
        return [[node.name] for node in order]
    position = {node.name: i for i, node in enumerate(order)}
    groups = [sorted(group, key=lambda name: position[name])
              for group in graph.fusion_groups if group]

    producer_group: dict = {}
    for index, group in enumerate(groups):
        for node_name in group:
            for output in graph.node_by_name(node_name).outputs:
                producer_group[output] = index

    dependencies: List[set] = [set() for _ in groups]
    for index, group in enumerate(groups):
        members = set(group)
        for node_name in group:
            for input_name in graph.node_by_name(node_name).inputs:
                source = producer_group.get(input_name)
                if source is not None and source != index:
                    dependencies[index].add(source)

    scheduled: List[int] = []
    ready = sorted((i for i, deps in enumerate(dependencies) if not deps),
                   key=lambda i: position[groups[i][0]])
    remaining = {i: set(deps) for i, deps in enumerate(dependencies) if deps}
    while ready:
        current = ready.pop(0)
        scheduled.append(current)
        newly_ready = []
        for index, deps in list(remaining.items()):
            deps.discard(current)
            if not deps:
                newly_ready.append(index)
                del remaining[index]
        ready.extend(sorted(newly_ready, key=lambda i: position[groups[i][0]]))
    if remaining:
        raise TransformationError(
            "operator fusion produced cyclically dependent kernel groups")
    return [groups[index] for index in scheduled]


def _lower_group(graph: DGraph, group: List[str], index: int,
                 ctx: LoweringContext) -> Kernel:
    nodes = [graph.node_by_name(name) for name in group]
    produced = {output for node in nodes for output in node.outputs}
    consumed_elsewhere = set(graph.outputs)
    for other in graph.nodes:
        if other.name in group:
            continue
        consumed_elsewhere.update(other.inputs)

    buffers: Dict[str, Buffer] = {}
    kernel_inputs: List[str] = []
    kernel_outputs: List[str] = []

    def declare(name: str, kind: str) -> None:
        if name in buffers:
            if kind == "output" and buffers[name].kind == "intermediate":
                buffers[name].kind = "output"
            return
        buffers[name] = Buffer(name, graph.type_of(name), kind)
        if kind == "input":
            kernel_inputs.append(name)
        elif kind == "param":
            kernel_inputs.append(name)
        elif kind == "output":
            kernel_outputs.append(name)

    instrs: List[TensorInstr] = []
    for node in nodes:
        for input_name in node.inputs:
            if input_name in produced:
                continue
            kind = "param" if graph.is_constant(input_name) else "input"
            declare(input_name, kind)
        for output_name in node.outputs:
            kind = "output" if output_name in consumed_elsewhere else "intermediate"
            declare(output_name, kind)
        instr = TensorInstr(
            op=node.op,
            name=node.name,
            inputs=list(node.inputs),
            outputs=list(node.outputs),
            attrs=dict(node.attrs),
            loop_extent=graph.type_of(node.outputs[0]).numel,
        )
        _check_index_dtype(graph, node, instr, ctx)
        instrs.append(instr)

    index_dtype = "int64" if any(
        buf.numel >= I64_ELEMENT_THRESHOLD for buf in buffers.values()) else "int32"
    for instr in instrs:
        instr.index_dtype = index_dtype
    return Kernel(
        name=f"fused_kernel_{index}",
        instrs=instrs,
        buffers=buffers,
        inputs=kernel_inputs,
        outputs=kernel_outputs,
        index_dtype=index_dtype,
    )


def _check_index_dtype(graph: DGraph, node, instr: TensorInstr,
                       ctx: LoweringContext) -> None:
    """Seeded int32/int64 shape-arithmetic mismatches of fused expressions.

    Both live in the fusion pass's kernels, so a graph lowered without it
    (opt level 0 never fuses) is lowered correctly.
    """
    if not graph.fusion_groups:
        return
    if node.op == "Reshape" and ctx.bugs.enabled("deepc-i64-reshape-mismatch"):
        target_numel = graph.type_of(node.outputs[0]).numel
        if target_numel >= I64_ELEMENT_THRESHOLD:
            ctx.record_bug("deepc-i64-reshape-mismatch")
            raise TransformationError(
                "[deepc-i64-reshape-mismatch] Reshape shape expression mixes "
                "int32 and int64 index arithmetic")
    if node.op == "BroadcastTo" and ctx.bugs.enabled("deepc-i64-broadcastto-mismatch"):
        out_type = graph.type_of(node.outputs[0])
        in_type = graph.type_of(node.inputs[0])
        expansion = out_type.numel // max(in_type.numel, 1)
        if out_type.rank >= 4 and expansion >= 8:
            ctx.record_bug("deepc-i64-broadcastto-mismatch")
            raise TransformationError(
                "[deepc-i64-broadcastto-mismatch] BroadcastTo shape constant "
                "materialized as int32 but the fused expression expects int64")
