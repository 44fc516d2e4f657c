"""The computation-graph model: the repo's equivalent of an ONNX ModelProto.

A :class:`Model` is a directed acyclic graph of :class:`~repro.graph.node.Node`
operators over named *values*.  Each value has a concrete
:class:`~repro.graph.tensor_type.TensorType`.  Values come in three flavours:

* **graph inputs** — provided by the caller at run time,
* **initializers** — constant tensors baked into the model (weights),
* **intermediate values** — produced by nodes.

Any value can be designated a **graph output**.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

import numpy as np

from repro.errors import GraphError
from repro.graph.node import Node
from repro.graph.tensor_type import TensorType


class Model:
    """A typed DNN computation graph."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.nodes: List[Node] = []
        self.value_types: Dict[str, TensorType] = {}
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.initializers: Dict[str, np.ndarray] = {}
        #: Bumped by every structural mutation through the Model API; the
        #: interpreter's per-model plans
        #: (:func:`repro.runtime.interpreter.execution_plan`) validate
        #: against it.  Replacing an *initializer value* under an existing
        #: name is not structural; rewiring nodes directly without the Model
        #: helpers bypasses the counter (don't).
        self.structure_version = 0

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def add_input(self, name: str, ttype: TensorType) -> str:
        """Declare a graph input value."""
        self._declare_value(name, ttype)
        if name in self.inputs:
            raise GraphError(f"duplicate graph input {name!r}")
        self.inputs.append(name)
        self.structure_version += 1
        return name

    def add_initializer(self, name: str, data: np.ndarray) -> str:
        """Declare a constant tensor (model weight)."""
        array = np.asarray(data)
        from repro.dtypes import DType

        ttype = TensorType(array.shape, DType.from_numpy(array.dtype))
        self._declare_value(name, ttype)
        self.initializers[name] = array
        self.structure_version += 1
        return name

    def add_node(self, node: Node, output_types: Sequence[TensorType]) -> Node:
        """Append a node, declaring its output value types.

        Inputs of the node must already exist as values of the model.
        """
        if len(node.outputs) != len(output_types):
            raise GraphError(
                f"node {node.name!r} declares {len(node.outputs)} outputs but "
                f"{len(output_types)} output types were provided"
            )
        for input_name in node.inputs:
            if input_name not in self.value_types:
                raise GraphError(
                    f"node {node.name!r} references unknown value {input_name!r}"
                )
        for output_name, ttype in zip(node.outputs, output_types):
            self._declare_value(output_name, ttype)
        self.nodes.append(node)
        self.structure_version += 1
        return node

    def mark_output(self, name: str) -> None:
        """Designate an existing value as a graph output."""
        if name not in self.value_types:
            raise GraphError(f"cannot mark unknown value {name!r} as output")
        if name not in self.outputs:
            self.outputs.append(name)
            self.structure_version += 1

    def _declare_value(self, name: str, ttype: TensorType) -> None:
        if name in self.value_types:
            raise GraphError(f"value {name!r} is already declared")
        self.value_types[name] = ttype

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def type_of(self, name: str) -> TensorType:
        """Type of a value; raises :class:`GraphError` if unknown."""
        try:
            return self.value_types[name]
        except KeyError:
            raise GraphError(f"unknown value {name!r}") from None

    def producer_map(self) -> Dict[str, Node]:
        """Map from value name to the node producing it (inputs/weights absent)."""
        producers: Dict[str, Node] = {}
        for node in self.nodes:
            for output in node.outputs:
                producers[output] = node
        return producers

    def consumer_map(self) -> Dict[str, List[Node]]:
        """Map from value name to the list of nodes consuming it."""
        consumers: Dict[str, List[Node]] = {name: [] for name in self.value_types}
        for node in self.nodes:
            for input_name in node.inputs:
                consumers.setdefault(input_name, []).append(node)
        return consumers

    def is_constant(self, name: str) -> bool:
        """True if the value is an initializer (a model weight)."""
        return name in self.initializers

    def intermediate_values(self) -> List[str]:
        """Values produced by nodes (i.e. neither inputs nor initializers)."""
        produced = []
        for node in self.nodes:
            produced.extend(node.outputs)
        return produced

    def node_by_name(self, name: str) -> Node:
        for node in self.nodes:
            if node.name == name:
                return node
        raise GraphError(f"no node named {name!r}")

    def fresh_value_name(self, base: str = "v") -> str:
        index = len(self.value_types)
        while f"{base}{index}" in self.value_types:
            index += 1
        return f"{base}{index}"

    def fresh_node_name(self, base: str) -> str:
        taken = {node.name for node in self.nodes}
        if base not in taken:
            return base
        index = 1
        while f"{base}_{index}" in taken:
            index += 1
        return f"{base}_{index}"

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    def topological_order(self) -> List[Node]:
        """Nodes in an order where producers precede consumers.

        Raises:
            GraphError: if the graph contains a cycle.
        """
        producers = self.producer_map()
        indegree: Dict[str, int] = {}
        dependents: Dict[str, List[Node]] = {}
        for node in self.nodes:
            count = 0
            for input_name in node.inputs:
                producer = producers.get(input_name)
                if producer is not None:
                    count += 1
                    dependents.setdefault(producer.name, []).append(node)
            indegree[node.name] = count

        ready = [node for node in self.nodes if indegree[node.name] == 0]
        ordered: List[Node] = []
        while ready:
            node = ready.pop()
            ordered.append(node)
            for dependent in dependents.get(node.name, []):
                indegree[dependent.name] -= 1
                if indegree[dependent.name] == 0:
                    ready.append(dependent)
        if len(ordered) != len(self.nodes):
            raise GraphError("computation graph contains a cycle")
        return ordered

    def is_connected(self) -> bool:
        """True if the underlying undirected graph has a single component."""
        if not self.nodes:
            return True
        adjacency: Dict[str, Set[str]] = {}

        def link(a: str, b: str) -> None:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)

        for node in self.nodes:
            for value in list(node.inputs) + list(node.outputs):
                link(f"node:{node.name}", f"value:{value}")

        start = f"node:{self.nodes[0].name}"
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbor in adjacency.get(current, ()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        node_keys = {f"node:{node.name}" for node in self.nodes}
        return node_keys.issubset(seen)

    def clone(self) -> "Model":
        """Deep copy of the model (weights are copied too)."""
        copy = Model(self.name)
        copy.nodes = [node.clone() for node in self.nodes]
        copy.value_types = dict(self.value_types)
        copy.inputs = list(self.inputs)
        copy.outputs = list(self.outputs)
        copy.initializers = {k: np.array(v, copy=True) for k, v in self.initializers.items()}
        return copy

    # ------------------------------------------------------------------ #
    # Mutation helpers used by optimization passes
    # ------------------------------------------------------------------ #
    def remove_node(self, node: Node) -> None:
        """Remove a node and the type entries of its now-unproduced outputs."""
        self.nodes = [n for n in self.nodes if n.name != node.name]
        consumed = {name for n in self.nodes for name in n.inputs}
        for output in node.outputs:
            if output in self.outputs or output in consumed:
                continue
            self.value_types.pop(output, None)
        self.structure_version += 1

    def replace_uses(self, old: str, new: str) -> None:
        """Rewire every consumer (and graph output) of ``old`` to use ``new``."""
        for node in self.nodes:
            node.inputs = [new if name == old else name for name in node.inputs]
        self.outputs = [new if name == old else name for name in self.outputs]
        self.structure_version += 1

    def prune_dead_nodes(self) -> int:
        """Remove nodes whose outputs are never used.  Returns removal count."""
        removed_total = 0
        while True:
            consumed = {name for node in self.nodes for name in node.inputs}
            live_outputs = set(self.outputs)
            dead = [
                node
                for node in self.nodes
                if not any(out in consumed or out in live_outputs for out in node.outputs)
            ]
            if not dead:
                return removed_total
            for node in dead:
                self.remove_node(node)
            removed_total += len(dead)

    # ------------------------------------------------------------------ #
    # Presentation
    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        """Human-readable multi-line description of the graph."""
        lines = [f"model {self.name}:"]
        for name in self.inputs:
            lines.append(f"  input  {name}: {self.value_types[name]}")
        for name in self.initializers:
            lines.append(f"  weight {name}: {self.value_types[name]}")
        for node in self.nodes:
            lines.append(f"  {node}")
        for name in self.outputs:
            lines.append(f"  output {name}: {self.value_types[name]}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.nodes)

    def __str__(self) -> str:
        return (
            f"Model({self.name!r}, nodes={len(self.nodes)}, "
            f"inputs={len(self.inputs)}, outputs={len(self.outputs)})"
        )
