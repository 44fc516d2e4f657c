"""Model generation: Algorithm 1 of the paper.

The generator grows a *symbolic* computation graph one operator at a time.
Every insertion either

* **forward-inserts** a new operator consuming existing values, or
* **backward-inserts** an operator that *produces* an existing placeholder,
  creating fresh placeholders for its own inputs,

and is accepted only if the operator's constraints (from its specification)
are satisfiable together with everything asserted so far — checked
incrementally by the shared solver, exactly as the paper uses Z3.

Placeholders that remain at the end become graph inputs or weights.  After
generation, attribute binning (:mod:`repro.core.binning`) diversifies
attribute values and :mod:`repro.core.concretize` materializes the concrete
interchange model.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.core.abstract import AbsTensor
from repro.core.op_spec import MAX_DIM, MAX_NUMEL, MAX_RANK, AbsOpBase, SpecContext
from repro.core.oplib import DEFAULT_OP_POOL
from repro.dtypes import DType
from repro.errors import GenerationError
from repro.solver.solver import Solver


class SymValue:
    """A value (tensor) of the symbolic graph being generated."""

    def __init__(self, name: str, tensor: AbsTensor,
                 producer: Optional["SymNode"] = None) -> None:
        self.name = name
        self.tensor = tensor
        self.producer = producer

    @property
    def is_placeholder(self) -> bool:
        """True while no operator produces this value."""
        return self.producer is None

    def __repr__(self) -> str:
        kind = "placeholder" if self.is_placeholder else "value"
        return f"SymValue({self.name!r}, {kind}, rank={self.tensor.rank})"


class SymNode:
    """A symbolic operator instance."""

    def __init__(self, spec: AbsOpBase, inputs: List[SymValue],
                 outputs: List[SymValue]) -> None:
        self.spec = spec
        self.inputs = inputs
        self.outputs = outputs

    @property
    def name(self) -> str:
        return self.spec.name

    def __repr__(self) -> str:
        return f"SymNode({self.spec.op_kind}, {self.name!r})"


class SymbolicGraph:
    """The symbolic graph plus the solver that owns its constraints."""

    def __init__(self, solver: Solver, ctx: SpecContext) -> None:
        self.solver = solver
        self.ctx = ctx
        self.values: List[SymValue] = []
        self.nodes: List[SymNode] = []

    def placeholders(self) -> List[SymValue]:
        return [value for value in self.values if value.is_placeholder]

    def produced_values(self) -> List[SymValue]:
        return [value for value in self.values if not value.is_placeholder]

    def leaf_values(self) -> List[SymValue]:
        """Values not consumed by any node (the graph outputs)."""
        consumed = {value.name for node in self.nodes for value in node.inputs}
        return [value for value in self.values
                if value.name not in consumed and not value.is_placeholder]

    def topological_nodes(self) -> List[SymNode]:
        """Nodes ordered so that producers precede consumers."""
        ordered: List[SymNode] = []
        done: set = set()
        remaining = list(self.nodes)
        while remaining:
            progressed = False
            for node in list(remaining):
                ready = all(value.is_placeholder or value.producer in ordered or
                            value.producer.name in done
                            for value in node.inputs)
                if ready:
                    ordered.append(node)
                    done.add(node.name)
                    remaining.remove(node)
                    progressed = True
            if not progressed:
                raise GenerationError("symbolic graph contains a cycle")
        return ordered

    def symbolic_attr_vars(self) -> Dict[str, AbsOpBase]:
        """All symbolic attribute variables, mapped to their owning spec."""
        result: Dict[str, AbsOpBase] = {}
        for node in self.nodes:
            for expr in node.spec.attrs.values():
                result[expr.name] = node.spec
            for key, value in vars(node.spec).items():
                if key.startswith("_") and isinstance(value, list):
                    for item in value:
                        if hasattr(item, "name") and hasattr(item, "evaluate"):
                            result.setdefault(item.name, node.spec)
        return result

    def dimension_vars(self) -> List[str]:
        """Dimension variables of every placeholder (inputs and weights)."""
        names: List[str] = []
        for value in self.values:
            if not value.is_placeholder:
                continue
            for dim in value.tensor.dims:
                if hasattr(dim, "name"):
                    names.append(dim.name)
        return names


@dataclass
class GeneratorConfig:
    """Knobs of the model generator (defaults follow §5.1 of the paper)."""

    n_nodes: int = 10
    max_dim: int = MAX_DIM
    max_rank: int = MAX_RANK
    seed: Optional[int] = None
    #: Probability of attempting forward (vs backward) insertion.
    forward_probability: float = 0.5
    #: Probability that a leftover placeholder becomes a weight (constant).
    weight_probability: float = 0.4
    #: Attribute binning (Algorithm 2) and its bin count k.
    use_binning: bool = True
    n_bins: int = 7
    #: Operator specification pool to sample from.
    op_pool: Sequence[Type[AbsOpBase]] = field(default_factory=lambda: list(DEFAULT_OP_POOL))
    #: Relative likelihood of placeholder dtypes (mostly float32, like real models).
    dtype_weights: Dict[DType, float] = field(default_factory=lambda: {
        DType.float32: 0.62,
        DType.float64: 0.14,
        DType.int32: 0.08,
        DType.int64: 0.08,
        DType.bool_: 0.08,
    })
    #: Give up after this many failed insertion attempts per requested node.
    max_attempts_per_node: int = 25


class GraphGenerator:
    """Incremental, constraint-guided symbolic graph generation."""

    def __init__(self, config: Optional[GeneratorConfig] = None) -> None:
        self.config = config or GeneratorConfig()
        self.rng = random.Random(self.config.seed)

    # ------------------------------------------------------------------ #
    def generate_symbolic(self) -> SymbolicGraph:
        """Run Algorithm 1 and return the symbolic graph (pre-binning)."""
        # Once the solver's seed; still drawn so that each generator seed
        # keeps the random stream its operator choices are drawn from.
        self.rng.randrange(1 << 30)
        solver = Solver()
        ctx = SpecContext(solver, self.rng, max_dim=self.config.max_dim)
        graph = SymbolicGraph(solver, ctx)
        self._add_placeholder(graph, prefix="seed")

        attempts_left = self.config.n_nodes * self.config.max_attempts_per_node
        while len(graph.nodes) < self.config.n_nodes and attempts_left > 0:
            attempts_left -= 1
            spec_cls = self.rng.choice(list(self.config.op_pool))
            forward = self.rng.random() < self.config.forward_probability
            if forward:
                self._forward_insert(graph, spec_cls)
            else:
                self._backward_insert(graph, spec_cls)
        if not graph.nodes:
            raise GenerationError(
                "failed to insert any operator within the attempt budget")
        return graph

    # ------------------------------------------------------------------ #
    def _add_placeholder(self, graph: SymbolicGraph, prefix: str,
                         rank: Optional[int] = None,
                         dtype: Optional[DType] = None) -> SymValue:
        rank = self.rng.randint(1, self.config.max_rank) if rank is None else rank
        dtype = dtype or self._sample_dtype()
        name = graph.ctx.fresh_name(f"{prefix}_ph")
        tensor = graph.ctx.fresh_tensor(name, rank, dtype)
        graph.solver.add([tensor.numel() <= MAX_NUMEL])
        value = SymValue(name, tensor)
        graph.values.append(value)
        return value

    def _sample_dtype(self) -> DType:
        weights = self.config.dtype_weights
        choices = list(weights)
        return self.rng.choices(choices, weights=[weights[c] for c in choices], k=1)[0]

    # ------------------------------------------------------------------ #
    def _forward_insert(self, graph: SymbolicGraph, spec_cls: Type[AbsOpBase]) -> bool:
        arity = self.rng.choice(spec_cls.arity_options())
        candidates = self._match_forward_inputs(graph, spec_cls, arity)
        if candidates is None:
            return False
        inputs = candidates
        spec = spec_cls.instantiate(graph.ctx, [value.tensor for value in inputs])
        if spec is None:
            return False
        tensors = [value.tensor for value in inputs]
        constraints = list(spec.requires(tensors))
        outputs = spec.type_transfer(tensors)
        for out in outputs:
            constraints.extend(out.positive_constraints())
            constraints.extend(dim <= self.config.max_dim * 4 for dim in out.dims)
            constraints.append(out.numel() <= MAX_NUMEL)
        if not graph.solver.try_add_constraints(constraints):
            return False
        out_values = []
        node = SymNode(spec, list(inputs), [])
        for index, out in enumerate(outputs):
            value = SymValue(f"{spec.name}_out{index}", out, producer=node)
            out_values.append(value)
            graph.values.append(value)
        node.outputs = out_values
        graph.nodes.append(node)
        return True

    def _match_forward_inputs(self, graph: SymbolicGraph, spec_cls: Type[AbsOpBase],
                              arity: int) -> Optional[List[SymValue]]:
        """The cheap type-matching filter: dtypes and ranks only."""
        rank_options = spec_cls.input_rank_options()
        if len(rank_options) < arity:
            rank_options = rank_options + [rank_options[-1]] * (arity - len(rank_options))
        for _ in range(12):
            picked: List[SymValue] = []
            for position in range(arity):
                allowed_ranks = rank_options[position]
                pool = [value for value in graph.values
                        if value.tensor.rank in allowed_ranks]
                if not pool:
                    break
                picked.append(self.rng.choice(pool))
            if len(picked) != arity:
                return None
            dtypes = tuple(value.tensor.dtype for value in picked)
            ranks = tuple(value.tensor.rank for value in picked)
            if spec_cls.accepts_dtypes(dtypes) and spec_cls.accepts_ranks(ranks):
                return picked
        return None

    # ------------------------------------------------------------------ #
    def _backward_insert(self, graph: SymbolicGraph, spec_cls: Type[AbsOpBase]) -> bool:
        placeholders = graph.placeholders()
        if not placeholders or not spec_cls.supports_backward:
            return False
        target = self.rng.choice(placeholders)
        candidates = spec_cls.backward_candidates(target.tensor.dtype, target.tensor.rank)
        if not candidates:
            return False
        dtypes, ranks = self.rng.choice(candidates)
        fresh_tensors = [
            graph.ctx.fresh_tensor(graph.ctx.fresh_name(f"{spec_cls.op_kind}_bwd"), rank, dtype)
            for rank, dtype in zip(ranks, dtypes)
        ]
        spec = spec_cls.instantiate(graph.ctx, fresh_tensors)
        if spec is None:
            return False
        constraints = list(spec.requires(fresh_tensors))
        constraints.extend(tensor.numel() <= MAX_NUMEL for tensor in fresh_tensors)
        outputs = spec.type_transfer(fresh_tensors)
        if len(outputs) != 1 or outputs[0].rank != target.tensor.rank or \
                outputs[0].dtype != target.tensor.dtype:
            return False
        constraints.extend(outputs[0].same_shape_as(target.tensor))
        if not graph.solver.try_add_constraints(constraints):
            return False
        input_values = []
        node = SymNode(spec, [], [target])
        for tensor in fresh_tensors:
            value = SymValue(graph.ctx.fresh_name(f"{spec.name}_in"), tensor)
            input_values.append(value)
            graph.values.append(value)
        node.inputs = input_values
        target.producer = node
        graph.nodes.append(node)
        return True


def generate_model(config: Optional[GeneratorConfig] = None):
    """Convenience wrapper: generate, bin, and concretize one model.

    Returns a :class:`repro.core.concretize.GeneratedModel`.
    """
    from repro.core.binning import apply_attribute_binning
    from repro.core.concretize import concretize

    generator = GraphGenerator(config)
    graph = generator.generate_symbolic()
    if generator.config.use_binning:
        apply_attribute_binning(graph, generator.rng, k=generator.config.n_bins)
    return concretize(graph, generator.rng,
                      weight_probability=generator.config.weight_probability)
