"""Operator specifications: the light-weight models of operator semantics.

An :class:`AbsOpBase` subclass captures, for one operator kind, everything
the generator needs to insert it into a graph while keeping the graph valid
(§3.1 of the paper):

* which input data types are accepted and what the output dtype is
  (``dtype_combos``);
* which input ranks are possible (``input_rank_options`` /
  ``deduce_output_rank``) — used by the cheap *type matching* filter before
  any constraint solving;
* the *constraints* its attributes and input shapes must satisfy
  (:meth:`requires`);
* the *type transfer function* giving the symbolic output shape
  (:meth:`type_transfer`);
* how to materialize a concrete :class:`~repro.graph.node.Node` once the
  solver produced a model (:meth:`to_node`);
* optional attribute-binning specializations (:meth:`bin_hints`, the ``C*``
  of Algorithm 2).

Meta base classes (`ElementwiseUnary`, `BinaryBroadcast`, `ReduceBase`, ...)
mean that most concrete specifications are only a handful of lines, matching
the paper's observation that 59 of its 73 specifications fit in four lines.
"""

from __future__ import annotations

import abc
import itertools
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.abstract import AbsTensor, broadcast_dims
from repro.dtypes import DType, FLOAT_DTYPES, INT_DTYPES, promote
from repro.graph.node import Node
from repro.solver.constraints import Constraint
from repro.solver.expr import Expr
from repro.solver.solver import Solver

#: Maximum tensor rank the generator works with.
MAX_RANK = 4
#: Default inclusive upper bound for a single dimension.
MAX_DIM = 64
#: Upper bound on the element count of every tensor the generator creates
#: (the default ``max_elem_per_tensor`` of the public NNSmith implementation).
MAX_NUMEL = 1 << 16

DtypeCombo = Tuple[Tuple[DType, ...], Tuple[DType, ...]]


class SpecContext:
    """Helper handed to specifications while they configure themselves.

    Wraps the shared solver, the RNG and fresh-name generation, and exposes
    convenience constructors for symbolic attribute/dimension variables.
    """

    def __init__(self, solver: Solver, rng: random.Random,
                 max_dim: int = MAX_DIM) -> None:
        self.solver = solver
        self.rng = rng
        self.max_dim = max_dim
        self._counter = 0

    def fresh_name(self, base: str) -> str:
        self._counter += 1
        return f"{base.lower()}_{self._counter}"

    def int_attr(self, name: str, low: int = 1, high: Optional[int] = None) -> Expr:
        """A symbolic integer attribute variable."""
        return self.solver.int_var(name, low, high if high is not None else self.max_dim)

    def dim_var(self, name: str) -> Expr:
        """A symbolic tensor-dimension variable."""
        return self.solver.int_var(name, 1, self.max_dim)

    def fresh_tensor(self, prefix: str, rank: int, dtype: DType) -> AbsTensor:
        dims = [self.dim_var(f"{prefix}_d{i}") for i in range(rank)]
        return AbsTensor(dtype, dims)


class AbsOpBase(abc.ABC):
    """Base class of every operator specification."""

    #: Interchange operator kind this spec materializes into.
    op_kind: str = ""
    #: Number of graph inputs the operator consumes.
    n_inputs: int = 1
    #: Number of outputs it produces.
    n_outputs: int = 1
    #: Whether backward insertion (Algorithm 1, BackwardInsert) may use it.
    supports_backward: bool = True

    def __init__(self, name: str) -> None:
        self.name = name
        #: Symbolic attributes (resolved by the solver).
        self.attrs: Dict[str, Expr] = {}
        #: Structural attributes fixed at configuration time (axes, perms...).
        self.const_attrs: Dict[str, object] = {}
        #: Input dtypes chosen for this instance.
        self.in_dtypes: Tuple[DType, ...] = ()

    # ------------------------------------------------------------------ #
    # Class-level matching information (the cheap type-matching filter).
    # ------------------------------------------------------------------ #
    @classmethod
    @abc.abstractmethod
    def dtype_combos(cls) -> List[DtypeCombo]:
        """Accepted (input dtypes) -> (output dtypes) combinations."""

    @classmethod
    def arity_options(cls) -> List[int]:
        """Possible numbers of inputs (variadic operators override this)."""
        return [cls.n_inputs]

    @classmethod
    def input_rank_options(cls) -> List[List[int]]:
        """Allowed ranks per input position."""
        return [list(range(MAX_RANK + 1)) for _ in range(cls.n_inputs)]

    @classmethod
    def deduce_output_rank(cls, input_ranks: Sequence[int]) -> Optional[int]:
        """Output rank for given input ranks, or None when not representable."""
        return input_ranks[0]

    @classmethod
    def accepts_dtypes(cls, dtypes: Sequence[DType]) -> bool:
        return any(tuple(dtypes) == combo[0] for combo in cls.dtype_combos())

    @classmethod
    def out_dtypes_for(cls, dtypes: Sequence[DType]) -> Optional[Tuple[DType, ...]]:
        for inputs, outputs in cls.dtype_combos():
            if tuple(dtypes) == inputs:
                return outputs
        return None

    @classmethod
    def accepts_ranks(cls, ranks: Sequence[int]) -> bool:
        options = cls.input_rank_options()
        if len(ranks) != len(options):
            return False
        return all(rank in allowed for rank, allowed in zip(ranks, options))

    @classmethod
    def backward_candidates(cls, output_dtype: DType,
                            output_rank: int) -> List[Tuple[Tuple[DType, ...], Tuple[int, ...]]]:
        """Input (dtype combo, rank combo) pairs that would yield this output."""
        if not cls.supports_backward or cls.n_outputs != 1:
            return []
        dtype_matches = [combo[0] for combo in cls.dtype_combos()
                         if combo[1] and combo[1][0] == output_dtype]
        if not dtype_matches:
            return []
        rank_matches: List[Tuple[int, ...]] = []
        for ranks in itertools.product(*cls.input_rank_options()):
            if cls.deduce_output_rank(ranks) == output_rank:
                rank_matches.append(tuple(ranks))
        return [(dtypes, ranks) for dtypes in dtype_matches for ranks in rank_matches]

    # ------------------------------------------------------------------ #
    # Instance construction.
    # ------------------------------------------------------------------ #
    @classmethod
    def instantiate(cls, ctx: SpecContext,
                    inputs: List[AbsTensor]) -> Optional["AbsOpBase"]:
        """Create a spec instance configured for the given (abstract) inputs.

        Returns None when the operator cannot be configured for these inputs
        (for example because no valid structural attribute exists).
        """
        op = cls(ctx.fresh_name(cls.op_kind))
        op.in_dtypes = tuple(tensor.dtype for tensor in inputs)
        if not cls.accepts_dtypes(op.in_dtypes):
            return None
        if not cls.accepts_ranks([tensor.rank for tensor in inputs]):
            return None
        if not op._configure(ctx, inputs):
            return None
        return op

    def _configure(self, ctx: SpecContext, inputs: List[AbsTensor]) -> bool:
        """Create symbolic/structural attributes; return False to veto."""
        return True

    # ------------------------------------------------------------------ #
    # The specification proper.
    # ------------------------------------------------------------------ #
    def requires(self, inputs: List[AbsTensor]) -> List[Constraint]:
        """Constraints the inputs and attributes must satisfy."""
        return []

    @abc.abstractmethod
    def type_transfer(self, inputs: List[AbsTensor]) -> List[AbsTensor]:
        """Symbolic output tensors for the given inputs."""

    # ------------------------------------------------------------------ #
    # Materialization and binning.
    # ------------------------------------------------------------------ #
    def concrete_attrs(self, assignment: Dict[str, int]) -> Dict[str, object]:
        """Evaluate symbolic attributes under a solver model."""
        resolved: Dict[str, object] = dict(self.const_attrs)
        for key, expr in self.attrs.items():
            resolved[key] = expr.evaluate(assignment)
        return resolved

    def to_node(self, input_names: Sequence[str], output_names: Sequence[str],
                assignment: Dict[str, int]) -> Node:
        """Materialize a concrete interchange node."""
        return Node(self.op_kind, self.name, list(input_names), list(output_names),
                    self.concrete_attrs(assignment))

    def bin_hints(self) -> Dict[str, List[Tuple[int, Optional[int]]]]:
        """Attribute-binning specializations (``C*`` in Algorithm 2).

        Maps an attribute variable name to extra candidate bins given as
        inclusive ``(low, high)`` ranges (``high=None`` means unbounded).
        The default is empty: the generic exponential bins apply.
        """
        return {}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


# --------------------------------------------------------------------------- #
# Meta specifications
# --------------------------------------------------------------------------- #
def same_dtype_combos(dtypes: Sequence[DType], arity: int,
                      out: str = "same") -> List[DtypeCombo]:
    """Combos where every input shares one dtype from ``dtypes``.

    ``out`` selects the output dtype rule: "same", "bool", or "float_like"
    (float dtypes pass through, integer dtypes promote to float64 — matching
    the reference kernels).
    """
    combos: List[DtypeCombo] = []
    for dtype in dtypes:
        if out == "same":
            output: Tuple[DType, ...] = (dtype,)
        elif out == "bool":
            output = (DType.bool_,)
        elif out == "float_like":
            output = (dtype if dtype.is_float else DType.float64,)
        else:
            raise ValueError(f"unknown output dtype rule {out!r}")
        combos.append((tuple([dtype] * arity), output))
    return combos


class ElementwiseUnary(AbsOpBase):
    """Shape-preserving unary operator."""

    n_inputs = 1
    #: dtypes accepted; subclasses override.
    dtypes: Tuple[DType, ...] = FLOAT_DTYPES
    #: output dtype rule: "same" or "float_like" or "bool".
    out_rule: str = "same"

    @classmethod
    def dtype_combos(cls) -> List[DtypeCombo]:
        return same_dtype_combos(cls.dtypes, 1, cls.out_rule)

    def type_transfer(self, inputs: List[AbsTensor]) -> List[AbsTensor]:
        (x,) = inputs
        out_dtype = self.out_dtypes_for((x.dtype,))[0]
        return [AbsTensor(out_dtype, list(x.dims))]


class BinaryBroadcast(AbsOpBase):
    """Binary elementwise operator with numpy broadcasting."""

    n_inputs = 2
    dtypes: Tuple[DType, ...] = FLOAT_DTYPES + INT_DTYPES
    out_rule: str = "same"

    @classmethod
    def dtype_combos(cls) -> List[DtypeCombo]:
        return same_dtype_combos(cls.dtypes, 2, cls.out_rule)

    @classmethod
    def deduce_output_rank(cls, input_ranks: Sequence[int]) -> Optional[int]:
        return max(input_ranks)

    def requires(self, inputs: List[AbsTensor]) -> List[Constraint]:
        _, constraints = broadcast_dims(inputs[0], inputs[1])
        return constraints

    def type_transfer(self, inputs: List[AbsTensor]) -> List[AbsTensor]:
        dims, _ = broadcast_dims(inputs[0], inputs[1])
        out_dtype = self.out_dtypes_for(tuple(t.dtype for t in inputs))[0]
        return [AbsTensor(out_dtype, dims)]


class ReduceBase(AbsOpBase):
    """Reduction over a random subset of axes."""

    n_inputs = 1
    dtypes: Tuple[DType, ...] = FLOAT_DTYPES + INT_DTYPES
    out_rule: str = "same"
    supports_backward = False  # output rank depends on structural choices

    @classmethod
    def dtype_combos(cls) -> List[DtypeCombo]:
        return same_dtype_combos(cls.dtypes, 1, cls.out_rule)

    @classmethod
    def input_rank_options(cls) -> List[List[int]]:
        return [list(range(1, MAX_RANK + 1))]

    def _configure(self, ctx: SpecContext, inputs: List[AbsTensor]) -> bool:
        rank = inputs[0].rank
        count = ctx.rng.randint(1, rank)
        axes = sorted(ctx.rng.sample(range(rank), count))
        self.const_attrs["axes"] = axes
        self.const_attrs["keepdims"] = bool(ctx.rng.random() < 0.5)
        return True

    def type_transfer(self, inputs: List[AbsTensor]) -> List[AbsTensor]:
        (x,) = inputs
        axes = set(self.const_attrs["axes"])
        keepdims = self.const_attrs["keepdims"]
        dims = []
        for index, dim in enumerate(x.dims):
            if index in axes:
                if keepdims:
                    dims.append(1)
            else:
                dims.append(dim)
        out_dtype = self.out_dtypes_for((x.dtype,))[0]
        return [AbsTensor(out_dtype, dims)]
