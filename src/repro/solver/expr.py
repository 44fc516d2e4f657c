"""Symbolic integer expressions.

Operator specifications describe shapes and attributes with symbolic integers
(:class:`SymVar`) combined through ordinary arithmetic.  Expressions support
the operators NNSmith's specifications need: ``+ - * // %`` as well as
``min``/``max``, and comparisons produce :mod:`repro.solver.constraints`
predicates.

The original NNSmith hands such expressions to Z3; here they are evaluated
and solved by :mod:`repro.solver.solver`.

Evaluation is the solver's inner loop, so a node does not walk its tree:
on first use it compiles to a closure over its children's closures
(:attr:`Expr.evaluator`), memoised on the node together with
:meth:`Expr.variables`.  The memo is never invalidated because nothing
mutates a node after construction.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Union

Assignment = Dict[str, int]
ExprLike = Union["Expr", int]
Evaluator = Callable[[Assignment], int]


def missing_variable(error: KeyError) -> KeyError:
    """The error raised when an assignment lacks a variable it is asked for."""
    return KeyError(f"no value assigned to symbolic variable {error.args[0]!r}")


class Expr:
    """Base class of the symbolic integer expression AST."""

    __slots__ = ("_evaluator", "_variables")

    def __init__(self) -> None:
        # Memos, each built on first use.
        self._evaluator: Optional[Evaluator] = None
        self._variables: Optional[FrozenSet[str]] = None

    @property
    def evaluator(self) -> Evaluator:
        """This expression compiled to a function of the assignment."""
        evaluator = self._evaluator
        if evaluator is None:
            self._evaluator = evaluator = self._compile()
        return evaluator

    def evaluate(self, assignment: Assignment) -> int:
        try:
            return self.evaluator(assignment)
        except KeyError as error:
            raise missing_variable(error) from None

    def variables(self) -> FrozenSet[str]:
        names = self._variables
        if names is None:
            self._variables = names = self._collect_variables()
        return names

    def _compile(self) -> Evaluator:
        raise NotImplementedError

    def _collect_variables(self) -> FrozenSet[str]:
        raise NotImplementedError

    # -------------------------- arithmetic -------------------------- #
    def __add__(self, other: ExprLike) -> "Expr":
        return BinOp("+", self, to_expr(other))

    def __radd__(self, other: ExprLike) -> "Expr":
        return BinOp("+", to_expr(other), self)

    def __sub__(self, other: ExprLike) -> "Expr":
        return BinOp("-", self, to_expr(other))

    def __rsub__(self, other: ExprLike) -> "Expr":
        return BinOp("-", to_expr(other), self)

    def __mul__(self, other: ExprLike) -> "Expr":
        return BinOp("*", self, to_expr(other))

    def __rmul__(self, other: ExprLike) -> "Expr":
        return BinOp("*", to_expr(other), self)

    def __floordiv__(self, other: ExprLike) -> "Expr":
        return BinOp("//", self, to_expr(other))

    def __rfloordiv__(self, other: ExprLike) -> "Expr":
        return BinOp("//", to_expr(other), self)

    def __mod__(self, other: ExprLike) -> "Expr":
        return BinOp("%", self, to_expr(other))

    def __neg__(self) -> "Expr":
        return BinOp("-", Const(0), self)

    # -------------------------- comparisons ------------------------- #
    def __eq__(self, other: ExprLike):  # type: ignore[override]
        from repro.solver.constraints import Comparison
        return Comparison("==", self, to_expr(other))

    def __ne__(self, other: ExprLike):  # type: ignore[override]
        from repro.solver.constraints import Comparison
        return Comparison("!=", self, to_expr(other))

    def __le__(self, other: ExprLike):
        from repro.solver.constraints import Comparison
        return Comparison("<=", self, to_expr(other))

    def __lt__(self, other: ExprLike):
        from repro.solver.constraints import Comparison
        return Comparison("<", self, to_expr(other))

    def __ge__(self, other: ExprLike):
        from repro.solver.constraints import Comparison
        return Comparison(">=", self, to_expr(other))

    def __gt__(self, other: ExprLike):
        from repro.solver.constraints import Comparison
        return Comparison(">", self, to_expr(other))

    def __hash__(self) -> int:
        return hash(repr(self))


class SymVar(Expr):
    """A named symbolic integer variable."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name

    def _compile(self) -> Evaluator:
        return operator.itemgetter(self.name)

    def _collect_variables(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def __repr__(self) -> str:
        return self.name

    def __hash__(self) -> int:
        return hash(("SymVar", self.name))


class Const(Expr):
    """A constant integer."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        super().__init__()
        self.value = int(value)

    def _compile(self) -> Evaluator:
        value = self.value
        return lambda assignment: value

    def _collect_variables(self) -> FrozenSet[str]:
        return frozenset()

    def __repr__(self) -> str:
        return str(self.value)

    def __hash__(self) -> int:
        return hash(("Const", self.value))


#: What ``x // 0`` and ``x % 0`` evaluate to.  Division by zero makes the
#: enclosing constraint unsatisfied rather than crashing the solver; the
#: sentinel propagates as a huge value.
DIVISION_BY_ZERO = 1 << 62


def _floordiv(a: int, b: int) -> int:
    return DIVISION_BY_ZERO if b == 0 else a // b


def _mod(a: int, b: int) -> int:
    return DIVISION_BY_ZERO if b == 0 else a % b


class BinOp(Expr):
    """A binary arithmetic operation."""

    __slots__ = ("op", "lhs", "rhs")

    _OPS = {
        "+": operator.add,
        "-": operator.sub,
        "*": operator.mul,
        "//": _floordiv,
        "%": _mod,
        "min": min,
        "max": max,
    }

    def __init__(self, op: str, lhs: Expr, rhs: Expr) -> None:
        if op not in self._OPS:
            raise ValueError(f"unsupported operator {op!r}")
        super().__init__()
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def _compile(self) -> Evaluator:
        function = self._OPS[self.op]
        lhs, rhs = self.lhs.evaluator, self.rhs.evaluator
        return lambda assignment: function(lhs(assignment), rhs(assignment))

    def _collect_variables(self) -> FrozenSet[str]:
        return self.lhs.variables() | self.rhs.variables()

    def __repr__(self) -> str:
        if self.op in ("min", "max"):
            return f"{self.op}({self.lhs!r}, {self.rhs!r})"
        return f"({self.lhs!r} {self.op} {self.rhs!r})"

    def __hash__(self) -> int:
        return hash(("BinOp", self.op, hash(self.lhs), hash(self.rhs)))


def to_expr(value: ExprLike) -> Expr:
    """Coerce a Python int (or an existing expression) to an :class:`Expr`."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not valid symbolic integers")
    if isinstance(value, int):
        return Const(value)
    raise TypeError(f"cannot convert {type(value).__name__} to a symbolic expression")


def sym_min(lhs: ExprLike, rhs: ExprLike) -> Expr:
    """Symbolic minimum of two expressions."""
    return BinOp("min", to_expr(lhs), to_expr(rhs))


def sym_max(lhs: ExprLike, rhs: ExprLike) -> Expr:
    """Symbolic maximum of two expressions."""
    return BinOp("max", to_expr(lhs), to_expr(rhs))


def product(terms: Iterable[ExprLike]) -> Expr:
    """Symbolic product of a sequence of expressions (1 when empty)."""
    result: Expr = Const(1)
    for term in terms:
        result = result * to_expr(term)
    return result
