"""Constraints (logical predicates) over symbolic integer expressions.

A constraint is either an atomic comparison between two expressions or a
boolean combination (conjunction, disjunction, negation) of constraints.
Broadcast compatibility, for example, is expressed as a disjunction:
``(a == b) | (a == 1) | (b == 1)``.

Like expressions, a constraint compiles on first use to a closure over its
parts' closures (:attr:`Constraint.predicate`), memoised on the node
together with :meth:`Constraint.variables`; the solver's search calls the
predicates directly.  Bounds propagation compiles each constraint once, too,
to its :attr:`Constraint.reviser` (:mod:`repro.solver.interval`).
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Callable, FrozenSet, Iterable, List, Optional, Sequence

from repro.solver.expr import Assignment, Const, Expr, SymVar, missing_variable

if TYPE_CHECKING:
    from repro.solver.interval import Reviser

Predicate = Callable[[Assignment], bool]


class Constraint:
    """Base class for all predicates."""

    __slots__ = ("_predicate", "_reviser", "_variables")

    def __init__(self) -> None:
        # Memos, each built on first use.
        self._predicate: Optional[Predicate] = None
        self._reviser: Optional["Reviser"] = None
        self._variables: Optional[FrozenSet[str]] = None

    @property
    def predicate(self) -> Predicate:
        """This constraint compiled to a function of the assignment."""
        predicate = self._predicate
        if predicate is None:
            self._predicate = predicate = self._compile()
        return predicate

    @property
    def reviser(self) -> "Reviser":
        """This constraint compiled to a function that narrows a box of
        intervals (:func:`repro.solver.interval.propagate`)."""
        reviser = self._reviser
        if reviser is None:
            self._reviser = reviser = _interval.compile_reviser(self)
        return reviser

    def satisfied(self, assignment: Assignment) -> bool:
        try:
            return self.predicate(assignment)
        except KeyError as error:
            raise missing_variable(error) from None

    def variables(self) -> FrozenSet[str]:
        names = self._variables
        if names is None:
            self._variables = names = self._collect_variables()
        return names

    def _compile(self) -> Predicate:
        raise NotImplementedError

    def _collect_variables(self) -> FrozenSet[str]:
        raise NotImplementedError

    def __and__(self, other: "Constraint") -> "Constraint":
        return And([self, other])

    def __or__(self, other: "Constraint") -> "Constraint":
        return Or([self, other])

    def __invert__(self) -> "Constraint":
        return Not(self)


class Comparison(Constraint):
    """An atomic comparison between two symbolic expressions."""

    __slots__ = ("op", "lhs", "rhs")

    _OPS = {
        "==": operator.eq,
        "!=": operator.ne,
        "<=": operator.le,
        "<": operator.lt,
        ">=": operator.ge,
        ">": operator.gt,
    }

    def __init__(self, op: str, lhs: Expr, rhs: Expr) -> None:
        if op not in self._OPS:
            raise ValueError(f"unsupported comparison {op!r}")
        super().__init__()
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def _compile(self) -> Predicate:
        function = self._OPS[self.op]
        if isinstance(self.lhs, SymVar):
            # Bounds (``x <= 8``) and dimension equalities (``x == y``) are
            # most of what the search checks: read the assignment directly.
            name = self.lhs.name
            if isinstance(self.rhs, Const):
                value = self.rhs.value
                return lambda assignment: function(assignment[name], value)
            if isinstance(self.rhs, SymVar):
                other = self.rhs.name
                return lambda assignment: function(assignment[name], assignment[other])
        lhs, rhs = self.lhs.evaluator, self.rhs.evaluator
        return lambda assignment: function(lhs(assignment), rhs(assignment))

    def _collect_variables(self) -> FrozenSet[str]:
        return self.lhs.variables() | self.rhs.variables()

    def __repr__(self) -> str:
        return f"({self.lhs!r} {self.op} {self.rhs!r})"

    def __bool__(self) -> bool:
        # ``Expr.__eq__`` returns a Comparison, so accidental use of an
        # expression equality in a plain ``if`` would silently misbehave.
        raise TypeError(
            "symbolic comparisons have no truth value; add them to a solver")


class And(Constraint):
    """Conjunction of constraints."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[Constraint]) -> None:
        super().__init__()
        self.parts: List[Constraint] = list(parts)

    def _compile(self) -> Predicate:
        parts = tuple(part.predicate for part in self.parts)

        def every_part(assignment: Assignment) -> bool:
            for part in parts:
                if not part(assignment):
                    return False
            return True
        return every_part

    def _collect_variables(self) -> FrozenSet[str]:
        return _union_of_variables(self.parts)

    def __repr__(self) -> str:
        return "(" + " & ".join(repr(p) for p in self.parts) + ")"


class Or(Constraint):
    """Disjunction of constraints."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[Constraint]) -> None:
        super().__init__()
        self.parts: List[Constraint] = list(parts)

    def _compile(self) -> Predicate:
        parts = tuple(part.predicate for part in self.parts)

        def some_part(assignment: Assignment) -> bool:
            for part in parts:
                if part(assignment):
                    return True
            return False
        return some_part

    def _collect_variables(self) -> FrozenSet[str]:
        return _union_of_variables(self.parts)

    def __repr__(self) -> str:
        return "(" + " | ".join(repr(p) for p in self.parts) + ")"


class Not(Constraint):
    """Negation of a constraint."""

    __slots__ = ("inner",)

    def __init__(self, inner: Constraint) -> None:
        super().__init__()
        self.inner = inner

    def _compile(self) -> Predicate:
        inner = self.inner.predicate
        return lambda assignment: not inner(assignment)

    def _collect_variables(self) -> FrozenSet[str]:
        return self.inner.variables()

    def __repr__(self) -> str:
        return f"~{self.inner!r}"


def _union_of_variables(parts: Iterable[Constraint]) -> FrozenSet[str]:
    result: FrozenSet[str] = frozenset()
    for part in parts:
        result |= part.variables()
    return result


TRUE = And([])


def conjunction(parts: Iterable[Constraint]) -> Constraint:
    """Combine constraints into one conjunction (TRUE for an empty sequence)."""
    materialized = list(parts)
    if len(materialized) == 1:
        return materialized[0]
    return And(materialized)


def all_satisfied(constraints: Iterable[Constraint], assignment: Assignment) -> bool:
    """Evaluate a collection of constraints under an assignment."""
    return all(c.satisfied(assignment) for c in constraints)


# Revisers compile over the classes above: imported last, as it imports them.
from repro.solver import interval as _interval  # noqa: E402
