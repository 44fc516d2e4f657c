"""An incremental constraint solver for quantifier-free integer arithmetic.

This is the repo's stand-in for Z3.  NNSmith only poses satisfiability
queries over bounded integers (tensor dimensions and operator attributes),
which bounds propagation (:mod:`repro.solver.interval`) and a complete
propagate-and-branch search over the bounded domains answer.

A query propagates its new constraints from the bounds the asserted ones
imply; an empty interval *refutes* it without search.  Otherwise each
variable keeps its previous value (phase saving) or, lacking one in its
interval, takes the low end.  When that breaks a constraint, the search
branches over the variables connected to the broken constraints, nearest
first: the saved value, then the low end, then the two halves of the rest,
propagating after each decision.  Every model is checked with
:func:`~repro.solver.constraints.all_satisfied`.  Budgets count decisions
(``stats["nodes"]``), not time, and only sorted names and insertion-ordered
constraints are iterated, so the generated stream is a pure function of the
seed (``tests/solver/test_stream_pin.py`` pins it).

The public surface mirrors how Algorithm 1 in the paper uses Z3:

* ``int_var(name)`` introduces a symbolic integer,
* ``add(constraints)`` asserts constraints permanently,
* ``try_add_constraints(constraints)`` asserts them only if the system stays
  satisfiable (used for both node insertion and attribute binning),
* ``model()`` returns the current satisfying assignment,
* ``push()/pop()`` manage scopes for speculative insertions.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import UnsatisfiableError
from repro.solver.constraints import Constraint, all_satisfied
from repro.solver.expr import SymVar
from repro.solver.interval import DEFAULT_MAX, DEFAULT_MIN, Box, propagate


class Solver:
    """Incremental satisfiability checker over bounded integer variables."""

    def __init__(self, max_nodes: int = 50_000, phase_saving: bool = True) -> None:
        self.max_nodes = max_nodes
        self.phase_saving = phase_saving
        self._constraints: List[Constraint] = []
        #: Each variable's declared bounds.
        self._domains: Box = {}
        #: Each variable's constraints, as indices in insertion order.
        self._watchers: Dict[str, List[int]] = {}
        #: ``_domains`` narrowed by ``_constraints[:_settled]`` (None: rebuild).
        self._box: Optional[Box] = None
        self._settled = 0
        self._model: Dict[str, int] = {}
        self._scopes: List[int] = []
        #: ``rejected`` counts every rejected insertion, ``refuted`` the
        #: infeasible ones; ``nodes`` counts branching decisions.
        self.stats = {"checks": 0, "nodes": 0, "rejected": 0, "refuted": 0}

    def int_var(self, name: str, low: int = DEFAULT_MIN,
                high: int = DEFAULT_MAX) -> SymVar:
        """Introduce (or re-scope) an integer variable with inclusive bounds."""
        low, high = int(low), int(high)
        if name not in self._domains:
            self._domains[name] = (low, high)
            self._watchers[name] = []
            if self._box is not None:
                self._box[name] = (low, high)
        else:
            declared = self._domains[name]
            self._domains[name] = (max(declared[0], low), min(declared[1], high))
            self._box = None
        return SymVar(name)

    def add(self, constraints: Iterable[Constraint]) -> None:
        """Assert constraints unconditionally (no satisfiability check)."""
        for constraint in constraints:
            for name in sorted(constraint.variables()):
                if name not in self._domains:
                    self.int_var(name)
                self._watchers[name].append(len(self._constraints))
            self._constraints.append(constraint)

    def try_add_constraints(self, constraints: Sequence[Constraint],
                            budget: Optional[int] = None) -> bool:
        """Assert ``constraints`` if the system stays satisfiable.

        Returns True and keeps them (updating the cached model) on success.
        Returns False and leaves the solver untouched when they are proved
        infeasible (``stats["refuted"]``), or when the search gives up after
        ``budget`` branching decisions (default ``max_nodes``), which
        attribute binning keeps small; ``stats["rejected"]`` counts both.
        """
        marker = len(self._constraints)
        self.add(constraints)
        outcome = self._solve(self.max_nodes if budget is None else budget)
        if outcome:
            return True
        self._truncate(marker)
        self.stats["rejected"] += 1
        self.stats["refuted"] += outcome is False
        return False

    def check(self) -> bool:
        """Is the currently asserted system satisfiable?"""
        return bool(self._solve(self.max_nodes))

    def model(self) -> Dict[str, int]:
        """The satisfying assignment found by the last successful check
        (raises :class:`UnsatisfiableError` if there is none and solving fails)."""
        padded = {name: self._model.get(name, low)
                  for name, (low, _) in self._domains.items()}
        if not self._model or not all_satisfied(self._constraints, padded):
            if not self.check():
                raise UnsatisfiableError("constraint system is unsatisfiable")
            padded = dict(self._model)
        return padded

    def push(self) -> None:
        """Open a scope; constraints added after this can be undone by pop()."""
        self._scopes.append(len(self._constraints))

    def pop(self) -> None:
        """Discard constraints added since the matching push()."""
        if not self._scopes:
            raise UnsatisfiableError("pop() without matching push()")
        self._truncate(self._scopes.pop())

    @property
    def constraints(self) -> List[Constraint]:
        return list(self._constraints)

    def _truncate(self, marker: int) -> None:
        """Forget the constraints from index ``marker`` on."""
        for constraint in self._constraints[marker:]:
            for name in constraint.variables():
                watchers = self._watchers[name]
                while watchers and watchers[-1] >= marker:
                    watchers.pop()
        del self._constraints[marker:]
        if self._settled > marker:
            self._box = None  # the bounds rest on constraints that are gone

    def _solve(self, budget: int) -> Optional[bool]:
        """Propagate, then search where the previous model breaks: True for a
        model (cached), False for proved infeasible, None for out of budget."""
        self.stats["checks"] += 1
        if self._box is None:
            self._box = dict(self._domains)
            self._settled = 0
        box = dict(self._box)
        pending = range(self._settled, len(self._constraints))
        if not propagate(box, self._constraints, self._watchers, pending):
            return False
        saved = self._model if self.phase_saving else {}
        model: Dict[str, int] = {}
        for name, (low, high) in box.items():
            if low > high:
                return False
            value = saved.get(name, low)
            model[name] = value if low <= value <= high else low
        violated = [c for c in self._constraints if not c.predicate(model)]
        if violated:
            order = self._connected(violated)
            found = self._search({name: box[name] for name in order}, order,
                                 saved, model, budget)
            if not found:
                return found
        self._box, self._settled, self._model = box, len(self._constraints), model
        return True

    def _connected(self, constraints: List[Constraint]) -> List[str]:
        """The variables sharing a chain of constraints with ``constraints``,
        nearest first (breadth-first, each constraint's names sorted)."""
        order = list(dict.fromkeys(name for constraint in constraints
                                   for name in sorted(constraint.variables())))
        seen = set(order)
        for name in order:  # the loop sees what it appends
            for index in self._watchers[name]:
                for other in sorted(self._constraints[index].variables()):
                    if other not in seen:
                        seen.add(other)
                        order.append(other)
        return order

    def _search(self, box: Box, order: List[str], saved: Dict[str, int],
                model: Dict[str, int], budget: int) -> Optional[bool]:
        """Depth-first propagate-and-branch over the variables of ``order``,
        completing ``model`` with the first leaf that satisfies everything;
        returns like :meth:`_solve`."""
        stack = []
        nodes = 0
        while True:
            name = next((name for name in order if box[name][0] < box[name][1]), None)
            if name is not None:
                stack.append((box, name, _branches(*box[name], saved.get(name))))
            else:
                model.update((name, box[name][0]) for name in order)
                if all_satisfied(self._constraints, model):
                    return True
            while stack:
                parent, name, branches = stack[-1]
                bounds = next(branches, None)
                if bounds is None:
                    stack.pop()
                    continue
                if nodes >= budget:
                    return None
                nodes += 1
                self.stats["nodes"] += 1
                box = dict(parent)
                box[name] = bounds
                if propagate(box, self._constraints, self._watchers, self._watchers[name]):
                    break
            else:
                return False


def _branches(low: int, high: int, saved: Optional[int]):
    """A decision's alternatives: the saved value if it is in ``[low, high]``,
    else ``low``; then the rest, halved when the point was ``low``."""
    point = saved if saved is not None and low <= saved <= high else low
    middle = (low + high + 1) // 2
    rest = ([(low + 1, middle), (middle + 1, high)] if point == low
            else [(low, point - 1), (point + 1, high)])
    return iter([(point, point)] + [bounds for bounds in rest if bounds[0] <= bounds[1]])


def solve(constraints: Sequence[Constraint],
          bounds: Optional[Dict[str, tuple]] = None) -> Dict[str, int]:
    """Solve ``constraints`` under optional per-variable (low, high)
    ``bounds`` in one shot; raises :class:`UnsatisfiableError` when they
    are infeasible or no model is found within the default budget."""
    solver = Solver()
    for name, (low, high) in (bounds or {}).items():
        solver.int_var(name, low, high)
    solver.add(constraints)
    if not solver.check():
        raise UnsatisfiableError("constraint system is unsatisfiable")
    return solver.model()
