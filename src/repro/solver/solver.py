"""An incremental constraint solver for quantifier-free integer arithmetic.

This is the repo's stand-in for Z3.  NNSmith only poses satisfiability
queries over bounded integers (tensor dimensions and operator attributes),
which bounds propagation (:mod:`repro.solver.interval`) and a complete
propagate-and-branch search over the bounded domains answer.

A query propagates its new constraints from the bounds the asserted ones
imply, each through the reviser it compiled on its first revision; an empty
interval *refutes* the query without search.  Otherwise each variable keeps
its previous value (phase saving) or, lacking one in its interval, takes
the low end.  The previous model satisfies every constraint up to a mark
(``_settled``, lowered when :meth:`Solver.pop` removes constraints below
it), so ``_solve`` evaluates only the constraints added since and the
watchers of variables whose value moved, in insertion order.
When that finds a broken constraint, the search branches over the variables
connected to the broken constraints, nearest first: the saved value, then
the low end, then the two halves of the rest, propagating after each
decision.  Each search leaf, and :meth:`Solver.model`, checks every
constraint with :func:`~repro.solver.constraints.all_satisfied`.  Budgets
count decisions (``stats["nodes"]``), not time, and only sorted names and
insertion-ordered constraints are iterated, so the generated stream is a
pure function of the seed (``tests/solver/test_stream_pin.py`` pins it).
A search that exhausts its budget is not a refutation: ``model()`` and
:func:`solve` name the node budget when they raise for it.

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
        #: ``_model`` satisfies ``_constraints[:_settled]``.
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
        """Is a model of the currently asserted system found within
        ``max_nodes`` branching decisions?"""
        return bool(self._solve(self.max_nodes))

    def model(self) -> Dict[str, int]:
        """The satisfying assignment found by the last successful check;
        solves first when there is none, or it puts a variable outside its
        declared domain (an ``int_var`` re-declaration narrows it) or
        breaks a constraint, and raises :class:`UnsatisfiableError` when
        that search fails."""
        padded = {name: self._model.get(name, low)
                  for name, (low, _) in self._domains.items()}
        if not self._model or \
                any(not low <= padded[name] <= high
                    for name, (low, high) in self._domains.items()) or \
                not all_satisfied(self._constraints, padded):
            outcome = self._solve(self.max_nodes)
            if not outcome:
                raise UnsatisfiableError(
                    "constraint system is unsatisfiable" if outcome is False else
                    f"no model found within the node budget of {self.max_nodes} "
                    f"branching decisions (max_nodes); the system may be satisfiable")
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
            # The bounds rest on constraints that are gone; the model still
            # satisfies the ones left.
            self._box, self._settled = None, marker

    def _solve(self, budget: int) -> Optional[bool]:
        """Propagate, then search where the previous model breaks: True for a
        model (cached), False for proved infeasible, None for out of budget."""
        self.stats["checks"] += 1
        constraints, settled = self._constraints, self._settled
        if self._box is None:
            box, pending = dict(self._domains), range(len(constraints))
        else:
            box, pending = dict(self._box), range(settled, len(constraints))
        # Propagation takes every interval to be non-empty (the hull rules
        # divide by their ends), and keeps it so: an empty declared domain
        # refutes here.
        if any(low > high for low, high in box.values()):
            return False
        if not propagate(box, constraints, self._watchers, pending):
            return False
        previous, saving, watchers = self._model, self.phase_saving, self._watchers
        model: Dict[str, int] = {}
        # The previous model satisfies constraints[:settled]: only those added
        # since and the watchers of a variable whose value moves can break.
        suspects = set(range(settled, len(constraints)))
        for name, (low, high) in box.items():
            old = previous.get(name)
            value = old if saving and old is not None and low <= old <= high else low
            model[name] = value
            if value != old:
                suspects.update(watchers[name])
        violated = [constraints[index] for index in sorted(suspects)
                    if not constraints[index].predicate(model)]
        if violated:
            order = self._connected(violated)
            found = self._search({name: box[name] for name in order}, order,
                                 previous if saving else {}, model, budget)
            if not found:
                return found
        self._box, self._settled, self._model = box, len(constraints), model
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
    are infeasible or no model is found within the default budget (the
    message tells the two apart)."""
    solver = Solver()
    for name, (low, high) in (bounds or {}).items():
        solver.int_var(name, low, high)
    solver.add(constraints)
    return solver.model()
