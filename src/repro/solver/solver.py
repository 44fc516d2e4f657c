"""An incremental constraint solver for quantifier-free integer arithmetic.

This is the repo's stand-in for Z3.  NNSmith only ever poses satisfiability
queries over bounded positive integers (tensor dimensions and operator
attributes), so a complete SMT engine is unnecessary: a backtracking search
over bounded domains with constraint-readiness pruning, phase saving across
incremental calls and random restarts solves the constraint systems produced
during graph generation quickly.

Search is the hot path of generation.  Constraints compile once to
closures (:attr:`Constraint.predicate`), and each search builds its variable
order, candidate values and per-variable checks before it descends, so a
search node costs a dict store and a few closure calls.  Which nodes the
search visits, in which order, and every random draw it makes define the
generated stream; ``tests/solver/test_stream_pin.py`` pins them, and a change
that alters them re-records that pin.

The public surface mirrors how Algorithm 1 in the paper uses Z3:

* ``int_var(name)`` introduces a symbolic integer,
* ``add(constraints)`` asserts constraints permanently,
* ``try_add_constraints(constraints)`` asserts them only if the system stays
  satisfiable (used for both node insertion and attribute binning),
* ``model()`` returns the current satisfying assignment,
* ``push()/pop()`` manage scopes for speculative insertions.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.errors import UnsatisfiableError
from repro.solver.constraints import Constraint, Predicate, all_satisfied
from repro.solver.expr import SymVar
from repro.solver.interval import DEFAULT_MAX, DEFAULT_MIN, Domain, tighten


class Solver:
    """Incremental satisfiability checker over bounded integer variables."""

    def __init__(self, seed: Optional[int] = None, max_nodes: int = 50_000,
                 max_restarts: int = 3, phase_saving: bool = True) -> None:
        self._rng = random.Random(seed)
        self.max_nodes = max_nodes
        self.max_restarts = max_restarts
        self.phase_saving = phase_saving
        self._constraints: List[Constraint] = []
        self._domains: Dict[str, Domain] = {}
        self._model: Dict[str, int] = {}
        self._scopes: List[int] = []
        #: Statistics useful for the solver ablation benchmark.
        self.stats = {"checks": 0, "nodes": 0, "restarts": 0, "rejected": 0}

    # ------------------------------------------------------------------ #
    # Variable and constraint management
    # ------------------------------------------------------------------ #
    def int_var(self, name: str, low: int = DEFAULT_MIN,
                high: int = DEFAULT_MAX) -> SymVar:
        """Introduce (or re-scope) an integer variable with inclusive bounds."""
        low, high = int(low), int(high)
        domain = self._domains.get(name)
        if domain is None:
            self._domains[name] = Domain(low, high)
        else:
            domain.low = max(domain.low, low)
            domain.high = min(domain.high, high)
        return SymVar(name)

    def add(self, constraints: Iterable[Constraint]) -> None:
        """Assert constraints unconditionally (no satisfiability check)."""
        for constraint in constraints:
            self._register_variables(constraint)
            self._constraints.append(constraint)

    def try_add_constraints(self, constraints: Sequence[Constraint],
                            budget: Optional[int] = None) -> bool:
        """Assert ``constraints`` if the system stays satisfiable.

        Returns True and keeps the constraints (updating the cached model) on
        success; returns False and leaves the solver state untouched when no
        model is found within the search budget, so False means the solver
        gave up, not that the system is unsatisfiable.  ``budget``
        temporarily overrides ``max_nodes``, the node budget of each of the
        ``max_restarts`` search restarts, so a rejection can cost up to
        ``max_restarts * budget`` nodes.  Callers that can cheaply live with
        a rejection (e.g. attribute binning) pass a small budget.
        """
        constraints = list(constraints)
        marker = len(self._constraints)
        self.add(constraints)
        saved_budget = self.max_nodes
        if budget is not None:
            self.max_nodes = budget
        try:
            model = self._solve()
        finally:
            self.max_nodes = saved_budget
        if model is None:
            del self._constraints[marker:]
            self.stats["rejected"] += 1
            return False
        self._model = model
        return True

    def check(self) -> bool:
        """Is the currently asserted system satisfiable?"""
        model = self._solve()
        if model is None:
            return False
        self._model = model
        return True

    def model(self) -> Dict[str, int]:
        """The satisfying assignment found by the last successful check.

        Raises:
            UnsatisfiableError: if no model is cached and solving fails.
        """
        padded = self._padded(self._model)
        if not self._model or not all_satisfied(self._constraints, padded):
            if not self.check():
                raise UnsatisfiableError("constraint system is unsatisfiable")
            padded = self._padded(self._model)
        return dict(padded)

    # ------------------------------------------------------------------ #
    # Scopes
    # ------------------------------------------------------------------ #
    def push(self) -> None:
        """Open a scope; constraints added after this can be undone by pop()."""
        self._scopes.append(len(self._constraints))

    def pop(self) -> None:
        """Discard constraints added since the matching push()."""
        if not self._scopes:
            raise UnsatisfiableError("pop() without matching push()")
        marker = self._scopes.pop()
        del self._constraints[marker:]

    @property
    def constraints(self) -> List[Constraint]:
        return list(self._constraints)

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def _register_variables(self, constraint: Constraint) -> None:
        for name in constraint.variables():
            self._domains.setdefault(name, Domain())

    def _padded(self, assignment: Dict[str, int]) -> Dict[str, int]:
        """Extend an assignment with defaults for variables it lacks."""
        padded = dict(assignment)
        for name, domain in self._domains.items():
            if name not in padded:
                padded[name] = domain.clamp(1)
        return padded

    def _solve(self) -> Optional[Dict[str, int]]:
        """Backtracking search; returns None when the node budget runs out."""
        self.stats["checks"] += 1
        domains = {name: Domain(d.low, d.high) for name, d in self._domains.items()}
        tighten(domains, self._constraints)
        if any(domain.is_empty() for domain in domains.values()):
            return None
        constrained = set()
        for constraint in self._constraints:
            constrained |= constraint.variables()

        for restart in range(self.max_restarts):
            pinned = self._pinned_assignment(domains, restart)
            free = [name for name in sorted(constrained) if name not in pinned]
            result = self._backtrack(pinned, free, domains, randomize=restart > 0)
            if result is not None:
                for name, domain in domains.items():
                    result.setdefault(name, domain.clamp(1))
                return result
            self.stats["restarts"] += 1
        return None

    def _pinned_assignment(self, domains: Dict[str, Domain], restart: int) -> Dict[str, int]:
        """Start from the previous model and unpin variables in conflict.

        On the first restart only conflicting variables are re-solved (phase
        saving makes incremental ``try_add_constraints`` calls cheap); later
        restarts progressively drop the saved phase, and the final restart
        solves every variable from scratch.
        """
        if not self.phase_saving or restart >= self.max_restarts - 1:
            return {}
        pinned = {
            name: value
            for name, value in self._model.items()
            if name in domains and domains[name].contains(value)
        }
        if not pinned:
            return {}
        # Iteratively unpin variables participating in violated constraints.
        for _ in range(1 + restart * 2):
            padded = self._padded(pinned)
            conflicted: Set[str] = set()
            for constraint in self._constraints:
                if not constraint.satisfied(padded):
                    conflicted |= constraint.variables()
            if not conflicted:
                break
            before = len(pinned)
            pinned = {k: v for k, v in pinned.items() if k not in conflicted}
            if len(pinned) == before:
                break
        if restart > 0 and pinned:
            # Drop a random half of the phase to escape bad local regions.
            names = list(pinned)
            self._rng.shuffle(names)
            pinned = {name: pinned[name] for name in names[: len(names) // 2]}
        return pinned

    def _backtrack(self, pinned: Dict[str, int], free: List[str],
                   domains: Dict[str, Domain], randomize: bool) -> Optional[Dict[str, int]]:
        """Depth-first assignment of ``free`` variables with early pruning.

        Everything that does not change during the search (variable order,
        candidate values, the checks of each variable) is built once here,
        so ``descend`` only tries values.
        """
        assignment = dict(pinned)
        if not free:
            return assignment if all_satisfied(self._constraints, self._padded(assignment)) else None

        order = list(free)
        if randomize:
            self._rng.shuffle(order)
        position = {name: i for i, name in enumerate(order)}

        # For pruning we check a constraint as soon as all of its variables
        # are assigned: when its last free variable in ``order`` is, or up
        # front when all of them are pinned.  ``free`` is every constrained
        # variable that is not pinned, so no constraint falls outside both.
        checks_at: List[List[Predicate]] = [[] for _ in order]
        for constraint in self._constraints:
            indices = [position[name] for name in constraint.variables() if name in position]
            if indices:
                checks_at[max(indices)].append(constraint.predicate)
            elif not constraint.predicate(assignment):
                return None
        checks = [tuple(predicates) for predicates in checks_at]

        # Phase saving tries a variable's previous value first.  A randomized
        # restart shuffles a fresh copy of the candidates on every visit (the
        # draws define the stream); the deterministic one orders them once.
        candidates_at: List[List[int]] = []
        saved_at: List[Optional[int]] = []
        for name in order:
            domain = domains[name]
            candidates = domain.candidates()
            saved = self._model.get(name) if self.phase_saving else None
            if saved is not None and not domain.contains(saved):
                saved = None
            if saved is not None and not randomize:
                candidates = [saved] + [c for c in candidates if c != saved]
            candidates_at.append(candidates)
            saved_at.append(saved)

        depth = len(order)
        budget = self.max_nodes
        nodes = 0
        shuffle = self._rng.shuffle

        def descend(index: int) -> Optional[Dict[str, int]]:
            nonlocal budget, nodes
            if index == depth:
                return assignment if all_satisfied(
                    self._constraints, self._padded(assignment)) else None
            name = order[index]
            candidates = candidates_at[index]
            if randomize:
                candidates = list(candidates)
                shuffle(candidates)
                saved = saved_at[index]
                if saved is not None:
                    candidates = [saved] + [c for c in candidates if c != saved]
            variable_checks = checks[index]
            for value in candidates:
                budget -= 1
                if budget <= 0:
                    return None
                assignment[name] = value
                nodes += 1
                for check in variable_checks:
                    if not check(assignment):
                        break
                else:
                    result = descend(index + 1)
                    if result is not None:
                        return result
                if budget <= 0:
                    break
            assignment.pop(name, None)
            return None

        try:
            return descend(0)
        finally:
            self.stats["nodes"] += nodes


def solve(constraints: Sequence[Constraint], seed: Optional[int] = None,
          bounds: Optional[Dict[str, tuple]] = None) -> Dict[str, int]:
    """One-shot convenience: solve a constraint list or raise.

    Args:
        constraints: the predicates to satisfy.
        seed: RNG seed for reproducibility.
        bounds: optional per-variable (low, high) bounds.

    Returns:
        A satisfying assignment mapping variable names to integers.

    Raises:
        UnsatisfiableError: when no model is found within the search budget.
    """
    solver = Solver(seed=seed)
    for name, (low, high) in (bounds or {}).items():
        solver.int_var(name, low, high)
    solver.add(constraints)
    if not solver.check():
        raise UnsatisfiableError("constraint system is unsatisfiable")
    return solver.model()
