"""Variable domains and HC4-style bounds propagation.

The solver keeps one inclusive integer interval per variable, a *box*, and
:func:`propagate` narrows it to a fixpoint: a :class:`Comparison` evaluates
the interval hulls of its two expression trees bottom-up, then projects the
comparison back down both, narrowing the variables at the leaves.  An
:class:`And` propagates each part, an :class:`Or` its one remaining live
disjunct (one whose own propagation empties no interval; broadcast's
``a == b | a == 1 | b == 1`` is the common case), and a :class:`Not` is only
checked, once its variables are fixed.  Propagation never removes a value
of a model, so an empty interval proves the constraints infeasible.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.solver.constraints import And, Comparison, Constraint, Or
from repro.solver.expr import DIVISION_BY_ZERO, Const, Expr, SymVar

#: Default bounds for freshly created variables: dimensions and attributes of
#: generated DNNs are positive and kept small for fuzzing efficiency.
DEFAULT_MIN = 1
DEFAULT_MAX = 4096

#: An unbounded interval end: beyond every value, the division sentinel too.
INF = 1 << 64

#: An inclusive integer interval, and one per variable name.
Interval = Tuple[int, int]
Box = Dict[str, Interval]
#: An expression's hull and its operands' hulls (None at a leaf).
Hull = Tuple[int, int, Optional[Tuple["Hull", "Hull"]]]


def _corners(function, al: int, ah: int, bl: int, bh: int) -> Interval:
    values = (function(al, bl), function(al, bh), function(ah, bl), function(ah, bh))
    return min(values), max(values)


def _floordiv_hull(al: int, ah: int, bl: int, bh: int) -> Interval:
    if bl > 0 or bh < 0:  # a // b is monotone in a and in b: corners bound it
        return _corners(int.__floordiv__, al, ah, bl, bh)
    return -max(-al, ah, 0), DIVISION_BY_ZERO  # |a // b| <= |a| for b != 0


#: Interval hull of ``a <op> b`` from the hulls ``[al, ah]`` and ``[bl, bh]``.
_HULL = {
    "+": lambda al, ah, bl, bh: (al + bl, ah + bh),
    "-": lambda al, ah, bl, bh: (al - bh, ah - bl),
    "*": lambda al, ah, bl, bh: _corners(int.__mul__, al, ah, bl, bh),
    "//": _floordiv_hull,
    "%": lambda al, ah, bl, bh: (0, bh - 1) if bl > 0 else (-INF, INF),
    "min": lambda al, ah, bl, bh: (min(al, bl), min(ah, bh)),
    "max": lambda al, ah, bl, bh: (max(al, bl), max(ah, bh)),
}


def _quotient(lo: int, hi: int, dl: int, dh: int) -> Interval:
    """Integers ``x`` with ``x * d`` in ``[lo, hi]`` for some ``d`` in ``[dl, dh]``."""
    if dl <= 0 <= dh:
        return -INF, INF
    floors = [n // d if d > 0 else -n // -d for n in (lo, hi) for d in (dl, dh)]
    ceilings = [-(-n // d) if d > 0 else -(n // -d) for n in (lo, hi) for d in (dl, dh)]
    return min(ceilings), max(floors)


_ANY = (-INF, INF)
#: Projection of ``a <op> b in [lo, hi]`` onto ``a`` and onto ``b``.
_PROJECT = {
    "+": lambda lo, hi, al, ah, bl, bh: ((lo - bh, hi - bl), (lo - ah, hi - al)),
    "-": lambda lo, hi, al, ah, bl, bh: ((lo + bl, hi + bh), (al - hi, ah - lo)),
    "*": lambda lo, hi, al, ah, bl, bh: (_quotient(lo, hi, bl, bh),
                                         _quotient(lo, hi, al, ah)),
    # lo <= a // b <= hi  <=>  lo * b <= a <= (hi + 1) * b - 1  for b > 0
    "//": lambda lo, hi, al, ah, bl, bh: ((min(lo * bl, lo * bh),
                                          max((hi + 1) * bl, (hi + 1) * bh) - 1)
                                         if bl > 0 else _ANY, _ANY),
    "%": lambda lo, hi, al, ah, bl, bh: (_ANY, _ANY),
    "min": lambda lo, hi, al, ah, bl, bh: ((lo, hi if bl > hi else INF),
                                           (lo, hi if al > hi else INF)),
    "max": lambda lo, hi, al, ah, bl, bh: ((lo if bh < lo else -INF, hi),
                                           (lo if ah < lo else -INF, hi)),
}

#: Where ``lhs <op> rhs`` confines each side, given both hulls (None: never).
_TARGETS = {
    "==": lambda ll, lh, rl, rh: ((rl, rh), (ll, lh)),
    "<=": lambda ll, lh, rl, rh: ((-INF, rh), (ll, INF)),
    "<": lambda ll, lh, rl, rh: ((-INF, rh - 1), (ll + 1, INF)),
    ">=": lambda ll, lh, rl, rh: ((rl, INF), (-INF, lh)),
    ">": lambda ll, lh, rl, rh: ((rl + 1, INF), (-INF, lh - 1)),
    "!=": lambda ll, lh, rl, rh: None if ll == lh == rl == rh else (_ANY, _ANY),
}


def _hull(expr: Expr, box: Box) -> Hull:
    if type(expr) is SymVar:
        return (*box[expr.name], None)
    if type(expr) is Const:
        return expr.value, expr.value, None
    lhs, rhs = _hull(expr.lhs, box), _hull(expr.rhs, box)
    low, high = _HULL[expr.op](lhs[0], lhs[1], rhs[0], rhs[1])
    return low, high, (lhs, rhs)


def _narrow(expr: Expr, lo: int, hi: int, hull: Hull, box: Box,
            changed: List[str]) -> bool:
    """Confine ``expr`` to ``[lo, hi]``; False when that is impossible."""
    if type(expr) is SymVar:
        low, high = box[expr.name]
        if lo <= low and high <= hi:
            return True
        low, high = max(lo, low), min(hi, high)
        if low > high:
            return False
        box[expr.name] = (low, high)
        changed.append(expr.name)
        return True
    low, high, operands = hull
    if lo <= low and high <= hi:
        return True  # the hull already fits: projecting would narrow nothing
    low, high = max(lo, low), min(hi, high)
    if low > high or operands is None:
        return low <= high
    (al, ah, _), (bl, bh, _) = operands
    into_lhs, into_rhs = _PROJECT[expr.op](low, high, al, ah, bl, bh)
    return (_narrow(expr.lhs, *into_lhs, operands[0], box, changed) and
            _narrow(expr.rhs, *into_rhs, operands[1], box, changed))


def _revise(constraint: Constraint, box: Box, changed: List[str]) -> bool:
    """Narrow ``box`` by one constraint; False when it cannot hold in the box."""
    if type(constraint) is Comparison:
        lhs, rhs = _hull(constraint.lhs, box), _hull(constraint.rhs, box)
        targets = _TARGETS[constraint.op](lhs[0], lhs[1], rhs[0], rhs[1])
        return targets is not None and (
            _narrow(constraint.lhs, *targets[0], lhs, box, changed) and
            _narrow(constraint.rhs, *targets[1], rhs, box, changed))
    if type(constraint) is And:
        return all(_revise(part, box, changed) for part in constraint.parts)
    if type(constraint) is Or:
        live = [part for part in constraint.parts if _feasible(part, box)]
        return len(live) > 1 or (len(live) == 1 and _revise(live[0], box, changed))
    names = constraint.variables()  # a Not: checked once every variable is fixed
    return (any(box[name][0] < box[name][1] for name in names) or
            constraint.predicate({name: box[name][0] for name in names}))


def _feasible(constraint: Constraint, box: Box) -> bool:
    """Whether propagating ``constraint`` alone leaves ``box`` non-empty."""
    scratch = {name: box[name] for name in constraint.variables()}
    return propagate(scratch, [constraint], dict.fromkeys(scratch, [0]), [0])


def propagate(box: Box, constraints: Sequence[Constraint],
              watchers: Dict[str, List[int]], queue: Iterable[int]) -> bool:
    """Narrow ``box`` in place to a fixpoint, revising the constraints at
    the ``queue`` indices first and every watcher of a variable that narrows
    after; False when an interval empties."""
    queue = list(dict.fromkeys(queue))
    queued = set(queue)
    changed: List[str] = []
    for index in queue:  # the loop sees what it appends
        queued.discard(index)
        if not _revise(constraints[index], box, changed):
            return False
        for name in changed:
            for watcher in watchers[name]:
                if watcher not in queued:
                    queued.add(watcher)
                    queue.append(watcher)
        changed.clear()
    return True
