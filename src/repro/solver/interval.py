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

Revision is the solver's inner loop, so a constraint does not walk its
trees each time: on first use it compiles to a *reviser*
(:attr:`Constraint.reviser <repro.solver.constraints.Constraint.reviser>`,
memoised on the node like its predicate), a closure over one hull closure
and one narrowing closure per tree node that apply the ``_HULL``,
``_PROJECT`` and ``_TARGETS`` rules below.  Comparisons with a constant
(``x <= c``, ``numel <= MAX_NUMEL``) only narrow their other side, and a
tree builds its narrowing closures once its hull first sticks out; ``v ==
w`` gets direct code, and an :class:`Or` decides each disjunct that
compares leaves with one revision of a scratch copy of its variables and
stops at its second live disjunct.  Every interval of a box must be
non-empty, as the hull rules divide by its ends: the solver refutes an
empty declared domain before it propagates.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.solver.constraints import And, Comparison, Constraint, Or
from repro.solver.expr import DIVISION_BY_ZERO, BinOp, Const, Expr, SymVar

#: Default bounds for freshly created variables: dimensions and attributes of
#: generated DNNs are positive and kept small for fuzzing efficiency.
DEFAULT_MIN = 1
DEFAULT_MAX = 4096

#: An unbounded interval end: beyond every value, the division sentinel too.
INF = 1 << 64

#: An inclusive integer interval, and one per variable name.
Interval = Tuple[int, int]
Box = Dict[str, Interval]
#: Narrows a box in place by one constraint, appending each name it narrows;
#: False when the constraint cannot hold in the box.
Reviser = Callable[[Box, List[str]], bool]
#: An expression's hull: ``(low, high)`` at a leaf, and at a :class:`BinOp`
#: ``(low, high, lhs hull, rhs hull)``, which narrowing projects through.
Hull = tuple


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


def compile_reviser(constraint: Constraint) -> Reviser:
    """``constraint`` compiled to a :data:`Reviser`; use the memoised
    :attr:`Constraint.reviser` rather than calling this."""
    if type(constraint) is Comparison:
        return _comparison(constraint.op, constraint.lhs, constraint.rhs)
    if type(constraint) is And:
        parts = tuple(part.reviser for part in constraint.parts)

        def every_part(box: Box, changed: List[str]) -> bool:
            for part in parts:
                if not part(box, changed):
                    return False
            return True
        return every_part
    if type(constraint) is Or:
        return _disjunction(constraint.parts)
    names = tuple(constraint.variables())  # a Not: checked once every variable is fixed
    predicate = constraint.predicate

    def once_fixed(box: Box, changed: List[str]) -> bool:
        return (any(box[name][0] < box[name][1] for name in names) or
                predicate({name: box[name][0] for name in names}))
    return once_fixed


def _comparison(op: str, lhs: Expr, rhs: Expr) -> Reviser:
    if type(rhs) is Const and op != "!=":
        # ``x <op> c`` confines x to one interval, and once x lies in it, c
        # lies in the interval x's hull gives c: narrowing x decides it all.
        low, high = _TARGETS[op](0, 0, rhs.value, rhs.value)[0]
        if type(lhs) is BinOp:
            return _bounded_tree(lhs, low, high)
        return partial(_narrower(lhs), low, high, None)
    if op == "==" and type(lhs) is SymVar and type(rhs) is SymVar:
        return _equal_variables(lhs.name, rhs.name)
    lhs_hull, lhs_narrow = _hull_of(lhs), _narrower(lhs)
    rhs_hull, rhs_narrow, targets = _hull_of(rhs), _narrower(rhs), _TARGETS[op]

    def compare(box: Box, changed: List[str]) -> bool:
        a, b = lhs_hull(box), rhs_hull(box)
        into = targets(a[0], a[1], b[0], b[1])
        if into is None:
            return False
        (al, ah), (bl, bh) = into
        return lhs_narrow(al, ah, a, box, changed) and rhs_narrow(bl, bh, b, box, changed)
    return compare


def _bounded_tree(tree: BinOp, low: int, high: int) -> Reviser:
    """Confine ``tree`` to ``[low, high]``, building its narrowing closures
    only once its hull sticks out (numel caps and dimension bounds rarely do)."""
    hull_of, narrow = _hull_of(tree), None

    def bounded(box: Box, changed: List[str]) -> bool:
        nonlocal narrow
        hull = hull_of(box)
        if low <= hull[0] and hull[1] <= high:
            return True
        narrow = narrow or _narrower(tree)
        return narrow(low, high, hull, box, changed)
    return bounded


def _equal_variables(name: str, other: str) -> Reviser:
    """``name == other``: both narrow to the intersection, ``name`` first."""
    def revise(box: Box, changed: List[str]) -> bool:
        lhs, rhs = box[name], box[other]
        both = (max(lhs[0], rhs[0]), min(lhs[1], rhs[1]))
        if both[0] > both[1]:
            return False
        if both != lhs:
            box[name] = both
            changed.append(name)
        if both != rhs:
            box[other] = both
            changed.append(other)
        return True
    return revise


def _hull_of(expr: Expr) -> Callable[[Box], Hull]:
    """The function of the box that gives ``expr``'s :data:`Hull`."""
    if type(expr) is SymVar:
        return itemgetter(expr.name)
    if type(expr) is Const:
        constant = (expr.value, expr.value)
        return lambda box: constant
    lhs, rhs, op = _hull_of(expr.lhs), _hull_of(expr.rhs), expr.op
    if op == "*":
        def product(box: Box) -> Hull:
            a, b = lhs(box), rhs(box)
            al, ah, bl, bh = a[0], a[1], b[0], b[1]
            if 0 <= al <= ah and 0 <= bl <= bh:  # dimensions: the ends multiply
                return al * bl, ah * bh, a, b
            low, high = _corners(int.__mul__, al, ah, bl, bh)
            return low, high, a, b
        return product
    rule = _HULL[op]

    def hull(box: Box) -> Hull:
        a, b = lhs(box), rhs(box)
        low, high = rule(a[0], a[1], b[0], b[1])
        return low, high, a, b
    return hull


def _narrower(expr: Expr) -> Callable[[int, int, Hull, Box, List[str]], bool]:
    """The function that confines ``expr`` to ``[lo, hi]`` given its hull
    (stale below the root once a leaf narrows); False when that is impossible."""
    if type(expr) is SymVar:
        name = expr.name

        def variable(lo: int, hi: int, hull: Hull, box: Box, changed: List[str]) -> bool:
            low, high = box[name]
            if lo <= low and high <= hi:
                return True
            if low < lo:
                low = lo
            if high > hi:
                high = hi
            if low > high:
                return False
            box[name] = (low, high)
            changed.append(name)
            return True
        return variable
    if type(expr) is Const:
        value = expr.value
        return lambda lo, hi, hull, box, changed: lo <= value <= hi
    lhs, rhs = _narrower(expr.lhs), _narrower(expr.rhs)
    project = _PROJECT[expr.op]

    def operation(lo: int, hi: int, hull: Hull, box: Box, changed: List[str]) -> bool:
        low, high, a, b = hull
        if lo <= low and high <= hi:
            return True  # the hull already fits: projecting would narrow nothing
        if low < lo:
            low = lo
        if high > hi:
            high = hi
        if low > high:
            return False
        (al, ah), (bl, bh) = project(low, high, a[0], a[1], b[0], b[1])
        return lhs(al, ah, a, box, changed) and rhs(bl, bh, b, box, changed)
    return operation


def _disjunction(parts: Sequence[Constraint]) -> Reviser:
    disjuncts = [(_decider(part), part.reviser) for part in parts]

    def revise(box: Box, changed: List[str]) -> bool:
        live = None
        for feasible, reviser in disjuncts:
            if feasible(box):
                if live is not None:
                    return True  # two live disjuncts: neither may narrow the box
                live = reviser
        return live is not None and live(box, changed)
    return revise


def _decider(constraint: Constraint) -> Callable[[Box], bool]:
    """Whether propagating ``constraint`` alone leaves the box non-empty,
    leaving the box itself untouched."""
    revise, names = constraint.reviser, tuple(constraint.variables())
    if _settles_at_once(constraint):
        return lambda box: revise({name: box[name] for name in names}, [])
    single, watchers = [constraint], dict.fromkeys(names, [0])
    return lambda box: propagate({name: box[name] for name in names}, single, watchers, (0,))


def _settles_at_once(constraint: Constraint) -> bool:
    """Whether one revision takes ``constraint`` to its fixpoint: true of a
    comparison of leaves, but for ``x < x`` and ``x > x``, which narrow x on
    every revision until it empties."""
    if type(constraint) is not Comparison:
        return False
    lhs, rhs = constraint.lhs, constraint.rhs
    if type(lhs) is SymVar and type(rhs) is SymVar and lhs.name == rhs.name:
        return constraint.op not in ("<", ">")
    return type(lhs) is not BinOp and type(rhs) is not BinOp


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
        if not constraints[index].reviser(box, changed):
            return False
        if changed:
            for name in changed:
                for watcher in watchers[name]:
                    if watcher not in queued:
                        queued.add(watcher)
                        queue.append(watcher)
            changed.clear()
    return True
