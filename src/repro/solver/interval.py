"""Variable domains and simple interval tightening.

The solver keeps one :class:`Domain` per symbolic variable.  Before search,
atomic comparisons of the form ``var <op> constant`` (and the mirrored form)
are used to tighten domains — a cheap but effective preprocessing step given
that most NNSmith constraints involve explicit lower/upper bounds
(``kernel > 0``, binning constraints ``l <= attr <= r``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.solver.constraints import Comparison, Constraint
from repro.solver.expr import Const, SymVar

#: Default bounds for freshly created variables: dimensions and attributes of
#: generated DNNs are positive and kept small for fuzzing efficiency.
DEFAULT_MIN = 1
DEFAULT_MAX = 4096


@dataclass
class Domain:
    """An inclusive integer interval for one variable."""

    low: int = DEFAULT_MIN
    high: int = DEFAULT_MAX

    def clamp(self, value: int) -> int:
        """Project a value into the domain."""
        return max(self.low, min(self.high, value))

    def contains(self, value: int) -> bool:
        return self.low <= value <= self.high

    @property
    def width(self) -> int:
        return max(0, self.high - self.low + 1)

    def is_empty(self) -> bool:
        return self.high < self.low

    def candidates(self, limit: int = 256) -> List[int]:
        """Representative values to try during repair search.

        Enumerates the full interval when it is small; otherwise mixes the
        low end (small shapes dominate valid DNNs), geometric steps and the
        upper bound so that large attributes remain reachable.
        """
        if self.is_empty():
            return []
        if self.width <= limit:
            return list(range(self.low, self.high + 1))
        values = set(range(self.low, self.low + limit // 2))
        value = max(self.low, 1)
        while value <= self.high:
            values.add(int(value))
            value *= 2
        values.add(self.high)
        return sorted(v for v in values if self.contains(v))


def tighten(domains: Dict[str, Domain], constraints: Iterable[Constraint]) -> None:
    """Tighten domains in place using ``var <op> const`` shaped comparisons."""
    for constraint in constraints:
        if not isinstance(constraint, Comparison):
            continue
        lhs, rhs, op = constraint.lhs, constraint.rhs, constraint.op
        if isinstance(lhs, SymVar) and isinstance(rhs, Const):
            _apply(domains, lhs.name, op, rhs.value)
        elif isinstance(rhs, SymVar) and isinstance(lhs, Const):
            _apply(domains, rhs.name, _mirror(op), lhs.value)


def _mirror(op: str) -> str:
    return {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "==": "==", "!=": "!="}[op]


def _apply(domains: Dict[str, Domain], name: str, op: str, bound: int) -> None:
    domain = domains.setdefault(name, Domain())
    if op == "==":
        domain.low = max(domain.low, bound)
        domain.high = min(domain.high, bound)
    elif op == "<=":
        domain.high = min(domain.high, bound)
    elif op == "<":
        domain.high = min(domain.high, bound - 1)
    elif op == ">=":
        domain.low = max(domain.low, bound)
    elif op == ">":
        domain.low = max(domain.low, bound + 1)
    # "!=" carries no useful interval information.
