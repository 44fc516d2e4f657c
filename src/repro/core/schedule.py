"""Pluggable campaign schedulers and their named registry.

The matrix campaign engine (:mod:`repro.core.parallel`) executes a fixed
population of *chunks* — contiguous iteration ranges of matrix cells.  A
:class:`Scheduler` decides (1) how finely each cell's budget is chunked and
(2) in which order pending chunks are leased to workers.  Crucially, a
scheduler may only reorder and redirect *leases*: it never changes which
``(config, iteration)`` pairs execute or their seeds, so the merged
findings of a campaign are bit-identical across schedulers — only lease
order and worker placement move.  (The scheduler-equivalence
suite in ``tests/core/test_schedulers.py`` pins this.)

Like strategies, oracles and compilers, schedulers are registry-named:
the *name* travels through the CLI (``--schedule``) and checkpoints, the
instance is built where it runs.

Registered schedulers:

* ``static`` — today's pre-planned placement: one chunk per cell, leased in
  the planner's round-robin interleaving.  Zero scheduling overhead.
* ``adaptive`` — work stealing: each cell's budget is split into ~4 leases
  so a worker whose cell finishes early immediately picks up the remaining
  budget of slower cells.
* ``coverage`` — a novelty-rate bandit.  Workers trace compiler branch
  arcs per iteration and ship deltas to the coordinator
  (:class:`repro.compilers.coverage.CoverageFeedback`); the coordinator
  maintains the global arc union and per-cell recent new-arc rates, and
  each lease goes to the cell with the best recent novelty-per-second.
  Cells that keep finding new arcs get the stolen budget first, à la
  greybox coverage-guided fuzzers.
"""

from __future__ import annotations

import abc
import math
from collections import deque
from typing import Any, Callable, Deque, Dict, Mapping, Optional, \
    Sequence, Tuple

#: The scheduler assumed when a campaign predates the registry.
DEFAULT_SCHEDULER = "static"


class Scheduler(abc.ABC):
    """Lease-ordering policy of one campaign run.

    Subclasses override :meth:`_default_chunk` (budget granularity) and
    :meth:`select` (which pending chunk is leased next), and may consume
    per-iteration telemetry via :meth:`observe`.  ``wants_coverage``
    declares whether workers must trace compiler coverage and ship
    per-iteration arc deltas — pure overhead for policies that ignore
    them, so it defaults to off.
    """

    name: str = "scheduler"
    #: Workers trace compiler branch coverage and ship per-iteration deltas.
    wants_coverage: bool = False

    def __init__(self, chunk_iterations: Optional[int] = None) -> None:
        self.chunk_iterations = chunk_iterations

    # ------------------------------------------------------------------ #
    def chunk_size(self, remaining: int) -> int:
        """Iterations per lease for a cell with ``remaining`` left."""
        if self.chunk_iterations is not None:
            return max(1, self.chunk_iterations)
        return self._default_chunk(remaining)

    def _default_chunk(self, remaining: int) -> int:
        return remaining

    # ------------------------------------------------------------------ #
    def select(self, pending: Sequence[int],
               cell_of: Mapping[int, int]) -> int:
        """Choose the next chunk to lease.

        ``pending`` lists the not-yet-dispatched chunk ids in the
        planner's interleaved order (the deterministic tie-break);
        ``cell_of`` maps chunk id → cell index.  The default is FIFO in
        planned order.
        """
        return pending[0]

    def lease_iterations(self, cell_index: int, base: int,
                         remaining: int) -> int:
        """Iterations granted to the next lease of a cell.

        ``base`` is the cell's fixed chunk granularity (from
        :meth:`chunk_size` at the cell's first lease); ``remaining`` is
        how many unleased iterations it has left.  The default grants the
        base size — a scheduler with telemetry may scale it (see
        :meth:`CoverageScheduler.lease_iterations`).  Lease sizing only
        moves *where chunk boundaries fall*; findings stay bit-identical
        because iterations are seeded from ``(config, iteration)``.
        """
        return max(1, min(base, remaining))

    def observe(self, cell_index: int, new_arcs: int,
                duration: float) -> None:
        """Per-iteration feedback: globally-new arc count + wall seconds."""

    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, Any]:
        """JSON-serializable scheduler state for checkpoint persistence."""
        return {}

    def load_state(self, payload: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output on campaign resume."""


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
#: A factory building a scheduler for one campaign run.
SchedulerFactory = Callable[[Optional[int]], Scheduler]

_SCHEDULER_REGISTRY: Dict[str, SchedulerFactory] = {}


def register_scheduler(name: str,
                       factory: Optional[SchedulerFactory] = None):
    """Register a scheduler factory under ``name`` (usable as a decorator)."""

    def _register(factory: SchedulerFactory) -> SchedulerFactory:
        existing = _SCHEDULER_REGISTRY.get(name)
        if existing is not None and existing is not factory:
            raise ValueError(f"scheduler name {name!r} already registered")
        _SCHEDULER_REGISTRY[name] = factory
        return factory

    if factory is not None:
        return _register(factory)
    return _register


def registered_schedulers() -> Tuple[str, ...]:
    """Names of every registered scheduler, in deterministic order."""
    return tuple(sorted(_SCHEDULER_REGISTRY))


def build_scheduler(name: str,
                    chunk_iterations: Optional[int] = None) -> Scheduler:
    """Instantiate a registered scheduler for one campaign run."""
    try:
        factory = _SCHEDULER_REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown scheduler {name!r}; registered: "
                       f"{sorted(_SCHEDULER_REGISTRY)}") from None
    return factory(chunk_iterations)


# --------------------------------------------------------------------------- #
# Built-in schedulers
# --------------------------------------------------------------------------- #
@register_scheduler("static")
class StaticScheduler(Scheduler):
    """Pre-planned placement: whole-cell leases in planner order.

    An explicit ``chunk_iterations`` still splits cells (the historical
    ``chunk_iterations`` knob implied chunked scheduling even without
    work stealing); otherwise every cell is one lease.
    """

    name = "static"


@register_scheduler("adaptive")
class AdaptiveScheduler(Scheduler):
    """Work stealing: ~4 leases per cell, leased FIFO in planner order.

    A worker whose cell finishes early immediately leases the remaining
    budget of slower cells, so no core idles while work remains.
    """

    name = "adaptive"

    def _default_chunk(self, remaining: int) -> int:
        # ~4 leases per cell: fine enough to rebalance, coarse enough to
        # amortize scheduling and checkpoint traffic.
        return max(1, math.ceil(remaining / 4))


@register_scheduler("coverage")
class CoverageScheduler(Scheduler):
    """Novelty-rate bandit over per-cell coverage feedback.

    For every folded iteration the coordinator reports how many arcs were
    new *to the global union* and how long the iteration took; the
    scheduler keeps a sliding window per cell and leases the next chunk to
    the cell with the best recent novelty-per-second.  Cells never
    observed (fresh campaigns, resumed cells without restored state) are
    explored first, in planner order — so the opening sweep is the static
    round-robin and the bandit takes over once rates exist.
    """

    name = "coverage"
    wants_coverage = True

    #: Sliding-window length (iterations) of the per-cell rate estimate.
    #: Long enough to smooth single-iteration noise, short enough that a
    #: plateaued cell's stale streak decays within one lease.
    WINDOW = 8

    def __init__(self, chunk_iterations: Optional[int] = None) -> None:
        super().__init__(chunk_iterations)
        self._recent: Dict[int, Deque[Tuple[int, float]]] = {}

    def _default_chunk(self, remaining: int) -> int:
        return max(1, math.ceil(remaining / 4))

    # ------------------------------------------------------------------ #
    def observe(self, cell_index: int, new_arcs: int,
                duration: float) -> None:
        window = self._recent.setdefault(cell_index,
                                         deque(maxlen=self.WINDOW))
        window.append((int(new_arcs), max(float(duration), 1e-6)))

    def novelty_rate(self, cell_index: int) -> Optional[float]:
        """Recent new-arcs-per-second of a cell, or None when unobserved."""
        window = self._recent.get(cell_index)
        if not window:
            return None
        arcs = sum(count for count, _duration in window)
        seconds = sum(duration for _count, duration in window)
        return arcs / max(seconds, 1e-6)

    def select(self, pending: Sequence[int],
               cell_of: Mapping[int, int]) -> int:
        best: Optional[Tuple[float, int]] = None
        for chunk_id in pending:  # planner order = deterministic tie-break
            rate = self.novelty_rate(cell_of[chunk_id])
            if rate is None:
                return chunk_id  # explore unobserved cells first
            if best is None or rate > best[0]:
                best = (rate, chunk_id)
        assert best is not None
        return best[1]

    def lease_iterations(self, cell_index: int, base: int,
                         remaining: int) -> int:
        """Novelty-rate-driven lease sizes.

        A cell producing new arcs at the fleet's best recent rate gets
        leases up to 2× its base granularity (fewer scheduling round-trips
        while it is hot); a plateaued cell gets down to half (so the
        bandit re-evaluates it sooner).  Unobserved cells, and campaigns
        with an explicit ``chunk_iterations``, keep the fixed base — the
        user asked for that granularity.
        """
        if self.chunk_iterations is not None:
            return max(1, min(base, remaining))
        rate = self.novelty_rate(cell_index)
        if rate is None:
            return max(1, min(base, remaining))
        best = max((self.novelty_rate(cell) or 0.0)
                   for cell in self._recent)
        if best <= 0.0:
            return max(1, min(base, remaining))
        scale = 0.5 + 1.5 * min(1.0, rate / best)
        return max(1, min(remaining, int(round(base * scale))))

    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, Any]:
        return {"window": self.WINDOW,
                "recent": {str(cell): [[count, duration]
                                       for count, duration in window]
                           for cell, window in self._recent.items()}}

    def load_state(self, payload: Dict[str, Any]) -> None:
        from repro.errors import ReproError

        window = payload.get("window")
        if window is not None:
            # state_dict() always records the window the samples were
            # collected under.  Re-windowing stale samples under a
            # different WINDOW would silently change every restored
            # novelty-rate estimate, so a mismatch is a loud error — not
            # a quiet re-window — and the user decides (delete the
            # checkpoint, or resume with the engine that wrote it).
            try:
                window = int(window)
            except (TypeError, ValueError):
                raise ReproError(
                    "coverage scheduler checkpoint is corrupt: non-integer "
                    f"novelty window {window!r}") from None
            if window != self.WINDOW:
                raise ReproError(
                    f"coverage scheduler checkpoint was written with a "
                    f"novelty window of {window} iterations; this engine "
                    f"uses {self.WINDOW}.  Resuming would re-window stale "
                    "novelty samples and silently change lease decisions — "
                    "resume with the engine version that wrote the "
                    "checkpoint, or delete it to drop the scheduler state.")
        recent = payload.get("recent", {})
        if not isinstance(recent, dict):
            return
        self._recent = {}
        for cell, samples in recent.items():
            try:
                window: Deque[Tuple[int, float]] = deque(
                    (int(count), float(duration))
                    for count, duration in samples)
                window = deque(window, maxlen=self.WINDOW)
                self._recent[int(cell)] = window
            except (TypeError, ValueError):
                continue  # corrupt entry: fall back to exploring that cell


__all__ = [
    "AdaptiveScheduler",
    "CoverageScheduler",
    "DEFAULT_SCHEDULER",
    "Scheduler",
    "StaticScheduler",
    "build_scheduler",
    "register_scheduler",
    "registered_schedulers",
]
