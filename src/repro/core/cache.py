"""Per-process memo tables for the campaign iteration hot path.

Two stages, both keyed on work that does repeat inside one campaign:

``shape_infer``
    Memoized :func:`repro.ops.shape_infer.infer_output_types`, keyed by
    ``(op_type, attrs, input_types)``.  Model validation, the graph
    builder and the DeepC importer infer the same small set of operator
    signatures over and over.  Successes only — error messages may embed
    node-specific text, and errors are the rare path.

``exec_plan``
    A per-model interpreter *execution plan*: topological order with each
    node's kernel pre-resolved and per-value consumer refcounts precomputed,
    so :meth:`Interpreter.run_detailed` skips registry dispatch and
    ``topological_order()`` on every run.  Value search and the gradcheck
    oracle run the same model many times.  Keyed weakly by the live
    :class:`~repro.graph.model.Model` object and validated against its
    ``structure_version`` counter, so mutation through the Model API
    invalidates the plan.

Compiled artifacts and subgraph values are not cached: every iteration
generates a new model, so they never repeat.

Invisibility contract
---------------------
Caching must be *provably invisible*: a campaign with caches on is
bit-identical to caches off (findings, checkpoints, Venn sets) — enforced by
``tests/core/test_hot_path_cache.py``.  Cache state never feeds checkpoints:
:mod:`repro.core.parallel` strips ``cache_stats`` before persisting, and the
checkpoint fingerprint ignores the cache knob, so resuming a run across
cache settings is legal (stats restart at zero after a resume — they are
telemetry, not findings).  Coverage-traced campaigns keep both stages on:
the tracer's scope excludes ``repro/ops`` and ``repro/runtime``.

Cache hits and misses are counted per stage and surface as
``CampaignResult.cache_stats`` via the worker → coordinator telemetry
stream.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.graph.model import Model
from repro.graph.node import Node
from repro.ops import semantics, shape_infer

__all__ = [
    "STAGES",
    "ExecutionPlan",
    "HotPathCache",
    "build_execution_plan",
    "configure",
    "execution_plan",
    "get_cache",
    "reset",
    "stats_delta",
    "stats_snapshot",
]

#: Telemetry stages, in display order.
STAGES = ("shape_infer", "exec_plan")

#: Shape-infer memo entries kept before the table is cleared wholesale
#: (entries are tiny; wholesale clearing keeps the bookkeeping trivial).
SHAPE_MEMO_CAPACITY = 65536


# ---------------------------------------------------------------------------
# Execution plans


@dataclass
class ExecutionPlan:
    """Pre-resolved per-model interpreter schedule.

    ``steps`` holds, per node in topological order, the resolved kernel (or
    ``None`` — raised as :class:`UnsupportedOperatorError` *when reached*,
    matching ``execute_node``), the node itself, and the first statically
    unavailable input name (or ``None``) so the ``GraphError`` fires at the
    same point in the run.  ``consumers`` counts remaining reads per value
    name (duplicate inputs count twice) for eager dead-value dropping;
    ``protected`` is the graph-output set that must survive to the end.
    """

    steps: List[Tuple[Optional[Any], Node, Optional[str]]]
    consumers: Dict[str, int]
    protected: frozenset
    n_nodes: int


def build_execution_plan(model: Model) -> ExecutionPlan:
    available = set(model.inputs) | set(model.initializers)
    consumers: Dict[str, int] = {}
    steps: List[Tuple[Optional[Any], Node, Optional[str]]] = []
    for node in model.topological_order():
        bad_input = None
        for input_name in node.inputs:
            if input_name not in available:
                bad_input = input_name
                break
            consumers[input_name] = consumers.get(input_name, 0) + 1
        steps.append((semantics.kernel_for(node.op), node, bad_input))
        if bad_input is not None:
            # Later steps never execute; stop the schedule here.
            break
        available.update(node.outputs)
    return ExecutionPlan(
        steps=steps,
        consumers=consumers,
        protected=frozenset(model.outputs),
        n_nodes=len(model.nodes),
    )


# ---------------------------------------------------------------------------
# Shape-infer memo keys


def _freeze_attr(value: Any) -> Any:
    """Hashable, type-discriminating view of an attr value.

    Scalars are tagged with their type name so ``True`` and ``1`` (equal and
    hash-equal in Python) cannot share a memo entry.
    """
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_attr(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted(
            (key, _freeze_attr(val)) for key, val in value.items()))
    return (type(value).__name__, value)


# ---------------------------------------------------------------------------
# The cache singleton


class HotPathCache:
    """Process-wide cache state.  One instance per process (:func:`get_cache`).

    ``enabled`` gates both stages.
    """

    def __init__(self) -> None:
        self.enabled = True
        self._shape_memo: Dict[Tuple, Tuple] = {}
        self._plans: "weakref.WeakKeyDictionary[Model, Tuple[int, ExecutionPlan]]" = (
            weakref.WeakKeyDictionary())
        self._hits = {stage: 0 for stage in STAGES}
        self._misses = {stage: 0 for stage in STAGES}

    # -- telemetry ---------------------------------------------------------

    def record_hit(self, stage: str) -> None:
        self._hits[stage] += 1

    def record_miss(self, stage: str) -> None:
        self._misses[stage] += 1

    def stats_snapshot(self) -> Dict[str, Dict[str, int]]:
        return {
            stage: {"hits": self._hits[stage], "misses": self._misses[stage]}
            for stage in STAGES
        }

    def stats_delta(self, before: Dict[str, Dict[str, int]]) -> Dict[str, Dict[str, int]]:
        """Per-stage counter growth since ``before``; silent stages omitted."""
        delta: Dict[str, Dict[str, int]] = {}
        for stage in STAGES:
            prior = before.get(stage, {})
            hits = self._hits[stage] - prior.get("hits", 0)
            misses = self._misses[stage] - prior.get("misses", 0)
            if hits or misses:
                delta[stage] = {"hits": hits, "misses": misses}
        return delta

    # -- configuration -----------------------------------------------------

    def configure(self, enabled: bool) -> None:
        self.enabled = enabled

    def reset(self, stats_only: bool = False) -> None:
        self._hits = {stage: 0 for stage in STAGES}
        self._misses = {stage: 0 for stage in STAGES}
        if not stats_only:
            self._shape_memo.clear()
            self._plans = weakref.WeakKeyDictionary()

    # -- shape-infer layer -------------------------------------------------

    def shape_key(self, node: Node,
                  input_types: Sequence[Any]) -> Optional[Tuple]:
        if not self.enabled:
            return None
        try:
            key = (node.op, _freeze_attr(node.attrs), tuple(input_types))
            hash(key)
        except TypeError:
            return None  # unhashable attr — bypass the memo
        return key

    def shape_get(self, key: Tuple) -> Optional[Tuple]:
        cached = self._shape_memo.get(key)
        if cached is not None:
            self.record_hit("shape_infer")
        else:
            self.record_miss("shape_infer")
        return cached

    def shape_put(self, key: Tuple, output_types: Tuple) -> None:
        if len(self._shape_memo) >= SHAPE_MEMO_CAPACITY:
            self._shape_memo.clear()
        self._shape_memo[key] = output_types

    # -- execution-plan layer ----------------------------------------------

    def plan_for(self, model: Model) -> ExecutionPlan:
        if not self.enabled:
            return build_execution_plan(model)
        version = getattr(model, "structure_version", None)
        entry = self._plans.get(model)
        if (entry is not None and entry[0] == version
                and entry[1].n_nodes == len(model.nodes)):
            self.record_hit("exec_plan")
            return entry[1]
        self.record_miss("exec_plan")
        plan = build_execution_plan(model)
        self._plans[model] = (version, plan)
        return plan


_CACHE = HotPathCache()


def get_cache() -> HotPathCache:
    return _CACHE


def configure(enabled: bool) -> None:
    """Process-wide cache switch (see :class:`HotPathCache.configure`)."""
    _CACHE.configure(enabled)


def reset(stats_only: bool = False) -> None:
    _CACHE.reset(stats_only=stats_only)


def stats_snapshot() -> Dict[str, Dict[str, int]]:
    return _CACHE.stats_snapshot()


def stats_delta(before: Dict[str, Dict[str, int]]) -> Dict[str, Dict[str, int]]:
    return _CACHE.stats_delta(before)


def execution_plan(model: Model) -> ExecutionPlan:
    """The (possibly cached) execution plan of ``model``."""
    return _CACHE.plan_for(model)


# ---------------------------------------------------------------------------
# Shape-infer memo installation (import side effect, kept explicit)


class _ShapeInferMemo:
    """Adapter :mod:`repro.ops.shape_infer` calls into (successes only)."""

    def key_for(self, node: Node, input_types: Sequence[Any]) -> Optional[Tuple]:
        return _CACHE.shape_key(node, input_types)

    def get(self, key: Tuple) -> Optional[Tuple]:
        return _CACHE.shape_get(key)

    def put(self, key: Tuple, output_types: Tuple) -> None:
        _CACHE.shape_put(key, output_types)


shape_infer.install_memo(_ShapeInferMemo())
