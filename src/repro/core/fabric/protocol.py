"""The versioned coordinator↔worker message schema of the campaign fabric.

Every message the coordinator and its workers exchange — over
``multiprocessing`` queues *and* over TCP sockets — is one of the frozen
dataclasses below, serialized with :func:`encode` to a JSON-compatible dict
tagged with the protocol version and message kind, and rebuilt with
:func:`decode`.  Promoting the historical ad-hoc queue tuples to a schema is
what makes the two transports interchangeable: the wire format is the
contract, the transport only moves frames.

Versioning: :data:`PROTOCOL_VERSION` is bumped whenever a message's fields
change meaning or shape.  :func:`decode` rejects frames from another
protocol version loudly (a fleet mixing engine versions would silently
corrupt campaign state otherwise); unknown *extra* fields on a known kind
are ignored so additive same-version deployments interoperate.

The module also carries the JSON round-trips for the campaign objects a
*remote* worker must rebuild from the wire rather than receive by pickle:
:func:`config_to_dict`/:func:`config_from_dict` for
:class:`~repro.core.fuzzer.FuzzerConfig` (including the generator's
operator pool, serialized as registry kind names) and
:func:`task_to_dict`/:func:`task_from_dict` for
:class:`~repro.core.parallel.CellTask`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.errors import ReproError

#: Wire-format version.  v1: the PR-8 schema — lease/claim/iter/
#: coverage_delta/chunk_done/error/heartbeat/checkpoint_ack/shutdown plus
#: the hello/welcome handshake and the status request/reply pair.
#: v2: large ``coverage_delta`` frames may ship their arcs zlib-compressed
#: (``packed``/``codec`` wire fields).
#: v3: a config's value search is bounded by steps alone; the wall-clock
#: budget key is gone and ``value_search_max_steps`` is never None.
#: v4: iterations alone bound a campaign: a lease's ``stop`` is always an
#: iteration, leases carry no wall-clock budget, and a config's
#: ``max_iterations`` is never None.
#: v5: the coordinator addresses every lease to one worker, so a lease
#: carries no ``exclude`` list, and an iteration's arcs ride in its ``iter``
#: frame's payload: the ``coverage_delta`` frame is gone.
#: v6: every cell names its compilers and opt level, so ``welcome`` carries
#: no compiler-factory path: only names and data go over the wire.
#: v7: a lease names the cells of one oracle group (``cells``, each cell's
#: task in ``tasks``), and ``claim`` and ``chunk_done`` name no cell.
PROTOCOL_VERSION = 7


class ProtocolError(ReproError):
    """A malformed, unknown or version-mismatched fabric frame."""


# --------------------------------------------------------------------------- #
# Message dataclasses
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Message:
    """Base class; ``kind`` is the wire tag of each concrete message."""

    kind = ""


@dataclass(frozen=True)
class Hello(Message):
    """Worker → coordinator handshake: identity + protocol version."""

    kind = "hello"
    worker: str = ""
    pid: int = 0
    protocol: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class Welcome(Message):
    """Coordinator → worker handshake reply.  A remote worker rebuilds each
    cell's compilers from the names in its lease's task, so the handshake
    carries only the protocol version."""

    kind = "welcome"
    protocol: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class Lease(Message):
    """Coordinator → worker: iterations of one oracle group to execute.

    An oracle group is the set of matrix cells that differ only in their
    oracle (a campaign without an oracle axis has groups of one).
    ``cells`` names, in cell order, the group's cells that have all of
    iterations ``start`` to ``stop`` (both inclusive) left to run; the
    worker runs each iteration for every one of them, so the oracles
    judging one case share its export, builds and runs
    (:class:`~repro.core.difftest.JudgingMemo`).  ``tasks`` carries each
    cell's serialized :class:`~repro.core.parallel.CellTask` for remote
    workers (local pool workers already hold the task list and receive
    ``tasks=None``).
    """

    kind = "lease"
    chunk_id: int = 0
    cells: Tuple[int, ...] = (0,)
    start: int = 1
    stop: int = 1
    tasks: Optional[List[Dict[str, Any]]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))


@dataclass(frozen=True)
class Claim(Message):
    """Worker → coordinator: a lease was picked up and is now running."""

    kind = "claim"
    worker: str = ""
    chunk_id: int = 0


@dataclass(frozen=True)
class IterationResult(Message):
    """Worker → coordinator: one cell's completed iteration, folded.

    ``payload`` is :func:`~repro.core.parallel.campaign_result_to_dict` of
    the iteration's partial result, whose ``coverage_arcs`` are the arcs
    new to the worker's view of the cell; ``duration`` is the
    iteration's wall-clock seconds on the worker, telemetry for the cell's
    compute-time axis (the status snapshot's ``time_used`` and the
    ``cell_elapsed`` of coverage samples).
    """

    kind = "iter"
    worker: str = ""
    chunk_id: int = 0
    cell_index: int = 0
    iteration: int = 0
    duration: float = 0.0
    payload: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ChunkDone(Message):
    """Worker → coordinator: a lease ran to completion."""

    kind = "chunk_done"
    worker: str = ""
    chunk_id: int = 0


@dataclass(frozen=True)
class WorkerError(Message):
    """Worker → coordinator: the lease failed with a worker-side exception
    in cell ``cell_index`` (after which the worker retires)."""

    kind = "error"
    worker: str = ""
    chunk_id: int = 0
    cell_index: int = 0
    message: str = ""


@dataclass(frozen=True)
class Heartbeat(Message):
    """Worker → coordinator liveness beacon (socket transport only; local
    pool workers are observed directly via ``Process.is_alive``)."""

    kind = "heartbeat"
    worker: str = ""
    sent_at: float = 0.0


@dataclass(frozen=True)
class CheckpointAck(Message):
    """Coordinator → worker: progress through ``folded`` iterations has
    been folded, and — when ``persisted`` — written to the checkpoint.
    Informational: workers surface it in logs so fleet operators can see
    their shard's durability lag."""

    kind = "checkpoint_ack"
    worker: str = ""
    folded: int = 0
    persisted: bool = False


@dataclass(frozen=True)
class Shutdown(Message):
    """Coordinator → worker: drain and exit."""

    kind = "shutdown"
    reason: str = ""


@dataclass(frozen=True)
class StatusRequest(Message):
    """Status client → coordinator: ask for the live campaign snapshot."""

    kind = "status_request"


@dataclass(frozen=True)
class StatusReply(Message):
    """Coordinator → status client: the latest campaign snapshot."""

    kind = "status_reply"
    snapshot: Dict[str, Any] = field(default_factory=dict)


_MESSAGE_TYPES: Dict[str, Type[Message]] = {
    cls.kind: cls
    for cls in (Hello, Welcome, Lease, Claim, IterationResult, ChunkDone,
                WorkerError, Heartbeat, CheckpointAck, Shutdown,
                StatusRequest, StatusReply)
}


# --------------------------------------------------------------------------- #
# Frame (de)serialization
# --------------------------------------------------------------------------- #
def encode(message: Message) -> Dict[str, Any]:
    """Serialize a message to a JSON-compatible, version-tagged dict."""
    if not isinstance(message, Message) or not message.kind:
        raise ProtocolError(f"not a fabric message: {message!r}")
    payload = dataclasses.asdict(message)
    payload["kind"] = message.kind
    payload["v"] = PROTOCOL_VERSION
    return payload


def decode(payload: Any) -> Message:
    """Rebuild a message from :func:`encode` output.

    Rejects frames from another protocol version or of unknown kind with a
    :class:`ProtocolError`; extra fields on a known kind are dropped so
    additive same-version peers interoperate.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(f"fabric frame must be a dict, got "
                            f"{type(payload).__name__}")
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"fabric frame has protocol version {version!r}; this engine "
            f"speaks v{PROTOCOL_VERSION}.  Coordinator and workers must run "
            "the same engine version — upgrade the lagging side.")
    kind = payload.get("kind")
    cls = _MESSAGE_TYPES.get(kind)
    if cls is None:
        raise ProtocolError(f"unknown fabric message kind {kind!r}")
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {key: value for key, value in payload.items() if key in names}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ProtocolError(f"malformed {kind!r} frame: {exc}") from None


# --------------------------------------------------------------------------- #
# Campaign-object round-trips (what a remote worker rebuilds from the wire)
# --------------------------------------------------------------------------- #
def config_to_dict(config) -> Dict[str, Any]:
    """JSON encoding of a :class:`~repro.core.fuzzer.FuzzerConfig`.

    The generator's operator pool is serialized as registry kind names and
    rebuilt from :data:`repro.core.oplib.SPEC_BY_KIND`; dtype weights are
    keyed by dtype name.  Both keep their original order — the generator
    draws from them by iteration order, so reordering on the wire would
    change what a remote worker generates for the same seed.
    """
    generator = config.generator
    return {
        "generator": {
            "n_nodes": generator.n_nodes,
            "max_dim": generator.max_dim,
            "max_rank": generator.max_rank,
            "seed": generator.seed,
            "forward_probability": generator.forward_probability,
            "weight_probability": generator.weight_probability,
            "use_binning": generator.use_binning,
            "n_bins": generator.n_bins,
            "op_pool": [spec.op_kind for spec in generator.op_pool],
            "dtype_weights": {str(dtype): float(weight) for dtype, weight
                              in generator.dtype_weights.items()},
            "max_attempts_per_node": generator.max_attempts_per_node,
        },
        "value_search_method": config.value_search_method,
        "value_search_max_steps": config.value_search_max_steps,
        "max_iterations": config.max_iterations,
        "bugs": sorted(config.bugs.enabled_ids()),
        "seed": config.seed,
        "probe_operator_support": config.probe_operator_support,
        "strategy": config.strategy,
        "oracle": config.oracle,
        "pipeline": config.pipeline,
        "verify_passes": config.verify_passes,
    }


def config_from_dict(payload: Dict[str, Any]):
    """Rebuild a :class:`~repro.core.fuzzer.FuzzerConfig` from
    :func:`config_to_dict` output."""
    from repro.compilers.bugs import BugConfig
    from repro.core.fuzzer import FuzzerConfig
    from repro.core.generator import GeneratorConfig
    from repro.core.oplib import SPEC_BY_KIND
    from repro.dtypes import DType

    entry = payload.get("generator", {})
    unknown = [kind for kind in entry.get("op_pool", [])
               if kind not in SPEC_BY_KIND]
    if unknown:
        raise ProtocolError(
            f"lease names operator kinds this worker does not know: "
            f"{sorted(unknown)} — coordinator and workers must run the "
            "same engine version.")
    generator = GeneratorConfig(
        n_nodes=entry.get("n_nodes", 10),
        max_dim=entry.get("max_dim", GeneratorConfig().max_dim),
        max_rank=entry.get("max_rank", GeneratorConfig().max_rank),
        seed=entry.get("seed"),
        forward_probability=entry.get("forward_probability", 0.5),
        weight_probability=entry.get("weight_probability", 0.4),
        use_binning=entry.get("use_binning", True),
        n_bins=entry.get("n_bins", 7),
        op_pool=[SPEC_BY_KIND[kind] for kind in entry.get("op_pool", [])],
        dtype_weights={DType(name): float(weight) for name, weight
                       in entry.get("dtype_weights", {}).items()},
        max_attempts_per_node=entry.get("max_attempts_per_node", 25),
    )
    return FuzzerConfig(
        generator=generator,
        value_search_method=payload.get("value_search_method",
                                        "gradient_proxy"),
        value_search_max_steps=payload.get(
            "value_search_max_steps", FuzzerConfig().value_search_max_steps),
        max_iterations=payload.get("max_iterations",
                                   FuzzerConfig().max_iterations),
        bugs=BugConfig(enabled=payload.get("bugs", [])),
        seed=payload.get("seed", 0),
        probe_operator_support=payload.get("probe_operator_support", True),
        strategy=payload.get("strategy", FuzzerConfig().strategy),
        oracle=payload.get("oracle", FuzzerConfig().oracle),
        pipeline=payload.get("pipeline"),
        verify_passes=payload.get("verify_passes", False),
    )


def task_to_dict(task) -> Dict[str, Any]:
    """JSON encoding of a :class:`~repro.core.parallel.CellTask`."""
    cell = task.cell
    return {
        "cell": {
            "shard": cell.shard,
            "compilers": list(cell.compilers),
            "opt_level": cell.opt_level,
            "generator": cell.generator,
            "oracle": cell.oracle,
            "pipeline": cell.pipeline,
        },
        "config": config_to_dict(task.config),
        "trace_coverage": task.trace_coverage,
    }


def task_from_dict(payload: Dict[str, Any]):
    """Rebuild a :class:`~repro.core.parallel.CellTask` from
    :func:`task_to_dict` output."""
    from repro.core.parallel import CellTask, MatrixCell

    entry = payload.get("cell", {})
    cell = MatrixCell(
        shard=entry.get("shard", 0),
        compilers=tuple(entry["compilers"]),
        opt_level=entry["opt_level"],
        generator=entry.get("generator"),
        oracle=entry.get("oracle"),
        pipeline=entry.get("pipeline"),
    )
    return CellTask(cell=cell,
                    config=config_from_dict(payload.get("config", {})),
                    trace_coverage=bool(payload.get("trace_coverage", False)))


__all__ = [
    "PROTOCOL_VERSION",
    "CheckpointAck",
    "ChunkDone",
    "Claim",
    "Heartbeat",
    "Hello",
    "IterationResult",
    "Lease",
    "Message",
    "ProtocolError",
    "Shutdown",
    "StatusReply",
    "StatusRequest",
    "Welcome",
    "WorkerError",
    "config_from_dict",
    "config_to_dict",
    "decode",
    "encode",
    "task_from_dict",
    "task_to_dict",
]
