"""Distributed campaign fabric: one coordinator↔worker protocol, three wires.

The matrix campaign engine (:mod:`repro.core.parallel`) has always been a
coordinator talking to a fleet of workers; until this package the only wire
between them was a pair of ``multiprocessing`` queues, which pinned the
fleet to one host.  The fabric splits that conversation into three layers:

* :mod:`repro.core.fabric.protocol` — the versioned, serializable message
  schema (``lease``/``claim``/``iter``/``chunk_done``/``heartbeat``/
  ``shutdown`` …) plus JSON round-trips for the campaign
  objects a remote worker needs rebuilt (``FuzzerConfig``, ``CellTask``).
  Only names and data cross the wire: a worker rebuilds each cell's
  compilers, generator and oracle from the registry names its lease
  carries, and imports no code the coordinator names.
* :mod:`repro.core.fabric.transport` — the :class:`CoordinatorTransport`
  contract and its three implementations: :class:`InlineTransport` (the
  one worker of a ``--workers 1`` run, inside the coordinator's process),
  :class:`LocalTransport` (a multiprocessing pool with one task queue per
  worker) and :class:`SocketTransport` (an asyncio TCP service speaking
  line-delimited JSON frames, with heartbeat liveness and a live status
  endpoint).  Transports only deliver frames: the coordinator
  (``ParallelCampaign._drain``) sends every lease to one worker and
  releases a dead worker's lease itself.
* :mod:`repro.core.fabric.service` — the network-facing entry points:
  ``python -m repro.campaign serve`` (coordinator service),
  ``python -m repro.campaign worker`` (remote fleet member) and
  ``python -m repro.campaign status`` (live JSON snapshot).

Findings are transport-independent by construction: iterations are seeded
purely from ``(config, iteration)``, so the same campaign run inline, over
local queues or over sockets — or started on one wire and resumed on another —
produces bit-identical findings and checkpoints (pinned by
``tests/core/test_transport_equivalence.py``).
"""

from repro.core.fabric.protocol import (
    PROTOCOL_VERSION,
    Claim,
    ChunkDone,
    Heartbeat,
    Hello,
    IterationResult,
    Lease,
    Message,
    ProtocolError,
    Shutdown,
    StatusReply,
    StatusRequest,
    Welcome,
    WorkerError,
    decode,
    encode,
)
from repro.core.fabric.transport import (
    CoordinatorTransport,
    InlineTransport,
    LocalTransport,
    SocketTransport,
)

__all__ = [
    "PROTOCOL_VERSION",
    "Claim",
    "ChunkDone",
    "CoordinatorTransport",
    "Heartbeat",
    "Hello",
    "InlineTransport",
    "IterationResult",
    "Lease",
    "LocalTransport",
    "Message",
    "ProtocolError",
    "Shutdown",
    "SocketTransport",
    "StatusReply",
    "StatusRequest",
    "Welcome",
    "WorkerError",
    "decode",
    "encode",
]
