"""Coordinator-side transports: one protocol, three wires.

:class:`CoordinatorTransport` is the contract the campaign coordinator
(:class:`repro.core.parallel.ParallelCampaign`) drives its worker fleet
through; every frame crossing it is a :mod:`repro.core.fabric.protocol`
message, and every worker behind it runs the same lease generator
(:func:`repro.core.parallel.lease_frames`).  Three implementations:

* :class:`InlineTransport` — the one-worker fleet inside the coordinator's
  own process.  It pulls a lease's frames one at a time, so nothing is
  spawned or pickled and each iteration is folded (and checkpointed)
  before the next one runs; it buffers no lease ahead (``lookahead`` 0).
* :class:`LocalTransport` — the historical ``multiprocessing`` pool.  A
  shared task queue carries encoded leases, a shared result queue carries
  encoded worker messages, liveness is ``Process.is_alive``.  Because the
  task queue is shared, a worker dying between popping a lease and
  flushing its claim *loses* the lease without a trace — ``lossy_claims``
  tells the coordinator to run its orphan-chunk accounting.
* :class:`SocketTransport` — an asyncio TCP service speaking
  line-delimited JSON frames.  Leases are *assigned* to a specific idle
  worker connection (never popped from a shared queue), so claims cannot
  be lost; liveness is heartbeat freshness plus connection state; workers
  may join, die and rejoin mid-campaign (``elastic``); and the same port
  answers :class:`~repro.core.fabric.protocol.StatusRequest` frames with
  the coordinator's latest status snapshot — the live dashboard feed.

The coordinator's one drain loop folds, checkpoints and schedules
identically over all three — which is the point: campaign findings and
checkpoints depend on the protocol, never on the wire.
"""

from __future__ import annotations

import abc
import json
import multiprocessing
import queue as queue_module
import threading
import time
from collections import deque
from typing import (Any, Callable, Deque, Dict, Iterator, List, Optional,
                    Set, Tuple)

from repro.core.fabric.protocol import (
    Hello,
    Lease,
    Message,
    ProtocolError,
    Shutdown,
    StatusReply,
    StatusRequest,
    Welcome,
    decode,
    encode,
    task_to_dict,
)

#: Seconds without any frame (heartbeats included) after which a socket
#: worker is presumed dead and its in-flight lease becomes requeueable.
DEFAULT_HEARTBEAT_TIMEOUT = 5.0

#: Seconds between worker heartbeat frames (kept well under the timeout so
#: a single dropped frame never kills a healthy worker).
HEARTBEAT_INTERVAL = 1.0


def factory_path(factory: Callable) -> str:
    """Dotted import path of a compiler factory (what travels the wire)."""
    return f"{factory.__module__}.{factory.__qualname__}"


def send_frame(sock_file, message: Message) -> None:
    """Write one line-delimited JSON frame to a socket file object."""
    sock_file.write(json.dumps(encode(message)) + "\n")
    sock_file.flush()


def read_frame(sock_file) -> Optional[Message]:
    """Read one frame from a socket file object; None on EOF."""
    line = sock_file.readline()
    if not line:
        return None
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"undecodable fabric frame: {exc}") from None
    return decode(payload)


class CoordinatorTransport(abc.ABC):
    """What the campaign coordinator needs from a worker fleet."""

    #: Whether a dying worker can remove an offered lease without leaving a
    #: claim on record (true of a shared multiprocessing queue, impossible
    #: with per-connection assignment).
    lossy_claims = False
    #: Whether workers can join/rejoin after the campaign started.  A
    #: non-elastic fleet that goes fully dead can never finish; an elastic
    #: one keeps the remaining leases offered for future joiners.
    elastic = False
    #: Workers the fleet starts with (the coordinator primes one lease
    #: each); elastic fleets start empty and grow as workers join.
    n_workers = 0

    def lookahead(self) -> int:
        """Leases kept offered beyond those workers have claimed, so a
        worker finishing a lease finds the next one waiting."""
        return 1

    @abc.abstractmethod
    def start(self, tasks: List[Any], factory: Callable) -> None:
        """Bring the fleet up for a campaign over ``tasks``."""

    @abc.abstractmethod
    def offer(self, lease: Lease) -> None:
        """Make a lease available to the fleet."""

    @abc.abstractmethod
    def recv(self, timeout: float) -> Optional[Tuple[str, Message]]:
        """Next inbound ``(worker_id, message)``, or None after timeout."""

    @abc.abstractmethod
    def worker_alive(self, worker_id: str) -> bool:
        """Whether a worker is currently believed alive."""

    @abc.abstractmethod
    def worker_ids(self) -> List[str]:
        """Every worker this transport has ever seen, dead or alive."""

    def live_worker_count(self) -> int:
        return sum(1 for worker in self.worker_ids()
                   if self.worker_alive(worker))

    def exit_code(self, worker_id: str) -> Optional[int]:
        """A dead worker's process exit code, when the transport knows it."""
        return None

    def note_claimed(self, chunk_id: int) -> None:
        """Coordinator callback: a claim for this chunk was folded."""

    def worker_view(self) -> Dict[str, Dict[str, Any]]:
        """Status-endpoint roster of the fleet."""
        return {worker: {"alive": self.worker_alive(worker)}
                for worker in self.worker_ids()}

    def send(self, worker_id: str, message: Message) -> None:
        """Deliver a coordinator→worker message (best effort; transports
        without per-worker addressing drop it)."""

    def publish_status(self, snapshot: Dict[str, Any]) -> None:
        """Expose the latest status snapshot to status clients (optional)."""

    @abc.abstractmethod
    def stop(self) -> None:
        """Shut the fleet down and release transport resources."""


# --------------------------------------------------------------------------- #
# Inline worker
# --------------------------------------------------------------------------- #
class InlineTransport(CoordinatorTransport):
    """One worker running inside the coordinator's process.

    ``run_lease`` is the engine's lease generator (the engine passes
    :func:`repro.core.parallel.lease_frames`).  :meth:`offer` only queues a
    lease; :meth:`recv` advances the running lease by one frame, so an
    iteration runs only when the coordinator asks for the frame after the
    previous iteration's result — folded and checkpointed by then.  A
    ``WorkerError`` frame retires the worker, exactly as a pool worker
    exits after sending one.
    """

    WORKER = "inline"
    n_workers = 1

    def __init__(self, run_lease: Callable[..., Iterator[Message]]) -> None:
        self.run_lease = run_lease
        self._leases: Deque[Lease] = deque()
        self._frames: Optional[Iterator[Message]] = None
        self._runtimes: Dict[int, Any] = {}
        self._tasks: List[Any] = []
        self._factory: Optional[Callable] = None
        self._retired = False

    def start(self, tasks: List[Any], factory: Callable) -> None:
        self._tasks = list(tasks)
        self._factory = factory

    def lookahead(self) -> int:
        return 0

    def offer(self, lease: Lease) -> None:
        self._leases.append(lease)

    def recv(self, timeout: float) -> Optional[Tuple[str, Message]]:
        # Nothing runs between calls, so there is nothing to wait for.
        while not self._retired:
            if self._frames is None:
                if not self._leases:
                    return None
                self._frames = self.run_lease(
                    self.WORKER, self._leases.popleft(), self._factory,
                    self._runtimes, self._tasks)
            frame = next(self._frames, None)
            if frame is None:
                self._frames = None
                continue
            self._retired = frame.kind == "error"
            return self.WORKER, frame
        return None

    def worker_alive(self, worker_id: str) -> bool:
        return worker_id == self.WORKER and not self._retired

    def worker_ids(self) -> List[str]:
        return [self.WORKER]

    def stop(self) -> None:
        if self._frames is not None:
            self._frames.close()  # GeneratorExit ends an interrupted lease


# --------------------------------------------------------------------------- #
# Local multiprocessing pool
# --------------------------------------------------------------------------- #
class LocalTransport(CoordinatorTransport):
    """The historical in-host worker pool, now speaking the fabric protocol.

    ``worker_target`` is the process entry point (the engine passes
    :func:`repro.core.parallel._matrix_worker`); it receives the classic
    ``(worker_index, tasks, factory, task_queue, result_queue)`` signature,
    with encoded protocol frames flowing through both queues.
    """

    lossy_claims = True
    elastic = False

    def __init__(self, n_workers: int, mp_context: Optional[str] = None,
                 worker_target: Optional[Callable] = None) -> None:
        self.n_workers = n_workers
        self.mp_context = mp_context
        self.worker_target = worker_target
        self._processes: Dict[str, Any] = {}
        self.task_queue = None
        self.result_queue = None

    def start(self, tasks: List[Any], factory: Callable) -> None:
        if self.worker_target is None:
            raise ValueError("LocalTransport needs a worker_target")
        context = (multiprocessing.get_context(self.mp_context)
                   if self.mp_context else multiprocessing.get_context())
        self.task_queue = context.Queue()
        self.result_queue = context.Queue()
        self._processes = {
            f"local-{index}": context.Process(
                target=self.worker_target,
                args=(index, tasks, factory, self.task_queue,
                      self.result_queue),
                daemon=True)
            for index in range(self.n_workers)
        }
        for process in self._processes.values():
            process.start()

    def offer(self, lease: Lease) -> None:
        self.task_queue.put(encode(lease))

    def recv(self, timeout: float) -> Optional[Tuple[str, Message]]:
        try:
            payload = self.result_queue.get(timeout=timeout)
        except queue_module.Empty:
            return None
        message = decode(payload)
        return getattr(message, "worker", ""), message

    def worker_alive(self, worker_id: str) -> bool:
        process = self._processes.get(worker_id)
        return process is not None and process.is_alive()

    def worker_ids(self) -> List[str]:
        return list(self._processes)

    def exit_code(self, worker_id: str) -> Optional[int]:
        process = self._processes.get(worker_id)
        return None if process is None else process.exitcode

    def stop(self) -> None:
        # One shutdown frame per worker, unconditionally: frames are not
        # addressed, so gating on is_alive() races (a live worker can eat
        # the frame "meant" for another, then exit before its own liveness
        # check).  Surplus frames for dead workers are harmless garbage.
        for _ in self._processes:
            self.task_queue.put(encode(Shutdown()))
        for process in self._processes.values():
            process.join(timeout=30)
            if process.is_alive():
                process.terminate()


# --------------------------------------------------------------------------- #
# Asyncio TCP service
# --------------------------------------------------------------------------- #
class _Peer:
    """Coordinator-side view of one connected socket worker."""

    def __init__(self, name: str, writer) -> None:
        self.name = name
        self.writer = writer
        self.last_seen = time.monotonic()
        self.connected = True
        #: The lease assigned to this worker (encoded Lease) until it
        #: finishes a chunk; socket workers run one lease at a time.
        self.assigned: Optional[Lease] = None


class SocketTransport(CoordinatorTransport):
    """Asyncio TCP coordinator endpoint (line-delimited JSON frames).

    Runs its event loop in a daemon thread so the synchronous coordinator
    drain loop stays unchanged; :meth:`offer`/:meth:`send`/:meth:`stop`
    hop into the loop via ``call_soon_threadsafe`` and inbound frames
    surface through a thread-safe inbox consumed by :meth:`recv`.

    Leases are assigned to one *specific* idle worker each (respecting the
    lease's ``exclude`` list); a connection dying with an assigned but
    unclaimed lease silently returns it to the pending pool with the dead
    worker excluded, so — unlike the shared local queue — no lease is ever
    lost without a claim on record.
    """

    lossy_claims = False
    elastic = True

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT) -> None:
        self.host = host
        self.port = port
        self.heartbeat_timeout = heartbeat_timeout
        self._tasks: List[Any] = []
        self._factory_path = ""
        self._inbox: "queue_module.Queue[Tuple[str, Message]]" = \
            queue_module.Queue()
        self._peers: Dict[str, _Peer] = {}
        self._peers_lock = threading.Lock()
        self._pending: "deque[Lease]" = deque()
        #: Chunk ids the coordinator has seen claims for; a dead peer's
        #: assigned lease is silently re-offered only while unclaimed.
        self._claimed_chunks: Set[int] = set()
        self._status: Dict[str, Any] = {}
        self._loop = None
        self._server = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._stopping = False

    # ------------------------------------------------------------------ #
    def start(self, tasks: List[Any], factory: Callable) -> None:
        import asyncio

        self._tasks = list(tasks)
        self._factory_path = factory_path(factory)
        if self._thread is not None and self._thread.is_alive():
            return  # pre-started (serve binds early so workers can join)

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                self._server = loop.run_until_complete(
                    asyncio.start_server(self._handle_connection,
                                         self.host, self.port))
                self.port = self._server.sockets[0].getsockname()[1]
            except BaseException as exc:  # bind failure surfaces in start()
                self._startup_error = exc
                self._started.set()
                return
            self._started.set()
            try:
                loop.run_forever()
            finally:
                for task in asyncio.all_tasks(loop):
                    task.cancel()
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(target=run, daemon=True,
                                        name="fabric-coordinator")
        self._thread.start()
        self._started.wait(timeout=10)
        if self._startup_error is not None:
            raise ProtocolError(
                f"fabric coordinator failed to bind {self.host}:{self.port}: "
                f"{self._startup_error}")

    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader, writer) -> None:
        import asyncio

        try:
            line = await reader.readline()
            if not line:
                writer.close()
                return
            try:
                first = decode(json.loads(line))
            except (json.JSONDecodeError, ProtocolError):
                writer.close()
                return
            if isinstance(first, StatusRequest):
                writer.write((json.dumps(encode(
                    StatusReply(snapshot=self._status))) + "\n").encode())
                await writer.drain()
                writer.close()
                return
            if not isinstance(first, Hello):
                writer.close()
                return
            peer = _Peer(first.worker or f"worker-{id(writer):x}", writer)
            with self._peers_lock:
                existing = self._peers.get(peer.name)
                if existing is not None and existing.connected and \
                        self.worker_alive(peer.name):
                    writer.close()  # live name collision: refuse
                    return
                self._peers[peer.name] = peer
            self._write(peer, Welcome(factory=self._factory_path))
            self._inbox.put((peer.name, first))
            self._assign_pending()
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    message = decode(json.loads(line))
                except (json.JSONDecodeError, ProtocolError):
                    continue  # one bad frame must not kill the worker
                peer.last_seen = time.monotonic()
                if message.kind == "heartbeat":
                    continue  # liveness only; not campaign state
                if message.kind in ("chunk_done", "error"):
                    peer.assigned = None
                self._inbox.put((peer.name, message))
                if message.kind == "chunk_done":
                    self._assign_pending()
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass
        finally:
            peer = None
            with self._peers_lock:
                for candidate in self._peers.values():
                    if candidate.writer is writer:
                        peer = candidate
                        break
            if peer is not None:
                peer.connected = False
                if peer.assigned is not None:
                    # Assigned but the worker never claimed (or died before
                    # finishing the handshake of the claim): the lease is
                    # still the coordinator's to give — return it to the
                    # pool with the dead worker excluded.  Claimed leases
                    # are the *coordinator's* problem (requeue-on-death).
                    lease = peer.assigned
                    peer.assigned = None
                    if lease.chunk_id not in self._claimed_chunks:
                        self._pending.append(Lease(
                            **{**_lease_fields(lease),
                               "exclude": tuple(sorted(
                                   set(lease.exclude) | {peer.name}))}))
                        self._assign_pending()
            try:
                writer.close()
            except Exception:
                pass

    def note_claimed(self, chunk_id: int) -> None:
        self._claimed_chunks.add(chunk_id)

    # ------------------------------------------------------------------ #
    def _write(self, peer: _Peer, message: Message) -> None:
        try:
            peer.writer.write((json.dumps(encode(message)) + "\n").encode())
        except Exception:
            peer.connected = False

    def _assign_pending(self) -> None:
        """Hand pending leases to idle, alive, non-excluded workers."""
        with self._peers_lock:
            for _ in range(len(self._pending)):
                lease = self._pending.popleft()
                target = None
                for peer in self._peers.values():
                    if not peer.connected or peer.assigned is not None:
                        continue
                    if peer.name in lease.exclude:
                        continue
                    if not self._fresh(peer):
                        continue
                    target = peer
                    break
                if target is None:
                    self._pending.append(lease)
                    continue
                target.assigned = lease
                self._write(target, lease)

    def _fresh(self, peer: _Peer) -> bool:
        return (time.monotonic() - peer.last_seen) < self.heartbeat_timeout

    # ------------------------------------------------------------------ #
    def offer(self, lease: Lease) -> None:
        if self._loop is None:
            raise ProtocolError("transport not started")
        # Remote workers rebuild the cell task from the wire.
        if lease.task is None and 0 <= lease.cell_index < len(self._tasks):
            lease = Lease(**{**_lease_fields(lease),
                             "task": task_to_dict(
                                 self._tasks[lease.cell_index])})

        def put() -> None:
            self._pending.append(lease)
            self._assign_pending()

        self._loop.call_soon_threadsafe(put)

    def recv(self, timeout: float) -> Optional[Tuple[str, Message]]:
        try:
            return self._inbox.get(timeout=timeout)
        except queue_module.Empty:
            return None

    def worker_alive(self, worker_id: str) -> bool:
        with self._peers_lock:
            peer = self._peers.get(worker_id)
            return peer is not None and peer.connected and self._fresh(peer)

    def worker_ids(self) -> List[str]:
        with self._peers_lock:
            return list(self._peers)

    def lookahead(self) -> int:
        # The fleet grows mid-campaign: one lease per live worker plus one
        # buffered, so a fresh joiner never idles.
        return self.live_worker_count() + 1

    def worker_view(self) -> Dict[str, Dict[str, Any]]:
        """Status-endpoint roster: liveness + heartbeat age per worker."""
        now = time.monotonic()
        with self._peers_lock:
            return {name: {"alive": peer.connected and self._fresh(peer),
                           "heartbeat_age": round(now - peer.last_seen, 3),
                           "busy": peer.assigned is not None}
                    for name, peer in self._peers.items()}

    def send(self, worker_id: str, message: Message) -> None:
        if self._loop is None:
            return

        def write() -> None:
            with self._peers_lock:
                peer = self._peers.get(worker_id)
            if peer is not None and peer.connected:
                self._write(peer, message)

        self._loop.call_soon_threadsafe(write)

    def publish_status(self, snapshot: Dict[str, Any]) -> None:
        self._status = snapshot

    # ------------------------------------------------------------------ #
    def stop(self) -> None:
        if self._loop is None or self._stopping:
            return
        self._stopping = True

        def shutdown() -> None:
            with self._peers_lock:
                for peer in self._peers.values():
                    if peer.connected:
                        self._write(peer, Shutdown(reason="campaign over"))
            if self._server is not None:
                self._server.close()
            self._loop.stop()

        try:
            self._loop.call_soon_threadsafe(shutdown)
        except RuntimeError:
            return
        if self._thread is not None:
            self._thread.join(timeout=10)


def _lease_fields(lease: Lease) -> Dict[str, Any]:
    return {"chunk_id": lease.chunk_id, "cell_index": lease.cell_index,
            "start": lease.start, "stop": lease.stop,
            "time_budget": lease.time_budget, "exclude": lease.exclude,
            "task": lease.task}


__all__ = [
    "DEFAULT_HEARTBEAT_TIMEOUT",
    "HEARTBEAT_INTERVAL",
    "CoordinatorTransport",
    "InlineTransport",
    "LocalTransport",
    "SocketTransport",
    "factory_path",
    "read_frame",
    "send_frame",
]
