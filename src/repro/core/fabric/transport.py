"""Coordinator-side transports: one protocol, three wires.

:class:`CoordinatorTransport` is the contract the campaign coordinator
(:class:`repro.core.parallel.ParallelCampaign`) drives its worker fleet
through; every frame crossing it is a :mod:`repro.core.fabric.protocol`
message, and every worker behind it runs the same lease generator
(:func:`repro.core.parallel.lease_frames`).  A transport only delivers
frames: the coordinator decides which worker runs which lease, sends each
lease to one worker by id, and releases a dead worker's lease itself.
Three implementations:

* :class:`InlineTransport` — the one-worker fleet inside the coordinator's
  own process.  It pulls a lease's frames one at a time, so nothing is
  spawned or pickled and each iteration is folded (and checkpointed)
  before the next one runs.
* :class:`LocalTransport` — a ``multiprocessing`` pool.  Each worker reads
  encoded leases from its own task queue, every worker writes encoded
  messages to one shared result queue, and liveness is
  ``Process.is_alive``.
* :class:`SocketTransport` — an asyncio TCP service speaking
  line-delimited JSON frames.  Liveness is heartbeat freshness plus
  connection state; workers may join mid-campaign (``elastic``), and a
  worker that reconnects is a new worker (a dead worker's id is retired
  for good); the same port answers
  :class:`~repro.core.fabric.protocol.StatusRequest` frames with the
  coordinator's latest status snapshot — the live dashboard feed.

The coordinator's one drain loop folds, checkpoints and hands out leases
identically over all three — which is the point: campaign findings and
checkpoints depend on the protocol, never on the wire.
"""

from __future__ import annotations

import abc
import dataclasses
import json
import multiprocessing
import queue as queue_module
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

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

#: Longest frame line the service reads (asyncio's default limit is 64 KiB;
#: the ``iter`` frame of a traced cell's first iteration carries every arc
#: that iteration covered).
MAX_FRAME_BYTES = 1 << 24


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

    #: Whether workers can join after the campaign started.  A non-elastic
    #: fleet that goes fully dead can never finish; an elastic one keeps
    #: the remaining work for future joiners.
    elastic = False

    @abc.abstractmethod
    def start(self, tasks: List[Any], factory: Callable) -> None:
        """Bring the fleet up for a campaign over ``tasks``."""

    @abc.abstractmethod
    def send(self, worker_id: str, message: Message) -> None:
        """Deliver a coordinator→worker frame to one worker (best effort:
        a frame for a dead worker is dropped)."""

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

    def worker_view(self) -> Dict[str, Dict[str, Any]]:
        """Status-endpoint roster of the fleet."""
        return {worker: {"alive": self.worker_alive(worker)}
                for worker in self.worker_ids()}

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
    :func:`repro.core.parallel.lease_frames`).  :meth:`send` only keeps a
    lease; :meth:`recv` advances the running lease by one frame, so an
    iteration runs only when the coordinator asks for the frame after the
    previous iteration's result — folded and checkpointed by then.  A
    ``WorkerError`` frame retires the worker, exactly as a pool worker
    exits after sending one.
    """

    WORKER = "inline"

    def __init__(self, run_lease: Callable[..., Iterator[Message]]) -> None:
        self.run_lease = run_lease
        self._frames: Optional[Iterator[Message]] = None
        self._runtimes: Dict[int, Any] = {}
        self._tasks: List[Any] = []
        self._factory: Optional[Callable] = None
        self._retired = False

    def start(self, tasks: List[Any], factory: Callable) -> None:
        self._tasks = list(tasks)
        self._factory = factory

    def send(self, worker_id: str, message: Message) -> None:
        if isinstance(message, Lease):
            self._frames = self.run_lease(self.WORKER, message, self._factory,
                                          self._runtimes, self._tasks)

    def recv(self, timeout: float) -> Optional[Tuple[str, Message]]:
        # Nothing runs between calls, so there is nothing to wait for.
        frame = None if self._frames is None else next(self._frames, None)
        if frame is None:
            self._frames = None
            return None
        self._retired = frame.kind == "error"
        return self.WORKER, frame

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
    """An in-host ``multiprocessing`` worker pool speaking the fabric
    protocol.

    ``worker_target`` is the process entry point (the engine passes
    :func:`repro.core.parallel._matrix_worker`); it receives
    ``(worker_index, tasks, factory, task_queue, result_queue)``: its own
    task queue, which carries the encoded leases :meth:`send` addresses to
    it and its shutdown frame, and the result queue all workers share.
    """

    def __init__(self, n_workers: int, worker_target: Callable) -> None:
        self.worker_target = worker_target
        self._worker_ids = [f"local-{index}" for index in range(n_workers)]
        self._processes: Dict[str, Any] = {}
        self._task_queues: Dict[str, Any] = {}
        self.result_queue = None

    def start(self, tasks: List[Any], factory: Callable) -> None:
        self.result_queue = multiprocessing.Queue()
        self._task_queues = {worker: multiprocessing.Queue()
                             for worker in self._worker_ids}
        self._processes = {
            worker: multiprocessing.Process(
                target=self.worker_target,
                args=(index, tasks, factory, self._task_queues[worker],
                      self.result_queue),
                daemon=True)
            for index, worker in enumerate(self._worker_ids)
        }
        for process in self._processes.values():
            process.start()

    def send(self, worker_id: str, message: Message) -> None:
        # A pool worker logs nothing, so only its leases are worth a queue
        # write; a frame left unread in a dead worker's queue is garbage.
        if isinstance(message, Lease):
            self._task_queues[worker_id].put(encode(message))

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
        for task_queue in self._task_queues.values():
            task_queue.put(encode(Shutdown()))
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


class SocketTransport(CoordinatorTransport):
    """Asyncio TCP coordinator endpoint (line-delimited JSON frames).

    Runs its event loop in a daemon thread so the synchronous coordinator
    drain loop stays unchanged; :meth:`send`/:meth:`stop` hop into the
    loop via ``call_soon_threadsafe`` and inbound frames surface through a
    thread-safe inbox consumed by :meth:`recv`.

    A worker's id is the ``--name`` of its ``hello``; a connection whose
    name is taken, by a live worker or a dead one, gets ``name~N``.  So a
    worker that rejoins under its old name is a new worker, and the
    coordinator releases the dead one's lease as it does any other.
    """

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
                                         self.host, self.port,
                                         limit=MAX_FRAME_BYTES))
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

        peer = None
        try:
            line = await reader.readline()
            if not line:
                return
            try:
                first = decode(json.loads(line))
            except (json.JSONDecodeError, ProtocolError):
                return
            if isinstance(first, StatusRequest):
                writer.write((json.dumps(encode(
                    StatusReply(snapshot=self._status))) + "\n").encode())
                await writer.drain()
                return
            if not isinstance(first, Hello):
                return
            name = first.worker or f"worker-{id(writer):x}"
            with self._peers_lock:
                worker_id, suffix = name, 0
                while worker_id in self._peers:
                    suffix += 1
                    worker_id = f"{name}~{suffix}"
                peer = self._peers[worker_id] = _Peer(worker_id, writer)
            self._write(peer, Welcome(factory=self._factory_path))
            self._inbox.put((peer.name, first))
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
                self._inbox.put((peer.name, message))
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass
        finally:
            if peer is not None:
                peer.connected = False
            try:
                writer.close()
            except Exception:
                pass

    def _write(self, peer: _Peer, message: Message) -> None:
        try:
            peer.writer.write((json.dumps(encode(message)) + "\n").encode())
        except Exception:
            peer.connected = False

    def _fresh(self, peer: _Peer) -> bool:
        return (time.monotonic() - peer.last_seen) < self.heartbeat_timeout

    # ------------------------------------------------------------------ #
    def send(self, worker_id: str, message: Message) -> None:
        if self._loop is None:
            raise ProtocolError("transport not started")
        if isinstance(message, Lease) and message.task is None:
            # Remote workers rebuild the cell task from the wire.
            message = dataclasses.replace(
                message, task=task_to_dict(self._tasks[message.cell_index]))

        def write() -> None:
            with self._peers_lock:
                peer = self._peers.get(worker_id)
            if peer is not None and peer.connected:
                self._write(peer, message)

        self._loop.call_soon_threadsafe(write)

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

    def worker_view(self) -> Dict[str, Dict[str, Any]]:
        """Status-endpoint roster: liveness + heartbeat age per worker."""
        now = time.monotonic()
        with self._peers_lock:
            peers = list(self._peers.values())
        return {peer.name: {"alive": peer.connected and self._fresh(peer),
                            "heartbeat_age": round(now - peer.last_seen, 3)}
                for peer in peers}

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


__all__ = [
    "DEFAULT_HEARTBEAT_TIMEOUT",
    "HEARTBEAT_INTERVAL",
    "MAX_FRAME_BYTES",
    "CoordinatorTransport",
    "InlineTransport",
    "LocalTransport",
    "SocketTransport",
    "factory_path",
    "read_frame",
    "send_frame",
]
