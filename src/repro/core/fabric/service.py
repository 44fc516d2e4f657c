"""Network-facing entry points of the campaign fabric.

Three subcommands hang off ``python -m repro.campaign``:

* ``serve`` — run the campaign coordinator as a TCP service::

      python -m repro.campaign serve --port 7777 --iterations 200 \\
          --compilers graphrt,deepc --compilers turbo

  The coordinator binds first and sends leases to workers as they join
  (``--min-workers N`` waits for a quorum before starting); a worker dying
  mid-lease has its lease requeued for the survivors
  (``--fault-tolerance requeue`` is the serve default).  Findings are
  bit-identical to a local run of the same campaign: iterations are seeded
  purely from ``(config, iteration)``.

* ``worker`` — join a coordinator as one fleet member::

      python -m repro.campaign worker --connect host:7777

  The worker handshakes (``hello``/``welcome``), heartbeats every
  :data:`~repro.core.fabric.transport.HEARTBEAT_INTERVAL` seconds and runs
  leases until told to shut down, building each cell's compilers from the
  registry names its lease carries.  A worker that rejoins under a name the
  coordinator has seen is a new worker, ``name~N``.

* ``status`` — fetch the coordinator's live JSON snapshot::

      python -m repro.campaign status --connect host:7777

  The snapshot carries per-cell progress, findings count, worker roster
  and lease round-trip latency.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
import threading
import time
from typing import Any, Callable, Dict, Optional, Sequence

from repro.core.fabric.protocol import (
    Heartbeat,
    Hello,
    Lease,
    Message,
    ProtocolError,
    StatusReply,
    StatusRequest,
    Welcome,
    encode,
)
from repro.core.fabric.transport import (
    HEARTBEAT_INTERVAL,
    SocketTransport,
    read_frame,
    send_frame,
)
from repro.errors import ReproError

#: Exit code of a worker that retired after one of its leases failed.
EXIT_LEASE_FAILED = 1
#: Exit code of a worker that lost its coordinator connection unexpectedly.
EXIT_CONNECTION_LOST = 3


# --------------------------------------------------------------------------- #
# Worker
# --------------------------------------------------------------------------- #
class FabricWorker:
    """One socket fleet member: connect, handshake, run leases, heartbeat.

    ``die_after_iterations`` is a test knob: the worker hard-exits
    (``os._exit``) after streaming that many iteration results — mid-lease,
    without a ``chunk_done`` — which is exactly the failure the
    coordinator's requeue path must absorb (pinned by
    ``tests/core/test_transport_equivalence.py``).
    """

    def __init__(self, host: str, port: int, name: Optional[str] = None,
                 die_after_iterations: Optional[int] = None,
                 log: Callable[[str], None] = print,
                 clock: Callable[[], float] = time.time) -> None:
        self.host = host
        self.port = port
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.die_after_iterations = die_after_iterations
        self.log = log
        #: Injectable wall-clock seam: heartbeat timestamps go on the wire,
        #: so tests can pin them by passing a fake clock.
        self.clock = clock
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._sent_iterations = 0
        self._wfile = None

    # ------------------------------------------------------------------ #
    def _send(self, message: Message) -> None:
        with self._lock:
            self._wfile.write(json.dumps(encode(message)) + "\n")
            self._wfile.flush()
        if message.kind == "iter":
            self._sent_iterations += 1
            if self.die_after_iterations is not None and \
                    self._sent_iterations >= self.die_after_iterations:
                os._exit(43)  # test knob: die mid-lease, no chunk_done

    def _heartbeat(self) -> None:
        while not self._stop.wait(HEARTBEAT_INTERVAL):
            try:
                self._send(Heartbeat(worker=self.name, sent_at=self.clock()))
            except Exception:
                return  # connection gone; the main loop notices on read

    # ------------------------------------------------------------------ #
    def run(self) -> int:
        from repro.core.parallel import lease_frames

        sock = socket.create_connection((self.host, self.port))
        rfile = sock.makefile("r", encoding="utf-8")
        self._wfile = sock.makefile("w", encoding="utf-8")
        beat = threading.Thread(target=self._heartbeat, daemon=True,
                                name=f"heartbeat-{self.name}")
        try:
            self._send(Hello(worker=self.name, pid=os.getpid()))
            welcome = read_frame(rfile)
            if not isinstance(welcome, Welcome):
                raise ProtocolError(
                    f"expected a welcome frame, got "
                    f"{getattr(welcome, 'kind', None)!r} — is "
                    f"{self.host}:{self.port} a fabric coordinator?")
            self.log(f"[{self.name}] joined {self.host}:{self.port}")
            beat.start()
            runtimes: Dict[int, Any] = {}
            while True:
                message = read_frame(rfile)
                if message is None:
                    self.log(f"[{self.name}] coordinator connection closed")
                    return EXIT_CONNECTION_LOST
                if message.kind == "shutdown":
                    self.log(f"[{self.name}] shutdown: "
                             f"{message.reason or 'done'}")
                    return 0
                if not isinstance(message, Lease):
                    continue
                for frame in lease_frames(self.name, message, runtimes):
                    self._send(frame)
                    if frame.kind == "error":
                        self.log(f"[{self.name}] lease failed: "
                                 f"{frame.message}")
                        return EXIT_LEASE_FAILED
        finally:
            self._stop.set()
            try:
                sock.close()
            except OSError:
                pass


def run_fabric_worker(host: str, port: int, name: Optional[str] = None,
                      die_after_iterations: Optional[int] = None,
                      log: Callable[[str], None] = print) -> int:
    """Run one fleet worker until the coordinator shuts it down."""
    return FabricWorker(host, port, name=name,
                        die_after_iterations=die_after_iterations,
                        log=log).run()


# --------------------------------------------------------------------------- #
# Status client
# --------------------------------------------------------------------------- #
def query_status(host: str, port: int, timeout: float = 10.0
                 ) -> Dict[str, Any]:
    """Fetch the coordinator's live status snapshot over its service port."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        rfile = sock.makefile("r", encoding="utf-8")
        wfile = sock.makefile("w", encoding="utf-8")
        send_frame(wfile, StatusRequest())
        reply = read_frame(rfile)
    if not isinstance(reply, StatusReply):
        raise ProtocolError(
            f"expected a status_reply frame, got "
            f"{getattr(reply, 'kind', None)!r} — is {host}:{port} a fabric "
            "coordinator?")
    return reply.snapshot


def _serve_final_status(host: str, port: int, snapshot: Dict[str, Any],
                        seconds: float) -> None:
    """Answer status requests for ``seconds`` after the campaign finished.

    The campaign's transport shuts down with the fleet; ``--linger`` keeps
    the *final* snapshot queryable on the same port so dashboards (and the
    distributed smoke test) can read the completed state deterministically.
    """
    deadline = time.monotonic() + seconds
    with socket.create_server((host, port)) as server:
        server.settimeout(0.2)
        while time.monotonic() < deadline:
            try:
                conn, _addr = server.accept()
            except socket.timeout:
                continue
            with conn:
                rfile = conn.makefile("r", encoding="utf-8")
                wfile = conn.makefile("w", encoding="utf-8")
                try:
                    request = read_frame(rfile)
                    if isinstance(request, StatusRequest):
                        send_frame(wfile, StatusReply(snapshot=snapshot))
                except (ProtocolError, OSError):
                    continue


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def _split_endpoint(value: str) -> tuple:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {value!r}")
    return host, int(port)


def _serve_parser() -> argparse.ArgumentParser:
    from repro.campaign import build_parser

    parser = build_parser()
    parser.prog = "python -m repro.campaign serve"
    parser.description = ("Run the campaign coordinator as a TCP service "
                          "leasing matrix cells to remote worker fleets.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port to bind (default 0 = ephemeral; the "
                             "bound port is printed at startup)")
    parser.add_argument("--min-workers", type=int, default=1, metavar="N",
                        help="wait for N connected workers before "
                             "scheduling leases (default 1)")
    parser.add_argument("--worker-wait", type=float, default=120.0,
                        metavar="SECONDS",
                        help="give up if --min-workers have not joined "
                             "after this long (default 120)")
    # --fault-tolerance comes from the base campaign parser; a remote
    # fleet defaults to surviving worker death.
    parser.set_defaults(fault_tolerance="requeue")
    parser.add_argument("--status-out", default=None, metavar="PATH",
                        help="write the final status snapshot JSON here")
    parser.add_argument("--linger", type=float, default=0.0,
                        metavar="SECONDS",
                        help="keep answering status requests for this long "
                             "after the campaign finishes")
    return parser


def _cmd_serve(argv: Sequence[str]) -> int:
    from repro.campaign import campaign_from_args, print_summary

    parser = _serve_parser()
    args = parser.parse_args(argv)
    transport = SocketTransport(args.host, args.port)
    transport.start([])  # bind early; run() hands it the tasks
    print(f"fabric coordinator listening on {transport.host}:"
          f"{transport.port}", flush=True)

    def on_event(kind, cell_key, payload):
        if kind == "progress" and not args.quiet:
            print(f"  [{cell_key}] iteration {payload['iteration']} "
                  f"{payload['status']} in {payload['compiler']}")
        elif kind == "worker_joined":
            print(f"  worker joined: {payload['worker']}", flush=True)
        elif kind == "worker_lost":
            runs = ", ".join(str(first) if first == last
                             else f"{first}-{last}"
                             for first, last in payload["requeued"])
            print(f"  worker lost: {payload['worker']} — requeued "
                  f"iterations {runs or 'none'} of [{cell_key}]", flush=True)

    campaign = campaign_from_args(args, on_event=on_event,
                                  transport=transport)
    if args.min_workers > 0:
        deadline = time.monotonic() + args.worker_wait
        while transport.live_worker_count() < args.min_workers:
            if time.monotonic() >= deadline:
                transport.stop()
                raise ReproError(
                    f"only {transport.live_worker_count()} of "
                    f"--min-workers {args.min_workers} workers joined "
                    f"within {args.worker_wait}s")
            time.sleep(0.1)
    result = campaign.run()
    print_summary(result)
    if args.status_out:
        with open(args.status_out, "w", encoding="utf-8") as handle:
            json.dump(campaign.last_status, handle, indent=2)
    if args.linger > 0:
        _serve_final_status(args.host, transport.port,
                            campaign.last_status, args.linger)
    return 0


def _cmd_worker(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign worker",
        description="Join a fabric coordinator as one fleet worker.")
    parser.add_argument("--connect", required=True, type=_split_endpoint,
                        metavar="HOST:PORT",
                        help="coordinator service endpoint")
    parser.add_argument("--name", default=None,
                        help="worker identity (default hostname-pid); the "
                             "coordinator calls a name it has already seen "
                             "NAME~N")
    parser.add_argument("--die-after-iterations", type=int, default=None,
                        help=argparse.SUPPRESS)  # fault-injection test knob
    args = parser.parse_args(argv)
    host, port = args.connect
    return run_fabric_worker(host, port, name=args.name,
                             die_after_iterations=args.die_after_iterations)


def _cmd_status(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign status",
        description="Print a fabric coordinator's live status snapshot.")
    parser.add_argument("--connect", required=True, type=_split_endpoint,
                        metavar="HOST:PORT",
                        help="coordinator service endpoint")
    args = parser.parse_args(argv)
    host, port = args.connect
    print(json.dumps(query_status(host, port), indent=2, sort_keys=True))
    return 0


_COMMANDS = {"serve": _cmd_serve, "worker": _cmd_worker,
             "status": _cmd_status}


def fabric_main(argv: Sequence[str]) -> int:
    """Dispatch a ``serve``/``worker``/``status`` subcommand."""
    command = _COMMANDS.get(argv[0] if argv else "")
    if command is None:
        print(f"unknown fabric subcommand {argv[0] if argv else ''!r}; "
              f"expected one of {sorted(_COMMANDS)}", file=sys.stderr)
        return 2
    return command(list(argv[1:]))


__all__ = [
    "EXIT_CONNECTION_LOST",
    "EXIT_LEASE_FAILED",
    "FabricWorker",
    "fabric_main",
    "query_status",
    "run_fabric_worker",
]
