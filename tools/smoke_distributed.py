#!/usr/bin/env python
"""End-to-end distributed-campaign smoke (`make smoke-distributed`).

Boots a real coordinator service (``python -m repro.campaign serve``) on an
ephemeral localhost port, joins two fleet workers over TCP, and asserts
that the seeded-bug campaign run through actual sockets (a) finds seeded
bugs, (b) reports them on the live status endpoint during ``--linger``,
and (c) writes the same snapshot via ``--status-out``.  Everything a
multi-host deployment exercises, minus the second host.

Usage::

    python tools/smoke_distributed.py [--iterations N] [--seed S]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

_LISTENING = re.compile(r"fabric coordinator listening on ([\d.]+):(\d+)")


def _fail(message: str) -> "SystemExit":
    return SystemExit(f"smoke-distributed FAILED: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Coordinator + 2 socket workers seeded-bug smoke.")
    parser.add_argument("--iterations", type=int, default=12)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--timeout", type=float, default=240.0,
                        help="overall deadline in seconds")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.timeout

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"

    status_out = os.path.join(tempfile.mkdtemp(prefix="smoke-fabric-"),
                              "status.json")
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro.campaign", "serve",
         "--host", "127.0.0.1", "--port", "0",
         "--iterations", str(args.iterations), "--seed", str(args.seed),
         "--workers", "2", "--shards", "2", "--min-workers", "2",
         "--quiet", "--status-out", status_out, "--linger", "8"],
        cwd=_REPO_ROOT, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    workers = []
    captured = []
    try:
        # The coordinator prints its bound ephemeral port at startup.
        port = None
        while port is None:
            if serve.poll() is not None:
                raise _fail("coordinator exited before binding:\n"
                            + "".join(captured))
            line = serve.stdout.readline()
            captured.append(line)
            match = _LISTENING.search(line)
            if match:
                port = int(match.group(2))
        print(f"coordinator up on 127.0.0.1:{port}")

        for index in range(2):
            workers.append(subprocess.Popen(
                [sys.executable, "-m", "repro.campaign", "worker",
                 "--connect", f"127.0.0.1:{port}",
                 "--name", f"smoke-w{index}"],
                cwd=_REPO_ROOT, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))
        print("2 workers joining...")

        # --status-out lands right after the campaign completes; --linger
        # keeps the final snapshot queryable on the same port after that.
        while not os.path.exists(status_out):
            if serve.poll() is not None:
                raise _fail("coordinator exited without writing "
                            "--status-out:\n" + "".join(captured)
                            + serve.stdout.read())
            if time.monotonic() > deadline:
                serve.kill()
                raise _fail("campaign did not finish before --timeout")
            time.sleep(0.2)

        from repro.core.fabric.service import query_status

        live = query_status("127.0.0.1", port)
        with open(status_out, encoding="utf-8") as handle:
            written = json.load(handle)

        for name, snapshot in (("status endpoint", live),
                               ("--status-out", written)):
            if snapshot.get("findings", 0) <= 0:
                raise _fail(f"{name} reports no findings: {snapshot}")
            if not all(cell.get("done")
                       for cell in snapshot.get("cells", {}).values()):
                raise _fail(f"{name} reports unfinished cells: {snapshot}")
        roster = live.get("workers", {})
        if set(roster) != {"smoke-w0", "smoke-w1"}:
            raise _fail(f"status endpoint roster is wrong: {roster}")

        captured.append(serve.stdout.read())
        output = "".join(captured)
        if "Ground-truth seeded bugs found:" not in output:
            raise _fail("campaign summary shows no seeded bugs:\n" + output)
        if serve.wait(timeout=max(1.0, deadline - time.monotonic())) != 0:
            raise _fail(f"coordinator exited {serve.returncode}")
        for index, worker in enumerate(workers):
            if worker.wait(timeout=30) != 0:
                raise _fail(f"worker {index} exited {worker.returncode}")
    finally:
        for process in [serve] + workers:
            if process.poll() is None:
                process.kill()

    bugs = sorted(line.strip().split()[0] for line in output.splitlines()
                  if line.startswith("  ") and "-" in line.split()[0]
                  and "/" in line)
    print(f"smoke-distributed OK: {live['findings']} findings over "
          f"{live['iterations']} iterations, seeded bugs confirmed over "
          f"real sockets ({', '.join(bugs) if bugs else 'see summary'})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
