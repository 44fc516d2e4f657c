#!/usr/bin/env python
"""Transport-overhead benchmark: local pool vs socket fleet.

Runs the same seeded campaign twice — once on the multiprocessing
``LocalTransport`` pool, once as a real coordinator service draining a
2-worker ``SocketTransport`` fleet over localhost TCP — and writes a
``BENCH_8.json`` trajectory point: iterations/sec per transport, mean
lease send→claim round-trip latency, and the socket/local wall-clock
overhead ratio.  The fabric's design target is ≤1.2× (socket framing and
heartbeats must never dominate real fuzzing compute); CI validates only
the schema (``tests/test_bench_transport.py``), never the timings —
trajectory capture, not a perf gate.

The run also cross-checks correctness: both transports must produce the
same campaign signature (bit-identical findings), or the payload records
``findings_equal: false`` and the tool exits non-zero.

Usage::

    python tools/bench_transport.py [--iterations N] [--seed S]
                                    [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from typing import Dict, List

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

SCHEMA_VERSION = 1
TRANSPORT_NAMES = ("local", "socket")
#: Design target: a localhost socket fleet stays within 20% of the local
#: pool's wall clock on a compute-bound campaign.
TARGET_MAX_OVERHEAD_RATIO = 1.2


def _silent(_message: str) -> None:
    """Worker log sink (fleet chatter stays out of the benchmark output)."""


def _transport_entry(iterations: int, seconds: float,
                     status: Dict) -> Dict[str, object]:
    latency = status.get("lease_latency", {})
    return {
        "seconds": round(seconds, 6),
        "iterations_per_sec": round(iterations / seconds, 3) if seconds > 0
        else float(iterations),
        "lease_claims": latency.get("claims", 0),
        "lease_latency_mean_seconds": latency.get("mean_seconds"),
    }


def run_benchmark(iterations: int = 24, seed: int = 13, n_nodes: int = 5,
                  n_workers: int = 2) -> Dict:
    """Run the campaign on both transports and return the BENCH payload."""
    from repro.core.fabric.service import run_fabric_worker
    from repro.core.fabric.transport import SocketTransport
    from repro.core.parallel import ParallelCampaign
    from repro.testing import campaign_signature, tiny_campaign_config

    config = tiny_campaign_config(iterations=iterations, seed=seed,
                                  n_nodes=n_nodes)

    # -- local pool --------------------------------------------------------
    local_campaign = ParallelCampaign(config=config, n_workers=n_workers,
                                      n_shards=n_workers)
    start = time.perf_counter()
    local_result = local_campaign.run()
    local_seconds = time.perf_counter() - start

    # -- socket fleet ------------------------------------------------------
    transport = SocketTransport(host="127.0.0.1", port=0)
    transport.start([])
    context = multiprocessing.get_context("fork")
    workers = [
        context.Process(target=run_fabric_worker,
                        kwargs={"host": "127.0.0.1", "port": transport.port,
                                "name": f"bench-w{index}", "log": _silent},
                        daemon=True)
        for index in range(n_workers)
    ]
    for process in workers:
        process.start()
    socket_campaign = ParallelCampaign(config=config, n_workers=n_workers,
                                       n_shards=n_workers,
                                       transport=transport)
    start = time.perf_counter()
    try:
        socket_result = socket_campaign.run()
    finally:
        for process in workers:
            process.join(timeout=20)
            if process.is_alive():
                process.terminate()
    socket_seconds = time.perf_counter() - start

    return {
        "schema_version": SCHEMA_VERSION,
        "label": "bench_transport",
        "config": {
            "iterations": iterations,
            "seed": seed,
            "n_nodes": n_nodes,
            "n_workers": n_workers,
        },
        "transports": {
            "local": _transport_entry(local_result.iterations, local_seconds,
                                      local_campaign.last_status),
            "socket": _transport_entry(socket_result.iterations,
                                       socket_seconds,
                                       socket_campaign.last_status),
        },
        "overhead_ratio": round(socket_seconds / max(local_seconds, 1e-9), 4),
        "target_max_overhead_ratio": TARGET_MAX_OVERHEAD_RATIO,
        "findings_equal": (campaign_signature(socket_result)
                           == campaign_signature(local_result)),
    }


def validate_payload(payload: Dict) -> List[str]:
    """Schema check for a BENCH_8 payload; returns a list of problems."""
    problems = []
    if payload.get("schema_version") != SCHEMA_VERSION:
        problems.append("schema_version missing or wrong")
    if payload.get("label") != "bench_transport":
        problems.append("label must be 'bench_transport'")
    transports = payload.get("transports")
    if not isinstance(transports, dict):
        problems.append("transports missing")
        return problems
    for name in TRANSPORT_NAMES:
        entry = transports.get(name)
        if not isinstance(entry, dict):
            problems.append(f"transports.{name} missing")
            continue
        for key in ("seconds", "iterations_per_sec", "lease_claims",
                    "lease_latency_mean_seconds"):
            if key not in entry:
                problems.append(f"transports.{name}.{key} missing")
    for key in ("overhead_ratio", "findings_equal", "config"):
        if key not in payload:
            problems.append(f"{key} missing")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark local-pool vs socket-fleet campaign "
                    "throughput and lease latency.")
    parser.add_argument("--iterations", type=int, default=24)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--nodes", type=int, default=5)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--output", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "benchmarks", "BENCH_8.json"))
    args = parser.parse_args(argv)

    payload = run_benchmark(iterations=args.iterations, seed=args.seed,
                            n_nodes=args.nodes, n_workers=args.workers)
    problems = validate_payload(payload)
    if problems:
        print("schema problems:", "; ".join(problems), file=sys.stderr)
        return 1
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    local = payload["transports"]["local"]
    socket_entry = payload["transports"]["socket"]
    print(f"local : {local['iterations_per_sec']:>8} iter/s "
          f"({local['seconds']}s)")
    print(f"socket: {socket_entry['iterations_per_sec']:>8} iter/s "
          f"({socket_entry['seconds']}s, mean lease latency "
          f"{socket_entry['lease_latency_mean_seconds']}s)")
    print(f"overhead ratio: {payload['overhead_ratio']} "
          f"(target <= {TARGET_MAX_OVERHEAD_RATIO}), findings_equal: "
          f"{payload['findings_equal']}")
    print(f"wrote {args.output}")
    if not payload["findings_equal"]:
        print("transport results diverged — findings must be "
              "bit-identical across transports", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
