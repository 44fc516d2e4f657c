"""One benchmark campaign in a fresh process (started by ``run.py``).

Usage::

    python3 perfbench/child.py WORKLOAD CAMPAIGN_SEED ITERATIONS MODE

``ITERATIONS`` is per cell.  ``MODE`` is ``plain`` (untraced) or
``traced`` (every layer wrapped, see ``tracer.py``).  The last line of
standard output is one JSON object; ``first_iter`` is the
``time.monotonic()`` reading at the first iteration, which the parent
compares with its own reading taken just before it started this process.

Between iterations, once per :data:`SLICE_EVERY_S` of iteration time, the
process times a fixed reference slice (:func:`reference_slice`).  The
machine this runs on is shared and its speed drifts by tens of percent over
tens of seconds; the slices sample that speed across the campaign so the
parent can normalise its timings (see README.md).  Slice time is excluded
from the campaign window and from every iteration's duration.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

MODES = ("plain", "traced")
#: Iteration time between two reference slices.
SLICE_EVERY_S = 0.05


def reference_slice() -> float:
    """Fixed work resembling an iteration's mix (Python bytecode and small
    NumPy operations), about 2 ms; returns its wall time in seconds.  It
    allocates no object the garbage collector tracks, so its time does not
    depend on how large the program's heap has grown."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    values = np.arange(256.0)
    for _ in range(100):
        values = np.sqrt(values * values + 1.0)
    return time.perf_counter() - start


def _canonical(value):
    """JSON-able, order-independent form of a campaign signature."""
    if isinstance(value, (set, frozenset)):
        return sorted((_canonical(item) for item in value), key=json.dumps)
    if isinstance(value, (tuple, list)):
        return [_canonical(item) for item in value]
    return value


def run(workload_name: str, seed: int, iterations: int, mode: str) -> dict:
    from workloads import WORKLOADS, build_config

    workload = WORKLOADS[workload_name]
    config = build_config(workload, seed, iterations)

    import repro.core.parallel as parallel
    from repro.compilers.bugs import all_bugs
    from repro.errors import ReproError
    from repro.testing import campaign_signature

    tracer = None
    if mode == "traced":
        from tracer import Tracer, install

        tracer = install(Tracer())

    durations = []
    slices = []
    first_iter = window_start = None
    slice_due = 0.0
    judged = 0
    iterate = parallel.single_iteration_result

    def timed(*args, **kwargs):
        nonlocal first_iter, window_start, slice_due, judged
        if first_iter is None:
            first_iter, window_start = time.monotonic(), time.perf_counter()
        start = time.perf_counter()
        result = iterate(*args, **kwargs)
        durations.append(time.perf_counter() - start)
        judged += len(result.timeline)
        slice_due -= durations[-1]
        if slice_due <= 0.0:
            slices.append(reference_slice())
            slice_due = SLICE_EVERY_S
        return result

    parallel.single_iteration_result = timed
    try:
        result = parallel.run_parallel_campaign(
            config, n_workers=1, n_shards=1,
            oracles=list(workload.oracles) if workload.oracles else None)
        window_s = time.perf_counter() - window_start - sum(slices)
    except ReproError as exc:
        # The program aborted the campaign: one failed iteration, reported
        # to the parent, which counts it and leaves the campaign out of the
        # metrics.
        crash = str(exc).splitlines()[0]
        return {"crashed": crash, "iterations": len(durations) + 1,
                "judged": judged,
                "signature": hashlib.sha256(crash.encode()).hexdigest()}
    finally:
        parallel.single_iteration_result = iterate
        if tracer is not None:
            tracer.uninstall()

    registered = {spec.bug_id for spec in all_bugs()}
    reported = set(result.seeded_bugs_found)
    for report in result.reports:
        reported.update(report.triggered_bugs)
    signature = json.dumps(_canonical(campaign_signature(result)))
    payload = {
        "first_iter": first_iter,
        "window_s": window_s,
        "durations": durations,
        "slices": slices,
        "iterations": result.iterations,
        "generated": result.generated_models,
        "gen_failures": result.generation_failures,
        "judged": len(result.timeline),
        "valid": result.numerically_valid_models,
        "op_instances": sorted(result.operator_instances),
        "seeded_bugs": sorted(result.seeded_bugs_found),
        "report_keys": sorted(report.dedup_key() for report in result.reports),
        "unregistered_bugs": sorted(reported - registered),
        "signature": hashlib.sha256(signature.encode()).hexdigest(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cache": result.cache_stats,
    }
    if tracer is not None:
        payload["layers"] = tracer.summary()
    return payload


def main(argv) -> int:
    if len(argv) != 5 or argv[4] not in MODES:
        sys.stderr.write(__doc__)
        return 2
    print(json.dumps(run(argv[1], int(argv[2]), int(argv[3]), argv[4])),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
