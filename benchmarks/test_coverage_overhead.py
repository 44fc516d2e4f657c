"""Coverage-tracing overhead: ``--coverage`` on vs off.

Tracing costs two things: ``sys.settrace`` around every oracle call and
the per-iteration delta traffic up the feedback channel.  This benchmark
prices that on a smoke matrix — same findings by construction (tracing
never changes which iterations run), so the only interesting numbers are
the wall-clock ratio and the telemetry volume.
"""

import time

import pytest

from repro.core.parallel import run_parallel_campaign
from repro.testing import campaign_signature, tiny_campaign_config

MATRIX = dict(compiler_sets=[["graphrt", "deepc"], ["turbo"]],
              opt_levels=[2], n_shards=2)


@pytest.mark.smoke
@pytest.mark.campaign
def test_coverage_tracing_overhead(benchmark):
    config = tiny_campaign_config(iterations=6, seed=41)

    def run_both():
        timings = {}
        results = {}
        for traced in (False, True):
            start = time.monotonic()
            results[traced] = run_parallel_campaign(
                config=config, n_workers=1, trace_coverage=traced, **MATRIX)
            timings[traced] = time.monotonic() - start
        return timings, results

    timings, results = benchmark.pedantic(run_both, rounds=1, iterations=1)

    untraced, traced = results[False], results[True]
    overhead = timings[True] / max(timings[False], 1e-9)
    print("\n[Coverage overhead] tracing on vs off "
          f"on a {len(untraced.cells)}-cell smoke matrix")
    print(f"  untraced: {timings[False]:.2f}s, 0 arcs traced")
    print(f"  traced:   {timings[True]:.2f}s, "
          f"{len(traced.coverage_arcs)} arcs, "
          f"{len(traced.coverage_timeline)} telemetry samples")
    print(f"  wall-clock overhead: {overhead:.2f}x")

    # the contract: identical findings, telemetry only when traced
    assert campaign_signature(untraced) == campaign_signature(traced)
    assert traced.coverage_arcs and not untraced.coverage_arcs
    # tracing every oracle call costs real time but must stay in the same
    # order of magnitude (generous bound: the suite runs on loaded CI boxes)
    assert overhead < 20.0
