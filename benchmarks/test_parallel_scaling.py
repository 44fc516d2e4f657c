"""Throughput of the sharded/matrix parallel campaign engine.

The paper's headline metric is bugs-found-per-unit-time, which at fixed
per-iteration cost reduces to iteration throughput.  This benchmark runs the
same campaign budget through the serial ``Fuzzer`` loop and through
``run_parallel_campaign`` and prints iterations/second for each, then does
the same for a compiler-set × opt-level matrix campaign with adaptive chunk
scheduling.

On a machine with >= 4 cores the 4-worker parallel run must reach at least
2x the serial throughput; on smaller boxes the speedup assertion is relaxed
to "completes and matches the serial shard results" since there is no
parallel hardware to exploit.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.compilers.bugs import BugConfig
from repro.core.fuzzer import FuzzerConfig
from repro.core.generator import GeneratorConfig
from repro.core.parallel import (
    deterministic_config,
    run_parallel_campaign,
    run_sharded_serial,
)

ITERATIONS = 32
WORKERS = 4


def _config():
    # Step-bounded value search: identical work on both paths regardless of
    # CPU contention, so the bug-set equality assertion below is exact.
    return deterministic_config(FuzzerConfig(
        generator=GeneratorConfig(n_nodes=6),
        max_iterations=ITERATIONS,
        bugs=BugConfig.all(),
        seed=13,
    ), max_steps=8)


def _throughput(result, elapsed):
    return result.iterations / max(elapsed, 1e-9)


@pytest.mark.smoke
def test_parallel_scaling(once):
    def run_both():
        start = time.monotonic()
        serial = run_sharded_serial(_config(), WORKERS)
        serial_elapsed = time.monotonic() - start

        start = time.monotonic()
        parallel = run_parallel_campaign(config=_config(), n_workers=WORKERS)
        parallel_elapsed = time.monotonic() - start
        return serial, serial_elapsed, parallel, parallel_elapsed

    serial, serial_elapsed, parallel, parallel_elapsed = once(run_both)

    serial_rate = _throughput(serial, serial_elapsed)
    parallel_rate = _throughput(parallel, parallel_elapsed)
    cores = multiprocessing.cpu_count()
    print(f"\n--- Parallel campaign scaling ({ITERATIONS} iterations, "
          f"{WORKERS} workers, {cores} cores) ---")
    print(f"serial:   {serial_elapsed:6.2f}s  {serial_rate:6.2f} iters/s")
    print(f"parallel: {parallel_elapsed:6.2f}s  {parallel_rate:6.2f} iters/s  "
          f"(speedup {parallel_rate / max(serial_rate, 1e-9):.2f}x)")

    assert parallel.iterations == ITERATIONS
    assert serial.iterations == ITERATIONS
    # Both paths explore the same shard seed streams.
    assert parallel.seeded_bugs_found == serial.seeded_bugs_found
    # Only meaningful with real parallel hardware AND enough serial work to
    # amortize process spawn + IPC overhead; a sub-second micro-run would
    # measure constant costs, not scaling.
    if cores >= 4 and serial_elapsed >= 1.0:
        assert parallel_rate >= 2.0 * serial_rate, (
            f"expected >=2x speedup on {cores} cores, got "
            f"{parallel_rate / max(serial_rate, 1e-9):.2f}x")


@pytest.mark.smoke
def test_matrix_campaign_scaling(once):
    """Adaptive matrix scheduling: a 2-subset × 2-opt-level campaign keeps
    all workers busy and preserves per-cell iteration budgets exactly."""
    iterations = 12
    subsets = [["graphrt", "deepc"], ["turbo"]]

    def run_matrix():
        start = time.monotonic()
        result = run_parallel_campaign(
            config=deterministic_config(FuzzerConfig(
                generator=GeneratorConfig(n_nodes=6),
                max_iterations=iterations,
                bugs=BugConfig.all(),
                seed=17,
            ), max_steps=8),
            n_workers=WORKERS, n_shards=2,
            compiler_sets=subsets, opt_levels=[0, 2],
            schedule="adaptive")
        return result, time.monotonic() - start

    result, elapsed = once(run_matrix)
    combos = len(subsets) * 2
    print(f"\n--- Matrix campaign ({combos} combos x {iterations} iterations, "
          f"{WORKERS} workers) ---")
    print(f"matrix:   {elapsed:6.2f}s  "
          f"{result.iterations / max(elapsed, 1e-9):6.2f} iters/s  "
          f"({len(result.cells)} cells)")

    assert result.iterations == combos * iterations
    assert len(result.cells) == combos * 2
    # every combination ran its full budget, split over its two shards
    per_combo = {}
    for cell in result.cells.values():
        key = (cell.compilers, cell.opt_level)
        per_combo[key] = per_combo.get(key, 0) + cell.iterations
    assert set(per_combo.values()) == {iterations}
