"""§2.3 / §3.3 statistics: NaN/Inf frequency and search overhead.

Paper results: 56.8% of 20-node models hit NaN/Inf with default random
weights; gradient search succeeds on ~98% of models and its runtime is a
small fraction (~4%) of model-generation time.
"""

import time

import numpy as np

from repro.core import GeneratorConfig, generate_model, search_values
from repro.experiments import measure_nan_rate


def test_nan_rate_with_default_initialization(benchmark):
    result = benchmark.pedantic(
        measure_nan_rate, kwargs={"n_nodes": 20, "n_models": 15, "seed": 0},
        rounds=1, iterations=1)
    print(f"\n[§2.3] {result.exceptional_models}/{result.n_models} "
          f"({result.rate * 100:.1f}%) 20-node models hit NaN/Inf with "
          "default-initialized values (paper: 56.8%)")
    # Shape check: the problem the paper motivates actually occurs.
    assert result.rate > 0.1


def test_search_time_vs_generation_time(benchmark):
    def measure():
        generation_time = 0.0
        search_time = 0.0
        successes = 0
        count = 10
        for seed in range(count):
            start = time.monotonic()
            generated = generate_model(GeneratorConfig(n_nodes=10, seed=seed))
            generation_time += time.monotonic() - start
            result = search_values(generated.model, rng=np.random.default_rng(seed))
            search_time += result.elapsed
            successes += int(result.success)
        return generation_time / count, search_time / count, successes / count

    gen_ms, search_ms, success = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\n[§3.3] generation {gen_ms * 1000:.0f} ms/model, "
          f"gradient search {search_ms * 1000:.1f} ms/model "
          f"({search_ms / gen_ms * 100:.1f}% of generation), "
          f"success rate {success * 100:.0f}% (paper: 83 ms, 3.5 ms, 98%)")
    assert search_ms < gen_ms
    assert success >= 0.7
