"""Figure 11: effectiveness of gradient-guided value search.

Paper result: gradient search with proxy derivatives reaches the highest
success rate (98% within 3.5 ms on 10-node models), improving over random
sampling by 1.16-1.34x as models grow; proxy derivatives consistently help.
"""

import pytest

from repro.experiments import run_gradient_ablation


@pytest.mark.parametrize("n_nodes", [10, 20, 30])
def test_fig11_gradient_search_success_rate(benchmark, n_nodes):
    result = benchmark.pedantic(
        run_gradient_ablation,
        kwargs={"n_nodes": n_nodes, "n_models": 10,
                "steps": [4, 8, 16, 32], "seed": n_nodes},
        rounds=1, iterations=1)

    print(f"\n[Figure 11] model size {n_nodes} ({result.n_models} models)")
    for method, curve in result.curves.items():
        pairs = ", ".join(
            f"{steps} steps -> {rate * 100:.0f}% (avg {avg:.1f} ms)"
            for steps, rate, avg in zip(curve.steps, curve.success_rates,
                                        curve.average_times))
        print(f"  {method:<16} {pairs}")

    proxy = result.best_success_rate("gradient_proxy")
    sampling = result.best_success_rate("sampling")
    # Shape check: the full gradient method matches or beats sampling.  With
    # only ten models per group a single model moves the rate by 10
    # percentage points (e.g. a model whose NaN source is integer/boolean
    # valued and therefore invisible to gradients), so allow one to two
    # models of tolerance while still requiring a high success rate.
    assert proxy >= sampling - 0.2
    assert proxy >= 0.6
    assert proxy >= result.best_success_rate("gradient") - 0.2
