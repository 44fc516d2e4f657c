"""Additional ablations called out in DESIGN.md (not figures in the paper).

* insertion-mode ablation: forward-only vs backward-only vs mixed insertion;
* solver phase-saving ablation: incremental solving cost with and without
  phase saving (the repo's stand-in for Z3 incremental solving).
"""

import random

import pytest

from repro.core import GeneratorConfig, generate_model
from repro.errors import ReproError
from repro.solver import Solver


@pytest.mark.parametrize("forward_probability,label", [
    (1.0, "forward-only"),
    (0.0, "backward-only"),
    (0.5, "mixed"),
])
def test_ablation_insertion_mode(benchmark, forward_probability, label):
    def campaign():
        inputs = []
        nodes = []
        for seed in range(10):
            try:
                generated = generate_model(GeneratorConfig(
                    n_nodes=10, seed=seed, forward_probability=forward_probability))
            except ReproError:
                continue
            inputs.append(len(generated.input_names) + len(generated.weight_names))
            nodes.append(generated.n_nodes)
        return inputs, nodes

    inputs, nodes = benchmark.pedantic(campaign, rounds=1, iterations=1)
    print(f"\n[ablation/insertion {label}] avg placeholders "
          f"{sum(inputs) / len(inputs):.1f}, avg nodes {sum(nodes) / len(nodes):.1f}")
    assert nodes and all(count >= 1 for count in nodes)


@pytest.mark.parametrize("phase_saving", [True, False])
def test_ablation_solver_phase_saving(benchmark, phase_saving):
    def incremental_workload():
        solver = Solver(phase_saving=phase_saving)
        rng = random.Random(0)
        variables = [solver.int_var(f"v{i}", 1, 64) for i in range(30)]
        accepted = 0
        for index in range(1, 30):
            lhs, rhs = variables[index - 1], variables[index]
            accepted += int(solver.try_add_constraints(
                [rhs >= lhs, rhs <= lhs + rng.randint(1, 4)]))
        return accepted, solver.stats["nodes"]

    accepted, nodes = benchmark.pedantic(incremental_workload, rounds=1, iterations=1)
    print(f"\n[ablation/solver phase_saving={phase_saving}] "
          f"{accepted} incremental additions, {nodes} search nodes")
    assert accepted == 29
