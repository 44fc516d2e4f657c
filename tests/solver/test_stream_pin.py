"""Pin the NNSmith generation stream across commits.

The digests below were recorded from the solver's previous implementation
(a recursive tree walk over ``Expr``/``Constraint`` nodes) and must hold
unchanged for any change that only makes the solver faster: every model,
every assignment and every ``Solver.stats`` counter of seeds 0-15 is hashed,
so a search that visits other nodes, in another order, or draws other random
numbers fails here.  ``test_generator_is_deterministic_per_seed`` compares two
runs of one commit and cannot see such drift.

A change that deliberately changes the stream (bounds propagation, another
search order, other binning draws) re-records these digests in the same
change, together with regenerating the seeded-bug corpus with
``tools/build_corpus.py`` and re-verifying the smoke seeds.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.core.binning import apply_attribute_binning
from repro.core.concretize import concretize
from repro.core.generator import GeneratorConfig, GraphGenerator
from repro.solver import Solver

pytestmark = pytest.mark.smoke

#: sha256 of ``[ops, sorted(assignment.items()), solver.stats]`` per seed.
STREAM_DIGESTS = {
    0: "f9f7fc9b300f6f8506665c08d4dc8c22465f94c20727b0e609caa8546b4ce6ce",
    1: "350c10779f106a9fd4551ffe5c8eab15e38bca8c9315786355caf611b2ab7f29",
    2: "06b66d2fec5fca8e4001af0ba9f3e93b84ac85f82b84aa590d708f110e6ca6c4",
    3: "aab2b6437d83b870b43e0ca7320709cf62290d2c7f860034b4aad7df0e3ef45c",
    4: "5f8812bfa62a5e3da03acd8db4d2e5e01cca1387195bece63d12156572908fb1",
    5: "9cb859b809a46f3ea19f605ecff009f4ee52cf29ddf9aa7ee7c7cc1db77b4d40",
    6: "f1c0843b6d37dab33f2c656b6128c087c8d4f95c2d7c94bfb0c2dcfeeb848b88",
    7: "f63cf8722af6e928a32917918a26673dea691b3651ca66e1901bd9fcc4074863",
    8: "657c3ba0dbd38b19842e90f4a719c22d2ba5d9974df6bf66946bc1f2125eeb80",
    9: "b89f9b70c86c0ae305c2a2e98e840a042c736b7a18993c74c9b35d29a854d284",
    10: "bdaa1734c3bee033d02c1149f490ebe4904972e971c5ca0929f08a256b13f14e",
    11: "96aa9f4eed3927deca08f17e9373bcd8d6c874733c3540baf6aa1436c9b96248",
    12: "c34ca49b6fbdecff5c411d48be4f655d93dd2e8487251440b9083ce75af279c4",
    13: "ac5458025e57b18845d8460d26565855c7c2e11e2cdf5c47ca9132fca1ad247a",
    14: "e5b7654c3f97cc8121613ad76cb5a1f404cd706cdc854dc80172f4ffdb4ac5f7",
    15: "15154a63bb4826e3c84ccb5dd0f870496b8ca93dcb9a11b4fd18111a1de7ebf2",
}

#: ``Solver.stats`` after the incremental chain of the phase-saving ablation
#: (``benchmarks/test_ablation_extras.py::test_ablation_solver_phase_saving``).
PHASE_SAVING_STATS = {
    False: {"checks": 29, "nodes": 464, "restarts": 0, "rejected": 0},
    True: {"checks": 29, "nodes": 2, "restarts": 0, "rejected": 0},
}


def stream_payload(seed: int) -> list:
    """Generate, bin and concretize one 10-node model, as ``generate_model``."""
    generator = GraphGenerator(GeneratorConfig(n_nodes=10, seed=seed))
    graph = generator.generate_symbolic()
    apply_attribute_binning(graph, generator.rng, k=generator.config.n_bins)
    generated = concretize(graph, generator.rng,
                           weight_probability=generator.config.weight_probability)
    return [[node.op for node in generated.model.nodes],
            sorted(generated.assignment.items()),
            graph.solver.stats]


def stream_digest(seed: int) -> str:
    return hashlib.sha256(json.dumps(stream_payload(seed)).encode()).hexdigest()


def phase_saving_stats(phase_saving: bool) -> dict:
    """The ablation's chain of 29 incremental ``try_add_constraints`` calls."""
    solver = Solver(seed=0, phase_saving=phase_saving)
    rng = random.Random(0)
    variables = [solver.int_var(f"v{i}", 1, 64) for i in range(30)]
    for index in range(1, 30):
        lhs, rhs = variables[index - 1], variables[index]
        assert solver.try_add_constraints([rhs >= lhs, rhs <= lhs + rng.randint(1, 4)])
    return solver.stats


@pytest.mark.parametrize("seed", sorted(STREAM_DIGESTS))
def test_generation_stream_is_pinned(seed):
    assert stream_digest(seed) == STREAM_DIGESTS[seed]


@pytest.mark.parametrize("phase_saving", [False, True])
def test_phase_saving_ablation_stats_are_pinned(phase_saving):
    assert phase_saving_stats(phase_saving) == PHASE_SAVING_STATS[phase_saving]
