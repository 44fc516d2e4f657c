"""Pin the NNSmith generation stream across commits.

The digests below were recorded from the bounds-propagating solver
(:mod:`repro.solver.interval` propagation plus the propagate-and-branch
search of :mod:`repro.solver.solver`) and must hold unchanged for any change
that only makes generation faster: every model, every assignment and every
``Solver.stats`` counter of seeds 0-15 is hashed, so a search that takes
other decisions, in another order, or a generator that draws other random
numbers fails here.  ``test_generator_is_deterministic_per_seed`` compares
two runs of one commit and cannot see such drift.

A change that deliberately changes the stream (another propagation rule,
search order or binning draw) re-records these digests in the same change,
after confirming that the old ones reproduce against the parent's sources,
and re-checks the smoke seeds named in the Makefile.  The seeded-bug corpus
holds frozen models, so it keeps replaying without being regenerated.
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
    0: "6a0467ab7a0772d2257a327db25c1a34e171dc998a18d81e9ad4f4b72af3a36f",
    1: "5f4ab36e9ff91972a1743be32be283ee6e343fceb52a3537be3cbd67676f37c5",
    2: "faa6398f284250d8c4d0d75b4cae8531158ca0aa9beaa6fa4d5200d11a192806",
    3: "2a74d06268805e55596d604328a24208258c916d2397bb3d0e7c5b066767a671",
    4: "5c6f98758ea2e08b1ec092be7f2090c949ef0c13900dcbaf20c5d077a56e6a76",
    5: "45d0783db7599a35d84c7e29c3efafffe491c83d21718f1238417c02ea541e37",
    6: "33c30a14c77b75910a3ef3652181410f83dafcab41630214d82722f3d7e67261",
    7: "2c4b5c8e5e22e67381e508ee3771ed15f69324a810f0ba9c2e11fafc60a33ae6",
    8: "c9a41ab91d5d1fba2018f008a3180c2a4876a085d92eaff3811474e0d38a385c",
    9: "8066fb9bd91a8e1db076af59ac77013c626b03238ba70621782ebbb6b2da5ee3",
    10: "7267cc4f0d10971b747304f010d9517749134e4fe508bea9fd0bb7ff8001a57e",
    11: "976c1654494bb5ca3a7dfd3bac62c82836b5ebe53d783bce88f6dd055cf8fc4b",
    12: "3a6b2475743b5f47e204e3f38b78d5c794ab4123d4f55d332dc5efd25a6c259b",
    13: "7ebfe5791f26f6fe6bb83f6fde95a846c79d71bb4b25538a35de22c6bc486782",
    14: "52a106503ab837c59589f2476369335a5f163c5a56312e7479163bc0f3cbefb7",
    15: "848751e4a800982fed1733d74cb06ae220be13751381efd5c871618471bdf249",
}

#: ``Solver.stats`` after the incremental chain of the phase-saving ablation
#: (``benchmarks/test_ablation_extras.py::test_ablation_solver_phase_saving``).
PHASE_SAVING_STATS = {
    False: {"checks": 29, "nodes": 0, "rejected": 0, "refuted": 0},
    True: {"checks": 29, "nodes": 0, "rejected": 0, "refuted": 0},
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
    solver = Solver(phase_saving=phase_saving)
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
