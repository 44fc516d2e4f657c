"""Pin the NNSmith generation stream across commits.

The digests below were recorded from the bounds-propagating solver
(:mod:`repro.solver.interval` propagation plus the propagate-and-branch
search of :mod:`repro.solver.solver`) and must hold unchanged for any change
that only makes generation faster: every model, every assignment and every
``Solver.stats`` counter of seeds 0-63 is hashed, so a search that takes
other decisions, in another order, or a generator that draws other random
numbers fails here.  The range holds the heavy searches: seeds 5, 11, 14,
21 and 56 each take more than 30 branching decisions, and seed 21 takes
1,416.  ``test_generator_is_deterministic_per_seed`` compares two runs of
one commit and cannot see such drift.

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
    16: "df567b64cbbf7ac523e2abe33c43842af44fcab91158cccb19bb08d0ebae1179",
    17: "7b3bfcd76a649ff727804cd53777af8fd85b812105da1ad72e73e3e4777c9e4d",
    18: "9522d991feb4732206ed5dffb9baca95046ede33ca8264fe00c0061a1e55e0a5",
    19: "5066e1beadbe87ecd159ff971a22cc2536bd9bad2079c60e8492901c3689f1e2",
    20: "53c5d2fe8941408ba497badf571b96468ce5faf3f3c308fcb86c77970ec90198",
    21: "4f7f810891340cae7e61876424178d965d9e4806d45ca8c7a70d8534e06fb4cb",
    22: "0aa77b2a982d927cc4ff7c165be0f2bfcc42831ffa9b55006347e92af4aee3a3",
    23: "256940562989cb62eb9a8089722724569ee42a026953d38088d48096b5990d0a",
    24: "03747a7ab82436402a03cefc9fd7c888f7ba25e17b7b643ed55fd767e12da04b",
    25: "203c66ab0ed8b8f76f5efe914ab620b933090ea99bb2e475f9ce7c9d8d7bc031",
    26: "e130016476739aa7f2d4343c73d273b05ce57a5f9119abd32e1c1672fd6ed110",
    27: "a40280ba96f39619826756e80ca0a534031f6e7a4b856f1e66010f4b5fcc2ad5",
    28: "289384d1b7a7bdb49750e2b659b97bd5871bdff6e627788dd9528d80cac1ddae",
    29: "fd76e71f424b40921bf04fe9d857904632b98b2b0030b06b0e1832cc68804778",
    30: "7d2e0465f8741e8e7ad0e2e71a78715056045290f8fd5dfefc81869dd1015d83",
    31: "c290a93adcc333d82d1e6a2e7ac06ad9f4258c3059d8c2e054af7565f42028a5",
    32: "575a2a375ce099e4ac592d494c964f1f984da6f855ec7970f00f4e571054f553",
    33: "0e0d1bc90dc9dd2990fd242c61771e3dcfe275f1e152e9f1d6bdd0927ea7d0cb",
    34: "1768af59f59384657aaaa2f71e019b2e1a872621b21fac3d52fe5566b1fe4dc1",
    35: "59ef783d2c3064be24e4cac9b4fa4b26203b1b3c545c11e984dc26c941b6a9dc",
    36: "d51a3cdb665c5f4a6576ac0c5d2b440af862d1bf32df954722e97bbecd56e1b0",
    37: "5132c686dc0bf588271a3f5ca8d1d9c9791c80a384a87be25c78afae5f310df6",
    38: "49797aa86049cb6ce59d01dafc1cd1f44daaf56c703f08538fbda5ee5a4ec0a0",
    39: "4d8a7f699ee15995e0c3c37f1a18b328483550e25414bb39b95f8083a5ad3140",
    40: "b9b00331e59b6d686564532bc62278e683be0dc0d0353c6ffc246d2c3ec3a71c",
    41: "4bad11f54ba36635bfa768af4a4deb40b5939e731e1da4f1219c8c3b5c431c97",
    42: "f884c131cfa772292e707240cb85945fae7530320524b240c02e41da487f703e",
    43: "b4ebc7ff1c7418105c7bd4e6ed4e8b93a0fc68389b49e105551047f4e40312f8",
    44: "ad1e75f5dd727d6304ad2a3c6c4bd17bea02d4279d3cb5d40605d55dd609dafd",
    45: "3919d344a357f79c2b885142346b2f89b8110387a7cc0e4491efc75cb45dd4e6",
    46: "6dd5b31efb80a67c0812e49d12acc09a057956f952b686ab48c7f9cee8a31d08",
    47: "805926af7e78c9f5faf3a767cd11f60501a825d56407579bce436b8234cdacb8",
    48: "0135d23f3f8544bb1ec2d456f63bfdfc58996bff9a8e80f71bcffbf93226f050",
    49: "3504d315e0439fa49c96bfde0b5eede515df8422f5d33ea3bc773dcbe3d9a7b9",
    50: "716aaef3c657dc95997e92f99d76e9b32c73f82a7f5c32518900b9296635c608",
    51: "70595b7258d3eb0e9ca1cb9e631c153801ed56ab7c2c80710a25159060c59954",
    52: "ebda7741ae40243f68bdfe1b5688a8b280b8ba424ef34d4f41bef4a73d26e80e",
    53: "818a5cef9b0f079679b436c98e959619c432e52e67e5d339ab0f2ef13996cb76",
    54: "bcb7166096eafe882ac966a519e507422230ce140c7b6862a1a52e4db74f3937",
    55: "c352c6a992442130c570e8b5d930c085b2d565809a2901cc83a167ae8fc70df3",
    56: "73c1c564914847947caaec7ec73df5cf8887a281889d33b077fa48f98ab85ae3",
    57: "ea9ced2c02df38983f8a15195cc315fed979308a3de37d152a3b82005be17a81",
    58: "c894270c3e8f61b74a0366a63b29398556ea8429ad3b59abc840215137e45682",
    59: "3decf8659d25f8e62bc1ffe0198ef6d015e37a0cb46e7dadbbeb90ed22402653",
    60: "e76afe069fd23cc8c45bb21af879d37fb96405c3c9529068a6023dda481e9377",
    61: "827a264433e2624378eab94cf84ed8bb4f4b696ab405ee76b61b62c8550d5a6c",
    62: "e9ec0a91e205bcc9cc0e8df718f0149cd8069d70b2e23100467e598807ca1922",
    63: "30eef7f0c5bcf3bde4805b876a9111240a090df0028040a82a6713007ee3ffcb",
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
