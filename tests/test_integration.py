"""End-to-end integration tests across the whole pipeline."""

import numpy as np
import pytest

from repro.compilers import CompileOptions, DeepCCompiler, GraphRTCompiler, TurboCompiler
from repro.compilers.bugs import BugConfig
from repro.core import DifferentialTester, GeneratorConfig, generate_model, search_values
from repro.graph.serialize import dumps, loads
from repro.runtime import Interpreter, export_model, random_inputs

NO_BUGS = BugConfig.none()


@pytest.mark.parametrize("seed", range(6))
def test_generated_models_compile_identically_everywhere(seed):
    """Generate -> search values -> export -> compile on all three backends:
    with no seeded bugs, every backend must agree with the oracle."""
    generated = generate_model(GeneratorConfig(n_nodes=8, seed=seed))
    search = search_values(generated.model, rng=np.random.default_rng(seed))
    model = search.apply_weights(generated.model) if search.weights else generated.model
    inputs = search.inputs or random_inputs(model, np.random.default_rng(seed))

    oracle = Interpreter().run_detailed(model, inputs)
    if not oracle.numerically_valid:
        pytest.skip("model not numerically valid for this seed")

    exported = export_model(model, bugs=NO_BUGS)
    for compiler_cls in (GraphRTCompiler, DeepCCompiler, TurboCompiler):
        compiler = compiler_cls(CompileOptions(opt_level=2, bugs=NO_BUGS))
        if compiler.supported_ops([n.op for n in exported.nodes]) != \
                [n.op for n in exported.nodes]:
            continue
        outputs = compiler.compile_model(exported).run(inputs)
        for name, expected in oracle.outputs.items():
            np.testing.assert_allclose(
                np.asarray(expected, dtype=np.float64),
                np.asarray(outputs[name], dtype=np.float64),
                rtol=1e-3, atol=1e-4,
                err_msg=f"{compiler_cls.__name__} disagrees on seed {seed}")


def test_serialization_roundtrip_of_generated_models():
    generated = generate_model(GeneratorConfig(n_nodes=10, seed=123))
    restored = loads(dumps(generated.model))
    inputs = random_inputs(generated.model, np.random.default_rng(0))
    ref = Interpreter().run(generated.model, inputs)
    out = Interpreter().run(restored, inputs)
    for name in ref:
        np.testing.assert_allclose(ref[name], out[name], rtol=1e-6)


def test_difftest_pipeline_on_generated_model():
    generated = generate_model(GeneratorConfig(n_nodes=8, seed=77))
    tester = DifferentialTester([
        GraphRTCompiler(CompileOptions(bugs=NO_BUGS)),
        DeepCCompiler(CompileOptions(bugs=NO_BUGS)),
    ], bugs=NO_BUGS)
    case = tester.run_case(generated.model)
    ok_or_not_impl = all(
        verdict.status == "ok" or "not implemented" in verdict.message
        for verdict in case.verdicts)
    assert ok_or_not_impl
