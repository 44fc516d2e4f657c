"""Tests for the ``shape`` oracle (shape-infer vs executed output shapes)."""

import numpy as np
import pytest

from repro.compilers import CompileOptions, GraphRTCompiler
from repro.compilers.bugs import BugConfig
from repro.core.oracle import ShapeOnlyOracle, build_oracle, registered_oracles
from repro.core.parallel import run_parallel_campaign
from repro.testing import campaign_signature, tiny_campaign_config


class _ShapeLyingCompiler:
    """Fake system whose outputs come back with a mangled shape."""

    name = "shapeliar"

    def compile_model(self, model):
        outer = self

        class _Compiled:
            triggered_bugs = []

            def run(self, inputs):
                del inputs
                return {name: np.zeros(1, dtype=np.float32)
                        for name in outer._outputs}

        self._outputs = list(model.outputs)
        return _Compiled()

    def supported_ops(self, candidate_ops):
        return list(candidate_ops)


class TestShapeOracle:
    def test_registered(self):
        assert "shape" in registered_oracles()
        oracle = build_oracle("shape", [], bugs=BugConfig.none())
        assert isinstance(oracle, ShapeOnlyOracle)

    def test_correct_compiler_passes(self, mlp_model):
        oracle = ShapeOnlyOracle(
            [GraphRTCompiler(CompileOptions(bugs=BugConfig.none()))],
            bugs=BugConfig.none())
        case = oracle.run_case(mlp_model)
        assert [v.status for v in case.verdicts] == ["ok"]

    def test_shape_mismatch_is_semantic(self, mlp_model):
        oracle = ShapeOnlyOracle([_ShapeLyingCompiler()],
                                 bugs=BugConfig.none())
        (verdict,) = oracle.run_case(mlp_model).verdicts
        assert verdict.status == "semantic"
        assert "shape mismatch" in verdict.message

    def test_ignores_values_entirely(self, mlp_model):
        """A compiler returning correct shapes with garbage values is 'ok' —
        the cheap smoke oracle trades value bugs for speed by design."""

        class _WrongValues(_ShapeLyingCompiler):
            name = "wrongvalues"

            def compile_model(self, model):
                shapes = {name: tuple(model.type_of(name).shape)
                          for name in model.outputs}

                class _Compiled:
                    triggered_bugs = []

                    def run(self, inputs):
                        del inputs
                        return {name: np.full(shape, 123.0, dtype=np.float32)
                                for name, shape in shapes.items()}

                return _Compiled()

        oracle = ShapeOnlyOracle([_WrongValues()], bugs=BugConfig.none())
        (verdict,) = oracle.run_case(mlp_model).verdicts
        assert verdict.status == "ok"


@pytest.mark.campaign
class TestShapeOracleInCampaigns:
    def test_campaign_runs_with_shape_oracle(self):
        config = tiny_campaign_config(iterations=3, oracle="shape")
        result = run_parallel_campaign(config=config, n_workers=1)
        assert result.iterations == 3
        assert result.generated_models > 0

    def test_shape_oracle_equivalent_across_engines(self):
        config = tiny_campaign_config(iterations=4, seed=7, oracle="shape")
        solo = run_parallel_campaign(config=config, n_workers=1, n_shards=2)
        pool = run_parallel_campaign(config=config, n_workers=2, n_shards=2)
        assert campaign_signature(solo) == campaign_signature(pool)
