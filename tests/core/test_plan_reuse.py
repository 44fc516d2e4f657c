"""The interpreter's per-model execution plan is invisible to findings.

Value search and the gradcheck oracle run one model many times and reuse
its plan (:func:`repro.runtime.interpreter.execution_plan`).  Search
results, findings, checkpoints and traced coverage arcs must be
bit-identical to the same work building a new plan on every run — across
worker counts and through a checkpoint resume.
"""

import contextlib

import numpy as np
import pytest

import repro.autodiff.backprop as backprop
from repro.compilers.bugs import BugConfig
from repro.core.fuzzer import Fuzzer
from repro.core.generator import GeneratorConfig, generate_model
from repro.core.parallel import ParallelCampaign, default_compiler_factory
from repro.core.value_search import gradient_search
from repro.runtime import interpreter
from repro.runtime.interpreter import Interpreter
from repro.testing import (campaign_signature, checkpoint_signature,
                           tiny_campaign_config)

pytestmark = pytest.mark.campaign


@contextlib.contextmanager
def _plans(source):
    """Run on each model's reused plan, or on a new plan per lookup."""
    with pytest.MonkeyPatch.context() as patch:
        if source == "fresh":
            for module in (interpreter, backprop):
                patch.setattr(module, "execution_plan",
                              interpreter.build_execution_plan)
        yield


@pytest.fixture
def counts(monkeypatch):
    """Count plan builds and interpreter runs."""
    tally = {"builds": 0, "runs": 0}
    build, run = interpreter.build_execution_plan, Interpreter.run_detailed

    def counted_build(model):
        tally["builds"] += 1
        return build(model)

    def counted_run(self, model, inputs):
        tally["runs"] += 1
        return run(self, model, inputs)

    monkeypatch.setattr(interpreter, "build_execution_plan", counted_build)
    monkeypatch.setattr(Interpreter, "run_detailed", counted_run)
    return tally


def _fuzz(config, coverage=None):
    return Fuzzer(default_compiler_factory(BugConfig.all()),
                  config).run(coverage=coverage)


class TestValueSearch:
    @pytest.mark.parametrize("method", ["gradient", "gradient_proxy"])
    def test_search_identical_with_reused_and_fresh_plans(self, method):
        from repro.autodiff import DEFAULT_PROXY, NO_PROXY

        proxy = DEFAULT_PROXY if method == "gradient_proxy" else NO_PROXY
        for seed in (3, 22, 50):
            outcomes = []
            for source in ("reused", "fresh"):
                model = generate_model(
                    GeneratorConfig(n_nodes=6, seed=seed)).model
                with _plans(source):
                    found = gradient_search(
                        model, np.random.default_rng(seed), proxy=proxy,
                        max_iterations=8)
                outcomes.append((found.success, found.iterations, {
                    name: value.tobytes() for name, value
                    in {**found.inputs, **found.weights}.items()}))
            assert outcomes[0] == outcomes[1], seed

    def test_search_builds_one_plan_for_its_many_runs(self, counts):
        model = generate_model(GeneratorConfig(n_nodes=6, seed=3)).model
        found = gradient_search(model, np.random.default_rng(3),
                                max_iterations=8)
        assert counts == {"builds": 1, "runs": found.iterations}
        assert found.iterations == 8


class TestCampaigns:
    @pytest.mark.parametrize("oracle", ["difftest", "gradcheck"])
    def test_serial_findings_identical_with_reused_and_fresh_plans(
            self, oracle):
        config = tiny_campaign_config(iterations=6, seed=11, oracle=oracle)
        signatures = []
        for source in ("reused", "fresh"):
            with _plans(source):
                signatures.append(campaign_signature(_fuzz(config)))
        assert signatures[0] == signatures[1]

    def test_gradcheck_reuses_each_models_plan(self, counts):
        _fuzz(tiny_campaign_config(iterations=3, seed=19, oracle="gradcheck"))
        assert 0 < counts["builds"] < counts["runs"]

    @pytest.mark.parametrize("oracles", [None, ["difftest", "gradcheck"]],
                             ids=["difftest", "difftest+gradcheck"])
    def test_bit_identical_across_plan_source_and_worker_counts(
            self, oracles):
        # Only a one-worker run is sure to stay in this process, where the
        # patch applies; the two-worker run reuses plans in its workers.
        config = tiny_campaign_config(iterations=6, seed=37)
        signatures = set()
        for source, workers in (("reused", 1), ("fresh", 1), ("reused", 2)):
            with _plans(source):
                signatures.add(campaign_signature(ParallelCampaign(
                    config=config, n_workers=workers, n_shards=2,
                    oracles=oracles).run()))
        assert len(signatures) == 1

    def test_traced_arcs_identical_with_reused_and_fresh_plans(self):
        from repro.compilers.coverage import CoverageFeedback

        arc_sets = []
        for source in ("reused", "fresh"):
            feedback = CoverageFeedback(systems=["graphrt", "deepc"])
            with _plans(source):
                _fuzz(tiny_campaign_config(iterations=3, seed=9), feedback)
            arc_sets.append(frozenset(feedback._seen))
        assert arc_sets[0] == arc_sets[1]


class TestCheckpoints:
    def test_checkpoints_identical_with_reused_and_fresh_plans(self, tmp_path):
        signatures = []
        for source in ("reused", "fresh"):
            path = tmp_path / f"{source}.ckpt.json"
            with _plans(source):
                ParallelCampaign(config=tiny_campaign_config(iterations=6,
                                                             seed=31),
                                 n_workers=1, n_shards=2,
                                 checkpoint_path=str(path)).run()
            assert "cache_stats" not in path.read_text()
            signatures.append(checkpoint_signature(path))
        assert signatures[0] == signatures[1]

    def test_fresh_plans_resume_a_killed_run(self, tmp_path, monkeypatch):
        config = tiny_campaign_config(iterations=8, seed=41)
        baseline = ParallelCampaign(config=config, n_workers=1,
                                    n_shards=1).run()
        path = tmp_path / "killed.ckpt.json"
        original_fold = ParallelCampaign._fold_iteration
        folds = {"count": 0}

        def dying_fold(self, *args):
            folds["count"] += 1
            if folds["count"] > 3:
                raise RuntimeError("simulated coordinator death")
            return original_fold(self, *args)

        monkeypatch.setattr(ParallelCampaign, "_fold_iteration", dying_fold)
        with pytest.raises(RuntimeError, match="simulated coordinator death"):
            ParallelCampaign(config=config, n_workers=1, n_shards=1,
                             checkpoint_path=str(path)).run()
        monkeypatch.setattr(ParallelCampaign, "_fold_iteration", original_fold)
        with _plans("fresh"):
            resumed = ParallelCampaign(config=config, n_workers=1, n_shards=1,
                                       checkpoint_path=str(path)).run()
        assert campaign_signature(resumed) == campaign_signature(baseline)
