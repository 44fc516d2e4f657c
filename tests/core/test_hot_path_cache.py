"""Cache-equivalence suite: the hot-path caches must be provably invisible.

Findings, checkpoints and Venn slices of a campaign with caching enabled
must be bit-identical to the same campaign with caching disabled, across
worker counts and through a kill/resume.  Plus unit coverage of the two
stages themselves: the shape-infer memo keys and execution-plan staleness.
"""

import copy
import json

import numpy as np
import pytest

from repro.compilers.bugs import BugConfig
from repro.core import cache
from repro.core.fuzzer import Fuzzer
from repro.core.parallel import ParallelCampaign, default_compiler_factory
from repro.ops.shape_infer import infer_output_types
from repro.graph.node import Node
from repro.graph.tensor_type import TensorType
from repro.dtypes import DType
from repro.runtime.interpreter import Interpreter, random_inputs
from repro.testing import (build_mlp_model, campaign_signature,
                           tiny_campaign_config)

pytestmark = pytest.mark.campaign


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test starts cold and leaves the process-default switches on."""
    cache.reset()
    cache.configure(enabled=True)
    yield
    cache.reset()
    cache.configure(enabled=True)


def _config(enabled, **kwargs):
    import dataclasses

    return dataclasses.replace(tiny_campaign_config(**kwargs),
                               enable_cache=enabled)


# --------------------------------------------------------------------------- #
# Shape-infer memo and execution plans
# --------------------------------------------------------------------------- #
class TestShapeInferMemo:
    def test_memoized_result_equals_fresh(self):
        node = Node("Relu", "r", ["x"], ["y"])
        types = [TensorType((3, 4), DType.float32)]
        first = infer_output_types(node, types)
        before = cache.stats_snapshot()
        second = infer_output_types(node, types)
        assert first == second
        assert cache.stats_delta(before)["shape_infer"]["hits"] == 1

    def test_bool_and_int_attrs_do_not_collide(self):
        # True == 1 and hash(True) == hash(1); the memo key must still keep
        # them apart (a rule could isinstance-dispatch on the attr).
        node_bool = Node("Relu", "r", ["x"], ["y"], attrs={"flag": True})
        node_int = Node("Relu", "r", ["x"], ["y"], attrs={"flag": 1})
        types = [TensorType((2,), DType.float32)]
        infer_output_types(node_bool, types)
        before = cache.stats_snapshot()
        infer_output_types(node_int, types)
        assert cache.stats_delta(before)["shape_infer"]["misses"] == 1

    def test_hits_return_fresh_lists(self):
        node = Node("Relu", "r", ["x"], ["y"])
        types = [TensorType((3,), DType.float32)]
        first = infer_output_types(node, types)
        second = infer_output_types(node, types)
        assert first is not second
        first.append("sentinel")
        assert infer_output_types(node, types) == second

    def test_unhashable_attr_bypasses_the_memo(self):
        # An array-valued attr cannot key the memo; inference must still
        # answer exactly as it does with the cache off.
        node = Node("Relu", "r", ["x"], ["y"],
                    attrs={"extra": np.array([1, 2])})
        types = [TensorType((2,), DType.float32)]
        cache.configure(enabled=False)
        want = infer_output_types(node, types)
        cache.configure(enabled=True)
        before = cache.stats_snapshot()
        assert infer_output_types(node, types) == want
        assert cache.stats_delta(before) == {}

    def test_failed_inference_is_not_memoized(self):
        from repro.errors import ShapeInferenceError

        node = Node("Add", "a", ["x", "y"], ["z"])
        types = [TensorType((3,), DType.float32),
                 TensorType((4,), DType.float32)]
        before = cache.stats_snapshot()
        for _ in range(2):
            with pytest.raises(ShapeInferenceError, match="broadcast"):
                infer_output_types(node, types)
        assert cache.stats_delta(before) == {
            "shape_infer": {"hits": 0, "misses": 2}}

    def test_memo_clears_wholesale_at_capacity(self, monkeypatch):
        monkeypatch.setattr(cache, "SHAPE_MEMO_CAPACITY", 2)
        node = Node("Relu", "r", ["x"], ["y"])
        for size in (1, 2, 3):
            infer_output_types(node, [TensorType((size,), DType.float32)])
        # The third entry found the table full: the first two are gone.
        before = cache.stats_snapshot()
        infer_output_types(node, [TensorType((3,), DType.float32)])
        infer_output_types(node, [TensorType((1,), DType.float32)])
        assert cache.stats_delta(before) == {
            "shape_infer": {"hits": 1, "misses": 1}}


class TestExecutionPlanStaleness:
    def test_structural_mutation_invalidates_plan(self):
        from repro.graph.model import Model

        model = Model("grow")
        model.add_input("x", TensorType((4,), DType.float32))
        model.add_node(Node("Relu", "r", ["x"], ["a"]),
                       [TensorType((4,), DType.float32)])
        model.mark_output("a")
        interp = Interpreter(record_intermediates=False)
        x = np.array([-1.0, 2.0, -3.0, 4.0], dtype=np.float32)
        first = interp.run_detailed(model, {"x": x})
        np.testing.assert_array_equal(first.outputs["a"],
                                      np.maximum(x, 0.0))
        model.add_node(Node("Neg", "n", ["a"], ["b"]),
                       [TensorType((4,), DType.float32)])
        model.mark_output("b")
        second = interp.run_detailed(model, {"x": x})
        np.testing.assert_array_equal(second.outputs["b"],
                                      -np.maximum(x, 0.0))

    def test_initializer_value_swap_reuses_plan(self):
        # The value-search loop swaps initializer *values* in place; the
        # plan must be reused (a hit) yet read the fresh weights.
        from repro.graph.model import Model

        model = Model("swap")
        model.add_input("x", TensorType((2,), DType.float32))
        model.add_initializer("w", np.array([1.0, 1.0], dtype=np.float32))
        model.add_node(Node("Add", "s", ["x", "w"], ["y"]),
                       [TensorType((2,), DType.float32)])
        model.mark_output("y")
        interp = Interpreter(record_intermediates=False)
        x = np.array([1.0, 2.0], dtype=np.float32)
        interp.run_detailed(model, {"x": x})
        model.initializers["w"] = np.array([10.0, 20.0], dtype=np.float32)
        before = cache.stats_snapshot()
        run = interp.run_detailed(model, {"x": x})
        np.testing.assert_array_equal(run.outputs["y"],
                                      np.array([11.0, 22.0]))
        assert cache.stats_delta(before)["exec_plan"]["hits"] == 1

    def test_plans_are_not_shared_between_models(self):
        # Structurally identical models still get a plan each: the plan
        # holds the model's own Node objects.
        first, second = build_mlp_model(), build_mlp_model()
        inputs = random_inputs(first, np.random.default_rng(0))
        interp = Interpreter(record_intermediates=False)
        interp.run_detailed(first, inputs)
        before = cache.stats_snapshot()
        interp.run_detailed(second, inputs)
        interp.run_detailed(first, inputs)
        assert cache.stats_delta(before)["exec_plan"] == {"hits": 1,
                                                          "misses": 1}
        assert cache.execution_plan(first) is not \
            cache.execution_plan(second)

    def test_plan_is_released_with_its_model(self):
        import gc

        model = build_mlp_model()
        cache.execution_plan(model)
        assert len(cache.get_cache()._plans) == 1
        del model
        gc.collect()
        assert len(cache.get_cache()._plans) == 0

    def test_disabled_cache_builds_a_fresh_plan_per_run(self):
        model = build_mlp_model()
        cache.configure(enabled=False)
        before = cache.stats_snapshot()
        assert cache.execution_plan(model) is not \
            cache.execution_plan(model)
        Interpreter(record_intermediates=False).run_detailed(
            model, random_inputs(model, np.random.default_rng(0)))
        assert cache.stats_delta(before) == {}
        assert len(cache.get_cache()._plans) == 0

    def test_stats_only_reset_keeps_cached_plans(self):
        model = build_mlp_model()
        plan = cache.execution_plan(model)
        cache.reset(stats_only=True)
        assert cache.stats_snapshot()["exec_plan"] == {"hits": 0,
                                                       "misses": 0}
        assert cache.execution_plan(model) is plan
        assert cache.stats_snapshot()["exec_plan"] == {"hits": 1,
                                                       "misses": 0}


class TestStages:
    def test_two_stages_behind_one_switch(self):
        import inspect

        assert cache.STAGES == ("shape_infer", "exec_plan")
        assert tuple(cache.stats_snapshot()) == cache.STAGES
        assert list(inspect.signature(cache.configure).parameters) == \
            ["enabled"]


# --------------------------------------------------------------------------- #
# Campaign-level equivalence
# --------------------------------------------------------------------------- #
class TestSerialEquivalence:
    def test_fuzzer_findings_identical_with_and_without_cache(self):
        signatures = []
        for enabled in (True, False):
            cache.reset()
            fuzzer = Fuzzer(default_compiler_factory(BugConfig.all()),
                            _config(enabled, iterations=6, seed=11))
            signatures.append(campaign_signature(fuzzer.run()))
        assert signatures[0] == signatures[1]

    def test_cache_stats_reported_only_when_enabled(self):
        cache.reset()
        on = Fuzzer(default_compiler_factory(BugConfig.all()),
                    _config(True, iterations=3, seed=5)).run()
        assert on.cache_stats  # at least exec_plan/shape_infer activity
        assert set(on.cache_stats) <= {"shape_infer", "exec_plan"}
        cache.reset()
        off = Fuzzer(default_compiler_factory(BugConfig.all()),
                     _config(False, iterations=3, seed=5)).run()
        assert off.cache_stats == {}

    def test_gradcheck_campaign_identical_with_and_without_cache(self):
        # Gradcheck reruns each model once per finite-difference probe, so
        # its reference runs hit the cached execution plan.  Findings must
        # not be able to tell.
        signatures = []
        for enabled in (True, False):
            cache.reset()
            fuzzer = Fuzzer(default_compiler_factory(BugConfig.all()),
                            _config(enabled, iterations=5, seed=19,
                                    oracle="gradcheck"))
            signatures.append(campaign_signature(fuzzer.run()))
        assert signatures[0] == signatures[1]


class TestParallelEquivalence:
    @pytest.mark.smoke
    def test_bit_identical_across_cache_and_worker_counts(self):
        signatures = set()
        for enabled in (True, False):
            for workers in (1, 2):
                cache.reset()
                result = ParallelCampaign(
                    config=_config(enabled, iterations=8, seed=23),
                    n_workers=workers, n_shards=2).run()
                signatures.add(campaign_signature(result))
        assert len(signatures) == 1

    @pytest.mark.smoke
    def test_gradcheck_oracle_bit_identical_across_workers_and_cache(self):
        # The cache must be invisible under parallel folding too, not just
        # in the serial fuzzer.
        signatures = set()
        for enabled in (True, False):
            for workers in (1, 2):
                cache.reset()
                result = ParallelCampaign(
                    config=_config(enabled, iterations=6, seed=37),
                    n_workers=workers, n_shards=2,
                    oracles=["difftest", "gradcheck"]).run()
                signatures.add(campaign_signature(result))
        assert len(signatures) == 1


def _normalize_checkpoint(payload):
    """Zero out wall-clock fields (they differ run-to-run regardless of
    caching) so checkpoint comparison checks content, not timing."""
    clone = copy.deepcopy(payload)
    for entry in clone.get("cells", {}).values():
        entry["time_used"] = 0.0
        result = entry.get("result")
        if result:
            result["elapsed"] = 0.0
            for sample in result.get("timeline", []):
                sample["elapsed"] = 0.0
            for sample in result.get("coverage_timeline", []):
                sample["elapsed"] = 0.0
    return clone


class TestCheckpointInvisibility:
    @pytest.mark.smoke
    def test_checkpoints_identical_across_cache_settings(self, tmp_path):
        payloads = []
        for enabled in (True, False):
            cache.reset()
            path = tmp_path / f"cache_{enabled}.ckpt.json"
            ParallelCampaign(config=_config(enabled, iterations=6, seed=31),
                             n_workers=1, n_shards=2,
                             checkpoint_path=str(path)).run()
            payloads.append(json.loads(path.read_text()))
        assert _normalize_checkpoint(payloads[0]) == \
            _normalize_checkpoint(payloads[1])

    def test_checkpoint_carries_no_cache_stats(self, tmp_path):
        path = tmp_path / "c.ckpt.json"
        ParallelCampaign(config=_config(True, iterations=4, seed=13),
                         n_workers=1, n_shards=1,
                         checkpoint_path=str(path)).run()
        assert "cache_stats" not in path.read_text()

    def test_resume_across_cache_settings_is_legal(self, tmp_path):
        # The cache knob is invisible, so it is deliberately outside the
        # checkpoint fingerprint: a cache-on checkpoint resumes cache-off.
        path = tmp_path / "cross.ckpt.json"
        first = ParallelCampaign(config=_config(True, iterations=5, seed=17),
                                 n_workers=1, n_shards=1,
                                 checkpoint_path=str(path)).run()
        cache.reset()
        resumed = ParallelCampaign(config=_config(False, iterations=5, seed=17),
                                   n_workers=1, n_shards=1,
                                   checkpoint_path=str(path)).run()
        assert campaign_signature(resumed) == campaign_signature(first)


class TestKillResume:
    @pytest.mark.smoke
    def test_kill_and_resume_keeps_findings_and_stats_consistent(
            self, tmp_path, monkeypatch):
        from repro.errors import ReproError

        config = _config(True, iterations=8, seed=41)
        baseline = ParallelCampaign(config=config, n_workers=1,
                                    n_shards=1).run()
        cache.reset()

        path = tmp_path / "killed.ckpt.json"
        original_fold = ParallelCampaign._fold_iteration
        folds = {"count": 0}

        def dying_fold(self, states, cell_index, iteration, partial):
            folds["count"] += 1
            if folds["count"] > 3:
                raise RuntimeError("simulated coordinator death")
            return original_fold(self, states, cell_index, iteration, partial)

        monkeypatch.setattr(ParallelCampaign, "_fold_iteration", dying_fold)
        with pytest.raises(ReproError, match="simulated coordinator death"):
            ParallelCampaign(config=config, n_workers=1, n_shards=1,
                             checkpoint_path=str(path)).run()
        monkeypatch.setattr(ParallelCampaign, "_fold_iteration", original_fold)

        cache.reset()
        resumed = ParallelCampaign(config=config, n_workers=1, n_shards=1,
                                   checkpoint_path=str(path)).run()
        assert campaign_signature(resumed) == campaign_signature(baseline)
        # Stats are telemetry, not findings: the resumed run reports only
        # the re-executed portion (restored iterations contribute nothing),
        # so every stage's counters stay at or below the uninterrupted run's.
        for stage, counters in resumed.cache_stats.items():
            full = baseline.cache_stats.get(stage, {"hits": 0, "misses": 0})
            assert counters["hits"] + counters["misses"] <= \
                full["hits"] + full["misses"]


class TestCoverageInteraction:
    def test_coverage_run_keeps_the_cache_on(self):
        # The tracer's scope excludes repro/ops and repro/runtime, so both
        # stages stay on under tracing.
        from repro.compilers.coverage import CoverageFeedback

        fuzzer = Fuzzer(default_compiler_factory(BugConfig.all()),
                        _config(True, iterations=2, seed=3))
        fuzzer.run(coverage=CoverageFeedback(systems=["graphrt", "deepc"]))
        assert cache.get_cache().enabled is True

    def test_traced_arcs_identical_with_and_without_cache(self):
        # The observed arc set must be bit-identical — coverage-guided
        # dedup would otherwise diverge between cache settings.
        from repro.compilers.coverage import CoverageFeedback

        arc_sets = []
        for enabled in (True, False):
            cache.reset()
            feedback = CoverageFeedback(systems=["graphrt", "deepc"])
            Fuzzer(default_compiler_factory(BugConfig.all()),
                   _config(enabled, iterations=3, seed=9)).run(
                       coverage=feedback)
            arc_sets.append(frozenset(feedback._seen))
        assert arc_sets[0] == arc_sets[1]
