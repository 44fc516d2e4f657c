"""Tests for the sharded, process-parallel campaign engine."""

import json

import pytest

from repro.compilers.bugs import BugConfig
from repro.core.fuzzer import BugReport, CampaignResult, FuzzerConfig
from repro.core.generator import GeneratorConfig
from repro.core.parallel import (
    ParallelCampaign,
    _CellState,
    campaign_result_from_dict,
    campaign_result_to_dict,
    default_compiler_factory,
    deterministic_config,
    run_parallel_campaign,
    run_sharded_serial,
    shard_configs,
    shard_seed,
)


def _loaded_states(campaign):
    """Build the campaign's cell states and load its checkpoint into them."""
    states = [_CellState(task=task) for task in campaign._build_tasks()]
    campaign._load_checkpoint(states)
    return states


def _campaign_config(iterations, seed=7, n_nodes=8):
    # Step-bounded value search so results cannot depend on machine load.
    return deterministic_config(FuzzerConfig(
        generator=GeneratorConfig(n_nodes=n_nodes),
        max_iterations=iterations,
        bugs=BugConfig.all(),
        seed=seed,
    ), max_steps=8)


def _signature(result):
    """The order-independent content of a merged campaign result."""
    return (result.iterations,
            result.generated_models,
            result.generation_failures,
            result.numerically_valid_models,
            frozenset(result.seeded_bugs_found),
            frozenset(result.operator_instances),
            frozenset(report.dedup_key() for report in result.reports))


class TestShardConfigs:
    def test_iteration_budget_split_evenly(self):
        shards = shard_configs(FuzzerConfig(max_iterations=10), 4)
        assert [shard.max_iterations for shard in shards] == [3, 3, 2, 2]

    def test_unbounded_budget_passes_through(self):
        shards = shard_configs(FuzzerConfig(max_iterations=None,
                                            time_budget=1.0), 2)
        assert all(shard.max_iterations is None for shard in shards)
        assert all(shard.time_budget == 1.0 for shard in shards)

    def test_shard_seeds_disjoint_across_shards_and_campaigns(self):
        seeds = {shard_seed(c, i) for c in range(4) for i in range(8)}
        assert len(seeds) == 32

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            shard_configs(FuzzerConfig(), 0)

    def test_shards_do_not_alias_generator_config(self):
        config = FuzzerConfig()
        shards = shard_configs(config, 2)
        assert shards[0].generator is not config.generator
        assert shards[0].generator is not shards[1].generator


class TestCampaignResultMerge:
    def test_merge_unions_and_dedups(self):
        a = CampaignResult(iterations=3, generated_models=3,
                           numerically_valid_models=2,
                           reports=[BugReport("graphrt", "crash", "conversion",
                                              "boom", ["graphrt-x"], 1)],
                           operator_instances={"Add|f32"},
                           seeded_bugs_found={"graphrt-x"},
                           timeline=[{"elapsed": 0.5, "iteration": 1.0}])
        b = CampaignResult(iterations=2, generated_models=2,
                           generation_failures=1,
                           reports=[
                               BugReport("graphrt", "crash", "conversion",
                                         "boom", ["graphrt-x"], 2),
                               BugReport("deepc", "semantic", "transformation",
                                         "mismatch", ["deepc-y"], 1),
                           ],
                           operator_instances={"Mul|f32"},
                           seeded_bugs_found={"deepc-y"},
                           timeline=[{"elapsed": 0.2, "iteration": 1.0}])
        merged = CampaignResult.merge_all([a, b])
        assert merged.iterations == 5
        assert merged.generated_models == 5
        assert merged.generation_failures == 1
        assert merged.numerically_valid_models == 2
        assert merged.seeded_bugs_found == {"graphrt-x", "deepc-y"}
        assert merged.operator_instances == {"Add|f32", "Mul|f32"}
        # the duplicate graphrt crash collapses into one report
        assert len(merged.reports) == 2
        # timeline re-numbered cumulatively in elapsed order
        assert [s["elapsed"] for s in merged.timeline] == [0.2, 0.5]
        assert [s["iteration"] for s in merged.timeline] == [1.0, 2.0]

    def test_merge_empty_is_identity(self):
        a = CampaignResult(iterations=1, seeded_bugs_found={"graphrt-x"})
        merged = CampaignResult.merge_all([a])
        assert _signature(merged) == _signature(a)


class TestCampaignResultSerialization:
    def test_round_trip(self):
        result = CampaignResult(
            iterations=4, generated_models=3, generation_failures=1,
            numerically_valid_models=2, elapsed=1.5,
            reports=[BugReport("turbo", "crash", "execution", "kaboom\nmore",
                               ["turbo-z"], 2)],
            operator_instances={"Conv2d|f32"},
            seeded_bugs_found={"turbo-z"},
            timeline=[{"elapsed": 0.1, "iteration": 1.0}])
        payload = campaign_result_to_dict(result)
        json.dumps(payload)  # must be JSON-compatible
        rebuilt = campaign_result_from_dict(payload)
        assert _signature(rebuilt) == _signature(result)
        assert rebuilt.reports[0].message == "kaboom\nmore"
        assert rebuilt.timeline == result.timeline

    def test_cache_stats_are_neither_written_nor_read(self):
        # Results written before the hot-path cache was retired may carry
        # its telemetry; the reader ignores it like any unknown key.
        result = CampaignResult(iterations=2, seeded_bugs_found={"turbo-z"})
        payload = campaign_result_to_dict(result)
        assert "cache_stats" not in payload
        payload["cache_stats"] = {"exec_plan": {"hits": 3, "misses": 1}}
        rebuilt = campaign_result_from_dict(payload)
        assert rebuilt.cache_stats == {}
        assert _signature(rebuilt) == _signature(result)


@pytest.mark.campaign
class TestSerialParallelEquivalence:
    @pytest.mark.smoke
    def test_smoke_two_worker_campaign(self):
        """Fast smoke: a 2-worker, 10-iteration parallel campaign completes
        and finds something on the fully-seeded compilers."""
        result = run_parallel_campaign(config=_campaign_config(10),
                                       n_workers=2)
        assert result.iterations == 10
        assert result.generated_models > 0
        assert result.operator_instances

    def test_one_worker_parallel_equals_serial(self):
        config = _campaign_config(6, seed=3)
        serial = run_sharded_serial(config, 1)
        parallel = run_parallel_campaign(config=config, n_workers=1)
        assert _signature(parallel) == _signature(serial)

    def test_four_worker_parallel_equals_sharded_serial(self):
        config = _campaign_config(8, seed=5)
        serial = run_sharded_serial(config, 4)
        parallel = run_parallel_campaign(config=config, n_workers=4)
        assert _signature(parallel) == _signature(serial)
        assert parallel.iterations == 8


@pytest.mark.campaign
class TestCheckpointResume:
    def test_completed_shards_are_not_rerun(self, tmp_path, monkeypatch):
        config = _campaign_config(6, seed=11)
        path = str(tmp_path / "campaign.ckpt.json")
        count_path = tmp_path / "factory-invocations"
        monkeypatch.setenv("REPRO_TEST_FACTORY_COUNT_PATH", str(count_path))

        first = run_parallel_campaign(config=config, n_workers=2,
                                      compiler_factory=_counting_factory,
                                      checkpoint_path=path)
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert set(payload["cells"]) == {"shard0|<default>|O?",
                                         "shard1|<default>|O?"}
        assert all(entry["done"] for entry in payload["cells"].values())
        assert count_path.read_text() == "xx"  # one factory call per shard

        # Resuming must load both shards from the checkpoint without
        # spawning any new shard work.
        count_path.write_text("")
        campaign = ParallelCampaign(config=config, n_workers=2,
                                    compiler_factory=_counting_factory,
                                    checkpoint_path=path)
        resumed = campaign.run()
        assert _signature(resumed) == _signature(first)
        assert count_path.read_text() == ""

    def test_mismatched_campaign_invalidates_checkpoint(self, tmp_path):
        path = str(tmp_path / "campaign.ckpt.json")
        config = _campaign_config(4, seed=1)
        run_parallel_campaign(config=config, n_workers=2, checkpoint_path=path)
        other = ParallelCampaign(config=_campaign_config(4, seed=2),
                                 n_workers=2, checkpoint_path=path)
        assert all(state.result is None and not state.done
                   for state in _loaded_states(other))
        # generator knobs participate in the fingerprint too
        resized = ParallelCampaign(config=_campaign_config(4, seed=1, n_nodes=5),
                                   n_workers=2, checkpoint_path=path)
        assert all(state.result is None and not state.done
                   for state in _loaded_states(resized))
        # ... as does the compiler factory
        refit = ParallelCampaign(config=_campaign_config(4, seed=1),
                                 n_workers=2, checkpoint_path=path,
                                 compiler_factory=_explosive_factory)
        assert all(state.result is None and not state.done
                   for state in _loaded_states(refit))
        # ... and the matrix shape: the same config run as a matrix campaign
        # must never cross-load the flat campaign's cells
        matrixed = ParallelCampaign(config=_campaign_config(4, seed=1),
                                    n_workers=2, checkpoint_path=path,
                                    compiler_sets=[["graphrt", "deepc"]],
                                    opt_levels=[2])
        assert all(state.result is None and not state.done
                   for state in _loaded_states(matrixed))

    def test_malformed_cell_entries_are_skipped(self, tmp_path):
        config = _campaign_config(4, seed=9)
        path = str(tmp_path / "campaign.ckpt.json")
        run_parallel_campaign(config=config, n_workers=2, checkpoint_path=path)
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        first_key = "shard0|<default>|O?"
        payload["cells"][first_key]["result"]["reports"] = [{"bogus": 1}]
        payload["cells"]["not-a-cell"] = {}  # unknown key is ignored
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        campaign = ParallelCampaign(config=config, n_workers=2,
                                    checkpoint_path=path)
        loaded = _loaded_states(campaign)
        assert loaded[0].result is None   # corrupt entry treated as missing
        assert not loaded[0].done
        assert loaded[1].result is not None  # intact cell still resumes
        assert loaded[1].done

    def test_corrupt_checkpoint_file_starts_fresh(self, tmp_path):
        path = tmp_path / "campaign.ckpt.json"
        path.write_text("not json {")
        campaign = ParallelCampaign(config=_campaign_config(4, seed=1),
                                    n_workers=2, checkpoint_path=str(path))
        assert all(state.result is None and not state.done
                   for state in _loaded_states(campaign))


def _explosive_factory(bugs):
    raise AssertionError("shard should have been resumed from checkpoint")


def _counting_factory(bugs):
    """Real compilers, but record each invocation (workers inherit the env)."""
    import os

    path = os.environ.get("REPRO_TEST_FACTORY_COUNT_PATH")
    if path:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("x")
    return default_compiler_factory(bugs)


def _suicidal_factory(bugs):
    import os

    os._exit(42)  # die without reporting back, like an OOM kill


def _claim_eating_worker(worker_index, tasks, factory, task_queue,
                         result_queue):
    """Worker 0 pops a chunk and dies before its claim flushes; the rest
    behave normally — so the coordinator keeps a healthy survivor while one
    chunk is orphaned (gone from the queue, no claim on record)."""
    import os

    from repro.core.parallel import _matrix_worker

    if worker_index == 0:
        task_queue.get()
        os._exit(41)
    _matrix_worker(worker_index, tasks, factory, task_queue, result_queue)


@pytest.mark.campaign
class TestWorkerFailure:
    def test_inprocess_worker_error_is_surfaced(self):
        # --workers 1 runs in-process; the failure is wrapped, not swallowed.
        from repro.errors import ReproError

        config = _campaign_config(2, seed=0)
        with pytest.raises(ReproError, match="worker"):
            run_parallel_campaign(config=config, n_workers=1,
                                  compiler_factory=_explosive_factory)

    def test_pool_worker_error_is_surfaced(self):
        from repro.errors import ReproError

        config = _campaign_config(2, seed=0)
        with pytest.raises(ReproError, match="worker"):
            run_parallel_campaign(config=config, n_workers=2,
                                  compiler_factory=_explosive_factory)

    def test_silent_worker_death_is_detected(self):
        # os._exit in a pool worker (n_workers >= 2 so real processes are
        # used; a single worker runs in-process and cannot die silently).
        from repro.errors import ReproError

        config = _campaign_config(2, seed=0)
        with pytest.raises(ReproError, match="died with exit code"):
            run_parallel_campaign(config=config, n_workers=2,
                                  compiler_factory=_suicidal_factory)

    def test_chunk_lost_with_claimless_dead_worker_terminates(self, monkeypatch):
        """A worker that pops a chunk and dies before its claim message
        flushes must not leave the coordinator spinning on the orphaned
        chunk forever (the chunk is gone from the queue, unclaimed)."""
        import repro.core.parallel as parallel_module
        from repro.errors import ReproError

        monkeypatch.setattr(parallel_module, "_matrix_worker",
                            _claim_eating_worker)
        monkeypatch.setattr(parallel_module, "POLL_TIMEOUT", 0.05)
        monkeypatch.setattr(parallel_module, "ORPHAN_QUIET_POLLS", 5)
        config = _campaign_config(2, seed=0)
        with pytest.raises(ReproError, match="died with exit code"):
            run_parallel_campaign(config=config, n_workers=2)
