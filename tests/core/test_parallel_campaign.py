"""Tests for the sharded, process-parallel campaign engine."""

import dataclasses
import json
import os

import pytest

from repro.compilers import base
from repro.compilers.base import DEFAULT_COMPILERS
from repro.compilers.bugs import BugConfig
from repro.compilers.graphrt.compiler import GraphRTCompiler
from repro.core.fuzzer import BugReport, CampaignResult, Fuzzer, FuzzerConfig
from repro.core.generator import GeneratorConfig
from repro.core.parallel import (
    CHECKPOINT_FORMAT_VERSION,
    ParallelCampaign,
    _matrix_worker,
    campaign_result_from_dict,
    campaign_result_to_dict,
    run_parallel_campaign,
    run_sharded_serial,
    shard_configs,
    shard_seed,
)
from repro.errors import ReproError
from repro.testing import (FoldCounter, InterruptAfter, campaign_signature,
                           read_journal, tiny_campaign_config)


def _campaign_config(iterations, seed=7, n_nodes=8):
    return FuzzerConfig(
        generator=GeneratorConfig(n_nodes=n_nodes),
        value_search_max_steps=8,
        max_iterations=iterations,
        bugs=BugConfig.all(),
        seed=seed,
    )


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

    def test_unbounded_budget_is_rejected(self):
        config = FuzzerConfig(max_iterations=None)
        with pytest.raises(ValueError, match="max_iterations"):
            shard_configs(config, 2)
        with pytest.raises(ValueError, match="max_iterations"):
            Fuzzer([], config)

    @pytest.mark.parametrize("total", [0, -3])
    def test_campaign_without_iterations_is_rejected(self, total):
        with pytest.raises(ValueError, match="at least 1"):
            shard_configs(FuzzerConfig(max_iterations=total), 2)

    def test_only_a_negative_shard_budget_is_rejected(self):
        # 1 iteration over 3 shards splits 1/0/0: an empty shard is legal.
        shards = shard_configs(FuzzerConfig(max_iterations=1), 3)
        assert [shard.max_iterations for shard in shards] == [1, 0, 0]
        assert Fuzzer([], shards[1]).run().iterations == 0
        with pytest.raises(ValueError, match="non-negative"):
            Fuzzer([], FuzzerConfig(max_iterations=-1))

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
    def test_completed_shards_are_not_rerun(self, tmp_path):
        config = _campaign_config(6, seed=11)
        path = tmp_path / "campaign.ckpt.jsonl"

        first = run_parallel_campaign(config=config, n_workers=2,
                                      checkpoint_path=str(path))
        written = path.read_bytes()

        # Resuming must replay both shards from the journal without
        # running any iteration again, and leave the journal as it was.
        resumed = FoldCounter(config=config, n_workers=2,
                              checkpoint_path=str(path))
        assert _signature(resumed.run()) == _signature(first)
        assert resumed.folds == {}
        assert path.read_bytes() == written

    def test_a_finished_journal_holds_each_fold_once(self, tmp_path):
        # A header, then exactly one line per folded (cell, iteration):
        # a fold appends its own iteration and rewrites nothing.
        config = tiny_campaign_config(iterations=6, seed=3)
        path = tmp_path / "campaign.ckpt.jsonl"
        campaign = ParallelCampaign(config=config, n_workers=1, n_shards=2,
                                    checkpoint_path=str(path))
        campaign.run()
        header, folds = read_journal(path)
        assert header == {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "campaign": campaign._checkpoint_fingerprint(2),
            "coverage_feedback": False}
        assert CHECKPOINT_FORMAT_VERSION == 10
        assert [(entry["cell"], entry["iteration"]) for entry in folds] == [
            (f"shard{shard}|deepc+graphrt+turbo|O2", iteration)
            for shard in range(2) for iteration in range(1, 4)]
        stamps = [entry["stamp"] for entry in folds]
        assert stamps == sorted(stamps)
        assert all(entry["duration"] > 0 for entry in folds)

    def test_a_cut_tail_reruns_exactly_its_iteration(self, tmp_path):
        # A kill mid-append leaves the last line cut mid-JSON: the resume
        # drops it, runs that iteration alone again, and ends where an
        # uninterrupted run does.
        config = tiny_campaign_config(iterations=6, seed=3)
        fields = dict(config=config, n_workers=1, n_shards=2)
        reference = run_parallel_campaign(**fields)
        path = tmp_path / "campaign.ckpt.jsonl"
        run_parallel_campaign(checkpoint_path=str(path), **fields)
        whole = path.read_bytes()
        last = whole.rstrip(b"\n").rsplit(b"\n", 1)[1]
        path.write_bytes(whole[:len(whole) - len(last) // 2])

        resumed = FoldCounter(checkpoint_path=str(path), **fields)
        assert campaign_signature(resumed.run()) == \
            campaign_signature(reference)
        assert resumed.folds == {"shard1|deepc+graphrt+turbo|O2": [3]}
        # The file holds only intact lines, the re-run one last.
        _header, folds = read_journal(path)
        assert [(entry["cell"], entry["iteration"]) for entry in folds] == [
            (f"shard{shard}|deepc+graphrt+turbo|O2", iteration)
            for shard in range(2) for iteration in range(1, 4)]

    @pytest.mark.parametrize("mismatch", ["seed", "n_nodes",
                                          "matrix_shape", "n_workers"])
    def test_checkpoint_of_another_campaign_is_rejected(self, tmp_path,
                                                        mismatch):
        path = tmp_path / "campaign.ckpt.json"
        run_parallel_campaign(config=_campaign_config(4, seed=1),
                              n_workers=1, n_shards=2,
                              checkpoint_path=str(path))
        written = path.read_bytes()
        # Each differs from the campaign above in one fingerprinted respect,
        # which the error names.
        fields, named = {
            "seed": (dict(config=_campaign_config(4, seed=2)),
                     "config.seed: 1 in the checkpoint, 2 now"),
            # generator knobs participate in the fingerprint too
            "n_nodes": (dict(config=_campaign_config(4, seed=1, n_nodes=5)),
                        "config.generator.n_nodes: 8 in the checkpoint, "
                        "5 now"),
            # ... and the matrix shape: the same config run on another
            # compiler subset must never cross-load the default cells
            "matrix_shape": (dict(config=_campaign_config(4, seed=1),
                                  compiler_sets=[["graphrt", "deepc"]],
                                  opt_levels=[2]),
                             'compiler_sets: [["deepc", "graphrt", "turbo"]] '
                             "in the checkpoint"),
            # ... and the shard count, which defaults to the worker count
            "n_workers": (dict(config=_campaign_config(4, seed=1),
                               n_workers=4),
                          "n_shards: 2 in the checkpoint, 4 now"),
        }[mismatch]
        other = ParallelCampaign(**{"n_workers": 2,
                                    "checkpoint_path": str(path), **fields})
        # Starting over would overwrite the other campaign's progress.
        with pytest.raises(ReproError, match="different campaign") as error:
            other.run()
        assert str(path) in str(error.value)
        assert named in str(error.value)
        # Only a changed worker count gets the way to resume it.
        assert ("--shards 2" in str(error.value)) == (mismatch == "n_workers")
        assert path.read_bytes() == written

    def test_no_axis_campaign_is_the_default_subset_campaign(self,
                                                             tmp_path):
        # Without a compiler axis a campaign runs DEFAULT_COMPILERS at O2:
        # the same cells and fingerprint as naming them, so a checkpoint of
        # one resumes the other.
        config = tiny_campaign_config(iterations=6, seed=3)
        path = str(tmp_path / "campaign.ckpt.json")
        fields = dict(config=config, n_workers=1, n_shards=2,
                      checkpoint_path=path)
        plain = ParallelCampaign(**fields)
        named = ParallelCampaign(compiler_sets=[DEFAULT_COMPILERS],
                                 opt_levels=[2], **fields)
        assert [task.cell.key for task in plain._build_tasks()] == \
            [task.cell.key for task in named._build_tasks()] == \
            ["shard0|deepc+graphrt+turbo|O2", "shard1|deepc+graphrt+turbo|O2"]
        assert plain._checkpoint_fingerprint(2) == \
            named._checkpoint_fingerprint(2)

        reference = run_parallel_campaign(config=config, n_workers=1,
                                          n_shards=2)
        with pytest.raises(KeyboardInterrupt):
            InterruptAfter(4, **fields).run()
        resumed = FoldCounter(
            compiler_sets=[list(reversed(DEFAULT_COMPILERS))], **fields)
        result = resumed.run()
        assert sum(map(len, resumed.folds.values())) == 6 - 4
        assert campaign_signature(result) == campaign_signature(reference)

    def test_pipeline_participates_in_the_fingerprint(self):
        # A campaign's pipeline changes what its cells find, so a
        # checkpoint of one pipeline must never resume the other.
        config = tiny_campaign_config(iterations=6, n_nodes=8)
        canonical = ParallelCampaign(config=config)
        o0 = ParallelCampaign(config=dataclasses.replace(config,
                                                         pipeline="O0"))
        assert canonical._checkpoint_fingerprint(2) != \
            o0._checkpoint_fingerprint(2)

    #: A different value for every ``FuzzerConfig`` field.  A new field
    #: fails the test below until it gets an entry here.
    _CHANGED_FIELDS = {
        "generator": GeneratorConfig(n_nodes=5),
        "value_search_method": "sampling",
        "value_search_max_steps": 16,
        "max_iterations": 7,
        "bugs": BugConfig.none(),
        "seed": 5,
        "probe_operator_support": False,
        "strategy": "graphfuzzer",
        "oracle": "perf",
        "pipeline": "O0",
        "verify_passes": True,
    }

    @pytest.mark.parametrize(
        "name", [field.name for field in dataclasses.fields(FuzzerConfig)])
    def test_every_config_field_participates_in_the_fingerprint(self, name):
        # The fingerprint takes the config in its wire encoding, so no
        # field a worker computes with can be left out of it.
        config = tiny_campaign_config(iterations=6, n_nodes=8)
        changed = dataclasses.replace(config,
                                      **{name: self._CHANGED_FIELDS[name]})
        assert ParallelCampaign(config=config)._checkpoint_fingerprint(2) != \
            ParallelCampaign(config=changed)._checkpoint_fingerprint(2)

    def test_malformed_journal_lines_are_dropped(self, tmp_path):
        # A line that does not decode into a fold of this campaign is
        # dropped (its iteration runs again); the intact lines replay.
        config = _campaign_config(4, seed=9)
        reference = run_parallel_campaign(config=config, n_workers=2)
        path = tmp_path / "campaign.ckpt.jsonl"
        run_parallel_campaign(config=config, n_workers=2,
                              checkpoint_path=str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[1])
        first["payload"]["reports"] = [{"bogus": 1}]
        lines[1] = json.dumps(first)
        lines.append(json.dumps({**first, "cell": "not-a-cell"}))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        resumed = FoldCounter(config=config, n_workers=2,
                              checkpoint_path=str(path))
        assert _signature(resumed.run()) == _signature(reference)
        assert resumed.folds == {first["cell"]: [first["iteration"]]}
        text = path.read_text(encoding="utf-8")
        assert "bogus" not in text and "not-a-cell" not in text

    def test_an_empty_file_starts_fresh(self, tmp_path):
        path = tmp_path / "campaign.ckpt.jsonl"
        path.write_bytes(b"")
        campaign = FoldCounter(config=_campaign_config(4, seed=1),
                               n_workers=1, n_shards=2,
                               checkpoint_path=str(path))
        campaign.run()
        assert sum(map(len, campaign.folds.values())) == 4
        assert len(read_journal(path)[1]) == 4

    @pytest.mark.parametrize("content", [
        b"not json {\n",
        b"[1, 2, 3]\n",
        b"\xff\xfe binary \x00\n",
        b"\n" + json.dumps({"format_version": 10}).encode(),
    ], ids=["text", "json-list", "binary", "blank-first-line"])
    def test_a_file_that_is_no_journal_is_refused(self, tmp_path, content):
        path = tmp_path / "campaign.ckpt.jsonl"
        path.write_bytes(content)
        campaign = ParallelCampaign(config=_campaign_config(4, seed=1),
                                    n_workers=2, checkpoint_path=str(path))
        with pytest.raises(ReproError, match="is not a campaign checkpoint "
                                             "journal") as error:
            campaign.run()
        assert str(path) in str(error.value)
        assert path.read_bytes() == content

    def test_a_snapshot_checkpoint_is_refused(self, tmp_path):
        # v9 and older checkpoints were one JSON object, the whole campaign
        # rewritten on every fold: real state this engine cannot resume.
        path = tmp_path / "campaign.ckpt.json"
        content = json.dumps({"format_version": 9, "campaign": {},
                              "coverage_feedback": False, "cells": {}})
        path.write_text(content, encoding="utf-8")
        campaign = ParallelCampaign(config=_campaign_config(4, seed=1),
                                    n_workers=2, checkpoint_path=str(path))
        with pytest.raises(ReproError, match="format_version 9"):
            campaign.run()
        assert path.read_text(encoding="utf-8") == content


class _ExplosiveCompiler(GraphRTCompiler):
    """GraphRT whose every compile raises: a bug inside a worker."""

    name = "explosive"

    def compile_model(self, model):
        raise AssertionError("compile exploded")


class _SuicidalCompiler(GraphRTCompiler):
    """GraphRT whose first compile kills its process."""

    name = "suicidal"

    def compile_model(self, model):
        os._exit(42)  # die without reporting back, like an OOM kill


@pytest.fixture
def fake_compilers(monkeypatch):
    """Register the failing fakes; pool workers are forked, so they inherit
    the patched registry."""
    for fake in (_ExplosiveCompiler, _SuicidalCompiler):
        monkeypatch.setitem(base._COMPILER_REGISTRY, fake.name, fake)


def _claim_eating_worker(worker_index, tasks, task_queue, result_queue):
    """Worker 0 pops a chunk and dies before its claim flushes; the rest
    behave normally — so the coordinator keeps a healthy survivor while one
    chunk is orphaned (gone from the queue, no claim on record)."""
    if worker_index == 0:
        task_queue.get()
        os._exit(41)
    _matrix_worker(worker_index, tasks, task_queue, result_queue)


@pytest.mark.campaign
class TestWorkerFailure:
    def test_inprocess_worker_error_is_surfaced(self, fake_compilers):
        # --workers 1 runs in-process; the failure is wrapped, not swallowed.
        config = _campaign_config(2, seed=0)
        with pytest.raises(ReproError, match="worker.*compile exploded"):
            run_parallel_campaign(config=config, n_workers=1,
                                  compiler_sets=[["explosive"]])

    def test_pool_worker_error_is_surfaced(self, fake_compilers):
        config = _campaign_config(2, seed=0)
        with pytest.raises(ReproError, match="worker.*compile exploded"):
            run_parallel_campaign(config=config, n_workers=2,
                                  compiler_sets=[["explosive"]])

    def test_silent_worker_death_is_detected(self, fake_compilers):
        # os._exit in a pool worker (n_workers >= 2 so real processes are
        # used; a single worker runs in-process and cannot die silently).
        config = _campaign_config(2, seed=0)
        with pytest.raises(ReproError, match="died with exit code 42"):
            run_parallel_campaign(config=config, n_workers=2,
                                  compiler_sets=[["suicidal"]])

    def test_chunk_lost_with_claimless_dead_worker_terminates(self, monkeypatch):
        """A worker that pops a chunk and dies before its claim message
        flushes must not leave the coordinator spinning on the orphaned
        chunk forever (the chunk is gone from the queue, unclaimed)."""
        import repro.core.parallel as parallel_module
        from repro.errors import ReproError

        monkeypatch.setattr(parallel_module, "_matrix_worker",
                            _claim_eating_worker)
        monkeypatch.setattr(parallel_module, "POLL_TIMEOUT", 0.05)
        config = _campaign_config(2, seed=0)
        with pytest.raises(ReproError, match="died with exit code"):
            run_parallel_campaign(config=config, n_workers=2)

    def test_chunk_lost_with_claimless_dead_worker_is_requeued(
            self, monkeypatch):
        """The coordinator knows which worker it sent each lease to, so a
        lease that died unclaimed goes to the survivor like any other."""
        import repro.core.parallel as parallel_module
        from repro.testing import campaign_signature

        config = _campaign_config(2, seed=0)
        baseline = run_parallel_campaign(config=config, n_workers=1,
                                         n_shards=2)
        monkeypatch.setattr(parallel_module, "_matrix_worker",
                            _claim_eating_worker)
        monkeypatch.setattr(parallel_module, "POLL_TIMEOUT", 0.05)
        survived = run_parallel_campaign(config=config, n_workers=2,
                                         fault_tolerance="requeue")
        assert campaign_signature(survived) == campaign_signature(baseline)
