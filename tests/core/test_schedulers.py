"""Scheduler-equivalence and coverage-feedback tests for the campaign engine.

The contract under test: a scheduler may reorder and redirect *leases* but
never changes which ``(config, iteration)`` pairs run or their seeds — so
for a fixed-iteration matrix and fixed campaign seed the merged findings
(bug ids + dedup keys) are bit-identical across ``static``, ``adaptive``
and ``coverage`` scheduling; only lease order/placement (and the coverage
telemetry itself) differ.  Plus: the checkpoint round-trips scheduler state
and per-cell coverage across a mid-campaign kill, older checkpoint formats
are rejected loudly, and a coverage-scheduler resume validates the
checkpointed novelty window instead of silently re-windowing stale samples.
"""

import json

import pytest

from repro.compilers import CompileOptions, DeepCCompiler, GraphRTCompiler, \
    TurboCompiler
from repro.compilers.bugs import BugConfig
from repro.core.parallel import (
    CHECKPOINT_FORMAT_VERSION,
    ParallelCampaign,
    run_parallel_campaign,
)
from repro.core.schedule import (
    CoverageScheduler,
    Scheduler,
    build_scheduler,
    registered_schedulers,
)
from repro.errors import ReproError
from repro.experiments.venn import campaign_cell_sets
from repro.testing import (
    InterruptAfter,
    campaign_signature,
    tiny_campaign_config,
)

SCHEDULES = ("static", "adaptive", "coverage")
MATRIX = dict(compiler_sets=[["graphrt", "deepc"], ["turbo"]],
              opt_levels=[2], n_shards=2)


@pytest.fixture(scope="module", autouse=True)
def warm_compiler_imports():
    """Compile once per system before tracing anything.

    Module bodies executed under an active tracer contribute import-time
    arcs exactly once per process; warming the imports first makes arc
    sets comparable across campaigns run in this process.
    """
    from repro.testing import build_mlp_model

    model = build_mlp_model()
    for compiler_cls in (GraphRTCompiler, DeepCCompiler, TurboCompiler):
        compiled = compiler_cls(CompileOptions(bugs=BugConfig.none()))
        compiled.compile_model(model)


class TestRegistry:
    def test_builtin_schedulers_registered(self):
        assert registered_schedulers() == ("adaptive", "coverage", "static")

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(KeyError, match="nosuch"):
            build_scheduler("nosuch")

    def test_only_coverage_wants_telemetry(self):
        wants = {name: build_scheduler(name).wants_coverage
                 for name in registered_schedulers()}
        assert wants == {"static": False, "adaptive": False,
                         "coverage": True}

    def test_chunk_sizes(self):
        assert build_scheduler("static").chunk_size(12) == 12
        assert build_scheduler("adaptive").chunk_size(12) == 3
        assert build_scheduler("coverage").chunk_size(12) == 3
        # explicit chunk_iterations wins for every scheduler
        assert build_scheduler("static", 2).chunk_size(12) == 2


class TestCoverageSchedulerPolicy:
    def test_explores_unobserved_cells_first_in_planned_order(self):
        scheduler = CoverageScheduler()
        pending = [3, 1, 2]
        cell_of = {1: 10, 2: 20, 3: 30}
        assert scheduler.select(pending, cell_of) == 3  # planner order

    def test_leases_to_best_novelty_rate(self):
        scheduler = CoverageScheduler()
        scheduler.observe(10, new_arcs=1, duration=1.0)   # 1 arc/s
        scheduler.observe(20, new_arcs=10, duration=1.0)  # 10 arcs/s
        assert scheduler.select([1, 2], {1: 10, 2: 20}) == 2

    def test_unobserved_beats_any_rate(self):
        scheduler = CoverageScheduler()
        scheduler.observe(10, new_arcs=100, duration=0.1)
        assert scheduler.select([1, 2], {1: 10, 2: 99}) == 2

    def test_state_roundtrip(self):
        scheduler = CoverageScheduler()
        scheduler.observe(0, new_arcs=5, duration=0.5)
        scheduler.observe(1, new_arcs=0, duration=0.2)
        clone = CoverageScheduler()
        clone.load_state(json.loads(json.dumps(scheduler.state_dict())))
        assert clone.novelty_rate(0) == scheduler.novelty_rate(0)
        assert clone.novelty_rate(1) == scheduler.novelty_rate(1)
        assert clone.novelty_rate(2) is None

    def test_default_scheduler_state_is_empty(self):
        assert Scheduler.state_dict(build_scheduler("static")) == {}

    def test_load_state_rejects_window_mismatch(self, monkeypatch):
        """Regression: load_state used to persist ``window`` but ignore it
        on restore, silently re-windowing stale novelty samples when the
        engine's WINDOW changed between runs."""
        scheduler = CoverageScheduler()
        scheduler.observe(0, new_arcs=5, duration=0.5)
        payload = json.loads(json.dumps(scheduler.state_dict()))
        assert payload["window"] == CoverageScheduler.WINDOW

        clone = CoverageScheduler()
        monkeypatch.setattr(CoverageScheduler, "WINDOW",
                            CoverageScheduler.WINDOW + 3)
        with pytest.raises(ReproError, match="novelty window"):
            clone.load_state(payload)

    def test_load_state_rejects_corrupt_window(self):
        scheduler = CoverageScheduler()
        with pytest.raises(ReproError, match="non-integer"):
            scheduler.load_state({"window": "wide", "recent": {}})

    def test_load_state_accepts_matching_window(self):
        scheduler = CoverageScheduler()
        scheduler.observe(3, new_arcs=2, duration=0.1)
        clone = CoverageScheduler()
        clone.load_state(json.loads(json.dumps(scheduler.state_dict())))
        assert clone.novelty_rate(3) == scheduler.novelty_rate(3)

    def test_load_state_tolerates_missing_window(self):
        # Hand-crafted payloads without a window entry restore as before
        # (nothing to validate against).
        scheduler = CoverageScheduler()
        scheduler.load_state({"recent": {"1": [[4, 0.5]]}})
        assert scheduler.novelty_rate(1) == pytest.approx(8.0)


@pytest.mark.smoke
@pytest.mark.campaign
class TestSchedulerEquivalence:
    def test_findings_identical_across_schedulers_inprocess(self):
        config = tiny_campaign_config(iterations=6, seed=17)
        results = {schedule: run_parallel_campaign(
            config=config, n_workers=1, schedule=schedule, **MATRIX)
            for schedule in SCHEDULES}
        signatures = {schedule: campaign_signature(result)
                      for schedule, result in results.items()}
        assert signatures["static"] == signatures["adaptive"] \
            == signatures["coverage"]
        # coverage is the only scheduler that pays for telemetry
        assert not results["static"].coverage_arcs
        assert not results["adaptive"].coverage_arcs
        assert results["coverage"].coverage_arcs

    def test_findings_identical_with_worker_pool(self):
        config = tiny_campaign_config(iterations=6, seed=23)
        static = run_parallel_campaign(config=config, n_workers=1,
                                       schedule="static", **MATRIX)
        coverage = run_parallel_campaign(config=config, n_workers=2,
                                         schedule="coverage", **MATRIX)
        assert campaign_signature(static) == campaign_signature(coverage)


@pytest.mark.campaign
class TestCoverageTelemetry:
    def test_per_cell_and_global_series(self):
        config = tiny_campaign_config(iterations=4, seed=11)
        result = run_parallel_campaign(config=config, n_workers=1,
                                       schedule="coverage", **MATRIX)
        # one sample per folded iteration, tagged with its cell
        assert len(result.coverage_timeline) == result.iterations
        cells_seen = {sample["cell"] for sample in result.coverage_timeline}
        assert cells_seen == set(result.cells)
        # global series is monotone and ends at the merged union size
        global_series = [sample["global_total"]
                         for sample in result.coverage_timeline]
        assert global_series == sorted(global_series)
        assert global_series[-1] == len(result.coverage_arcs)
        # per-cell provenance reassembles the global union
        union = set()
        for cell in result.cells.values():
            assert cell.coverage_arcs
            union |= cell.coverage_arcs
        assert union == result.coverage_arcs

    def test_venn_tooling_slices_coverage_like_bugs(self):
        config = tiny_campaign_config(iterations=4, seed=11)
        result = run_parallel_campaign(config=config, n_workers=1,
                                       schedule="coverage", **MATRIX)
        by_subset = campaign_cell_sets(result, by="compiler_set",
                                       what="coverage")
        assert set(by_subset) == {"deepc+graphrt", "turbo"}
        assert all(arcs for arcs in by_subset.values())
        with pytest.raises(ValueError):
            campaign_cell_sets(result, what="banana")


@pytest.mark.campaign
class TestCheckpointPersistence:
    def test_kill_and_resume_under_coverage_scheduler(self, tmp_path):
        config = tiny_campaign_config(iterations=6, seed=29)
        reference = run_parallel_campaign(config=config, n_workers=1,
                                          schedule="coverage", **MATRIX)
        path = str(tmp_path / "coverage.ckpt.json")
        interrupted = InterruptAfter(
            interrupt_after=7, config=config, n_workers=1,
            schedule="coverage", checkpoint_path=path, **MATRIX)
        with pytest.raises((KeyboardInterrupt, ReproError)):
            interrupted.run()

        payload = json.loads(open(path, encoding="utf-8").read())
        assert payload["format_version"] == CHECKPOINT_FORMAT_VERSION == 8
        assert payload["scheduler"]["name"] == "coverage"
        assert payload["scheduler"]["state"]["recent"]  # rates persisted
        # per-cell cumulative coverage is in the checkpoint
        assert any(entry.get("result", {}).get("coverage_arcs")
                   for entry in payload["cells"].values()
                   if entry.get("result"))

        resumed = ParallelCampaign(config=config, n_workers=1,
                                   schedule="coverage",
                                   checkpoint_path=path, **MATRIX)
        result = resumed.run()
        # converges to the uninterrupted run: findings AND coverage
        assert campaign_signature(result) == campaign_signature(reference)
        assert result.coverage_arcs == reference.coverage_arcs
        # the stitched series stays on one clock: post-resume samples are
        # stamped after the restored run's, so the merged global curve
        # never goes backwards
        global_series = [sample["global_total"]
                         for sample in result.coverage_timeline]
        assert global_series == sorted(global_series)

    def test_untraced_checkpoint_rejected_under_coverage(self, tmp_path):
        """A static-run checkpoint has no arcs for its completed iterations;
        resuming it under --schedule coverage would silently present a
        partial arc set as the campaign's coverage — so it is rejected
        loudly (same principle as the v3 rejection), not silently
        restarted."""
        config = tiny_campaign_config(iterations=4, seed=31)
        path = str(tmp_path / "static.ckpt.json")
        run_parallel_campaign(config=config, n_workers=1,
                              schedule="static", checkpoint_path=path,
                              **MATRIX)
        with pytest.raises(ReproError, match="without coverage feedback"):
            run_parallel_campaign(config=config, n_workers=1,
                                  schedule="coverage",
                                  checkpoint_path=path, **MATRIX)

    def test_coverage_checkpoint_resumes_under_static(self, tmp_path):
        """The reverse direction is fine: findings are scheduler-independent,
        so a coverage-written checkpoint resumes under static — but the
        restored arc data is dropped rather than reported as a partial
        coverage measurement."""
        config = tiny_campaign_config(iterations=6, seed=37)
        reference = run_parallel_campaign(config=config, n_workers=1,
                                          schedule="static", **MATRIX)
        path = str(tmp_path / "coverage.ckpt.json")
        interrupted = InterruptAfter(
            interrupt_after=5, config=config, n_workers=1,
            schedule="coverage", checkpoint_path=path, **MATRIX)
        with pytest.raises((KeyboardInterrupt, ReproError)):
            interrupted.run()
        resumed = run_parallel_campaign(config=config, n_workers=1,
                                        schedule="static",
                                        checkpoint_path=path, **MATRIX)
        assert campaign_signature(resumed) == campaign_signature(reference)
        assert not resumed.coverage_arcs
        assert not resumed.coverage_timeline

    @pytest.mark.parametrize("version", [3, 7])
    def test_v3_checkpoints_are_rejected_loudly(self, tmp_path, version):
        config = tiny_campaign_config(iterations=4, seed=3)
        path = tmp_path / "old.ckpt.json"
        path.write_text(json.dumps({"format_version": version, "cells": {}}),
                        encoding="utf-8")
        with pytest.raises(ReproError, match=f"format_version {version}"):
            run_parallel_campaign(config=config, n_workers=1,
                                  checkpoint_path=str(path))

    def test_corrupt_checkpoint_still_starts_fresh(self, tmp_path):
        config = tiny_campaign_config(iterations=2, seed=3)
        path = tmp_path / "corrupt.ckpt.json"
        path.write_text("not json {", encoding="utf-8")
        result = run_parallel_campaign(config=config, n_workers=1,
                                       checkpoint_path=str(path))
        assert result.iterations == 2
