"""Coverage tracing in the campaign engine.

The contract under test: tracing records compiler branch arcs but never
changes which ``(config, iteration)`` pairs run or their seeds — so for a
fixed-iteration matrix and fixed campaign seed the merged findings (bug
ids + dedup keys) are bit-identical with ``trace_coverage`` on and off;
only the coverage telemetry itself differs.  Plus: the checkpoint
round-trips per-cell coverage across a mid-campaign kill, an untraced
checkpoint is rejected by a traced resume, older checkpoint formats are
rejected loudly, and a v8 checkpoint still carrying the ``scheduler``
entry earlier engines wrote resumes normally.
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
from repro.errors import ReproError
from repro.experiments.venn import campaign_cell_sets
from repro.testing import (
    FoldCounter,
    InterruptAfter,
    campaign_signature,
    tiny_campaign_config,
)

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


@pytest.mark.smoke
@pytest.mark.campaign
class TestTracingEquivalence:
    def test_findings_identical_with_and_without_tracing_inprocess(self):
        config = tiny_campaign_config(iterations=6, seed=17)
        untraced = run_parallel_campaign(config=config, n_workers=1,
                                         **MATRIX)
        traced = run_parallel_campaign(config=config, n_workers=1,
                                       trace_coverage=True, **MATRIX)
        assert campaign_signature(untraced) == campaign_signature(traced)
        # only a traced campaign pays for telemetry
        assert not untraced.coverage_arcs
        assert traced.coverage_arcs

    def test_findings_identical_with_worker_pool(self):
        config = tiny_campaign_config(iterations=6, seed=23)
        untraced = run_parallel_campaign(config=config, n_workers=1,
                                         **MATRIX)
        traced = run_parallel_campaign(config=config, n_workers=2,
                                       trace_coverage=True, **MATRIX)
        assert campaign_signature(untraced) == campaign_signature(traced)


@pytest.mark.campaign
class TestCoverageTelemetry:
    def test_per_cell_and_global_series(self):
        config = tiny_campaign_config(iterations=4, seed=11)
        result = run_parallel_campaign(config=config, n_workers=1,
                                       trace_coverage=True, **MATRIX)
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
                                       trace_coverage=True, **MATRIX)
        by_subset = campaign_cell_sets(result, by="compiler_set",
                                       what="coverage")
        assert set(by_subset) == {"deepc+graphrt", "turbo"}
        assert all(arcs for arcs in by_subset.values())
        with pytest.raises(ValueError):
            campaign_cell_sets(result, what="banana")


@pytest.mark.campaign
class TestCheckpointPersistence:
    def test_kill_and_resume_with_tracing(self, tmp_path):
        config = tiny_campaign_config(iterations=6, seed=29)
        reference = run_parallel_campaign(config=config, n_workers=1,
                                          trace_coverage=True, **MATRIX)
        path = str(tmp_path / "coverage.ckpt.json")
        interrupted = InterruptAfter(
            interrupt_after=7, config=config, n_workers=1,
            trace_coverage=True, checkpoint_path=path, **MATRIX)
        with pytest.raises((KeyboardInterrupt, ReproError)):
            interrupted.run()

        payload = json.loads(open(path, encoding="utf-8").read())
        assert payload["format_version"] == CHECKPOINT_FORMAT_VERSION == 9
        assert payload["coverage_feedback"] is True
        assert "scheduler" not in payload
        # per-cell cumulative coverage is in the checkpoint
        assert any(entry.get("result", {}).get("coverage_arcs")
                   for entry in payload["cells"].values()
                   if entry.get("result"))

        resumed = ParallelCampaign(config=config, n_workers=1,
                                   trace_coverage=True,
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

    def test_checkpoint_with_a_scheduler_entry_resumes(self, tmp_path):
        """Earlier engines saved their lease scheduler's state in every v8
        checkpoint; the loader ignores that entry, so such a file resumes
        and re-runs only its missing iterations."""
        config = tiny_campaign_config(iterations=6, seed=29)  # 4 cells x 3
        reference = run_parallel_campaign(config=config, n_workers=1,
                                          trace_coverage=True, **MATRIX)
        path = tmp_path / "older.ckpt.json"
        with pytest.raises(KeyboardInterrupt):
            InterruptAfter(interrupt_after=7, config=config, n_workers=1,
                           trace_coverage=True, checkpoint_path=str(path),
                           **MATRIX).run()
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["scheduler"] = {
            "name": "coverage",
            "state": {"window": 8,
                      "recent": {"0": [[902, 0.0589], [32, 0.0128]],
                                 "3": [[0, 0.0053]]}}}
        path.write_text(json.dumps(payload), encoding="utf-8")

        resumed = FoldCounter(config=config, n_workers=1,
                              trace_coverage=True, checkpoint_path=str(path),
                              **MATRIX)
        result = resumed.run()
        assert sum(map(len, resumed.folds.values())) == 12 - 7
        assert campaign_signature(result) == campaign_signature(reference)
        assert {key: cell.coverage_arcs
                for key, cell in result.cells.items()} == \
            {key: cell.coverage_arcs
             for key, cell in reference.cells.items()}
        assert "scheduler" not in json.loads(
            path.read_text(encoding="utf-8"))

    def test_untraced_checkpoint_rejected_by_traced_resume(self, tmp_path):
        """An untraced checkpoint has no arcs for its completed iterations;
        resuming it with tracing on would silently present a partial arc
        set as the campaign's coverage — so it is rejected loudly (same
        principle as the old-format rejection), not silently restarted."""
        config = tiny_campaign_config(iterations=4, seed=31)
        path = str(tmp_path / "untraced.ckpt.json")
        run_parallel_campaign(config=config, n_workers=1,
                              checkpoint_path=path, **MATRIX)
        with pytest.raises(ReproError, match="without coverage tracing"):
            run_parallel_campaign(config=config, n_workers=1,
                                  trace_coverage=True,
                                  checkpoint_path=path, **MATRIX)

    def test_traced_checkpoint_resumes_untraced(self, tmp_path):
        """The reverse direction is fine: findings do not depend on
        tracing, so a traced checkpoint resumes untraced — but the restored
        arc data is dropped rather than reported as a partial coverage
        measurement."""
        config = tiny_campaign_config(iterations=6, seed=37)
        reference = run_parallel_campaign(config=config, n_workers=1,
                                          **MATRIX)
        path = str(tmp_path / "coverage.ckpt.json")
        interrupted = InterruptAfter(
            interrupt_after=5, config=config, n_workers=1,
            trace_coverage=True, checkpoint_path=path, **MATRIX)
        with pytest.raises((KeyboardInterrupt, ReproError)):
            interrupted.run()
        resumed = run_parallel_campaign(config=config, n_workers=1,
                                        checkpoint_path=path, **MATRIX)
        assert campaign_signature(resumed) == campaign_signature(reference)
        assert not resumed.coverage_arcs
        assert not resumed.coverage_timeline

    @pytest.mark.parametrize("version", [3, 7, 8])
    def test_v3_checkpoints_are_rejected_loudly(self, tmp_path, version):
        config = tiny_campaign_config(iterations=4, seed=3)
        path = tmp_path / "old.ckpt.json"
        path.write_text(json.dumps({"format_version": version, "cells": {}}),
                        encoding="utf-8")
        written = path.read_bytes()
        with pytest.raises(ReproError, match=f"format_version {version}"):
            run_parallel_campaign(config=config, n_workers=1,
                                  checkpoint_path=str(path))
        assert path.read_bytes() == written  # another engine's state

    def test_corrupt_checkpoint_still_starts_fresh(self, tmp_path):
        config = tiny_campaign_config(iterations=2, seed=3)
        path = tmp_path / "corrupt.ckpt.json"
        path.write_text("not json {", encoding="utf-8")
        result = run_parallel_campaign(config=config, n_workers=1,
                                       checkpoint_path=str(path))
        assert result.iterations == 2
