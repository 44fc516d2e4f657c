"""Oracle-axis matrix campaigns: checkpoint v5, per-oracle Venn slicing.

The acceptance scenario lives in
``TestOracleAxisCampaign::test_oracle_only_bugs_sliced_per_oracle``: one
campaign races ``difftest``/``perf``/``gradcheck`` over identical shard
seed streams, and the per-oracle Venn slice shows the seeded repack bug
detected *only* by ``perf`` and the seeded wrong-VJP bugs *only* by
``gradcheck``.  Plus: checkpoint v5 kill/resume for oracle-axis campaigns,
loud rejection of v4 checkpoints, and the fingerprint keeping
differently-shaped oracle matrices from cross-loading cells.
"""

import dataclasses
import json

import pytest

from repro.compilers.bugs import BugConfig
from repro.core.fuzzer import CampaignResult, CellOutcome, FuzzerConfig
from repro.core.parallel import (
    CHECKPOINT_FORMAT_VERSION,
    MatrixCell,
    build_matrix,
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

ORACLES = ["difftest", "perf", "gradcheck"]

#: Bugs visible to exactly one oracle class each (plus one difftest bug).
ORACLE_STUDY_BUGS = BugConfig.only(
    "graphrt-matmul-repack-small",       # perf-only
    "autodiff-tanh-grad-linear",         # gradcheck-only
    "autodiff-sigmoid-grad-unscaled",    # gradcheck-only
    "deepc-import-scalar-reduce",        # difftest-visible (crash)
)


def _study_config(iterations=10, seed=29):
    return dataclasses.replace(
        tiny_campaign_config(iterations=iterations, seed=seed, n_nodes=6),
        bugs=ORACLE_STUDY_BUGS)


class TestBuildMatrixOracleAxis:
    def test_oracle_axis_crosses_with_shards(self):
        tasks = build_matrix(FuzzerConfig(max_iterations=8), 2,
                             oracles=["difftest", "perf"])
        assert len(tasks) == 4
        keys = {task.cell.key for task in tasks}
        assert "shard0|<default>|O?|oracle:difftest" in keys
        assert "shard1|<default>|O?|oracle:perf" in keys
        # every cell's shard config rebuilds the right oracle by name
        assert {task.config.oracle for task in tasks} == {"difftest", "perf"}

    def test_oracle_axis_shares_shard_seed_streams(self):
        tasks = build_matrix(FuzzerConfig(max_iterations=8, seed=3), 2,
                             oracles=ORACLES)
        by_shard = {}
        for task in tasks:
            by_shard.setdefault(task.cell.shard, set()).add(
                (task.config.seed, task.config.max_iterations,
                 task.config.strategy))
        assert all(len(variants) == 1 for variants in by_shard.values())

    def test_unknown_oracle_rejected(self):
        with pytest.raises(KeyError, match="nosuch"):
            build_matrix(FuzzerConfig(), 1, oracles=["nosuch"])

    def test_empty_oracles_rejected(self):
        with pytest.raises(ValueError):
            build_matrix(FuzzerConfig(), 1, oracles=[])

    def test_duplicate_oracles_deduped(self):
        tasks = build_matrix(FuzzerConfig(max_iterations=4), 1,
                             oracles=["perf", "perf"])
        assert len(tasks) == 1

    def test_no_axis_keeps_pre_v5_cell_keys(self):
        """Campaigns without an oracle axis keep their historical keys —
        difftest-only campaigns stay bit-identical to the previous
        engine."""
        tasks = build_matrix(FuzzerConfig(max_iterations=4), 2)
        assert [task.cell.key for task in tasks] == \
            ["shard0|<default>|O?", "shard1|<default>|O?"]
        assert MatrixCell(shard=0).key == "shard0|<default>|O?"

    def test_oracle_axis_composes_with_generator_axis(self):
        tasks = build_matrix(FuzzerConfig(max_iterations=4), 1,
                             generators=["nnsmith", "targeted"],
                             oracles=["difftest", "crash"])
        keys = {task.cell.key for task in tasks}
        assert len(tasks) == 4
        assert "shard0|<default>|O?|targeted|oracle:crash" in keys
        for task in tasks:
            assert task.config.strategy == task.cell.generator
            assert task.config.oracle == task.cell.oracle


@pytest.mark.campaign
class TestOracleAxisCampaign:
    def test_oracle_only_bugs_sliced_per_oracle(self):
        """The acceptance scenario: per-oracle Venn slicing over shared
        streams shows each new oracle finding a bug class no other oracle
        can see."""
        result = run_parallel_campaign(config=_study_config(), n_workers=1,
                                       n_shards=2, oracles=ORACLES)
        # every oracle judged the full budget over identical streams
        assert result.iterations == 10 * len(ORACLES)
        sets = campaign_cell_sets(result, by="oracle")
        assert set(sets) == set(ORACLES)
        assert "graphrt-matmul-repack-small" in sets["perf"]
        assert "graphrt-matmul-repack-small" not in sets["difftest"]
        assert "graphrt-matmul-repack-small" not in sets["gradcheck"]
        gradcheck_only = sets["gradcheck"] - sets["difftest"] - sets["perf"]
        assert gradcheck_only & {"autodiff-tanh-grad-linear",
                                 "autodiff-sigmoid-grad-unscaled"}

    def test_oracle_only_bugs_stay_exclusive_under_all_bugs(self):
        """Regression: oracle-only bug *triggers* are recorded during every
        oracle's compile/backward, so a failing difftest verdict on the
        same model used to credit perf/gradient bugs to difftest via
        ride-along trigger sets.  With the full bug population enabled,
        the per-oracle Venn must still keep them exclusive."""
        config = dataclasses.replace(
            tiny_campaign_config(iterations=12, seed=29, n_nodes=6))
        result = run_parallel_campaign(config=config, n_workers=1,
                                       n_shards=2, oracles=ORACLES)
        sets = campaign_cell_sets(result, by="oracle")
        assert "graphrt-matmul-repack-small" not in sets["difftest"]
        assert "graphrt-matmul-repack-small" not in sets["gradcheck"]
        assert "graphrt-matmul-repack-small" in sets["perf"]
        assert not any(bug.startswith("autodiff-")
                       for bug in sets["difftest"] | sets["perf"])
        assert any(bug.startswith("autodiff-") for bug in sets["gradcheck"])

    @pytest.mark.smoke
    def test_oracle_axis_equivalent_across_engines(self):
        config = _study_config(iterations=6)
        solo = run_parallel_campaign(config=config, n_workers=1, n_shards=2,
                                     oracles=ORACLES)
        pool = run_parallel_campaign(config=config, n_workers=2, n_shards=2,
                                     oracles=ORACLES)
        assert campaign_signature(solo) == campaign_signature(pool)

    def test_gradcheck_comparison_routes_through_engine(self):
        from repro.experiments import run_gradcheck_comparison

        result = run_gradcheck_comparison(max_iterations=10, n_nodes=6,
                                          seed=29, bugs=ORACLE_STUDY_BUGS)
        assert result.iterations == 10 * 2
        assert result.gradcheck_only() & {"autodiff-tanh-grad-linear",
                                          "autodiff-sigmoid-grad-unscaled"}


@pytest.mark.campaign
class TestCheckpointV5:
    def test_killed_oracle_axis_campaign_resumes_mid_cell(self, tmp_path):
        config = _study_config(iterations=6)
        axis = dict(oracles=ORACLES, n_shards=2)
        budget_per_cell = 3

        reference = run_parallel_campaign(config=config, n_workers=1, **axis)

        path = str(tmp_path / "oracle.ckpt.json")
        interrupted = InterruptAfter(interrupt_after=5, config=config,
                                     n_workers=1, checkpoint_path=path,
                                     **axis)
        with pytest.raises((KeyboardInterrupt, ReproError)):
            interrupted.run()

        payload = json.loads(open(path, encoding="utf-8").read())
        assert payload["format_version"] == CHECKPOINT_FORMAT_VERSION == 7
        completed_before = {
            key: sum(end - start + 1 for start, end in entry["completed"])
            for key, entry in payload["cells"].items()
        }
        assert sum(completed_before.values()) == 5
        assert any(0 < count < budget_per_cell
                   for count in completed_before.values())
        # per-oracle cells keep their oracle in the checkpoint cell keys,
        # so differently-judged cells can never collide
        assert all("|oracle:" in key for key in payload["cells"])
        assert any(key.endswith("|oracle:difftest")
                   for key in payload["cells"])

        resumed = FoldCounter(config=config, n_workers=1,
                              checkpoint_path=path, **axis)
        result = resumed.run()
        assert sum(map(len, resumed.folds.values())) == \
            6 * budget_per_cell - 5  # only the missing iterations re-ran
        assert campaign_signature(result) == campaign_signature(reference)

    def test_v4_checkpoints_are_rejected_loudly(self, tmp_path):
        config = tiny_campaign_config(iterations=4, seed=3)
        path = tmp_path / "old.ckpt.json"
        path.write_text(json.dumps({"format_version": 4, "cells": {}}),
                        encoding="utf-8")
        with pytest.raises(ReproError, match="format_version 4"):
            run_parallel_campaign(config=config, n_workers=1,
                                  checkpoint_path=str(path))

    def test_fingerprint_rejects_differently_shaped_oracle_matrix(
            self, tmp_path):
        """A checkpoint written by a (difftest, perf) campaign must never
        cross-load into a (difftest,)-axis campaign: the fingerprint
        differs, so the second campaign starts from scratch."""
        config = _study_config(iterations=4)
        path = str(tmp_path / "axis.ckpt.json")
        run_parallel_campaign(config=config, n_workers=1, n_shards=2,
                              oracles=["difftest", "perf"],
                              checkpoint_path=path)
        rerun = FoldCounter(config=config, n_workers=1, n_shards=2,
                            oracles=["difftest"], checkpoint_path=path)
        rerun.run()
        # nothing restored: the full (smaller) campaign re-executed
        assert sum(map(len, rerun.folds.values())) == 4

    def test_same_oracle_axis_restores_fully(self, tmp_path):
        config = _study_config(iterations=4)
        path = str(tmp_path / "axis.ckpt.json")
        axis = dict(oracles=["difftest", "perf"], n_shards=2)
        first = run_parallel_campaign(config=config, n_workers=1,
                                      checkpoint_path=path, **axis)
        again = FoldCounter(config=config, n_workers=1,
                            checkpoint_path=path, **axis)
        result = again.run()
        assert again.folds == {}
        assert campaign_signature(result) == campaign_signature(first)


class TestOracleVennHelpers:
    def _synthetic(self):
        result = CampaignResult()
        for shard, oracle, bugs in [
            (0, "difftest", {"shared-x", "crash-a"}),
            (1, "difftest", set()),
            (0, "perf", {"shared-x", "perf-only"}),
            (0, "gradcheck", {"grad-only"}),
        ]:
            cell = CellOutcome(shard=shard, oracle=oracle, iterations=3,
                               seeded_bugs_found=set(bugs))
            result.cells[cell.key()] = cell
        return result

    def test_group_by_oracle(self):
        sets = campaign_cell_sets(self._synthetic(), by="oracle")
        assert sets == {"difftest": {"shared-x", "crash-a"},
                        "perf": {"shared-x", "perf-only"},
                        "gradcheck": {"grad-only"}}

    def test_cells_without_oracle_group_as_default(self):
        result = CampaignResult()
        cell = CellOutcome(shard=0, iterations=1,
                           seeded_bugs_found={"bug-a"})
        result.cells[cell.key()] = cell
        assert campaign_cell_sets(result, by="oracle") == \
            {"<default>": {"bug-a"}}

    def test_outcome_key_roundtrips_oracle(self):
        cell = CellOutcome(shard=2, compilers=("graphrt",), opt_level=2,
                           generator="nnsmith", oracle="perf")
        assert cell.key() == "shard2|graphrt|O2|nnsmith|oracle:perf"
        assert cell.copy().key() == cell.key()
