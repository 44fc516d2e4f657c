"""Pipeline-axis matrix campaigns: checkpoint v6, per-pipeline Venn slicing.

The acceptance scenario lives in
``TestPipelineAxisCampaign::test_ordering_bug_found_only_by_sampled_pipeline``:
one campaign races the canonical ``O0`` pipeline against deterministically
sampled pass orderings over identical shard seed streams, and the seeded
ordering-only bug (``graphrt-constfold-internal-biassoftmax`` — constant
folding crashes on the internal operator that BiasSoftmax fusion emits,
but the canonical order runs folding *first*) shows up exclusively in the
sampled-pipeline cell.  Plus: checkpoint v6 kill/resume for pipeline-axis
campaigns, loud rejection of v5 checkpoints, and the fingerprint keeping
differently-shaped pipeline matrices from cross-loading cells.
"""

import json
from collections import Counter

import pytest

from repro.core.fuzzer import CampaignResult, CellOutcome, FuzzerConfig
from repro.core.parallel import (
    CHECKPOINT_FORMAT_VERSION,
    build_matrix,
    run_parallel_campaign,
)
from repro.errors import ReproError
from repro.experiments.venn import campaign_cell_sets
from repro.testing import (
    FoldCounter,
    InterruptAfter,
    campaign_signature,
    read_journal,
    tiny_campaign_config,
)

#: A sampled graphrt ordering that runs BiasSoftmaxFusion *before*
#: ConstantFolding — the order no canonical ``O<k>`` pipeline ever uses.
#: Self-contained token (seed baked in), so it is campaign-seed independent.
ORDERING_TOKEN = "rand:14682586710177421089:1"

#: Pinned campaign seed at which the nnsmith stream produces a model with
#: the Add->Softmax motif within the first few iterations (found by a
#: dev-time scan; the fusion pass needs Add feeding a single Softmax
#: consumer with matching shapes).
ORDERING_SEED = 117


def _study_config(iterations=8, seed=ORDERING_SEED):
    return tiny_campaign_config(iterations=iterations, seed=seed, n_nodes=8)


class TestBuildMatrixPipelineAxis:
    def test_pipeline_axis_crosses_with_shards(self):
        tasks = build_matrix(FuzzerConfig(max_iterations=8), 2,
                             pipelines=["O0", "O2"])
        assert len(tasks) == 4
        keys = {task.cell.key for task in tasks}
        assert "shard0|deepc+graphrt+turbo|O2|pipe:O0" in keys
        assert "shard1|deepc+graphrt+turbo|O2|pipe:O2" in keys
        # every cell's shard config carries its pipeline token to the worker
        assert {task.config.pipeline for task in tasks} == {"O0", "O2"}

    def test_sampler_expansion_is_a_pure_function_of_the_config(self):
        first = build_matrix(FuzzerConfig(max_iterations=4, seed=9), 1,
                             pipelines=["random:3@7"])
        again = build_matrix(FuzzerConfig(max_iterations=4, seed=9), 1,
                             pipelines=["random:3@7"])
        other = build_matrix(FuzzerConfig(max_iterations=4, seed=10), 1,
                             pipelines=["random:3@7"])
        assert [t.cell.pipeline for t in first] == \
            [t.cell.pipeline for t in again]
        assert [t.cell.pipeline for t in first] != \
            [t.cell.pipeline for t in other]
        assert all(t.cell.pipeline.startswith("rand:") for t in first)

    def test_pipeline_axis_shares_shard_seed_streams(self):
        tasks = build_matrix(FuzzerConfig(max_iterations=8, seed=3), 2,
                             pipelines=["O0", "O2", ORDERING_TOKEN])
        by_shard = {}
        for task in tasks:
            by_shard.setdefault(task.cell.shard, set()).add(
                (task.config.seed, task.config.max_iterations,
                 task.config.strategy))
        assert all(len(variants) == 1 for variants in by_shard.values())

    def test_unknown_pipeline_token_rejected(self):
        with pytest.raises(KeyError, match="nosuch"):
            build_matrix(FuzzerConfig(), 1, pipelines=["nosuch"])

    def test_empty_pipelines_rejected(self):
        with pytest.raises(ValueError):
            build_matrix(FuzzerConfig(), 1, pipelines=[])

    def test_duplicate_pipelines_deduped(self):
        tasks = build_matrix(FuzzerConfig(max_iterations=4), 1,
                             pipelines=["O2", "O2"])
        assert len(tasks) == 1

    def test_absent_pipeline_axis_adds_no_key_component(self):
        tasks = build_matrix(FuzzerConfig(max_iterations=4), 2)
        assert [task.cell.key for task in tasks] == \
            ["shard0|deepc+graphrt+turbo|O2", "shard1|deepc+graphrt+turbo|O2"]

    def test_pipeline_axis_composes_with_other_axes(self):
        tasks = build_matrix(FuzzerConfig(max_iterations=4), 1,
                             oracles=["difftest", "crash"],
                             pipelines=["O0", "O2"])
        assert len(tasks) == 4
        keys = {task.cell.key for task in tasks}
        assert "shard0|deepc+graphrt+turbo|O2|oracle:crash|pipe:O2" in keys
        for task in tasks:
            assert task.config.pipeline == task.cell.pipeline


@pytest.mark.campaign
class TestPipelineAxisCampaign:
    def test_ordering_bug_found_only_by_sampled_pipeline(self):
        """The acceptance scenario: equivalence-modulo-passes over shared
        streams shows the seeded ordering-only bug exclusively in the
        sampled-pipeline cell — no canonical pipeline can see it."""
        result = run_parallel_campaign(
            config=_study_config(), n_workers=1, n_shards=1,
            compiler_sets=[["graphrt"]],
            pipelines=["O0", "O2", ORDERING_TOKEN])
        assert result.iterations == 8 * 3
        sets = campaign_cell_sets(result, by="pipeline")
        assert set(sets) == {"O0", "O2", ORDERING_TOKEN}
        assert "graphrt-constfold-internal-biassoftmax" in \
            sets[ORDERING_TOKEN]
        assert "graphrt-constfold-internal-biassoftmax" not in sets["O0"]
        assert "graphrt-constfold-internal-biassoftmax" not in sets["O2"]

    def test_found_ordering_bug_bisects_to_two_passes(self):
        """Attribution: delta debugging shrinks the finding's ~dozen-pass
        sampled pipeline to exactly the two interacting passes."""
        from repro.core.fuzzer import generate_for_iteration
        from repro.core.parallel import shard_configs
        from repro.experiments.pass_bisect import bisect_finding

        # Recreate the failing cell's model stream (pure function of the
        # config) and bisect the first iteration that triggers the bug.
        shard = shard_configs(_study_config(), 1)[0]
        for iteration in range(8):
            generated = generate_for_iteration(shard, iteration)
            if generated is None:
                continue
            result = bisect_finding(generated.model, "graphrt",
                                    ORDERING_TOKEN)
            if result.reproduced:
                break
        else:
            pytest.fail("no iteration reproduced the ordering bug")
        assert len(result.minimal) <= 2
        assert result.minimal == (("graphrt", "BiasSoftmaxFusion"),
                                  ("graphrt", "ConstantFolding"))
        assert "graphrt-constfold-internal-biassoftmax" in \
            result.failure.bug_ids

    def test_pipeline_axis_equivalent_across_engines(self):
        config = _study_config(iterations=6)
        axis = dict(compiler_sets=[["graphrt"]], n_shards=2,
                    pipelines=["O0", ORDERING_TOKEN])
        solo = run_parallel_campaign(config=config, n_workers=1, **axis)
        pool = run_parallel_campaign(config=config, n_workers=2, **axis)
        assert campaign_signature(solo) == campaign_signature(pool)


@pytest.mark.campaign
class TestCheckpointV6:
    def test_killed_pipeline_axis_campaign_resumes_mid_cell(self, tmp_path):
        config = _study_config(iterations=6)
        axis = dict(compiler_sets=[["graphrt"]], n_shards=2,
                    pipelines=["O0", ORDERING_TOKEN])
        budget_per_cell = 3

        reference = run_parallel_campaign(config=config, n_workers=1, **axis)

        path = str(tmp_path / "pipeline.ckpt.json")
        interrupted = InterruptAfter(interrupt_after=5, config=config,
                                     n_workers=1, checkpoint_path=path,
                                     **axis)
        with pytest.raises((KeyboardInterrupt, ReproError)):
            interrupted.run()

        header, folds = read_journal(path)
        assert header["format_version"] == CHECKPOINT_FORMAT_VERSION == 10
        completed_before = Counter(entry["cell"] for entry in folds)
        assert sum(completed_before.values()) == 5
        assert any(0 < count < budget_per_cell
                   for count in completed_before.values())
        # per-pipeline cells keep their token in the checkpoint cell keys,
        # so differently-compiled cells can never collide
        assert all("|pipe:" in key for key in completed_before)
        assert any(key.endswith("|pipe:O0") for key in completed_before)

        resumed = FoldCounter(config=config, n_workers=1,
                              checkpoint_path=path, **axis)
        result = resumed.run()
        assert sum(map(len, resumed.folds.values())) == \
            4 * budget_per_cell - 5  # only the missing iterations re-ran
        assert campaign_signature(result) == campaign_signature(reference)

    def test_v5_checkpoints_are_rejected_loudly(self, tmp_path):
        config = tiny_campaign_config(iterations=4, seed=3)
        path = tmp_path / "old.ckpt.json"
        path.write_text(json.dumps({"format_version": 5, "cells": {}}),
                        encoding="utf-8")
        with pytest.raises(ReproError, match="format_version 5"):
            run_parallel_campaign(config=config, n_workers=1,
                                  checkpoint_path=str(path))

    def test_fingerprint_rejects_differently_shaped_pipeline_matrix(
            self, tmp_path):
        config = _study_config(iterations=4)
        path = tmp_path / "axis.ckpt.json"
        run_parallel_campaign(config=config, n_workers=1, n_shards=2,
                              compiler_sets=[["graphrt"]],
                              pipelines=["O0", "O2"],
                              checkpoint_path=str(path))
        written = path.read_bytes()
        rerun = FoldCounter(config=config, n_workers=1, n_shards=2,
                            compiler_sets=[["graphrt"]],
                            pipelines=["O0"], checkpoint_path=str(path))
        # the fingerprint differs: an error, and the file left untouched
        with pytest.raises(ReproError, match="different campaign"):
            rerun.run()
        assert rerun.folds == {}
        assert path.read_bytes() == written

    def test_same_pipeline_axis_restores_fully(self, tmp_path):
        config = _study_config(iterations=4)
        path = str(tmp_path / "axis.ckpt.json")
        axis = dict(compiler_sets=[["graphrt"]], n_shards=2,
                    pipelines=["O0", "O2"])
        first = run_parallel_campaign(config=config, n_workers=1,
                                      checkpoint_path=path, **axis)
        again = FoldCounter(config=config, n_workers=1,
                            checkpoint_path=path, **axis)
        result = again.run()
        assert again.folds == {}
        assert campaign_signature(result) == campaign_signature(first)


class TestPipelineVennHelpers:
    def test_group_by_pipeline(self):
        result = CampaignResult()
        for shard, pipeline, bugs in [
            (0, "O2", {"shared-x"}),
            (1, "O2", set()),
            (0, "rand:5:0", {"shared-x", "order-only"}),
        ]:
            cell = CellOutcome(shard=shard, pipeline=pipeline, iterations=3,
                               seeded_bugs_found=set(bugs))
            result.cells[cell.key()] = cell
        sets = campaign_cell_sets(result, by="pipeline")
        assert sets == {"O2": {"shared-x"},
                        "rand:5:0": {"shared-x", "order-only"}}

    def test_cells_without_pipeline_group_as_default(self):
        result = CampaignResult()
        cell = CellOutcome(shard=0, iterations=1,
                           seeded_bugs_found={"bug-a"})
        result.cells[cell.key()] = cell
        assert campaign_cell_sets(result, by="pipeline") == \
            {"<default>": {"bug-a"}}

    def test_outcome_key_roundtrips_pipeline(self):
        cell = CellOutcome(shard=2, compilers=("graphrt",), opt_level=2,
                           oracle="difftest", pipeline="rand:5:0")
        assert cell.key() == "shard2|graphrt|O2|oracle:difftest|pipe:rand:5:0"
        assert cell.copy().key() == cell.key()
