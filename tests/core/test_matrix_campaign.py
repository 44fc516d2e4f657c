"""Tests for the matrix campaign engine (shard × compiler-set × opt-level).

The acceptance-critical scenario lives in
``TestInterruptedResume.test_killed_mid_cell_resumes_exactly``: a 2×2 matrix
campaign (two compiler subsets × two opt levels) is interrupted mid-cell,
resumed from its streamed checkpoint, completes exactly the remaining
iterations of every cell, and its merged result equals an uninterrupted run
with the same seeds.
"""

import json

import pytest

from repro.compilers.bugs import BugConfig
from repro.core.fuzzer import CampaignResult, FuzzerConfig
from repro.core.generator import GeneratorConfig
from repro.core.parallel import (
    MatrixCell,
    build_matrix,
    run_parallel_campaign,
)
from repro.errors import ReproError
from repro.experiments.venn import campaign_cell_sets, campaign_venn
from repro.testing import FoldCounter, InterruptAfter

SUBSETS = [["graphrt", "deepc"], ["turbo"]]
OPT_LEVELS = [0, 2]


def _config(iterations, seed=21, n_nodes=5):
    return FuzzerConfig(
        generator=GeneratorConfig(n_nodes=n_nodes),
        value_search_max_steps=8,
        max_iterations=iterations,
        bugs=BugConfig.all(),
        seed=seed,
    )


def _signature(result):
    """Order-independent content of a merged result, incl. cell provenance."""
    return (result.iterations,
            result.generated_models,
            result.generation_failures,
            result.numerically_valid_models,
            frozenset(result.seeded_bugs_found),
            frozenset(result.operator_instances),
            frozenset(report.dedup_key() for report in result.reports),
            frozenset(
                (key, cell.iterations, frozenset(cell.seeded_bugs_found),
                 frozenset(cell.report_keys))
                for key, cell in result.cells.items()))


class TestBuildMatrix:
    def test_flat_matrix_is_the_shard_list(self):
        tasks = build_matrix(FuzzerConfig(max_iterations=10), 4)
        assert len(tasks) == 4
        assert [task.cell for task in tasks] == \
            [MatrixCell(shard=i) for i in range(4)]
        assert [task.config.max_iterations for task in tasks] == [3, 3, 2, 2]

    def test_matrix_crosses_subsets_and_levels(self):
        tasks = build_matrix(FuzzerConfig(max_iterations=8), 2,
                             compiler_sets=SUBSETS, opt_levels=OPT_LEVELS)
        assert len(tasks) == 2 * 2 * 2
        keys = {task.cell.key for task in tasks}
        assert "shard0|deepc+graphrt|O0" in keys
        assert "shard1|turbo|O2" in keys

    def test_every_combo_shares_shard_seed_streams(self):
        tasks = build_matrix(FuzzerConfig(max_iterations=8, seed=3), 2,
                             compiler_sets=SUBSETS, opt_levels=OPT_LEVELS)
        by_shard = {}
        for task in tasks:
            by_shard.setdefault(task.cell.shard, set()).add(
                (task.config.seed, task.config.max_iterations))
        # every combination runs the identical shard config
        assert all(len(variants) == 1 for variants in by_shard.values())

    def test_unknown_compiler_rejected(self):
        with pytest.raises(KeyError, match="nosuch"):
            build_matrix(FuzzerConfig(), 1, compiler_sets=[["nosuch"]])

    def test_duplicate_combinations_are_deduped(self):
        # same subset under different orderings + a repeated level would
        # otherwise produce colliding cell keys in checkpoints/provenance
        tasks = build_matrix(FuzzerConfig(max_iterations=4), 2,
                             compiler_sets=[["graphrt", "deepc"],
                                            ["deepc", "graphrt"]],
                             opt_levels=[2, 2])
        keys = [task.cell.key for task in tasks]
        assert len(keys) == len(set(keys)) == 2

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            build_matrix(FuzzerConfig(), 1, compiler_sets=[[]])


@pytest.mark.campaign
class TestMatrixCampaign:
    def test_per_cell_budgets_and_provenance(self):
        result = run_parallel_campaign(
            config=_config(4), n_workers=2, n_shards=2,
            compiler_sets=SUBSETS, opt_levels=OPT_LEVELS)
        # 4 combos x full budget each
        assert result.iterations == 4 * 4
        assert len(result.cells) == 8
        assert all(cell.iterations == 2 for cell in result.cells.values())
        # O0 cells cannot trigger transformation-phase optimizer bugs
        by_opt = campaign_cell_sets(result, by="opt_level")
        assert set(by_opt) == {"O0", "O2"}
        from repro.compilers.bugs import bug_spec
        o0_only = {bug for bug in by_opt["O0"]
                   if bug_spec(bug).phase == "transformation"}
        assert not o0_only
        # the venn decomposition covers every found bug exactly once
        regions = campaign_venn(result, by="opt_level")
        assert sum(regions.values()) == len(by_opt["O0"] | by_opt["O2"])

    def test_full_subset_matrix_equals_flat_campaign(self):
        """A 1×1 matrix naming all three compilers reproduces the flat
        factory campaign exactly (same probe pool, same streams)."""
        config = _config(6, seed=9)
        flat = run_parallel_campaign(config=config, n_workers=2)
        matrix = run_parallel_campaign(
            config=config, n_workers=2, n_shards=2,
            compiler_sets=[["graphrt", "deepc", "turbo"]], opt_levels=[2])
        assert _signature(flat)[:7] == _signature(matrix)[:7]

    def test_adaptive_chunking_preserves_results(self):
        config = _config(6, seed=13)
        plain = run_parallel_campaign(
            config=config, n_workers=2, n_shards=2,
            compiler_sets=SUBSETS, opt_levels=[2])
        adaptive = run_parallel_campaign(
            config=config, n_workers=2, n_shards=2,
            compiler_sets=SUBSETS, opt_levels=[2],
            schedule="adaptive", chunk_iterations=1)
        assert _signature(plain) == _signature(adaptive)


@pytest.mark.campaign
class TestInterruptedResume:
    def test_killed_mid_cell_resumes_exactly(self, tmp_path):
        """The acceptance scenario: 2×2 matrix, killed mid-cell, resumed."""
        matrix = dict(compiler_sets=SUBSETS, opt_levels=OPT_LEVELS, n_shards=2)
        config = _config(6, seed=21)   # 3 iterations per cell, 8 cells
        budget_per_cell = 3

        reference = run_parallel_campaign(config=config, n_workers=2, **matrix)

        path = str(tmp_path / "matrix.ckpt.json")
        interrupted = InterruptAfter(
            interrupt_after=5, config=config, n_workers=1,
            checkpoint_path=path, **matrix)
        with pytest.raises((KeyboardInterrupt, ReproError)):
            interrupted.run()

        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        completed_before = {
            key: sum(end - start + 1 for start, end in entry["completed"])
            for key, entry in payload["cells"].items()
        }
        assert sum(completed_before.values()) == 5
        # ... and the interruption really was mid-cell, not on a boundary
        assert any(0 < count < budget_per_cell
                   for count in completed_before.values())

        resumed = FoldCounter(config=config, n_workers=2,
                              checkpoint_path=path, **matrix)
        result = resumed.run()

        # exactly the remaining iterations were executed, cell by cell
        expected_folds = {}
        for task in resumed._build_tasks():
            remaining = budget_per_cell - completed_before.get(task.cell.key, 0)
            if remaining:
                expected_folds[task.cell.key] = remaining
        assert {key: len(iterations) for key, iterations
                in resumed.folds.items()} == expected_folds

        # per-cell iteration counts are whole again
        assert {key: cell.iterations for key, cell in result.cells.items()} \
            == {task.cell.key: budget_per_cell
                for task in resumed._build_tasks()}

        # and the merged result equals the uninterrupted run
        assert _signature(result) == _signature(reference)

    def test_fully_checkpointed_campaign_runs_nothing(self, tmp_path):
        path = str(tmp_path / "matrix.ckpt.json")
        config = _config(4, seed=2)
        matrix = dict(compiler_sets=[["turbo"]], opt_levels=[2], n_shards=2)
        first = run_parallel_campaign(config=config, n_workers=2,
                                      checkpoint_path=path, **matrix)
        again = FoldCounter(config=config, n_workers=2,
                            checkpoint_path=path, **matrix)
        result = again.run()
        assert again.folds == {}
        assert _signature(result) == _signature(first)


class TestInProcessSingleWorker:
    def test_workers_one_never_spawns_processes(self, tmp_path, monkeypatch):
        from multiprocessing.process import BaseProcess

        def _no_processes(*args, **kwargs):
            raise AssertionError("--workers 1 must not spawn processes")

        monkeypatch.setattr(BaseProcess, "start", _no_processes)
        path = str(tmp_path / "solo.ckpt.json")
        result = run_parallel_campaign(config=_config(3, seed=4), n_workers=1,
                                       checkpoint_path=path)
        assert result.iterations == 3
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert all(entry["done"] for entry in payload["cells"].values())

    def test_workers_one_resumes_from_own_checkpoint(self, tmp_path):
        config = _config(4, seed=6)
        path = str(tmp_path / "solo.ckpt.json")
        interrupted = InterruptAfter(interrupt_after=2, config=config,
                                     n_workers=1, checkpoint_path=path)
        with pytest.raises((KeyboardInterrupt, ReproError)):
            interrupted.run()
        resumed = FoldCounter(config=config, n_workers=1,
                              checkpoint_path=path)
        result = resumed.run()
        assert sum(map(len, resumed.folds.values())) == 2
        assert result.iterations == 4


class TestCampaignVennHelpers:
    def _synthetic(self):
        from repro.core.fuzzer import CellOutcome

        result = CampaignResult()
        for shard, subset, opt, bugs in [
            (0, ("graphrt",), 2, {"graphrt-a", "shared-x"}),
            (1, ("graphrt",), 2, {"graphrt-b"}),
            (0, ("deepc",), 2, {"deepc-a", "shared-x"}),
            (0, ("deepc",), 0, set()),
        ]:
            cell = CellOutcome(shard=shard, compilers=subset, opt_level=opt,
                               iterations=5, seeded_bugs_found=set(bugs))
            result.cells[cell.key()] = cell
        return result

    def test_group_by_compiler_set(self):
        sets = campaign_cell_sets(self._synthetic(), by="compiler_set")
        assert sets == {"graphrt": {"graphrt-a", "graphrt-b", "shared-x"},
                        "deepc": {"deepc-a", "shared-x"}}

    def test_group_by_opt_level_and_regions(self):
        result = self._synthetic()
        sets = campaign_cell_sets(result, by="opt_level")
        assert set(sets) == {"O0", "O2"}
        regions = campaign_venn(result, by="compiler_set")
        assert regions[frozenset({"graphrt", "deepc"})] == 1  # shared-x

    def test_invalid_axis_rejected(self):
        with pytest.raises(ValueError):
            campaign_cell_sets(CampaignResult(), by="banana")
