"""Engine tests for the generator axis and pool modes.

The acceptance-critical scenarios: per-strategy serial-vs-parallel
equivalence, a generator-axis matrix campaign interrupted mid-cell whose
resume reproduces the uninterrupted result exactly, and opt-in per-subset
operator pools.
"""

import pytest

from repro.core.parallel import (
    ParallelCampaign,
    _cell_tester,
    build_matrix,
    run_parallel_campaign,
    run_sharded_serial,
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

GENERATORS = ["nnsmith", "graphfuzzer", "targeted"]


class TestGeneratorAxisMatrix:
    def test_build_matrix_crosses_generators(self):
        tasks = build_matrix(tiny_campaign_config(iterations=8), 2,
                             generators=GENERATORS)
        assert len(tasks) == len(GENERATORS) * 2
        keys = {task.cell.key for task in tasks}
        assert "shard0|deepc+graphrt+turbo|O2|targeted" in keys
        assert "shard1|deepc+graphrt+turbo|O2|nnsmith" in keys
        # cells carry their strategy in the shard config for the workers
        for task in tasks:
            assert task.config.strategy == task.cell.generator

    def test_absent_generator_axis_adds_no_key_component(self):
        tasks = build_matrix(tiny_campaign_config(iterations=4), 2)
        assert {task.cell.key for task in tasks} == \
            {"shard0|deepc+graphrt+turbo|O2", "shard1|deepc+graphrt+turbo|O2"}

    def test_unknown_generator_rejected(self):
        with pytest.raises(KeyError, match="csmith"):
            build_matrix(tiny_campaign_config(), 1, generators=["csmith"])

    def test_empty_generator_axis_rejected(self):
        with pytest.raises(ValueError):
            build_matrix(tiny_campaign_config(), 1, generators=[])


@pytest.mark.campaign
class TestPerStrategyEquivalence:
    @pytest.mark.parametrize("strategy", ["graphfuzzer", "lemon", "targeted"])
    def test_parallel_equals_sharded_serial(self, strategy):
        config = tiny_campaign_config(iterations=6, seed=11,
                                      strategy=strategy)
        serial = run_sharded_serial(config, 2)
        parallel = run_parallel_campaign(config=config, n_workers=2)
        assert campaign_signature(parallel)[:7] == \
            campaign_signature(serial)[:7]

    def test_crash_oracle_through_both_paths(self):
        config = tiny_campaign_config(iterations=6, seed=5,
                                      strategy="targeted", oracle="crash")
        serial = run_sharded_serial(config, 2)
        parallel = run_parallel_campaign(config=config, n_workers=2)
        assert campaign_signature(parallel)[:7] == \
            campaign_signature(serial)[:7]
        assert all(report.status == "crash" for report in parallel.reports)
        assert parallel.reports  # targeted motifs do crash the trio


@pytest.mark.campaign
class TestGeneratorAxisCampaign:
    def test_per_generator_budgets_and_provenance(self):
        config = tiny_campaign_config(iterations=4, seed=9)
        result = run_parallel_campaign(config=config, n_workers=2, n_shards=2,
                                       generators=GENERATORS)
        assert result.iterations == 4 * len(GENERATORS)
        assert len(result.cells) == 2 * len(GENERATORS)
        by_generator = campaign_cell_sets(result, by="generator")
        assert set(by_generator) == set(GENERATORS)

    def test_interrupted_generator_matrix_resumes_exactly(self, tmp_path):
        config = tiny_campaign_config(iterations=4, seed=21)
        matrix = dict(generators=GENERATORS, n_shards=2)
        reference = run_parallel_campaign(config=config, n_workers=2, **matrix)

        path = str(tmp_path / "gen-matrix.ckpt.json")
        interrupted = InterruptAfter(interrupt_after=5, config=config,
                                     n_workers=1, checkpoint_path=path,
                                     **matrix)
        with pytest.raises((KeyboardInterrupt, ReproError)):
            interrupted.run()

        _header, folds = read_journal(path)
        assert len(folds) == 5

        resumed = FoldCounter(config=config, n_workers=2,
                              checkpoint_path=path, **matrix)
        result = resumed.run()
        executed = sum(len(iters) for iters in resumed.folds.values())
        assert executed == 4 * len(GENERATORS) - 5
        assert campaign_signature(result) == campaign_signature(reference)


class TestPoolModes:
    def test_union_mode_bakes_one_shared_pool(self):
        campaign = ParallelCampaign(
            config=tiny_campaign_config(iterations=4),
            n_workers=2, compiler_sets=[["graphrt"], ["turbo"]])
        tasks = campaign._build_tasks()
        pools = {tuple(sorted(spec.op_kind
                              for spec in task.config.generator.op_pool))
                 for task in tasks}
        assert len(pools) == 1
        assert all(not task.config.probe_operator_support for task in tasks)

    def test_per_subset_mode_probes_in_the_cell(self):
        # deepc's kernel table is a strict subset of graphrt's, so its cells
        # must generate from a larger pool than the union would allow.
        campaign = ParallelCampaign(
            config=tiny_campaign_config(iterations=4),
            n_workers=2, compiler_sets=[["graphrt"], ["deepc"]],
            pool_mode="per-subset")
        tasks = campaign._build_tasks()
        # probing is deferred to the workers ...
        assert all(task.config.probe_operator_support for task in tasks)
        # ... where each cell derives its own subset's pool
        pools = {}
        for task in tasks:
            _tester, config, _strategy, _coverage = _cell_tester(task)
            pools[task.cell.compilers] = {spec.op_kind
                                          for spec in config.generator.op_pool}
        assert pools[("deepc",)] < pools[("graphrt",)]

    def test_pool_modes_fingerprint_separately(self):
        config = tiny_campaign_config(iterations=4)
        union = ParallelCampaign(config=config, n_workers=2,
                                 compiler_sets=[["turbo"]])
        subset = ParallelCampaign(config=config, n_workers=2,
                                  compiler_sets=[["turbo"]],
                                  pool_mode="per-subset")
        assert union._checkpoint_fingerprint(2) != \
            subset._checkpoint_fingerprint(2)

    def test_invalid_pool_mode_rejected(self):
        campaign = ParallelCampaign(config=tiny_campaign_config(),
                                    pool_mode="intersection")
        with pytest.raises(ValueError, match="pool_mode"):
            campaign._build_tasks()

    def test_baseline_only_matrix_skips_probing(self):
        # Mutation strategies ignore the operator pool; probing would be
        # pure cost, so union mode skips it for them.
        campaign = ParallelCampaign(
            config=tiny_campaign_config(strategy="graphfuzzer"),
            n_workers=2, compiler_sets=[["graphrt"], ["turbo"]],
            generators=["graphfuzzer", "lemon"])
        tasks = campaign._build_tasks()
        assert all(task.config.probe_operator_support for task in tasks)
