"""The one-worker path: an inline transport behind the coordinator's drain.

``--workers 1`` spawns nothing: the coordinator pulls the one worker's
lease frames itself, through the same drain loop that serves process pools
and socket fleets.  These tests pin the lease plan — each cell whole, in
cell order, with requeued runs first and a resumed cell leased one
contiguous run at a time, except that a fleet of W live workers running
unlike cells gets leases of at most ``ceil(R / 2W)`` of the R iterations
left, most-unleased cell first — plus Ctrl-C stopping the run, a failing
lease reported like a one-worker pool's, and a coordinator-side failure
propagating unchanged with the run resuming from its checkpoint.  The
no-spawn check is
``test_workers_one_runs_in_process_with_checkpoint`` in
``tests/test_campaign_cli.py``.
"""

import pytest

import repro.core.parallel as parallel_module
from repro.compilers import base
from repro.compilers.graphrt.compiler import GraphRTCompiler
from repro.core.parallel import (ParallelCampaign, _CellState,
                                 run_parallel_campaign)
from repro.errors import ReproError
from repro.testing import campaign_signature, tiny_campaign_config

#: Four cells of six iterations: two compiler subsets x two shards.
MATRIX = dict(compiler_sets=[["graphrt", "deepc"], ["turbo"]], n_shards=2)


class _LeaseLog(ParallelCampaign):
    """Records ``(cell, start, stop)`` per lease handed out, and the live
    worker count each lease was sized for."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.leases = []
        self.sized_for = []

    def _next_lease(self, states, workers=1):
        lease = super()._next_lease(states, workers)
        if lease is not None:
            self.leases.append((*lease.cells, lease.start, lease.stop))
            self.sized_for.append(workers)
        return lease


def _ledger(campaign, completed=None):
    """The campaign's cell states with their ledgers seeded, as ``run``
    leaves them just before the drain; ``completed`` maps a cell index to
    the iterations a checkpoint restored for it."""
    states = [_CellState(task=task) for task in campaign._build_tasks()]
    for index, iterations in (completed or {}).items():
        states[index].completed = set(iterations)
    campaign._init_ledger(states)
    return states


def _all_leases(campaign, states, workers=1):
    leases = []
    while True:
        lease = campaign._next_lease(states, workers)
        if lease is None:
            return leases
        leases.append((*lease.cells, lease.start, lease.stop))


@pytest.mark.smoke
def test_inline_worker_leases_each_cell_whole_in_cell_order():
    campaign = _LeaseLog(
        config=tiny_campaign_config(iterations=12, seed=3), n_workers=1,
        trace_coverage=True, **MATRIX)
    result = campaign.run()
    assert campaign.leases == [(0, 1, 6), (1, 1, 6), (2, 1, 6), (3, 1, 6)]
    assert result.iterations == 24


def test_fleet_leases_shrink_as_the_campaign_drains():
    campaign = ParallelCampaign(
        config=tiny_campaign_config(iterations=12, seed=3), n_workers=3,
        **MATRIX)
    # 24 iterations over 3 live workers: each lease takes at most
    # ceil(R / 6) of the R iterations still unleased, from the cell with
    # the most of them (lowest index on ties).
    assert _all_leases(campaign, _ledger(campaign), workers=3) == [
        (0, 1, 4), (1, 1, 4), (2, 1, 3), (3, 1, 3),
        (2, 4, 5), (3, 4, 5), (0, 5, 5), (1, 5, 5),
        (0, 6, 6), (1, 6, 6), (2, 6, 6), (3, 6, 6)]


def test_shards_of_one_combination_are_leased_whole_to_a_fleet():
    campaign = ParallelCampaign(
        config=tiny_campaign_config(iterations=12, seed=3), n_workers=3,
        n_shards=3)
    # Cells that differ only in their shard cost alike: whole leases.
    assert _all_leases(campaign, _ledger(campaign), workers=3) == [
        (0, 1, 4), (1, 1, 4), (2, 1, 4)]


def test_requeued_runs_are_leased_whole_to_a_fleet():
    campaign = ParallelCampaign(
        config=tiny_campaign_config(iterations=12, seed=3), n_workers=3,
        **MATRIX)
    states = _ledger(campaign)
    first = campaign._next_lease(states)  # cell 0 whole, to one worker
    # That worker dies after folding iteration 1; the fleet has grown to 3.
    states[0].completed = {1}
    campaign._requeue_lease(states, first)
    # Recovery work keeps its run whole; the fresh leases after it are
    # capped by the iterations still unleased (ceil(18 / 6) = 3, then
    # ceil(15 / 6) = 3).
    assert _all_leases(campaign, states, workers=3)[:3] == [
        (0, 2, 6), (1, 1, 3), (2, 1, 3)]


def test_pool_sizes_leases_for_its_live_workers():
    campaign = _LeaseLog(
        config=tiny_campaign_config(iterations=12, seed=3), n_workers=2,
        **MATRIX)
    result = campaign.run()
    assert result.iterations == 24
    assert campaign.sized_for[0] == 2
    # Every iteration of every cell was leased exactly once.
    leased = sorted((cell, iteration) for cell, start, stop in campaign.leases
                    for iteration in range(start, stop + 1))
    assert leased == [(cell, iteration) for cell in range(4)
                      for iteration in range(1, 7)]
    assert len(campaign.leases) > 4


def test_requeued_runs_are_leased_before_fresh_cells():
    campaign = ParallelCampaign(
        config=tiny_campaign_config(iterations=12, seed=3), n_workers=1,
        **MATRIX)
    states = _ledger(campaign)
    first = campaign._next_lease(states)
    # The worker holding cell 0 dies after folding iterations 1, 2 and 4.
    states[0].completed = {1, 2, 4}
    campaign._requeue_lease(states, first)
    assert _all_leases(campaign, states) == [
        (0, 3, 3), (0, 5, 6), (1, 1, 6), (2, 1, 6), (3, 1, 6)]


def test_resumed_cell_is_leased_one_run_at_a_time():
    campaign = ParallelCampaign(
        config=tiny_campaign_config(iterations=12, seed=3), n_workers=1,
        **MATRIX)
    # As restored from a checkpoint: cell 1 is done, cell 2 has holes.
    states = _ledger(campaign, completed={1: range(1, 7), 2: {1, 2, 5}})
    assert states[1].done
    assert _all_leases(campaign, states) == [
        (0, 1, 6), (2, 3, 4), (2, 6, 6), (3, 1, 6)]


def test_failed_lease_retires_the_inline_worker(monkeypatch):
    calls = []

    class FailingCompiler(GraphRTCompiler):
        name = "failing"

        def compile_model(self, model):
            calls.append(model)
            raise ValueError("compile exploded")

    monkeypatch.setitem(base._COMPILER_REGISTRY, "failing", FailingCompiler)
    with pytest.raises(ReproError) as failure:
        run_parallel_campaign(tiny_campaign_config(iterations=4),
                              n_workers=1, n_shards=2,
                              compiler_sets=[["failing"]])
    # The failing cell is named; the worker retired after its error frame,
    # so the second cell never ran and is reported as unserved.
    assert "cell shard0|failing|O2: ValueError: compile exploded" \
        in str(failure.value)
    assert "cell shard1|failing|O2: no live worker left" \
        in str(failure.value)
    assert len(calls) == 1


def test_ctrl_c_stops_a_one_worker_run(monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    # The lease generator calls the module global at call time (the
    # benchmark harness relies on it) and turns only Exception into a
    # worker error, so Ctrl-C reaches the caller.
    monkeypatch.setattr(parallel_module, "single_iteration_result",
                        interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_parallel_campaign(tiny_campaign_config(iterations=2),
                              n_workers=1)


@pytest.mark.smoke
def test_kill_and_resume_keeps_findings_consistent(tmp_path, monkeypatch):
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
    # A coordinator-side failure propagates unchanged (it is not a
    # worker failure), as it does with a process pool.
    with pytest.raises(RuntimeError, match="simulated coordinator death"):
        ParallelCampaign(config=config, n_workers=1, n_shards=1,
                         checkpoint_path=str(path)).run()
    monkeypatch.setattr(ParallelCampaign, "_fold_iteration", original_fold)

    resumed = ParallelCampaign(config=config, n_workers=1, n_shards=1,
                               checkpoint_path=str(path)).run()
    assert campaign_signature(resumed) == campaign_signature(baseline)
