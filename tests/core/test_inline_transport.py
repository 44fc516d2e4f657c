"""The one-worker path: an inline transport behind the coordinator's drain.

``--workers 1`` spawns nothing: the coordinator pulls the one worker's
lease frames itself, through the same drain loop that serves process pools
and socket fleets.  These tests pin what that worker must keep from the
historical in-process executor — zero lease lookahead (each lease is
chosen after the previous one is folded) and Ctrl-C stopping the run —
that a failing lease is reported like a one-worker pool's, and that a
coordinator-side failure propagates unchanged and the run resumes from its
checkpoint.  The no-spawn check is
``test_workers_one_runs_in_process_with_checkpoint`` in
``tests/test_campaign_cli.py``.
"""

import pytest

import repro.core.parallel as parallel_module
from repro.core.parallel import ParallelCampaign, run_parallel_campaign
from repro.errors import ReproError
from repro.testing import campaign_signature, tiny_campaign_config


class _StepClock:
    """A monotonic clock advancing one millisecond per read: iteration
    durations, hence the coverage scheduler's novelty rates, become a pure
    function of the arcs each iteration finds."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        self.now += 0.001
        return self.now


class _LeaseLog(ParallelCampaign):
    """Records ``(folds so far, cell, start, stop)`` per lease chosen."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.leases = []

    def _next_lease(self, states):
        lease = super()._next_lease(states)
        if lease is not None:
            folded = sum(len(state.completed) for state in states)
            self.leases.append((folded, lease.cell_index, lease.start,
                                lease.stop))
        return lease


#: The coverage bandit's leases under ``_StepClock``.  Each lease is
#: chosen only after the previous one is folded, so the fold count before
#: every lease is the sum of the earlier leases' sizes.
EXPECTED_LEASES = [(0, 0, 1, 2), (2, 1, 1, 2), (4, 2, 1, 2), (6, 3, 1, 2),
                   (8, 0, 3, 6), (12, 2, 3, 4), (14, 2, 5, 5), (15, 2, 6, 6),
                   (16, 1, 3, 3), (17, 1, 4, 4), (18, 1, 5, 5), (19, 1, 6, 6),
                   (20, 3, 3, 3), (21, 3, 4, 4), (22, 3, 5, 5), (23, 3, 6, 6)]


@pytest.mark.smoke
def test_inline_worker_chooses_each_lease_after_the_last_fold(monkeypatch):
    monkeypatch.setattr(parallel_module, "time", _StepClock())
    campaign = _LeaseLog(
        config=tiny_campaign_config(iterations=12, seed=3), n_workers=1,
        compiler_sets=[["graphrt", "deepc"], ["turbo"]], n_shards=2,
        schedule="coverage")
    campaign.run()
    assert campaign.leases == EXPECTED_LEASES


def test_failed_lease_retires_the_inline_worker():
    calls = []

    def failing_factory(bugs):
        calls.append(bugs)
        raise ValueError("factory exploded")

    with pytest.raises(ReproError) as failure:
        run_parallel_campaign(tiny_campaign_config(iterations=4),
                              n_workers=1, n_shards=2,
                              compiler_factory=failing_factory)
    # The failing cell is named; the worker retired after its error frame,
    # so the second cell never ran and is reported as unserved.
    assert "cell shard0|<default>|O?: ValueError: factory exploded" \
        in str(failure.value)
    assert "cell shard1|<default>|O?: no live worker left" \
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
