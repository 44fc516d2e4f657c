"""Transport-equivalence tests for the distributed campaign fabric.

The fabric's core guarantee: a campaign's findings are a pure function of
``(config, iteration)``, so the *same* seeded campaign must produce
bit-identical results whether it runs in-process, on a LocalTransport
process pool, or across a SocketTransport worker fleet — including through
worker death (requeue), and when a checkpoint written under one transport
is resumed under another.
"""

import json
import multiprocessing
import socket
import threading
import time

import pytest

import repro.core.parallel as parallel_module
from repro.core.fabric.service import (
    fabric_main,
    query_status,
    run_fabric_worker,
)
from repro.core.fabric.protocol import Hello, IterationResult
from repro.core.fabric.transport import SocketTransport, read_frame, send_frame
from repro.core.parallel import ParallelCampaign, run_parallel_campaign
from repro.errors import ReproError
from repro.testing import (
    InterruptAfter,
    campaign_signature,
    checkpoint_signature,
    tiny_campaign_config,
)


def _silent(_message):
    """Worker log sink: fleet chatter stays out of pytest output."""


def _run_socket_campaign(config, *, n_workers=2, die_after=None,
                         **campaign_kwargs):
    """Run one campaign over a real localhost socket fleet.

    The transport is pre-started (the ``serve`` pattern: bind first so
    workers can join before the campaign plans leases), then ``n_workers``
    forked worker processes connect and the coordinator drains the matrix
    through them.  ``die_after`` arms worker ``w0`` with the
    die-after-N-iterations fault-injection knob.  Returns ``(campaign,
    result_or_error)`` — the error path is used by the fail-mode tests.
    """
    transport = SocketTransport(host="127.0.0.1", port=0)
    transport.start([])
    context = multiprocessing.get_context("fork")
    workers = []
    for index in range(n_workers):
        kwargs = {"host": "127.0.0.1", "port": transport.port,
                  "name": f"w{index}", "log": _silent}
        if die_after is not None and index == 0:
            kwargs["die_after_iterations"] = die_after
        workers.append(context.Process(target=run_fabric_worker,
                                       kwargs=kwargs, daemon=True))
    for process in workers:
        process.start()
    campaign = ParallelCampaign(config=config, n_workers=n_workers,
                                transport=transport, **campaign_kwargs)
    error = None
    result = None
    try:
        try:
            result = campaign.run()
        except ReproError as exc:
            error = exc
    finally:
        for process in workers:
            process.join(timeout=20)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
    return campaign, (result if error is None else error)


def _start_worker(port, name, **kwargs):
    """Fork one socket worker that joins the coordinator on ``port``."""
    process = multiprocessing.get_context("fork").Process(
        target=run_fabric_worker,
        kwargs={"host": "127.0.0.1", "port": port, "name": name,
                "log": _silent, **kwargs},
        daemon=True)
    process.start()
    return process


def _until(predicate):
    while not predicate():
        time.sleep(0.05)


@pytest.fixture
def fast_death_detection(monkeypatch):
    """Shrink the coordinator's silent-death poll cadence for tests."""
    monkeypatch.setattr(parallel_module, "POLL_TIMEOUT", 0.1)


# --------------------------------------------------------------------------- #
# The headline equivalence: in-process == local pool == socket fleet
# --------------------------------------------------------------------------- #
@pytest.mark.campaign
class TestTransportEquivalence:
    def test_socket_fleet_matches_inprocess_and_local_pool(self, tmp_path):
        config = tiny_campaign_config(iterations=6, seed=13)
        ck = {name: str(tmp_path / f"{name}.ckpt.json")
              for name in ("inprocess", "local", "socket")}

        inprocess = run_parallel_campaign(config=config, n_workers=1,
                                          n_shards=2,
                                          checkpoint_path=ck["inprocess"])
        local = run_parallel_campaign(config=config, n_workers=2,
                                      n_shards=2,
                                      checkpoint_path=ck["local"])
        _campaign, socketed = _run_socket_campaign(
            config, n_workers=2, n_shards=2,
            checkpoint_path=ck["socket"])

        assert not isinstance(socketed, ReproError), socketed
        assert campaign_signature(local) == campaign_signature(inprocess)
        assert campaign_signature(socketed) == campaign_signature(inprocess)
        # The persisted campaign state is transport-independent too, down
        # to the clock-normalized checkpoint bytes.
        assert (checkpoint_signature(ck["local"])
                == checkpoint_signature(ck["inprocess"]))
        assert (checkpoint_signature(ck["socket"])
                == checkpoint_signature(ck["inprocess"]))

    def test_oracle_axis_campaign_matches_across_transports(self):
        # Each oracle group goes out as one lease whose cells share their
        # judging; the per-cell findings must not depend on the wire.
        config = tiny_campaign_config(iterations=6, seed=13)
        axis = dict(n_shards=2, oracles=["difftest", "perf", "crash"])
        inprocess = run_parallel_campaign(config=config, n_workers=1, **axis)
        local = run_parallel_campaign(config=config, n_workers=2, **axis)
        _campaign, socketed = _run_socket_campaign(config, n_workers=2,
                                                   **axis)
        assert not isinstance(socketed, ReproError), socketed
        assert len(inprocess.cells) == 6
        assert campaign_signature(local) == campaign_signature(inprocess)
        assert campaign_signature(socketed) == campaign_signature(inprocess)

    def test_tracing_leaves_socket_fleet_findings_unchanged(self):
        config = tiny_campaign_config(iterations=6, seed=13)
        _campaign, untraced = _run_socket_campaign(config, n_workers=2,
                                                   n_shards=2)
        _campaign, traced = _run_socket_campaign(config, n_workers=2,
                                                 n_shards=2,
                                                 trace_coverage=True)
        assert not isinstance(untraced, ReproError), untraced
        assert not isinstance(traced, ReproError), traced
        assert campaign_signature(traced) == campaign_signature(untraced)
        assert traced.coverage_arcs and not untraced.coverage_arcs

    def test_worker_death_requeue_preserves_findings(
            self, fast_death_detection, monkeypatch):
        config = tiny_campaign_config(iterations=6, seed=13)
        baseline = run_parallel_campaign(config=config, n_workers=1,
                                         n_shards=2)

        leases = []
        send = SocketTransport.send

        def spy(transport, worker_id, message):
            if message.kind == "lease":
                leases.append((worker_id, message))
            send(transport, worker_id, message)

        monkeypatch.setattr(SocketTransport, "send", spy)
        events = []
        _campaign, survived = _run_socket_campaign(
            config, n_workers=2, n_shards=2, die_after=2,
            fault_tolerance="requeue",
            on_event=lambda kind, key, payload: events.append(
                (kind, payload)))
        assert not isinstance(survived, ReproError), survived
        assert campaign_signature(survived) == campaign_signature(baseline)
        lost = [payload for kind, payload in events
                if kind == "worker_lost"]
        assert [payload["worker"] for payload in lost] == ["w0"]
        # w0 streamed its lease's first two iterations, then died: only the
        # rest of that lease was requeued, as sorted [first, last] runs.
        (lease,) = [lease for worker, lease in leases if worker == "w0"]
        assert lease.stop - lease.start >= 2
        assert lost[0]["requeued"] == [[lease.start + 2, lease.stop]]

    def test_requeued_chunk_keeps_cell_clock_monotone(
            self, fast_death_detection):
        # Satellite regression: a requeued chunk must continue the cell's
        # *one* compute clock — never reset it, never double-count the
        # iterations folded before the worker died.
        config = tiny_campaign_config(iterations=8, seed=13)
        _campaign, result = _run_socket_campaign(
            config, n_workers=2, n_shards=2, die_after=2,
            fault_tolerance="requeue", trace_coverage=True)
        assert not isinstance(result, ReproError), result
        by_cell = {}
        for sample in result.coverage_timeline:
            by_cell.setdefault(sample["cell"], []).append(sample)
        assert by_cell
        for key, samples in by_cell.items():
            folds = [sample["iteration"] for sample in samples]
            # Each iteration folded exactly once, in order: the fold
            # counter walks 1..N with no repeats (a double-counted replay
            # would repeat a value; a reset clock would jump backwards).
            assert folds == [float(i) for i in range(1, len(folds) + 1)], key
            clocks = [sample["cell_elapsed"] for sample in samples]
            assert all(later >= earlier for earlier, later
                       in zip(clocks, clocks[1:])), key
            outcome = result.cells[key]
            assert len(folds) == outcome.iterations


# --------------------------------------------------------------------------- #
# Cross-transport checkpoint resume (fingerprint is transport-agnostic)
# --------------------------------------------------------------------------- #
@pytest.mark.campaign
class TestCrossTransportResume:
    def test_socket_partial_resumes_in_process(self, tmp_path,
                                               fast_death_detection):
        config = tiny_campaign_config(iterations=6, seed=13)
        baseline = run_parallel_campaign(config=config, n_workers=1,
                                         n_shards=2)
        path = str(tmp_path / "crossed.ckpt.json")

        # fail-mode fleet: w0's death mid-lease fails its cell loudly, but
        # every fold persisted before the failure stays in the checkpoint.
        _campaign, error = _run_socket_campaign(
            config, n_workers=2, n_shards=2, die_after=2,
            fault_tolerance="fail", checkpoint_path=path)
        assert isinstance(error, ReproError)
        with open(path, encoding="utf-8") as handle:
            partial = json.load(handle)
        assert not all(entry["done"] for entry in partial["cells"].values())

        resumed = run_parallel_campaign(config=config, n_workers=1,
                                        n_shards=2,
                                        checkpoint_path=path)
        assert campaign_signature(resumed) == campaign_signature(baseline)
        with open(path, encoding="utf-8") as handle:
            completed = json.load(handle)
        assert all(entry["done"] for entry in completed["cells"].values())

    def test_local_partial_resumes_under_socket_fleet(self, tmp_path):
        config = tiny_campaign_config(iterations=6, seed=13)
        baseline = run_parallel_campaign(config=config, n_workers=1,
                                         n_shards=2)
        path = str(tmp_path / "crossed.ckpt.json")

        # Kill the in-process run at its fourth fold: the first cell's
        # three folds and one of the second's are checkpointed.
        with pytest.raises(KeyboardInterrupt):
            InterruptAfter(4, config=config, n_workers=1, n_shards=2,
                           checkpoint_path=path).run()
        with open(path, encoding="utf-8") as handle:
            partial = json.load(handle)
        assert partial["cells"], "interruption left no progress behind"
        assert not all(entry.get("done")
                       for entry in partial["cells"].values()) \
            or len(partial["cells"]) < 2

        _campaign, resumed = _run_socket_campaign(
            config, n_workers=2, n_shards=2, checkpoint_path=path)
        assert not isinstance(resumed, ReproError), resumed
        assert campaign_signature(resumed) == campaign_signature(baseline)


# --------------------------------------------------------------------------- #
# Worker identity: rejoins, taken names, death while others stream
# --------------------------------------------------------------------------- #
@pytest.mark.campaign
class TestWorkerIdentity:
    def _rejoin(self, early):
        """A one-worker fleet whose worker dies after 2 of 12 iterations
        and rejoins under its ``--name``: before the coordinator declares
        it dead, or after.  Checks the findings against the in-process
        run and returns the order of joins and losses."""
        config = tiny_campaign_config(iterations=12, seed=13)
        baseline = run_parallel_campaign(config=config, n_workers=1,
                                         n_shards=1)
        transport = SocketTransport(host="127.0.0.1", port=0)
        transport.start([])
        events = []
        lost = threading.Event()

        def on_event(kind, _key, payload):
            if kind in ("worker_joined", "worker_lost"):
                events.append((kind, payload["worker"]))
            if kind == "worker_lost":
                lost.set()

        campaign = ParallelCampaign(
            config=config, n_workers=1, n_shards=1, transport=transport,
            fault_tolerance="requeue", on_event=on_event)
        workers = [_start_worker(transport.port, "w0",
                                 die_after_iterations=2)]
        outcome = {}
        runner = threading.Thread(
            target=lambda: outcome.update(result=campaign.run()), daemon=True)
        runner.start()
        try:
            if early:
                workers[0].join(timeout=60)
            else:
                assert lost.wait(60)
            workers.append(_start_worker(transport.port, "w0"))
            runner.join(60)
            assert not runner.is_alive(), "campaign still running after 60 s"
        finally:
            transport.stop()
            for process in workers:
                process.join(timeout=20)
                if process.is_alive():
                    process.terminate()
        assert campaign_signature(outcome["result"]) == \
            campaign_signature(baseline)
        return events

    def test_worker_rejoining_before_it_is_declared_dead(self):
        # The rejoin is a new worker, so the dead one still goes dead and
        # its lease moves to the rejoin.
        assert self._rejoin(early=True) == [
            ("worker_joined", "w0"), ("worker_joined", "w0~1"),
            ("worker_lost", "w0")]

    def test_worker_rejoining_after_it_is_declared_dead(
            self, fast_death_detection):
        # A dead worker's id is retired, not excluded: the requeued lease
        # goes to whichever worker is idle, the rejoin included.
        assert self._rejoin(early=False) == [
            ("worker_joined", "w0"), ("worker_lost", "w0"),
            ("worker_joined", "w0~1")]

    def test_second_live_worker_under_a_taken_name(self, within):
        config = tiny_campaign_config(iterations=8, seed=13)
        baseline = run_parallel_campaign(config=config, n_workers=1,
                                         n_shards=2)
        transport = SocketTransport(host="127.0.0.1", port=0)
        transport.start([])
        workers = [_start_worker(transport.port, "w0")]
        try:
            within(30, lambda: _until(
                lambda: transport.live_worker_count() == 1))
            workers.append(_start_worker(transport.port, "w0"))
            within(30, lambda: _until(
                lambda: transport.live_worker_count() == 2))
            assert query_status("127.0.0.1", transport.port,
                                timeout=10) == {}
            campaign = ParallelCampaign(config=config, n_workers=2,
                                        n_shards=2, transport=transport)
            result = within(60, campaign.run)
        finally:
            transport.stop()
            for process in workers:
                process.join(timeout=20)
                if process.is_alive():
                    process.terminate()
        assert campaign_signature(result) == campaign_signature(baseline)
        assert set(campaign.last_status["workers"]) == {"w0", "w0~1"}

    def test_dead_worker_is_released_while_another_streams(
            self, fast_death_detection):
        # w0 dies two iterations in; w1 streams 200 iterations of its own
        # cell.  Liveness is checked on every pass, so w0's lease is
        # released while w1 streams, not after its cell is done.
        config = tiny_campaign_config(iterations=400, seed=13)
        events = []
        _campaign, result = _run_socket_campaign(
            config, n_workers=2, n_shards=2, die_after=2,
            fault_tolerance="requeue",
            on_event=lambda kind, _key, _payload: events.append(kind))
        assert not isinstance(result, ReproError), result
        assert result.iterations == 400
        assert [kind for kind in events
                if kind in ("worker_lost", "cell_done")] == [
            "worker_lost", "cell_done", "cell_done"]


# --------------------------------------------------------------------------- #
# Status streaming + fabric CLI plumbing
# --------------------------------------------------------------------------- #
@pytest.mark.campaign
class TestStatusStreaming:
    def test_snapshot_reports_campaign_state(self):
        config = tiny_campaign_config(iterations=4, seed=13)
        campaign = ParallelCampaign(config=config, n_workers=1)
        result = campaign.run()
        snapshot = campaign.last_status
        from repro.core.fabric.protocol import PROTOCOL_VERSION

        assert snapshot["protocol"] == PROTOCOL_VERSION
        assert snapshot["iterations"] == result.iterations
        assert snapshot["findings"] == len(result.reports)
        assert set(snapshot["cells"]) == set(result.cells)
        assert all(entry["done"] for entry in snapshot["cells"].values())
        assert "lease_latency" in snapshot

    def test_socket_snapshot_includes_worker_roster_and_latency(self):
        config = tiny_campaign_config(iterations=4, seed=13)
        campaign, result = _run_socket_campaign(config, n_workers=2)
        assert not isinstance(result, ReproError), result
        snapshot = campaign.last_status
        assert set(snapshot["workers"]) == {"w0", "w1"}
        assert snapshot["lease_latency"]["claims"] > 0
        assert snapshot["lease_latency"]["mean_seconds"] is not None


class TestStatusEndpoint:
    def test_query_status_round_trips_snapshot(self):
        transport = SocketTransport(host="127.0.0.1", port=0)
        transport.start([])
        try:
            snapshot = {"iterations": 7, "findings": 2, "cells": {}}
            transport.publish_status(snapshot)
            assert query_status("127.0.0.1", transport.port) == snapshot
        finally:
            transport.stop()

    def test_status_subcommand_prints_snapshot(self, capsys):
        transport = SocketTransport(host="127.0.0.1", port=0)
        transport.start([])
        try:
            transport.publish_status({"findings": 5})
            code = fabric_main(
                ["status", "--connect", f"127.0.0.1:{transport.port}"])
        finally:
            transport.stop()
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"findings": 5}

    def test_unknown_subcommand_fails_loudly(self, capsys):
        assert fabric_main(["teleport"]) == 2
        assert "unknown fabric subcommand" in capsys.readouterr().err

    def test_campaign_main_dispatches_fabric_subcommands(self, capsys):
        from repro.campaign import main

        transport = SocketTransport(host="127.0.0.1", port=0)
        transport.start([])
        try:
            transport.publish_status({"findings": 1})
            code = main(["status", "--connect",
                         f"127.0.0.1:{transport.port}"])
        finally:
            transport.stop()
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"findings": 1}


def test_service_reads_frames_longer_than_asyncio_default_limit():
    # A traced cell's first iteration frame carries every arc it covered
    # (33 KB on a CLI-default campaign); asyncio's default line limit is
    # 64 KiB, past which the connection would be dropped.
    arcs = [f"graphrt/passes/fold.py|{line}|{line + 1}"
            for line in range(4000)]
    transport = SocketTransport(host="127.0.0.1", port=0)
    transport.start([])
    try:
        with socket.create_connection(("127.0.0.1", transport.port),
                                      timeout=10) as sock:
            rfile = sock.makefile("r", encoding="utf-8")
            wfile = sock.makefile("w", encoding="utf-8")
            send_frame(wfile, Hello(worker="w0"))
            assert read_frame(rfile).kind == "welcome"
            send_frame(wfile, IterationResult(
                worker="w0", iteration=1, payload={"coverage_arcs": arcs}))
            received = [transport.recv(timeout=10) for _ in range(2)]
    finally:
        transport.stop()
    assert len(json.dumps(arcs)) > 1 << 16
    assert [item[1].kind for item in received if item] == ["hello", "iter"]
    assert received[1][1].payload["coverage_arcs"] == arcs
