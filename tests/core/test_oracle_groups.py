"""Oracle groups: the matrix cells that differ only in their oracle.

A group is leased as one unit, and each of its iterations runs for every
cell of the lease in cell order; the cells judge one case, so they share
its export, its builds and each build's run on the case's inputs through
one :class:`~repro.core.difftest.JudgingMemo`.  These tests pin the
memo's exactness, the sharing (by counting exports and compiles), that
every oracle cell still finds exactly what its single-oracle campaign
finds, the group lease plan, and a pool worker dying mid group lease.
"""

import dataclasses
import os
import zlib

import numpy as np
import pytest

import repro.core.difftest as difftest_module
import repro.core.parallel as parallel_module
import repro.core.strategy as strategy_module
from repro.compilers.base import CompileOptions
from repro.compilers.bugs import BugConfig
from repro.compilers.deepc.compiler import DeepCCompiler
from repro.compilers.graphrt.compiler import GraphRTCompiler
from repro.compilers.turbo.compiler import TurboCompiler
from repro.core.difftest import (DifferentialTester, JudgingMemo,
                                 SharedJudging, case_memo, sharing)
from repro.core.fabric.transport import LocalTransport
from repro.core.parallel import (ParallelCampaign, _CellState,
                                 _matrix_worker, run_parallel_campaign)
from repro.core.strategy import GraphFuzzerStrategy
from repro.errors import ConversionError
from repro.testing import (build_mlp_model, campaign_signature,
                           tiny_campaign_config)

ORACLES = ["difftest", "perf", "gradcheck", "crash", "shape"]
COMPILERS = (DeepCCompiler, GraphRTCompiler, TurboCompiler)


def _graphfuzzer_config(iterations=6, seed=5):
    return tiny_campaign_config(iterations=iterations, seed=seed, n_nodes=6,
                                strategy="graphfuzzer")


class _PerCell(ParallelCampaign):
    """Keeps every cell's own findings: iterations, seeded bugs and each
    report's key, message and iteration."""

    def _provenanced_result(self, state):
        result = super()._provenanced_result(state)
        self.findings = getattr(self, "findings", {})
        self.findings[state.task.cell.key] = (
            result.iterations, sorted(result.seeded_bugs_found),
            sorted((report.dedup_key(), report.message, report.iteration)
                   for report in result.reports))
        return result


def _findings(config, oracles, **fields):
    campaign = _PerCell(config=config, oracles=oracles, **fields)
    campaign.result = campaign.run()
    return campaign.findings, campaign.result


@pytest.fixture
def calls(monkeypatch):
    """Counts ``export_model`` calls and each compiler's compiles."""
    counted = {"export": 0}
    export = difftest_module.export_model

    def counting_export(*args, **kwargs):
        counted["export"] += 1
        return export(*args, **kwargs)

    monkeypatch.setattr(difftest_module, "export_model", counting_export)
    for cls in COMPILERS:
        counted[cls.name] = 0

        def counting_compile(self, model, _original=cls.compile_model,
                             _name=cls.name):
            counted[_name] += 1
            return _original(self, model)

        monkeypatch.setattr(cls, "compile_model", counting_compile)
    return counted


class _OracleDependent(GraphFuzzerStrategy):
    """GraphFuzzer whose graphs depend on the cell's oracle, so the cells
    of one oracle group judge different cases."""

    def __init__(self, config):
        super().__init__(config)
        self._salt = zlib.crc32(config.oracle.encode("utf-8"))

    def generate(self, seed, iteration):
        return super().generate(seed ^ self._salt, iteration)


# --------------------------------------------------------------------------- #
# The memo
# --------------------------------------------------------------------------- #
def _case():
    model = build_mlp_model()
    return model, {model.inputs[0]: np.linspace(-1.0, 1.0, 16)
                   .reshape(2, 8).astype(np.float32)}


class TestJudgingMemo:
    def test_equal_cases_share_one_memo_inside_sharing(self):
        (model, inputs), (twin, twin_inputs) = _case(), _case()
        bugs = BugConfig.all()
        assert model is not twin
        with sharing(SharedJudging()):
            first = case_memo(model, inputs, bugs)
            assert case_memo(twin, twin_inputs, bugs) is first
            # A caller naming no inputs matches on the model alone.
            assert case_memo(twin, None, bugs) is first
        # Outside a sharing block every call gets a fresh memo.
        assert case_memo(model, inputs, bugs) is not \
            case_memo(model, inputs, bugs)

    @pytest.mark.parametrize("change", [
        "input-value", "input-negative-zero", "input-dtype", "weight-bit",
        "attr-type", "node-name", "bugs"])
    def test_any_difference_is_another_case(self, change):
        model, inputs = _case()
        other, other_inputs = _case()
        bugs = other_bugs = BugConfig.all()
        (name,) = model.inputs
        if change == "input-value":
            other_inputs[name][0, 0] += 1e-6
        elif change == "input-negative-zero":
            inputs[name][0, 1] = 0.0
            other_inputs[name][0, 1] = -0.0
        elif change == "input-dtype":
            other_inputs[name] = other_inputs[name].astype(np.float64)
        elif change == "weight-bit":
            name = next(iter(other.initializers))
            weights = other.initializers[name]
            weights.view(np.uint32).reshape(-1)[0] ^= 1
        elif change == "attr-type":
            node = next(node for node in other.nodes if node.op == "Softmax")
            node.attrs["axis"] = float(node.attrs["axis"])
        elif change == "node-name":
            other.nodes[0].name += "_"
        else:
            other_bugs = BugConfig.none()
        memo = JudgingMemo(model, inputs, bugs)
        assert memo.holds(model, inputs, bugs)
        assert not memo.holds(other, other_inputs, other_bugs)

    def test_a_build_compiles_and_runs_once(self, calls):
        model, inputs = _case()
        memo = JudgingMemo(model, inputs, BugConfig.none())
        compiler = GraphRTCompiler(CompileOptions(bugs=BugConfig.none()))
        run = memo.run(compiler)
        assert memo.run(GraphRTCompiler(CompileOptions(
            bugs=BugConfig.none()))) is run
        assert memo.build(compiler) is memo.build(compiler)
        assert calls == {"export": 1, "deepc": 0, "graphrt": 1, "turbo": 0}
        assert set(run.result()) == set(model.outputs)
        assert sum(run.kernel_calls.values()) > 0
        # The O0 reference is another build of the same export.
        memo.run(memo.reference(compiler, 0))
        assert calls == {"export": 1, "deepc": 0, "graphrt": 2, "turbo": 0}

    def test_a_compile_error_is_raised_again(self, monkeypatch):
        raised = []

        def failing(self, model):
            raised.append(model)
            raise ConversionError("cannot import")

        monkeypatch.setattr(TurboCompiler, "compile_model", failing)
        memo = JudgingMemo(*_case(), BugConfig.none())
        for _ in range(2):
            with pytest.raises(ConversionError, match="cannot import"):
                memo.run(TurboCompiler(CompileOptions(bugs=BugConfig.none())))
        assert len(raised) == 1

    def test_standalone_run_case_gets_a_fresh_memo_per_case(self, calls):
        tester = DifferentialTester(
            [cls(CompileOptions()) for cls in COMPILERS])
        model, inputs = _case()
        first = tester.run_case(model, inputs=inputs)
        second = tester.run_case(model, inputs=inputs)
        assert first.verdicts == second.verdicts
        assert calls["export"] == 2
        assert all(calls[cls.name] >= 2 for cls in COMPILERS)


# --------------------------------------------------------------------------- #
# The lease plan
# --------------------------------------------------------------------------- #
def _ledger(campaign, completed=None):
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
        leases.append((lease.cells, lease.start, lease.stop))


class TestGroupLeasePlan:
    def test_each_group_goes_out_whole(self):
        campaign = ParallelCampaign(config=_graphfuzzer_config(iterations=8),
                                    n_workers=1, n_shards=2,
                                    oracles=["difftest", "perf", "crash"])
        # Cells are ordered oracle-major: the groups are the shards.
        expected = [((0, 2, 4), 1, 4), ((1, 3, 5), 1, 4)]
        assert _all_leases(campaign, _ledger(campaign)) == expected
        assert _all_leases(campaign, _ledger(campaign), workers=2) == \
            expected

    def test_resumed_siblings_lease_only_what_each_misses(self):
        campaign = ParallelCampaign(config=_graphfuzzer_config(iterations=6),
                                    n_workers=1, n_shards=1,
                                    oracles=["difftest", "perf", "crash"])
        states = _ledger(campaign, completed={0: {1, 2}, 1: {1, 2}, 2: {1}})
        assert _all_leases(campaign, states) == [
            ((2,), 2, 2), ((0, 1, 2), 3, 6)]

    def test_a_lone_group_is_split_across_workers(self):
        campaign = ParallelCampaign(config=_graphfuzzer_config(iterations=12),
                                    n_workers=2, n_shards=1,
                                    oracles=["difftest", "crash"])
        # One group for two workers: pieces of ceil(R / 2W), R counting
        # each group iteration once.
        assert _all_leases(campaign, _ledger(campaign), workers=2) == [
            ((0, 1), 1, 3), ((0, 1), 4, 6), ((0, 1), 7, 8), ((0, 1), 9, 9),
            ((0, 1), 10, 10), ((0, 1), 11, 11), ((0, 1), 12, 12)]

    def test_requeued_iterations_go_out_with_their_siblings(self):
        campaign = ParallelCampaign(config=_graphfuzzer_config(iterations=6),
                                    n_workers=1, n_shards=1,
                                    oracles=["difftest", "crash"])
        states = _ledger(campaign)
        lease = campaign._next_lease(states)
        # The worker folded cell 0's iterations 1-2 and cell 1's 1, then
        # died.
        states[0].completed, states[1].completed = {1, 2}, {1}
        requeued = campaign._requeue_lease(states, lease)
        assert requeued == {0: frozenset(range(3, 7)),
                            1: frozenset(range(2, 7))}
        assert _all_leases(campaign, states) == [
            ((1,), 2, 2), ((0, 1), 3, 6)]


# --------------------------------------------------------------------------- #
# Campaigns
# --------------------------------------------------------------------------- #
@pytest.mark.campaign
class TestOracleGroupCampaigns:
    def test_sharing_is_pinned_by_counts(self, calls):
        iterations = 8
        run_parallel_campaign(_graphfuzzer_config(iterations=iterations),
                              n_workers=1, n_shards=1, oracles=ORACLES)
        # One export per iteration, not one per oracle; each compiler
        # builds the cell's build and the O0 reference once.
        assert calls["export"] <= iterations
        assert all(calls[cls.name] <= 2 * iterations for cls in COMPILERS)

    @pytest.mark.parametrize("strategy", ["graphfuzzer", "nnsmith"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_oracle_cell_finds_what_its_campaign_finds(self, strategy,
                                                            workers):
        config = tiny_campaign_config(iterations=8, seed=29, n_nodes=6,
                                      strategy=strategy)
        together, _result = _findings(config, ORACLES, n_workers=workers,
                                      n_shards=2)
        alone = {}
        for oracle in ORACLES:
            alone.update(_findings(config, [oracle], n_workers=workers,
                                   n_shards=2)[0])
        assert together == alone

    def test_siblings_with_different_cases_judge_apart(self, monkeypatch,
                                                       calls):
        monkeypatch.setitem(strategy_module._STRATEGY_REGISTRY,
                            "oracle-dependent", _OracleDependent)
        config = dataclasses.replace(_graphfuzzer_config(iterations=4),
                                     strategy="oracle-dependent")
        oracles = ["difftest", "perf", "crash"]
        together, result = _findings(config, oracles, n_workers=1,
                                     n_shards=1)
        # Every cell judged its own case: one export per judged case.
        assert calls["export"] == len(result.timeline) > 4
        alone = {}
        for oracle in oracles:
            alone.update(_findings(config, [oracle], n_workers=1,
                                   n_shards=1)[0])
        assert together == alone

    def test_traced_cells_judge_with_their_own_builds(self, calls):
        config = _graphfuzzer_config(iterations=4)
        untraced = run_parallel_campaign(config, n_workers=1, n_shards=1,
                                         oracles=ORACLES)
        shared = dict(calls)
        traced = run_parallel_campaign(config, n_workers=1, n_shards=1,
                                       oracles=ORACLES, trace_coverage=True)
        own = {name: calls[name] - shared[name] for name in calls}
        assert campaign_signature(traced) == campaign_signature(untraced)
        # Every cell exports and builds for itself.
        judged = len(traced.timeline)
        assert own["export"] == judged > 4
        assert all(own[cls.name] >= judged for cls in COMPILERS)
        for key, cell in traced.cells.items():
            files = {arc.split("|")[0] for arc in cell.coverage_arcs}
            assert {"graphrt/compiler.py", "deepc/converter.py"} <= files, key

    @pytest.mark.smoke
    def test_two_workers_share_a_lone_group(self, monkeypatch):
        config = _graphfuzzer_config(iterations=12)
        oracles = ["difftest", "crash"]
        reference = run_parallel_campaign(config, n_workers=1, n_shards=1,
                                          oracles=oracles)
        folded_by = []
        recv = LocalTransport.recv

        def spy(transport, timeout):
            item = recv(transport, timeout)
            if item is not None and item[1].kind == "iter":
                folded_by.append(item[0])
            return item

        monkeypatch.setattr(LocalTransport, "recv", spy)
        pooled = run_parallel_campaign(config, n_workers=2, n_shards=1,
                                       oracles=oracles)
        assert set(folded_by) == {"local-0", "local-1"}
        assert campaign_signature(pooled) == campaign_signature(reference)

    def test_worker_death_mid_group_lease_requeues_each_cell(
            self, monkeypatch):
        config = _graphfuzzer_config(iterations=12)
        oracles = ["difftest", "crash"]
        reference = run_parallel_campaign(config, n_workers=1, n_shards=1,
                                          oracles=oracles)
        monkeypatch.setattr(parallel_module, "_matrix_worker",
                            _dies_after_three_iterations)
        monkeypatch.setattr(parallel_module, "POLL_TIMEOUT", 0.1)
        events = []
        survived = run_parallel_campaign(
            config, n_workers=2, n_shards=1, oracles=oracles,
            fault_tolerance="requeue",
            on_event=lambda kind, key, payload: events.append(
                (kind, key, payload)))
        assert campaign_signature(survived) == campaign_signature(reference)
        # Worker 0's lease was iterations 1-3 of both cells; it streamed
        # (difftest, 1), (crash, 1) and (difftest, 2), then died.
        lost = {key.rsplit(":", 1)[1]: payload["requeued"]
                for kind, key, payload in events if kind == "worker_lost"}
        assert lost == {"difftest": [[3, 3]], "crash": [[2, 3]]}


class _DieAfter:
    """A result queue that kills its worker once ``frames`` iteration
    frames are flushed: mid-lease, without a ``chunk_done``."""

    def __init__(self, queue, frames):
        self.queue = queue
        self.frames = frames

    def put(self, payload):
        self.queue.put(payload)
        if payload["kind"] == "iter":
            self.frames -= 1
            if self.frames == 0:
                self.queue.close()
                self.queue.join_thread()
                os._exit(43)


def _dies_after_three_iterations(worker_index, tasks, task_queue,
                                 result_queue):
    if worker_index == 0:
        result_queue = _DieAfter(result_queue, 3)
    _matrix_worker(worker_index, tasks, task_queue, result_queue)
