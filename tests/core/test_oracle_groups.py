"""Oracle groups: the matrix cells that differ only in their oracle.

A group is leased as one unit, and each of its iterations runs for every
cell of the lease in cell order.  The group makes each case once: every
cell calls the first cell's strategy, which answers the repeat with the
same model, value search or the random input draw runs once, and the cells
judge those same objects, sharing the case's export, its builds and each
build's run on its inputs through one
:class:`~repro.core.difftest.JudgingMemo`.  These tests pin the memo's
identity matching, the sharing (by counting generations, searches,
exports and compiles, for a strategy written outside the package too),
that a failed input draw drops the case for every cell, that judging
leaves the shared case unchanged, that every oracle cell still finds
exactly what its single-oracle campaign finds, that a cell's reports do
not depend on fold order, the group lease plan, and a pool worker dying
mid group lease.
"""

import os
from collections import Counter

import numpy as np
import pytest

import repro.core.difftest as difftest_module
import repro.core.fuzzer as fuzzer_module
import repro.core.generator as generator_module
import repro.core.parallel as parallel_module
import repro.core.strategy as strategy_module
from repro.baselines.graphfuzzer import GraphFuzzerGenerator
from repro.compilers.base import CompileOptions
from repro.compilers.bugs import BugConfig
from repro.compilers.deepc.compiler import DeepCCompiler
from repro.compilers.graphrt.compiler import GraphRTCompiler
from repro.compilers.turbo.compiler import TurboCompiler
from repro.core.difftest import (DifferentialTester, JudgingMemo,
                                 SharedJudging, case_memo, sharing)
from repro.core.fabric.protocol import Lease
from repro.core.fabric.transport import LocalTransport
from repro.core.fuzzer import BugReport, CampaignResult
from repro.core.parallel import (ParallelCampaign, _CellState, _cell_tester,
                                 _matrix_worker, campaign_result_from_dict,
                                 campaign_result_to_dict, lease_frames,
                                 run_parallel_campaign)
from repro.core.strategy import (GenerationStrategy, GraphFuzzerStrategy,
                                 register_strategy, wrap_model)
from repro.errors import ConversionError, GraphError
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


class _Stacks(GenerationStrategy):
    """A strategy written outside the package, like
    ``examples/custom_strategy.py``'s: random inputs, no value search."""

    name = "stacks-test"
    bodies = 0

    def __init__(self, config):
        del config

    def generate(self, seed, iteration):
        _Stacks.bodies += 1
        return wrap_model(build_mlp_model(seed % 1000))


@pytest.fixture
def stacks():
    """Registers :class:`_Stacks` for one test."""
    register_strategy(_Stacks.name, _Stacks)
    _Stacks.bodies = 0
    yield _Stacks
    strategy_module._STRATEGY_REGISTRY.pop(_Stacks.name, None)


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


def _group_runtimes(config, oracles=ORACLES):
    """The cell tasks of a one-shard oracle-axis campaign and each cell's
    built runtime, as a worker holds them."""
    campaign = ParallelCampaign(config=config, n_workers=1, n_shards=1,
                                oracles=oracles)
    tasks = campaign._build_tasks()
    return tasks, {index: _cell_tester(task)
                   for index, task in enumerate(tasks)}


def _record_judged(runtimes):
    """Make every cell's oracle record ``(cell, model, inputs)`` and the
    case's bytes at each ``run_case`` call, in call order."""
    judged = []
    for index, (tester, _config, _strategy, _coverage) in runtimes.items():
        def recording(model, inputs=None, numerically_valid=None, rng=None,
                      _index=index, _run_case=tester.run_case):
            judged.append((_index, model, inputs, _case_bytes(model, inputs)))
            return _run_case(model, inputs=inputs,
                             numerically_valid=numerically_valid, rng=rng)

        tester.run_case = recording
    return judged


def _case_bytes(model, inputs):
    arrays = {**{("input", name): array for name, array in inputs.items()},
              **{("weight", name): array
                 for name, array in model.initializers.items()}}
    return {key: (array.dtype.str, array.shape, array.tobytes())
            for key, array in arrays.items()}


# --------------------------------------------------------------------------- #
# The memo
# --------------------------------------------------------------------------- #
def _case():
    model = build_mlp_model()
    return model, {model.inputs[0]: np.linspace(-1.0, 1.0, 16)
                   .reshape(2, 8).astype(np.float32)}


class TestJudgingMemo:
    def test_the_same_case_shares_one_memo_inside_sharing(self):
        (model, inputs), (twin, twin_inputs) = _case(), _case()
        bugs = BugConfig.all()
        with sharing(SharedJudging()):
            first = case_memo(model, inputs, bugs)
            assert case_memo(model, inputs, bugs) is first
            # A caller naming no inputs matches on the model alone.
            assert case_memo(model, None, bugs) is first
            # An equal copy is another case, with a memo of its own that
            # is shared from then on.
            copy = case_memo(twin, twin_inputs, bugs)
            assert copy is not first
            assert case_memo(twin, twin_inputs, bugs) is copy
        # Outside a sharing block every call gets a fresh memo.
        assert case_memo(model, inputs, bugs) is not \
            case_memo(model, inputs, bugs)

    @pytest.mark.parametrize("change", ["bugs", "model-copy", "inputs-copy"])
    def test_any_difference_is_another_case(self, change):
        model, inputs = _case()
        bugs = BugConfig.all()
        other, other_inputs, other_bugs = model, inputs, bugs
        if change == "bugs":
            other_bugs = BugConfig.none()
        elif change == "model-copy":
            other = model.clone()
        else:
            other_inputs = dict(inputs)
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
# Report folds
# --------------------------------------------------------------------------- #
class TestReportFolds:
    """A cell keeps, per dedup key, the report of its lowest iteration, in
    iteration order, whatever order its iterations fold in."""

    @staticmethod
    def _campaign(**fields):
        campaign = ParallelCampaign(config=_graphfuzzer_config(iterations=4),
                                    n_workers=1, n_shards=1, **fields)
        campaign._run_started = 0.0
        campaign._journal = None
        return campaign

    @staticmethod
    def _fold(campaign, states, iteration, *messages):
        # Crashes key on their message's first line.
        partial = CampaignResult(iterations=1, reports=[
            BugReport("graphrt", "crash", "execution",
                      f"{message}\nseen at iteration {iteration}", [],
                      iteration) for message in messages])
        campaign._fold_iteration(states, 0, iteration,
                                 campaign_result_to_dict(partial), 0.0)

    @staticmethod
    def _reports(states):
        return [(report.iteration, report.message.split("\n")[0])
                for report in states[0].result.reports]

    def test_the_lowest_iteration_wins_in_any_fold_order(self):
        campaign = self._campaign()
        states = [_CellState(task=task) for task in campaign._build_tasks()]
        self._fold(campaign, states, 4, "late")
        self._fold(campaign, states, 3, "boom", "late")
        self._fold(campaign, states, 1, "other")
        self._fold(campaign, states, 2, "boom")
        assert self._reports(states) == [(1, "other"), (2, "boom"),
                                         (3, "late")]
        assert states[0].result.reports[1].message.endswith("iteration 2")

    def test_a_resumed_cell_keeps_the_lowest_iteration(self, tmp_path):
        # The second run replays iteration 3's report from the journal,
        # then folds iterations 2 and 4 live.
        path = str(tmp_path / "campaign.jsonl")
        for iterations in ([3], [2, 4]):
            campaign = self._campaign(checkpoint_path=path)
            states = [_CellState(task=task)
                      for task in campaign._build_tasks()]
            campaign._open_journal(states)
            for iteration in iterations:
                self._fold(campaign, states, iteration, "boom")
            campaign._journal.close()
        assert self._reports(states) == [(2, "boom")]


# --------------------------------------------------------------------------- #
# Campaigns
# --------------------------------------------------------------------------- #
@pytest.mark.campaign
class TestOracleGroupCampaigns:
    @pytest.mark.parametrize("strategy",
                             ["graphfuzzer", "nnsmith", _Stacks.name])
    def test_sharing_is_pinned_by_counts(self, calls, monkeypatch, stacks,
                                         strategy):
        made = Counter()

        def counting(name, module, attribute):
            original = getattr(module, attribute)

            def counted(*args, **kwargs):
                made[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, attribute, counted)

        counting("generate", GraphFuzzerGenerator, "next_case")
        counting("generate", generator_module, "generate_model")
        counting("search", fuzzer_module, "search_values")
        counting("draw", fuzzer_module, "random_inputs")
        iterations = 8
        config = tiny_campaign_config(iterations=iterations, seed=5,
                                      n_nodes=6, strategy=strategy)
        result = run_parallel_campaign(config, n_workers=1, n_shards=1,
                                       oracles=ORACLES)
        assert result.iterations == len(ORACLES) * iterations
        # One generation and one value search (or input draw) per
        # iteration, not one per oracle.
        assert made["generate"] + stacks.bodies == iterations
        if strategy == "nnsmith":
            assert made["search"] == iterations
            assert made["draw"] <= iterations
        else:
            assert (made["search"], made["draw"]) == (0, iterations)
        # One export per iteration; each compiler builds the cell's build
        # and the O0 reference once.
        assert calls["export"] <= iterations
        assert all(calls[cls.name] <= 2 * iterations for cls in COMPILERS)

    @pytest.mark.parametrize("strategy", ["graphfuzzer", "nnsmith"])
    def test_judging_leaves_the_shared_case_unchanged(self, strategy):
        config = tiny_campaign_config(iterations=3, seed=29, n_nodes=6,
                                      strategy=strategy)
        tasks, runtimes = _group_runtimes(config)
        judged = _record_judged(runtimes)
        lease = Lease(chunk_id=0, cells=tuple(runtimes), start=1, stop=3)
        kinds = [frame.kind for frame in
                 lease_frames("w", lease, runtimes, tasks)]
        assert kinds == ["claim"] + ["iter"] * 15 + ["chunk_done"]
        assert len(judged) == 15
        for start in range(0, 15, len(ORACLES)):
            group = judged[start:start + len(ORACLES)]
            _, model, inputs, before = group[0]
            assert [cell for cell, *_ in group] == list(range(len(ORACLES)))
            # Every oracle judged the same objects, and none of the five
            # (gradcheck's perturbed runs included) changed a byte.
            assert all(entry[1] is model and entry[2] is inputs
                       for entry in group)
            assert all(entry[3] == before for entry in group)
            assert _case_bytes(model, inputs) == before

    def test_every_cell_judges_the_first_cells_case(self, monkeypatch):
        tasks, runtimes = _group_runtimes(_graphfuzzer_config(iterations=4))
        made = []
        generate = GraphFuzzerStrategy.generate

        def spying(self, seed, iteration):
            generated = generate(self, seed, iteration)
            made.append((self, iteration, generated))
            return generated

        monkeypatch.setattr(GraphFuzzerStrategy, "generate", spying)
        judged = _record_judged(runtimes)
        # A lease that does not start at cell 0, as after a resume.
        cells = (2, 3, 4)
        lease = Lease(chunk_id=0, cells=cells, start=2, stop=3)
        list(lease_frames("w", lease, runtimes, tasks))
        first = runtimes[cells[0]][2]
        assert {runtime[2] for runtime in runtimes.values()} != {first}
        # Every cell called the first cell's strategy, which made one model
        # per iteration, and every cell judged that model.
        assert [(strategy, iteration) for strategy, iteration, _ in made] \
            == [(first, iteration) for iteration in (2, 3) for _ in cells]
        models = [generated.model for _, _, generated in made]
        assert models[0] is models[1] is models[2]
        assert models[3] is models[4] is models[5] is not models[0]
        assert [cell for cell, *_ in judged] == list(cells) * 2
        assert all(model is made_model for (_, model, *_), made_model
                   in zip(judged, models))

    def test_a_failed_input_draw_drops_the_case_for_every_cell(
            self, monkeypatch):
        tasks, runtimes = _group_runtimes(_graphfuzzer_config(iterations=2))
        draws = []

        def failing(model, rng=None):
            draws.append(model)
            raise GraphError("an input without a value type")

        monkeypatch.setattr(fuzzer_module, "random_inputs", failing)
        lease = Lease(chunk_id=0, cells=tuple(runtimes), start=1, stop=2)
        frames = list(lease_frames("w", lease, runtimes, tasks))
        # The draw ran once per iteration, and every cell dropped the case
        # instead of retiring the worker.
        assert [frame.kind for frame in frames] == \
            ["claim"] + ["iter"] * 10 + ["chunk_done"]
        assert len(draws) == 2
        for frame in frames[1:-1]:
            partial = campaign_result_from_dict(frame.payload)
            assert (partial.generated_models, partial.timeline) == (1, [])

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

    @pytest.mark.parametrize("seed, iterations", [(0, 24), (4, 40)])
    def test_a_cells_reports_do_not_depend_on_worker_count(self, seed,
                                                           iterations):
        # One group leased in pieces to two workers folds its iterations
        # out of order; each cell still keeps each key's report from its
        # lowest iteration.
        config = tiny_campaign_config(iterations=iterations, seed=seed,
                                      n_nodes=6, strategy="graphfuzzer")
        one, _ = _findings(config, ORACLES, n_workers=1, n_shards=1)
        two, _ = _findings(config, ORACLES, n_workers=2, n_shards=1)
        assert two == one

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
