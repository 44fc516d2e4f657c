"""Shared test fixtures and helpers for the repo's test and benchmark suites.

``tests/conftest.py`` and ``benchmarks/conftest.py`` previously carried
duplicated marker registration and model builders; both now import from this
module so there is exactly one definition of:

* the pytest markers the suites use (:func:`register_markers`);
* the small reference models used across tests (:func:`build_mlp_model`,
  :func:`build_conv_model`);
* the run-exactly-once pytest-benchmark adapter (:func:`run_once`);
* the campaign fold harness (:class:`InterruptAfter`, :class:`FoldCounter`).

Living under :mod:`repro` (rather than inside one of the two test roots)
keeps it importable from both without ``sys.path`` games.
"""

from __future__ import annotations

import numpy as np

from repro.core.parallel import ParallelCampaign
from repro.graph.builder import GraphBuilder
from repro.graph.model import Model

#: Markers shared by the test and benchmark suites.  ``make test`` runs the
#: fast tier (``-m "not slow"``); ``make test-all`` runs everything.
MARKERS = (
    "smoke: fast end-to-end checks (run with `make smoke` / `pytest -m smoke`)",
    "slow: long-running tests excluded from the default `make test` tier "
    "(run with `make test-all`)",
    "campaign: tests that execute full (parallel/matrix) fuzzing campaigns",
)


def register_markers(config) -> None:
    """Register the shared markers on a pytest config (call from conftest)."""
    for marker in MARKERS:
        config.addinivalue_line("markers", marker)


def build_mlp_model(seed: int = 0, dtype=np.float32) -> Model:
    """A small Gemm/Relu/Softmax model used across tests."""
    gen = np.random.default_rng(seed)
    builder = GraphBuilder("mlp")
    x = builder.input([2, 8])
    w1 = builder.weight(gen.normal(0, 0.5, size=(8, 6)).astype(dtype))
    b1 = builder.weight(np.zeros(6, dtype=dtype))
    h = builder.op1("Gemm", [x, w1, b1])
    h = builder.op1("Relu", [h])
    w2 = builder.weight(gen.normal(0, 0.5, size=(6, 4)).astype(dtype))
    b2 = builder.weight(np.zeros(4, dtype=dtype))
    out = builder.op1("Gemm", [h, w2, b2])
    out = builder.op1("Softmax", [out], axis=1)
    builder.output(out)
    return builder.build()


def build_conv_model(seed: int = 0) -> Model:
    """A small convolutional model (conv/relu/pool/flatten)."""
    gen = np.random.default_rng(seed)
    builder = GraphBuilder("cnn")
    x = builder.input([1, 4, 8, 8])
    w = builder.weight(gen.normal(0, 0.4, size=(8, 4, 3, 3)).astype(np.float32))
    value = builder.op1("Conv2d", [x, w], stride=1, padding=1)
    value = builder.op1("Relu", [value])
    value = builder.op1("MaxPool2d", [value], kh=2, kw=2, stride=2, padding=0)
    value = builder.op1("Flatten", [value], axis=1)
    builder.output(value)
    return builder.build()


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)


def tiny_campaign_config(iterations=4, seed=0, n_nodes=5,
                         strategy="nnsmith", oracle="difftest",
                         max_steps=8):
    """A small campaign config for engine tests.

    A few iterations of small models with a short value search — the knobs
    every campaign/equivalence test was duplicating.
    """
    from repro.compilers.bugs import BugConfig
    from repro.core.fuzzer import FuzzerConfig
    from repro.core.generator import GeneratorConfig

    return FuzzerConfig(
        generator=GeneratorConfig(n_nodes=n_nodes),
        value_search_max_steps=max_steps,
        max_iterations=iterations,
        bugs=BugConfig.all(),
        seed=seed,
        strategy=strategy,
        oracle=oracle,
    )


def campaign_signature(result):
    """Order-independent content of a campaign result (for equivalence
    assertions), including per-cell provenance when present."""
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


def checkpoint_signature(path):
    """Clock-normalized content of a campaign checkpoint file.

    Findings, completion sets, fingerprints and scheduler *shape* are
    transport-independent by construction, but wall-clock fields
    (``time_used``, per-result ``elapsed``, timeline stamps, novelty
    durations) necessarily differ run-to-run.  This helper strips them so
    transport-equivalence tests can assert the rest is bit-identical.
    """
    import copy
    import json

    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    payload = copy.deepcopy(payload)
    scheduler = payload.get("scheduler")
    if isinstance(scheduler, dict):
        state = scheduler.get("state")
        if isinstance(state, dict):
            # Novelty windows/stagnation carry durations; keep which cells
            # were observed and their arc counts, drop the seconds.
            recent = state.get("recent")
            if isinstance(recent, dict):
                state["recent"] = {
                    cell: [count for count, _duration in samples]
                    for cell, samples in recent.items()}
            state.pop("stagnation", None)
    for entry in payload.get("cells", {}).values():
        entry.pop("time_used", None)
        result = entry.get("result")
        if isinstance(result, dict):
            result.pop("elapsed", None)
            for sample in result.get("timeline", []):
                sample.pop("elapsed", None)
            for sample in result.get("coverage_timeline", []):
                sample.pop("elapsed", None)
                sample.pop("cell_elapsed", None)
    return json.dumps(payload, sort_keys=True)


class InterruptAfter(ParallelCampaign):
    """Campaign that dies (after checkpointing) at the Nth folded iteration."""

    def __init__(self, interrupt_after, **kwargs):
        super().__init__(**kwargs)
        self._folds_left = interrupt_after

    def _fold_iteration(self, states, cell_index, iteration, partial,
                        duration):
        super()._fold_iteration(states, cell_index, iteration, partial,
                                duration)
        self._folds_left -= 1
        if self._folds_left <= 0:
            raise KeyboardInterrupt("simulated mid-campaign kill")


class FoldCounter(ParallelCampaign):
    """Campaign recording which iterations it actually executes:
    ``folds`` maps each cell key to its folded iterations, in fold order."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.folds = {}

    def _fold_iteration(self, states, cell_index, iteration, partial,
                        duration):
        key = states[cell_index].task.cell.key
        self.folds.setdefault(key, []).append(iteration)
        super()._fold_iteration(states, cell_index, iteration, partial,
                                duration)
