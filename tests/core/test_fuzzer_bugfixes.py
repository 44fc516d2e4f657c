"""Regression tests for the campaign-loop bugfixes.

Covers: empty-message report dedup (``first_line``), the non-linear
campaign/iteration seed mixing, and failed-value-search input handling.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import first_line
from repro.core.concretize import GeneratedModel
from repro.core.difftest import CompilerVerdict, DifferentialTester
from repro.core.fuzzer import (
    BugReport,
    CampaignResult,
    FuzzerConfig,
    generate_for_iteration,
    iteration_seed,
    search_and_difftest,
)
from repro.core.generator import GeneratorConfig
from repro.core.value_search import SearchResult
from repro.testing import build_mlp_model


class TestFirstLine:
    def test_empty_message(self):
        assert first_line("") == ""

    def test_truncates_to_limit(self):
        assert first_line("x" * 500) == "x" * 160
        assert first_line("x" * 500, limit=10) == "x" * 10

    def test_takes_first_line_only(self):
        assert first_line("head\ntail") == "head"

    def test_newline_only_message(self):
        assert first_line("\n\n") == ""


class TestEmptyMessageDedup:
    def test_unique_crashes_with_empty_message(self):
        result = CampaignResult(reports=[
            BugReport("graphrt", "crash", "conversion", "", [], 1),
            BugReport("graphrt", "crash", "conversion", "boom", [], 2),
        ])
        assert result.unique_crashes() == 2
        assert result.unique_crashes("graphrt") == 2
        assert result.unique_crashes("deepc") == 0

    def test_verdict_dedup_key_with_empty_message(self):
        verdict = CompilerVerdict("deepc", "crash", "conversion", "")
        assert verdict.dedup_key() == "deepc|crash|"

    @pytest.mark.parametrize("finding,key", [
        (("deepc", "crash", "conversion", "msg\nrest",
          ["deepc-import-scalar-reduce"]), "deepc|crash|msg"),
        (("turbo", "semantic", "transformation", "value mismatch",
          ["turbo-clip-int32-dtype"]), "turbo|semantic|transformation"),
        (("graphrt", "perf", "transformation", "128.5x the kernel calls",
          ["graphrt-matmul-repack-small"]),
         "graphrt|perf|transformation|graphrt-matmul-repack-small"),
        (("autodiff", "gradient", "backward", "wrong gradient",
          ["autodiff-tanh-grad-linear", "autodiff-sigmoid-grad-unscaled"]),
         "autodiff|gradient|backward|autodiff-sigmoid-grad-unscaled"
         "+autodiff-tanh-grad-linear"),
        (("graphrt", "verifier", "transformation", "stale attribute",
          ["graphrt-biassoftmax-fusion-note"]),
         "graphrt|verifier|transformation|graphrt-biassoftmax-fusion-note"),
    ], ids=["crash", "semantic", "perf", "gradient", "verifier"])
    def test_report_dedup_key_matches_verdict(self, finding, key):
        verdict = CompilerVerdict(*finding)
        report = BugReport(*finding, 3)
        assert report.dedup_key() == verdict.dedup_key() == key


class TestIterationSeedMixing:
    def test_adjacent_campaign_seeds_do_not_share_streams(self):
        # The old linear scheme made campaign seed s at iteration i + 1 equal
        # campaign seed s + 1 at iteration i; the SeedSequence mixing must
        # produce fully disjoint per-iteration seed streams.
        stream_a = {iteration_seed(0, None, i) for i in range(1, 101)}
        stream_b = {iteration_seed(1, None, i) for i in range(1, 101)}
        assert not stream_a & stream_b

    def test_generator_seed_participates(self):
        assert iteration_seed(0, 1, 5) != iteration_seed(0, 2, 5)

    def test_deterministic(self):
        assert iteration_seed(3, 7, 11) == iteration_seed(3, 7, 11)

    def test_generate_for_iteration_distinct_across_campaigns(self):
        base = GeneratorConfig(n_nodes=4)
        config_a = FuzzerConfig(generator=base, seed=0)
        config_b = FuzzerConfig(generator=dataclasses.replace(base), seed=1)
        models_a = [generate_for_iteration(config_a, i) for i in range(1, 4)]
        models_b = [generate_for_iteration(config_b, i) for i in range(1, 4)]
        sigs_a = [tuple(m.op_instances) for m in models_a if m is not None]
        sigs_b = [tuple(m.op_instances) for m in models_b if m is not None]
        assert sigs_a and sigs_b
        assert sigs_a != sigs_b


class _CapturingTester:
    """Stands in for DifferentialTester, recording run_case arguments."""

    def __init__(self):
        self.calls = []

    def run_case(self, model, inputs=None, numerically_valid=None):
        self.calls.append({"model": model, "inputs": inputs,
                           "numerically_valid": numerically_valid})
        from repro.core.difftest import CaseResult

        return CaseResult(model=model, numerically_valid=bool(numerically_valid))


def _generated_mlp():
    model = build_mlp_model()
    return GeneratedModel(model=model, assignment={}, n_nodes=len(model.nodes),
                          input_names=list(model.inputs))


class TestFailedSearchInputHandling:
    def _run(self, monkeypatch, search_result):
        monkeypatch.setattr("repro.core.fuzzer.search_values",
                            lambda *args, **kwargs: search_result)
        tester = _CapturingTester()
        generated = _generated_mlp()
        case = search_and_difftest(tester, FuzzerConfig(), generated,
                                    np.random.default_rng(0))
        assert case is not None
        return generated, tester.calls[0]

    def test_failed_search_inputs_are_not_forwarded(self, monkeypatch):
        poisoned = {"x": np.full((2, 8), np.nan, dtype=np.float32)}
        weights = {"w": np.full((8, 6), np.nan, dtype=np.float32)}
        generated, call = self._run(
            monkeypatch, SearchResult(False, inputs=poisoned, weights=weights))
        assert call["inputs"] is not None
        assert not np.isnan(next(iter(call["inputs"].values()))).any()
        # the failed search's last-trial weights must not be applied either
        assert call["model"] is generated.model
        # validity must be re-derived downstream, not assumed
        assert call["numerically_valid"] is None

    def test_successful_search_inputs_forwarded_with_validity(self, monkeypatch):
        good = {"x": np.full((2, 8), 2.0, dtype=np.float32)}
        generated, call = self._run(monkeypatch, SearchResult(True, inputs=good))
        assert call["inputs"] is good
        assert call["model"] is generated.model  # no weights to apply
        assert call["numerically_valid"] is True


class TestRunCaseValidityHint:
    def test_hint_overrides_oracle(self, mlp_model, rng):
        from repro.compilers import CompileOptions, GraphRTCompiler
        from repro.compilers.bugs import BugConfig
        from repro.runtime.interpreter import random_inputs

        tester = DifferentialTester(
            [GraphRTCompiler(CompileOptions(bugs=BugConfig.none()))],
            bugs=BugConfig.none())
        inputs = random_inputs(mlp_model, rng)
        derived = tester.run_case(mlp_model, inputs)
        assert derived.numerically_valid
        hinted = tester.run_case(mlp_model, inputs, numerically_valid=False)
        assert not hinted.numerically_valid
