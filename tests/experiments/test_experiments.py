"""Tests for the experiment drivers (small budgets, shape checks only)."""

import pytest

from repro.experiments import (
    StrategyCaseGenerator,
    build_model_group,
    format_venn_table,
    measure_nan_rate,
    reachability_analysis,
    run_bug_study,
    run_coverage_campaign,
    run_gradient_ablation,
    run_instance_diversity,
    run_tzer_campaign,
    totals,
    unique_counts,
    venn_regions,
)
from repro.experiments.reporting import format_ratio_bars, format_series, format_table
from repro.graph.validate import validation_errors


class TestVenn:
    def test_regions(self):
        sets = {"a": {1, 2, 3}, "b": {2, 3, 4}, "c": {5}}
        regions = venn_regions(sets)
        assert regions[frozenset({"a"})] == 1
        assert regions[frozenset({"a", "b"})] == 2
        assert regions[frozenset({"c"})] == 1

    def test_unique_counts_and_totals(self):
        sets = {"a": {1, 2}, "b": {2, 3, 4}}
        assert unique_counts(sets) == {"a": 1, "b": 2}
        assert totals(sets) == {"a": 2, "b": 3}

    def test_format_table_text(self):
        text = format_venn_table({"x": {1}, "y": {1, 2}}, title="demo")
        assert "demo" in text and "x" in text and "exclusive" in text


class TestReporting:
    def test_format_table(self):
        text = format_table([{"a": 1, "b": 2}], ["a", "b"], title="t")
        assert "t" in text and "1" in text

    def test_format_series_downsamples(self):
        text = format_series("curve", range(100), range(100), max_points=5)
        assert text.count("(") <= 7

    def test_format_ratio_bars(self):
        text = format_ratio_bars({"conv2d": 2.0, "where": 1.0}, title="fig9")
        assert "conv2d" in text and "#" in text


class TestCaseGenerators:
    @pytest.mark.parametrize("name", ["nnsmith", "graphfuzzer", "lemon"])
    def test_generators_produce_valid_models(self, name):
        generator = StrategyCaseGenerator(name, seed=0, n_nodes=6)
        for _ in range(3):
            model = generator.next_case()
            assert validation_errors(model) == []

    def test_unknown_generator(self):
        with pytest.raises(KeyError):
            StrategyCaseGenerator("csmith")


class TestCoverageCampaigns:
    def test_nnsmith_campaign_collects_coverage(self):
        generator = StrategyCaseGenerator("nnsmith", seed=0, n_nodes=6)
        result = run_coverage_campaign(generator, "graphrt", max_iterations=4)
        assert result.total_coverage > 0
        assert result.pass_coverage > 0
        assert result.iterations == 4
        assert len(result.timeline.samples) == 4
        assert result.timeline.final_total() == result.total_coverage

    def test_tzer_campaign(self):
        result = run_tzer_campaign(max_iterations=4)
        assert result.fuzzer == "tzer"
        assert result.total_coverage > 0


class TestAblations:
    def test_instance_diversity(self):
        result = run_instance_diversity(iterations=4, n_nodes=6)
        assert result.unique_instances(True) > 0
        assert result.unique_instances(False) > 0
        assert result.normalized_ratio_by_op()

    def test_gradient_ablation_structure(self):
        result, again = (run_gradient_ablation(n_nodes=6, n_models=3,
                                               steps=[2, 8])
                         for _ in range(2))
        assert set(result.curves) == {"sampling", "gradient", "gradient_proxy"}
        for method, curve in result.curves.items():
            assert curve.steps == [2, 8]
            assert len(curve.success_rates) == len(curve.average_times) == 2
            assert all(0.0 <= rate <= 1.0 for rate in curve.success_rates)
            # Step-bounded searches: a rerun reproduces every rate.
            assert again.curves[method].success_rates == curve.success_rates

    def test_model_group_has_vulnerable_ops(self):
        from repro.core.losses import is_vulnerable

        models = build_model_group(8, 3, seed=1)
        for model in models:
            assert any(is_vulnerable(node.op) for node in model.nodes)

    def test_nan_rate_measurement(self):
        result = measure_nan_rate(n_nodes=10, n_models=4, seed=0)
        assert 0.0 <= result.rate <= 1.0
        assert result.n_models == 4


class TestBugStudy:
    def test_reachability_matches_paper_ordering(self):
        analysis = reachability_analysis()
        assert analysis["nnsmith"] == analysis["total_bugs"]
        assert analysis["nnsmith"] > analysis["graphfuzzer"] >= analysis["lemon"]
        assert analysis["unreachable_by_baselines"] > analysis["total_bugs"] / 2

    def test_bug_study_produces_table(self):
        table = run_bug_study(max_iterations=10, seed=1)
        rows = table.rows()
        assert rows[-1]["system"] == "Total"
        crash, semantic = table.crash_semantic_split()
        assert crash + semantic == table.count()
