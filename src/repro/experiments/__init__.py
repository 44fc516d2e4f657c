"""Experiment drivers regenerating every table and figure of the paper."""

from repro.experiments.binning_ablation import (
    BinningCoverageResult,
    InstanceDiversityResult,
    run_binning_coverage,
    run_instance_diversity,
)
from repro.experiments.bug_study import (
    BugTable,
    CrashComparisonResult,
    crash_comparison,
    reachability_analysis,
    run_bug_study,
)
from repro.experiments.coverage_experiment import (
    CoverageCampaignResult,
    StrategyCaseGenerator,
    run_coverage_campaign,
    run_fuzzer_comparison,
    run_tzer_campaign,
)
# NOTE: repro.experiments.table2 is intentionally NOT imported here — it is
# a `python -m` entry point (`make table2`), and importing it from the
# package __init__ would trigger runpy's double-import warning.  Import it
# directly: `from repro.experiments.table2 import run_table2`.
from repro.experiments.gradient_ablation import (
    GradcheckComparisonResult,
    GradientAblationResult,
    NanRateResult,
    build_model_group,
    measure_nan_rate,
    run_gradcheck_comparison,
    run_gradient_ablation,
)
from repro.experiments.venn import (
    campaign_cell_sets,
    campaign_venn,
    format_venn_table,
    totals,
    unique_counts,
    venn_regions,
)

__all__ = [
    "BinningCoverageResult",
    "BugTable",
    "CoverageCampaignResult",
    "CrashComparisonResult",
    "GradcheckComparisonResult",
    "GradientAblationResult",
    "InstanceDiversityResult",
    "NanRateResult",
    "StrategyCaseGenerator",
    "build_model_group",
    "crash_comparison",
    "campaign_cell_sets",
    "campaign_venn",
    "format_venn_table",
    "measure_nan_rate",
    "reachability_analysis",
    "run_binning_coverage",
    "run_bug_study",
    "run_coverage_campaign",
    "run_fuzzer_comparison",
    "run_gradcheck_comparison",
    "run_gradient_ablation",
    "run_instance_diversity",
    "run_tzer_campaign",
    "totals",
    "unique_counts",
    "venn_regions",
]
