"""NNSmith's core: specifications, generation, value search, differential testing."""

from repro.core.abstract import AbsTensor
from repro.core.binning import apply_attribute_binning
from repro.core.concretize import GeneratedModel, concretize
from repro.core.difftest import (
    CaseResult,
    CompilerVerdict,
    DifferentialTester,
    compare_outputs,
    first_line,
)
from repro.core.fuzzer import (
    BugReport,
    CampaignResult,
    CellOutcome,
    Fuzzer,
    FuzzerConfig,
    iteration_rng,
    iteration_seed,
    probe_supported_pool,
    single_iteration_result,
)
from repro.core.generator import GeneratorConfig, GraphGenerator, SymbolicGraph, generate_model
from repro.core.op_spec import AbsOpBase, SpecContext
from repro.core.oracle import (
    DEFAULT_ORACLE,
    BaseOracle,
    CrashOnlyOracle,
    ShapeOnlyOracle,
    build_oracle,
    register_oracle,
    registered_oracles,
)
from repro.core.strategy import (
    DEFAULT_STRATEGY,
    GenerationStrategy,
    StrategyCapabilities,
    build_strategy,
    register_strategy,
    registered_strategies,
    wrap_model,
)
from repro.core.targeted import MOTIFS, TargetedStrategy
from repro.core.oplib import ALL_SPECS, DEFAULT_OP_POOL, SPEC_BY_KIND, specs_for_ops
from repro.core.parallel import (
    CellTask,
    MatrixCell,
    ParallelCampaign,
    build_matrix,
    campaign_result_from_dict,
    campaign_result_to_dict,
    default_compiler_factory,
    run_parallel_campaign,
    run_sharded_serial,
    shard_configs,
)
from repro.core.value_search import (
    SearchResult,
    gradient_search,
    sampling_search,
    search_values,
)

__all__ = [
    "ALL_SPECS",
    "AbsOpBase",
    "AbsTensor",
    "BaseOracle",
    "BugReport",
    "CrashOnlyOracle",
    "DEFAULT_ORACLE",
    "DEFAULT_STRATEGY",
    "GenerationStrategy",
    "MOTIFS",
    "ShapeOnlyOracle",
    "StrategyCapabilities",
    "TargetedStrategy",
    "build_oracle",
    "build_strategy",
    "register_oracle",
    "register_strategy",
    "registered_oracles",
    "registered_strategies",
    "wrap_model",
    "CampaignResult",
    "CaseResult",
    "CellOutcome",
    "CellTask",
    "CompilerVerdict",
    "DEFAULT_OP_POOL",
    "DifferentialTester",
    "Fuzzer",
    "FuzzerConfig",
    "GeneratedModel",
    "GeneratorConfig",
    "GraphGenerator",
    "MatrixCell",
    "ParallelCampaign",
    "SPEC_BY_KIND",
    "SearchResult",
    "SpecContext",
    "SymbolicGraph",
    "apply_attribute_binning",
    "build_matrix",
    "campaign_result_from_dict",
    "campaign_result_to_dict",
    "compare_outputs",
    "concretize",
    "default_compiler_factory",
    "first_line",
    "generate_model",
    "gradient_search",
    "iteration_rng",
    "iteration_seed",
    "probe_supported_pool",
    "run_parallel_campaign",
    "run_sharded_serial",
    "sampling_search",
    "search_values",
    "shard_configs",
    "single_iteration_result",
    "specs_for_ops",
]
