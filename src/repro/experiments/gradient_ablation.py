"""Value-search ablation: Figure 11 and the §2.3/§3.3 NaN-rate statistics.

Model groups of a fixed size (10/20/30 operators in the paper) that contain
at least one vulnerable operator are generated once; each search method
(random sampling, gradient search without proxy derivatives, gradient search
with proxy derivatives) is then run on the *same* models with the *same*
initial values and an increasing per-model step budget, recording the success
rate and the measured average searching time.

Everything routes through the registry-backed campaign engine: model groups
are produced by a *registered generation strategy* with the engine's pure
``(config, iteration)`` seed streams (:func:`generate_for_iteration`), the
per-model search RNGs come from the engine's value-search stream
(:func:`iteration_rng`), and :func:`run_gradcheck_comparison` runs the
difftest-vs-``gradcheck`` oracle comparison as one oracle-axis matrix
campaign sliced per oracle — the same engine that runs every other
experiment, not a bespoke loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.core.fuzzer import (FuzzerConfig, generate_for_iteration,
                               iteration_rng)
from repro.core.generator import GeneratorConfig
from repro.core.losses import is_vulnerable
from repro.core.strategy import DEFAULT_STRATEGY, build_strategy
from repro.core.value_search import search_values
from repro.graph.model import Model
from repro.runtime.interpreter import Interpreter, random_inputs, random_weights


def _group_config(n_nodes: int, seed: int, strategy: str) -> FuzzerConfig:
    """The engine config whose iteration stream a model group is drawn from."""
    return FuzzerConfig(
        generator=GeneratorConfig(n_nodes=n_nodes),
        seed=seed,
        strategy=strategy,
        probe_operator_support=False,
    )


def build_model_group(n_nodes: int, count: int, seed: int = 0,
                      require_vulnerable: bool = True,
                      max_attempts: Optional[int] = None,
                      strategy: str = DEFAULT_STRATEGY) -> List[Model]:
    """Generate ``count`` models of ``n_nodes`` operators each.

    When ``require_vulnerable`` is set, only models containing at least one
    vulnerable operator (restricted numerical domain) are kept, mirroring the
    paper's Figure 11 setup.  Models come from the registered ``strategy``
    through the campaign engine's per-iteration seed streams, so a group is
    exactly the model population a campaign with the same config would
    explore.
    """
    config = _group_config(n_nodes, seed, strategy)
    generation_strategy = build_strategy(strategy, config)
    models: List[Model] = []
    attempts = 0
    budget = max_attempts if max_attempts is not None else count * 20
    while len(models) < count and attempts < budget:
        attempts += 1
        generated = generate_for_iteration(config, attempts,
                                           generation_strategy)
        if generated is None:
            continue
        if require_vulnerable and not any(
                is_vulnerable(node.op) for node in generated.model.nodes):
            continue
        models.append(generated.model)
    return models


@dataclass
class MethodCurve:
    """Success rate and average search time (ms) per step budget for one
    method (one Fig. 11 line)."""

    method: str
    steps: List[int] = field(default_factory=list)
    success_rates: List[float] = field(default_factory=list)
    average_times: List[float] = field(default_factory=list)


@dataclass
class GradientAblationResult:
    """Figure 11 data for one model-size group."""

    n_nodes: int
    n_models: int
    curves: Dict[str, MethodCurve] = field(default_factory=dict)

    def best_success_rate(self, method: str) -> float:
        curve = self.curves[method]
        return max(curve.success_rates) if curve.success_rates else 0.0


def run_gradient_ablation(n_nodes: int = 10, n_models: int = 12,
                          steps: Sequence[int] = (4, 8, 16, 32),
                          seed: int = 0,
                          methods=("sampling", "gradient", "gradient_proxy"),
                          ) -> GradientAblationResult:
    """Run every search method over one model group with increasing step
    budgets."""
    models = build_model_group(n_nodes, n_models, seed=seed)
    result = GradientAblationResult(n_nodes=n_nodes, n_models=len(models))
    for method in methods:
        # One engine config per method: the per-model search RNGs are the
        # campaign engine's value-search streams (stream 1 of the iteration
        # seed mix), identical across methods so every method searches the
        # same models from the same starting randomness.
        config = FuzzerConfig(
            generator=GeneratorConfig(n_nodes=n_nodes),
            value_search_method=method,
            seed=seed,
        )
        curve = MethodCurve(method=method)
        for max_steps in steps:
            successes = 0
            total_time = 0.0
            for index, model in enumerate(models):
                rng = iteration_rng(config, index + 1)
                search = search_values(model, method=method, rng=rng,
                                       max_steps=max_steps)
                successes += int(search.success)
                total_time += search.elapsed
            curve.steps.append(max_steps)
            curve.success_rates.append(successes / len(models) if models else 0.0)
            curve.average_times.append(
                total_time / len(models) * 1000.0 if models else 0.0)
        result.curves[method] = curve
    return result


# --------------------------------------------------------------------------- #
# Gradient-check comparison (oracle-axis campaign)
# --------------------------------------------------------------------------- #
@dataclass
class GradcheckComparisonResult:
    """Per-oracle seeded-bug sets from one oracle-axis matrix campaign."""

    iterations: int
    #: Oracle name -> seeded bug ids that oracle's cells found.
    bugs_by_oracle: Dict[str, Set[str]] = field(default_factory=dict)

    def gradcheck_only(self) -> Set[str]:
        """Bugs only the gradient check saw (invisible to every other
        oracle in the comparison) — the wrong-VJP class."""
        others: Set[str] = set()
        for oracle, bugs in self.bugs_by_oracle.items():
            if oracle != "gradcheck":
                others |= bugs
        return self.bugs_by_oracle.get("gradcheck", set()) - others


def run_gradcheck_comparison(max_iterations: int = 24, n_nodes: int = 6,
                             seed: int = 0, n_workers: int = 1,
                             oracles: Sequence[str] = ("difftest",
                                                       "gradcheck"),
                             bugs=None) -> GradcheckComparisonResult:
    """Race ``difftest`` against the ``gradcheck`` oracle on shared streams.

    One registry-backed oracle-axis matrix campaign: every oracle judges
    the identical shard seed streams, and the per-oracle Venn slice
    (:func:`repro.experiments.venn.campaign_cell_sets`) shows which seeded
    bugs only the gradient check can see.  This replaces any bespoke
    gradient-experiment loop — the campaign engine owns scheduling,
    checkpointing and provenance.
    """
    from repro.compilers.bugs import BugConfig
    from repro.core.parallel import run_parallel_campaign
    from repro.experiments.venn import campaign_cell_sets

    config = FuzzerConfig(
        generator=GeneratorConfig(n_nodes=n_nodes),
        max_iterations=max_iterations,
        bugs=bugs if bugs is not None else BugConfig.all(),
        seed=seed,
    )
    campaign = run_parallel_campaign(config=config, n_workers=n_workers,
                                     oracles=list(oracles))
    return GradcheckComparisonResult(
        iterations=campaign.iterations,
        bugs_by_oracle=campaign_cell_sets(campaign, by="oracle"))


@dataclass
class NanRateResult:
    """§2.3 statistic: fraction of models whose naive execution hits NaN/Inf."""

    n_nodes: int
    n_models: int
    exceptional_models: int

    @property
    def rate(self) -> float:
        return self.exceptional_models / self.n_models if self.n_models else 0.0


def measure_nan_rate(n_nodes: int = 20, n_models: int = 20,
                     seed: int = 0) -> NanRateResult:
    """How often do default-initialized weights/inputs produce NaN/Inf?

    The paper measures this with PyTorch's default weight initializer, which
    draws values centred on zero; the equivalent here is a standard-normal
    initialization (so operators such as Log, Sqrt and Asin routinely see
    out-of-domain values).
    """
    models = build_model_group(n_nodes, n_models, seed=seed,
                               require_vulnerable=False)
    interpreter = Interpreter(record_intermediates=False)
    exceptional = 0
    for index, model in enumerate(models):
        rng = np.random.default_rng(seed * 17 + index)
        work = model.clone()
        for name, value in random_weights(model, rng, low=-3.0, high=3.0).items():
            work.initializers[name] = value
        inputs = random_inputs(model, rng, low=-3.0, high=3.0)
        run = interpreter.run_detailed(work, inputs)
        exceptional += int(not run.numerically_valid)
    return NanRateResult(n_nodes=n_nodes, n_models=len(models),
                         exceptional_models=exceptional)
