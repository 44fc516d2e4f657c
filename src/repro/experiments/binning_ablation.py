"""Attribute-binning ablation: Figures 9 and 10.

Two campaigns are compared — NNSmith with binning and NNSmith without — on
(1) the number of *unique operator instances* generated (instances are keyed
by operator kind, input types and attributes, like the paper's use of Relay's
type system) and (2) branch coverage of the compilers under test.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List

from repro.core.generator import GeneratorConfig, generate_model
from repro.errors import ReproError
from repro.experiments.coverage_experiment import (
    CoverageCampaignResult,
    StrategyCaseGenerator,
    run_coverage_campaign,
)


@dataclass
class InstanceDiversityResult:
    """Figure 9 data: unique operator instances with and without binning."""

    iterations: int
    with_binning: Counter = field(default_factory=Counter)
    without_binning: Counter = field(default_factory=Counter)

    def unique_instances(self, binned: bool) -> int:
        source = self.with_binning if binned else self.without_binning
        return len(source)

    def normalized_ratio_by_op(self) -> Dict[str, float]:
        """Per-operator improvement ratio (the bar heights of Figure 9)."""
        ratios: Dict[str, float] = {}
        ops = {key.split("(")[0] for key in
               list(self.with_binning) + list(self.without_binning)}
        for op in sorted(ops):
            binned = len({k for k in self.with_binning if k.split("(")[0] == op})
            plain = len({k for k in self.without_binning if k.split("(")[0] == op})
            ratios[op] = binned / plain if plain else float(binned)
        return ratios

    def overall_ratio(self) -> float:
        plain = self.unique_instances(False)
        return self.unique_instances(True) / plain if plain else 0.0


def run_instance_diversity(iterations: int = 30, n_nodes: int = 10,
                           seed: int = 0) -> InstanceDiversityResult:
    """Generate two model populations and count unique operator instances."""
    result = InstanceDiversityResult(iterations=iterations)
    for use_binning, counter in ((True, result.with_binning),
                                 (False, result.without_binning)):
        for index in range(iterations):
            try:
                generated = generate_model(GeneratorConfig(
                    n_nodes=n_nodes,
                    seed=seed * 7_919 + index,
                    use_binning=use_binning,
                ))
            except ReproError:
                continue
            counter.update(generated.op_instances)
    return result


@dataclass
class BinningCoverageResult:
    """Figure 10 data: coverage with and without binning, per compiler."""

    compiler: str
    with_binning: CoverageCampaignResult = None
    without_binning: CoverageCampaignResult = None

    def coverage_sets(self) -> Dict[str, FrozenSet]:
        return {
            "w/ binning": self.with_binning.arcs,
            "no binning": self.without_binning.arcs,
        }


def run_binning_coverage(compiler_name: str, max_iterations: int = 30,
                         seed: int = 0) -> BinningCoverageResult:
    """Coverage campaigns for NNSmith with and without attribute binning."""
    with_binning = run_coverage_campaign(
        StrategyCaseGenerator("nnsmith", seed=seed, use_binning=True),
        compiler_name, max_iterations=max_iterations, seed=seed)
    without_binning = run_coverage_campaign(
        StrategyCaseGenerator("nnsmith", seed=seed, use_binning=False),
        compiler_name, max_iterations=max_iterations, seed=seed)
    return BinningCoverageResult(compiler_name, with_binning, without_binning)
