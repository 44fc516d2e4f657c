"""Bug study: Table 3 and the §5.4 comparisons.

Three analyses reproduce the paper's bug-finding evaluation against the
seeded-bug population:

* :func:`run_bug_study` — a fuzzing campaign with every seeded bug enabled;
  found bugs are attributed to their system / phase / symptom, producing the
  Table 3 distribution;
* :func:`reachability_analysis` — the design-level argument ("49 of 72 bugs
  cannot be triggered by LEMON's or GraphFuzzer's designs"): a bug is
  reachable by a generator design iff the design provides every model feature
  the bug's trigger requires;
* :func:`crash_comparison` — the empirical head-to-head: run every tool for
  the same budget and count unique crashes per compiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set

from repro.compilers.base import DEFAULT_COMPILERS, build_compiler_set
from repro.compilers.bugs import (
    FEATURE_ATTR_DIVERSITY,
    FEATURE_BROADCAST,
    FEATURE_FLOAT64,
    FEATURE_INT_DTYPE,
    FEATURE_MULTI_INPUT,
    FEATURE_MULTI_OP,
    FEATURE_NON_SHAPE_PRESERVING,
    FEATURE_SCALAR,
    FEATURE_SHAPE_OPS,
    FEATURE_VECTOR_MATMUL,
    BugConfig,
    BugSpec,
    all_bugs,
    bug_spec,
)
from repro.core.fuzzer import CampaignResult, Fuzzer, FuzzerConfig
from repro.core.generator import GeneratorConfig

#: Model features each generator design can produce (used for reachability).
GENERATOR_FEATURES: Dict[str, FrozenSet[str]] = {
    "nnsmith": frozenset({
        FEATURE_MULTI_OP, FEATURE_NON_SHAPE_PRESERVING, FEATURE_BROADCAST,
        FEATURE_ATTR_DIVERSITY, FEATURE_SCALAR, FEATURE_INT_DTYPE,
        FEATURE_FLOAT64, FEATURE_VECTOR_MATMUL, FEATURE_SHAPE_OPS,
        FEATURE_MULTI_INPUT,
    }),
    # GraphFuzzer connects non-unary operators but only in shape-preserving
    # configurations, aligns shapes with slicing, uses default attributes and
    # float32/float64 tensors; it never produces scalars, broadcasts, integer
    # tensors or diverse attributes.
    "graphfuzzer": frozenset({
        FEATURE_MULTI_OP, FEATURE_MULTI_INPUT, FEATURE_SHAPE_OPS, FEATURE_FLOAT64,
    }),
    # LEMON only mutates shape-preserving unary layers of float32 seed models.
    "lemon": frozenset({FEATURE_MULTI_OP, FEATURE_MULTI_INPUT}),
}


# --------------------------------------------------------------------------- #
# Table 3
# --------------------------------------------------------------------------- #
@dataclass
class BugTable:
    """The Table 3 analogue: bug counts per system and phase."""

    found: Set[str] = field(default_factory=set)
    campaign: Optional[CampaignResult] = None

    def specs(self) -> List[BugSpec]:
        return [bug_spec(bug_id) for bug_id in sorted(self.found)]

    def count(self, system: Optional[str] = None, phase: Optional[str] = None,
              symptom: Optional[str] = None) -> int:
        total = 0
        for spec in self.specs():
            if system is not None and spec.system != system:
                continue
            if phase is not None and spec.phase != phase:
                continue
            if symptom is not None and spec.symptom != symptom:
                continue
            total += 1
        return total

    def rows(self) -> List[Dict[str, object]]:
        """Rows matching the paper's Table 3 layout."""
        display = {"graphrt": "GraphRT", "deepc": "DeepC", "turbo": "Turbo",
                   "exporter": "Exporter"}
        rows = []
        for system in ("graphrt", "deepc", "turbo", "exporter"):
            rows.append({
                "system": display[system],
                "transformation": self.count(system, "transformation"),
                "conversion": self.count(system, "conversion"),
                "unclassified": self.count(system, "unclassified"),
                "total": self.count(system),
            })
        rows.append({
            "system": "Total",
            "transformation": self.count(phase="transformation"),
            "conversion": self.count(phase="conversion"),
            "unclassified": self.count(phase="unclassified"),
            "total": self.count(),
        })
        return rows

    def crash_semantic_split(self):
        return self.count(symptom="crash"), self.count(symptom="semantic")


def run_bug_study(max_iterations: int = 120, n_nodes: int = 10,
                  seed: int = 0) -> BugTable:
    """Fuzz all three compilers with every seeded bug enabled."""
    bugs = BugConfig.all()
    compilers = build_compiler_set(DEFAULT_COMPILERS, bugs=bugs)
    fuzzer = Fuzzer(compilers, FuzzerConfig(
        generator=GeneratorConfig(n_nodes=n_nodes),
        max_iterations=max_iterations,
        bugs=bugs,
        seed=seed,
    ))
    campaign = fuzzer.run()
    # Table 3 counts the differential-testing bug classes.  Oracle-only
    # bugs (perf regressions, wrong gradients) can ride along in a failing
    # verdict's trigger set without having been *detected* here — keep the
    # table to the symptoms this campaign's oracle can actually observe.
    found = {bug_id for bug_id in campaign.seeded_bugs_found
             if bug_spec(bug_id).symptom in ("crash", "semantic")}
    return BugTable(found=found, campaign=campaign)


# --------------------------------------------------------------------------- #
# Design-level reachability (the "49 of 72 bugs" argument)
# --------------------------------------------------------------------------- #
def reachable_bugs(design: str) -> Set[str]:
    """Bugs whose required features are all provided by a generator design."""
    features = GENERATOR_FEATURES[design]
    return {spec.bug_id for spec in all_bugs()
            if spec.required_features <= features}


def reachability_analysis() -> Dict[str, object]:
    """Summary of which seeded bugs each generator design can trigger."""
    nnsmith = reachable_bugs("nnsmith")
    graphfuzzer = reachable_bugs("graphfuzzer")
    lemon = reachable_bugs("lemon")
    total = {spec.bug_id for spec in all_bugs()}
    return {
        "total_bugs": len(total),
        "nnsmith": len(nnsmith),
        "graphfuzzer": len(graphfuzzer),
        "lemon": len(lemon),
        "unreachable_by_baselines": len(total - graphfuzzer - lemon),
        "baseline_only": sorted((graphfuzzer | lemon) - nnsmith),
    }


# --------------------------------------------------------------------------- #
# Empirical head-to-head (unique crashes per tool within one budget)
# --------------------------------------------------------------------------- #
@dataclass
class CrashComparisonResult:
    """Unique crashes per fuzzer and compiler (the §5.4 four-hour run)."""

    iterations: int
    unique_crashes: Dict[str, Dict[str, int]] = field(default_factory=dict)
    seeded_found: Dict[str, Set[str]] = field(default_factory=dict)


def crash_comparison(max_iterations: int = 40, seed: int = 0,
                     n_nodes: int = 10, workers: int = 1,
                     fuzzers: Sequence[str] = ("nnsmith", "graphfuzzer",
                                               "lemon")
                     ) -> CrashComparisonResult:
    """Run every fuzzer for the same iteration budget — as *one* campaign.

    Instead of three bespoke serial loops, the comparison is a single
    generator-axis matrix campaign: every strategy in ``fuzzers`` runs the
    full budget against the three default compilers through the registry-
    backed engine, and the per-cell provenance is sliced into per-fuzzer
    unique-crash counts and seeded-bug sets.  Strategies that declare
    ``needs_value_search`` (NNSmith) go through the full pipeline, the
    mutation baselines are tested on plain random inputs — exactly the
    old per-tool loops, now sharded, resumable and parallel
    (``workers > 1`` spawns worker processes; the default runs in-process).

    One deliberate semantic tightening vs the pre-registry loops:
    ``seeded_found`` counts bugs *detected* (attached to a crash/semantic
    verdict), matching ``CampaignResult.seeded_bugs_found`` everywhere else
    in the engine.  The old bespoke loops also counted bugs whose buggy
    path merely executed without a detectable symptom (e.g. on
    numerically-invalid mutants), which inflated the baselines relative to
    what a fuzzer user would actually observe.
    """
    from repro.core.parallel import run_parallel_campaign

    bugs = BugConfig.all()
    config = FuzzerConfig(generator=GeneratorConfig(n_nodes=n_nodes),
                          max_iterations=max_iterations, bugs=bugs, seed=seed)
    campaign = run_parallel_campaign(config=config,
                                     n_workers=max(workers, 1),
                                     generators=list(fuzzers))

    result = CrashComparisonResult(iterations=max_iterations)
    compilers = ("graphrt", "deepc", "turbo")
    for name in fuzzers:
        crashes: Dict[str, Set[str]] = {compiler: set()
                                        for compiler in compilers}
        found: Set[str] = set()
        for cell in campaign.cells.values():
            if cell.generator != name:
                continue
            found |= cell.seeded_bugs_found
            for key in cell.report_keys:
                compiler, status, message = key.split("|", 2)
                if status == "crash" and compiler in crashes:
                    crashes[compiler].add(message)
        result.unique_crashes[name] = {compiler: len(messages)
                                       for compiler, messages in crashes.items()}
        result.seeded_found[name] = found
    return result
