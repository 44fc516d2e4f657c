"""The benchmark's workloads: deterministic single-shard campaign configs.

A run of a workload executes, each in a fresh process:

* the workload's **memory reference campaign** (campaign seed
  :data:`REFERENCE_SEED`, the same on every run), which gives
  ``peak_rss_mb``; and
* the run's **timed campaigns**, whose campaign seeds derive from the run's
  ``--seed`` (:func:`campaign_seed`) and whose number derives from its
  ``--seconds`` (:meth:`Workload.campaigns`).  Every other metric comes
  from them, so counts repeat exactly for the same seed and every commit is
  timed on the same models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: The five-oracle axis of the graphfuzzer-oracles workload.
ORACLE_AXIS = ("difftest", "perf", "gradcheck", "crash", "shape")
#: Operators per generated model, as in the campaign command line's default.
N_NODES = 10
#: Seeded bugs left out of every workload.  The seeding code of this one
#: raises a bare ``ValueError`` for some Where operand shapes, which aborts
#: the whole campaign instead of producing a verdict (one campaign in about
#: a hundred of nnsmith-difftest).
EXCLUDED_BUGS = ("deepc-import-where-broadcast-rank",)
#: Campaign seed of every memory reference campaign.  On nnsmith-difftest
#: its fifth model is one of the rare very large ones (peak RSS about
#: 400 MB with the caches on, 165 MB with them off), so the reference shows
#: what the program holds on to after a large model.
REFERENCE_SEED = 103
#: Timed iterations a run needs, so that at least ten lie beyond the p95.
MIN_TIMED = 200

#: Layers (tracer span names) both workloads call on every traced run.
_JUDGING = ("generate", "iteration", "oracle", "exporter", "interpreter",
            "autodiff", "compile.graphrt", "compile.deepc", "compile.turbo",
            "execute.graphrt", "execute.deepc", "execute.turbo")


@dataclass(frozen=True)
class Workload:
    name: str
    #: Registered generation strategy.
    strategy: str
    #: Oracle axis (None = the config's own ``difftest`` oracle, no axis).
    oracles: Optional[Tuple[str, ...]]
    #: Iterations per cell of each timed campaign.
    iterations: int
    #: Nominal duration of one timed campaign, in seconds.
    campaign_s: float
    #: Iterations per cell of the memory reference campaign.
    reference_iterations: int
    #: Nominal duration of the memory reference campaign, in seconds.
    reference_s: float
    #: Tracer span names a traced run must see called at least once.
    layers: Tuple[str, ...]

    @property
    def cells(self) -> int:
        return len(self.oracles) if self.oracles else 1

    def campaigns(self, seconds: float) -> int:
        """Timed campaigns of a run of ``seconds``: as many as fill the time
        left after the reference campaign, nominally, and enough for
        :data:`MIN_TIMED` iterations.  Depends on ``seconds`` alone, never
        on how fast the machine or the program is."""
        needed = -(-MIN_TIMED // (self.iterations * self.cells))
        return max(needed, int((seconds - self.reference_s) / self.campaign_s))


WORKLOADS = {
    workload.name: workload for workload in (
        # The paper's loop: generation (solver + binning) is the bottleneck
        # and rejected bins make the p95 tail.
        Workload("nnsmith-difftest", "nnsmith", None,
                 iterations=175, campaign_s=21.0,
                 reference_iterations=40, reference_s=5.0,
                 layers=_JUDGING + ("solver.insert", "solver.bin", "binning",
                                    "generator", "concretize",
                                    "value_search")),
        # GraphFuzzer under the five oracles: no solver, binning or value
        # search; every graph is unique, so judging dominates.
        Workload("graphfuzzer-oracles", "graphfuzzer", ORACLE_AXIS,
                 iterations=200, campaign_s=10.0,
                 reference_iterations=60, reference_s=3.0,
                 layers=_JUDGING),
    )
}


def campaign_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th timed campaign of a run with seed ``seed``."""
    return seed * 1000 + index


def build_config(workload: Workload, seed: int, iterations: int):
    """The campaign config: deterministic (step-bounded value search),
    every seeded bug but :data:`EXCLUDED_BUGS` enabled, one shard."""
    from repro.compilers.bugs import BugConfig, all_bugs
    from repro.core.fuzzer import FuzzerConfig
    from repro.core.generator import GeneratorConfig
    from repro.core.parallel import deterministic_config

    return deterministic_config(FuzzerConfig(
        generator=GeneratorConfig(n_nodes=N_NODES),
        max_iterations=iterations,
        bugs=BugConfig([spec.bug_id for spec in all_bugs()
                        if spec.bug_id not in EXCLUDED_BUGS]),
        seed=seed,
        strategy=workload.strategy,
    ))
