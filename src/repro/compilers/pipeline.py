"""Unified pass-pipeline layer shared by every compiler backend.

Historically GraphRT's graph passes, DeepC's graph passes and DeepC's
low-level passes were three structurally identical but independent
frameworks (base class + context dataclass + hard-coded ``default_pipeline``
with per-pass ``min_opt_level`` gating).  This module hoists the shared
machinery into one place:

* :class:`PipelinePass` / :class:`PipelineContext` — the common pass
  interface and per-compilation state (bug recording, ``modified_by``
  provenance);
* a **registry of passes per stage** (``graphrt``, ``deepc-graph``,
  ``deepc-low``) that user code can extend with :func:`register_pass`;
* :class:`PipelineSpec` — a named, serializable pass sequence per stage.
  Optimization levels are no longer scattered ``min_opt_level`` checks
  inside three pipeline runners; they are three *canonical specs*
  (:func:`canonical_spec`) computed by spec-level filtering in exactly one
  place;
* :func:`run_pass_pipeline` — the single pipeline runner all backends use;
* the **pipeline matrix axis** vocabulary: pipeline *tokens* are short
  strings that travel through worker processes and checkpoint fingerprints
  (like compiler names do).  ``"O0"``/``"O1"``/``"O2"`` name the canonical
  specs; ``"rand:<seed>:<index>"`` names a deterministically sampled
  ordering/subset (:func:`sample_spec`); the CLI-facing sampler syntax
  ``"random:<k>@<seed>"`` expands into ``k`` self-contained ``rand:`` tokens
  via :func:`expand_pipeline_tokens` (mixing in the campaign seed, so the
  draw is a pure function of ``(config, cell)``).
"""

from __future__ import annotations

import abc
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.compilers.bugs import BugConfig

#: The pipeline stages of the in-repo backends.  GraphRT has a single
#: graph-rewrite stage; DeepC optimizes its graph IR, lowers, then optimizes
#: the loop-level IR.
STAGES: Tuple[str, ...] = ("graphrt", "deepc-graph", "deepc-low")

#: Probability that :func:`sample_spec` keeps any given registered pass.
#: High enough that sampled pipelines stay "mostly real" optimization
#: sequences, low enough that subsets vary.
SAMPLE_KEEP_PROBABILITY = 0.75

#: The optimization levels the passes' ``min_opt_level`` gates tell apart:
#: a higher level would build exactly like O2, so none is accepted.
OPT_LEVELS: Tuple[int, ...] = (0, 1, 2)


@dataclass
class PipelineContext:
    """State shared by the passes of one compilation (any stage)."""

    bugs: BugConfig = field(default_factory=BugConfig.none)
    opt_level: int = 2
    #: Seeded bugs whose buggy path actually executed during this compilation.
    triggered_bugs: List[str] = field(default_factory=list)
    #: Names of passes that modified the IR, in application order.
    modified_by: List[str] = field(default_factory=list)
    #: When True, :func:`run_pass_pipeline` checks IR well-formedness at
    #: every pass boundary (``--verify-passes``) and raises
    #: :class:`repro.errors.IRVerificationError` on the first violation.
    verify: bool = False

    def record_bug(self, bug_id: str) -> None:
        if bug_id not in self.triggered_bugs:
            self.triggered_bugs.append(bug_id)


class PipelinePass(abc.ABC):
    """One IR-rewriting pass (graph- or loop-level).

    Passes mutate the IR in place and return True when they changed it.
    """

    #: Minimum optimization level at which this pass appears in the
    #: *canonical* specs.  Sampled pipelines ignore this — the whole point of
    #: the pipeline axis is to run passes outside their hand-blessed context.
    min_opt_level: int = 1

    @property
    def name(self) -> str:
        return type(self).__name__

    @abc.abstractmethod
    def run(self, ir, ctx: PipelineContext) -> bool:
        """Apply the pass; return True if the IR was modified."""


# --------------------------------------------------------------------------- #
# Per-stage pass registry
# --------------------------------------------------------------------------- #
#: stage -> pass name -> class, in registration order (canonical passes are
#: registered first, in canonical application order).
_REGISTRY: Dict[str, Dict[str, Type[PipelinePass]]] = {s: {} for s in STAGES}
#: stage -> canonical application order (the backend's hand-tuned pipeline).
_CANONICAL: Dict[str, List[str]] = {s: [] for s in STAGES}
_BUILTINS_LOADED = False


def register_pass(stage: str, cls: Type[PipelinePass], *,
                  canonical: bool = False) -> Type[PipelinePass]:
    """Add a pass class to a stage's registry.

    Idempotent for the same class; a different class under a taken name is a
    configuration error.  ``canonical=True`` additionally appends the pass to
    the stage's canonical application order (builtin pipelines only — user
    passes join the samplable pool but not the canonical specs).
    """
    if stage not in _REGISTRY:
        raise KeyError(f"unknown pipeline stage {stage!r}; "
                       f"available: {list(STAGES)}")
    name = cls.__name__
    existing = _REGISTRY[stage].get(name)
    if existing is not None and existing is not cls:
        raise ValueError(f"pass name {name!r} already registered in stage "
                         f"{stage!r} by {existing.__module__}")
    _REGISTRY[stage][name] = cls
    if canonical and name not in _CANONICAL[stage]:
        _CANONICAL[stage].append(name)
    return cls


def _ensure_builtin_passes() -> None:
    """Import the backend pass packages so their pipelines self-register."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    from repro.compilers.deepc import lowpasses as deepc_lowpasses
    from repro.compilers.deepc import passes as deepc_passes
    from repro.compilers.graphrt import passes as graphrt_passes

    for stage, pipeline in (
            ("graphrt", graphrt_passes.default_pipeline()),
            ("deepc-graph", deepc_passes.default_pipeline()),
            ("deepc-low", deepc_lowpasses.default_low_pipeline())):
        for instance in pipeline:
            register_pass(stage, type(instance), canonical=True)


def registered_passes(stage: str) -> Tuple[str, ...]:
    """Every registered pass name of a stage (canonical ones first)."""
    _ensure_builtin_passes()
    if stage not in _REGISTRY:
        raise KeyError(f"unknown pipeline stage {stage!r}; "
                       f"available: {list(STAGES)}")
    return tuple(_REGISTRY[stage])


def canonical_order(stage: str) -> Tuple[str, ...]:
    """The backend's hand-tuned application order for a stage."""
    _ensure_builtin_passes()
    return tuple(_CANONICAL[stage])


def create_pass(stage: str, name: str) -> PipelinePass:
    """Instantiate a registered pass by name."""
    _ensure_builtin_passes()
    try:
        cls = _REGISTRY[stage][name]
    except KeyError:
        raise KeyError(f"unknown pass {name!r} in stage {stage!r}; "
                       f"available: {list(_REGISTRY.get(stage, ()))}") \
            from None
    return cls()


# --------------------------------------------------------------------------- #
# PipelineSpec: a named, serializable pass sequence
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PipelineSpec:
    """A named pass sequence: for each stage, the pass names to run in order.

    Specs are plain data (picklable, JSON-serializable) so they can travel to
    worker processes, into checkpoints and into corpus entries.  Stages
    absent from ``stages`` run no passes.
    """

    name: str
    stages: Tuple[Tuple[str, Tuple[str, ...]], ...]

    def passes(self, stage: str) -> Tuple[str, ...]:
        for entry_stage, names in self.stages:
            if entry_stage == stage:
                return names
        return ()

    def to_dict(self) -> Dict:
        return {"name": self.name,
                "stages": {stage: list(names) for stage, names in self.stages}}

    @classmethod
    def from_dict(cls, payload: Dict) -> "PipelineSpec":
        return cls(name=payload["name"],
                   stages=tuple((stage, tuple(names)) for stage, names
                                in payload["stages"].items()))

    @classmethod
    def from_stage_map(cls, name: str,
                       stages: Dict[str, Sequence[str]]) -> "PipelineSpec":
        return cls(name=name, stages=tuple(
            (stage, tuple(names)) for stage, names in stages.items()))

    def validate(self) -> "PipelineSpec":
        """Check every referenced pass exists; returns self for chaining."""
        for stage, names in self.stages:
            if stage not in STAGES:
                raise KeyError(f"pipeline {self.name!r}: unknown stage "
                               f"{stage!r}; available: {list(STAGES)}")
            for name in names:
                create_pass(stage, name)
        return self


def canonical_spec(opt_level: int) -> PipelineSpec:
    """The canonical pipeline of an optimization level.

    This is the *single* place optimization levels are interpreted: O0 runs
    nothing, higher levels run every canonical pass whose ``min_opt_level``
    the level reaches.  (The per-pass ``min_opt_level`` gating that each of
    the three old pipeline runners duplicated lives here now.)
    """
    _ensure_builtin_passes()
    if opt_level <= 0:
        return PipelineSpec(name="O0", stages=tuple(
            (stage, ()) for stage in STAGES))
    stages = []
    for stage in STAGES:
        names = tuple(name for name in _CANONICAL[stage]
                      if _REGISTRY[stage][name].min_opt_level <= opt_level)
        stages.append((stage, names))
    return PipelineSpec(name=f"O{opt_level}", stages=tuple(stages))


def run_pass_pipeline(stage: str, ir, ctx: PipelineContext,
                      names: Optional[Sequence[str]] = None) -> List[str]:
    """Run a pass sequence over an IR; returns the names of the passes run.

    With ``names=None`` the canonical spec of ``ctx.opt_level`` is used —
    this is the back-compat path of the three historical ``run_pipeline``
    entry points.  There is deliberately no per-pass opt-level gating here:
    the sequence *is* the policy.
    """
    if names is None:
        names = canonical_spec(ctx.opt_level).passes(stage)
    if ctx.verify:
        # Imported lazily: repro.analysis.verify imports this module for the
        # stage vocabulary.
        from repro.analysis.verify import check_pass_boundary
        check_pass_boundary(stage, ir, after=None)
    applied: List[str] = []
    for name in names:
        pipeline_pass = create_pass(stage, name)
        changed = pipeline_pass.run(ir, ctx)
        applied.append(pipeline_pass.name)
        if changed:
            ctx.modified_by.append(pipeline_pass.name)
        if ctx.verify:
            check_pass_boundary(stage, ir, after=pipeline_pass.name)
    return applied


# --------------------------------------------------------------------------- #
# Pipeline tokens: the matrix-axis vocabulary
# --------------------------------------------------------------------------- #
#: A canonical decimal: no sign and no leading zero, so every pipeline has
#: exactly one token (``O02`` or ``rand:05:1`` would name a second cell).
_NUMBER = r"(0|[1-9][0-9]*)"
_OPT_TOKEN = re.compile(rf"O{_NUMBER}")
_RAND_TOKEN = re.compile(rf"rand:{_NUMBER}:{_NUMBER}")
_SAMPLER_TOKEN = re.compile(rf"random:{_NUMBER}@{_NUMBER}")


def sample_spec(seed: int, index: int) -> PipelineSpec:
    """Deterministically draw one valid pipeline (subset + ordering).

    Pure function of ``(seed, index)``: every stage independently keeps each
    registered pass with probability :data:`SAMPLE_KEEP_PROBABILITY` (at
    least one survives) and permutes the survivors.  User-registered passes
    participate in the draw alongside the builtin ones.
    """
    _ensure_builtin_passes()
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(int(seed), int(index))))
    stages = []
    for stage in STAGES:
        pool = list(_REGISTRY[stage])
        keep = [name for name in pool
                if rng.random() < SAMPLE_KEEP_PROBABILITY]
        if not keep:
            keep = [pool[int(rng.integers(len(pool)))]]
        order = rng.permutation(len(keep))
        stages.append((stage, tuple(keep[i] for i in order)))
    return PipelineSpec(name=f"rand:{seed}:{index}", stages=tuple(stages))


def resolve_pipeline(token: str) -> PipelineSpec:
    """Turn a self-contained pipeline token into its spec.

    Accepts ``"O<k>"`` (canonical spec of that opt level, ``k`` one of
    :data:`OPT_LEVELS`) and ``"rand:<seed>:<index>"`` (deterministic
    sample), every number written without leading zeros.  The sampler
    syntax ``"random:<k>@<seed>"`` is *not* self-contained (it needs the
    campaign seed) — run it through :func:`expand_pipeline_tokens` first.
    """
    match = _OPT_TOKEN.fullmatch(token)
    if match:
        level = int(match.group(1))
        if level not in OPT_LEVELS:
            known = ", ".join(f"O{known}" for known in OPT_LEVELS)
            raise KeyError(f"unknown opt level in pipeline token {token!r}; "
                           f"expected one of {known}")
        return canonical_spec(level)
    match = _RAND_TOKEN.fullmatch(token)
    if match:
        return sample_spec(int(match.group(1)), int(match.group(2)))
    if _SAMPLER_TOKEN.fullmatch(token):
        raise KeyError(
            f"pipeline token {token!r} is a sampler, not a pipeline; expand "
            f"it with expand_pipeline_tokens(tokens, campaign_seed) first")
    raise KeyError(f"unknown pipeline token {token!r}; expected 'O<k>', "
                   f"'rand:<seed>:<index>' or 'random:<k>@<seed>', numbers "
                   f"without leading zeros")


def expand_pipeline_tokens(tokens: Sequence[str],
                           campaign_seed: int) -> List[str]:
    """Expand sampler tokens into self-contained ones; validate the rest.

    ``"random:<k>@<seed>"`` becomes ``k`` tokens ``"rand:<mixed>:<i>"``
    where ``mixed`` derives from ``(campaign_seed, <seed>)`` — the
    expansion happens coordinator-side because the parallel engine replaces
    each shard's seed, so worker-side tokens must be self-contained.
    Duplicates are dropped (first occurrence wins), matching the other
    matrix axes.
    """
    expanded: List[str] = []
    for token in tokens:
        match = _SAMPLER_TOKEN.fullmatch(token)
        if match:
            count, sampler_seed = int(match.group(1)), int(match.group(2))
            if count <= 0:
                raise ValueError(f"pipeline sampler {token!r} must draw at "
                                 f"least one pipeline")
            mixed = int(np.random.SeedSequence(
                entropy=(int(campaign_seed), sampler_seed)
            ).generate_state(1, np.uint64)[0])
            expanded.extend(f"rand:{mixed}:{index}"
                            for index in range(count))
        else:
            resolve_pipeline(token)  # raises on unknown syntax
            expanded.append(token)
    deduped: List[str] = []
    for token in expanded:
        if token not in deduped:
            deduped.append(token)
    return deduped


def describe_pass_registry() -> str:
    """Human-readable dump of both backends' pass registries (CLI
    ``--list-passes``)."""
    _ensure_builtin_passes()
    lines: List[str] = []
    for stage in STAGES:
        canonical = canonical_order(stage)
        names = registered_passes(stage)
        lines.append(f"{stage}: {len(names)} passes "
                     f"({len(canonical)} canonical)")
        for name in canonical:
            cls = _REGISTRY[stage][name]
            suffix = (f"  [O{cls.min_opt_level}+]"
                      if cls.min_opt_level > 1 else "")
            lines.append(f"  {name}{suffix}")
        for name in names:
            if name not in canonical:
                lines.append(f"  {name}  [user-registered]")
    return "\n".join(lines)
