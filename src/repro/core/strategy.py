"""Pluggable model-generation strategies and their named registry.

The campaign engine (:mod:`repro.core.fuzzer`, :mod:`repro.core.parallel`)
used to be hardcoded to the NNSmith generator; the LEMON / GraphFuzzer /
Tzer baselines lived in ad-hoc classes wired only into ``experiments/``.
This module makes *generation* a first-class, registry-named concept, the
same way :mod:`repro.compilers.base` made compilers registry-named for the
matrix engine: a :class:`GenerationStrategy` produces one
:class:`~repro.core.concretize.GeneratedModel` per ``(seed, iteration)``
pair, declares its capabilities, and is rebuilt *by name* inside worker
processes (names, unlike instances, are trivially picklable and fit in
checkpoint fingerprints).

The purity contract
-------------------
``generate(seed, iteration)`` must depend only on its arguments and the
strategy's construction-time config — never on call order, and never on
the config's oracle.  This is the property that lets the matrix engine
re-execute any subset of iterations on any worker (mid-cell checkpoint
resume, adaptive chunk stealing) while still reproducing a serial run
exactly, and lets the cells of an oracle group share one strategy
instance and one model per iteration (see
:meth:`GenerationStrategy.generate`).  Stateful
designs are wrapped accordingly: the LEMON strategy re-derives its
mutation chain from the iteration seed instead of carrying an evolving
model pool across iterations, and Tzer — which mutates DeepC's *low-level
IR*, not graphs — is represented at the graph level by its seed corpus
(exactly the paper's point: Tzer never exercises graph-level structure;
its own IR fuzzing stays in
:func:`repro.experiments.coverage_experiment.run_tzer_campaign`).

Strategies registered here: ``nnsmith`` (the solver-guided generator),
``graphfuzzer``, ``lemon``, ``tzer`` and ``targeted`` — a motif library
biased toward the rare structures (channel-strided Slice after Conv,
>4-input Concat, Squeeze without axes, ...) that plain fuzzing reaches only
with very low probability.
"""

from __future__ import annotations

import abc
import dataclasses
import functools
import random
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.concretize import GeneratedModel
from repro.core.oracle import DEFAULT_ORACLE
from repro.errors import GenerationError, ReproError
from repro.graph.model import Model

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fuzzer imports us)
    from repro.core.fuzzer import FuzzerConfig

#: The strategy assumed when a config predates the registry.  Seed streams
#: for this default are bit-identical to the pre-registry engine (see
#: :func:`strategy_entropy`), so PR-2 campaigns and the frozen corpus replay
#: unchanged.
DEFAULT_STRATEGY = "nnsmith"


def strategy_entropy(strategy: Optional[str]) -> Optional[int]:
    """Extra :class:`numpy.random.SeedSequence` entropy for a named strategy.

    ``None`` for the default strategy: the NNSmith streams must stay
    bit-identical to the pre-registry engine so existing campaign seeds,
    checkpoints-by-fingerprint and the regression corpus keep their meaning.
    Every other strategy gets its own disjoint stream per iteration.
    """
    if strategy in (None, DEFAULT_STRATEGY):
        return None
    return zlib.crc32(strategy.encode("utf-8"))


@dataclass(frozen=True)
class StrategyCapabilities:
    """What the engine may assume about a strategy.

    ``supports_op_pool``: the strategy honours
    :attr:`~repro.core.generator.GeneratorConfig.op_pool`, so probing
    compiler support matrices and baking a restricted pool into the config
    changes what it generates.  ``needs_value_search``: generated models
    benefit from Algorithm 3's input/weight search (solver-generated models
    do; mutation baselines are tested on plain random inputs, as in the
    paper's head-to-head).
    """

    supports_op_pool: bool = False
    needs_value_search: bool = False


class GenerationStrategy(abc.ABC):
    """One test-case generator behind the campaign engine.

    Subclasses are constructed from a :class:`~repro.core.fuzzer.FuzzerConfig`
    (whose ``generator`` knobs they may honour, per their capabilities) and
    must implement the pure ``generate`` step.
    """

    name: str = "strategy"
    capabilities: StrategyCapabilities = StrategyCapabilities()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "generate" in vars(cls):
            cls.generate = _remembering(cls, vars(cls)["generate"])

    @abc.abstractmethod
    def generate(self, seed: int, iteration: int) -> GeneratedModel:
        """Produce one model for this iteration.

        ``seed`` is the engine-derived per-iteration seed (already mixed
        from campaign seed, generator seed, iteration and strategy name);
        ``iteration`` is the 1-based iteration index, provided so strategies
        may round-robin deterministic structure (the ``targeted`` strategy
        cycles its motif library this way).  Raises
        :class:`~repro.errors.GenerationError` on failure.

        Generation never reads the config's oracle (:func:`build_strategy`
        hands the strategy its config with the default oracle): the cells
        of an oracle group differ only in it, so they all call the first
        cell's strategy instance (:func:`repro.core.parallel.lease_frames`).
        A repeat of the last ``(seed, iteration)`` returns the same
        :class:`~repro.core.concretize.GeneratedModel` object, or raises
        the same :class:`~repro.errors.ReproError` again, without
        generating twice, so those cells search and judge one case: every
        subclass's ``generate`` gets this when its class is created.
        """


def _remembering(owner: type, generate):
    """``owner``'s ``generate``, answering a repeat of the instance's last
    ``(seed, iteration)`` from memory (see
    :meth:`GenerationStrategy.generate`).  The memory is keyed by
    ``owner`` too, so a subclass that calls ``super().generate`` never
    answers with the model its base made."""

    @functools.wraps(generate)
    def remembered(self, seed: int, iteration: int) -> GeneratedModel:
        key = owner, seed, iteration
        last = getattr(self, "_last_generated", None)
        if last is None or last[0] != key:
            try:
                last = key, generate(self, seed, iteration), None
            except ReproError as exc:
                last = key, None, exc
            self._last_generated = last
        if last[2] is not None:
            raise last[2]
        return last[1]

    return remembered


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
#: A picklable-by-name factory: config -> strategy instance.
StrategyFactory = Callable[["FuzzerConfig"], GenerationStrategy]

_STRATEGY_REGISTRY: Dict[str, StrategyFactory] = {}


def register_strategy(name: str, factory: Optional[StrategyFactory] = None):
    """Register a generation strategy under ``name``.

    Usable as a decorator on a strategy class (whose constructor takes the
    campaign's :class:`FuzzerConfig`) or called with an explicit factory.
    Idempotent for re-registration of the same factory; a different factory
    under a taken name is a configuration error.
    """

    def _register(factory: StrategyFactory) -> StrategyFactory:
        existing = _STRATEGY_REGISTRY.get(name)
        if existing is not None and existing is not factory:
            raise ValueError(f"strategy name {name!r} already registered")
        _STRATEGY_REGISTRY[name] = factory
        return factory

    if factory is not None:
        return _register(factory)
    return _register


def registered_strategies() -> Tuple[str, ...]:
    """Names of every registered strategy, in deterministic order."""
    return tuple(sorted(_STRATEGY_REGISTRY))


def build_strategy(name: str, config: "FuzzerConfig") -> GenerationStrategy:
    """Instantiate a registered strategy for one campaign config.

    This is how workers materialize a cell's generator: the *name* travels
    through process boundaries and checkpoint fingerprints, the instance is
    built on arrival.  The strategy gets ``config`` with the default
    oracle in place of its own, so every cell of an oracle group builds
    the same strategy and generates the same models as its single-oracle
    campaign.
    """
    try:
        factory = _STRATEGY_REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown generation strategy {name!r}; registered: "
                       f"{sorted(_STRATEGY_REGISTRY)}") from None
    return factory(dataclasses.replace(config, oracle=DEFAULT_ORACLE))


# --------------------------------------------------------------------------- #
# NNSmith (the paper's generator)
# --------------------------------------------------------------------------- #
@register_strategy("nnsmith")
class NNSmithStrategy(GenerationStrategy):
    """Algorithm 1 + 2: solver-guided symbolic generation with binning."""

    name = "nnsmith"
    capabilities = StrategyCapabilities(supports_op_pool=True,
                                        needs_value_search=True)

    def __init__(self, config: "FuzzerConfig") -> None:
        self._generator_config = config.generator

    def generate(self, seed: int, iteration: int) -> GeneratedModel:
        from repro.core.generator import generate_model

        return generate_model(
            dataclasses.replace(self._generator_config, seed=seed))


# --------------------------------------------------------------------------- #
# Baselines
# --------------------------------------------------------------------------- #
def _model_op_instances(model: Model) -> List[str]:
    """Operator-instance signatures, mirroring what concretize records."""
    return [f"{node.signature()}|" +
            ",".join(str(model.type_of(name)) for name in node.inputs)
            for node in model.nodes]


def wrap_model(model: Model) -> GeneratedModel:
    """Package a builder/mutation-produced model as a GeneratedModel.

    The helper third-party strategies use to return plain
    :class:`~repro.graph.model.Model` objects from ``generate`` with the
    operator-instance metadata (Figure 9's diversity metric) filled in.
    """
    return GeneratedModel(
        model=model,
        assignment={},
        n_nodes=len(model.nodes),
        weight_names=sorted(model.initializers),
        input_names=list(model.inputs),
        op_instances=_model_op_instances(model),
    )


#: Backwards-compatible private alias (pre-1.0 name).
_wrap_model = wrap_model


@register_strategy("graphfuzzer")
class GraphFuzzerStrategy(GenerationStrategy):
    """Random operator stitching with slice/pad shape alignment."""

    name = "graphfuzzer"
    capabilities = StrategyCapabilities()

    def __init__(self, config: "FuzzerConfig") -> None:
        self._n_nodes = config.generator.n_nodes

    def generate(self, seed: int, iteration: int) -> GeneratedModel:
        from repro.baselines.graphfuzzer import GraphFuzzerGenerator

        generator = GraphFuzzerGenerator(seed=seed, n_nodes=self._n_nodes)
        return _wrap_model(generator.next_case())


@register_strategy("lemon")
class LemonStrategy(GenerationStrategy):
    """Shape-preserving mutation of the seed-model zoo.

    The original LEMON evolves one model pool across the whole campaign,
    which is order-*dependent* and would break the engine's re-execute-any-
    iteration guarantee.  Here each iteration re-derives a short mutation
    chain (1-4 mutations, chain length drawn from the iteration seed) from
    the immutable seed zoo, so ``generate`` is pure in ``(seed, iteration)``
    while mutation depth still varies like a pool would.
    """

    name = "lemon"
    capabilities = StrategyCapabilities()

    def __init__(self, config: "FuzzerConfig") -> None:
        del config
        self._zoo: Optional[List[Model]] = None  # built lazily, reused

    def generate(self, seed: int, iteration: int) -> GeneratedModel:
        from repro.baselines.lemon import LemonGenerator

        if self._zoo is None:
            from repro.baselines.seeds import build_seed_models

            self._zoo = build_seed_models()
        # A fresh pool *list* per call keeps generate pure; the zoo models
        # themselves are safe to share — LemonGenerator clones before every
        # mutation and never hands out an un-cloned pool member.
        generator = LemonGenerator(seed=seed, pool=list(self._zoo))
        depth = 1 + random.Random(seed ^ 0x5EED).randrange(4)
        model = generator.next_case()
        for _ in range(depth - 1):
            model = generator.next_case()
        return _wrap_model(model)


@register_strategy("tzer")
class TzerStrategy(GenerationStrategy):
    """Tzer's graph-level footprint: seed-zoo models with perturbed weights.

    Tzer proper mutates DeepC's low-level IR and the pass pipeline — it
    produces no graphs, which is precisely why the paper finds it blind to
    graph-level importers and optimizations.  Behind the unified engine it
    therefore replays only its seed corpus (with Gaussian weight noise, the
    sole graph-level mutation its design admits); campaigns show it finding
    next to nothing at the graph level, matching Figure 8.  Its real
    low-level fuzzing loop remains
    :func:`repro.experiments.coverage_experiment.run_tzer_campaign`.
    """

    name = "tzer"
    capabilities = StrategyCapabilities()

    def __init__(self, config: "FuzzerConfig") -> None:
        del config
        self._zoo: Optional[List[Model]] = None

    def generate(self, seed: int, iteration: int) -> GeneratedModel:
        if self._zoo is None:
            from repro.baselines.seeds import build_seed_models

            self._zoo = build_seed_models()
        rng = random.Random(seed)
        model = rng.choice(self._zoo).clone()
        np_rng = np.random.default_rng(rng.randrange(1 << 30))
        for name in sorted(model.initializers):
            array = model.initializers[name]
            if array.dtype.kind == "f" and rng.random() < 0.5:
                noise = np_rng.normal(0, 0.05, size=array.shape)
                model.initializers[name] = (array + noise).astype(array.dtype)
        return _wrap_model(model)


# Registering the targeted strategy is an import side effect, like the
# builtin compilers in repro.compilers; importing last avoids a cycle.
from repro.core import targeted as _targeted  # noqa: E402,F401
