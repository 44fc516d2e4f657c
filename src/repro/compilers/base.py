"""Common interfaces for the compilers under test.

Every compiler in :mod:`repro.compilers` follows the same two-phase shape the
paper describes (§2.2):

1. **conversion** — the serialized model is imported into the compiler's own
   intermediate representation;
2. **transformation** — optimization passes rewrite the IR, after which the
   model is "code generated" into an executable.

``compile_model`` covers both phases and returns a :class:`CompiledModel`
whose ``run`` method executes the optimized program.  Compilers accept an
optimization level so the differential-testing harness can re-compile at
"O0" to localize faults, exactly as §4 describes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Type)

import numpy as np

from repro.compilers.bugs import BugConfig
from repro.graph.model import Model

if TYPE_CHECKING:
    from repro.compilers.pipeline import PipelineSpec


@dataclass
class CompileOptions:
    """Options shared by every compiler."""

    opt_level: int = 2          # 0 disables every optimization pass
    bugs: BugConfig = field(default_factory=BugConfig.all)
    #: Explicit pass sequence overriding the canonical pipeline of
    #: ``opt_level`` (see :mod:`repro.compilers.pipeline`).  ``None`` means
    #: "the canonical spec of opt_level" — the historical behavior.
    pipeline: Optional["PipelineSpec"] = None
    #: Check IR well-formedness at every pass boundary (``--verify-passes``);
    #: violations raise :class:`repro.errors.IRVerificationError` out of
    #: ``compile_model``.
    verify_passes: bool = False


class CompiledModel(abc.ABC):
    """An executable produced by a compiler."""

    def __init__(self, model: Model, applied_passes: Sequence[str],
                 modified_by: Sequence[str] = ()) -> None:
        self.model = model
        self.applied_passes = list(applied_passes)
        #: Pass provenance: which of the applied passes actually rewrote the
        #: IR.  Threaded into verdicts and bug reports by the oracles.
        self.modified_by = list(modified_by)

    @abc.abstractmethod
    def run(self, inputs: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Execute the compiled model on concrete inputs.

        Returns a mapping from graph-output name to array.  Raises
        :class:`repro.errors.ExecutionError` on runtime failures.
        """


class Compiler(abc.ABC):
    """Base class for every system under test."""

    #: Short identifier used in bug reports and experiment tables.
    name: str = "compiler"
    #: Whether source coverage of this compiler can be measured (TensorRT's
    #: stand-in is treated as closed source, like in the paper).
    open_source: bool = True

    def __init__(self, options: Optional[CompileOptions] = None) -> None:
        self.options = options or CompileOptions()

    @abc.abstractmethod
    def compile_model(self, model: Model) -> CompiledModel:
        """Convert, optimize and code-generate ``model``.

        Raises:
            ConversionError: for failures while importing the model.
            TransformationError: for failures inside optimization passes.
        """

    def supported_ops(self, candidate_ops: Sequence[str]) -> List[str]:
        """Which of ``candidate_ops`` this compiler can compile.

        NNSmith probes compilers with single-operator models to learn their
        support matrix and avoid "Not-Implemented" errors (§4).  The default
        implementation reports everything as supported; compilers override
        this with their real kernel tables.
        """
        return list(candidate_ops)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(opt_level={self.options.opt_level})"


# --------------------------------------------------------------------------- #
# Named factory registry
# --------------------------------------------------------------------------- #
# The matrix campaign engine schedules work units over *compiler subsets*
# identified by name.  Names (unlike compiler instances) are trivially
# picklable and diffable, so they travel through worker processes, the
# fabric's wire and checkpoint fingerprints unchanged.
_COMPILER_REGISTRY: Dict[str, Type["Compiler"]] = {}

#: The in-repo systems under test, sorted like a matrix cell's subset: the
#: compilers of a campaign without a compiler axis.
DEFAULT_COMPILERS: Tuple[str, ...] = ("deepc", "graphrt", "turbo")


def register_compiler(cls: Type["Compiler"]) -> Type["Compiler"]:
    """Class decorator adding a compiler to the named factory registry.

    Idempotent for re-registration of the same class; a different class under
    an already-taken name is a configuration error.
    """
    name = cls.name
    existing = _COMPILER_REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(f"compiler name {name!r} already registered "
                         f"by {existing.__name__}")
    _COMPILER_REGISTRY[name] = cls
    return cls


def _ensure_builtin_compilers() -> None:
    """Import the in-repo compiler packages so they self-register."""
    import repro.compilers  # noqa: F401  (side effect: registration)


def registered_compilers() -> Tuple[str, ...]:
    """Names of every registered compiler, in deterministic order."""
    _ensure_builtin_compilers()
    return tuple(sorted(_COMPILER_REGISTRY))


def create_compiler(name: str, options: Optional[CompileOptions] = None) -> "Compiler":
    """Instantiate a registered compiler by its short name."""
    _ensure_builtin_compilers()
    try:
        cls = _COMPILER_REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown compiler {name!r}; available: "
                       f"{sorted(_COMPILER_REGISTRY)}") from None
    return cls(options)


def build_compiler_set(names: Sequence[str], opt_level: int = 2,
                       bugs: Optional[BugConfig] = None,
                       pipeline: Optional["PipelineSpec"] = None,
                       verify_passes: bool = False) -> List["Compiler"]:
    """Instantiate one compiler per name, all at the same optimization level.

    This is the per-cell factory of the matrix campaign engine: a
    ``(shard, compiler_subset, opt_level)`` cell materializes its systems
    under test through this function inside the worker process.  An explicit
    ``pipeline`` spec (the pipeline matrix axis) overrides the canonical
    pass sequence of ``opt_level`` for every backend that has pipeline
    stages; backends without any (e.g. Turbo) ignore it.
    """
    bugs = bugs if bugs is not None else BugConfig.all()
    return [create_compiler(name, CompileOptions(opt_level=opt_level,
                                                 bugs=bugs,
                                                 pipeline=pipeline,
                                                 verify_passes=verify_passes))
            for name in names]
