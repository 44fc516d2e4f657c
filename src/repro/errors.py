"""Exception hierarchy shared across the repro package.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers (the fuzzer, the differential-testing harness, the experiment
drivers) can distinguish *expected* failures (e.g. an unsatisfiable
constraint system, a compiler rejecting an invalid model) from genuine
programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphError(ReproError):
    """Raised when a computation graph is structurally malformed."""


class TypeCheckError(GraphError):
    """Raised when a graph fails type checking (shape/dtype mismatch)."""


class ShapeInferenceError(GraphError):
    """Raised when concrete shape inference fails for an operator."""


class UnsupportedOperatorError(ReproError):
    """Raised when an operator kind is not known to a registry or backend."""


class SolverError(ReproError):
    """Base class for constraint-solver errors."""


class UnsatisfiableError(SolverError):
    """Raised when a constraint system has no model within the search budget."""


class SolverTimeoutError(SolverError):
    """Raised when the solver exhausts its step budget without a verdict."""


class GenerationError(ReproError):
    """Raised when model generation cannot make progress."""


class CompilerError(ReproError):
    """Base class for errors raised by the compilers under test.

    A compiler raising :class:`CompilerError` (or a subclass) is a *crash*
    from the point of view of the differential-testing harness.
    """


class ConversionError(CompilerError):
    """Raised by a compiler front end while importing a model."""


class TransformationError(CompilerError):
    """Raised by a compiler optimization pass."""


class ExecutionError(CompilerError):
    """Raised by a compiled executable at run time."""


class IRVerificationError(CompilerError):
    """Raised by the pass-boundary IR verifier (:mod:`repro.analysis`).

    A pass left the IR executing-but-ill-formed (dangling value ref, stale
    recorded type, unknown attribute, ...).  Harness layers that want the
    dedicated ``verifier`` symptom catch this *before* the generic
    :class:`CompilerError` handler; anywhere else it degrades to a crash.
    """


class ExportError(ReproError):
    """Raised by the model exporter (the "PyTorch exporter" analogue)."""
