"""The reference interpreter — this repo's "PyTorch" oracle.

The interpreter executes a model node by node with the reference numpy
kernels, optionally recording every intermediate tensor and the first
operator whose output contains a floating-point exceptional value.  The
differential-testing harness uses it as the trusted baseline (§4 motivates
why the paper uses PyTorch the same way), and the gradient-guided value
search uses the recorded intermediates and NaN/Inf positions.

Execution runs over a cached per-model *execution plan*
(:mod:`repro.core.cache`): topological order with each node's kernel
pre-resolved once per model instead of re-dispatched per run.  Two
correctness properties of the run loop:

* Initializers enter the value environment as **read-only views** — a
  mutating kernel or a caller poking at ``RunResult.values`` can no longer
  silently corrupt the model's weights for later iterations.
* With ``record_intermediates=False``, dead intermediates are dropped
  eagerly (refcounted by remaining consumers from the plan) instead of
  being retained until function exit; ``RunResult.peak_live_values``
  reports the high-water mark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.errors import ExecutionError, GraphError, UnsupportedOperatorError
from repro.graph.model import Model

_cache_module = None


def _hot_cache():
    """Lazy import of :mod:`repro.core.cache`.

    ``repro.core.__init__`` imports the whole core package (including the
    cache module, which imports ``repro.ops``); importing it at this
    module's import time would create a cycle for anyone importing the
    runtime package first.
    """
    global _cache_module
    if _cache_module is None:
        from repro.core import cache
        _cache_module = cache
    return _cache_module


@dataclass
class RunResult:
    """Outcome of one interpreter run."""

    outputs: Dict[str, np.ndarray]
    values: Dict[str, np.ndarray] = field(default_factory=dict)
    #: Name of the first node (in topological order) whose output contains a
    #: NaN or Inf, or None when the whole execution is numerically valid.
    first_exceptional_node: Optional[str] = None
    #: Names of every node that produced a NaN/Inf output.
    exceptional_nodes: List[str] = field(default_factory=list)
    #: High-water mark of simultaneously live values during the run (inputs,
    #: weights and intermediates).  With ``record_intermediates=True`` this
    #: equals the total value count; with ``False`` it shows how much the
    #: eager dead-value dropping actually saved.
    peak_live_values: int = 0

    @property
    def numerically_valid(self) -> bool:
        """True when no operator produced a NaN or Inf (§2.3, challenge #3)."""
        return self.first_exceptional_node is None


class Interpreter:
    """Reference executor for computation graphs."""

    def __init__(self, record_intermediates: bool = True) -> None:
        self.record_intermediates = record_intermediates

    def run(self, model: Model, inputs: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Execute the model and return only its outputs."""
        return self.run_detailed(model, inputs).outputs

    def run_detailed(self, model: Model,
                     inputs: Mapping[str, np.ndarray]) -> RunResult:
        """Execute the model, recording intermediates and NaN/Inf producers."""
        plan = _hot_cache().execution_plan(model)
        values: Dict[str, np.ndarray] = {}
        for name in model.inputs:
            if name not in inputs:
                raise ExecutionError(f"missing graph input {name!r}")
            expected = model.type_of(name)
            array = np.asarray(inputs[name], dtype=expected.dtype.numpy)
            if tuple(array.shape) != expected.shape:
                raise ExecutionError(
                    f"input {name!r} has shape {array.shape}, expected {expected.shape}")
            values[name] = array
        for name, array in model.initializers.items():
            # Read-only view: shares the weight's buffer without letting a
            # kernel (or a RunResult.values consumer) write through to it.
            view = np.asarray(array).view()
            view.setflags(write=False)
            values[name] = view

        record = self.record_intermediates
        remaining = None if record else dict(plan.consumers)
        protected = plan.protected
        first_exceptional: Optional[str] = None
        exceptional: List[str] = []
        peak = len(values)
        for kernel_func, node, bad_input in plan.steps:
            if bad_input is not None:
                raise GraphError(
                    f"node {node.name} consumes unavailable value {bad_input!r}")
            node_inputs = [np.asarray(values[name]) for name in node.inputs]
            if kernel_func is None:
                raise UnsupportedOperatorError(
                    f"no kernel for operator {node.op!r}")
            try:
                results = kernel_func(node.attrs, node_inputs)
            except (ValueError, IndexError, ZeroDivisionError) as exc:
                raise ExecutionError(f"kernel {node.op} failed: {exc}") from exc
            for output_name, array in zip(node.outputs, results):
                values[output_name] = array
            if _has_exceptional(results):
                exceptional.append(node.name)
                if first_exceptional is None:
                    first_exceptional = node.name
            if len(values) > peak:
                peak = len(values)
            if remaining is not None:
                for input_name in node.inputs:
                    count = remaining.get(input_name)
                    if count is None:
                        continue
                    count -= 1
                    remaining[input_name] = count
                    if count == 0 and input_name not in protected:
                        values.pop(input_name, None)
                for output_name in node.outputs:
                    if (output_name not in protected
                            and remaining.get(output_name, 0) == 0):
                        values.pop(output_name, None)

        outputs = {name: values[name] for name in model.outputs}
        return RunResult(
            outputs=outputs,
            values=values if record else {},
            first_exceptional_node=first_exceptional,
            exceptional_nodes=exceptional,
            peak_live_values=peak,
        )


def _has_exceptional(arrays: List[np.ndarray]) -> bool:
    for array in arrays:
        if array.dtype.kind == "f" and not np.all(np.isfinite(array)):
            return True
    return False


def _integer_draw(rng: np.random.Generator, low: float, high: float,
                  size) -> np.ndarray:
    """Integers uniform over the closed range ``[int(low), int(high)]``.

    Every integer in the range is reachable (with the default 1.0/9.0
    range, 9 is drawn); swapped bounds are reordered.  The seeded corpus
    and the pinned smoke seeds depend on this exact stream.
    """
    lo, hi = int(low), int(high)
    if hi < lo:
        lo, hi = hi, lo
    return rng.integers(lo, hi + 1, size=size)


def random_inputs(model: Model, rng: Optional[np.random.Generator] = None,
                  low: float = 1.0,
                  high: float = 9.0) -> Dict[str, np.ndarray]:
    """Sample random graph inputs (the paper's "Sampling" baseline range).

    Floats are drawn uniformly from ``[low, high)``, integers from the
    closed range (see :func:`_integer_draw`) and booleans as fair coin
    flips.
    """
    rng = rng or np.random.default_rng()
    result: Dict[str, np.ndarray] = {}
    for name in model.inputs:
        ttype = model.type_of(name)
        if ttype.dtype.is_float:
            data = rng.uniform(low, high, size=ttype.shape)
        elif ttype.dtype.is_int:
            data = _integer_draw(rng, low, high, ttype.shape)
        else:
            data = rng.integers(0, 2, size=ttype.shape).astype(bool)
        result[name] = np.asarray(data, dtype=ttype.dtype.numpy)
    return result


def random_weights(model: Model, rng: Optional[np.random.Generator] = None,
                   low: float = 1.0,
                   high: float = 9.0) -> Dict[str, np.ndarray]:
    """Sample replacement values for the model's initializers.

    Same distribution rules as :func:`random_inputs`.
    """
    rng = rng or np.random.default_rng()
    result: Dict[str, np.ndarray] = {}
    for name, array in model.initializers.items():
        if array.dtype.kind == "f":
            data = rng.uniform(low, high, size=array.shape)
        elif array.dtype.kind in "iu":
            data = _integer_draw(rng, low, high, array.shape)
        else:
            data = rng.integers(0, 2, size=array.shape).astype(bool)
        result[name] = np.asarray(data, dtype=array.dtype)
    return result
