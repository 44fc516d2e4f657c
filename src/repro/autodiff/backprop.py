"""Reverse-mode differentiation through a computation graph.

Given a model, the concrete value of every tensor in a forward run and a
gradient seed on one intermediate value, :func:`backpropagate` returns the
gradients of that value with respect to the model's inputs and weights.  The
gradient-guided value search (Algorithm 3) seeds the gradient of its loss on
the *input* of the first operator producing a NaN/Inf and uses the result to
update ``<X, W>``.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.autodiff.proxy import DEFAULT_PROXY, ProxyConfig
from repro.autodiff.vjp import backward_node
from repro.graph.model import Model
from repro.runtime.interpreter import execution_plan


def _node_order(model: Model):
    """Topological node order, served from the model's execution plan.

    The gradient-guided value search backpropagates once per search step, so
    re-walking ``topological_order()`` per call is hot-path waste; the
    interpreter already holds the order per model.  A truncated plan
    (statically-bad input or missing kernel — shapes the forward run would
    have rejected) falls back to the plain walk.
    """
    plan = execution_plan(model)
    if len(plan.steps) == plan.n_nodes and all(
            step[0] is not None and step[2] is None for step in plan.steps):
        return [step[1] for step in plan.steps]
    return model.topological_order()


def backpropagate(model: Model, values: Mapping[str, np.ndarray],
                  seed_grads: Mapping[str, np.ndarray],
                  proxy: ProxyConfig = DEFAULT_PROXY,
                  stop_after: Optional[str] = None,
                  bugs=None,
                  triggered: Optional[list] = None) -> Dict[str, np.ndarray]:
    """Propagate gradients from ``seed_grads`` back to inputs and weights.

    Args:
        model: the computation graph.
        values: concrete arrays for every value name touched by the forward
            run (inputs, weights, intermediates).
        seed_grads: the gradient flowing into one or more value names.
        proxy: proxy-derivative configuration.
        stop_after: optional node name; nodes after it in topological order
            are skipped (they cannot influence the seeded values anyway when
            the seed sits on that node's input).
        bugs: optional :class:`repro.compilers.bugs.BugConfig` activating
            the seeded wrong-VJP bugs (``None`` — the default everywhere
            except the ``gradcheck`` oracle — keeps every VJP correct).
        triggered: optional list collecting seeded bug ids whose buggy
            backward path executed.

    Returns:
        Gradients for every graph input and initializer (zero arrays for
        values the seeds do not reach).
    """
    grads: Dict[str, np.ndarray] = {
        name: np.asarray(grad, dtype=np.float64) for name, grad in seed_grads.items()
    }

    ordered = _node_order(model)
    if stop_after is not None:
        cutoff = next((i for i, node in enumerate(ordered) if node.name == stop_after),
                      len(ordered) - 1)
        ordered = ordered[: cutoff + 1]

    for node in reversed(ordered):
        grad_outputs = [grads.get(name) for name in node.outputs]
        if all(g is None for g in grad_outputs):
            continue
        input_arrays = [np.asarray(values[name]) for name in node.inputs]
        output_arrays = [np.asarray(values[name]) for name in node.outputs]
        input_grads = backward_node(node, input_arrays, output_arrays,
                                    grad_outputs, proxy,
                                    bugs=bugs, triggered=triggered)
        for name, grad in zip(node.inputs, input_grads):
            if name in grads:
                grads[name] = grads[name] + grad
            else:
                grads[name] = grad

    result: Dict[str, np.ndarray] = {}
    for name in list(model.inputs) + list(model.initializers):
        if name in grads:
            result[name] = grads[name]
        else:
            result[name] = np.zeros(model.type_of(name).shape, dtype=np.float64)
    return result


def gradient_norm(grads: Mapping[str, np.ndarray]) -> float:
    """Euclidean norm across a gradient dictionary (0.0 when empty)."""
    total = 0.0
    for grad in grads.values():
        finite = np.nan_to_num(np.asarray(grad, dtype=np.float64),
                               nan=0.0, posinf=0.0, neginf=0.0)
        total += float(np.sum(finite * finite))
    return float(np.sqrt(total))
