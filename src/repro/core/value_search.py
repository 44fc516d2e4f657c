"""Input/weight search for numerical validity: Algorithm 3 of the paper.

Given a generated model, the search looks for graph inputs and weights such
that *no* operator produces a NaN or Inf during execution (otherwise
differential testing would either false-alarm or miss bugs, §2.3).  Three
methods are provided, matching the Figure 11 ablation:

* :func:`sampling_search` — repeatedly draw random values from ``[1, 9]``;
* :func:`gradient_search` with proxy derivatives disabled;
* :func:`gradient_search` with proxy derivatives enabled (the default).

Every search is bounded by a step budget alone (trials or optimizer
iterations), so its outcome is a pure function of the model and the RNG;
:attr:`SearchResult.elapsed` only measures it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.autodiff import (Adam, DEFAULT_PROXY, NO_PROXY, ProxyConfig,
                            backpropagate, unbroadcast)
from repro.core.losses import losses_for_node
from repro.graph.model import Model
from repro.runtime.interpreter import Interpreter, random_inputs, random_weights


@dataclass
class SearchResult:
    """Outcome of one value search."""

    success: bool
    inputs: Dict[str, np.ndarray] = field(default_factory=dict)
    weights: Dict[str, np.ndarray] = field(default_factory=dict)
    iterations: int = 0
    elapsed: float = 0.0
    method: str = "sampling"

    def apply_weights(self, model: Model) -> Model:
        """Write the found weights into (a clone of) the model."""
        patched = model.clone()
        for name, value in self.weights.items():
            patched.initializers[name] = np.asarray(
                value, dtype=patched.initializers[name].dtype)
        return patched


def _run(model: Model, inputs, weights, interpreter: Interpreter):
    for name, value in weights.items():
        model.initializers[name] = np.asarray(
            value, dtype=model.type_of(name).dtype.numpy)
    return interpreter.run_detailed(model, inputs)


def sampling_search(model: Model, rng: Optional[np.random.Generator] = None,
                    max_trials: int = 64) -> SearchResult:
    """The paper's "Sampling" baseline: re-draw random values until valid.

    The search is bounded by ``max_trials`` alone, so its outcome is a pure
    function of the model and ``rng``.
    """
    rng = rng or np.random.default_rng()
    interpreter = Interpreter(record_intermediates=False)
    work_model = model.clone()
    start = time.monotonic()
    inputs = {}
    weights = {}
    for trials in range(1, max_trials + 1):
        inputs = random_inputs(model, rng)
        weights = random_weights(model, rng)
        result = _run(work_model, inputs, weights, interpreter)
        if result.numerically_valid:
            return SearchResult(True, inputs, weights, trials,
                                time.monotonic() - start, "sampling")
    return SearchResult(False, inputs, weights, max_trials,
                        time.monotonic() - start, "sampling")


def gradient_search(model: Model, rng: Optional[np.random.Generator] = None,
                    learning_rate: float = 0.5,
                    proxy: ProxyConfig = DEFAULT_PROXY,
                    max_iterations: int = 100) -> SearchResult:
    """Gradient-guided search (Algorithm 3).

    Starting from random values, each iteration finds the first operator (in
    topological order) that produces a NaN/Inf, picks its first positive loss
    function, and takes one Adam step on the loss gradient with respect to
    every graph input and weight.  The optimizer state is reset whenever the
    targeted operator changes; zero gradients trigger re-initialization and
    NaN/Inf parameters are replaced by fresh random values.  The search is
    bounded by ``max_iterations`` alone.
    """
    rng = rng or np.random.default_rng()
    interpreter = Interpreter(record_intermediates=True)
    work_model = model.clone()
    method = "gradient_proxy" if proxy.enabled else "gradient"

    inputs = random_inputs(model, rng)
    weights = random_weights(model, rng)
    optimizer = Adam(learning_rate=learning_rate)
    last_offender: Optional[str] = None

    start = time.monotonic()
    for iterations in range(1, max_iterations + 1):
        run = _run(work_model, inputs, weights, interpreter)
        if run.numerically_valid:
            return SearchResult(True, inputs, weights, iterations,
                                time.monotonic() - start, method)

        offender_name = run.first_exceptional_node
        offender = work_model.node_by_name(offender_name)
        if offender_name != last_offender:
            # Loss landscapes differ wildly across operators; reset Adam's
            # moment estimates when the optimization target switches.
            optimizer.reset()
            last_offender = offender_name

        offender_inputs = [run.values[name] for name in offender.inputs]
        loss = next((term for term in losses_for_node(offender)
                     if term.value(offender_inputs) > 0), None)
        if loss is None:
            inputs = random_inputs(model, rng)
            weights = random_weights(model, rng)
            optimizer.reset()
            continue

        seed_grads: Dict[str, np.ndarray] = {}
        for name, grad in zip(offender.inputs, loss.grads(offender_inputs)):
            # Loss expressions over several operands broadcast; reduce each
            # gradient back to the shape of the tensor it belongs to.
            grad = unbroadcast(grad, np.shape(run.values[name]))
            if name in seed_grads:
                seed_grads[name] = seed_grads[name] + grad
            else:
                seed_grads[name] = grad
        grads = backpropagate(work_model, run.values, seed_grads, proxy=proxy,
                              stop_after=offender_name)

        params = {**{k: v.astype(np.float64) for k, v in inputs.items()},
                  **{k: v.astype(np.float64) for k, v in weights.items()}}
        searchable = {name for name, grad in grads.items()
                      if model.type_of(name).dtype.is_float}
        active_grads = {name: grads[name] for name in searchable if name in params}
        if all(float(np.abs(g).sum()) == 0.0 for g in active_grads.values()):
            # Zero gradient everywhere: restart from fresh random values.
            inputs = random_inputs(model, rng)
            weights = random_weights(model, rng)
            optimizer.reset()
            continue

        updated = optimizer.step(params, grads)
        for name in list(updated):
            array = updated[name]
            bad = ~np.isfinite(array)
            if bad.any():
                replacement = rng.uniform(1.0, 9.0, size=array.shape)
                array = np.where(bad, replacement, array)
                updated[name] = array
        inputs = {name: np.asarray(updated[name], dtype=model.type_of(name).dtype.numpy)
                  if model.type_of(name).dtype.is_float else inputs[name]
                  for name in inputs}
        weights = {name: np.asarray(updated[name], dtype=model.type_of(name).dtype.numpy)
                   if model.type_of(name).dtype.is_float else weights[name]
                   for name in weights}

    return SearchResult(False, inputs, weights, max_iterations,
                        time.monotonic() - start, method)


def search_values(model: Model, method: str = "gradient_proxy",
                  rng: Optional[np.random.Generator] = None,
                  max_steps: int = 32) -> SearchResult:
    """Dispatch helper used by the fuzzer and the Figure 11 experiment.

    ``max_steps`` bounds the number of trials (sampling) or optimizer
    iterations (gradient search).
    """
    if method == "sampling":
        return sampling_search(model, rng, max_trials=max_steps)
    if method in ("gradient", "gradient_proxy"):
        proxy = NO_PROXY if method == "gradient" else DEFAULT_PROXY
        return gradient_search(model, rng, proxy=proxy,
                               max_iterations=max_steps)
    raise ValueError(f"unknown value-search method {method!r}")
