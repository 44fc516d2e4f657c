"""Optimizers over dictionaries of numpy arrays.

Algorithm 3 uses Adam because the loss functions attached to different
vulnerable operators vary by orders of magnitude; Adam's per-parameter
adaptive step sizes make a single learning rate workable across all of them.
The search also resets the optimizer state whenever the targeted loss
function switches, which :meth:`Adam.reset` supports.

Adam here is *lazy* (as PyTorch's ``SparseAdam``): an element whose gradient
is exactly zero keeps its value and its moments.  A hinge loss gives every
element that already satisfies its predicate a zero gradient, and plain Adam's
momentum would keep moving it, across a pole such as ``Reciprocal``'s into a
region the next operator rejects.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np


class Adam:
    """Lazy Adam optimizer for a named collection of tensors."""

    def __init__(self, learning_rate: float = 0.5, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8) -> None:
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._step = 0
        self._first_moment: Dict[str, np.ndarray] = {}
        self._second_moment: Dict[str, np.ndarray] = {}

    def reset(self) -> None:
        """Clear moment estimates (used when the optimized loss switches)."""
        self._step = 0
        self._first_moment.clear()
        self._second_moment.clear()

    def step(self, params: Mapping[str, np.ndarray],
             grads: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Return updated parameters; neither input mapping is modified."""
        self._step += 1
        updated: Dict[str, np.ndarray] = {}
        for name, value in params.items():
            grad = np.asarray(grads.get(name, 0.0), dtype=np.float64)
            if grad.shape != np.shape(value):
                grad = np.broadcast_to(grad, np.shape(value))
            m = self._first_moment.get(name)
            v = self._second_moment.get(name)
            if m is None:
                m = np.zeros_like(grad)
                v = np.zeros_like(grad)
            live = grad != 0.0
            m = np.where(live, self.beta1 * m + (1.0 - self.beta1) * grad, m)
            v = np.where(live, self.beta2 * v + (1.0 - self.beta2) * grad * grad, v)
            self._first_moment[name] = m
            self._second_moment[name] = v
            m_hat = m / (1.0 - self.beta1 ** self._step)
            v_hat = v / (1.0 - self.beta2 ** self._step)
            delta = np.where(
                live, self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon), 0.0)
            updated[name] = np.asarray(value, dtype=np.float64) - delta
        return updated


class SGD:
    """Plain gradient descent, used as a simpler baseline in tests."""

    def __init__(self, learning_rate: float = 0.1) -> None:
        self.learning_rate = learning_rate

    def reset(self) -> None:
        """Stateless; provided for interface parity with :class:`Adam`."""

    def step(self, params: Mapping[str, np.ndarray],
             grads: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        updated: Dict[str, np.ndarray] = {}
        for name, value in params.items():
            grad = np.asarray(grads.get(name, 0.0), dtype=np.float64)
            updated[name] = np.asarray(value, dtype=np.float64) - self.learning_rate * grad
        return updated
