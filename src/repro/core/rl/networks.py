"""Minimal feed-forward neural networks with manual backprop (NumPy only).

The DDPG agent (§3.2) needs an actor and a critic — small MLPs.  No deep
learning framework is available offline, so this module implements exactly
what DDPG requires: dense layers, ReLU/tanh/sigmoid activations, forward
passes with cached intermediates, reverse-mode gradients (including the
gradient with respect to the *input*, which the actor update needs through
the critic), an Adam optimizer, and Polyak (soft) target-network updates.

Gradients are verified against finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

Activation = str  # "relu" | "tanh" | "sigmoid" | "linear"


def _act(name: Activation, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if name == "linear":
        return z
    raise ValueError(f"unknown activation {name!r}")


def _act_grad(name: Activation, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """d activation / d z given pre-activation ``z`` and output ``a``."""
    if name == "relu":
        return z > 0.0  # a boolean mask multiplies exactly as 1.0 / 0.0
    if name == "tanh":
        return 1.0 - a * a
    if name == "sigmoid":
        return a * (1.0 - a)
    if name == "linear":
        return np.ones_like(z)
    raise ValueError(f"unknown activation {name!r}")


@dataclass
class MLP:
    """A fully-connected network ``in -> hidden... -> out``."""

    sizes: tuple[int, ...]
    hidden_activation: Activation = "relu"
    output_activation: Activation = "linear"
    weights: list[np.ndarray] = field(default_factory=list)
    biases: list[np.ndarray] = field(default_factory=list)

    @staticmethod
    def create(
        sizes: Sequence[int],
        *,
        hidden_activation: Activation = "relu",
        output_activation: Activation = "linear",
        rng: np.random.Generator | None = None,
    ) -> "MLP":
        """He/Xavier-initialised network."""
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        rng = rng if rng is not None else np.random.default_rng(0)
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return MLP(
            tuple(sizes),
            hidden_activation,
            output_activation,
            weights,
            biases,
        )

    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def parameters(self) -> list[np.ndarray]:
        return self.weights + self.biases

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Plain forward pass (no cache)."""
        return self.forward_cached(np.atleast_2d(x))[0]

    def _activations(self) -> list[Activation]:
        """Activation of each layer, input to output."""
        hidden = [self.hidden_activation] * (self.num_layers - 1)
        return [*hidden, self.output_activation]

    def forward_cached(
        self, x: np.ndarray
    ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
        """Forward pass caching (input, pre-activation, activation) per layer.

        Returns ``(output, cache)``; hand the cache to :meth:`backward`
        to backpropagate without repeating the pass.
        """
        cache = []
        a = x
        for w, b, name in zip(self.weights, self.biases, self._activations()):
            z = a @ w + b
            out = _act(name, z)
            cache.append((a, z, out))
            a = out
        return a, cache

    def backward(
        self,
        x: np.ndarray,
        upstream: np.ndarray,
        *,
        cache: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None,
        params: bool = True,
    ) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
        """Reverse-mode pass.

        ``upstream`` is dLoss/dOutput of shape (batch, out).  Returns
        (weight grads, bias grads, dLoss/dInput).  ``cache`` is the cache
        :meth:`forward_cached` built for ``x`` under the current weights;
        without it the forward pass is run again.  ``params=False``
        computes only dLoss/dInput and returns empty gradient lists.
        """
        if cache is None:
            _, cache = self.forward_cached(np.atleast_2d(x))
        grad_w: list[np.ndarray] = []
        grad_b: list[np.ndarray] = []
        delta = np.atleast_2d(upstream)
        names = self._activations()
        for i in reversed(range(self.num_layers)):
            a_in, z, a_out = cache[i]
            name = names[i]
            if name != "linear":  # the linear derivative is exactly 1
                delta = delta * _act_grad(name, z, a_out)
            if params:
                grad_w.append(a_in.T @ delta)
                grad_b.append(delta.sum(axis=0))
            delta = delta @ self.weights[i].T
        grad_w.reverse()
        grad_b.reverse()
        return grad_w, grad_b, delta

    # ------------------------------------------------------------------
    def clone(self) -> "MLP":
        return MLP(
            self.sizes,
            self.hidden_activation,
            self.output_activation,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )

    def soft_update_from(self, source: "MLP", tau: float) -> None:
        """Polyak averaging: ``theta <- tau * source + (1 - tau) * theta``."""
        if not 0.0 <= tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        for mine, theirs in zip(self.parameters(), source.parameters()):
            mine *= 1.0 - tau
            mine += tau * theirs

    def copy_from(self, source: "MLP") -> None:
        self.soft_update_from(source, 1.0)


@dataclass
class Adam:
    """Adam optimizer over a list of parameter arrays (updated in place).

    The moments live in two flat vectors covering every parameter, so a
    step is a handful of whole-vector operations; the arithmetic per
    element is exactly the per-array update's.
    """

    params: list[np.ndarray]
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    _m: np.ndarray = field(init=False, repr=False)
    _v: np.ndarray = field(init=False, repr=False)
    _bounds: list[tuple[int, int]] = field(init=False, repr=False)
    _t: int = 0

    def __post_init__(self) -> None:
        sizes = [p.size for p in self.params]
        ends = np.cumsum(sizes).tolist()
        self._bounds = list(zip([0, *ends[:-1]], ends))
        self._m = np.zeros(sum(sizes))
        self._v = np.zeros(sum(sizes))

    def step(self, grads: Sequence[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ValueError("gradient list length mismatch")
        self._t += 1
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        g = np.concatenate([np.ravel(grad) for grad in grads])
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * (g * g)
        update = self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        for p, (lo, hi) in zip(self.params, self._bounds):
            p -= update[lo:hi].reshape(p.shape)
