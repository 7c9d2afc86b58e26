"""The experience pool (§3.2).

After each inference, the pool collects the per-layer transitions
``E_k = (S_k, S_{k+1}, a_k, R)`` (Eq. 3) — the whole-model reward is
broadcast to every layer's transition.  The agent samples uniform random
mini-batches to update the actor-critic pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Transition:
    """One experience tuple ``(S_k, S_{k+1}, a_k, R)`` plus a terminal flag."""

    state: np.ndarray
    next_state: np.ndarray
    action: float
    reward: float
    done: bool


class ExperiencePool:
    """Fixed-capacity ring buffer with uniform sampling.

    Transitions are stored as a struct of arrays: ``(capacity, D)`` state
    and next-state rows plus one ``(capacity, 3)`` block of action,
    reward and done flag, allocated on the first :meth:`add` (with
    ``np.empty``, so rows never written are never made resident).  A
    mini-batch is then a few fancy-indexed row reads.
    """

    def __init__(self, capacity: int, *, seed: int = 0) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._states: np.ndarray | None = None
        self._next_states: np.ndarray | None = None
        self._scalars: np.ndarray | None = None  #: action, reward, done
        self._size = 0
        self._cursor = 0
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        return self._size

    @property
    def full(self) -> bool:
        return self._size == self.capacity

    def add(self, transition: Transition) -> None:
        """Store one transition, overwriting the oldest once full.

        Raises :class:`ValueError` naming the field when a state's shape
        differs from the pool's first-seen 1-D state shape, or when the
        action, reward or done flag is not a finite number.
        """
        state = np.asarray(transition.state)
        next_state = np.asarray(transition.next_state)
        scalars = [
            _finite("action", transition.action),
            _finite("reward", transition.reward),
            _finite("done", transition.done),
        ]
        expected = state.shape if self._states is None else self._states.shape[1:]
        if len(expected) != 1:
            raise ValueError(f"transition state must be 1-D, got shape {state.shape}")
        for name, value in (("state", state), ("next_state", next_state)):
            if value.shape != expected:
                raise ValueError(
                    f"transition {name} has shape {value.shape}, "
                    f"the pool holds states of shape {expected}"
                )
        if self._states is None:
            self._states = np.empty((self.capacity, *expected))
            self._next_states = np.empty((self.capacity, *expected))
            self._scalars = np.empty((self.capacity, 3))
        row = self._cursor
        self._states[row] = state
        self._next_states[row] = next_state
        self._scalars[row] = scalars
        self._cursor = (row + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def extend(self, transitions) -> None:
        for t in transitions:
            self.add(t)

    def sample(
        self, batch_size: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Uniform mini-batch as stacked arrays.

        Returns ``(states, next_states, actions, rewards, dones)`` with
        shapes ``(B, D), (B, D), (B, 1), (B, 1), (B, 1)``.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not self._size:
            raise ValueError("cannot sample from an empty pool")
        idx = self._rng.integers(0, self._size, size=batch_size)
        scalars = self._scalars[idx]
        return (
            self._states[idx],
            self._next_states[idx],
            scalars[:, 0:1],
            scalars[:, 1:2],
            scalars[:, 2:3],
        )


def _finite(name: str, value: object) -> float:
    """``value`` as a float, or a :class:`ValueError` naming the field."""
    try:
        number = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(
            f"transition {name} must be a finite number, got {value!r}"
        )
    return number
