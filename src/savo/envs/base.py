"""The episode contract every environment shares."""

from __future__ import annotations

import math

import numpy as np

from ..actions import ActionTable


class EpisodeDoneError(RuntimeError):
    """A step outside an episode: before the first ``reset``, or after
    ``done`` before the next one."""


class Env:
    """Seeded, single-threaded episode environment.

    ``reset`` and ``step`` hold the episode rules for every env: the seeded
    ``_rng``, the step count ``_t``, the horizon, the done latch and the
    action check. A subclass supplies only its dynamics: ``_reset() -> obs``
    and ``_step(action) -> (obs, reward, terminal, info)``, which gets a
    checked action after ``_t`` has counted the step.

    A discrete env has an ``action_table`` and takes integer ids into it
    (``checked_id``); a continuous env takes finite vectors of shape
    ``(action_dim,)``, clipped to ``action_low/high``. Any other action
    raises ``ValueError`` before any state changes. ``done`` is
    ``terminal or _t >= horizon``; a step after it, or before the first
    ``reset``, raises ``EpisodeDoneError``.
    """

    observation_dim: int
    action_dim: int
    action_low: np.ndarray
    action_high: np.ndarray
    action_table: ActionTable | None = None

    def __init__(self, seed: int, horizon: int):
        if isinstance(horizon, bool) or not isinstance(horizon, (int, np.integer)) or horizon < 1:
            raise ValueError(f"horizon must be an integer >= 1, got {horizon!r}")
        self.horizon = int(horizon)
        self._rng = np.random.default_rng(seed)
        self._t = 0
        self._done = True  # no episode runs until the first reset

    @property
    def discrete(self) -> bool:
        return self.action_table is not None

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        self._t = 0
        self._done = False
        return self._reset()

    def step(self, action):
        if self._done:
            raise EpisodeDoneError("no episode is running: call reset() before step()")
        if self.action_table is not None:
            action = checked_id(action, len(self.action_table))
        else:
            a = np.asarray(action, dtype=np.float64)
            if a.shape != (self.action_dim,) or not all(map(math.isfinite, a.tolist())):
                raise ValueError(f"action must be a finite vector of shape ({self.action_dim},), got {action!r}")
            action = np.clip(a, self.action_low, self.action_high)
        self._t += 1
        obs, reward, terminal, info = self._step(action)
        self._done = done = bool(terminal) or self._t >= self.horizon
        return obs, reward, done, info

    def _reset(self) -> np.ndarray:
        raise NotImplementedError

    def _step(self, action):
        raise NotImplementedError


def checked_id(action_id, n: int) -> int:
    """A discrete action as an int in [0, n). Only Python and numpy integers
    are ids: a float or a bool raises ``ValueError`` instead of truncating."""
    if isinstance(action_id, bool) or not isinstance(action_id, (int, np.integer)):
        raise ValueError(f"action id must be an integer, got {action_id!r}")
    if not 0 <= action_id < n:
        raise ValueError(f"action id {action_id} out of range")
    return int(action_id)
