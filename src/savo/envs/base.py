"""The episode contract every environment shares."""

from __future__ import annotations

import math

import numpy as np

from ..actions import ActionTable, checked_id
from ..checks import checked_int, frozen_copy


class EpisodeDoneError(RuntimeError):
    """A step outside an episode: before a ``reset`` has returned, or after
    ``done``."""


class Env:
    """Seeded, single-threaded episode environment.

    ``reset`` and ``step`` hold the episode rules for every env: the seeded
    ``_rng``, the step count ``_t``, the horizon, the done latch and the
    action check. A subclass supplies only its dynamics: ``_reset() -> obs``
    and ``_step(action) -> (obs, reward, terminal, info)``, which gets a
    checked action after ``_t`` has counted the step.

    ``__init__`` takes the length of every observation, ``observation_dim``,
    and the action space: a discrete env's ``ActionTable``, whose integer ids
    ``step`` takes (``checked_id``), or a continuous env's ``(low, high)``
    box, kept as read-only copies; ``step`` takes finite vectors of shape
    ``(action_dim,)`` and clips them to it. Any other action raises
    ``ValueError`` before any state changes. ``done`` is ``terminal or
    _t >= horizon``; a step after it, or before a ``reset`` has returned,
    raises ``EpisodeDoneError``. A ``seed`` that is not an integer raises
    ``ValueError`` before any state changes. The task is fixed at
    construction: the horizon and both spaces are read-only properties.
    """

    def __init__(self, seed: int, horizon: int, actions: ActionTable | tuple, observation_dim: int):
        if checked_int(horizon, "horizon") < 1:
            raise ValueError(f"horizon must be an integer >= 1, got {horizon!r}")
        if isinstance(actions, ActionTable):
            self._action_table, self._action_dim = actions, actions.dim
            self._low = self._high = None
        else:
            low, high = (frozen_copy(bound) for bound in actions)
            if low.ndim != 1 or not low.size or high.shape != low.shape or not (low < high).all():
                raise ValueError(f"the action box must be vectors low < high of one length, got {actions!r}")
            self._action_table, self._action_dim = None, len(low)
            self._low, self._high = low, high
        self._horizon = int(horizon)
        self._observation_dim = checked_int(observation_dim, "observation_dim")
        self._rng = np.random.default_rng(checked_int(seed, "seed"))
        self._t = 0
        self._done = True  # no episode runs until the first reset

    @property
    def discrete(self) -> bool:
        return self._action_table is not None

    horizon = property(lambda self: self._horizon)
    observation_dim = property(lambda self: self._observation_dim)
    action_dim = property(lambda self: self._action_dim)
    action_table = property(lambda self: self._action_table)  # None for a continuous env
    # the box's bounds; None for a discrete env
    action_low = property(lambda self: self._low)
    action_high = property(lambda self: self._high)

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is not None:
            self._rng = np.random.default_rng(checked_int(seed, "seed"))
        self._t, self._done = 0, True  # the latch lifts only once _reset returns
        obs = self._reset()
        self._done = False
        return obs

    def step(self, action):
        if self._done:
            raise EpisodeDoneError("no episode is running: call reset() before step()")
        if self._action_table is not None:
            action = checked_id(action, len(self._action_table))
        else:
            a = np.asarray(action, dtype=np.float64)
            if a.shape != (self._action_dim,) or not all(map(math.isfinite, a.tolist())):
                raise ValueError(f"action must be a finite vector of shape ({self._action_dim},), got {action!r}")
            action = np.clip(a, self._low, self._high)
        self._t += 1
        obs, reward, terminal, info = self._step(action)
        self._done = done = bool(terminal) or self._t >= self._horizon
        return obs, reward, done, info

    def _reset(self) -> np.ndarray:
        raise NotImplementedError

    def _step(self, action):
        raise NotImplementedError

