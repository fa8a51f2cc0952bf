"""Common environment surface."""

from __future__ import annotations

import numpy as np


class Env:
    """Seeded, single-threaded episode environment.

    Continuous envs consume action vectors inside ``action_low/high`` and
    raise ``ValueError`` on a non-finite one before any state changes;
    discrete envs consume integer ids into their ``action_table`` and raise
    ``ValueError`` on any other id before any state changes.
    """

    observation_dim: int
    horizon: int
    discrete: bool = False

    def reset(self, seed: int | None = None) -> np.ndarray:
        raise NotImplementedError

    def step(self, action):
        raise NotImplementedError


def checked_id(action_id, n: int) -> int:
    """A discrete action as an int in [0, n). Only Python and numpy integers
    are ids: a float or a bool raises ``ValueError`` instead of truncating."""
    if isinstance(action_id, bool) or not isinstance(action_id, (int, np.integer)):
        raise ValueError(f"action id must be an integer, got {action_id!r}")
    if not 0 <= action_id < n:
        raise ValueError(f"action id {action_id} out of range")
    return int(action_id)
