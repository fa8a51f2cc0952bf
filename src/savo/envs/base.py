"""Common environment surface."""

from __future__ import annotations

import numpy as np


class Env:
    """Seeded, single-threaded episode environment.

    Continuous envs consume action vectors inside ``action_low/high`` and
    raise ``ValueError`` on a non-finite one before any state changes;
    discrete envs consume integer ids into their ``action_table``.
    """

    observation_dim: int
    horizon: int
    discrete: bool = False

    def reset(self, seed: int | None = None) -> np.ndarray:
        raise NotImplementedError

    def step(self, action):
        raise NotImplementedError

