"""Single-step bandit environments whose reward surface is a bump mixture.

With one state and an immediate deterministic reward, the optimal value of
an action equals the landscape itself, so these environments isolate how an
actor architecture climbs a known multi-peaked surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import Env

# Points per axis of the grid that `BanditLandscape` scans for its argmax.
_SCAN_POINTS_1D = 10_001
_SCAN_POINTS_ND = 301


@dataclass
class BanditLandscape:
    """Mixture of Gaussian bumps on a box."""

    low: np.ndarray
    high: np.ndarray
    centers: np.ndarray  # (M, D)
    heights: np.ndarray  # (M,)
    widths: np.ndarray  # (M,)
    argmax: np.ndarray = field(init=False)
    max_value: float = field(init=False)

    def __post_init__(self):
        self.low = np.atleast_1d(np.asarray(self.low, dtype=np.float64))
        self.high = np.atleast_1d(np.asarray(self.high, dtype=np.float64))
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=np.float64))
        self.heights = np.atleast_1d(np.asarray(self.heights, dtype=np.float64))
        self.widths = np.atleast_1d(np.asarray(self.widths, dtype=np.float64))
        grid = self.grid(_SCAN_POINTS_1D if self.dim == 1 else _SCAN_POINTS_ND)
        values = self.value(grid)
        best = int(np.argmax(values))
        self.argmax = grid[best]
        self.max_value = float(values[best])

    @property
    def dim(self) -> int:
        return self.low.shape[0]

    def grid(self, points_per_axis: int) -> np.ndarray:
        axes = [
            np.linspace(self.low[d], self.high[d], points_per_axis) for d in range(self.dim)
        ]
        if self.dim == 1:
            return axes[0][:, None]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def value(self, actions: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        if a.ndim != 2 or a.shape[1] != self.dim:
            raise ValueError(f"actions must be rows of length {self.dim}, got shape {np.shape(actions)}")
        out = np.zeros(a.shape[0])
        for c, h, w in zip(self.centers, self.heights, self.widths):
            d2 = np.sum((a - c) ** 2, axis=1)
            out += h * np.exp(-d2 / (2.0 * w * w))
        return out

    def value_at(self, action) -> float:
        return float(self.value(np.atleast_2d(action))[0])

    def gradient(self, action: np.ndarray) -> np.ndarray:
        """Analytic gradient of the bump mixture."""
        a = np.atleast_1d(np.asarray(action, dtype=np.float64))
        g = np.zeros_like(a)
        for c, h, w in zip(self.centers, self.heights, self.widths):
            e = h * np.exp(-np.sum((a - c) ** 2) / (2.0 * w * w))
            g += e * (c - a) / (w * w)
        return g


def random_landscape(rng: np.random.Generator, n_bumps: int | None = None, dim: int = 1) -> BanditLandscape:
    m = int(n_bumps if n_bumps is not None else rng.integers(2, 9))
    return BanditLandscape(
        low=-np.ones(dim),
        high=np.ones(dim),
        centers=rng.uniform(-0.95, 0.95, size=(m, dim)),
        heights=rng.uniform(0.2, 1.0, size=m),
        widths=rng.uniform(0.04, 0.3, size=m),
    )


def canonical_adversarial() -> BanditLandscape:
    """A wide low bump around the origin (where a fresh actor starts) and a
    narrow tall bump far from it."""
    return BanditLandscape(
        low=np.array([-1.0]),
        high=np.array([1.0]),
        centers=np.array([[-0.3], [0.65]]),
        heights=np.array([0.6, 1.0]),
        widths=np.array([0.45, 0.15]),
    )


class BanditEnv(Env):
    observation_dim = 1
    action_dim = 1
    horizon = 1

    def __init__(self, landscape: BanditLandscape | None = None, seed: int = 0):
        self.landscape = landscape or canonical_adversarial()
        self.action_low = self.landscape.low
        self.action_high = self.landscape.high
        self.action_dim = self.landscape.dim
        self._rng = np.random.default_rng(seed)

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        return np.zeros(1)

    def step(self, action):
        a = np.clip(
            np.atleast_1d(np.asarray(action, dtype=np.float64)),
            self.landscape.low,
            self.landscape.high,
        )
        return np.zeros(1), self.landscape.value_at(a), True, {}
