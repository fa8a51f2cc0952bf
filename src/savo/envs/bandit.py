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
    """Mixture of Gaussian bumps on a 1-D or 2-D box.

    ``argmax`` and ``max_value`` come from a scan of an evenly spaced grid over
    the box. Raises ``ValueError``, before the scan, unless ``centers`` is
    ``(M, D)`` with ``D = len(low) = len(high)`` in {1, 2}, ``heights`` and
    ``widths`` are ``(M,)`` with ``M >= 1``, every value is finite, every width
    is positive and ``low < high`` on each axis.
    """

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
        self._validate()
        axes = self._axes(_SCAN_POINTS_1D if self.dim == 1 else _SCAN_POINTS_ND)
        values = self._mixture(np.ix_(*axes))
        best = np.unravel_index(int(np.argmax(values)), values.shape)
        self.argmax = np.array([axis[i] for axis, i in zip(axes, best)])
        self.max_value = float(values[best])

    def _validate(self) -> None:
        if self.low.ndim != 1 or self.high.shape != self.low.shape or self.dim not in (1, 2):
            raise ValueError(
                f"low and high must be vectors of one length, 1 or 2, got shapes "
                f"{self.low.shape} and {self.high.shape}"
            )
        if self.centers.ndim != 2 or self.centers.shape[0] < 1 or self.centers.shape[1] != self.dim:
            raise ValueError(f"centers must be (M, {self.dim}) with M >= 1, got shape {self.centers.shape}")
        m = self.centers.shape[0]
        if self.heights.shape != (m,) or self.widths.shape != (m,):
            raise ValueError(
                f"heights and widths must be ({m},), got shapes {self.heights.shape} and {self.widths.shape}"
            )
        for name in ("low", "high", "centers", "heights", "widths"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if not np.all(self.widths > 0.0):
            raise ValueError("widths must be positive")
        if not np.all(self.low < self.high):
            raise ValueError("low must lie below high on every axis")

    @property
    def dim(self) -> int:
        return self.low.shape[0]

    def _axes(self, points_per_axis: int) -> list[np.ndarray]:
        return [np.linspace(self.low[d], self.high[d], points_per_axis) for d in range(self.dim)]

    def grid(self, points_per_axis: int) -> np.ndarray:
        axes = self._axes(points_per_axis)
        if self.dim == 1:
            return axes[0][:, None]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def _mixture(self, coords) -> np.ndarray:
        """The bump mixture at the points spanned by ``coords``: one coordinate
        array per axis, broadcasting together to the output shape.

        Per bump, ``d2`` adds the squared offsets axis by axis from the left,
        the order ``np.sum(..., axis=1)`` takes over a row, so the values are
        the same bit for bit whatever the layout of the points.
        """
        out = np.zeros(np.broadcast_shapes(*(np.shape(x) for x in coords)))
        for c, h, w in zip(self.centers, self.heights, self.widths):
            d2 = np.square(coords[0] - c[0])
            for x, cd in zip(coords[1:], c[1:]):
                d2 = d2 + np.square(x - cd)
            # x / -y is exactly -(x / y) in IEEE arithmetic
            np.divide(d2, -(2.0 * w * w), out=d2)
            np.exp(d2, out=d2)
            d2 *= h
            out += d2
        return out

    def value(self, actions: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        if a.ndim != 2 or a.shape[1] != self.dim:
            raise ValueError(f"actions must be rows of length {self.dim}, got shape {np.shape(actions)}")
        return self._mixture([a[:, d] for d in range(self.dim)])

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
