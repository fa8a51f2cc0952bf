"""Single-step bandit environments whose reward surface is a bump mixture.

With one state and an immediate deterministic reward, the optimal value of
an action equals the landscape itself, so these environments isolate how an
actor architecture climbs a known multi-peaked surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..checks import frozen_copy
from .base import Env

# Points per axis of the grid that `BanditLandscape` scans for its argmax.
_SCAN_POINTS_1D = 10_001
_SCAN_POINTS_ND = 301
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal


def _margin_2d(heights: np.ndarray) -> float:
    """A bound E on |screen - exact| at one cell of a 2-D landscape.

    ``exact`` is the value ``_mixture`` computes; ``screen`` is the rank-M
    product of ``BanditLandscape._screen``. Both start from the same floats
    X, Y (the squared offsets) and s = 2 w^2, so measure both against the
    real sum of h_b exp(-a_b), with a_b = (X_b + Y_b) / s_b >= 0. Let
    u = eps/2. Assume numpy's float64 ``exp`` errs by at most 2 ulp (numpy's
    own accuracy tests hold it to 1 ulp), that is by at most 4u exp(t), plus
    2 tiny below the normal range. To first order in u:

    - rounding the exponent moves it to a_b (1 + theta), and the term by
      |h_b| a_b |theta| e^(-a_b) <= |h_b| |theta| / e, as a e^(-a) <= 1/e.
      ``_mixture`` rounds the sum X + Y and the division, |theta| <= 2u; the
      screen rounds X / s and Y / s, whose errors add to at most u a_b;
    - ``exact``: ``exp`` 4u, the product with h_b u, per term of size
      |h_b|; the running sum of M terms (M - 1) u sum |h_b|. In all at most
      (M + 4 + 2/e) u sum |h_b|;
    - ``screen``: ``exp`` 4u per factor, the product with h_b u; the
      length-M product of the factors, in any summation order, with or
      without FMA, at most M u sum |h_b| (Higham, Accuracy and Stability of
      Numerical Algorithms, ch. 3). In all at most (M + 9 + 1/e) u sum |h_b|;
    - so |screen - exact| <= (2M + 13 + 3/e) u sum |h_b|
      = (M + 6.5 + 1.5/e) eps sum |h_b|, and rounding the threshold
      ``max - 2E`` costs u |max| <= 0.5 eps sum |h_b| more.

    The code uses E = (M + 10) eps sum |h_b|, which covers all of that, the
    second-order terms and the rounding of E. The bound is absolute, not
    relative to the max: heights may be negative and the max near 0. Below
    the normal range the relative bounds fail, and each rounding errs by at
    most tiny/2 instead: about 3M products in all, which the 2M tiny term
    covers (the |h_b| tiny parts are far below eps |h_b|). If sum |h_b|
    overflows, E is inf and the shortlist keeps every cell.

    Why 2E suffices: let x be a cell where ``exact`` is largest. Its screen
    value is at least exact(x) - E, and every screen value is at most its
    own exact value + E <= exact(x) + E. So x lies within 2E of the
    screen's max, and the shortlist keeps every exact maximum.
    """
    return (len(heights) + 10) * _EPS * float(np.sum(np.abs(heights))) + 2.0 * len(heights) * _TINY


@dataclass
class BanditLandscape:
    """Mixture of Gaussian bumps on a 1-D or 2-D box.

    ``argmax`` and ``max_value`` are the first maximum, in C order, of the
    mixture over an evenly spaced grid on the box (10,001 points in 1-D, 301
    per axis in 2-D), found in two passes. A screen (``_screen``) scores every
    cell: in 1-D it is ``_mixture`` itself, in 2-D a rank-M matrix product
    within E of ``_mixture`` (``_margin_2d``). Every cell whose screen value
    lies within 2E of the screen's max is then scored with ``_mixture``, and
    the first exact max of that shortlist is the first max of the whole grid,
    bit for bit, so the values equal those of a ``_mixture`` scan of every
    cell. Raises ``ValueError``, before the scan, unless ``centers`` is
    ``(M, D)`` with ``D = len(low) = len(high)`` in {1, 2}, ``heights`` and
    ``widths`` are ``(M,)`` with ``M >= 1``, every value is finite, every width
    is positive with ``2 w^2 > 0`` in float64, and ``low < high`` on each axis.
    The arrays, ``argmax`` too, are private read-only copies, so the two
    stay those of the mixture.
    """

    low: np.ndarray
    high: np.ndarray
    centers: np.ndarray  # (M, D)
    heights: np.ndarray  # (M,)
    widths: np.ndarray  # (M,)
    argmax: np.ndarray = field(init=False)
    max_value: float = field(init=False)

    def __post_init__(self):
        self.low = frozen_copy(self.low, ndmin=1)
        self.high = frozen_copy(self.high, ndmin=1)
        self.centers = frozen_copy(self.centers, ndmin=2)
        self.heights = frozen_copy(self.heights, ndmin=1)
        self.widths = frozen_copy(self.widths, ndmin=1)
        self._validate()
        axes = self._axes(_SCAN_POINTS_1D if self.dim == 1 else _SCAN_POINTS_ND)
        screen, margin = self._screen(axes)
        flat = screen.ravel()
        # ``not <`` keeps nan: a nan screen value, or an inf margin, keeps every cell
        shortlist = np.flatnonzero(~(flat < flat.max() - 2.0 * margin))
        coords = [axis[i] for axis, i in zip(axes, np.unravel_index(shortlist, screen.shape))]
        # with E = 0 the screen is exact already
        exact = flat[shortlist] if margin == 0.0 else self._mixture(coords)
        best = int(np.argmax(exact))
        self.argmax = frozen_copy([x[best] for x in coords])
        self.max_value = float(exact[best])

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
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if not (self.widths > 0.0).all():
            raise ValueError("widths must be positive")
        # the divisor of ``_mixture`` and ``_screen``: 0 there makes 0 / -0 = nan at a centre
        if not (2.0 * self.widths * self.widths > 0.0).all():
            raise ValueError("widths must be large enough that 2 w^2 does not underflow to 0")
        if not (self.low < self.high).all():
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

    def _screen(self, axes: list[np.ndarray]) -> tuple[np.ndarray, float]:
        """A screen of the mixture over the grid spanned by ``axes``, and a
        bound E on |screen value - ``_mixture`` value| at any one cell.

        In 1-D the screen is ``_mixture`` itself, with E = 0. In 2-D each bump
        factorises over the axes, exp(-(X + Y) / s) = exp(-X / s) exp(-Y / s),
        so on the grid the mixture is a rank-M product: one bump-major (M, n)
        factor of exp terms per axis, the x factor scaled by the heights, and
        one (n, M) @ (M, n) product. X and Y are the squared offsets and
        s = 2 w^2, computed as ``_mixture`` computes them, so both forms share
        those floats, and ``_margin_2d`` bounds what the rest of each adds.
        """
        if self.dim == 1:
            return self._mixture(axes), 0.0
        scale = -(2.0 * self.widths * self.widths)[:, None]
        fx, fy = (np.square(axis - c[:, None]) / scale for axis, c in zip(axes, self.centers.T))
        np.exp(fx, out=fx)
        np.exp(fy, out=fy)
        fx *= self.heights[:, None]
        return fx.T @ fy, _margin_2d(self.heights)

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


def random_landscape(rng: np.random.Generator, dim: int = 1) -> BanditLandscape:
    m = int(rng.integers(2, 9))
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
    def __init__(self, landscape: BanditLandscape | None = None, seed: int = 0):
        self._landscape = landscape or canonical_adversarial()
        super().__init__(seed, 1, (self._landscape.low, self._landscape.high), 1)

    def _reset(self) -> np.ndarray:
        return np.zeros(1)

    def _step(self, a):
        return np.zeros(1), self._landscape.value_at(a), True, {}
