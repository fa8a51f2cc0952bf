"""Analytic cart-pole balancing with optional hypersphere action restrictions.

The action is a single force command in [-1, 1]. When a restriction is
active, any command outside every valid sphere is executed as the
replacement command (-1, a hard push left), which carves the reachable
force range into disjoint valid islands and makes the value-versus-action
surface multi-peaked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..checks import frozen_copy
from .base import Env

GRAVITY = 9.8
CART_MASS = 1.0
POLE_MASS = 0.1
POLE_HALF_LENGTH = 0.5
FORCE_SCALE = 10.0
DT = 0.02
THETA_LIMIT = 12.0 * np.pi / 180.0
HORIZON = 500


@dataclass
class RestrictionSpec:
    """Valid-action spheres on the 1-D force axis plus the command executed
    for invalid actions, kept as private read-only float64 copies. Raises
    ``ValueError`` unless they are finite, with at least one sphere and
    every radius positive."""

    centers: np.ndarray  # (M, 1)
    radii: np.ndarray  # (M,)
    replacement: np.ndarray  # (1,)

    def __post_init__(self):
        self.centers = frozen_copy(self.centers, ndmin=2)
        self.radii = frozen_copy(self.radii, ndmin=1)
        self.replacement = frozen_copy(self.replacement, ndmin=1)
        m = len(self.centers)
        if m < 1 or self.centers.shape != (m, 1) or self.radii.shape != (m,) or self.replacement.shape != (1,):
            raise ValueError(
                f"need centers (M, 1) with M >= 1, radii (M,) and a replacement (1,), got shapes "
                f"{self.centers.shape}, {self.radii.shape} and {self.replacement.shape}"
            )
        if np.any(self.radii <= 0.0):
            raise ValueError("sphere radii must be positive")
        if not all(np.isfinite(x).all() for x in (self.centers, self.radii, self.replacement)):
            raise ValueError("restriction centers, radii and replacement must be finite")


def check_valid(action: np.ndarray, restriction: RestrictionSpec) -> bool:
    """True iff the action lies inside at least one (closed) sphere. Raises
    ``ValueError`` unless the action is one finite value."""
    a = np.atleast_1d(np.asarray(action, dtype=np.float64))
    if a.shape != (1,) or not math.isfinite(a[0]):
        raise ValueError(f"action must be one finite value, got {action!r}")
    d = np.linalg.norm(restriction.centers - a, axis=1)
    return bool(np.any(d <= restriction.radii))


# the one restricted task: four disjoint spheres of radius 0.12, one positive
# island at +0.58 among three negative decoys, and the idle action 0 invalid
CANONICAL_RESTRICTION = RestrictionSpec(
    centers=np.array([
        [-0.87342773398834628],
        [-0.60814849733186582],
        [-0.22961609334011623],
        [0.58088400445107224],
    ]),
    radii=np.full(4, 0.12),
    replacement=np.array([-1.0]),
)


class CartPoleEnv(Env):
    """Semi-implicit Euler cart-pole; +1 reward per step while the pole is upright."""

    _obs_scale = np.array([2.4, 3.0, THETA_LIMIT, 3.0])

    def __init__(self, restriction: RestrictionSpec | None = None, seed: int = 0):
        super().__init__(seed, HORIZON, ([-1.0], [1.0]), 4)
        self._restriction = restriction
        self._state = np.zeros(4)  # x, x_dot, theta, theta_dot

    def _reset(self) -> np.ndarray:
        self._state = self._rng.uniform(-0.05, 0.05, size=4)
        return self._observe()

    def _observe(self) -> np.ndarray:
        return self._state / self._obs_scale

    def _step(self, a):
        if self._restriction is not None and not check_valid(a, self._restriction):
            a = self._restriction.replacement
        x, x_dot, theta, theta_dot = self._state
        force = FORCE_SCALE * float(a[0])
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        total_mass = CART_MASS + POLE_MASS
        pm_l = POLE_MASS * POLE_HALF_LENGTH
        temp = (force + pm_l * theta_dot**2 * sin_t) / total_mass
        theta_acc = (GRAVITY * sin_t - cos_t * temp) / (
            POLE_HALF_LENGTH * (4.0 / 3.0 - POLE_MASS * cos_t**2 / total_mass)
        )
        x_acc = temp - pm_l * theta_acc * cos_t / total_mass
        x_dot += DT * x_acc
        x += DT * x_dot
        theta_dot += DT * theta_acc
        theta += DT * theta_dot
        self._state = np.array([x, x_dot, theta, theta_dot])
        return self._observe(), 1.0, abs(theta) > THETA_LIMIT, {"executed": a.copy()}
