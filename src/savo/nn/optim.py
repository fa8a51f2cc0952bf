"""Adam and Polyak target tracking over flat lists of parameter arrays."""

from __future__ import annotations

import numpy as np

from .core import ShapeError


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's defaults (Kingma & Ba), which TD3 keeps too


class NonFiniteGradientError(ValueError):
    """A gradient contained NaN or Inf; the update was rejected."""


class AdamState:
    """First/second moment accumulators plus a step counter for one network."""

    def __init__(self, arrays: list[np.ndarray]):
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.step = 0


def adam_step(arrays: list[np.ndarray], grads: list[np.ndarray], state: AdamState, lr: float) -> None:
    """One in-place Adam update with bias correction.

    ``lr``, shapes, dtypes and gradients are validated before any state is
    touched: an ``lr`` that is not finite and >= 0 raises ``ValueError``,
    a gradient or moment whose shape or dtype differs from its parameter's
    raises ``ShapeError`` (in-place updates would round it silently), and a
    non-finite gradient raises ``NonFiniteGradientError``; each leaves
    parameters, moments and the step counter unchanged. Each parameter array
    is updated through two scratch arrays, with the operations of
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g`` and
    ``a -= (lr*(m/c1)) / (sqrt(v/c2) + eps)`` in that order.
    """
    if not 0.0 <= lr < np.inf:
        raise ValueError(f"lr must be finite and non-negative, got {lr}")
    if not len(arrays) == len(grads) == len(state.m) == len(state.v):
        raise ShapeError("parameter/gradient/state lengths disagree")
    for a, g, m, v in zip(arrays, grads, state.m, state.v):
        if a.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {a.shape}")
        if a.shape != m.shape or a.shape != v.shape:
            raise ShapeError(f"moment shapes {m.shape}, {v.shape} != parameter shape {a.shape}")
        if not a.dtype == g.dtype == m.dtype == v.dtype:
            raise ShapeError(f"gradient/moment dtypes {g.dtype}, {m.dtype}, {v.dtype} != parameter's {a.dtype}")
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError("non-finite gradient; update rejected")
    state.step += 1
    c1 = 1.0 - BETA1**state.step
    c2 = 1.0 - BETA2**state.step
    for a, g, m, v in zip(arrays, grads, state.m, state.v):
        buf = np.multiply(g, 1.0 - BETA1)
        m *= BETA1
        m += buf
        np.multiply(g, 1.0 - BETA2, out=buf)
        buf *= g
        v *= BETA2
        v += buf
        denom = np.divide(v, c2)
        np.sqrt(denom, out=denom)
        denom += EPS
        np.divide(m, c1, out=buf)
        buf *= lr
        buf /= denom
        a -= buf


def polyak_update(target: list[np.ndarray], online: list[np.ndarray], tau: float) -> None:
    """target <- (1 - tau) * target + tau * online, in place.

    Counts, shapes and dtypes are checked before any target moves; a
    mismatch raises ``ShapeError``."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    if len(target) != len(online):
        raise ShapeError("target/online array counts differ")
    for t, o in zip(target, online):
        if t.shape != o.shape or t.dtype != o.dtype:
            raise ShapeError(f"target {t.shape} {t.dtype} != online {o.shape} {o.dtype}")
    for t, o in zip(target, online):
        t *= 1.0 - tau
        t += tau * o
