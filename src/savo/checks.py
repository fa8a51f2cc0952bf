"""Input checks shared by the actions, envs and analysis modules."""

from __future__ import annotations

import numpy as np


def frozen_copy(values, ndmin: int = 0) -> np.ndarray:
    """A private read-only float64 copy of ``values`` with at least ``ndmin`` axes."""
    out = np.array(values, dtype=np.float64, ndmin=ndmin)
    out.setflags(write=False)
    return out


def checked_int(value, name: str, error: type[ValueError] = ValueError) -> int:
    """``value`` as an int. Only Python and numpy integers pass: a float or a
    bool raises ``error`` instead of truncating."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)
