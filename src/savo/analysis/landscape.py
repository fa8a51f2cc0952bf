"""Grid-based value-landscape diagnostics.

Local maxima are counted with plateau semantics: a maximal connected region
of equal value is one optimum iff every cell just outside it is strictly
lower. This makes thresholded surfaces (flat regions created by flooring a
landscape at a constant) countable in the obvious way, and a constant grid
counts as a single optimum.

`count_local_optima` counts them with one body for 1-D and 2-D grids alike:

- Edges: along each axis, two slices of the grid compare every cell with its
  next neighbour. Equal neighbours become an edge; a cell with a strictly
  higher neighbour is marked beaten.
- Components: a numpy union-find joins the two ends of every edge. Each round
  hooks the larger of the two roots onto the smaller (`np.minimum.at`), then
  compresses with ``root = root[root]`` until no pointer moves, so every cell
  points straight at its root. Rounds repeat until every edge's two ends
  share a root; roots only ever decrease, so the loop ends.
- Count: a component is an optimum iff none of its cells is beaten, so the
  answer is the number of roots that no beaten cell points at.
"""

from __future__ import annotations

import numpy as np


def count_local_optima(values: np.ndarray) -> int:
    """Number of (plateau-aware) strict local maxima of a 1-D or 2-D grid.

    Raises ``ValueError`` for a grid of another dimension, with no cells, or
    with a non-finite value.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim not in (1, 2):
        raise ValueError("only 1-D and 2-D grids are supported")
    if values.size == 0:
        raise ValueError("grid has no cells")
    if not np.all(np.isfinite(values)):
        raise ValueError("grid values must be finite")
    index = np.arange(values.size)
    cells = index.reshape(values.shape)
    beaten = np.zeros(values.shape, dtype=bool)
    heads, tails = [], []
    for axis in range(values.ndim):
        lo = (slice(None),) * axis + (slice(None, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        a, b = values[lo], values[hi]
        beaten[lo] |= b > a
        beaten[hi] |= a > b
        tie = a == b
        heads.append(cells[lo][tie])
        tails.append(cells[hi][tie])
    u, v = np.concatenate(heads), np.concatenate(tails)
    root = index.copy()
    while True:
        ru, rv = root[u], root[v]
        apart = ru != rv
        if not apart.any():
            break
        ru, rv = ru[apart], rv[apart]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]
    unbeaten = np.ones(values.size, dtype=bool)
    unbeaten[root[beaten.ravel()]] = False
    return int(np.count_nonzero(unbeaten & (root == index)))


def surrogate_values(q_values: np.ndarray, anchor_q: np.ndarray) -> list[np.ndarray]:
    """Exact surrogate chain on a grid: level i floors Q at the best of the
    first i anchor Q-values. Returns [Q, floor_1, ..., floor_k]. Raises
    ``ValueError``, before any level is built, unless Q is finite and the
    anchors are a finite vector."""
    q = np.asarray(q_values, dtype=np.float64)
    anchor_q = np.atleast_1d(np.asarray(anchor_q, dtype=np.float64))
    if anchor_q.ndim != 1 or not (np.isfinite(q).all() and np.isfinite(anchor_q).all()):
        raise ValueError("need finite Q values and a vector of finite anchor Q-values")
    return [q] + [np.maximum(q, tau) for tau in np.maximum.accumulate(anchor_q)]


def surrogate_optima_profile(q_values: np.ndarray, anchor_q: np.ndarray) -> list[int]:
    """[N_opt(Q), N_opt(floor_1), ..., N_opt(floor_k)] for an anchor chain."""
    return [count_local_optima(v) for v in surrogate_values(q_values, anchor_q)]


def suboptimality_gap(grid_values: np.ndarray, q_at_action: float) -> float:
    """Grid-max value minus the value at the actor's action (raw, unclamped)."""
    return float(np.max(grid_values) - q_at_action)

