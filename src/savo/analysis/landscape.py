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

import csv
from pathlib import Path

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
    first i anchor Q-values. Returns [Q, floor_1, ..., floor_k]."""
    out = [np.asarray(q_values, dtype=np.float64)]
    anchor_q = np.atleast_1d(np.asarray(anchor_q, dtype=np.float64))
    tau = -np.inf
    for i in range(anchor_q.shape[0]):
        tau = max(tau, float(anchor_q[i]))
        out.append(np.maximum(out[0], tau))
    return out


def surrogate_optima_profile(q_values: np.ndarray, anchor_q: np.ndarray) -> list[int]:
    """[N_opt(Q), N_opt(floor_1), ..., N_opt(floor_k)] for an anchor chain."""
    return [count_local_optima(v) for v in surrogate_values(q_values, anchor_q)]


def suboptimality_gap(grid_values: np.ndarray, q_at_action: float) -> float:
    """Grid-max value minus the value at the actor's action (raw, unclamped)."""
    return float(np.max(grid_values) - q_at_action)


def export_landscape(
    path,
    actions: np.ndarray,
    q_values: np.ndarray,
    exact_surrogates: list[np.ndarray] = (),
    learned_surrogates: list[np.ndarray] = (),
) -> None:
    """CSV dump: action coords, q, then exact and learned surrogate columns.

    ``actions`` is ``(N,)`` for N 1-D actions or ``(N, D)`` for N rows; q and
    every surrogate must hold N values, else ``ValueError`` is raised before
    the file is opened.
    """
    actions = np.asarray(actions, dtype=np.float64)
    if actions.ndim == 1:
        actions = actions[:, None]
    if actions.ndim != 2:
        raise ValueError(f"actions must be (N,) or (N, D), got shape {actions.shape}")
    n, dim = actions.shape
    header = [f"a{i}" for i in range(dim)] + ["q"]
    header += [f"psi_{i + 1}" for i in range(len(exact_surrogates))]
    header += [f"psi_hat_{i + 1}" for i in range(len(learned_surrogates))]
    values = [np.asarray(c) for c in (q_values, *exact_surrogates, *learned_surrogates)]
    for name, column in zip(header[dim:], values):
        if column.shape != (n,):
            raise ValueError(f"column {name} has shape {column.shape}, expected ({n},)")
    columns = [actions[:, i] for i in range(dim)] + values
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([f"{v:.17g}" for v in row])


def load_landscape_csv(path) -> tuple[list[str], np.ndarray]:
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, np.asarray(rows)
