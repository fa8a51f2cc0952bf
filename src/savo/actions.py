"""Discrete actions behind continuous representations.

A policy acts in the representation space; execution maps its output to the
nearest stored row by exact Euclidean scan. The scan is deliberately exact
(no approximate index): value-landscape analyses need the mapping to be
reproducible down to the tie-break.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class ActionTableError(ValueError):
    pass


@dataclass
class ActionTable:
    """Immutable id -> representation lookup with optional category labels."""

    reps: np.ndarray  # (N, D)
    ids: tuple[int, ...] = ()
    categories: np.ndarray | None = None  # (N,) ints

    def __post_init__(self):
        self.reps = np.array(self.reps, dtype=np.float64)  # a private copy, frozen below
        if self.reps.ndim != 2 or self.reps.shape[0] < 1:
            raise ActionTableError("representation matrix must be (N >= 1, D)")
        if not np.all(np.isfinite(self.reps)):
            raise ActionTableError("representations must be finite")
        self.ids = tuple(self.ids) or tuple(range(self.reps.shape[0]))
        if len(self.ids) != self.reps.shape[0]:
            raise ActionTableError("id count must match representation rows")
        self._row_of = {action_id: row for row, action_id in enumerate(self.ids)}
        if len(self._row_of) != len(self.ids):
            raise ActionTableError("ids must be unique")
        uniq = np.unique(self.reps, axis=0)
        if uniq.shape[0] != self.reps.shape[0]:
            raise ActionTableError("duplicate representation rows make nearest() ambiguous")
        self.reps.setflags(write=False)
        if self.categories is not None:
            self.categories = np.array(self.categories)
            self.categories.setflags(write=False)

    def __len__(self) -> int:
        return self.reps.shape[0]

    @property
    def dim(self) -> int:
        return self.reps.shape[1]

    def rep_of(self, action_id: int) -> np.ndarray:
        return self.reps[self._row_of[action_id]]


def _sq_dists(a: np.ndarray, table: ActionTable) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (table.dim,):
        raise ActionTableError(f"query must be a length-{table.dim} vector")
    diff = table.reps - a
    return np.einsum("nd,nd->n", diff, diff)


def nearest(a: np.ndarray, table: ActionTable) -> int:
    """Id of the closest row in Euclidean distance; ties go to the lowest index."""
    return table.ids[int(np.argmin(_sq_dists(a, table)))]


def knn(a: np.ndarray, table: ActionTable, k: int) -> list[int]:
    """k distinct ids sorted by ascending distance, then by index."""
    if not 1 <= k <= len(table):
        raise ActionTableError(f"k must be in [1, {len(table)}], got {k}")
    d = _sq_dists(a, table)
    order = np.argsort(d, kind="stable")[:k]
    return [table.ids[int(i)] for i in order]


def nearest_rows(queries: np.ndarray, table: ActionTable) -> np.ndarray:
    """Row indices of the nearest representation for a batch of queries."""
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    d = (
        np.einsum("bd,bd->b", q, q)[:, None]
        - 2.0 * q @ table.reps.T
        + np.einsum("nd,nd->n", table.reps, table.reps)[None, :]
    )
    return np.argmin(d, axis=1)


def gmm_sample_table(
    seed: int,
    n_actions: int,
    centers,
    dim: int,
    center_scale: float = 1.0,
    component_std: float = 0.15,
) -> ActionTable:
    """Representations drawn from a Gaussian mixture; component index is the category.

    ``centers`` is either a component count (centers drawn uniformly in
    ``[-center_scale, center_scale]^dim``) or an explicit (C, dim) array.
    """
    rng = np.random.default_rng(seed)
    if np.isscalar(centers):
        n_centers = int(centers)
        if n_centers < 1:
            raise ActionTableError("need at least one mixture center")
        center_mat = rng.uniform(-center_scale, center_scale, size=(n_centers, dim))
    else:
        center_mat = np.asarray(centers, dtype=np.float64)
        if center_mat.ndim != 2 or center_mat.shape[1] != dim:
            raise ActionTableError("explicit centers must be (C, dim)")
    assignment = rng.integers(0, center_mat.shape[0], size=n_actions)
    reps = center_mat[assignment] + component_std * rng.standard_normal((n_actions, dim))
    return ActionTable(reps=reps, categories=assignment.astype(np.int64))


def save_table_csv(table: ActionTable, path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "category"] + [f"d{i}" for i in range(table.dim)])
        cats = table.categories if table.categories is not None else [-1] * len(table)
        for i, action_id in enumerate(table.ids):
            writer.writerow(
                [action_id, int(cats[i])] + [f"{v:.17g}" for v in table.reps[i]]
            )


def load_table_csv(path) -> ActionTable:
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        dim = len(header) - 2
        ids, cats, rows = [], [], []
        for row in reader:
            ids.append(int(row[0]))
            cats.append(int(row[1]))
            rows.append([float(v) for v in row[2 : 2 + dim]])
    categories = None if all(c == -1 for c in cats) else np.asarray(cats, dtype=np.int64)
    return ActionTable(reps=np.asarray(rows), ids=ids, categories=categories)
