"""Discrete actions behind continuous representations.

A policy acts in the representation space; execution maps its output to the
nearest stored rows in Euclidean distance. The mapping is exact, with no
approximate index: value-landscape analyses need it to be reproducible down
to the tie-break. Every lookup returns the rows a brute-force scan would,
ranked by (distance, row index), where the distance is the difference form
``sum((rep - query) ** 2)`` in float64.

One kernel, ``_rank_rows``, does every lookup in two passes:

1. A screen over an index cached when the table is built: the centre ``mu``
   of the reps, the centred rows ``c_i = rep_i - mu``, their squared norms
   and the largest norm. With ``q = query - mu``, the screen value
   ``|c_i|^2 - 2 c_i.q`` is the squared distance minus ``|q|^2``, a
   constant per query, so it ranks rows like the distance does. The index
   stores ``-2 c_i`` and ``|c_i|^2`` as the columns of one (D + 1, N)
   matrix, so a batch of queries lifted to ``[q, 1]`` is screened by one
   matrix product, with no (B, N, D) difference array. Centring keeps the
   screen's rounding error in proportion to the spread of the reps, not to
   their offset from the origin.
2. An exact re-rank of a shortlist in difference form. The shortlist keeps
   every row whose screen value is within ``2E`` of the query's k-th
   smallest, where ``E`` bounds the rounding error of one screen value
   against the difference-form distance. Every row a brute-force scan ranks
   in the first k therefore survives the screen (the argument is at
   ``_margin``), and the re-rank orders the survivors as the scan would.

An action id is its row: ``nearest``, ``knn`` and ``nearest_rows`` all
return rows of ``reps``, and ``checked_id`` is the one check of an id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .checks import checked_int, frozen_copy


class ActionTableError(ValueError):
    pass


class _Index(NamedTuple):
    """Read-only screen data cached at table construction."""

    centre: np.ndarray  # (D,) mean of the reps
    screen_matrix: np.ndarray  # (D + 1, N): column i is [-2 c_i, |c_i|^2], c_i = rep_i - centre
    max_norm: float  # largest |c_i|


def _build_index(reps: np.ndarray) -> _Index:
    centre = reps.mean(axis=0)
    centred = reps - centre
    sq_norms = np.einsum("nd,nd->n", centred, centred)
    screen_matrix = np.vstack([-2.0 * centred.T, sq_norms])
    centre.setflags(write=False)
    screen_matrix.setflags(write=False)
    return _Index(centre, screen_matrix, float(np.sqrt(sq_norms.max())))


def checked_id(action_id, n: int) -> int:
    """A discrete action as an int in [0, n). Only Python and numpy integers
    are ids: a float or a bool raises ``ValueError`` instead of truncating."""
    action_id = checked_int(action_id, "action id")
    if not 0 <= action_id < n:
        raise ValueError(f"action id {action_id} out of range")
    return action_id


@dataclass
class ActionTable:
    """Immutable table of N distinct, finite representations; action id i is row i."""

    reps: np.ndarray  # (N, D)

    def __post_init__(self):
        self.reps = frozen_copy(self.reps)
        if self.reps.ndim != 2 or self.reps.shape[0] < 1:
            raise ActionTableError("representation matrix must be (N >= 1, D)")
        if not np.all(np.isfinite(self.reps)):
            raise ActionTableError("representations must be finite")
        uniq = np.unique(self.reps, axis=0)
        if uniq.shape[0] != self.reps.shape[0]:
            raise ActionTableError("duplicate representation rows make nearest() ambiguous")
        self._index = _build_index(self.reps)

    def __len__(self) -> int:
        return self.reps.shape[0]

    @property
    def dim(self) -> int:
        return self.reps.shape[1]

    @property
    def ids(self) -> range:
        return range(len(self))

    def rep_of(self, action_id: int) -> np.ndarray:
        return self.reps[checked_id(action_id, len(self))]


_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal


def _margin(dim: int, reach: float) -> float:
    """Twice a bound E on |screen value - (difference-form distance - |q|^2)|.

    ``reach`` is R >= max|c_i| + the largest |q| of the batch, so every
    |c_i|, |q| and |c_i - q| is at most R. With u = eps/2, to first order in
    u (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3: a
    length-n dot product in any summation order, with or without FMA, errs
    by at most n*u times the dot product of the absolute values):

    - the cached |c_i|^2 errs by at most D*u*R^2, and the length-(D + 1)
      product of ``[q, 1]`` with ``[-2 c_i, |c_i|^2]`` by at most
      (D + 1)*u*(|c_i|^2 + 2|c_i||q|) <= (D + 1)*u*R^2;
    - rounding ``rep_i - mu`` and ``query - mu`` moves ``c_i - q`` off
      ``rep_i - query`` by at most u*R, which moves the real squared
      distance by at most 2*u*R^2;
    - the difference form rounds each difference and square and sums D
      terms: at most (D + 2)*u*R^2;
    - rounding the threshold ``kth + 2E`` costs at most u*R^2, as
      |kth| <= R^2.

    So E = (3D + 6)*u*R^2 = (1.5D + 3)*eps*R^2. The code uses
    E = 2*(D + 3)*eps*R^2, at least 4/3 of that, which covers the
    second-order terms and the rounding of R and E. Gradual underflow adds
    at most ``_TINY``/2 per product, about 3D products in all, which the
    ``_TINY`` term covers. Every product and partial sum above is below
    2*R^2, so nothing overflows while 2*R^2 is finite; past that the margin
    is inf and the shortlist keeps every row, nan screen values included.

    Why 2E suffices: let T be a query's k-th smallest screen value. The k
    rows at or below T have difference-form distances at most T + E (offset
    by |q|^2), so the scan's k-th smallest distance is too, and every row
    the scan ranks in its first k has a screen value at most T + 2E.
    """
    return 2.0 * (dim + 3) * (_EPS * (2.0 * reach * reach) + 2.0 * _TINY)


@np.errstate(over="ignore", invalid="ignore")
def _rank_rows(queries: np.ndarray, table: ActionTable, k: int) -> np.ndarray:
    """(B, k) row indices of each query's k nearest rows by (distance, index).

    ``queries`` is a validated finite (B, D) float64 array and 1 <= k <= N.
    Products that overflow give inf or nan, which the shortlist keeps (see
    ``_margin``), so numpy's overflow and invalid-value warnings are silenced.
    """
    centre, screen_matrix, max_norm = table._index
    lifted = np.empty((len(queries), table.dim + 1))
    lifted[:, -1] = 1.0
    q = np.subtract(queries, centre, out=lifted[:, :-1])
    screen = lifted @ screen_matrix
    kth = screen.min(axis=1) if k == 1 else np.partition(screen, k - 1, axis=1)[:, k - 1]
    # vdot sums |q|^2 over the batch, a bound on the largest |q|^2 in one call.
    reach = max_norm + math.sqrt(np.vdot(q, q))
    # `~(>)` rather than `<=`, so that nan screen values stay on the shortlist.
    listed = (~(screen > (kth + _margin(table.dim, reach))[:, None])).ravel().nonzero()[0]
    rows, cols = np.divmod(listed, len(table))
    diff = table.reps.take(cols, axis=0) - queries.take(rows, axis=0)
    dist = np.einsum("md,md->m", diff, diff)
    order = np.lexsort((cols, dist, rows))
    starts = rows.searchsorted(np.arange(len(queries)))
    return cols.take(order.take(starts[:, None] + np.arange(k)))


def _checked_queries(queries, table: ActionTable, batch: bool) -> np.ndarray:
    """Queries as a finite (B, D) float64 array; one query is (1, D)."""
    q = np.asarray(queries, dtype=np.float64)
    ok_ndim = q.ndim in (1, 2) if batch else q.ndim == 1
    if not ok_ndim or q.shape[-1] != table.dim:
        want = "(B, D) or (D,)" if batch else "(D,)"
        raise ActionTableError(f"queries must be {want} with D={table.dim}, got shape {q.shape}")
    if not np.isfinite(q).all():
        raise ActionTableError("queries must be finite")
    return q.reshape(-1, table.dim)


def nearest(a: np.ndarray, table: ActionTable) -> int:
    """Id of the closest row in Euclidean distance; ties go to the lowest index."""
    return int(_rank_rows(_checked_queries(a, table, batch=False), table, 1)[0, 0])


def knn(a: np.ndarray, table: ActionTable, k: int) -> list[int]:
    """k distinct ids sorted by ascending distance, then by index."""
    k = checked_int(k, "k", ActionTableError)
    if not 1 <= k <= len(table):
        raise ActionTableError(f"k must be in [1, {len(table)}], got {k}")
    return _rank_rows(_checked_queries(a, table, batch=False), table, k)[0].tolist()


def nearest_rows(queries: np.ndarray, table: ActionTable) -> np.ndarray:
    """(B,) ids, that is rows, of the nearest representation for a batch of
    queries. Ties go to the lowest row, as in ``nearest``; a single (D,) query
    is a batch of one."""
    return _rank_rows(_checked_queries(queries, table, batch=True), table, 1)[:, 0]

