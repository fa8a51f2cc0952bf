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

``knn_rows`` is the one call that checks queries and k. ``knn`` and
``nearest_rows`` are views of it, and ``nearest`` is ``knn`` at k=1. An
action id is its row, and ``checked_id`` is the one check of an id.
"""

from __future__ import annotations

import math

import numpy as np

from .checks import checked_int, frozen_copy

__all__ = ["ActionTable", "ActionTableError", "checked_id", "knn", "knn_rows", "nearest", "nearest_rows"]


class ActionTableError(ValueError):
    pass


def checked_id(action_id, n: int) -> int:
    """A discrete action as an int in [0, n). Only Python and numpy integers
    are ids: a float or a bool raises ``ValueError`` instead of truncating."""
    action_id = checked_int(action_id, "action id")
    if not 0 <= action_id < n:
        raise ValueError(f"action id {action_id} out of range")
    return action_id


class ActionTable:
    """Immutable table of N distinct, finite representations; action id i is row i.
    ``reps`` is read-only, so the screen index cached beside it cannot go stale."""

    def __init__(self, reps):
        reps = frozen_copy(reps)
        if reps.ndim != 2 or reps.shape[0] < 1:
            raise ActionTableError("representation matrix must be (N >= 1, D)")
        if not np.all(np.isfinite(reps)):
            raise ActionTableError("representations must be finite")
        if np.unique(reps, axis=0).shape[0] != reps.shape[0]:
            raise ActionTableError("duplicate representation rows make nearest() ambiguous")
        self._reps = reps
        self._centre = reps.mean(axis=0)
        centred = reps - self._centre
        sq_norms = np.einsum("nd,nd->n", centred, centred)
        self._screen_matrix = np.vstack([-2.0 * centred.T, sq_norms])
        self._centre.setflags(write=False)
        self._screen_matrix.setflags(write=False)
        self._max_norm = float(np.sqrt(sq_norms.max()))

    reps = property(lambda self: self._reps)  # (N, D), read-only

    def __len__(self) -> int:
        return self._reps.shape[0]

    @property
    def dim(self) -> int:
        return self._reps.shape[1]

    @property
    def ids(self) -> range:
        return range(len(self))

    def rep_of(self, action_id: int) -> np.ndarray:
        return self._reps[checked_id(action_id, len(self))]


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
    lifted = np.empty((len(queries), table.dim + 1))
    lifted[:, -1] = 1.0
    q = np.subtract(queries, table._centre, out=lifted[:, :-1])
    screen = lifted @ table._screen_matrix
    kth = screen.min(axis=1) if k == 1 else np.partition(screen, k - 1, axis=1)[:, k - 1]
    # vdot sums |q|^2 over the batch, a bound on the largest |q|^2 in one call.
    reach = table._max_norm + math.sqrt(np.vdot(q, q))
    # `~(>)` rather than `<=`, so that nan screen values stay on the shortlist.
    listed = (~(screen > (kth + _margin(table.dim, reach))[:, None])).ravel().nonzero()[0]
    rows, cols = np.divmod(listed, len(table))
    diff = table.reps.take(cols, axis=0) - queries.take(rows, axis=0)
    dist = np.einsum("md,md->m", diff, diff)
    order = np.lexsort((cols, dist, rows))
    starts = rows.searchsorted(np.arange(len(queries)))
    return cols.take(order.take(starts[:, None] + np.arange(k)))


def knn_rows(queries, table: ActionTable, k: int) -> np.ndarray:
    """(B, k) ids, that is rows, of each query's k nearest representations,
    by ascending distance, then by row. A (D,) query is a batch of one."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim not in (1, 2) or q.shape[-1] != table.dim:
        raise ActionTableError(f"queries must be (B, D) or (D,) with D={table.dim}, got shape {q.shape}")
    if not np.isfinite(q).all():
        raise ActionTableError("queries must be finite")
    k = checked_int(k, "k", ActionTableError)
    if not 1 <= k <= len(table):
        raise ActionTableError(f"k must be in [1, {len(table)}], got {k}")
    return _rank_rows(q.reshape(-1, table.dim), table, k)


def nearest(a: np.ndarray, table: ActionTable) -> int:
    """Id of the closest row in Euclidean distance; ties go to the lowest index."""
    return knn(a, table, 1)[0]


def knn(a: np.ndarray, table: ActionTable, k: int) -> list[int]:
    """k distinct ids sorted by ascending distance, then by index. The query is
    one (D,) vector, not a batch."""
    if np.ndim(a) != 1:
        raise ActionTableError(f"a query must be (D,), got shape {np.shape(a)}")
    return knn_rows(a, table, k)[0].tolist()


def nearest_rows(queries: np.ndarray, table: ActionTable) -> np.ndarray:
    """(B,) ids, that is rows, of each query's nearest representation. Ties go
    to the lowest row, as in ``nearest``; a (D,) query is a batch of one."""
    return knn_rows(queries, table, 1)[:, 0]
