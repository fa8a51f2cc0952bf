"""Machine-speed probes: fixed reference work that never calls ``savo``.

On a shared host the speed the process gets can swing by half for seconds to
minutes at a time. The harness times a probe after every op, with the op's
clock stopped, and divides the op's latency by the median probe time around
it (see ``harness.normalised_ms``). A probe is built from the same kinds of
work as its workload's ops, at the same shapes, so that a swing slows both
alike:

- ``dense``: forward and backward of a 40-256-256-1 ReLU net at B=256 in
  plain numpy, the shape of the update workloads' critics;
- ``batch1``: three batch-1 20-256-256-20 chains, each followed by a nearest
  scan over a 1000 x 20 table, the shape of one rollout step;
- ``grid``: a 151 x 151 Gaussian-bump grid evaluated in numpy, then a
  plateau-aware flood fill in Python over every fifth row and column,
  indexing numpy arrays cell by cell: the analysis workload's kind of work.

The probes are frozen: changing one changes every ``*_norm`` figure, so it is
a change to the benchmark, never part of a change that claims a gain.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20241015)


def _layer(n_in: int, n_out: int) -> np.ndarray:
    return _RNG.standard_normal((n_in, n_out)) / np.sqrt(n_in)


_DENSE_X = _RNG.standard_normal((256, 40))
_DENSE_W = [_layer(40, 256), _layer(256, 256), _layer(256, 1)]
_CHAIN_OBS = _RNG.standard_normal((1, 20))
_CHAIN_W = [_layer(20, 256), _layer(256, 256), _layer(256, 20)]
_TABLE = _RNG.uniform(-1.0, 1.0, size=(1000, 20))
_AXIS = np.linspace(-1.0, 1.0, 151)
_BUMPS = _RNG.uniform(-0.9, 0.9, size=(3, 2))


def dense() -> tuple:
    w1, w2, w3 = _DENSE_W
    h1 = np.maximum(_DENSE_X @ w1, 0.0)
    h2 = np.maximum(h1 @ w2, 0.0)
    dy = h2 @ w3 / len(_DENSE_X)
    g3 = h2.T @ dy
    d2 = (dy @ w3.T) * (h2 > 0.0)
    g2 = h1.T @ d2
    d1 = (d2 @ w2.T) * (h1 > 0.0)
    g1 = _DENSE_X.T @ d1
    return g1, g2, g3


def batch1() -> list:
    w1, w2, w3 = _CHAIN_W
    rows = []
    for _ in range(3):
        a = np.tanh(np.maximum(np.maximum(_CHAIN_OBS @ w1, 0.0) @ w2, 0.0) @ w3)[0]
        diff = _TABLE - a
        rows.append(int(np.argmin(np.sum(diff * diff, axis=1))))
    return rows


def grid() -> int:
    x, y = np.meshgrid(_AXIS, _AXIS, indexing="ij")
    q = np.zeros_like(x)
    for cx, cy in _BUMPS:
        q += np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / 0.05)
    v = np.round(q[::5, ::5], 2)  # rounding makes plateaus for the fill to walk
    n, m = v.shape
    visited = np.zeros((n, m), dtype=bool)
    count = 0
    for sx in range(n):
        for sy in range(m):
            if visited[sx, sy]:
                continue
            level = v[sx, sy]
            stack = [(sx, sy)]
            visited[sx, sy] = True
            is_max = True
            while stack:
                x0, y0 = stack.pop()
                for nx, ny in ((x0 + 1, y0), (x0 - 1, y0), (x0, y0 + 1), (x0, y0 - 1)):
                    if not (0 <= nx < n and 0 <= ny < m):
                        continue
                    w = v[nx, ny]
                    if w == level:
                        if not visited[nx, ny]:
                            visited[nx, ny] = True
                            stack.append((nx, ny))
                    elif w > level:
                        is_max = False
            count += is_max
    return count


MIXES = {
    "savo-update": (dense,),
    "wolpertinger-update": (dense, batch1),
    "rollout": (batch1,),
    "analysis": (grid,),
}


def probe_for(workload: str):
    """The probe of a workload: a callable returning its run time in ns."""
    parts = MIXES[workload]

    def probe_ns() -> int:
        t0 = time.perf_counter_ns()
        for part in parts:
            part()
        return time.perf_counter_ns() - t0

    return probe_ns
