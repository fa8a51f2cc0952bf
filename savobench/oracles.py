"""Independent output checks, run after each op outside the timed window.

None of these call the ``savo`` function they check: retrieval is checked by
a plain difference-form scan, the landscape max by a separate grid
evaluation, and local optima by a vectorised strict four-neighbour count.
The MDP checks use the exact solvers, which the op itself never calls.
"""

from __future__ import annotations

import numpy as np

from savo.analysis.mdp import policy_evaluation_exact, value_iteration


def scan_order(query: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """Row indices by ascending exact squared distance, ties to the lower index."""
    diff = reps - query
    return np.argsort(np.sum(diff * diff, axis=1), kind="stable")


def rows_match_scan(queries: np.ndarray, rows: np.ndarray, reps: np.ndarray) -> bool:
    """Each query's returned row(s) equal the exact scan's leading rows."""
    rows = np.asarray(rows).reshape(len(queries), -1)
    return all(
        np.array_equal(scan_order(q, reps)[: r.shape[0]], r) for q, r in zip(queries, rows)
    )


def all_finite(*values) -> bool:
    return all(np.all(np.isfinite(v)) for v in values)


def arrays_identical(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b)
    )


def checkpoint_identical(live, adam, back, back_adam) -> bool:
    """Arrays, Adam moments and step read back bit for bit."""
    return adam.step == back_adam.step and arrays_identical(
        live + adam.m + adam.v, back + back_adam.m + back_adam.v
    )


def max_matches_grid(max_value: float, params: dict, points: int) -> bool:
    """A 2-D bump mixture's stored max equals its max on a ``points``-per-axis
    grid over the box, evaluated here by broadcasting."""
    c, h, w = params["centers"], params["heights"], params["widths"]
    x = np.linspace(params["low"][0], params["high"][0], points)[:, None]
    y = np.linspace(params["low"][1], params["high"][1], points)[None, :]
    total = np.zeros((points, points))
    for (cx, cy), hi, wi in zip(c, h, w):  # one bump at a time keeps the checker's memory small
        total += hi * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * wi * wi))
    want = float(np.max(total))
    return abs(max_value - want) <= 1e-12 * max(1.0, abs(want))


def strict_local_maxima(values: np.ndarray) -> int:
    """Cells strictly above all their in-grid four-neighbours."""
    padded = np.pad(values, 1, constant_values=-np.inf)
    core = padded[1:-1, 1:-1]
    return int(
        np.sum(
            (core > padded[:-2, 1:-1])
            & (core > padded[2:, 1:-1])
            & (core > padded[1:-1, :-2])
            & (core > padded[1:-1, 2:])
        )
    )


def policy_value_consistent(mdp, policy: np.ndarray, value: np.ndarray) -> bool:
    """The returned value is the policy's exact value and never beats the optimum."""
    exact = policy_evaluation_exact(mdp, policy)
    optimum = value_iteration(mdp)
    return bool(np.max(np.abs(exact - value)) <= 1e-9 and np.all(value <= optimum + 1e-8))
