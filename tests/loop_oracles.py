"""Loop-form references for the array code in ``savo``.

- ``EagerLandscape`` builds the stacked ``(points, D)`` grid over the box and
  sums each bump's squared offsets with ``np.sum(..., axis=1)``.
- ``loop_policy_iteration`` improves one state at a time, with one draw of
  ``k_proposals`` actions per state.
- ``loop_value_iteration`` stops on the Bellman residual max |Tv - v|, not
  on the span bound; its values agree with ``value_iteration`` within the
  two stopping rules' error bounds, not bit for bit.
- ``bellman_residual`` is that residual, max |Tv - v|, at any ``v``.

Tests compare ``savo`` against the first two with ``np.array_equal`` or
``==``, never with a tolerance, and the benchmark contract test swaps them
into the ``analysis`` workload to compare per-op digests.
"""

from __future__ import annotations

import numpy as np

from savo.analysis.mdp import ConvergenceError, policy_evaluation_exact
from savo.envs import BanditLandscape


class EagerLandscape(BanditLandscape):
    """A ``BanditLandscape`` whose value and argmax scan are the loop forms."""

    def __post_init__(self):
        self.low = np.atleast_1d(np.asarray(self.low, dtype=np.float64))
        self.high = np.atleast_1d(np.asarray(self.high, dtype=np.float64))
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=np.float64))
        self.heights = np.atleast_1d(np.asarray(self.heights, dtype=np.float64))
        self.widths = np.atleast_1d(np.asarray(self.widths, dtype=np.float64))
        points = 10_001 if self.dim == 1 else 301
        axes = [np.linspace(self.low[d], self.high[d], points) for d in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        grid = np.stack([m.ravel() for m in mesh], axis=1)
        values = self.value(grid)
        best = int(np.argmax(values))
        self.argmax = grid[best]
        self.max_value = float(values[best])

    def value(self, actions: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        out = np.zeros(a.shape[0])
        for c, h, w in zip(self.centers, self.heights, self.widths):
            d2 = np.sum((a - c) ** 2, axis=1)
            out += h * np.exp(-d2 / (2.0 * w * w))
        return out


def loop_policy_iteration(mdp, k_proposals: int, seed: int = 0, full_coverage: bool = False):
    """``maximizer_policy_iteration`` with its improvement step written per state."""
    rng = np.random.default_rng(seed)
    n_s, n_a = mdp.n_states, mdp.n_actions
    policy = np.zeros(n_s, dtype=np.int64)
    history: list[np.ndarray] = []
    max_iters = 10 * n_s * n_a
    for _ in range(max_iters):
        v = policy_evaluation_exact(mdp, policy)
        history.append(v)
        q = mdp.reward + mdp.gamma * mdp.transition @ v
        new_policy = np.empty_like(policy)
        for s in range(n_s):
            ring = [(policy[s] - 1) % n_a, policy[s], (policy[s] + 1) % n_a]
            local = max(ring, key=lambda a: q[s, a])
            if full_coverage:
                candidates = list(range(n_a))
            else:
                candidates = [int(local)] + rng.integers(0, n_a, size=k_proposals).tolist()
            best = candidates[int(np.argmax([q[s, a] for a in candidates]))]
            new_policy[s] = policy[s] if q[s, best] <= q[s, policy[s]] else best
        if np.array_equal(new_policy, policy):
            return policy, v, history
        policy = new_policy
    raise ConvergenceError(f"no policy fixed point within {max_iters} iterations")


def bellman_residual(mdp, v: np.ndarray) -> float:
    q = mdp.reward + mdp.gamma * mdp.transition @ v
    return float(np.max(np.abs(q.max(axis=1) - v)))


def loop_value_iteration(mdp, tol: float = 1e-10, max_iter: int = 1_000_000) -> np.ndarray:
    """``value_iteration`` stopped when max |Tv - v| < tol, its Bellman residual."""
    v = np.zeros(mdp.n_states)
    for _ in range(max_iter):
        q = mdp.reward + mdp.gamma * mdp.transition @ v
        v_next = q.max(axis=1)
        if np.max(np.abs(v_next - v)) < tol:
            return v_next
        v = v_next
    raise ConvergenceError("value iteration did not reach the residual tolerance")
