"""Tabular MDP solvers: value iteration and policy iteration where the
improvement step combines a local hill-climb with an argmax over a set of
proposed alternative actions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..checks import checked_int, frozen_copy

TOL = 1e-10  # value iteration's span tolerance
MAX_ITER = 1_000_000  # value iteration's backup budget


class ConvergenceError(RuntimeError):
    pass


@dataclass
class TabularMDP:
    """A finite MDP, checked once here. ``transition`` and ``reward`` are kept
    as private read-only float64 copies, so later writes to the caller's
    arrays cannot reach the solvers."""

    transition: np.ndarray  # (S, A, S), each row a distribution
    reward: np.ndarray  # (S, A)
    gamma: float

    def __post_init__(self):
        self.transition = frozen_copy(self.transition)
        self.reward = frozen_copy(self.reward)
        s, a, s2 = self.transition.shape
        if s != s2 or self.reward.shape != (s, a):
            raise ValueError("transition must be (S, A, S) with matching rewards")
        if not np.isfinite(self.reward).all():
            raise ValueError("rewards must be finite")
        # nan fails this comparison, and an inf entry fails the row sums below
        if not self.transition.min() >= 0.0:
            raise ValueError("transition entries must be non-negative numbers")
        sums = self.transition.sum(axis=2)
        if np.max(np.abs(sums - 1.0)) > 1e-12:
            raise ValueError("transition rows must sum to 1 within 1e-12")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")

    @property
    def n_states(self) -> int:
        return self.reward.shape[0]

    @property
    def n_actions(self) -> int:
        return self.reward.shape[1]


def random_mdp(
    rng: np.random.Generator, n_states: int = 20, n_actions: int = 10, gamma: float = 0.9
) -> TabularMDP:
    raw = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    # renormalize so the row-sum invariant holds to full precision
    raw = raw / raw.sum(axis=2, keepdims=True)
    reward = rng.uniform(0.0, 1.0, size=(n_states, n_actions))
    return TabularMDP(transition=raw, reward=reward, gamma=gamma)


def value_iteration(mdp: TabularMDP) -> np.ndarray:
    """Optimal values by optimality backups, stopped on the MacQueen–Porteus
    span bound (Puterman, Markov Decision Processes, 1994, §6.6.3).

    After each backup Tv, with d = Tv - v, the optimum lies between
    Tv + γ/(1-γ)·min d and Tv + γ/(1-γ)·max d. Once γ·(max d - min d) < TOL
    this returns the midpoint, v' = Tv + γ/(1-γ)·(max d + min d)/2. Its
    Bellman residual is at most γ·(max d - min d)/2 < TOL/2: T(Tv) - Tv lies
    in [γ·min d, γ·max d] and v' shifts Tv by a constant, so
    Tv' - v' = T(Tv) - Tv - γ·(max d + min d)/2. The span shrinks at least
    as fast as γ^n, often much faster, so this stops well before a stop on
    max |d| would. Raises ``ConvergenceError`` after ``MAX_ITER`` backups.
    """
    v = np.zeros(mdp.n_states)
    for _ in range(MAX_ITER):
        q = mdp.reward + mdp.gamma * mdp.transition @ v
        v_next = q.max(axis=1)
        d = v_next - v
        lo, hi = d.min(), d.max()
        if mdp.gamma * (hi - lo) < TOL:
            return v_next + mdp.gamma / (1.0 - mdp.gamma) * (0.5 * (hi + lo))
        v = v_next
    raise ConvergenceError("value iteration did not reach the span tolerance")


def policy_evaluation_exact(mdp: TabularMDP, policy: np.ndarray) -> np.ndarray:
    """Solve (I - gamma P_pi) V = R_pi for a deterministic policy."""
    idx = np.arange(mdp.n_states)
    p_pi = mdp.transition[idx, policy]
    r_pi = mdp.reward[idx, policy]
    return np.linalg.solve(np.eye(mdp.n_states) - mdp.gamma * p_pi, r_pi)


def maximizer_policy_iteration(
    mdp: TabularMDP,
    k_proposals: int,
    seed: int = 0,
    full_coverage: bool = False,
):
    """Policy iteration with a hill-climb improvement plus proposal argmax.

    Each iteration evaluates the policy exactly, then improves every state at
    once with (S, ·) array steps:

    - hill-climb: the best of the current action's ring ``[a - 1, a, a + 1]``
      (mod A), the local, gradient-like move;
    - proposals: that move plus ``k_proposals`` random actions per state, from
      one ``rng.integers(0, A, size=(S, k_proposals))`` draw, state by state in
      row order (all actions instead when ``full_coverage``);
    - the argmax over the candidates, each argmax taking the first of equal
      maxima;
    - the incumbent is kept unless the pick is strictly better, so fixed
      points are stable.

    The generator's stream runs on across calls, so the one draw per
    iteration gives the same numbers as one draw of ``k_proposals`` per state.
    Stops at a policy fixed point; returns the policy, its exact value, and
    the per-iteration value history. Raises ``ValueError`` before any work
    unless ``k_proposals`` is a non-negative integer and ``seed`` an integer
    (``bool`` excluded from both).
    """
    if checked_int(k_proposals, "k_proposals") < 0:
        raise ValueError(f"k_proposals must be a non-negative integer, got {k_proposals!r}")
    rng = np.random.default_rng(checked_int(seed, "seed"))
    n_s, n_a = mdp.n_states, mdp.n_actions
    states = np.arange(n_s)
    rows = states[:, None]
    ring_offsets = np.array([-1, 0, 1])
    policy = np.zeros(n_s, dtype=np.int64)
    history: list[np.ndarray] = []
    max_iters = 10 * n_s * n_a
    for _ in range(max_iters):
        v = policy_evaluation_exact(mdp, policy)
        history.append(v)
        q = mdp.reward + mdp.gamma * mdp.transition @ v
        if full_coverage:
            best = np.argmax(q, axis=1)
        else:
            ring = (policy[:, None] + ring_offsets) % n_a
            local = ring[states, np.argmax(q[rows, ring], axis=1)]
            candidates = np.column_stack([local, rng.integers(0, n_a, size=(n_s, k_proposals))])
            best = candidates[states, np.argmax(q[rows, candidates], axis=1)]
        new_policy = np.where(q[states, best] <= q[states, policy], policy, best)
        if np.array_equal(new_policy, policy):
            return policy, v, history
        policy = new_policy
    raise ConvergenceError(f"no policy fixed point within {max_iters} iterations")
