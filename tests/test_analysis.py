import numpy as np
import pytest

from savo.analysis.landscape import (
    count_local_optima,
    export_landscape,
    load_landscape_csv,
    suboptimality_gap,
    surrogate_optima_profile,
    surrogate_values,
)
from savo.analysis.mdp import (
    ConvergenceError,
    TabularMDP,
    bellman_residual,
    maximizer_policy_iteration,
    policy_evaluation_exact,
    random_mdp,
    value_iteration,
)
from savo.envs import random_landscape


# ---------------------------------------------------------- optima counting

def test_count_simple_1d():
    assert count_local_optima(np.array([1.0, 3.0, 2.0, 5.0, 4.0])) == 2


def test_count_thresholded_1d():
    floored = np.maximum(np.array([1.0, 3.0, 2.0, 5.0, 4.0]), 3.0)
    assert np.array_equal(floored, [3.0, 3.0, 3.0, 5.0, 4.0])
    assert count_local_optima(floored) == 1


def test_count_constant_grid_is_one_plateau():
    assert count_local_optima(np.full(9, 2.5)) == 1
    assert count_local_optima(np.full((5, 7), -1.0)) == 1


def test_count_edge_peaks_1d():
    assert count_local_optima(np.array([5.0, 4.0, 3.0])) == 1
    assert count_local_optima(np.array([5.0, 4.0, 6.0])) == 2


def test_count_plateau_not_counted_when_bordered_by_higher():
    assert count_local_optima(np.array([1.0, 2.0, 2.0, 3.0, 0.0])) == 1
    assert count_local_optima(np.array([1.0, 2.0, 2.0, 1.0, 0.0])) == 1
    assert count_local_optima(np.array([3.0, 2.0, 2.0, 3.0])) == 2


def _naive_count(values: np.ndarray) -> int:
    """Independent O(cells * neighbors) recount via exhaustive flood fill."""
    arr = values if values.ndim == 2 else values[:, None]
    n, m = arr.shape
    seen = set()
    count = 0
    for sx in range(n):
        for sy in range(m):
            if (sx, sy) in seen:
                continue
            component = {(sx, sy)}
            frontier = [(sx, sy)]
            while frontier:
                x, y = frontier.pop()
                for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    if 0 <= nx < n and 0 <= ny < m and (nx, ny) not in component:
                        if arr[nx, ny] == arr[sx, sy]:
                            component.add((nx, ny))
                            frontier.append((nx, ny))
            seen |= component
            boundary_ok = True
            for x, y in component:
                for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    if 0 <= nx < n and 0 <= ny < m and (nx, ny) not in component:
                        if arr[nx, ny] > arr[sx, sy]:
                            boundary_ok = False
            if boundary_ok:
                count += 1
    return count


def _path_plateau(order: list[tuple[int, int]], m: int) -> np.ndarray:
    """A (2m-1)² grid of zeros with a one-cell-wide path of ones through the
    nodes (2i, 2j) in ``order``; unlinked neighbouring nodes keep a zero
    between them, so the path is one long plateau."""
    grid = np.zeros((2 * m - 1, 2 * m - 1))
    for (i0, j0), (i1, j1) in zip(order, order[1:]):
        grid[2 * i0, 2 * j0] = grid[i0 + i1, j0 + j1] = grid[2 * i1, 2 * j1] = 1.0
    return grid


def _spiral_order(m: int) -> list[tuple[int, int]]:
    order, top, left, bottom, right = [], 0, 0, m - 1, m - 1
    while top <= bottom and left <= right:
        order += [(top, j) for j in range(left, right + 1)]
        order += [(i, right) for i in range(top + 1, bottom + 1)]
        if top < bottom:
            order += [(bottom, j) for j in range(right - 1, left - 1, -1)]
        if left < right:
            order += [(i, left) for i in range(bottom - 1, top, -1)]
        top, left, bottom, right = top + 1, left + 1, bottom - 1, right - 1
    return order


def _structured_grids() -> list[np.ndarray]:
    grids = []
    for seed in (0, 1):
        # analysis-shaped: Q of a 2-D bump mixture on 101² and its three floors
        rng = np.random.default_rng(seed)
        landscape = random_landscape(rng, dim=2)
        q = landscape.value(landscape.grid(101)).reshape(101, 101)
        grids += surrogate_values(q, landscape.value(rng.uniform(-1, 1, size=(3, 2))))
    m = 31
    serpentine = [(i, j if i % 2 == 0 else m - 1 - j) for i in range(m) for j in range(m)]
    grids += [_path_plateau(serpentine, m), _path_plateau(_spiral_order(m), m)]
    ring = np.zeros((9, 9))
    ring[1:8, 1:8] = 2.0  # a maximal plateau with a hole: the pit inside it
    ring[3:6, 3:6] = 1.0
    ring[4, 4] = 1.5
    edge = np.arange(42.0).reshape(6, 7) % 5
    edge[0, :] = edge[:, 0] = 9.0  # a plateau along two sides of the grid
    return grids + [ring, edge]


def test_count_agrees_with_naive_recount_on_random_grids():
    rng = np.random.default_rng(0)
    grids = []
    for case in range(1000):
        if case % 2 == 0:
            grids.append(rng.integers(0, 5, size=rng.integers(1, 40)).astype(float))
        else:
            grids.append(rng.integers(0, 4, size=rng.integers(1, 12, size=2)).astype(float))
    for shape in ((1,), (1, 1), (1, 9), (9, 1)):
        grids.append(rng.integers(0, 4, size=shape).astype(float))
    for values in grids + _structured_grids():
        assert count_local_optima(values) == _naive_count(values)


def test_count_rejects_non_finite_and_empty_grids():
    for values in ([[np.nan, np.nan], [np.nan, 0.0]], [1.0, np.nan, 1.0], [0.0, np.inf], [], np.zeros((0, 3))):
        with pytest.raises(ValueError):
            count_local_optima(np.asarray(values))


# ------------------------------------------------------------------ profile

def test_profile_with_anchor_at_global_max_collapses_to_one():
    rng = np.random.default_rng(1)
    landscape = random_landscape(rng, n_bumps=5)
    grid = np.linspace(-1, 1, 2001)[:, None]
    q = landscape.value(grid)
    profile = surrogate_optima_profile(q, np.array([q.max()]))
    assert profile[-1] == 1


def test_profile_empty_anchor_chain():
    q = np.array([1.0, 3.0, 2.0, 5.0, 4.0])
    assert surrogate_optima_profile(q, np.array([])) == [2]


def test_profile_nonincreasing_on_random_landscapes():
    rng = np.random.default_rng(2)
    grid = np.linspace(-1, 1, 2001)[:, None]
    for _ in range(50):
        landscape = random_landscape(rng)
        q = landscape.value(grid)
        k = int(rng.integers(1, 6))
        anchors = rng.uniform(-1, 1, size=(k, 1))
        profile = surrogate_optima_profile(q, landscape.value(anchors))
        assert all(b <= a for a, b in zip(profile, profile[1:]))


def test_surrogate_values_floor_the_landscape():
    q = np.array([0.0, 2.0, 1.0])
    levels = surrogate_values(q, np.array([1.5, 0.5]))
    assert np.array_equal(levels[1], np.maximum(q, 1.5))
    # the running floor never decreases even when a later anchor is worse
    assert np.array_equal(levels[2], np.maximum(q, 1.5))


# ------------------------------------------------------------- suboptimality

def test_gap_examples():
    grid_q = np.array([0.0, 1.0, 0.5])
    assert suboptimality_gap(grid_q, 0.5) == pytest.approx(0.5)
    assert suboptimality_gap(grid_q, 1.0) == pytest.approx(0.0)


# ----------------------------------------------------------------- tab MDPs

def test_value_iteration_geometric_series():
    mdp = TabularMDP(transition=np.ones((1, 1, 1)), reward=np.ones((1, 1)), gamma=0.5)
    v = value_iteration(mdp)
    assert v[0] == pytest.approx(2.0, abs=1e-9)


def test_value_iteration_gamma_zero_is_max_reward():
    rng = np.random.default_rng(3)
    mdp = random_mdp(rng, n_states=6, n_actions=4, gamma=0.0)
    assert np.allclose(value_iteration(mdp), mdp.reward.max(axis=1), atol=1e-12)


def test_value_iteration_residual_below_tolerance():
    mdp = random_mdp(np.random.default_rng(4), n_states=20, n_actions=10, gamma=0.9)
    v = value_iteration(mdp)
    assert bellman_residual(mdp, v) < 1e-10


def test_transition_row_sums_validated():
    bad = np.ones((2, 2, 2)) * 0.6
    with pytest.raises(ValueError):
        TabularMDP(transition=bad, reward=np.zeros((2, 2)), gamma=0.9)


def test_policy_evaluation_matches_iterative():
    rng = np.random.default_rng(5)
    mdp = random_mdp(rng, n_states=8, n_actions=3, gamma=0.85)
    policy = rng.integers(0, 3, size=8)
    v = policy_evaluation_exact(mdp, policy)
    v_iter = np.zeros(8)
    idx = np.arange(8)
    for _ in range(2000):
        v_iter = mdp.reward[idx, policy] + mdp.gamma * mdp.transition[idx, policy] @ v_iter
    assert np.allclose(v, v_iter, atol=1e-10)


def test_maximizer_pi_full_coverage_reaches_optimum():
    rng = np.random.default_rng(6)
    for seed in range(5):
        mdp = random_mdp(rng, n_states=12, n_actions=6, gamma=0.9)
        v_star = value_iteration(mdp)
        _, v, history = maximizer_policy_iteration(mdp, k_proposals=0, seed=seed, full_coverage=True)
        assert np.max(np.abs(v - v_star)) < 1e-6
        for earlier, later in zip(history, history[1:]):
            assert np.all(later >= earlier - 1e-9)


def test_maximizer_pi_two_state_chain():
    # deterministic 2-state chain: stay (low reward) or advance to an absorbing
    # high-reward state
    transition = np.zeros((2, 2, 2))
    transition[0, 0, 0] = 1.0  # stay
    transition[0, 1, 1] = 1.0  # advance
    transition[1, :, 1] = 1.0  # absorbing
    reward = np.array([[0.1, 0.0], [0.0, 1.0]])
    mdp = TabularMDP(transition=transition, reward=reward, gamma=0.9)
    v_star = value_iteration(mdp)
    _, v, _ = maximizer_policy_iteration(mdp, k_proposals=0, seed=0, full_coverage=True)
    assert np.max(np.abs(v - v_star)) < 1e-6


def test_maximizer_pi_sparse_proposals_monotone():
    rng = np.random.default_rng(7)
    for seed in range(10):
        mdp = random_mdp(rng, n_states=10, n_actions=8, gamma=0.9)
        _, _, history = maximizer_policy_iteration(mdp, k_proposals=2, seed=seed)
        for earlier, later in zip(history, history[1:]):
            assert np.all(later >= earlier - 1e-9)


# ------------------------------------------------------------------- export

def test_export_roundtrip_and_columns(tmp_path):
    rng = np.random.default_rng(8)
    actions = np.linspace(-1, 1, 21)[:, None]
    q = rng.standard_normal(21)
    psi = [np.maximum(q, 0.1), np.maximum(q, 0.4)]
    psi_hat = [q + 0.01, q + 0.02]
    path = tmp_path / "landscape.csv"
    export_landscape(path, actions, q, psi, psi_hat)
    header, data = load_landscape_csv(path)
    assert header == ["a0", "q", "psi_1", "psi_2", "psi_hat_1", "psi_hat_2"]
    assert len(header) == 1 + 1 + 2 * 2
    assert np.allclose(data[:, 1], q, atol=1e-12)
    assert np.allclose(data[:, 2], psi[0], atol=1e-12)

    # header stability across writes
    export_landscape(tmp_path / "l2.csv", actions, q, psi, psi_hat)
    header2, _ = load_landscape_csv(tmp_path / "l2.csv")
    assert header2 == header


def test_export_reads_a_vector_as_1d_actions(tmp_path):
    export_landscape(tmp_path / "v.csv", [0.1, 0.2], [1.0, 2.0])
    header, data = load_landscape_csv(tmp_path / "v.csv")
    assert header == ["a0", "q"]
    assert np.array_equal(data, [[0.1, 1.0], [0.2, 2.0]])


def test_export_rejects_columns_of_another_length(tmp_path):
    actions = np.linspace(-1, 1, 5)
    q = np.arange(5.0)
    bad_calls = [
        (actions, q[:3], (), ()),
        (actions, q, [q[:4]], ()),
        (actions, q, [q], [q, np.arange(6.0)]),
        (actions[:, None], q[:, None], (), ()),
        (np.zeros((5, 2, 1)), q, (), ()),
    ]
    for i, (a, qv, exact, learned) in enumerate(bad_calls):
        path = tmp_path / f"bad{i}.csv"
        with pytest.raises(ValueError):
            export_landscape(path, a, qv, exact, learned)
        assert not path.exists()
