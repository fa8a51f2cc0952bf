import warnings

import numpy as np
import pytest

from savo.actions import (
    ActionTable,
    ActionTableError,
    knn,
    knn_rows,
    nearest,
    nearest_rows,
)
from savo.envs import recsim_action_table


def scan(q, reps):
    """Brute-force oracle: every row by (difference-form distance, index)."""
    diff = reps - q
    d = np.einsum("nd,nd->n", diff, diff)
    return sorted(range(len(reps)), key=lambda i: (d[i], i))


def assert_matches_scan(t, queries, k):
    """knn_rows, knn, nearest and nearest_rows all agree with the brute-force scan."""
    rows = nearest_rows(queries, t)
    batch = knn_rows(queries, t, k)
    assert batch.shape == (len(queries), k)
    for q, row, ids in zip(queries, rows, batch):
        order = scan(q, t.reps)
        assert ids.tolist() == order[:k]
        assert knn(q, t, k) == order[:k]
        assert nearest(q, t) == order[0]
        assert row == order[0]


def line_table():
    return ActionTable(reps=np.array([[0.0], [0.5], [1.0]]))


def test_nearest_picks_closest_row():
    assert nearest(np.array([0.6]), line_table()) == 1


def test_nearest_exact_match_zero_distance():
    assert nearest(np.array([1.0]), line_table()) == 2


def test_nearest_tie_breaks_to_lower_index():
    assert nearest(np.array([0.25]), line_table()) == 0


def test_nearest_rejects_bad_query_shape():
    with pytest.raises(ActionTableError):
        nearest(np.array([0.1, 0.2]), line_table())


def test_knn_k1_equals_nearest():
    t = line_table()
    a = np.array([0.7])
    assert knn(a, t, 1) == [nearest(a, t)]


def test_knn_full_returns_all_sorted():
    assert knn(np.array([0.9]), line_table(), 3) == [2, 1, 0]
    assert knn_rows(np.array([0.9]), line_table(), 3).tolist() == [[2, 1, 0]]


def test_knn_rejects_k_out_of_range():
    for k in (4, 0, -1):
        with pytest.raises(ActionTableError):
            knn(np.array([0.0]), line_table(), k)
        with pytest.raises(ActionTableError):
            knn_rows(np.array([[0.0], [0.5]]), line_table(), k)


def test_knn_matches_bruteforce_sort():
    rng = np.random.default_rng(42)
    t = ActionTable(reps=rng.standard_normal((100, 3)))
    for _ in range(20):
        a = rng.standard_normal(3)
        d = np.linalg.norm(t.reps - a, axis=1)
        expected = sorted(range(100), key=lambda i: (d[i], i))[:5]
        assert knn(a, t, 5) == expected


def test_knn_is_prefix_closed():
    rng = np.random.default_rng(7)
    t = ActionTable(reps=rng.standard_normal((30, 2)))
    a = rng.standard_normal(2)
    for k in range(1, 30):
        assert knn(a, t, k) == knn(a, t, k + 1)[:k]


def test_nearest_of_own_rep_is_identity():
    rng = np.random.default_rng(3)
    t = ActionTable(reps=rng.standard_normal((50, 4)))
    for action_id in range(len(t)):
        assert nearest(t.rep_of(action_id), t) == action_id


def test_nearest_rows_matches_scalar_nearest():
    rng = np.random.default_rng(9)
    t = ActionTable(reps=rng.standard_normal((200, 3)))
    queries = rng.standard_normal((1000, 3))
    batch = nearest_rows(queries, t)
    assert batch.shape == (1000,)
    for q, row in zip(queries, batch):
        assert int(row) == nearest(q, t)


def test_nearest_rows_returns_rows_where_nearest_returns_ids():
    """An action id is its row, so both return the same number."""
    t = line_table()
    q = np.array([0.6])
    assert nearest_rows(q, t)[0] == nearest(q, t) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_raises(bad):
    t = line_table()
    with pytest.raises(ActionTableError):
        nearest(np.array([bad]), t)
    with pytest.raises(ActionTableError):
        knn(np.array([bad]), t, 2)
    with pytest.raises(ActionTableError):
        nearest_rows(np.array([[0.1], [bad]]), t)
    with pytest.raises(ActionTableError):
        knn_rows(np.array([[0.1], [bad]]), t, 2)


def test_query_of_wrong_width_or_ndim_raises():
    t = ActionTable(reps=np.eye(3))
    for bad in (np.zeros(2), np.zeros((1, 3)), np.float64(0.0)):
        with pytest.raises(ActionTableError):
            nearest(bad, t)
        with pytest.raises(ActionTableError):
            knn(bad, t, 1)
    for bad in (np.zeros((4, 2)), np.zeros((2, 4, 3)), np.float64(0.0)):
        with pytest.raises(ActionTableError):
            nearest_rows(bad, t)
        with pytest.raises(ActionTableError):
            knn_rows(bad, t, 2)
    assert nearest_rows(np.zeros((0, 3)), t).shape == (0,)
    assert knn_rows(np.zeros((0, 3)), t, 2).shape == (0, 2)


@pytest.mark.parametrize("k", [True, False, 2.5, 2.0, "2", None])
def test_knn_rejects_non_integer_k(k):
    with pytest.raises(ActionTableError):
        knn(np.array([0.3]), line_table(), k)
    with pytest.raises(ActionTableError):
        knn_rows(np.array([[0.3]]), line_table(), k)


def test_knn_accepts_numpy_integer_k():
    assert knn(np.array([0.9]), line_table(), np.int64(2)) == [2, 1]


def test_exact_at_large_offset_near_rows():
    rng = np.random.default_rng(11)
    t = ActionTable(reps=1e8 + rng.standard_normal((200, 5)))
    queries = t.reps[rng.integers(0, 200, 300)] + 1e-3 * rng.standard_normal((300, 5))
    rows = nearest_rows(queries, t)
    assert sum(int(r) != scan(q, t.reps)[0] for q, r in zip(queries, rows)) == 0
    assert sum(knn(q, t, 5) != scan(q, t.reps)[:5] for q in queries) == 0


def test_exact_when_a_far_row_swamps_the_screen_resolution():
    # Rows on a unit sphere around the queries, their radii 1e-7 apart, plus
    # one row at 1e8 that moves the centre ~1.6e6 away: the screen's rounding
    # (~1e-3 here) is far coarser than the gaps, so only the re-rank orders them.
    rng = np.random.default_rng(15)
    dirs = rng.standard_normal((60, 3))
    radii = 1.0 + 1e-7 * rng.permutation(60)
    reps = np.vstack([dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * radii[:, None], [[1e8, 0.0, 0.0]]])
    assert_matches_scan(ActionTable(reps=reps), 1e-9 * rng.standard_normal((30, 3)), k=8)


def test_exact_when_squared_distances_overflow():
    # Screen products of +-1e310 overflow to inf - inf = nan, and the
    # difference form gives inf for both far rows, which then tie by index.
    # numpy warns of the overflow; the results stay exact.
    t = ActionTable(reps=np.array([[1e160, -1e160], [-1e160, 1e160], [0.0, 0.0]]))
    with np.errstate(over="ignore", invalid="ignore"):
        assert_matches_scan(t, np.array([[1e150, 1e150], [1e200, -1e200], [0.0, 1.0]]), k=3)



def test_overflowing_lookups_raise_no_warning():
    # Same table and queries as above, with every warning turned into an
    # error: the kernel silences its own overflow and returns the scan's rows.
    t = ActionTable(reps=np.array([[1e160, -1e160], [-1e160, 1e160], [0.0, 0.0]]))
    queries = np.array([[1e150, 1e150], [1e200, -1e200], [0.0, 1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        orders = [scan(q, t.reps) for q in queries]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = nearest_rows(queries, t)
        picks = [(nearest(q, t), knn(q, t, 3)) for q in queries]
    assert rows.tolist() == [order[0] for order in orders]
    assert picks == [(order[0], order) for order in orders]

def test_exact_ties_on_integer_lattice_for_every_k():
    axis = np.arange(4.0)
    t = ActionTable(reps=np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3))
    halves = np.arange(-0.5, 4.0, 0.5)
    queries = np.stack(np.meshgrid(halves, halves, [0.5, 1.0], indexing="ij"), -1).reshape(-1, 3)
    rows = nearest_rows(queries, t)
    for q, row in zip(queries, rows):
        order = scan(q, t.reps)
        assert row == order[0]
        for k in range(1, len(t) + 1):
            assert knn(q, t, k) == order[:k]


def test_exact_at_tiny_scale():
    rng = np.random.default_rng(12)
    t = ActionTable(reps=1e-9 * rng.standard_normal((300, 4)))
    assert_matches_scan(t, 1e-9 * rng.standard_normal((100, 4)), k=7)


def test_single_row_table():
    t = ActionTable(reps=np.array([[2.0, -1.0]]))
    queries = np.array([[2.0, -1.0], [1e6, 3.0], [-5.0, 0.0]])
    assert_matches_scan(t, queries, k=1)
    assert nearest_rows(queries, t).tolist() == [0, 0, 0]


def test_exact_on_recsim_table_at_workload_shape():
    t = recsim_action_table(1000, 20)
    rng = np.random.default_rng(13)
    queries = np.clip(rng.standard_normal((256, t.dim)), -1.0, 1.0)
    assert_matches_scan(t, queries, k=10)


def test_cached_index_is_read_only():
    t = ActionTable(reps=np.random.default_rng(4).standard_normal((50, 3)))
    for a in (t.reps, t._centre, t._screen_matrix):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 1.0


def test_changing_callers_reps_changes_no_result():
    rng = np.random.default_rng(14)
    reps = rng.standard_normal((80, 3))
    t = ActionTable(reps=reps)
    queries = rng.standard_normal((20, 3))
    before = [knn(q, t, 4) for q in queries], nearest_rows(queries, t)
    reps[:] = -reps[::-1]
    after = [knn(q, t, 4) for q in queries], nearest_rows(queries, t)
    assert before[0] == after[0]
    assert np.array_equal(before[1], after[1])


def test_table_is_immutable_and_ids_are_rows():
    reps = np.array([[0.0], [0.5], [1.0]])
    t = ActionTable(reps=reps)
    with pytest.raises(ValueError):
        t.reps[0, 0] = 5.0
    reps[0, 0] = 5.0  # the caller's array stays its own
    assert t.reps[0, 0] == 0.0
    assert t.ids == range(len(t))
    with pytest.raises(AttributeError):
        t.ids = range(5)
    with pytest.raises(AttributeError):  # the cached screen index would go stale
        t.reps = np.array([[0.0], [0.5]])
    assert np.array_equal(t.rep_of(1), [0.5])
    with pytest.raises(TypeError):  # the table takes no labels of its own
        ActionTable(reps=reps, ids=[10, 20, 30])


@pytest.mark.parametrize("bad", [-1, 3, 2.7, 1.0, True, np.float64(1.0)])
def test_rep_of_takes_only_ids_in_the_table(bad):
    with pytest.raises(ValueError):
        line_table().rep_of(bad)


def test_duplicate_rows_rejected():
    with pytest.raises(ActionTableError):
        ActionTable(reps=np.array([[0.0, 1.0], [0.0, 1.0]]))


def test_empty_table_rejected():
    with pytest.raises(ActionTableError):
        ActionTable(reps=np.zeros((0, 2)))


def test_recsim_table_is_the_normalised_gmm_draw():
    """The table equals the draw of the general mixture sampler it replaced:
    centres, categories and noise from one seed-0 generator in that order."""
    for n_items, c in ((1000, 20), (25, 4)):
        rng = np.random.default_rng(0)
        centers = rng.uniform(-1.0, 1.0, size=(c, c))
        category = rng.integers(0, c, size=n_items)
        raw = centers[category] + 0.3 * rng.standard_normal((n_items, c))
        t = recsim_action_table(n_items, c)
        assert np.array_equal(t.reps, raw / np.linalg.norm(raw, axis=1, keepdims=True))
        assert np.array_equal(recsim_action_table(n_items, c).reps, t.reps)
