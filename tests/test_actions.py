import numpy as np
import pytest

from savo.actions import (
    ActionTable,
    ActionTableError,
    gmm_sample_table,
    knn,
    load_table_csv,
    nearest,
    nearest_rows,
    save_table_csv,
)


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


def test_knn_rejects_k_out_of_range():
    with pytest.raises(ActionTableError):
        knn(np.array([0.0]), line_table(), 4)
    with pytest.raises(ActionTableError):
        knn(np.array([0.0]), line_table(), 0)


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
    for action_id in t.ids:
        assert nearest(t.rep_of(action_id), t) == action_id


def test_nearest_rows_matches_scalar_nearest():
    rng = np.random.default_rng(9)
    t = ActionTable(reps=rng.standard_normal((200, 3)))
    queries = rng.standard_normal((1000, 3))
    batch = nearest_rows(queries, t)
    for q, row in zip(queries[:50], batch[:50]):
        assert t.ids[int(row)] == nearest(q, t)


def test_table_ids_and_categories_are_immutable():
    reps, cats = np.array([[0.0], [0.5], [1.0]]), np.array([0, 1, 1])
    t = ActionTable(reps=reps, ids=[10, 20, 30], categories=cats)
    with pytest.raises(AttributeError):
        t.ids.append(9)
    with pytest.raises(ValueError):
        t.categories[0] = 5
    with pytest.raises(ValueError):
        t.reps[0, 0] = 5.0
    reps[0, 0], cats[0] = 5.0, 5  # the caller's arrays stay its own
    assert t.reps[0, 0] == 0.0 and t.categories[0] == 0
    assert t.ids == (10, 20, 30)
    assert np.array_equal(t.rep_of(20), [0.5])


def test_duplicate_rows_rejected():
    with pytest.raises(ActionTableError):
        ActionTable(reps=np.array([[0.0, 1.0], [0.0, 1.0]]))


def test_empty_table_rejected():
    with pytest.raises(ActionTableError):
        ActionTable(reps=np.zeros((0, 2)))


def test_gmm_single_center_zero_variance_places_rep_at_center():
    center = np.array([[0.3, -0.4]])
    t = gmm_sample_table(seed=0, n_actions=1, centers=center, dim=2, component_std=0.0)
    assert np.array_equal(t.reps, center)


def test_gmm_zero_variance_multirow_collides_with_duplicate_guard():
    with pytest.raises(ActionTableError):
        gmm_sample_table(seed=0, n_actions=5, centers=np.array([[0.3, -0.4]]), dim=2, component_std=0.0)


def test_gmm_seeded_twice_identical():
    a = gmm_sample_table(seed=11, n_actions=100, centers=4, dim=3)
    b = gmm_sample_table(seed=11, n_actions=100, centers=4, dim=3)
    assert np.array_equal(a.reps, b.reps)
    assert np.array_equal(a.categories, b.categories)


def test_gmm_component_means_near_centers():
    centers = np.array([[1.0, -1.0], [-1.0, 1.0], [0.0, 2.0]])
    t = gmm_sample_table(seed=5, n_actions=10_000, centers=centers, dim=2, component_std=0.15)
    for c in range(3):
        mask = t.categories == c
        n = int(mask.sum())
        sample_mean = t.reps[mask].mean(axis=0)
        # 3 sigma of the mean estimator
        bound = 3.0 * 0.15 / np.sqrt(n)
        assert np.all(np.abs(sample_mean - centers[c]) < bound)


def test_csv_roundtrip_is_exact(tmp_path):
    t = gmm_sample_table(seed=21, n_actions=64, centers=3, dim=4)
    path = tmp_path / "table.csv"
    save_table_csv(t, path)
    back = load_table_csv(path)
    assert back.ids == t.ids
    assert np.array_equal(back.reps, t.reps)
    assert np.array_equal(back.categories, t.categories)
