import numpy as np
import pytest

from savo.envs import (
    CANONICAL_RESTRICTION,
    BanditEnv,
    BanditLandscape,
    CartPoleEnv,
    Env,
    EpisodeDoneError,
    MiningEnv,
    RecsimEnv,
    RestrictionSpec,
    canonical_adversarial,
    check_valid,
    make_env,
    make_tool_map,
    mining_action_table,
    random_landscape,
)
from savo.envs.mining import BREAK, DOWN, GOAL, RIGHT, START
from savo.envs.recsim import USER_STEP

from loop_oracles import EagerLandscape


# ------------------------------------------------------------- restriction

def test_check_valid_inside_sphere():
    spec = RestrictionSpec(centers=[[0.5]], radii=[0.1], replacement=[-1.0])
    assert check_valid(np.array([0.55]), spec)
    assert not check_valid(np.array([0.3]), spec)
    # the canonical task: the idle action is invalid, the positive island valid, no two spheres touch
    assert not check_valid(np.array([0.0]), CANONICAL_RESTRICTION)
    assert check_valid(np.array([0.58]), CANONICAL_RESTRICTION)
    centers, radii = CANONICAL_RESTRICTION.centers[:, 0], CANONICAL_RESTRICTION.radii
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(centers[i] - centers[j]) > radii[i] + radii[j]


def test_check_valid_at_center_and_boundary():
    spec = RestrictionSpec(centers=[[0.2]], radii=[0.3], replacement=[-1.0])
    assert check_valid(np.array([0.2]), spec)
    assert check_valid(np.array([0.5]), spec)  # distance exactly r: closed ball
    assert not check_valid(np.array([np.nextafter(0.5, 1.0)]), spec)


@pytest.mark.parametrize("action", [[0.0, 0.58], [0.0, 0.0, 0.58, 0.1], [np.nan], [np.inf]],
                         ids=["two_values", "four_values", "nan", "inf"])
def test_check_valid_rejects_a_malformed_action(action):
    with pytest.raises(ValueError):
        check_valid(np.array(action), CANONICAL_RESTRICTION)


@pytest.mark.parametrize("centers, radii, replacement", [
    ([[0.0]], [0.0], [-1.0]),
    ([[0.0]], [-0.1], [-1.0]),
    ([[np.nan]], [0.1], [np.nan]),
    ([[np.inf]], [0.1], [-1.0]),
    ([[0.0]], [np.nan], [-1.0]),
    ([[0.0]], [np.inf], [-1.0]),
    ([[0.0]], [0.1], [np.nan]),
    ([[0.0]], [0.1], [-np.inf]),
    ([[0.5, -3.0]], [0.2], [-1.0]),
    ([[0.5]], [0.2], [-1.0, 7.0]),
    (np.zeros((0, 2)), np.zeros(0), [-1.0]),
    (np.zeros((0, 1)), np.zeros(0), [-1.0]),
    ([[0.5, -3.0]], [0.2], [-1.0, 7.0]),
    ([[0.0], [0.5]], [0.1], [-1.0]),
], ids=["zero_radius", "negative_radius", "nan_center_and_replacement", "inf_center", "nan_radius",
        "inf_radius", "nan_replacement", "inf_replacement", "short_replacement", "long_replacement",
        "empty_short_replacement", "empty", "two_d", "one_radius_for_two_centers"])
def test_restriction_rejects_bad_spec(centers, radii, replacement):
    with pytest.raises(ValueError):
        RestrictionSpec(centers=centers, radii=radii, replacement=replacement)


def test_restriction_keeps_read_only_copies():
    centers, radii, replacement = np.array([[0.5]]), np.array([0.1]), np.array([-1.0])
    spec = RestrictionSpec(centers=centers, radii=radii, replacement=replacement)
    for name in ("centers", "radii", "replacement"):
        with pytest.raises(ValueError):
            getattr(spec, name)[0] = np.nan
        with pytest.raises(ValueError):
            getattr(CANONICAL_RESTRICTION, name)[0] = np.nan
    centers[0, 0], radii[0], replacement[0] = 0.0, 2.0, np.nan
    assert spec.centers.tolist() == [[0.5]] and spec.radii.tolist() == [0.1] and spec.replacement.tolist() == [-1.0]
    for restriction in (spec, CANONICAL_RESTRICTION):
        env = CartPoleEnv(restriction=restriction, seed=0)
        env.reset(seed=0)
        assert env.step(np.array([0.0]))[3]["executed"].tolist() == [-1.0]


# ----------------------------------------------------------------- cartpole

def test_cartpole_equilibrium_holds_with_zero_force():
    env = CartPoleEnv(seed=0)
    env.reset(seed=0)
    env._state = np.zeros(4)
    obs, reward, done, _ = env.step(np.array([0.0]))
    assert reward == 1.0
    assert not done
    assert np.allclose(obs, 0.0)


def test_cartpole_invalid_action_executes_replacement():
    spec = RestrictionSpec(centers=[[0.5]], radii=[0.1], replacement=[-1.0])
    restricted = CartPoleEnv(restriction=spec, seed=3)
    plain = CartPoleEnv(seed=3)
    s0 = restricted.reset(seed=11)
    assert np.array_equal(plain.reset(seed=11), s0)
    obs_a, *_ , info_a = restricted.step(np.array([0.3]))  # invalid
    obs_b, *_ , _ = plain.step(np.array([-1.0]))
    assert np.array_equal(obs_a, obs_b)
    assert np.array_equal(info_a["executed"], np.array([-1.0]))


def test_cartpole_all_covering_sphere_is_transparent():
    cover = RestrictionSpec(centers=[[0.0]], radii=[2.0], replacement=[-1.0])
    restricted = CartPoleEnv(restriction=cover, seed=5)
    plain = CartPoleEnv(seed=5)
    obs_r = restricted.reset(seed=21)
    obs_p = plain.reset(seed=21)
    assert np.array_equal(obs_r, obs_p)
    rng = np.random.default_rng(2)
    for _ in range(200):
        a = rng.uniform(-1, 1, size=1)
        step_r = restricted.step(a)
        step_p = plain.step(a)
        assert np.array_equal(step_r[0], step_p[0])
        assert step_r[1:3] == step_p[1:3]
        if step_r[2]:
            restricted.reset(seed=33)
            plain.reset(seed=33)


def test_cartpole_reset_seed_reproduces_episode():
    env = CartPoleEnv(seed=0)
    rng = np.random.default_rng(9)
    actions = rng.uniform(-1, 1, size=(50, 1))

    def episode():
        env.reset(seed=4)
        steps = []
        for a in actions:
            steps.append(env.step(a))
            if steps[-1][2]:
                break
        return steps

    first, second = episode(), episode()
    assert len(first) == len(second)
    for (o1, r1, d1, _), (o2, r2, d2, _) in zip(first, second):
        assert np.array_equal(o1, o2)
        assert (r1, d1) == (r2, d2)


def test_cartpole_terminates_on_angle_and_horizon():
    env = CartPoleEnv(seed=0)
    env.reset(seed=0)
    done = False
    steps = 0
    while not done:
        _, _, done, _ = env.step(np.array([1.0]))  # constant push tips the pole
        steps += 1
    assert steps < 20

    env.reset(seed=0)
    for t in range(500):
        env._state[2] = 0.0  # hold the pole upright; only the horizon, 500 steps, can end it
        _, _, done, _ = env.step(np.array([0.0]))
        assert done == (t == 499)


# ------------------------------------------------------------------- mining

def small_mining(seed=0, **overrides):
    return MiningEnv(seed=seed, **overrides)


def test_mining_goal_reward_at_step_50():
    env = small_mining()
    env.reset(seed=0)
    gx, gy = GOAL
    env._grid[gx - 1, gy] = -1  # clear the approach cell
    env._pos = (gx - 1, gy)
    env._dir = RIGHT
    env._t = 49
    _, reward, done, info = env.step(RIGHT)
    assert done and info["reached"]
    # goal term 10 * (1 - 0.9 * 50/100) = 5.5 plus the one-cell distance gain
    assert reward == pytest.approx(5.5 + 0.1)


def test_mining_step_reward_for_moving_closer():
    env = small_mining()
    env.reset(seed=1)
    env._grid[2, 1] = -1
    env._pos = (1, 1)
    _, reward, _, _ = env.step(RIGHT)
    assert reward == pytest.approx(0.1)


def test_mining_wrong_tool_is_inert():
    env = small_mining()
    env.reset(seed=2)
    env._pos = (1, 1)
    env._dir = RIGHT
    env._grid[2, 1] = 5
    wrong = next(t for t, (m, _) in enumerate(make_tool_map(50)) if m != 5)
    _, reward, _, _ = env.step(4 + wrong)
    assert reward == 0.0
    assert env._grid[2, 1] == 5


def test_mining_correct_tool_breaks_or_transforms():
    env = small_mining()
    env.reset(seed=3)
    env._pos = (1, 1)
    env._dir = RIGHT
    tool_map = make_tool_map(50)
    breaker = next(t for t, (m, o) in enumerate(tool_map) if o == BREAK)
    mine_type = tool_map[breaker][0]
    env._grid[2, 1] = mine_type
    _, reward, _, _ = env.step(4 + breaker)
    assert reward == pytest.approx(0.1 + 0.1)  # tool + bonus
    assert env._grid[2, 1] == -1

    transformer = next((t for t, (m, o) in enumerate(tool_map) if o != BREAK), None)
    if transformer is not None:
        mine_type, target = tool_map[transformer]
        env._grid[2, 1] = mine_type
        _, reward, _, _ = env.step(4 + transformer)
        assert reward == pytest.approx(0.1)
        assert env._grid[2, 1] == target


def test_mining_cannot_step_into_mine_but_turns():
    env = small_mining()
    env.reset(seed=4)
    env._pos = (1, 1)
    env._dir = RIGHT
    env._grid[1, 2] = 7  # mine below
    _, _, _, _ = env.step(DOWN)
    assert env._pos == (1, 1)
    assert env._dir == DOWN


def test_mining_observation_in_unit_interval():
    env = small_mining()
    rng = np.random.default_rng(8)
    obs = env.reset(seed=8)
    assert obs.shape == (8 + 50,)
    for _ in range(300):
        assert np.all(obs >= 0.0) and np.all(obs <= 1.0)
        obs, _, done, _ = env.step(int(rng.integers(0, len(env.action_table))))
        if done:
            obs = env.reset()


def test_mining_fills_every_free_cell_at_62_mines():
    env = small_mining(n_mines=62)
    env.reset(seed=6)
    assert int((env._grid >= 0).sum()) == 62
    assert env._grid[START] == env._grid[GOAL] == -1


def test_mining_direct_path_beats_wasted_moves():
    def run(actions, seed):
        env = small_mining(n_mines=0)
        env.reset(seed=seed)
        total = 0.0
        for a in actions:
            _, r, done, _ = env.step(a)
            total += r
            if done:
                break
        return total

    direct = [RIGHT] * 7 + [DOWN] * 7
    detour = [RIGHT, *([RIGHT, RIGHT + 2] * 1), RIGHT] + [RIGHT] * 5 + [DOWN] * 7
    assert run(direct, seed=5) > run(detour, seed=5)


def test_mining_invalid_action_raises():
    env = small_mining()
    env.reset(seed=0)
    with pytest.raises(ValueError):
        env.step(len(env.action_table))


def test_tool_map_is_function_with_terminating_chains():
    mapping = make_tool_map(n_types=50)
    assert len(mapping) == 50
    for _, (mine_type, outcome) in enumerate(mapping):
        assert 0 <= mine_type < 50
        if outcome != BREAK:
            assert mapping[outcome][1] == BREAK  # one transmutation away from breakable


def test_mining_action_table_shape_and_bounds():
    table = mining_action_table(make_tool_map(50))
    assert len(table) == 54
    assert table.dim == 4
    assert np.all(table.reps >= 0.0) and np.all(table.reps <= 1.0)
    assert np.array_equal(table.reps[:, 0], [0.0] * 4 + [1.0] * 50)  # four moves, then the tools


def test_mining_action_table_single_mine_type():
    table = mining_action_table(make_tool_map(1))
    assert len(table) == 5
    assert np.array_equal(table.reps[4], [1.0, 0.0, 0.0, 1.0])


def test_mining_derives_one_tool_per_mine_type():
    env = MiningEnv(n_mine_types=10, seed=0)
    assert len(env.action_table) == 14 and env.observation_dim == 18
    assert np.array_equal(env.action_table.reps, mining_action_table(make_tool_map(10)).reps)
    assert env.reset(seed=0).shape == (18,)
    env.step(13)
    with pytest.raises(TypeError):  # the tool table is read-only
        make_tool_map(10)[0] = (0, BREAK)
    with pytest.raises(ValueError, match="at least one mine type"):  # before make_tool_map's own draw fails
        MiningEnv(n_mine_types=0)


# ------------------------------------------------------------------- recsim

def test_recsim_equal_scores_give_half_click_probability():
    env = RecsimEnv(n_items=20, n_categories=4, seed=0)
    env.reset(seed=0)
    env._user = np.zeros(4)  # every score is 0 = skip score
    assert env._click_probability(env.action_table.reps[3]) == pytest.approx(0.5)


def test_recsim_unit_score_click_probability():
    env = RecsimEnv(n_items=20, n_categories=4, seed=0)
    env.reset(seed=0)
    env._user = env.action_table.reps[7].copy()  # score exactly 1
    assert env._click_probability(env.action_table.reps[7]) == pytest.approx(np.e / (1.0 + np.e))


def test_recsim_full_affinity_update_is_toward_with_probability_one():
    env = RecsimEnv(n_items=10, n_categories=3, seed=0)
    env.reset(seed=0)
    env._user = env.action_table.reps[2].copy()
    # affinity 1: toward-probability (1+1)/2 = 1 and the step itself vanishes
    for _ in range(5):
        env.step(2)
        assert np.allclose(env._user, env.action_table.reps[2], atol=1e-12)


def test_recsim_update_direction_frequency_matches_rule():
    env = RecsimEnv(n_items=50, n_categories=6, seed=0)
    env.reset(seed=0)
    base_user = env._user.copy()
    item = 11
    affinity = float(base_user @ env.action_table.reps[item])
    p_toward = (affinity + 1.0) / 2.0
    toward = 0
    clicks = 0
    for _ in range(20_000):
        env._user = base_user.copy()
        env._t = 0
        _, r, _, info = env.step(item)
        if info["clicked"]:
            clicks += 1
            delta = USER_STEP * (env.action_table.reps[item] - base_user)
            if np.allclose(env._user, base_user + delta) or np.linalg.norm(env._user) <= 1.0 and np.dot(env._user - base_user, delta) > 0:
                toward += 1
    sigma = np.sqrt(p_toward * (1 - p_toward) / clicks)
    assert abs(toward / clicks - p_toward) < 3 * sigma + 1e-9


def test_recsim_click_rate_matches_probability():
    env = RecsimEnv(n_items=30, n_categories=5, seed=0)
    env.reset(seed=0)
    fixed_user = env._user.copy()
    p = env._click_probability(env.action_table.reps[4])
    clicks = 0
    n = 100_000
    for _ in range(n):
        env._user = fixed_user.copy()
        env._t = 0
        _, r, _, _ = env.step(4)
        clicks += int(r)
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(clicks / n - p) < 3 * sigma


def test_recsim_horizon_and_bad_id():
    env = RecsimEnv(n_items=10, n_categories=3, seed=0)
    env.reset(seed=1)
    with pytest.raises(ValueError):
        env.step(10)
    done = False
    steps = 0
    while not done:
        _, _, done, _ = env.step(0)
        steps += 1
    assert steps == 20


# ------------------------------------------------------------------- bandit

def test_bandit_single_bump_argmax_at_center():
    grid_landscape = BanditLandscape(
        low=[-1.0], high=[1.0], centers=[[0.4]], heights=[1.0], widths=[0.2]
    )
    assert abs(float(grid_landscape.argmax[0]) - 0.4) < 1e-3


def test_bandit_two_bumps_global_max_at_taller():
    landscape = canonical_adversarial()
    assert abs(float(landscape.argmax[0]) - 0.65) < 2e-2
    assert landscape.max_value == pytest.approx(
        landscape.value_at(landscape.argmax), abs=1e-12
    )


def test_bandit_stored_max_matches_grid_bruteforce():
    rng = np.random.default_rng(17)
    for _ in range(10):
        from savo.envs import random_landscape

        landscape = random_landscape(rng)
        grid = np.linspace(-1.0, 1.0, 10_000)[:, None]
        brute = float(np.max(landscape.value(grid)))
        assert abs(brute - landscape.max_value) < 1e-4


def test_bandit_value_accepts_nested_lists():
    landscape = canonical_adversarial()
    assert np.array_equal(landscape.value([[0.1]]), landscape.value(np.array([[0.1]])))


def test_bandit_value_rejects_rows_of_the_wrong_length():
    with pytest.raises(ValueError):
        canonical_adversarial().value(np.array([0.1, 0.2]))  # two 1-D actions, not one row


def _bump_params(rng, dim, m):
    return dict(
        low=-np.ones(dim),
        high=np.ones(dim),
        centers=rng.uniform(-0.95, 0.95, size=(m, dim)),
        heights=rng.uniform(-0.2, 1.0, size=m),
        widths=rng.uniform(0.02, 0.5, size=m),
    )


@pytest.mark.parametrize("dim", [1, 2])
def test_bandit_value_matches_loop_oracle(dim):
    rng = np.random.default_rng(40 + dim)
    for n_rows in [0, 1, 2, 7, 300]:
        params = _bump_params(rng, dim, int(rng.integers(1, 9)))
        rows = rng.uniform(-1.5, 1.5, size=(n_rows, dim))
        assert np.array_equal(BanditLandscape(**params).value(rows), EagerLandscape(**params).value(rows))


def test_bandit_scan_matches_eager_grid_oracle():
    rng = np.random.default_rng(44)
    adversarial = canonical_adversarial()
    landscapes = [{f: getattr(adversarial, f) for f in ("low", "high", "centers", "heights", "widths")}]
    landscapes += [_bump_params(rng, 1 + i % 2, int(rng.integers(1, 9))) for i in range(12)]
    # two equal peaks: the scan must keep the first in grid order
    landscapes.append(dict(low=[-1.0, -1.0], high=[1.0, 1.0], centers=[[0.5, -0.5], [-0.5, 0.5]],
                           heights=[1.0, 1.0], widths=[0.2, 0.2]))
    for params in landscapes:
        got, want = BanditLandscape(**params), EagerLandscape(**params)
        assert got.argmax.shape == want.argmax.shape == (got.dim,)
        assert np.array_equal(got.argmax, want.argmax)
        assert got.max_value == want.max_value


def _assert_scan_matches_eager(params):
    got, want = BanditLandscape(**params), EagerLandscape(**params)
    assert got.argmax.shape == want.argmax.shape == (got.dim,)
    assert np.array_equal(got.argmax, want.argmax)
    assert got.max_value == want.max_value
    return got


@pytest.mark.parametrize("dim", [1, 2])
def test_bandit_screen_matches_eager_scan_on_random_draws(dim):
    rng = np.random.default_rng(50 + dim)
    for _ in range(50):
        m = int(rng.integers(1, 9))
        _assert_scan_matches_eager(dict(
            low=-np.ones(dim),
            high=np.ones(dim),
            centers=rng.uniform(-0.95, 0.95, size=(m, dim)),
            heights=rng.uniform(-0.5, 1.0, size=m),
            # down to 0.01: in 2-D, peaks narrower than the grid spacing of 2/300
            widths=np.exp(rng.uniform(np.log(0.01), np.log(0.6), size=m)),
        ))


@pytest.mark.parametrize(
    "params",
    [
        # integer grids, so mirrored cells hold equal values bit for bit
        dict(low=[0.0], high=[10_000.0], centers=[[2500.0], [7500.0]], heights=[1.0, 1.0], widths=[300.0, 300.0]),
        dict(low=[0.0], high=[10_000.0], centers=[[4999.5]], heights=[1.0], widths=[3.0]),
        dict(low=[0.0, 0.0], high=[300.0, 300.0], centers=[[100.0, 150.0], [200.0, 150.0]],
             heights=[0.7, 0.7], widths=[30.0, 30.0]),
        dict(low=[0.0, 0.0], high=[300.0, 300.0], centers=[[100.5, 200.5]], heights=[1.0], widths=[0.4]),
        dict(low=[0.0, 0.0], high=[300.0, 300.0], centers=[[60.0, 60.0], [240.0, 60.0], [60.0, 240.0], [240.0, 240.0]],
             heights=[0.5, 0.5, 0.5, 0.5], widths=[20.0, 20.0, 20.0, 20.0]),
        # swapping the axes of a square box mirrors the cells exactly
        dict(low=[-1.0, -1.0], high=[1.0, 1.0], centers=[[0.3, -0.6], [-0.6, 0.3]], heights=[0.9, 0.9],
             widths=[0.05, 0.05]),
    ],
    ids=["1d-mirror", "1d-midpoint", "2d-mirror", "2d-four-cell-tie", "2d-four-mirrors", "2d-swapped-axes"],
)
def test_bandit_screen_keeps_the_first_of_exact_ties(params):
    got = _assert_scan_matches_eager(params)
    axes = got._axes(10_001 if got.dim == 1 else 301)
    values = got._mixture(np.ix_(*axes)).ravel()
    assert np.sum(values == got.max_value) >= 2  # the tie is real
    assert np.flatnonzero(values == got.max_value)[0] == np.argmax(values)


@pytest.mark.parametrize("dim", [1, 2])
def test_bandit_screen_matches_eager_scan_with_all_negative_heights(dim):
    rng = np.random.default_rng(60 + dim)
    for m in (1, 3, 8):
        _assert_scan_matches_eager(dict(
            low=-np.ones(dim),
            high=np.ones(dim),
            centers=rng.uniform(-0.95, 0.95, size=(m, dim)),
            heights=rng.uniform(-1.0, -0.1, size=m),
            widths=rng.uniform(0.05, 0.6, size=m),
        ))


@pytest.mark.parametrize("dim", [1, 2])
def test_bandit_screen_matches_eager_scan_with_a_bump_on_a_grid_node(dim):
    axis = np.linspace(-1.0, 1.0, 10_001 if dim == 1 else 301)
    on_node = [[axis[120], axis[77]][:dim], [0.5, 0.25][:dim]]
    _assert_scan_matches_eager(dict(low=-np.ones(dim), high=np.ones(dim), centers=on_node, heights=[1.0, 0.999],
                                    widths=[0.01, 0.2]))


@pytest.mark.parametrize("scale", [1e-6, 1e3])
@pytest.mark.parametrize("dim", [1, 2])
def test_bandit_screen_matches_eager_scan_with_scaled_heights(dim, scale):
    rng = np.random.default_rng(70 + dim)
    for _ in range(5):
        params = _bump_params(rng, dim, int(rng.integers(1, 9)))
        _assert_scan_matches_eager({**params, "heights": params["heights"] * scale})


def test_bandit_screen_lies_within_its_margin_of_the_exact_mixture():
    """The margin's proof, checked on a grid: the 2-D screen errs by less than E."""
    rng = np.random.default_rng(80)
    for _ in range(20):
        m = int(rng.integers(1, 9))
        land = BanditLandscape(**{**_bump_params(rng, 2, m), "heights": rng.uniform(-0.5, 1.0, size=m)
                                  * 10.0 ** rng.integers(-6, 4)})
        axes = land._axes(301)
        screen, margin = land._screen(axes)
        assert np.max(np.abs(screen - land._mixture(np.ix_(*axes)))) <= margin


@pytest.mark.parametrize(
    "change",
    [
        {"centers": [[0.1, 0.2]]},  # a 2-D center on a 1-D box
        {"heights": [1.0, 0.5]},  # two heights for one center
        {"widths": [0.2, 0.2]},
        {"centers": np.zeros((0, 1)), "heights": [], "widths": []},
        {"low": [1.0], "high": [-1.0]},
        {"low": [0.0], "high": [0.0]},
        {"low": [-1.0, -1.0]},  # low and high of different lengths
        {"widths": [0.0]},
        {"widths": [-0.1]},
        {"centers": [[np.nan]]},
        {"heights": [np.inf]},
        {"high": [np.inf]},
        # a 3-D box would scan 301**3 points: refused before the scan
        {"low": -np.ones(3), "high": np.ones(3), "centers": np.zeros((1, 3))},
        {"low": [[-1.0]], "high": [[1.0]]},
        {"widths": [1e-200]},  # 2 w^2 underflows to 0: the mixture would be 0 / -0 = nan
        {"low": [-1.0, -1.0], "high": [1.0, 1.0], "centers": [[0.0, 0.0]], "widths": [1e-200]},
    ],
)
def test_bandit_landscape_rejects_bad_parameters(change):
    params = dict(low=[-1.0], high=[1.0], centers=[[0.4]], heights=[1.0], widths=[0.2])
    with pytest.raises(ValueError):
        BanditLandscape(**{**params, **change})


def test_bandit_landscape_keeps_read_only_copies():
    heights = np.array([0.6, 1.0])
    landscape = BanditLandscape(
        low=[-1.0], high=[1.0], centers=[[-0.3], [0.65]], heights=heights, widths=[0.45, 0.15]
    )
    argmax, max_value = landscape.argmax.copy(), landscape.max_value
    for name in ("low", "high", "centers", "heights", "widths", "argmax"):
        with pytest.raises(ValueError):
            getattr(landscape, name)[0] = 0.0
    heights[1] = 0.0
    assert landscape.heights.tolist() == [0.6, 1.0]
    assert np.array_equal(landscape.argmax, argmax) and landscape.max_value == max_value
    assert landscape.value_at(argmax) == max_value == canonical_adversarial().max_value


def test_bandit_env_clamps_and_terminates():
    env = BanditEnv(seed=0)
    env.reset(seed=0)
    _, r_out, done, _ = env.step(np.array([5.0]))
    env.reset()
    _, r_edge, _, _ = env.step(np.array([1.0]))
    assert done
    assert r_out == pytest.approx(r_edge)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_continuous_envs_reject_non_finite_actions_before_any_change(bad):
    bandit = BanditEnv(seed=0)
    bandit.reset(seed=0)
    with pytest.raises(ValueError):
        bandit.step(np.array([bad]))
    cart = CartPoleEnv(seed=0)
    cart.reset(seed=1)
    cart.step(np.array([0.2]))
    state, t = cart._state.copy(), cart._t
    with pytest.raises(ValueError):
        cart.step(np.array([bad]))
    assert np.array_equal(cart._state, state) and cart._t == t


def test_discrete_envs_take_only_integer_ids_before_any_change():
    for env in (small_mining(), RecsimEnv(n_items=10, n_categories=3, seed=0)):
        env.reset(seed=0)
        for bad in (2.7, 2.0, True, np.bool_(True), np.float64(3.0), "3", None):
            with pytest.raises(ValueError):
                env.step(bad)
            assert env._t == 0
        env.step(np.int64(3))
        env.step(np.int32(2))
        assert env._t == 2


def test_bandit_gradient_matches_finite_differences():
    landscape = canonical_adversarial()
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.uniform(-0.95, 0.95, size=1)
        h = 1e-6
        fd = (landscape.value_at(a + h) - landscape.value_at(a - h)) / (2 * h)
        assert abs(float(landscape.gradient(a)[0]) - fd) < 1e-6


# ----------------------------------------------------------------- plumbing

def test_make_env_ids():
    assert isinstance(make_env("pendulum", seed=0), CartPoleEnv)
    assert isinstance(make_env("mining", seed=0), MiningEnv)
    assert isinstance(make_env("recsim", seed=0, n_items=10, n_categories=3), RecsimEnv)
    assert isinstance(make_env("bandit", seed=0), BanditEnv)
    env = make_env("pendulum", seed=0, restriction=CANONICAL_RESTRICTION)
    env.reset(seed=0)
    assert env.step(np.array([0.0]))[3]["executed"].tolist() == [-1.0]  # the idle action is invalid
    landscape = random_landscape(np.random.default_rng(4), dim=2)
    env = make_env("bandit", seed=0, landscape=landscape)
    assert np.array_equal(env.action_low, landscape.low) and np.array_equal(env.action_high, landscape.high)
    env.reset(seed=0)
    assert env.step(landscape.argmax)[1] == landscape.max_value
    with pytest.raises(ValueError):
        make_env("nope")


# ----------------------------------------------------------------- contract

# factory and reset seed of each env the contract test runs
CONTRACT_ENVS = {
    "bandit": (lambda: BanditEnv(seed=0), 5),
    "cartpole": (lambda: CartPoleEnv(restriction=CANONICAL_RESTRICTION, seed=0), 4),
    "mining": (lambda: small_mining(), 12),
    "recsim": (lambda: RecsimEnv(n_items=25, n_categories=4, seed=0), 3),
}


def private_state(env) -> dict:
    """Everything a step may move: the rng, ``_t``, the done latch and the
    dynamics' own state (mining's ``_grid``, cart-pole's ``_state``, ...)."""

    def frozen(v):
        if isinstance(v, np.random.Generator):
            return v.bit_generator.state
        if isinstance(v, np.ndarray):
            return v.dtype.str, v.shape, v.tobytes()
        return v

    return {k: frozen(v) for k, v in vars(env).items() if k.startswith("_")}


@pytest.mark.parametrize("name", sorted(CONTRACT_ENVS))
def test_env_contract(name):
    make, seed = CONTRACT_ENVS[name]
    env = make()
    # the task is fixed at construction: no public attribute, and Env's
    # read-only properties cannot be rebound past its checks
    assert {k for k in vars(env) if not k.startswith("_")} == set()
    for attr in ("horizon", "observation_dim", "action_dim", "action_table", "action_low", "action_high"):
        with pytest.raises(AttributeError):
            setattr(env, attr, getattr(env, attr))
    before = private_state(env)
    with pytest.raises(EpisodeDoneError):  # no episode before the first reset
        env.step(0 if env.discrete else np.zeros(env.action_dim))
    assert private_state(env) == before
    assert env.discrete == (env.action_table is not None)
    if env.discrete:
        n = len(env.action_table)
        assert env.action_dim == env.action_table.dim and env.action_low is env.action_high is None
        actions = [i % n for i in range(env.horizon)]
        bad_actions = [np.array([1]), float("nan"), 2.7, -1, n]
    else:
        d = env.action_dim
        assert env.action_low.shape == env.action_high.shape == (d,)
        actions = list(np.random.default_rng(9).uniform(env.action_low, env.action_high, size=(env.horizon, d)))
        bad_actions = [np.zeros(d + 1), np.zeros((1, d)), 0.5, np.append(np.zeros(d), np.nan),
                       np.full(d, np.nan), np.full(d, np.inf), np.full(d, -np.inf)]

    def episode():
        obs = env.reset(seed=seed)
        assert obs.shape == (env.observation_dim,)
        steps = [(obs.tobytes(), private_state(env))]
        for a in actions:
            obs, reward, done, _ = env.step(a)
            assert obs.shape == (env.observation_dim,)
            steps.append((obs.tobytes(), reward, done, private_state(env)))
            if done:
                return steps
        raise AssertionError("the episode outlived its horizon")

    # a reseed reproduces the episode, env state included
    assert episode() == episode()

    # the episode is done: every step raises, and changes nothing, until reset
    before = private_state(env)
    for _ in range(2):
        with pytest.raises(EpisodeDoneError):
            env.step(actions[0])
    assert private_state(env) == before
    env.reset()
    env.step(actions[0])

    # a bad action raises before _t, the rng or any other state moves
    env.reset(seed=seed)
    before = private_state(env)
    for bad in bad_actions:
        with pytest.raises(ValueError):
            env.step(bad)
        assert private_state(env) == before


def test_envs_keep_only_their_dynamics():
    envs = Env.__subclasses__()
    assert set(envs) == {BanditEnv, CartPoleEnv, MiningEnv, RecsimEnv}
    owned_by_env = {
        "step", "reset", "action_low", "action_high", "action_dim", "action_table", "observation_dim", "horizon"
    }
    for cls in envs:
        assert not owned_by_env & set(vars(cls)), cls.__name__


def test_action_bounds_are_read_only_copies():
    landscape = canonical_adversarial()
    envs = [CartPoleEnv(seed=0), BanditEnv(landscape)]
    for env in envs:
        for bound in (env.action_low, env.action_high):
            with pytest.raises(ValueError):
                bound[0] = 0.2
        with pytest.raises(AttributeError):
            env.action_high = np.array([0.2])
        with pytest.raises(AttributeError):
            env.action_low = np.array([0.5])
    assert np.array_equal(landscape.low, [-1.0]) and np.array_equal(landscape.high, [1.0])
    assert not np.shares_memory(envs[1].action_low, landscape.low)
    other = CartPoleEnv(seed=1)
    other.reset(seed=0)
    assert other.step(np.array([0.9]))[3]["executed"].tolist() == [0.9]


@pytest.mark.parametrize("low, high", [
    ([[-1.0]], [[1.0]]),
    ([-1.0], [1.0, 2.0]),
    ([], []),
    ([1.0], [1.0]),
    ([1.0, 0.0], [2.0, -1.0]),
    ([np.nan], [1.0]),
])
def test_env_rejects_a_bad_action_box(low, high):
    with pytest.raises(ValueError):
        Env(0, 1, (low, high), 1)


@pytest.mark.parametrize("seed", [1.5, True, np.float64(2.0), "3"])
def test_a_bad_reset_seed_raises_and_changes_nothing(seed):
    env = small_mining()
    env.reset(seed=0)
    env.step(RIGHT)
    before = private_state(env)
    with pytest.raises(ValueError):
        env.reset(seed=seed)
    assert private_state(env) == before  # the rng, _t, the latch and the board
    env.step(RIGHT)


def test_a_failed_reset_starts_no_episode():
    fresh = Env(0, 5, ([-1.0], [1.0]), 1)  # the base has no dynamics: its _reset raises
    with pytest.raises(NotImplementedError):
        fresh.reset()
    with pytest.raises(EpisodeDoneError):
        fresh.step(np.zeros(1))

    env = CartPoleEnv(seed=0)
    env.reset(seed=0)
    env.step(np.zeros(1))

    def broken_reset():
        raise RuntimeError("reset failed")

    env._reset = broken_reset
    with pytest.raises(RuntimeError):
        env.reset(seed=1)
    with pytest.raises(EpisodeDoneError):
        env.step(np.zeros(1))
    del env._reset
    env.reset(seed=1)
    env.step(np.zeros(1))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Env(0, 0, ([-1.0], [1.0]), 4),
        lambda: Env(0, -1, ([-1.0], [1.0]), 4),
        lambda: Env(0, 2.5, ([-1.0], [1.0]), 4),
        lambda: RecsimEnv(n_categories=0),
        lambda: MiningEnv(n_mines=-1),
        lambda: MiningEnv(n_mine_types=0),
        lambda: CartPoleEnv(restriction=RestrictionSpec(centers=[[0.5, -3.0]], radii=[0.2], replacement=[-1.0, 7.0])),
        lambda: MiningEnv(n_mines=2.5),
        lambda: MiningEnv(n_mines=True),
        lambda: MiningEnv(n_mine_types=np.float64(5.0)),
        lambda: RecsimEnv(n_items=10.0),
        lambda: RecsimEnv(n_categories=True),
        lambda: MiningEnv(n_mines=63),  # one more than the free inner cells
        lambda: MiningEnv(seed=2.5),
        lambda: MiningEnv(seed=True),
    ],
    ids=["env-horizon-0", "env-horizon-negative", "env-horizon-float", "recsim-no-categories",
         "mining-n_mines-negative", "mining-no-mine-types", "cartpole-restriction-2d", "mining-n_mines-float",
         "mining-n_mines-bool", "mining-mine-types-numpy-float", "recsim-n_items-float", "recsim-categories-bool",
         "mining-n_mines-63", "mining-seed-float", "mining-seed-bool"],
)
def test_degenerate_episode_shapes_are_rejected_at_construction(make):
    with pytest.raises(ValueError):
        make()
