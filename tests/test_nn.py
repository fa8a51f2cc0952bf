import numpy as np
import pytest

from savo.nn import (
    AdamState,
    DeepSetSummarizer,
    DenseLayer,
    FilmGenerator,
    Mlp,
    NonFiniteGradientError,
    SetSummary,
    ShapeError,
    adam_step,
    load_arrays,
    polyak_update,
    save_arrays,
)

from gradcheck import assert_grads_match, central_diff


def rand_mlp(rng, sizes, acts=None, rand_bias=False):
    acts = acts or ["relu"] * (len(sizes) - 2) + ["linear"]
    net = Mlp.create(sizes, acts, rng)
    if rand_bias:
        # keeps tiny test nets away from exact-zero pre-activations, where the
        # relu subgradient convention and finite differences legitimately differ
        for layer in net.layers:
            layer.bias[:] = 0.3 * rng.standard_normal(layer.bias.shape)
    return net


# ---------------------------------------------------------------- forward

def test_forward_identity_linear_layer():
    net = Mlp([DenseLayer(np.eye(2), np.zeros(2), "linear")])
    assert np.array_equal(net.forward(np.array([3.0, -2.0])), np.array([3.0, -2.0]))


def test_forward_relu_clips_negative():
    net = Mlp([DenseLayer(np.eye(2), np.zeros(2), "relu")])
    assert np.array_equal(net.forward(np.array([-1.0, 2.0])), np.array([0.0, 2.0]))


def test_forward_matches_straightline_recomputation():
    rng = np.random.default_rng(7)
    net = rand_mlp(rng, [3, 5, 2])
    x = rng.standard_normal(3)
    w1, b1 = net.layers[0].weight, net.layers[0].bias
    w2, b2 = net.layers[1].weight, net.layers[1].bias
    expected = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
    assert np.allclose(net.forward(x), expected, atol=0, rtol=0)


def test_forward_shape_mismatch_raises():
    rng = np.random.default_rng(0)
    net = rand_mlp(rng, [3, 4, 2])
    with pytest.raises(ShapeError):
        net.forward(np.zeros(5))


def test_forward_batched_agrees_with_rows():
    rng = np.random.default_rng(1)
    net = rand_mlp(rng, [4, 8, 3])
    xs = rng.standard_normal((6, 4))
    batched = net.forward(xs)
    rows = np.stack([net.forward(x) for x in xs])
    # gemm vs gemv rounding may differ in the last ulp
    assert np.allclose(batched, rows, rtol=1e-13, atol=1e-13)


# --------------------------------------------------------------- backward

def test_linear_layer_weight_grad_is_input_row():
    x = np.array([0.5, -1.5, 2.0])
    net = Mlp([DenseLayer(np.zeros((3, 2)), np.zeros(2), "linear")])
    _, tape = net.forward_tape(x)
    _, grads = net.backward(tape, np.array([1.0, 0.0]))
    assert np.array_equal(grads[0][:, 0], x)
    assert np.array_equal(grads[0][:, 1], np.zeros(3))
    assert np.array_equal(grads[1], np.array([1.0, 0.0]))


def test_relu_subgradient_at_zero_is_zero():
    net = Mlp([DenseLayer(np.eye(1), np.zeros(1), "relu")])
    _, tape = net.forward_tape(np.array([0.0]))
    dx, grads = net.backward(tape, np.array([1.0]))
    assert dx[0] == 0.0
    assert grads[0][0, 0] == 0.0


@pytest.mark.parametrize("seed", range(50))
def test_mlp_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(1000 + seed)
    sizes = [int(rng.integers(2, 5)) for _ in range(4)]
    net = rand_mlp(rng, sizes, rand_bias=True)
    x = rng.standard_normal(sizes[0])
    w = rng.standard_normal(sizes[-1])  # random linear functional of the output

    def objective():
        return float(net.forward(x) @ w)

    _, tape = net.forward_tape(x)
    dx, grads = net.backward(tape, w)
    assert_grads_match(grads, central_diff(objective, net.arrays()))

    def objective_x():
        return float(net.forward(x) @ w)

    assert_grads_match([dx], central_diff(objective_x, [x]))


def test_backward_without_params_matches_full():
    rng = np.random.default_rng(5)
    net = rand_mlp(rng, [4, 6, 1])
    x = rng.standard_normal((3, 4))
    _, tape = net.forward_tape(x)
    dx_full, _ = net.backward(tape, np.ones((3, 1)))
    dx_only, grads = net.backward(tape, np.ones((3, 1)), with_params=False)
    assert grads is None
    assert np.array_equal(dx_full, dx_only)


# ------------------------------------------------------------------- film

def test_film_is_identity_at_init():
    rng = np.random.default_rng(3)
    gen = FilmGenerator.create(cond_dim=4, width=6, rng=rng)
    feats = rng.standard_normal(6)
    cond = rng.standard_normal(4)
    assert np.array_equal(gen.modulate_tape(feats, cond)[0], feats)


def test_film_zero_scale_returns_shift():
    rng = np.random.default_rng(4)
    gen = FilmGenerator.create(cond_dim=3, width=2, rng=rng)
    # force raw scale = -1 (net scale 0) and shift = (0.7, -0.2) for any cond
    gen.net.layers[-1].weight[:] = 0.0
    gen.net.layers[-1].bias[:] = np.array([-1.0, -1.0, 0.7, -0.2])
    out, _ = gen.modulate_tape(np.array([5.0, 9.0]), np.zeros(3))
    assert np.allclose(out, [0.7, -0.2])


def test_film_matches_hand_computation():
    rng = np.random.default_rng(8)
    gen = FilmGenerator.create(cond_dim=3, width=4, rng=rng)
    gen.net.layers[-1].weight[:] = rng.standard_normal(gen.net.layers[-1].weight.shape)
    feats = rng.standard_normal(4)
    cond = rng.standard_normal(3)
    raw = gen.net.forward(cond)
    expected = (1.0 + raw[:4]) * feats + raw[4:]
    assert np.allclose(gen.modulate_tape(feats, cond)[0], expected, atol=0, rtol=0)


def test_film_width_mismatch_raises():
    gen = FilmGenerator.create(cond_dim=3, width=4, rng=np.random.default_rng(0))
    with pytest.raises(ShapeError):
        gen.modulate_tape(np.zeros(5), np.zeros(3))


@pytest.mark.parametrize("seed", range(50))
def test_film_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(2000 + seed)
    width = int(rng.integers(2, 5))
    cond_dim = int(rng.integers(2, 4))
    gen = FilmGenerator.create(cond_dim, width, rng)
    gen.net.layers[-1].weight[:] = 0.3 * rng.standard_normal(gen.net.layers[-1].weight.shape)
    gen.net.layers[-1].bias[:] = 0.3 * rng.standard_normal(2 * width)
    feats = rng.standard_normal((2, width))
    cond = rng.standard_normal((2, cond_dim))
    w = rng.standard_normal((2, width))

    def objective():
        return float(np.sum(gen.modulate_tape(feats, cond)[0] * w))

    out, tape = gen.modulate_tape(feats, cond)
    dfeat, dcond, grads = gen.backward(tape, w)
    assert_grads_match(grads, central_diff(objective, gen.arrays()))
    assert_grads_match([dfeat, dcond], central_diff(objective, [feats, cond]))


# ---------------------------------------------------------------- deepset

def test_deepset_permutation_invariance_is_bitwise():
    rng = np.random.default_rng(11)
    ds = DeepSetSummarizer.create(element_dim=3, width=5, summary_dim=4, rng=rng)
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
    z = rng.standard_normal(3)
    a = ds.summarize([x, y, z]).vector
    b = ds.summarize([z, x, y]).vector
    assert np.array_equal(a, b)


def test_deepset_empty_set_is_zero_vector():
    ds = DeepSetSummarizer.create(3, 5, 4, np.random.default_rng(0))
    summary = ds.summarize([])
    assert summary.count == 0
    assert np.array_equal(summary.vector, np.zeros(4))


def test_deepset_matches_straightline_recomputation():
    rng = np.random.default_rng(12)
    ds = DeepSetSummarizer.create(3, 5, 4, rng)
    elems = rng.standard_normal((3, 3))
    order = np.lexsort(elems.T[::-1])
    per_element = np.stack([ds.phi.forward(e) for e in elems[order]])
    expected = ds.rho.forward(per_element.mean(axis=0))
    got = ds.summarize(list(elems))
    assert got.count == 3
    assert np.allclose(got.vector, expected, rtol=1e-13, atol=1e-13)


def test_deepset_batch_path_matches_single_sets():
    rng = np.random.default_rng(13)
    ds = DeepSetSummarizer.create(4, 6, 5, rng)
    elems = rng.standard_normal((3, 2, 4))
    batched = ds.forward_batch(elems)
    for b in range(3):
        single = ds.rho.forward(ds.phi.forward(elems[b]).mean(axis=0))
        assert np.allclose(batched[b], single, atol=1e-12)


@pytest.mark.parametrize("seed", range(50))
def test_deepset_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(3000 + seed)
    ds = DeepSetSummarizer.create(3, 4, 3, rng)
    for net in (ds.phi, ds.rho):
        for layer in net.layers:
            layer.bias[:] = 0.3 * rng.standard_normal(layer.bias.shape)
    elems = rng.standard_normal((2, 3, 3))
    w = rng.standard_normal((2, 3))

    def objective():
        return float(np.sum(ds.forward_batch(elems) * w))

    out, tape = ds.forward_batch_tape(elems)
    delems, grads = ds.backward_batch(tape, w)
    assert_grads_match(grads, central_diff(objective, ds.arrays()))
    assert_grads_match([delems], central_diff(objective, [elems]))


# ------------------------------------------- taped and untaped entry points

@pytest.mark.parametrize("seed", range(5))
def test_mlp_taped_and_untaped_forward_agree_bitwise(seed):
    rng = np.random.default_rng(4000 + seed)
    net = rand_mlp(rng, [4, 7, 7, 3], acts=["relu", "tanh", "linear"], rand_bias=True)
    for x in (rng.standard_normal(4), rng.standard_normal((5, 4))):
        assert np.array_equal(net.forward(x), net.forward_tape(x)[0])


@pytest.mark.parametrize("m", [0, 1, 3])
def test_deepset_taped_and_untaped_forward_agree_bitwise(m):
    rng = np.random.default_rng(4100 + m)
    ds = DeepSetSummarizer.create(3, 5, 4, rng)
    elems = rng.standard_normal((6, m, 3))
    out, tape = ds.forward_batch_tape(elems)
    assert np.array_equal(ds.forward_batch(elems), out)
    assert tape[:2] == (6, m)


def test_deepset_summarize_agrees_bitwise_with_batch_of_sorted_set():
    rng = np.random.default_rng(4200)
    ds = DeepSetSummarizer.create(3, 5, 4, rng)
    elems = rng.standard_normal((4, 3))
    ordered = elems[np.lexsort(elems.T[::-1])]
    assert np.array_equal(ds.summarize(list(elems)).vector, ds.forward_batch(ordered[None])[0])


def test_film_scale_shift_agrees_bitwise_with_modulate_tape():
    rng = np.random.default_rng(4300)
    gen = FilmGenerator.create(cond_dim=3, width=4, rng=rng)
    gen.net.layers[-1].weight[:] = rng.standard_normal(gen.net.layers[-1].weight.shape)
    for h, c in ((rng.standard_normal(4), rng.standard_normal(3)),
                 (rng.standard_normal((5, 4)), rng.standard_normal((5, 3)))):
        gamma, beta = gen.scale_shift(c)
        assert np.array_equal(gamma * h + beta, gen.modulate_tape(h, c)[0])


# ------------------------------------------------------------------- adam

def test_adam_zero_gradient_is_noop_on_params():
    rng = np.random.default_rng(20)
    net = rand_mlp(rng, [2, 3, 1])
    state = AdamState(net.arrays())
    before = [a.copy() for a in net.arrays()]
    adam_step(net.arrays(), [np.zeros_like(a) for a in net.arrays()], state, lr=1e-3)
    for a, b in zip(net.arrays(), before):
        assert np.array_equal(a, b)
    assert state.step == 1


def test_adam_moments_decay_under_zero_gradient():
    w = [np.array([1.0])]
    state = AdamState(w)
    adam_step(w, [np.array([1.0])], state, lr=0.0)
    m_after_first = state.m[0].copy()
    adam_step(w, [np.array([0.0])], state, lr=0.0)
    assert state.m[0][0] == pytest.approx(0.9 * m_after_first[0])


def test_adam_first_step_moves_by_learning_rate():
    w = [np.array([0.5])]
    state = AdamState(w)
    adam_step(w, [np.array([1.0])], state, lr=3e-4)
    # bias-corrected first step is lr / (1 + eps-ish)
    assert w[0][0] == pytest.approx(0.5 - 3e-4, abs=1e-8)


def test_adam_descends_quadratic_monotonically():
    w = [np.array([1.0])]
    state = AdamState(w)
    prev = abs(w[0][0])
    for _ in range(100):
        adam_step(w, [2.0 * w[0]], state, lr=1e-2)
        assert abs(w[0][0]) < prev
        prev = abs(w[0][0])


def test_adam_rejects_nonfinite_gradients():
    w = [np.array([1.0, 2.0])]
    state = AdamState(w)
    adam_step(w, [np.array([0.1, 0.1])], state, lr=1e-3)
    snapshot = w[0].copy()
    step_before = state.step
    with pytest.raises(NonFiniteGradientError):
        adam_step(w, [np.array([np.nan, 0.0])], state, lr=1e-3)
    assert np.array_equal(w[0], snapshot)
    assert state.step == step_before


def test_adam_step_counter_increments_by_one():
    w = [np.zeros(3)]
    state = AdamState(w)
    for expected in range(1, 6):
        adam_step(w, [np.ones(3)], state, lr=1e-3)
        assert state.step == expected


# ----------------------------------------------------------------- polyak

def test_polyak_tau_one_copies():
    t, o = [np.zeros(4)], [np.arange(4.0)]
    polyak_update(t, o, 1.0)
    assert np.array_equal(t[0], o[0])


def test_polyak_tau_zero_is_identity():
    t, o = [np.arange(4.0)], [np.ones(4)]
    polyak_update(t, o, 0.0)
    assert np.array_equal(t[0], np.arange(4.0))


def test_polyak_equal_nets_fixed_point():
    t, o = [np.full(3, 0.7)], [np.full(3, 0.7)]
    polyak_update(t, o, 0.005)
    assert np.allclose(t[0], 0.7)


def test_polyak_scalar_halfway():
    t, o = [np.array([0.0])], [np.array([1.0])]
    polyak_update(t, o, 0.5)
    assert t[0][0] == pytest.approx(0.5)


def test_polyak_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        polyak_update([np.zeros(2)], [np.zeros(3)], 0.5)


# ------------------------------------------------------------- checkpoint

def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(31)
    net = rand_mlp(rng, [3, 7, 2])
    state = AdamState(net.arrays())
    adam_step(net.arrays(), [rng.standard_normal(a.shape) for a in net.arrays()], state, lr=1e-3)
    path = tmp_path / "net.npz"
    save_arrays(path, net.arrays(), state)

    other = rand_mlp(np.random.default_rng(99), [3, 7, 2])
    other_state = AdamState(other.arrays())
    load_arrays(path, other.arrays(), other_state)
    for a, b in zip(net.arrays(), other.arrays()):
        assert np.array_equal(a, b)
    for m, n in zip(state.m, other_state.m):
        assert np.array_equal(m, n)
    assert other_state.step == state.step


def test_checkpoint_shape_mismatch_raises(tmp_path):
    net = rand_mlp(np.random.default_rng(1), [3, 4, 2])
    path = tmp_path / "net.npz"
    save_arrays(path, net.arrays())
    wrong = rand_mlp(np.random.default_rng(2), [3, 5, 2])
    with pytest.raises(ShapeError):
        load_arrays(path, wrong.arrays())


def _trained_net(seed, steps):
    rng = np.random.default_rng(seed)
    net = rand_mlp(rng, [3, 7, 2])
    state = AdamState(net.arrays())
    for _ in range(steps):
        adam_step(net.arrays(), [rng.standard_normal(a.shape) for a in net.arrays()], state, lr=1e-3)
    return net, state


@pytest.mark.parametrize("corrupt", ["last_array", "adam_moment"])
def test_checkpoint_mismatch_changes_nothing(tmp_path, corrupt):
    net, state = _trained_net(41, steps=1)
    path = tmp_path / "net.npz"
    save_arrays(path, net.arrays(), state)
    with np.load(path) as data:
        payload = dict(data)
    key = f"p{len(net.arrays()) - 1}" if corrupt == "last_array" else "v0"
    payload[key] = np.zeros(payload[key].size + 1)
    np.savez(path, **payload)

    other, other_state = _trained_net(42, steps=2)
    before = [a.copy() for a in other.arrays() + other_state.m + other_state.v]
    with pytest.raises(ShapeError):
        load_arrays(path, other.arrays(), other_state)
    for a, b in zip(other.arrays() + other_state.m + other_state.v, before):
        assert np.array_equal(a, b)
    assert other_state.step == 2
