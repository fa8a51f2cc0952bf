import itertools

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
    xavier_uniform,
)

from gradcheck import as_dtype, assert_grads_match, central_diff

DTYPES = (np.float32, np.float64)


def rand_mlp(rng, sizes, acts=None, rand_bias=False):
    """A float32 network from ``Mlp.create``."""
    acts = acts or ["relu"] * (len(sizes) - 2) + ["linear"]
    net = Mlp.create(sizes, acts, rng)
    if rand_bias:
        # keeps tiny test nets away from exact-zero pre-activations, where the
        # relu subgradient convention and finite differences legitimately differ
        for layer in net.layers:
            layer.bias[:] = 0.3 * rng.standard_normal(layer.bias.shape)
    return net


def _rand_grads(rng, net):
    return [rng.standard_normal(a.shape).astype(a.dtype) for a in net.arrays()]


# ---------------------------------------------------------------- forward

def test_forward_identity_linear_layer():
    net = Mlp([DenseLayer(np.eye(2), np.zeros(2), "linear")])
    assert np.array_equal(net.forward(np.array([3.0, -2.0])), np.array([3.0, -2.0]))


def test_forward_relu_clips_negative():
    net = Mlp([DenseLayer(np.eye(2), np.zeros(2), "relu")])
    assert np.array_equal(net.forward(np.array([-1.0, 2.0])), np.array([0.0, 2.0]))


def test_forward_matches_straightline_recomputation():
    rng = np.random.default_rng(7)
    net = as_dtype(rand_mlp(rng, [3, 5, 2]), np.float64)
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
    net = as_dtype(rand_mlp(rng, [4, 8, 3]), np.float64)
    xs = rng.standard_normal((6, 4))
    batched = net.forward(xs)
    rows = np.stack([net.forward(x) for x in xs])
    # gemm vs gemv rounding may differ in the last ulp
    assert np.allclose(batched, rows, rtol=1e-13, atol=1e-13)


def test_create_rounds_the_float64_xavier_draws():
    sizes = [3, 5, 4, 2]
    net = Mlp.create(sizes, ["relu", "tanh", "linear"], np.random.default_rng(9))
    rng = np.random.default_rng(9)
    for layer, fan_in, fan_out in zip(net.layers, sizes[:-1], sizes[1:]):
        assert_same(layer.weight, xavier_uniform(fan_in, fan_out, rng).astype(np.float32))
        assert_same(layer.bias, np.zeros(fan_out, dtype=np.float32))
    ds = DeepSetSummarizer.create(3, 5, 4, np.random.default_rng(0))
    gen = FilmGenerator.create(3, 4, np.random.default_rng(0))
    assert all(a.dtype == np.float32 for a in ds.arrays() + gen.arrays())


@pytest.mark.parametrize("weight_dtype, bias_dtype", [
    (np.float32, np.float64), (np.float64, np.float32), (np.float16, np.float16), (np.int64, np.int64),
])
def test_dense_layer_rejects_mixed_or_unsupported_dtypes(weight_dtype, bias_dtype):
    with pytest.raises(ShapeError):
        DenseLayer(np.ones((2, 3), dtype=weight_dtype), np.zeros(3, dtype=bias_dtype), "relu")


def test_mlp_rejects_layers_of_mixed_dtype():
    net = rand_mlp(np.random.default_rng(6), [3, 4, 2])
    with pytest.raises(ShapeError):
        Mlp([net.layers[0], as_dtype(net, np.float64).layers[1]])


def test_mlp_rejects_an_empty_or_unchained_layer_list():
    with pytest.raises(ShapeError):
        Mlp.create([5], [], np.random.default_rng(0))
    with pytest.raises(ShapeError):
        Mlp([])
    with pytest.raises(ShapeError):
        Mlp([DenseLayer(np.zeros((3, 4)), np.zeros(4), "relu"), DenseLayer(np.zeros((5, 2)), np.zeros(2), "linear")])
    Mlp([DenseLayer(np.zeros((3, 4)), np.zeros(4), "relu"), DenseLayer(np.zeros((4, 2)), np.zeros(2), "linear")])


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
    net = as_dtype(rand_mlp(rng, sizes, rand_bias=True), np.float64)
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


# ------------------------------- reference formulas for the in-place passes
#
# The allocating forward/backward that keeps every pre-activation and takes
# derivatives from it, and the allocating Adam and Polyak updates. The
# in-place passes must give the same floating-point values, bit for bit.

_REF_ACTS = {
    "linear": (lambda z: z, lambda z: np.ones_like(z)),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0.0).astype(z.dtype)),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
}


def ref_mlp(net, x, dy, with_params=True):
    """(output, dx, grads) by the pre-activation formulas, in the net's dtype."""
    x = np.asarray(x, dtype=net.dtype)
    single = x.ndim == 1
    h = x[None, :] if single else x
    tape = []
    for layer in net.layers:
        z = h @ layer.weight + layer.bias
        tape.append((h, z))
        h = _REF_ACTS[layer.activation][0](z)
    dy = np.asarray(dy, dtype=net.dtype)
    if dy.ndim == 1 and not single:
        dy = dy[:, None]
    if single:
        dy = np.atleast_1d(dy)[None, :]
    grads = [] if with_params else None
    dh = dy
    for layer, (h_in, z) in zip(reversed(net.layers), reversed(tape)):
        dz = dh * _REF_ACTS[layer.activation][1](z)
        if with_params:
            grads.insert(0, dz.sum(axis=0))
            grads.insert(0, h_in.T @ dz)
        dh = dz @ layer.weight.T
    return (h[0] if single else h), (dh[0] if single else dh), grads


def ref_adam(arrays, grads, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    step += 1
    c1 = 1.0 - beta1**step
    c2 = 1.0 - beta2**step
    for a, g, mm, vv in zip(arrays, grads, m, v):
        mm *= beta1
        mm += (1.0 - beta1) * g
        vv *= beta2
        vv += (1.0 - beta2) * g * g
        a -= lr * (mm / c1) / (np.sqrt(vv / c2) + eps)
    return step


def assert_same(got, want):
    """Bitwise equal, nan matching nan; lists compare item by item."""
    if want is None:
        assert got is None
        return
    if isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
        return
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _ref_case_net(rng, acts, out_dim):
    net = rand_mlp(rng, [4, 6, 5, out_dim], acts=list(acts), rand_bias=True)
    net.layers[0].bias[:2] = 0.0  # zero input rows give exact-zero pre-activations
    return net


@pytest.mark.parametrize("acts", list(itertools.product(["relu", "tanh", "linear"], repeat=3)))
@pytest.mark.parametrize("out_dim", [1, 3])
def test_mlp_passes_match_preactivation_formulas_bitwise(acts, out_dim):
    rng = np.random.default_rng([out_dim] + [("relu", "tanh", "linear").index(a) for a in acts])
    created = _ref_case_net(rng, acts, out_dim)
    x_batch = rng.standard_normal((9, 4))
    x_batch[0] = 0.0
    x_batch[1] *= 1e3  # saturates tanh
    cases = [(x_batch, rng.standard_normal((9, out_dim))), (x_batch[2], rng.standard_normal(out_dim))]
    if out_dim == 1:
        cases += [(x_batch, rng.standard_normal(9)), (x_batch[3], rng.standard_normal(()))]
    for dtype in DTYPES:
        net = as_dtype(created, dtype)
        for x, dy in cases:
            for with_params in (True, False):
                x_before, dy_before = x.copy(), dy.copy()
                out, tape = net.forward_tape(x)
                dx, grads = net.backward(tape, dy, with_params=with_params)
                want_out, want_dx, want_grads = ref_mlp(net, x, dy, with_params)
                assert out.dtype == dx.dtype == dtype
                assert_same(out, want_out)
                assert_same(net.forward(x), want_out)
                assert_same(dx, want_dx)
                assert_same(grads, want_grads)
                assert_same(x, x_before)
                assert_same(dy, dy_before)


@pytest.mark.parametrize("acts", [("relu", "relu", "linear"), ("relu", "tanh", "tanh")])
def test_mlp_passes_propagate_non_finite_values_as_before(acts):
    rng = np.random.default_rng(4400)
    net = _ref_case_net(rng, acts, 2)
    x = rng.standard_normal((6, 4))
    x[0, 1] = np.nan
    x[1, 2] = np.inf
    x[2, 0] = -np.inf
    dy = rng.standard_normal((6, 2))
    dy[3, 0] = np.nan
    dy[4, 1] = np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        out, tape = net.forward_tape(x)
        dx, grads = net.backward(tape, dy)
        want_out, want_dx, want_grads = ref_mlp(net, x, dy)
    assert np.isnan(out[0]).all() and np.isnan(dx[3]).any()
    assert_same(out, want_out)
    assert_same(dx, want_dx)
    assert_same(grads, want_grads)


def test_film_backward_matches_concatenated_formula_bitwise():
    rng = np.random.default_rng(4500)
    created = FilmGenerator.create(cond_dim=3, width=4, rng=rng)
    for layer in created.net.layers:
        layer.weight[:] = rng.standard_normal(layer.weight.shape)
    cases = ((rng.standard_normal((5, 4)), rng.standard_normal((5, 3)), rng.standard_normal((5, 4))),
             (rng.standard_normal(4), rng.standard_normal(3), rng.standard_normal(4)))
    for dtype in DTYPES:
        gen = as_dtype(created, dtype)
        for feats, cond, dout in cases:
            dout_before = dout.copy()
            _, tape = gen.modulate_tape(feats, cond)
            dfeat, dcond, grads = gen.backward(tape, dout)
            gamma = 1.0 + gen.net.forward(cond)[..., :4]
            feats_d, dout_d = feats.astype(dtype), dout.astype(dtype)
            draw = np.concatenate([dout_d * feats_d, dout_d], axis=-1)
            _, want_dcond, want_grads = ref_mlp(gen.net, cond, draw)
            assert dfeat.dtype == dcond.dtype == dtype
            assert_same(dfeat, dout_d * gamma)
            assert_same(dcond, want_dcond)
            assert_same(grads, want_grads)
            assert_same(dout, dout_before)


def test_taped_output_is_read_only():
    rng = np.random.default_rng(4600)
    net = rand_mlp(rng, [3, 5, 2], rand_bias=True)
    x = rng.standard_normal((4, 3))
    for xi in (x, x[0]):
        out, tape = net.forward_tape(xi)
        with pytest.raises(ValueError):
            out[...] = 0.0
        with pytest.raises(ValueError):
            out += 1.0
        assert net.forward(xi).flags.writeable
    ds = DeepSetSummarizer.create(3, 5, 4, rng)
    summary, _ = ds.forward_batch_tape(rng.standard_normal((2, 3, 3)))
    with pytest.raises(ValueError):
        summary[0] = 0.0


@pytest.mark.parametrize("dy_shape", [(4,), (4, 2), (3, 3), (1, 4, 3), ()])
def test_backward_rejects_upstream_gradient_of_wrong_shape(dy_shape):
    rng = np.random.default_rng(4700)
    net = rand_mlp(rng, [3, 5, 3], rand_bias=True)
    _, tape = net.forward_tape(rng.standard_normal((4, 3)))
    with pytest.raises(ShapeError):
        net.backward(tape, np.ones(dy_shape))


@pytest.mark.parametrize("dy_shape", [(), (1, 3), (2,)])
def test_backward_of_single_input_rejects_wrong_upstream_shape(dy_shape):
    rng = np.random.default_rng(4800)
    net = rand_mlp(rng, [3, 5, 3], rand_bias=True)
    _, tape = net.forward_tape(rng.standard_normal(3))
    with pytest.raises(ShapeError):
        net.backward(tape, np.ones(dy_shape))


def test_backward_takes_unsqueezed_upstream_only_for_one_output_nets():
    rng = np.random.default_rng(4900)
    net = rand_mlp(rng, [3, 5, 1], rand_bias=True)
    x = rng.standard_normal((4, 3))
    _, tape = net.forward_tape(x)
    dy = rng.standard_normal(4)
    assert_same(net.backward(tape, dy)[0], net.backward(tape, dy[:, None])[0])
    with pytest.raises(ShapeError):
        net.backward(tape, np.ones(5))


# ------------------------------------------------------------------- film

def test_film_is_identity_at_init():
    rng = np.random.default_rng(3)
    gen = FilmGenerator.create(cond_dim=4, width=6, rng=rng)
    feats = rng.standard_normal(6).astype(np.float32)
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
    gen = as_dtype(FilmGenerator.create(cond_dim=3, width=4, rng=rng), np.float64)
    gen.net.layers[-1].weight[:] = rng.standard_normal(gen.net.layers[-1].weight.shape)
    feats = rng.standard_normal(4)
    cond = rng.standard_normal(3)
    raw = gen.net.forward(cond)
    expected = (1.0 + raw[:4]) * feats + raw[4:]
    assert np.allclose(gen.modulate_tape(feats, cond)[0], expected, atol=0, rtol=0)


def test_film_width_mismatch_raises():
    gen = FilmGenerator.create(cond_dim=3, width=4, rng=np.random.default_rng(0))
    # a feature width off the generator's, then feature batches that would broadcast against cond's
    cases = [(np.zeros(5), np.zeros(3)), (np.zeros((1, 4)), np.zeros((5, 3))), (np.zeros(4), np.zeros((5, 3)))]
    for features, cond in cases:
        with pytest.raises(ShapeError):
            gen.modulate_tape(features, cond)


@pytest.mark.parametrize("seed", range(50))
def test_film_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(2000 + seed)
    width = int(rng.integers(2, 5))
    cond_dim = int(rng.integers(2, 4))
    gen = as_dtype(FilmGenerator.create(cond_dim, width, rng), np.float64)
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


def test_deepset_empty_set_raises():
    ds = DeepSetSummarizer.create(3, 5, 4, np.random.default_rng(0))
    for empty in ([], np.zeros((0, 3))):
        with pytest.raises(ShapeError):
            ds.summarize(empty)
    for forward in (ds.forward_batch, ds.forward_batch_tape):
        with pytest.raises(ShapeError):
            forward(np.zeros((2, 0, 3)))


def test_deepset_matches_straightline_recomputation():
    rng = np.random.default_rng(12)
    ds = DeepSetSummarizer.create(3, 5, 4, rng)
    elems = rng.standard_normal((3, 3))
    order = np.lexsort(elems.T[::-1])
    per_element = np.stack([ds.phi.forward(e) for e in elems[order]])
    expected = ds.rho.forward(per_element.mean(axis=0))
    got = ds.summarize(list(elems))
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
    ds = as_dtype(DeepSetSummarizer.create(3, 4, 3, rng), np.float64)
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
    created = rand_mlp(rng, [4, 7, 7, 3], acts=["relu", "tanh", "linear"], rand_bias=True)
    xs = (rng.standard_normal(4), rng.standard_normal((5, 4)))
    for dtype in DTYPES:
        net = as_dtype(created, dtype)
        for x in xs:
            assert_same(net.forward(x), net.forward_tape(x)[0])


@pytest.mark.parametrize("m", [1, 3])
def test_deepset_taped_and_untaped_forward_agree_bitwise(m):
    rng = np.random.default_rng(4100 + m)
    created = DeepSetSummarizer.create(3, 5, 4, rng)
    elems = rng.standard_normal((6, m, 3))
    for dtype in DTYPES:
        ds = as_dtype(created, dtype)
        out, tape = ds.forward_batch_tape(elems)
        assert out.dtype == dtype
        assert_same(ds.forward_batch(elems), out)
        assert tape[:2] == (6, m)


def test_deepset_summarize_agrees_bitwise_with_batch_of_sorted_set():
    rng = np.random.default_rng(4200)
    ds = DeepSetSummarizer.create(3, 5, 4, rng)
    elems = rng.standard_normal((4, 3))
    ordered = elems[np.lexsort(elems.T[::-1])]
    assert np.array_equal(ds.summarize(list(elems)).vector, ds.forward_batch(ordered[None])[0])


def test_film_scale_shift_agrees_bitwise_with_modulate_tape():
    rng = np.random.default_rng(4300)
    created = FilmGenerator.create(cond_dim=3, width=4, rng=rng)
    created.net.layers[-1].weight[:] = rng.standard_normal(created.net.layers[-1].weight.shape)
    cases = ((rng.standard_normal(4), rng.standard_normal(3)),
             (rng.standard_normal((5, 4)), rng.standard_normal((5, 3))))
    for dtype in DTYPES:
        gen = as_dtype(created, dtype)
        for h, c in cases:
            gamma, beta = gen.scale_shift(c)
            assert_same(gamma * h.astype(dtype) + beta, gen.modulate_tape(h, c)[0])


# ------------------------------------------------------------ float32 path

def test_float32_pass_and_update_never_widen_to_float64():
    """float64 inputs, targets and upstream gradients meet float32 modules at
    every entry point; every output, gradient, moment and target stays float32."""
    rng = np.random.default_rng(4400)
    critic = rand_mlp(rng, [6, 8, 1])
    ds = DeepSetSummarizer.create(2, 5, 4, rng)
    gen = FilmGenerator.create(4, 3, rng)
    target = as_dtype(critic, np.float32)
    q, tape = critic.forward_tape(rng.standard_normal((5, 6)))
    dx, grads = critic.backward(tape, rng.standard_normal(5))
    summary, ds_tape = ds.forward_batch_tape(rng.standard_normal((5, 2, 2)))
    delems, ds_grads = ds.backward_batch(ds_tape, rng.standard_normal((5, 4)))
    mod, film_tape = gen.modulate_tape(rng.standard_normal((5, 3)), rng.standard_normal((5, 4)))
    dfeat, dcond, film_grads = gen.backward(film_tape, rng.standard_normal((5, 3)))
    state = AdamState(critic.arrays())
    adam_step(critic.arrays(), grads, state, lr=3e-4)
    polyak_update(target.arrays(), critic.arrays(), 0.005)
    outputs = [q, dx, summary, delems, mod, dfeat, dcond, critic.forward(rng.standard_normal(6)),
               ds.summarize(np.zeros((3, 2))).vector, *gen.scale_shift(np.zeros(4))]
    for a in outputs + grads + ds_grads + film_grads + critic.arrays() + state.m + state.v + target.arrays():
        assert a.dtype == np.float32


def test_float32_critic_matches_its_float64_copy():
    rng = np.random.default_rng(4450)
    net32 = rand_mlp(rng, [40, 256, 256, 1], rand_bias=True)
    net64 = as_dtype(net32, np.float64)
    x, dy = rng.standard_normal((64, 40)), rng.standard_normal(64)
    results = []
    for net in (net32, net64):
        dx, grads = net.backward(net.forward_tape(x)[1], dy)
        results.append([net.forward(x), dx, *grads])
    for g, w in zip(*results):
        assert g.dtype == np.float32 and w.dtype == np.float64
        assert np.max(np.abs(g - w)) <= 1e-5 * np.max(np.abs(w))


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


@pytest.mark.parametrize("seed", range(4))
def test_adam_matches_allocating_formula_bitwise(seed):
    # gradient scales span about half of each dtype's exponent range, so g * g stays finite
    for dtype, span in ((np.float32, 18), (np.float64, 150)):
        rng = np.random.default_rng(5000 + seed)
        shapes = [(4, 3), (3,), (3, 1), (1,)]
        arrays = [rng.standard_normal(s).astype(dtype) for s in shapes]
        ref_arrays = [a.copy() for a in arrays]
        state = AdamState(arrays)
        ref_m, ref_v, ref_step = [np.zeros(s, dtype) for s in shapes], [np.zeros(s, dtype) for s in shapes], 0
        for i in range(6):
            scale = 10.0 ** rng.uniform(-span, span, size=len(shapes)) if i % 2 else np.ones(len(shapes))
            grads = [(s * rng.standard_normal(a.shape)).astype(dtype) for s, a in zip(scale, arrays)]
            grads[0][0, 0] = 0.0
            before = [g.copy() for g in grads]
            lr = float(10.0 ** rng.uniform(-4, -1))
            adam_step(arrays, grads, state, lr=lr)
            ref_step = ref_adam(ref_arrays, grads, ref_m, ref_v, ref_step, lr)
            assert arrays[0].dtype == state.m[0].dtype == state.v[0].dtype == dtype
            assert_same(arrays, ref_arrays)
            assert_same(state.m, ref_m)
            assert_same(state.v, ref_v)
            assert_same(grads, before)
            assert state.step == ref_step


def test_adam_rejects_state_of_another_network_and_changes_nothing():
    rng = np.random.default_rng(5100)
    net, other = rand_mlp(rng, [3, 4, 2]), rand_mlp(rng, [3, 5, 2])
    state = AdamState(other.arrays())
    grads = [rng.standard_normal(a.shape) for a in net.arrays()]
    before = [a.copy() for a in net.arrays() + state.m + state.v]
    with pytest.raises(ShapeError):
        adam_step(net.arrays(), grads, state, lr=1e-3)
    for a, b in zip(net.arrays() + state.m + state.v, before):
        assert np.array_equal(a, b)
    assert state.step == 0


@pytest.mark.parametrize("other", ["gradient", "moment"])
def test_adam_rejects_other_dtypes_and_changes_nothing(other):
    rng = np.random.default_rng(5150)
    net = rand_mlp(rng, [3, 4, 2])
    state = AdamState(net.arrays())
    adam_step(net.arrays(), _rand_grads(rng, net), state, lr=1e-3)
    grads = _rand_grads(rng, net)
    if other == "gradient":
        grads[-1] = grads[-1].astype(np.float64)
    else:
        state.v[-1] = state.v[-1].astype(np.float64)
    before = [a.copy() for a in net.arrays() + state.m + state.v]
    with pytest.raises(ShapeError):
        adam_step(net.arrays(), grads, state, lr=1e-3)
    assert_same(net.arrays() + state.m + state.v, before)
    assert state.step == 1


@pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf, -1e-3])
def test_adam_rejects_a_bad_learning_rate_and_changes_nothing(lr):
    rng = np.random.default_rng(5151)
    net = rand_mlp(rng, [3, 4, 2])
    state = AdamState(net.arrays())
    adam_step(net.arrays(), _rand_grads(rng, net), state, lr=1e-3)
    before = [a.copy() for a in net.arrays() + state.m + state.v]
    with pytest.raises(ValueError, match="lr must be finite and non-negative"):
        adam_step(net.arrays(), _rand_grads(rng, net), state, lr=lr)
    assert_same(net.arrays() + state.m + state.v, before)
    assert state.step == 1


def test_adam_rejects_second_moment_of_wrong_shape():
    w = [np.zeros(3)]
    state = AdamState(w)
    state.v[0] = np.zeros(4)
    with pytest.raises(ShapeError):
        adam_step(w, [np.ones(3)], state, lr=1e-3)
    assert state.step == 0 and not state.m[0].any()


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
    target = [np.zeros(2), np.zeros(2)]
    with pytest.raises(ShapeError):
        polyak_update(target, [np.ones(2), np.ones(3)], 0.5)
    with pytest.raises(ShapeError):
        polyak_update(target, [np.ones(2), np.ones(2, dtype=np.float32)], 0.5)
    assert not target[0].any()  # checked before any array moves


@pytest.mark.parametrize("tau", [0.005, 0.3, 1.0 / 3.0])
def test_polyak_matches_allocating_formula_bitwise(tau):
    for dtype, big, tiny in ((np.float32, 1e30, 1e-30), (np.float64, 1e200, 1e-200)):
        rng = np.random.default_rng(5200)
        target = [rng.standard_normal((5, 4)).astype(dtype), (big * rng.standard_normal(3)).astype(dtype)]
        online = [rng.standard_normal((5, 4)).astype(dtype), (tiny * rng.standard_normal(3)).astype(dtype)]
        want = [t.copy() for t in target]
        for t, o in zip(want, online):
            t *= 1.0 - tau
            t += tau * o
        online_before = [o.copy() for o in online]
        polyak_update(target, online, tau)
        assert target[0].dtype == target[1].dtype == dtype
        assert_same(target, want)
        assert_same(online, online_before)


# ------------------------------------------------------------- checkpoint

def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(31)
    net = rand_mlp(rng, [3, 7, 2])
    state = AdamState(net.arrays())
    adam_step(net.arrays(), _rand_grads(rng, net), state, lr=1e-3)
    for name in ("net.npz", "ckpt"):  # a path without the suffix is written as given
        path = tmp_path / name
        save_arrays(path, net.arrays(), state)
        assert path.is_file() and not (tmp_path / "ckpt.npz").exists()

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
    save_arrays(path, net.arrays(), AdamState(net.arrays()))
    wrong = rand_mlp(np.random.default_rng(2), [3, 5, 2])
    with pytest.raises(ShapeError):
        load_arrays(path, wrong.arrays(), AdamState(wrong.arrays()))


def test_checkpoint_save_needs_one_moment_pair_per_array(tmp_path):
    net = rand_mlp(np.random.default_rng(3), [3, 4, 2])
    smaller = rand_mlp(np.random.default_rng(4), [3, 2])
    path = tmp_path / "net.npz"
    with pytest.raises(ShapeError):
        save_arrays(path, net.arrays(), AdamState(smaller.arrays()))
    assert not path.exists()


def _trained_net(seed, steps):
    rng = np.random.default_rng(seed)
    net = rand_mlp(rng, [3, 7, 2])
    state = AdamState(net.arrays())
    for _ in range(steps):
        adam_step(net.arrays(), _rand_grads(rng, net), state, lr=1e-3)
    return net, state


@pytest.mark.parametrize(
    "corrupt",
    ["last_array", "adam_moment", "dtype", "no_optimizer_state", "missing_moment", "missing_array", "missing_count"],
)
def test_checkpoint_mismatch_changes_nothing(tmp_path, corrupt):
    net, state = _trained_net(41, steps=1)
    path = tmp_path / "net.npz"
    save_arrays(path, net.arrays(), state)
    with np.load(path) as data:
        payload = dict(data)
    key = "v0" if corrupt == "adam_moment" else f"p{len(net.arrays()) - 1}"
    if corrupt == "no_optimizer_state":  # a checkpoint comes from outside: it may lack the step
        del payload["step"]
    elif corrupt.startswith("missing"):  # ... or any array, moment or header entry
        del payload[{"missing_moment": "m1", "missing_array": key, "missing_count": "count"}[corrupt]]
    elif corrupt == "dtype":  # a float64 checkpoint of the same shapes is not rounded into float32 arrays
        payload[key] = payload[key].astype(np.float64)
    else:
        payload[key] = np.zeros(payload[key].size + 1)
    np.savez(path, **payload)

    other, other_state = _trained_net(42, steps=2)
    before = [a.copy() for a in other.arrays() + other_state.m + other_state.v]
    with pytest.raises(ShapeError):
        load_arrays(path, other.arrays(), other_state)
    for a, b in zip(other.arrays() + other_state.m + other_state.v, before):
        assert np.array_equal(a, b)
    assert other_state.step == 2
