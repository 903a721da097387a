"""Oracle and property tests for the numerical kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradcheck import finite_diff_check
from organmatch.numkit import (
    ROW_BLOCK,
    Adam,
    AdamState,
    DenseNet,
    DimensionMismatchError,
    InsufficientDataError,
    Layer,
    TrainingDivergedError,
    adam_step,
    gmm_em_fit,
    init_dense_net,
    kl_diag,
    kmeans_fit,
    map_row_blocks,
    minibatches,
    mlp_backward,
    mlp_forward,
    mlp_predict,
    rng_stream,
)


# ---------------------------------------------------------------------------
# rng_stream
# ---------------------------------------------------------------------------


def test_rng_stream_deterministic():
    a = rng_stream(7, "x").normal(size=5)
    b = rng_stream(7, "x").normal(size=5)
    np.testing.assert_array_equal(a, b)


def test_rng_stream_components_independent():
    a = rng_stream(7, "x").normal(size=5)
    _ = rng_stream(7, "y").normal(size=50)  # other component's draws
    b = rng_stream(7, "x").normal(size=5)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# mlp forward/backward
# ---------------------------------------------------------------------------


def test_mlp_identity_layer_passes_input_through():
    net = DenseNet([Layer(np.eye(3), np.zeros(3), "identity")])
    x = np.array([[1.0, -2.0, 0.5]])
    out, _ = mlp_forward(net, x)
    np.testing.assert_allclose(out, x)


def test_a_layer_holds_float64_weight_and_bias():
    for weight, bias in ((np.eye(2, dtype=bool), np.zeros(2)), (np.eye(2), np.zeros(2, dtype=int)),
                         (np.eye(2, dtype=np.float32), np.zeros(2))):
        with pytest.raises(TypeError):
            Layer(weight, bias, "identity")


def test_mlp_relu_layer():
    net = DenseNet([Layer(np.eye(2), np.zeros(2), "relu")])
    out, _ = mlp_forward(net, np.array([[-1.0, 2.0]]))
    np.testing.assert_allclose(out, [[0.0, 2.0]])


def test_mlp_two_layer_tanh_hand_evaluated():
    w1 = np.array([[0.5, -0.25], [0.1, 0.3]])
    b1 = np.array([0.05, -0.1])
    w2 = np.array([[1.0], [-2.0]])
    b2 = np.array([0.2])
    net = DenseNet([Layer(w1, b1, "tanh"), Layer(w2, b2, "identity")])
    x = np.array([[0.3, -0.7]])
    # straight-line hand evaluation of the composition
    h = np.tanh(x @ w1 + b1)
    expected = h @ w2 + b2
    out, _ = mlp_forward(net, x)
    np.testing.assert_allclose(out, expected, rtol=1e-12)


def test_mlp_dimension_mismatch_rejected():
    net = DenseNet([Layer(np.eye(3), np.zeros(3), "identity")])
    with pytest.raises(DimensionMismatchError):
        mlp_forward(net, np.zeros((2, 4)))


def test_mlp_predict_is_the_forward_pass_without_a_cache():
    rng = rng_stream(5, "predict")
    net = init_dense_net([5, 7, 7, 7, 2], ["relu", "tanh", "relu", "identity"], rng)
    x = rng.normal(size=(40, 5))
    x_before = x.copy()
    reference = x  # out of place: z = a @ W + b, then the activation
    for layer in net.layers:
        z = reference @ layer.weight + layer.bias
        reference = {"relu": np.maximum(z, 0.0), "tanh": np.tanh(z), "identity": z}[
            layer.activation]
    out, cache = mlp_forward(net, x)
    np.testing.assert_array_equal(out, reference)
    np.testing.assert_array_equal(mlp_predict(net, x), reference)
    np.testing.assert_array_equal(x, x_before)
    # the training cache keeps each layer's pre-activation apart from its output
    assert all(z is not a_out for (_, z, a_out), layer in zip(cache, net.layers)
               if layer.activation != "identity")
    with pytest.raises(DimensionMismatchError):
        mlp_predict(net, np.zeros((2, 4)))


# Phi and the donor encoder (2 -> 32 -> 32 -> 8 on the preset), a head and the
# pair regressor, as the default TrainConfig builds them
INFERENCE_NETS = {"phi-encoder": [2, 32, 32, 8], "head": [8, 32, 32, 1], "reg-nn": [4, 32, 32, 1]}


@pytest.mark.parametrize("rows", [ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 7])
@pytest.mark.parametrize("dims", INFERENCE_NETS.values(), ids=INFERENCE_NETS.keys())
def test_mlp_predict_in_row_blocks_keeps_the_whole_batch_bits(dims, rows):
    rng = rng_stream(6, "blocks", rows)
    net = init_dense_net(dims, ["relu", "relu", "identity"], rng)
    x = rng.normal(size=(rows, dims[0]))
    assert mlp_predict(net, x).tobytes() == mlp_forward(net, x)[0].tobytes()


@pytest.mark.parametrize("rows", [0, 1, 2, ROW_BLOCK, ROW_BLOCK + 1, ROW_BLOCK + 2,
                                  2 * ROW_BLOCK + 7])
def test_map_row_blocks_cuts_full_blocks_and_no_one_row_tail(rows):
    x = np.arange(2 * rows, dtype=float).reshape(rows, 2)
    seen = []

    def fn(block):
        seen.append(len(block))
        return block.sum(axis=1).astype(int)

    out = map_row_blocks(fn, x)
    np.testing.assert_array_equal(out, x.sum(axis=1).astype(int))
    assert out.dtype == int and sum(seen) == rows
    # full blocks, and no one-row block unless the batch is one row
    assert all(size == ROW_BLOCK for size in seen[:-1]) and (seen[-1] != 1 or rows == 1)


def test_backward_zero_upstream_gives_zero_grads():
    net = init_dense_net([3, 4, 2], ["relu", "identity"], rng_stream(0, "t"))
    out, cache = mlp_forward(net, rng_stream(1, "t").normal(size=(5, 3)))
    grads, d_in = mlp_backward(net, cache, np.zeros_like(out))
    assert all(np.all(g == 0) for g in grads)
    assert np.all(d_in == 0)


def test_backward_scalar_linear_case():
    # y = w * x with upstream gradient 1 at x = 3 -> dL/dw = 3
    net = DenseNet([Layer(np.array([[2.0]]), np.zeros(1), "identity")])
    out, cache = mlp_forward(net, np.array([[3.0]]))
    grads, _ = mlp_backward(net, cache, np.ones_like(out))
    np.testing.assert_allclose(grads[0], [[3.0]])
    np.testing.assert_allclose(grads[1], [1.0])


@pytest.mark.parametrize("acts", [["relu", "identity"], ["tanh", "tanh"]])
def test_backward_matches_finite_differences(acts):
    rng = rng_stream(3, "fd", acts[0])
    net = init_dense_net([4, 5, 2], acts, rng)
    x = rng.normal(size=(6, 4))
    target = rng.normal(size=(6, 2))

    def loss_and_grads(params):
        out, cache = mlp_forward(net, x)
        err = out - target
        loss = float(np.sum(err * err))
        grads, _ = mlp_backward(net, cache, 2.0 * err)
        return loss, grads

    report = finite_diff_check(loss_and_grads, net.parameters(), tol=1e-4)
    assert report.passed, f"max rel error {report.max_rel_error}"


def test_backward_matches_activation_mask_reference():
    """mlp_backward against the chain rule with an explicit float mask per layer."""
    rng = rng_stream(4, "backward-ref")
    net = init_dense_net([5, 7, 7, 3], ["relu", "tanh", "identity"], rng)
    out, cache = mlp_forward(net, rng.normal(size=(9, 5)))
    upstream = rng.normal(size=out.shape)
    expected = []
    delta = upstream
    for layer, (a_in, z, a_out) in zip(reversed(net.layers), reversed(cache)):
        mask = {"relu": (z > 0.0).astype(float), "tanh": 1.0 - a_out * a_out,
                "identity": np.ones_like(z)}[layer.activation]
        delta = delta * mask
        expected += [np.sum(delta, axis=0), a_in.T @ delta]
        delta = delta @ layer.weight.T
    grads, d_in = mlp_backward(net, cache, upstream)
    for got, want in zip(grads, expected[::-1]):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(d_in, delta)


def test_finite_diff_check_negative_control():
    # deliberately doubled gradient must fail
    x = np.array([1.5])

    def bad(params):
        return float(params[0][0] ** 2), [2.0 * 2.0 * params[0]]

    assert not finite_diff_check(bad, [x], tol=1e-4).passed


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_no_move():
    p = [np.array([1.0, -2.0])]
    adam_step(p, [np.zeros(2)], AdamState(), lr=0.1)
    np.testing.assert_allclose(p[0], [1.0, -2.0])


def test_adam_first_step_is_signed_lr():
    for g in (0.01, 5.0, -3.0):
        p = [np.array([0.0])]
        adam_step(p, [np.array([g])], AdamState(), lr=0.1)
        np.testing.assert_allclose(p[0], [-np.sign(g) * 0.1], atol=1e-6)


def test_adam_converges_on_quadratic():
    p = [np.array([1.0])]
    state = AdamState()
    values = []
    for _ in range(2000):
        adam_step(p, [2.0 * p[0]], state, lr=0.01)
        values.append(float(p[0][0] ** 2))
    assert abs(p[0][0]) < 1e-3
    # overall downward trend
    assert values[-1] < values[0]


def _two_nets(seed):
    rng = rng_stream(seed, "flat")
    return [init_dense_net([3, 4, 2], ["relu", "identity"], rng),
            init_dense_net([2, 5, 1], ["tanh", "identity"], rng)]


def test_adam_on_flat_buffer_matches_per_array_updates():
    bound, reference = _two_nets(5), _two_nets(5)
    opt = Adam(bound, lr=0.01, what="test")
    ref_params = [p for net in reference for p in net.parameters()]
    ref_state = AdamState()
    rng = rng_stream(6, "flat-grads")
    for _ in range(5):
        grads = [rng.normal(size=p.shape) for p in ref_params]
        opt.step(1.0, grads)
        adam_step(ref_params, grads, ref_state, lr=0.01)
    for got, want in zip([p for net in bound for p in net.parameters()], ref_params):
        np.testing.assert_array_equal(got, want)
    assert opt.state.t == ref_state.t == 5


def test_flat_buffer_step_shows_in_layers():
    nets = _two_nets(7)
    before = [p.copy() for net in nets for p in net.parameters()]
    opt = Adam(nets, lr=0.1, what="test")
    params = [p for net in nets for p in net.parameters()]
    for p, old in zip(params, before):
        np.testing.assert_array_equal(p, old)
        assert p.flags.c_contiguous and np.shares_memory(p, opt.buffer)
    assert opt.buffer.size == sum(p.size for p in params)
    opt.step(0.0, [np.ones_like(p) for p in params])
    layer = nets[1].layers[0]
    np.testing.assert_allclose(layer.weight, before[4] - 0.1, atol=1e-6)
    np.testing.assert_allclose(layer.bias, before[5] - 0.1, atol=1e-6)


@pytest.mark.parametrize("loss", [np.nan, np.inf])
def test_adam_non_finite_loss_raises_naming_the_loss(loss):
    nets = _two_nets(8)
    opt = Adam(nets, lr=0.1, what="the test's")
    before = opt.buffer.copy()
    with pytest.raises(TrainingDivergedError, match="the test's loss diverged"):
        opt.step(loss, [np.zeros_like(p) for net in nets for p in net.parameters()])
    np.testing.assert_array_equal(opt.buffer, before)
    assert opt.state.t == 0


def test_minibatches_cover_every_row_once():
    batches = list(minibatches(10, 4, rng_stream(9, "mb")))
    assert [len(b) for b in batches] == [4, 4, 2]
    np.testing.assert_array_equal(np.sort(np.concatenate(batches)), np.arange(10))


def test_adam_non_finite_gradient_raises():
    with pytest.raises(TrainingDivergedError):
        adam_step([np.array([1.0])], [np.array([np.nan])], AdamState(), lr=0.1)


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------


def test_kmeans_separated_points_each_own_cluster():
    pts = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
    centers, labels, _ = kmeans_fit(pts, 3, rng_stream(0, "km"))
    assert len(set(labels.tolist())) == 3
    for point in pts:
        assert min(np.sum((centers - point) ** 2, axis=1)) < 1e-18


def test_kmeans_duplication_invariance():
    rng = rng_stream(1, "km-dup")
    pts = np.vstack([rng.normal(-5, 0.3, size=(40, 2)), rng.normal(5, 0.3, size=(40, 2))])
    c1, _, _ = kmeans_fit(pts, 2, rng_stream(2, "km-a"))
    c2, _, _ = kmeans_fit(np.vstack([pts, pts]), 2, rng_stream(2, "km-b"))
    # order-insensitive comparison
    c1 = c1[np.argsort(c1[:, 0])]
    c2 = c2[np.argsort(c2[:, 0])]
    np.testing.assert_allclose(c1, c2, atol=1e-6)


def test_kmeans_recovers_1d_mixture():
    rng = rng_stream(5, "km-mix")
    pts = np.concatenate([rng.normal(-5, 0.5, 100), rng.normal(5, 0.5, 100)])[:, None]
    centers, _, _ = kmeans_fit(pts, 2, rng_stream(6, "km-mix"))
    centers = np.sort(centers[:, 0])
    assert abs(centers[0] + 5) < 0.5 and abs(centers[1] - 5) < 0.5


def test_kmeans_objective_monotone():
    rng = rng_stream(7, "km-obj")
    pts = rng.normal(size=(200, 3))
    _, _, history = kmeans_fit(pts, 4, rng)
    diffs = np.diff(history)
    assert np.all(diffs <= 1e-9)


def test_kmeans_k_too_large_rejected():
    with pytest.raises(InsufficientDataError):
        kmeans_fit(np.zeros((2, 2)), 3, rng_stream(0, "km"))


def test_kmeans_restarts_never_worse():
    rng_pts = rng_stream(9, "km-restart")
    pts = rng_pts.normal(size=(120, 2))
    _, _, h1 = kmeans_fit(pts, 5, rng_stream(10, "a"))
    _, _, h10 = kmeans_fit(pts, 5, rng_stream(10, "a"), n_init=10)
    assert h10[-1] <= h1[-1] + 1e-9


# ---------------------------------------------------------------------------
# GMM EM
# ---------------------------------------------------------------------------


def test_gmm_single_component_matches_moments():
    rng = rng_stream(11, "gmm1")
    pts = rng.normal(2.0, 1.5, size=(500, 2))
    weights, means, variances, resp, _ = gmm_em_fit(pts, 1, rng_stream(12, "gmm1"))
    np.testing.assert_allclose(weights, [1.0])
    np.testing.assert_allclose(means[0], pts.mean(axis=0), atol=1e-8)
    np.testing.assert_allclose(variances[0], pts.var(axis=0), atol=1e-6)
    np.testing.assert_allclose(resp.sum(axis=1), 1.0)


def test_gmm_recovers_two_component_mixture():
    rng = rng_stream(13, "gmm2")
    pts = np.concatenate([rng.normal(-5, 1, 300), rng.normal(5, 1, 300)])[:, None]
    weights, means, _, _, _ = gmm_em_fit(pts, 2, rng_stream(14, "gmm2"))
    means = np.sort(means[:, 0])
    assert abs(means[0] + 5) < 0.5 and abs(means[1] - 5) < 0.5
    np.testing.assert_allclose(np.sort(weights), [0.5, 0.5], atol=0.1)


def test_gmm_loglik_monotone():
    rng = rng_stream(15, "gmm3")
    pts = rng.normal(size=(300, 2))
    history = gmm_em_fit(pts, 3, rng)[-1]
    assert np.all(np.diff(history) >= -1e-9)


# ---------------------------------------------------------------------------
# Gaussian fitting and KL
# ---------------------------------------------------------------------------


def test_kl_identity_zero():
    mean, var = np.array([1.0, -2.0]), np.array([0.5, 2.0])
    assert kl_diag(mean, var, mean, var) == pytest.approx(0.0, abs=1e-12)


def test_kl_standard_pair_half():
    assert kl_diag(np.array([0.0]), np.array([1.0]),
                   np.array([1.0]), np.array([1.0])) == pytest.approx(0.5)


def test_kl_additivity_over_dimensions():
    p1 = (np.array([0.3]), np.array([1.2]))
    q1 = (np.array([-0.5]), np.array([0.7]))
    p2 = (np.array([2.0]), np.array([0.4]))
    q2 = (np.array([1.0]), np.array([1.1]))
    joint_p = (np.array([0.3, 2.0]), np.array([1.2, 0.4]))
    joint_q = (np.array([-0.5, 1.0]), np.array([0.7, 1.1]))
    assert kl_diag(*joint_p, *joint_q) == pytest.approx(kl_diag(*p1, *q1) + kl_diag(*p2, *q2))


def test_kl_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        kl_diag(np.zeros(2), np.ones(2), np.zeros(3), np.ones(3))
    with pytest.raises(DimensionMismatchError):
        kl_diag(np.zeros(2), np.ones(3), np.zeros(2), np.ones(2))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=4).flatmap(
    lambda mu: st.tuples(
        st.just(mu),
        st.lists(st.floats(0.1, 5), min_size=len(mu), max_size=len(mu)),
        st.lists(st.floats(-5, 5), min_size=len(mu), max_size=len(mu)),
        st.lists(st.floats(0.1, 5), min_size=len(mu), max_size=len(mu)),
    )))
def test_kl_nonnegative_property(args):
    mu_p, var_p, mu_q, var_q = (np.asarray(v, dtype=float) for v in args)
    val = kl_diag(mu_p, var_p, mu_q, var_q)
    assert val >= -1e-12
