"""Model tests: soft assignment, losses and their gradients, training, I/O."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from gradcheck import finite_diff_check
from organmatch import datamodel, matchrep, numkit, synthgen
from organmatch.datamodel import IngestionError
from organmatch.matchrep import (
    DeadClusterError,
    DonorClusterer,
    MatchRepModel,
    TrainConfig,
    best_donor_types,
    dec_loss_and_grads,
    dec_refine_loss_and_grads,
    donor_type_batch,
    factual_loss_and_grads,
    load_model,
    phi_heads_loss_and_grads,
    predict_potential_batch,
    pretrain_autoencoder,
    recon_loss_and_grads,
    rep_loss_and_grads,
    save_model,
    soft_assign,
    target_distribution,
    train_joint,
)
from organmatch.numkit import (
    VAR_FLOOR,
    DimensionMismatchError,
    init_dense_net,
    mlp_forward,
    rng_stream,
)


# ---------------------------------------------------------------------------
# soft assignment and target distribution
# ---------------------------------------------------------------------------


def test_soft_assign_hand_value():
    # one point at 0, centers at 0 and 2: kernel values 1 and (1+4)^(-1/2)
    t = soft_assign(np.array([[0.0]]), np.array([[0.0], [2.0]]))
    expected0 = 1.0 / (1.0 + 5.0 ** -0.5)
    np.testing.assert_allclose(t[0], [expected0, 1.0 - expected0], rtol=1e-12)


def test_soft_assign_rows_sum_to_one():
    rng = rng_stream(0, "sa")
    t = soft_assign(rng.normal(size=(40, 5)), rng.normal(size=(4, 5)))
    np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(t > 0)


def test_soft_assign_equidistant_uniform():
    # a point equidistant from all centers is assigned uniformly
    centers = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    t = soft_assign(np.zeros((1, 2)), centers)
    np.testing.assert_allclose(t[0], 0.25, rtol=1e-12)


def test_soft_assign_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        soft_assign(np.zeros((2, 3)), np.zeros((2, 4)))


def test_target_distribution_hand_value():
    t = np.array([[0.8, 0.2], [0.6, 0.4]])
    f = t.sum(axis=0)  # (1.4, 0.6)
    w = t * t / f
    expected = w / w.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(target_distribution(t), expected, rtol=1e-12)


def test_target_distribution_sharpens():
    t = np.array([[0.6, 0.4], [0.4, 0.6]])
    p = target_distribution(t)
    # sharpening pushes the dominant entry further up
    assert p[0, 0] > t[0, 0] and p[1, 1] > t[1, 1]
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_target_distribution_uniform_fixed_point():
    t = np.full((5, 3), 1.0 / 3.0)
    np.testing.assert_allclose(target_distribution(t), t, rtol=1e-12)


def test_target_distribution_dead_cluster():
    t = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DeadClusterError) as exc:
        target_distribution(t)
    assert exc.value.cluster == 1


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.float64, (6, 4), elements=st.floats(-5, 5)),
       hnp.arrays(np.float64, (3, 4), elements=st.floats(-5, 5)))
def test_soft_assign_rows_property(embeds, centers):
    t = soft_assign(embeds, centers)
    np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# DEC loss
# ---------------------------------------------------------------------------


def _dec_fixture(n=12, k=3, e=4, seed=1):
    rng = rng_stream(seed, "dec-fixture")
    embeds = rng.normal(size=(n, e))
    centers = rng.normal(size=(k, e))
    p = target_distribution(soft_assign(embeds, centers))
    return embeds, centers, p


def test_dec_loss_nonnegative_and_zero_at_match():
    embeds, centers, _ = _dec_fixture()
    t = soft_assign(embeds, centers)
    loss, _, _ = dec_loss_and_grads(embeds, centers, t)
    assert abs(loss) < 1e-10
    p = target_distribution(t)
    loss2, _, _ = dec_loss_and_grads(embeds, centers, p)
    assert loss2 > 0.0


def test_dec_loss_gradients_match_finite_differences():
    embeds, centers, p = _dec_fixture()

    def fn(params):
        loss, d_e, d_c = dec_loss_and_grads(params[0], params[1], p)
        return loss, [d_e, d_c]

    report = finite_diff_check(fn, [embeds.copy(), centers.copy()], tol=1e-5)
    assert report.passed, report.max_rel_error


# ---------------------------------------------------------------------------
# representation (distribution-matching) loss
# ---------------------------------------------------------------------------


def test_rep_loss_zero_when_single_cluster():
    rng = rng_stream(2, "rep")
    x = rng.normal(size=(30, 4))
    loss, grad, used = rep_loss_and_grads(x, np.zeros(30, dtype=int), k=3,
                                          min_cluster_count=2)
    assert loss == pytest.approx(0.0, abs=1e-10)
    np.testing.assert_allclose(grad, 0.0, atol=1e-10)
    assert used == 1


def test_rep_loss_hand_value_two_clusters():
    # 1-d: cluster 0 = {0, 2}, cluster 1 = {10, 12}
    x = np.array([[0.0], [2.0], [10.0], [12.0]])
    labels = np.array([0, 0, 1, 1])
    mu_a, var_a = 6.0, x[:, 0].var(ddof=1)
    expected = 0.0
    for mu_c in (1.0, 11.0):
        var_c = 2.0
        expected += 0.5 * (np.log(var_a / var_c) + var_c / var_a
                           + (mu_c - mu_a) ** 2 / var_a - 1.0)
    loss, _, used = rep_loss_and_grads(x, labels, k=2, min_cluster_count=2)
    assert used == 2
    assert loss == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("shape", [(2, 1), (9, 3), (128, 8), (1000, 5)])
def test_moments_match_numpy_mean_and_var(shape):
    x = 1.0 + 3.0 * rng_stream(11, "moments", *shape).normal(size=shape)
    mean, var, clamped, centered = matchrep._moments(x)
    np.testing.assert_array_equal(mean, x.mean(axis=0))
    np.testing.assert_array_equal(var, np.maximum(x.var(axis=0, ddof=1), VAR_FLOOR))
    np.testing.assert_array_equal(clamped, x.var(axis=0, ddof=1) < VAR_FLOOR)
    np.testing.assert_array_equal(centered, x - x.mean(axis=0))


def test_rep_loss_skips_small_clusters():
    rng = rng_stream(3, "rep-small")
    x = rng.normal(size=(20, 3))
    labels = np.zeros(20, dtype=int)
    labels[0] = 1  # singleton cluster must be skipped
    _, _, used = rep_loss_and_grads(x, labels, k=2, min_cluster_count=2)
    assert used == 1


def test_rep_loss_is_the_kl_of_each_used_cluster_bit_for_bit():
    # the KL that trains is numkit's, the one criterion 1 checks against
    # Monte Carlo
    rng = rng_stream(5, "rep-kl")
    x = 2.0 + rng.normal(size=(40, 4))
    labels = rng.integers(0, 4, size=40)
    labels[labels == 3] = 2  # cluster 3 is empty
    labels[0] = 3  # a singleton, below min_cluster_count
    loss, _, used = rep_loss_and_grads(x, labels, k=4, min_cluster_count=2)
    mu_a, var_a, _, _ = matchrep._moments(x)
    expected = 0.0
    for c in range(3):
        mu_c, var_c, _, _ = matchrep._moments(x[labels == c])
        expected += numkit.kl_diag(mu_c, var_c, mu_a, var_a)
    assert used == 3
    assert loss == expected


def test_rep_loss_gradients_match_finite_differences():
    rng = rng_stream(4, "rep-fd")
    x = rng.normal(size=(16, 3))
    labels = rng.integers(0, 2, size=16)

    def fn(params):
        loss, grad, _ = rep_loss_and_grads(params[0], labels, k=2, min_cluster_count=2)
        return loss, [grad]

    report = finite_diff_check(fn, [x.copy()], tol=1e-5)
    assert report.passed, report.max_rel_error


# ---------------------------------------------------------------------------
# factual loss
# ---------------------------------------------------------------------------


def _draw_biases(nets, rng):
    """Nonzero biases: with zero ones, a row whose hidden units are all dead
    puts a pre-activation at exactly 0, ReLU's kink, where a finite
    difference does not read the one-sided gradient of backprop."""
    for layer in [layer for net in nets for layer in net.layers]:
        layer.bias[:] = rng.normal(scale=0.5, size=layer.bias.shape)


def _tiny_model(d_r=3, d_o=2, k=2, seed=7, hidden=6):
    h = hidden
    config = TrainConfig(k=k, seed=seed, pretrain_epochs=2, joint_epochs=2)
    enc = init_dense_net([d_o, h, h, 3], rng_stream(seed, "t-enc"))
    phi = init_dense_net([d_r, h, h, 3], rng_stream(seed, "t-phi"))
    rng = rng_stream(seed, "t-heads")
    heads = [init_dense_net([3, h, h, 1], rng) for _ in range(k)]
    _draw_biases([enc, phi, *heads], rng_stream(seed, "t-biases"))
    clusterer = DonorClusterer("dec", rng_stream(seed, "t-centers").normal(size=(k, 3)),
                               encoder=enc)
    predictor = matchrep.MultiHeadPredictor(heads=heads, outcome_mean=500.0,
                                            outcome_scale=200.0)
    return MatchRepModel(name="matchrep", config=config,
                         clusterer=clusterer, phi=phi, predictor=predictor,
                         active=np.ones(k, bool))


def test_factual_loss_hand_value_linear_head():
    # single linear head y = 100 + 50 * x; two samples
    head = init_dense_net([1, 1], rng_stream(0, "fh"))
    head.layers[0].weight[:] = 1.0
    head.layers[0].bias[:] = 0.0
    predictor = matchrep.MultiHeadPredictor(heads=[head], outcome_mean=100.0,
                                            outcome_scale=50.0)
    x = np.array([[1.0], [2.0]])
    outcomes = np.array([120.0, 210.0])
    # predictions: 150 and 200; squared errors 900 and 100; mean 500
    loss, _, _ = factual_loss_and_grads(predictor, x, outcomes, np.zeros(2, dtype=int))
    assert loss == pytest.approx(500.0, rel=1e-12)


def test_factual_loss_gradients_match_finite_differences():
    model = _tiny_model()
    rng = rng_stream(8, "fl-fd")
    x = rng.normal(size=(10, 3))
    outcomes = rng.uniform(100, 900, size=10)
    labels = rng.integers(0, 2, size=10)

    def fn(params):
        # params = head parameters for both heads, then xprime
        off = 0
        for head in model.predictor.heads:
            for p in head.parameters():
                p[:] = params[off]
                off += 1
        loss, head_grads, d_x = factual_loss_and_grads(
            model.predictor, params[off], outcomes, labels)
        grads = [g for hg in head_grads for g in hg] + [d_x]
        return loss, grads

    params = [p.copy() for h in model.predictor.heads for p in h.parameters()]
    params.append(x.copy())
    report = finite_diff_check(fn, params, tol=1e-4, max_entries_per_block=20,
                               rng=rng_stream(9, "fd-sub"))
    assert report.passed, report.max_rel_error


# ---------------------------------------------------------------------------
# the losses that train: reconstruction, DEC refinement, Phi+heads
# ---------------------------------------------------------------------------


def _set_params(params, values):
    for dst, src in zip(params, values):
        dst[:] = src


def test_recon_loss_gradients_match_finite_differences():
    encoder = _tiny_model().clusterer.encoder
    # the mirror of _tiny_model's [2, 6, 6, 3] encoder
    decoder = init_dense_net([3, 6, 6, 2], rng_stream(7, "t-dec"))
    _draw_biases([decoder], rng_stream(7, "t-dec-biases"))
    x = rng_stream(14, "recon-fd").normal(size=(12, 2))
    live = encoder.parameters() + decoder.parameters()

    def fn(params):
        _set_params(live, params)
        return recon_loss_and_grads(encoder, decoder, x)

    report = finite_diff_check(fn, [p.copy() for p in live], tol=1e-4,
                               max_entries_per_block=12, rng=rng_stream(15, "recon-sub"))
    assert report.passed, report.max_rel_error


def test_dec_refine_loss_gradients_match_finite_differences():
    model = _tiny_model()
    c = model.clusterer
    rng = rng_stream(16, "dec-refine-fd")
    x = rng.normal(size=(12, 2))
    p_rows = target_distribution(soft_assign(mlp_forward(c.encoder, x)[0], c.centers))
    decay, share = 0.3, 12 / 40
    live = c.encoder.parameters() + [c.centers]

    def fn(params):
        _set_params(live, params)
        l_dec, grads = dec_refine_loss_and_grads(c.encoder, c.centers, x, p_rows, decay, share)
        embeds = mlp_forward(c.encoder, x)[0]
        objective = l_dec + decay * (np.mean(np.sum(embeds * embeds, axis=1))
                                     + share * np.sum(c.centers * c.centers))
        return objective, grads

    report = finite_diff_check(fn, [p.copy() for p in live], tol=1e-4,
                               max_entries_per_block=12, rng=rng_stream(17, "dec-refine-sub"))
    assert report.passed, report.max_rel_error


def test_dec_refine_loss_is_the_batch_dec_loss():
    model = _tiny_model()
    c = model.clusterer
    x = rng_stream(18, "dec-refine-l").normal(size=(12, 2))
    embeds = mlp_forward(c.encoder, x)[0]
    p_rows = target_distribution(soft_assign(embeds, c.centers))
    l_dec, _ = dec_refine_loss_and_grads(c.encoder, c.centers, x, p_rows, 0.3, 0.5)
    assert l_dec == dec_loss_and_grads(embeds, c.centers, p_rows)[0]


@pytest.mark.parametrize("beta, with_phi", [(0.0, True), (1.0, True), (0.0, False)],
                         ids=["0.0", "1.0", "phi-less"])
def test_phi_heads_loss_gradients_match_finite_differences(monkeypatch, beta, with_phi):
    monkeypatch.setattr(matchrep, "MIN_CLUSTER_COUNT", 2)
    model = _tiny_model()
    rng = rng_stream(10, "phi-heads-fd")
    recipients = rng.normal(size=(16, 3))
    outcomes = rng.uniform(100, 900, size=16)
    if with_phi:
        phi, predictor, labels, k = model.phi, model.predictor, np.repeat([0, 1], 8), 2
    else:  # reg-nn's loss: one head over the rows themselves, every row of type 0
        predictor = replace(model.predictor, heads=model.predictor.heads[:1])
        phi, labels, k = None, np.zeros(16, dtype=int), 1
    live = [p for net in ([phi] if phi else []) + predictor.heads for p in net.parameters()]

    def fn(params):
        _set_params(live, params)
        l_f, l_rep, grads = phi_heads_loss_and_grads(phi, predictor, recipients, outcomes,
                                                     labels, beta, k=k)
        assert (l_rep == 0.0) == (beta == 0.0)
        return l_f + beta * l_rep, grads

    report = finite_diff_check(fn, [p.copy() for p in live], tol=1e-4,
                               max_entries_per_block=12, rng=rng_stream(11, "phi-heads-sub"))
    assert report.passed, report.max_rel_error


# ---------------------------------------------------------------------------
# training and inference
# ---------------------------------------------------------------------------


def _training_data(n=120, seed=20):
    rng = rng_stream(seed, "train-data")
    recipients = rng.normal(size=(n, 3))
    donors = np.concatenate([rng.normal(-3, 0.3, size=(n // 2, 2)),
                             rng.normal(3, 0.3, size=(n - n // 2, 2))])
    outcomes = 400.0 + 100.0 * recipients[:, 0] + 50.0 * donors[:, 0] \
        + rng.normal(0, 5, size=n)
    return recipients, donors, outcomes


# trained with the SMALL_NETS networks (the small_nets fixture)
SMALL = dict(k=2, pretrain_epochs=10, joint_epochs=15, batch_size=32)


def test_train_joint_runs_and_logs(small_nets):
    recipients, donors, outcomes = _training_data()
    model, log = train_joint(recipients, donors, outcomes, TrainConfig(**SMALL))
    assert len(log) == 15
    # the loss terms, and no sum of them: alpha is the DEC step size, not a loss weight
    assert all(list(row) == ["epoch", "L_f", "L_DEC", "L_Phi", "dec_active", "label_churn",
                             "cluster_counts"] for row in log)
    # factual loss should drop over training
    assert log[-1]["L_f"] < 0.8 * log[0]["L_f"]


def test_train_joint_logs_label_churn_and_cluster_counts(small_nets):
    recipients, donors, outcomes = _training_data()
    config = TrainConfig(**SMALL)
    model, log = train_joint(recipients, donors, outcomes, config)
    refined = [row for row in log if row["dec_active"]]
    assert 1 <= len(refined) < len(log)  # refinement stopped early

    def stops(row):  # the stop rule: labels settled, and two clusters still active
        counts = [int(count) for count in row["cluster_counts"].split(";")]
        labels = np.repeat(np.arange(config.k), counts)
        return (row["label_churn"] < matchrep.DEC_STOP_TOL
                and matchrep.active_clusters(labels, config).sum() >= 2)

    assert [stops(row) for row in refined] == [False] * (len(refined) - 1) + [True]
    for row in log:
        counts = [int(count) for count in row["cluster_counts"].split(";")]
        assert len(counts) == config.k and sum(counts) == len(donors)
    # a frozen epoch changes no label; its counts are those of the final map
    final = np.bincount(np.argmax(model.clusterer.scores(donors), axis=1), minlength=config.k)
    assert {(row["label_churn"], row["cluster_counts"]) for row in log[len(refined):]} == {
        (0.0, ";".join(map(str, final)))}
    assert repr(train_joint(recipients, donors, outcomes, config)[1]) == repr(log)


def test_train_joint_skips_rep_loss_at_zero_beta(small_nets):
    recipients, donors, outcomes = _training_data()
    _, log = train_joint(recipients, donors, outcomes, TrainConfig(**SMALL, beta=0.0))
    assert [row["L_Phi"] for row in log] == [0.0] * len(log)


def test_a_trained_dec_map_owns_its_parameters(small_nets):
    # refinement steps the encoder in one buffer with the decoder; the map
    # that training returns holds its own parameters and no more
    recipients, donors, outcomes = _training_data()
    config = TrainConfig(**SMALL)
    encoders = [train_joint(recipients, donors, outcomes, config)[0].clusterer.encoder,
                matchrep.train_dec_standalone(donors, config).encoder]
    for encoder in encoders:
        params = encoder.parameters()
        memory = {id(p if p.base is None else p.base): (p if p.base is None else p.base).size
                  for p in params}
        assert sum(memory.values()) == sum(p.size for p in params)


def _pretrained_autoencoders(monkeypatch) -> list:
    """The (clusterer, decoder) of each ``pretrain_autoencoder`` call from
    now on; refinement goes on training both in place."""
    maps, real_pretrain = [], matchrep.pretrain_autoencoder

    def pretrain(*args, **kwargs):
        maps.append(real_pretrain(*args, **kwargs))
        return maps[-1]

    monkeypatch.setattr(matchrep, "pretrain_autoencoder", pretrain)
    return maps


@pytest.mark.parametrize("batch_size", [32, 128])
def test_train_joint_frozen_donor_map_is_computed_once(small_nets, monkeypatch, batch_size):
    recipients, donors, outcomes = _training_data()
    config = TrainConfig(**{**SMALL, "batch_size": batch_size})
    calls = {"L_DEC": 0, "encoder": 0}
    anchors, epochs = [], []
    real_dec = matchrep.dec_loss_and_grads
    real_epochs, real_adam = matchrep._dec_epochs, matchrep.Adam
    real_forwards = {name: getattr(matchrep, name) for name in ("mlp_forward", "mlp_predict")}
    maps = _pretrained_autoencoders(monkeypatch)

    def dec(*args, **kwargs):
        calls["L_DEC"] += 1
        return real_dec(*args, **kwargs)

    def counting(name):
        def forward(net, batch):
            calls["encoder"] += bool(maps) and net is maps[0][0].encoder
            return real_forwards[name](net, batch)
        return forward

    def adam(nets, lr, what):
        opt = real_adam(nets, lr, what)
        if what == "DEC refinement's reconstruction anchor":
            anchors.append(opt)
        return opt

    def dec_epochs(*args):
        # the calls so far when each epoch's labels are handed over: the
        # donor side of the epoch is done, its full-pass label check too
        for labels, l_dec, refined, *rest in real_epochs(*args):
            epochs.append((refined, dict(calls)))
            yield labels, l_dec, refined, *rest

    monkeypatch.setattr(matchrep, "dec_loss_and_grads", dec)
    for name in real_forwards:
        monkeypatch.setattr(matchrep, name, counting(name))
    monkeypatch.setattr(matchrep, "Adam", adam)
    monkeypatch.setattr(matchrep, "_dec_epochs", dec_epochs)
    model, log = train_joint(recipients, donors, outcomes, config)
    monkeypatch.undo()

    n, n_batches = len(outcomes), -(-len(outcomes) // config.batch_size)
    assert [row["dec_active"] for row in log] == [refined for refined, _ in epochs]
    r = sum(refined for refined, _ in epochs)  # the stop rule ends refinement early
    assert 1 <= r < len(log)
    assert [refined for refined, _ in epochs] == [True] * r + [False] * (len(log) - r)
    last_refined = epochs[r - 1][1]
    assert last_refined["L_DEC"] == r * n_batches
    assert epochs[-1][1]["L_DEC"] == last_refined["L_DEC"]
    # the frozen epochs reuse the soft assignment of the last refining
    # epoch's label check; no frozen epoch encodes any donor, and the active
    # mask is one more pass
    assert epochs[-1][1]["encoder"] == last_refined["encoder"]
    assert calls["encoder"] == last_refined["encoder"] + 1
    # refinement's reconstruction anchor trains the autoencoder in one buffer
    # of its own, which the model's encoder leaves once refinement is over
    assert len(anchors) == 1
    encoder, decoder = model.clusterer.encoder.parameters(), maps[0][1].parameters()
    assert anchors[0].buffer.size == sum(p.size for p in encoder + decoder)
    assert all(np.shares_memory(p, anchors[0].buffer) for p in decoder)
    assert not any(np.shares_memory(p, anchors[0].buffer) for p in encoder)

    # the logged L_DEC of a frozen epoch is one value, the per-batch
    # evaluation it replaces and the per-donor mean KL whatever the batch size
    assert len({row["L_DEC"] for row in log[r:]}) == 1
    rng = rng_stream(config.seed, "matchrep", "joint-batches")
    batches = [list(numkit.minibatches(n, config.batch_size, rng)) for _ in log]
    enc, centers = model.clusterer.encoder, model.clusterer.centers
    t = soft_assign(mlp_forward(enc, donors)[0], centers)
    p_full = target_distribution(t)
    donor_mean = float(np.sum(matchrep._dec_terms(p_full, np.maximum(t, matchrep.T_CLAMP)))) / n
    for row, epoch_batches in zip(log[r:], batches[r:]):
        expected = sum(dec_loss_and_grads(mlp_forward(enc, donors[idx])[0], centers,
                                          p_full[idx])[0]
                       for idx in epoch_batches) / n
        assert row["L_DEC"] == pytest.approx(expected, rel=1e-12)
        assert row["L_DEC"] == pytest.approx(donor_mean, rel=1e-12)


def _map_state(clusterer, decoder) -> list[bytes]:
    return [p.tobytes() for p in clusterer.encoder.parameters() + decoder.parameters()
            + [clusterer.centers]]


def test_dec_refinement_anchor_divergence_names_dec_refinement(small_nets):
    # a diverged first refining epoch is undone: the map stays the pretrained one
    _, donors, _ = _training_data()
    config = TrainConfig(**SMALL)
    clusterer, decoder = pretrain_autoencoder(donors, config)
    decoder.layers[-1].bias[:] = 1e200  # copied into the anchor's buffer
    pretrained = _map_state(clusterer, decoder)
    with pytest.warns(UserWarning, match="^DEC refining epoch 0 undone and refinement stopped: "
                                         "DEC refinement's reconstruction anchor loss"):
        epochs = list(matchrep._dec_epochs(clusterer, decoder, donors, config,
                                           "matchrep/joint-batches"))
    assert [refined for _, _, refined, _, _ in epochs] == [False] * config.joint_epochs
    assert _map_state(clusterer, decoder) == pretrained
    labels = np.argmax(clusterer.scores(donors), axis=1)
    assert all(np.array_equal(epoch[0], labels) for epoch in epochs)


def test_a_diverged_refining_epoch_restores_its_start_state(small_nets, monkeypatch):
    _, donors, _ = _training_data()
    config = TrainConfig(**SMALL)
    n_batches = -(-len(donors) // config.batch_size)
    monkeypatch.setattr(matchrep, "DEC_STOP_TOL", 0.0)  # refine until the divergence
    real_loss, calls = matchrep.dec_refine_loss_and_grads, []

    def nan_in_epoch_2(*args):  # epoch 2's second batch, after one full step of it
        calls.append(None)
        loss, grads = real_loss(*args)
        return (np.nan if len(calls) == 2 * n_batches + 2 else loss), grads

    monkeypatch.setattr(matchrep, "dec_refine_loss_and_grads", nan_in_epoch_2)
    clusterer, decoder = pretrain_autoencoder(donors, config)
    epochs = matchrep._dec_epochs(clusterer, decoder, donors, config, "matchrep/joint-batches")
    refined = [next(epochs), next(epochs)]
    start = _map_state(clusterer, decoder)
    with pytest.warns(UserWarning, match="^DEC refining epoch 2 undone and refinement stopped: "
                                         "DEC loss diverged"):
        frozen = list(epochs)
    assert [epoch[2] for epoch in refined + frozen] == [True] * 2 + [False] * 13
    assert _map_state(clusterer, decoder) == start
    assert len(calls) == 2 * n_batches + 2
    labels = np.argmax(clusterer.scores(donors), axis=1)
    assert all(np.array_equal(epoch[0], labels) and epoch[3] == 0.0 for epoch in frozen)


def test_a_one_cluster_map_never_stops_refining(small_nets):
    # every donor sits far nearer center 0 than center 1: the labels never
    # change, and one active cluster is no stopping point
    _, donors, _ = _training_data()
    config = TrainConfig(**SMALL)
    clusterer, decoder = pretrain_autoencoder(donors, config)
    clusterer.centers[1] = 1e3
    epochs = list(matchrep._dec_epochs(clusterer, decoder, donors, config,
                                       "matchrep/joint-batches"))
    assert [(refined, churn, list(counts)) for _, _, refined, churn, counts in epochs] == [
        (True, 0.0, [len(donors), 0])] * config.joint_epochs


def test_recipients_never_reach_the_donor_map(small_nets, monkeypatch):
    recipients, donors, outcomes = _training_data()
    config = TrainConfig(**SMALL)
    order = rng_stream(1, "shuffle-recipients").permutation(len(outcomes))
    maps = _pretrained_autoencoders(monkeypatch)
    model, log = train_joint(recipients, donors, outcomes, config)
    other, other_log = train_joint(recipients[order], donors, outcomes[order], config)
    (clusterer, decoder), (other_clusterer, other_decoder) = maps
    assert clusterer is model.clusterer and other_clusterer is other.clusterer
    for a, b in zip([*clusterer.encoder.parameters(), *decoder.parameters(), clusterer.centers],
                    [*other_clusterer.encoder.parameters(), *other_decoder.parameters(),
                     other_clusterer.centers]):
        assert a.tobytes() == b.tobytes()
    np.testing.assert_array_equal(model.active, other.active)
    for key in ("L_DEC", "dec_active"):
        assert [row[key] for row in log] == [row[key] for row in other_log]
    assert [row["L_f"] for row in log] != [row["L_f"] for row in other_log]


def _preset_training_split(seed: int):
    """The preset's normalized training split, as the acceptance fixtures make it."""
    dataset = synthgen.sample_dataset(synthgen.paper_preset(n=5000, seed=seed))
    indices = datamodel.split(dataset, seed=seed)
    return datamodel.normalize_fit_transform(dataset, indices).subset(indices.train)


@pytest.mark.parametrize("seed, kind", [
    (8, "joint"),  # its map settles with two clusters after 4 refining epochs
    (11, "joint"),  # its reconstruction anchor diverges in refining epoch 3, which is undone
    pytest.param(7, "dec", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the dec/linear-per-head seed-7 FOUND: the standalone DEC map stays in "
               "one cluster after all joint_epochs refining epochs")),
])
def test_preset_donor_maps_keep_two_clusters(seed, kind):
    train = _preset_training_split(seed)
    config = TrainConfig(seed=seed)
    if kind == "joint":
        model, _ = train_joint(train.recipients, train.donors, train.outcomes, config)
        assert model.active.sum() >= 2
    else:
        clusterer = matchrep.fit_clusterer(train.donors, "dec", config)
        assert np.unique(np.argmax(clusterer.scores(train.donors), axis=1)).size >= 2


@pytest.mark.parametrize("counts, frac, want", [
    ([50, 3, 47], 0.01, [True, False, True]),  # below MIN_CLUSTER_COUNT (4)
    ([90, 5, 5], 0.06, [True, False, False]),  # below MIN_CLUSTER_FRAC * n (6)
    ([0, 100, 0], 0.01, [False, True, False]),  # empty clusters
    ([2, 1, 1], 0.01, [True, True, True]),  # none passes: every cluster is active
])
def test_active_clusters_threshold(monkeypatch, counts, frac, want):
    labels = np.repeat(np.arange(3), counts)
    config = TrainConfig(k=3)
    monkeypatch.setattr(matchrep, "MIN_CLUSTER_COUNT", 4)
    monkeypatch.setattr(matchrep, "MIN_CLUSTER_FRAC", frac)
    active = matchrep.active_clusters(labels, config)
    assert active.dtype == bool
    np.testing.assert_array_equal(active, want)


def test_train_joint_active_mask_is_the_rule_of_its_labels(small_nets):
    recipients, donors, outcomes = _training_data()
    config = TrainConfig(**SMALL)
    model, _ = train_joint(recipients, donors, outcomes, config)
    labels = np.argmax(model.clusterer.scores(donors), axis=1)
    np.testing.assert_array_equal(model.active, matchrep.active_clusters(labels, config))


def test_model_needs_a_bool_mask():
    model = _tiny_model()
    parts = dict(name=model.name, config=model.config, clusterer=model.clusterer,
                 phi=model.phi, predictor=model.predictor)
    for active in (None, np.array([1, 0]), np.ones(3, bool)):
        with pytest.raises(DimensionMismatchError):
            MatchRepModel(**parts, active=active)


def _mixed_width_heads(model):
    heads = [init_dense_net([width, 4, 1], rng_stream(width, "mixed")) for width in (3, 4)]
    return {"phi": None, "predictor": replace(model.predictor, heads=heads)}


@pytest.mark.parametrize("edit", [
    lambda model: {"clusterer": DonorClusterer(kind="kmeans", centers=np.zeros((3, 2)))},
    lambda model: {"predictor": replace(model.predictor, heads=model.predictor.heads[:1])},
    _mixed_width_heads,
    lambda model: {"active": np.ones(2)},
], ids=["clusterer-k", "head-count", "mixed-phi-less-widths", "float-mask"])
def test_model_refuses_parts_that_do_not_fit_its_k(edit):
    model = _tiny_model()
    parts = {name: getattr(model, name)
             for name in ("name", "config", "clusterer", "phi", "predictor", "active")}
    MatchRepModel(**{**parts, "phi": None})  # Phi-less heads of one width are a model
    with pytest.raises(DimensionMismatchError):
        MatchRepModel(**{**parts, **edit(model)})


def test_train_joint_deterministic(small_nets):
    recipients, donors, outcomes = _training_data()
    a, _ = train_joint(recipients, donors, outcomes, TrainConfig(**SMALL))
    b, _ = train_joint(recipients, donors, outcomes, TrainConfig(**SMALL))
    np.testing.assert_array_equal(predict_potential_batch(a, recipients),
                                  predict_potential_batch(b, recipients))
    np.testing.assert_array_equal(a.clusterer.centers, b.clusterer.centers)


def test_donor_type_separates_two_modes(small_nets):
    recipients, donors, outcomes = _training_data()
    model, _ = train_joint(recipients, donors, outcomes, TrainConfig(**SMALL))
    labels, t = donor_type_batch(model, donors)
    np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-9)
    left = labels[donors[:, 0] < 0]
    right = labels[donors[:, 0] > 0]
    assert len(set(left.tolist())) == 1 and len(set(right.tolist())) == 1
    assert left[0] != right[0]


def test_inactive_cluster_excluded_from_assignment():
    model = _tiny_model()
    model.active = np.array([True, False])
    rng = rng_stream(13, "inact")
    labels, _ = donor_type_batch(model, rng.normal(size=(25, 2)))
    assert np.all(labels == 0)
    recipients = rng.normal(size=(25, 3))
    best = best_donor_types(model, predict_potential_batch(model, recipients))
    assert np.all(best == 0)


@pytest.mark.parametrize("infer", [predict_potential_batch, donor_type_batch],
                         ids=["predict_potential_batch", "donor_type_batch"])
def test_inference_peak_memory_is_a_few_activations(infer):
    hidden = 128
    model = _tiny_model(hidden=hidden)
    net = model.phi if infer is predict_potential_batch else model.clusterer.encoder
    peaks, built = {}, {}
    for rows in (20_000, 80_000):
        x = rng_stream(3, "peak").normal(size=(rows, net.input_dim))
        infer(model, x)  # first-call allocations are not the pass's
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = infer(model, x)
            peaks[rows] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the only rows-long arrays the pass builds are what it returns;
        # beside them only a few (ROW_BLOCK, hidden) activations, however
        # many rows there are
        built[rows] = sum(a.nbytes for a in (out if isinstance(out, tuple) else (out,)))
        assert peaks[rows] < built[rows] + 3 * numkit.ROW_BLOCK * hidden * 8
    assert peaks[80_000] - peaks[20_000] <= built[80_000] - built[20_000] + 256 * 1024, peaks


@pytest.mark.parametrize("rows", [numkit.ROW_BLOCK, numkit.ROW_BLOCK + 1,
                                  2 * numkit.ROW_BLOCK + 7])
def test_blocked_inference_equals_one_pass(rows):
    # shaped like the default TrainConfig on the preset's two recipient and
    # two donor features; cluster 1 inactive
    seed, h = 9, 32
    rng = rng_stream(seed, "one-pass", rows)
    encoder = init_dense_net([2, h, h, 8], rng)
    clusterer = DonorClusterer("dec", rng.normal(size=(3, 8)), encoder=encoder)
    phi = init_dense_net([2, h, h, 8], rng)
    heads = [init_dense_net([8, h, h, 1], rng) for _ in range(3)]
    predictor = matchrep.MultiHeadPredictor(heads=heads, outcome_mean=700.0, outcome_scale=250.0)
    model = MatchRepModel(name="matchrep", config=TrainConfig(k=3, seed=seed),
                          clusterer=clusterer, phi=phi, predictor=predictor,
                          active=np.array([True, False, True]))
    recipients, donors = rng.normal(size=(rows, 2)), rng.normal(size=(rows, 2))

    xprime = mlp_forward(phi, recipients)[0]
    preds = np.column_stack([700.0 + 250.0 * mlp_forward(head, xprime)[0][:, 0]
                             for head in heads])
    t = soft_assign(mlp_forward(encoder, donors)[0], clusterer.centers)
    labels = np.argmax(np.where(model.active, t, -np.inf), axis=1)

    assert predict_potential_batch(model, recipients).tobytes() == preds.tobytes()
    got_labels, got_t = donor_type_batch(model, donors)
    assert got_t.tobytes() == t.tobytes()
    np.testing.assert_array_equal(got_labels, labels)


def test_train_joint_prunes_tiny_cluster(small_nets, monkeypatch):
    recipients, donors, outcomes = _training_data()
    config = TrainConfig(**{**SMALL, "k": 3})
    monkeypatch.setattr(matchrep, "MIN_CLUSTER_FRAC", 0.05)
    model, _ = train_joint(recipients, donors, outcomes, config)
    if model.active is not None:
        labels, _ = donor_type_batch(model, donors)
        assert set(labels.tolist()) <= set(np.nonzero(model.active)[0].tolist())


def test_pretrain_autoencoder_reduces_reconstruction_error(small_nets):
    _, donors, _ = _training_data()
    config = TrainConfig(**SMALL)
    pretrained, untrained = (pretrain_autoencoder(donors, replace(config, pretrain_epochs=e))
                             for e in (config.pretrain_epochs, 0))
    assert (recon_loss_and_grads(pretrained[0].encoder, pretrained[1], donors)[0]
            < recon_loss_and_grads(untrained[0].encoder, untrained[1], donors)[0])


def test_init_centers_shape(small_nets):
    _, donors, _ = _training_data()
    config = TrainConfig(**SMALL)
    clusterer, _ = pretrain_autoencoder(donors, config)
    assert clusterer.kind == "dec" and clusterer.centers.shape == (2, 4)
    # the k-means centers of the encoded donors
    centers, _, _ = numkit.kmeans_fit(numkit.mlp_predict(clusterer.encoder, donors), config.k,
                                      rng_stream(config.seed, "matchrep", "centers"))
    np.testing.assert_array_equal(clusterer.centers, centers)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(k=1)
    with pytest.raises(ValueError):
        TrainConfig(beta=-0.1)
    TrainConfig()  # defaults are valid


def test_save_load_round_trip(small_nets, tmp_path):
    recipients, donors, outcomes = _training_data()
    model, _ = train_joint(recipients, donors, outcomes, TrainConfig(**SMALL))
    trained = [net.parameters() for net in (model.phi, *model.predictor.heads)]
    buffer = model.phi.layers[0].weight.base
    assert all(np.shares_memory(p, buffer) for params in trained for p in params)
    path = tmp_path / "model.json"
    save_model(model, path)
    again = load_model(path)
    np.testing.assert_array_equal(predict_potential_batch(model, recipients),
                                  predict_potential_batch(again, recipients))
    a_labels, _ = donor_type_batch(model, donors)
    b_labels, _ = donor_type_batch(again, donors)
    np.testing.assert_array_equal(a_labels, b_labels)
    np.testing.assert_array_equal(again.active, model.active)


def test_load_model_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "other"}')
    with pytest.raises(IngestionError):
        load_model(path)


def _unknown_type(doc):
    doc["model"]["phi"]["type"] = "Popen"


def _missing_field(doc):
    del doc["model"]["predictor"]["heads"]


def _extra_field(doc):
    doc["model"]["config"]["bogus"] = 1


def _object_dtype(doc):
    doc["model"]["active"]["dtype"] = "object"


def _bad_activation(doc):
    # every layer of a v13 file names its activation, a field a Layer no longer has
    doc["model"]["phi"]["layers"][0]["activation"] = "relu"


def _wrong_kind(doc):
    doc["model"] = doc["model"]["phi"]


def _int_encoder(doc):
    doc["model"]["phi"] = 5


def _number_weight(doc):
    doc["model"]["phi"]["layers"][0]["weight"] = 0.5


def _null_active(doc):
    doc["model"]["active"] = None


def _invalid_config_value(doc):
    doc["model"]["config"]["beta"] = -1.0


def _string_config_field(doc):
    doc["model"]["config"]["k"] = "2"


def _no_active_cluster(doc):
    doc["model"]["active"]["array"] = [False, False]


@pytest.mark.parametrize("corrupt", [_unknown_type, _missing_field, _extra_field,
                                     _object_dtype, _bad_activation, _wrong_kind,
                                     _int_encoder, _number_weight, _string_config_field,
                                     _null_active, _invalid_config_value, _no_active_cluster])
def test_load_model_rejects_malformed_files(tmp_path, corrupt):
    model = _tiny_model()
    model.active = np.array([True, False])
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(IngestionError):
        load_model(path)


def test_load_model_rejects_truncated_json(tmp_path):
    path = tmp_path / "model.json"
    save_model(_tiny_model(), path)
    path.write_text(path.read_text()[:100])
    with pytest.raises(IngestionError):
        load_model(path)


def test_save_model_refuses_other_array_dtypes(tmp_path):
    model = _tiny_model()
    model.active = np.array([1, 0])
    with pytest.raises(TypeError):
        save_model(model, tmp_path / "model.json")
