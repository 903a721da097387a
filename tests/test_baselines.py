"""Baseline tests: donor clusterers, per-cluster predictors, pair regressors."""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netsize import SMALL_NETS, matchrep_constants
from organmatch import matchrep, metrics, numkit
from organmatch.baselines import (
    PAIR_KINDS,
    PREDICTORS,
    RIDGE_PENALTY,
    BaselineSpec,
    PairRegressor,
    _enet_cd,
    _fit_ridge_heads,
    _linear_predictor,
    _ridge_solve,
    fit_cluster_predictor,
    fit_model,
    fit_pair_regressor,
    load_cluster_predictor,
    load_pair_regressor,
    save_cluster_predictor,
    save_pair_regressor,
)
from organmatch.datamodel import ConfigError, Dataset, IngestionError
from organmatch.matchrep import CLUSTERERS, DonorClusterer, MatchRepModel, TrainConfig
from organmatch.numkit import ROW_BLOCK, VAR_FLOOR, DenseNet, Layer, rng_stream


def _two_mode_data(n=160, seed=0):
    rng = rng_stream(seed, "baseline-fixture")
    recipients = rng.normal(size=(n, 3))
    donors = np.concatenate([rng.normal(-3, 0.3, size=(n // 2, 2)),
                             rng.normal(3, 0.3, size=(n - n // 2, 2))])
    # outcome depends linearly on recipient features and the donor mode
    mode = (donors[:, 0] > 0).astype(float)
    outcomes = 300.0 + 80.0 * recipients[:, 0] + 200.0 * mode \
        + rng.normal(0, 5, size=n)
    return recipients, donors, outcomes, mode


# trained with the SMALL_NETS networks (the small_nets fixture)
SMALL = TrainConfig(k=2, pretrain_epochs=8, joint_epochs=15, batch_size=32)


def _assert_widths_checked(model, path, d_r, d_o, wrong):
    """``model`` takes (d_r, d_o) features and is refused, naming ``path``,
    for each (recipient, donor) width pair in ``wrong``."""
    model.check_input_widths(path, d_r, d_o)
    for bad_r, bad_o in wrong:
        with pytest.raises(IngestionError, match=path.name):
            model.check_input_widths(path, bad_r, bad_o)


def test_spec_name_and_validation():
    spec = BaselineSpec(clusterer="kmeans", predictor="multihead-nn", with_rep=True)
    assert spec.name == "kmeans/multihead-nn+rep"
    assert BaselineSpec().name == "kmeans/linear-per-head"
    with pytest.raises(ValueError):
        BaselineSpec(clusterer="spectral")
    with pytest.raises(ValueError):
        BaselineSpec(predictor="gp")


VALID_SPECS = [(clusterer, predictor, with_rep) for clusterer in CLUSTERERS
               for predictor, with_rep in (("linear-per-head", False),
                                           ("multihead-nn", False), ("multihead-nn", True))]


@pytest.mark.parametrize("clusterer, predictor, with_rep", VALID_SPECS)
def test_spec_from_name_inverts_name(clusterer, predictor, with_rep):
    spec = BaselineSpec(clusterer=clusterer, predictor=predictor, with_rep=with_rep, train=SMALL)
    assert BaselineSpec.from_name(spec.name, SMALL) == spec


@pytest.mark.parametrize("name", ["kmeans", "kmeans/", "/multihead-nn", "kmeans/multihead-nn/x",
                                  "kmeans/multihead-nn+", "kmeans/multihead-nn+rpe",
                                  "kmeans/multihead-nn+rep+rep", "spectral/multihead-nn",
                                  "kmeans/gp", "kmeans/linear-per-head+rep",
                                  "dec/linear-per-head+rep"])
def test_spec_from_name_rejects_malformed_and_linear_rep_names(name):
    with pytest.raises(ConfigError):
        BaselineSpec.from_name(name, SMALL)


@pytest.mark.parametrize("kind", CLUSTERERS)
def test_clusterers_separate_two_modes(small_nets, kind):
    recipients, donors, outcomes, mode = _two_mode_data()
    spec = BaselineSpec(clusterer=kind, predictor="linear-per-head", train=SMALL)
    model = fit_cluster_predictor(recipients, donors, outcomes, spec)
    labels = model.donor_labels(donors)
    # each true mode maps to a single learned cluster, and they differ
    left = set(labels[mode == 0].tolist())
    right = set(labels[mode == 1].tolist())
    assert len(left) == 1 and len(right) == 1 and left != right


@pytest.mark.parametrize("d", [2, 5, 20])
def test_clusterer_assign_in_row_blocks_equals_one_pass(d):
    rng = rng_stream(d, "assign-blocks")
    donors = rng.normal(size=(2 * ROW_BLOCK + 7, d))
    centers = rng.normal(size=(3, d))
    variances = rng.uniform(0.5, 2.0, size=(3, d))
    weights = np.array([0.2, 0.5, 0.3])
    kmeans = DonorClusterer(kind="kmeans", centers=centers)
    em = DonorClusterer(kind="em", centers=centers, weights=weights, variances=variances)
    d2 = np.sum((donors[:, None, :] - centers[None]) ** 2, axis=2)
    log_prob = numkit._gmm_log_prob(donors, weights, centers, variances)
    np.testing.assert_array_equal(kmeans.scores(donors), -d2)
    np.testing.assert_array_equal(em.scores(donors), log_prob)
    np.testing.assert_array_equal(np.argmax(kmeans.scores(donors), axis=1), np.argmin(d2, axis=1))


def _clusterer_of(kind, centers):
    """A ``kind`` clusterer whose scores rank clusters by distance to ``centers``."""
    k, d = centers.shape
    if kind == "kmeans":
        return DonorClusterer(kind=kind, centers=centers)
    if kind == "em":
        return DonorClusterer(kind=kind, centers=centers, weights=np.full(k, 1.0 / k),
                              variances=np.ones((k, d)))
    identity = DenseNet([Layer(np.eye(d), np.zeros(d))])
    return DonorClusterer(kind=kind, centers=centers, encoder=identity)


@pytest.mark.parametrize("kind", CLUSTERERS)
def test_a_donor_nearest_an_inactive_cluster_gets_the_best_active_label(kind):
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [10.0, 0.0]])
    clusterer = _clusterer_of(kind, centers)
    model = MatchRepModel(name=f"{kind}/linear-per-head", config=TrainConfig(k=3),
                          clusterer=clusterer, phi=None,
                          predictor=_linear_predictor([(np.zeros(3), 0.0)] * 3),
                          active=np.array([True, False, True]))
    donors = np.array([[3.5, 0.0], [5.5, 0.0], [0.5, 1.0], [9.0, -1.0]])
    scores = clusterer.scores(donors)
    np.testing.assert_array_equal(np.argmax(scores, axis=1), [1, 1, 0, 2])
    np.testing.assert_array_equal(model.donor_labels(donors), [0, 2, 0, 2])
    np.testing.assert_array_equal(model.donor_labels(donors),
                                  matchrep.best_donor_types(model, scores))


def test_em_clusterer_checks_its_arrays_and_variance_floor():
    centers, weights = np.zeros((2, 3)), np.array([0.5, 0.5])
    DonorClusterer(kind="em", centers=centers, weights=weights,
                   variances=np.full((2, 3), VAR_FLOOR))
    bad = [dict(variances=np.full((2, 3), VAR_FLOOR / 2)),
           dict(variances=np.ones((2, 2))), dict(variances=None),
           dict(weights=np.ones(3) / 3), dict(centers=np.zeros((3, 3)))]
    for edit in bad:
        fields = {"centers": centers, "weights": weights, "variances": np.ones((2, 3)), **edit}
        with pytest.raises(ValueError):
            DonorClusterer(kind="em", **fields)


def _net(widths):
    return DenseNet([Layer(np.zeros((a, b)), np.zeros(b)) for a, b in zip(widths, widths[1:])])


# case: (kind, fields); every one mixes kinds, misfits its centers or cannot type a donor
CLUSTERER_FIELDS = {
    "kmeans-with-encoder": ("kmeans", dict(encoder=_net([2, 2]))),
    "kmeans-with-weights": ("kmeans", dict(weights=np.full(3, 1 / 3))),
    "em-weights-length": ("em", dict(weights=np.full(2, 1 / 2), variances=np.ones((3, 2)))),
    "em-with-encoder": ("em", dict(weights=np.full(3, 1 / 3), variances=np.ones((3, 2)),
                                   encoder=_net([5, 2]))),
    # a NaN log(weight) column, where argmax types every donor
    "em-negative-weight": ("em", dict(weights=np.array([0.75, -0.25, 0.5]),
                                      variances=np.ones((3, 2)))),
    # every score -inf, so argmax types every donor 0
    "em-zero-weights": ("em", dict(weights=np.zeros(3), variances=np.ones((3, 2)))),
    "dec-without-encoder": ("dec", {}),
    "dec-centers-width": ("dec", dict(encoder=_net([5, 4]))),
    "unknown-kind": ("spectral", {}),
}


def test_clusterer_arrays_are_float64():
    centers = np.zeros((3, 2))
    bad = [("kmeans", dict(centers=centers.astype(bool))),
           ("em", dict(centers=centers, weights=np.full(3, 1, dtype=int),
                       variances=np.ones((3, 2)))),
           ("em", dict(centers=centers, weights=np.full(3, 1 / 3),
                       variances=np.ones((3, 2), dtype=bool)))]
    for kind, fields in bad:
        with pytest.raises(TypeError):
            DonorClusterer(kind=kind, **fields)


@pytest.mark.parametrize("case", CLUSTERER_FIELDS)
def test_clusterer_refuses_fields_of_another_kind_or_width(case):
    kind, fields = CLUSTERER_FIELDS[case]
    centers = np.zeros((3, 2))
    DonorClusterer(kind="kmeans", centers=centers)
    DonorClusterer(kind="em", centers=centers, weights=np.full(3, 1 / 3),
                   variances=np.ones((3, 2)))
    DonorClusterer(kind="dec", centers=centers, encoder=_net([5, 2]))
    with pytest.raises(ValueError):
        DonorClusterer(kind=kind, centers=centers, **fields)


@pytest.mark.parametrize("predictor", PREDICTORS)
def test_cluster_predictor_learns_mode_offset(small_nets, predictor):
    recipients, donors, outcomes, mode = _two_mode_data()
    train = SMALL if predictor == "linear-per-head" else \
        replace(SMALL, joint_epochs=80)
    spec = BaselineSpec(clusterer="kmeans", predictor=predictor, train=train)
    model = fit_cluster_predictor(recipients, donors, outcomes, spec)
    labels = model.donor_labels(donors)
    preds = model.predict_potentials(recipients)
    factual = preds[np.arange(len(outcomes)), labels]
    mse = float(np.mean((factual - outcomes) ** 2))
    base = float(np.var(outcomes))
    assert mse < 0.2 * base  # clearly better than predicting the mean


def test_linear_per_head_is_exact_on_noiseless_linear_data(small_nets):
    rng = rng_stream(1, "exact")
    recipients = rng.normal(size=(100, 2))
    donors = np.concatenate([rng.normal(-3, 0.2, size=(50, 1)),
                             rng.normal(3, 0.2, size=(50, 1))])
    mode = (donors[:, 0] > 0).astype(float)
    outcomes = 10.0 + 3.0 * recipients[:, 0] - 2.0 * recipients[:, 1] + 100.0 * mode
    spec = BaselineSpec(clusterer="kmeans", predictor="linear-per-head", train=SMALL)
    model = fit_cluster_predictor(recipients, donors, outcomes, spec)
    labels = model.donor_labels(donors)
    preds = model.predict_potentials(recipients)
    factual = preds[np.arange(100), labels]
    np.testing.assert_allclose(factual, outcomes, atol=0.5)


def test_with_rep_changes_nn_predictions(small_nets):
    recipients, donors, outcomes, _ = _two_mode_data()
    base = BaselineSpec(clusterer="kmeans", predictor="multihead-nn",
                        with_rep=False, train=SMALL)
    rep = BaselineSpec(clusterer="kmeans", predictor="multihead-nn",
                       with_rep=True, train=SMALL)
    a = fit_cluster_predictor(recipients, donors, outcomes, base)
    b = fit_cluster_predictor(recipients, donors, outcomes, rep)
    assert not np.allclose(a.predict_potentials(recipients),
                           b.predict_potentials(recipients))


def test_nn_heads_evaluate_rep_loss_only_with_rep(small_nets, monkeypatch):
    recipients, donors, outcomes, _ = _two_mode_data()
    calls = []
    rep_loss = matchrep.rep_loss_and_grads

    def counting(*args, **kwargs):
        calls.append(1)
        return rep_loss(*args, **kwargs)

    monkeypatch.setattr(matchrep, "rep_loss_and_grads", counting)
    counts = []
    for with_rep in (False, True):
        calls.clear()
        spec = BaselineSpec(clusterer="kmeans", predictor="multihead-nn",
                            with_rep=with_rep, train=SMALL)
        fit_cluster_predictor(recipients, donors, outcomes, spec)
        counts.append(len(calls))
    assert counts[0] == 0 and counts[1] > 0


def test_cluster_predictor_masks_a_cluster_below_the_size_threshold(small_nets):
    # two far outliers take the third k-means cluster; its head is fit on
    # 2 donors, below MIN_CLUSTER_COUNT, so it is no donor's type and no
    # row's best type
    recipients, donors, outcomes, _ = _two_mode_data()
    donors[:2] = [[40.0, 40.0], [41.0, 40.0]]
    train = replace(SMALL, k=3)
    spec = BaselineSpec(clusterer="kmeans", predictor="linear-per-head", train=train)
    model = fit_cluster_predictor(recipients, donors, outcomes, spec)
    labels = np.argmax(model.clusterer.scores(donors), axis=1)  # the training labels
    small = labels[0]
    assert np.sum(labels == small) == 2
    np.testing.assert_array_equal(model.active, np.arange(3) != small)
    np.testing.assert_array_equal(model.active, matchrep.active_clusters(labels, train))
    assert small not in model.donor_labels(donors)
    preds = model.predict_potentials(recipients)
    preds[:, small] = 1e9  # the inactive head would hold every row's maximum
    best = matchrep.best_donor_types(model, preds)
    assert small not in best
    row = metrics.comparison_row(spec.name, preds, labels, outcomes, best_types=best)
    assert row["mean_best_prediction"] == float(np.mean(np.where(model.active, preds,
                                                                 -np.inf).max(axis=1)))


@pytest.mark.parametrize("rows", [1, ROW_BLOCK + 1, 50_000])
def test_a_linear_head_predicts_x_at_w_plus_b_bit_for_bit(rows):
    # cluster 1 holds one training donor, so its head predicts the training mean
    rng = rng_stream(rows, "linear-head")
    recipients, outcomes = rng.normal(size=(40, 3)), rng.normal(500.0, 100.0, size=40)
    labels = np.where(np.arange(40) < 20, 0, 2)
    labels[0] = 1
    with pytest.warns(UserWarning, match="cluster 1 empty or singleton"):
        predictor = _fit_ridge_heads(recipients, outcomes, labels, 3)
    x = rng.normal(size=(rows, 3))
    preds = matchrep.predict_heads(None, predictor, x)
    for c in (0, 2):
        members = np.nonzero(labels == c)[0]
        w, b = _ridge_solve(recipients[members], outcomes[members], RIDGE_PENALTY)
        assert preds[:, c].tobytes() == (x @ w + b).tobytes()
    assert preds[:, 1].tobytes() == np.full(rows, float(outcomes.mean())).tobytes()


def test_cluster_predictor_deterministic(small_nets):
    recipients, donors, outcomes, _ = _two_mode_data()
    spec = BaselineSpec(clusterer="em", predictor="multihead-nn", train=SMALL)
    a = fit_cluster_predictor(recipients, donors, outcomes, spec)
    b = fit_cluster_predictor(recipients, donors, outcomes, spec)
    np.testing.assert_array_equal(a.predict_potentials(recipients),
                                  b.predict_potentials(recipients))


@pytest.mark.parametrize("kind", ["kmeans", "em"])
def test_cluster_predictor_round_trip(small_nets, tmp_path, kind):
    recipients, donors, outcomes, _ = _two_mode_data()
    for predictor in PREDICTORS:
        spec = BaselineSpec(clusterer=kind, predictor=predictor, train=SMALL)
        model = fit_cluster_predictor(recipients, donors, outcomes, spec)
        path = tmp_path / f"{kind}_{predictor}.json"
        save_cluster_predictor(model, path)
        again = load_cluster_predictor(path)
        np.testing.assert_array_equal(again.predict_potentials(recipients),
                                      model.predict_potentials(recipients))
        np.testing.assert_array_equal(again.donor_labels(donors),
                                      model.donor_labels(donors))
        _assert_widths_checked(again, path, 3, 2, wrong=[(4, 2), (3, 1)])


def test_em_baseline_round_trip_keeps_its_arrays_bit_for_bit(small_nets, tmp_path):
    recipients, donors, outcomes, _ = _two_mode_data()
    spec = BaselineSpec(clusterer="em", predictor="linear-per-head", train=SMALL)
    model = fit_cluster_predictor(recipients, donors, outcomes, spec)
    save_cluster_predictor(model, tmp_path / "em.json")
    again = load_cluster_predictor(tmp_path / "em.json")
    for name in ("centers", "weights", "variances"):
        saved, loaded = getattr(model.clusterer, name), getattr(again.clusterer, name)
        assert saved.shape == loaded.shape and saved.tobytes() == loaded.tobytes()


def test_dec_cluster_predictor_round_trip(small_nets, tmp_path):
    recipients, donors, outcomes, _ = _two_mode_data(n=120)
    for predictor, with_rep in (("linear-per-head", False), ("multihead-nn", True)):
        spec = BaselineSpec(clusterer="dec", predictor=predictor, with_rep=with_rep,
                            train=SMALL)
        model = fit_cluster_predictor(recipients, donors, outcomes, spec)
        path = tmp_path / f"dec_{predictor}.json"
        save_cluster_predictor(model, path)
        again = load_cluster_predictor(path)
        assert (again.name, again.config) == (spec.name, spec.train)
        np.testing.assert_array_equal(again.donor_labels(donors),
                                      model.donor_labels(donors))
        np.testing.assert_array_equal(again.predict_potentials(recipients),
                                      model.predict_potentials(recipients))
        _assert_widths_checked(again, path, 3, 2, wrong=[(4, 2), (3, 1)])


# ---------------------------------------------------------------------------
# pair regressors
# ---------------------------------------------------------------------------


def _linear_pairs(n=300, seed=2, noise=0.0):
    rng = rng_stream(seed, "pairs")
    recipients = rng.normal(size=(n, 3))
    donors = rng.normal(size=(n, 2))
    w = np.array([2.0, -1.0, 0.5, 3.0, -2.0])
    outcomes = np.hstack([recipients, donors]) @ w + 7.0 \
        + rng.normal(0, noise, size=n)
    return recipients, donors, outcomes, w


def test_ridge_recovers_linear_model():
    recipients, donors, outcomes, w = _linear_pairs()
    weights, intercept = _ridge_solve(np.hstack([recipients, donors]), outcomes, 1e-6)
    np.testing.assert_allclose(weights, w, atol=1e-3)
    assert intercept == pytest.approx(7.0, abs=1e-3)


def test_lasso_zeroes_irrelevant_features():
    rng = rng_stream(3, "lasso")
    recipients = rng.normal(size=(400, 4))
    donors = rng.normal(size=(400, 2))
    outcomes = 5.0 * recipients[:, 0] + rng.normal(0, 0.1, size=400)
    weights, _ = _enet_cd(np.hstack([recipients, donors]), outcomes, l1=0.5, l2=0.0)
    assert abs(weights[0]) > 3.0
    np.testing.assert_allclose(weights[1:], 0.0, atol=1e-8)


def test_elasticnet_reduces_to_lasso_at_unit_l1_ratio():
    recipients, donors, outcomes, _ = _linear_pairs(noise=1.0)
    pairs = np.hstack([recipients, donors])
    # a vanishing l2 part still runs the augmented design that l2 > 0 takes
    enet_w, enet_b = _enet_cd(pairs, outcomes, l1=1.0, l2=1e-12)
    lasso_w, lasso_b = _enet_cd(pairs, outcomes, l1=1.0, l2=0.0)
    np.testing.assert_allclose(enet_w, lasso_w, atol=1e-6)
    assert enet_b == pytest.approx(lasso_b, abs=1e-6)


def test_elasticnet_l2_shrinks_weights():
    recipients, donors, outcomes, _ = _linear_pairs(noise=1.0)
    pairs = np.hstack([recipients, donors])
    light, _ = _enet_cd(pairs, outcomes, l1=0.05, l2=0.05)
    heavy, _ = _enet_cd(pairs, outcomes, l1=5.0, l2=5.0)
    assert np.abs(heavy).sum() < np.abs(light).sum()


def test_tree_fits_step_function():
    rng = rng_stream(4, "tree")
    recipients = rng.uniform(-1, 1, size=(400, 1))
    donors = rng.uniform(-1, 1, size=(400, 1))
    outcomes = np.where(recipients[:, 0] > 0, 100.0, -100.0)
    model = fit_pair_regressor(recipients, donors, outcomes, "reg-tree")
    preds = model.predict(np.hstack([recipients, donors]))
    assert float(np.mean((preds - outcomes) ** 2)) < 100.0


def test_reg_nn_beats_mean_predictor():
    recipients, donors, outcomes, _ = _linear_pairs(noise=0.5)
    model = fit_pair_regressor(recipients, donors, outcomes, "reg-nn",
                               config=TrainConfig(joint_epochs=60, batch_size=64))
    preds = model.predict(np.hstack([recipients, donors]))
    assert float(np.mean((preds - outcomes) ** 2)) < 0.2 * float(np.var(outcomes))


@pytest.mark.parametrize("hidden", [8, 32])
def test_reg_nn_is_built_at_the_config_width(monkeypatch, hidden):
    monkeypatch.setattr(matchrep, "HIDDEN", hidden)
    recipients, donors, outcomes, _ = _linear_pairs(n=60)
    config = TrainConfig(joint_epochs=1)
    model = fit_pair_regressor(recipients, donors, outcomes, "reg-nn", config=config)
    assert [layer.weight.shape for layer in model.predictor.heads[0].layers] == [
        (5, hidden), (hidden, hidden), (hidden, 1)]


def _dataset(recipients, donors, outcomes) -> Dataset:
    return Dataset(recipients=recipients, donors=donors, outcomes=outcomes,
                   recipient_names=[f"r{j}" for j in range(recipients.shape[1])],
                   donor_names=[f"d{j}" for j in range(donors.shape[1])])


def test_unknown_pair_kind_rejected():
    recipients, donors, outcomes, _ = _linear_pairs(n=50)
    with pytest.raises(ValueError):
        fit_pair_regressor(recipients, donors, outcomes, "svm")
    with pytest.raises(ConfigError, match="svm") as err:
        fit_model("svm", _dataset(recipients, donors, outcomes), TrainConfig())
    # the message names every kind of model name fit_model takes
    for kind in (repr(matchrep.JOINT), str(PAIR_KINDS), "'kmeans/multihead-nn[+rep]'"):
        assert kind in str(err.value)


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_pair_regressor_round_trip(tmp_path, kind):
    recipients, donors, outcomes, _ = _linear_pairs(n=200, noise=0.5)
    model = fit_pair_regressor(recipients, donors, outcomes, kind,
                               config=TrainConfig(joint_epochs=5))
    path = tmp_path / f"{kind}.json"
    save_pair_regressor(model, path)
    again = load_pair_regressor(path)
    pairs = np.hstack([recipients[:10], donors[:10]])
    np.testing.assert_array_equal(again.predict(pairs), model.predict(pairs))
    d_r, d_o = recipients.shape[1], donors.shape[1]
    # a tree's width is not known from its file
    _assert_widths_checked(again, path, d_r, d_o,
                           wrong=[] if kind == "reg-tree" else [(d_r + 1, d_o), (d_r, d_o - 1)])


# ---------------------------------------------------------------------------
# save -> load of every model kind
# ---------------------------------------------------------------------------

CLUSTER_SPECS = ("kmeans/multihead-nn", "em/multihead-nn", "kmeans/linear-per-head",
                 "em/linear-per-head", "dec/linear-per-head")


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from((matchrep.JOINT,) + CLUSTER_SPECS + PAIR_KINDS),
       seed=st.integers(0, 2 ** 16), n=st.integers(40, 120), k=st.integers(2, 3),
       with_rep=st.booleans())
def test_every_model_kind_predicts_alike_after_save_and_load(kind, seed, n, k, with_rep):
    recipients, donors, outcomes, _ = _two_mode_data(n=n, seed=seed)
    new_r, new_o, _, _ = _two_mode_data(n=50, seed=seed + 1)
    config = TrainConfig(k=k, pretrain_epochs=2, joint_epochs=2, batch_size=32, seed=seed)
    name = f"{kind}+rep" if with_rep and kind.endswith("/multihead-nn") else kind
    with matchrep_constants(**SMALL_NETS):
        model, _ = fit_model(name, _dataset(recipients, donors, outcomes), config)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "model.json"), Path(tmp, "again.json")
        matchrep.save_model(model, first)
        again = matchrep.load_model(first, type(model))
        matchrep.save_model(again, second)
        assert second.read_bytes() == first.read_bytes()

    def outputs(m):
        """The model's outputs, and the reference of its ``predict_pairs``."""
        if isinstance(m, PairRegressor):
            preds = m.predict(np.hstack([new_r, new_o]))
            return (preds,), preds
        preds = m.predict_potentials(new_r)
        return ((preds, matchrep.best_donor_types(m, preds), *matchrep.donor_type_batch(m, new_o)),
                preds[np.arange(len(new_r)), m.donor_labels(new_o)])

    for m in (model, again):
        pairs, reference = m.predict_pairs(new_r, new_o), outputs(m)[1]
        assert pairs.dtype == reference.dtype and pairs.tobytes() == reference.tobytes()
    for got, want in zip(outputs(again)[0], outputs(model)[0], strict=True):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def _float_arrays(node, path="model"):
    """(path, node) of every float64 array node of a saved model's JSON tree."""
    if isinstance(node, dict):
        if node.get("dtype") == "float64":
            yield path, node
        for name, value in node.items():
            yield from _float_arrays(value, f"{path}.{name}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _float_arrays(value, f"{path}[{i}]")


@pytest.mark.parametrize("kind", (matchrep.JOINT,) + CLUSTER_SPECS + ("kmeans/multihead-nn+rep",))
def test_a_model_file_holds_only_what_inference_reads(small_nets, tmp_path, kind):
    """Adding 1.0 to any one float array of a saved cluster model changes
    ``predict_types``' predictions or labels, so no training state is saved."""
    rng = rng_stream(5, "inference-state")
    recipients, donors = rng.normal(size=(300, 3)), rng.normal(size=(300, 2))
    outcomes = 300.0 + 80.0 * recipients[:, 0] + 50.0 * donors[:, 0] + rng.normal(0, 5, size=300)
    config = TrainConfig(k=3, pretrain_epochs=2, joint_epochs=2, batch_size=32, seed=5)
    model, _ = fit_model(kind, _dataset(recipients, donors, outcomes), config)
    assert model.active.sum() >= 2  # so that the labels can move
    path, edited = tmp_path / "model.json", tmp_path / "edited.json"
    matchrep.save_model(model, path)
    # a 2,000-donor cloud, dense where the clusters meet
    probe = rng.normal(size=(2000, 3)), rng.normal(size=(2000, 2))
    want = model.predict_types(*probe)
    leaves = [name for name, _ in _float_arrays(json.loads(path.read_text())["model"])]
    assert len(leaves) >= 4
    for i, name in enumerate(leaves):
        doc = json.loads(path.read_text())
        _, node = list(_float_arrays(doc["model"]))[i]
        node["array"] = (np.asarray(node["array"]) + 1.0).tolist()
        edited.write_text(json.dumps(doc))
        got = matchrep.load_model(edited).predict_types(*probe)
        assert any(not np.array_equal(g, w) for g, w in zip(got, want)), name
