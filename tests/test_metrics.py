"""Evaluation-metric tests with hand-computed oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from organmatch import metrics
from organmatch.metrics import (
    aodt_learned_space,
    comparison_row,
    eps_factual,
    eps_wmse,
    flipped_ratio,
    mean_best_prediction,
    remap_potentials_to_learned,
)

PRED = np.array([[500.0, 1000.0, 1100.0],
                 [100.0, 800.0, 900.0]])
TRUE = np.array([[510.0, 990.0, 1150.0],
                 [90.0, 950.0, 860.0]])


def test_eps_factual_hand_value():
    # factual types 0 and 2: errors (500-510) and (900-860)
    labels = np.array([0, 2])
    outcomes = np.array([510.0, 860.0])
    assert eps_factual(PRED, labels, outcomes) == pytest.approx(
        (10.0 ** 2 + 40.0 ** 2) / 2.0)


def test_eps_factual_zero_for_exact():
    labels = np.array([1, 1])
    outcomes = PRED[np.arange(2), labels]
    assert eps_factual(PRED, labels, outcomes) == 0.0


def test_eps_wmse_hand_value():
    # per-element squared errors: row0 100+100+2500, row1 100+22500+1600
    assert eps_wmse(PRED, TRUE) == pytest.approx((2700.0 + 24200.0) / 2.0)


def test_mean_best_prediction():
    assert mean_best_prediction(PRED) == pytest.approx((1100.0 + 900.0) / 2.0)


def test_mean_best_prediction_at_given_types():
    # row 0's best type is restricted away from its maximum
    assert mean_best_prediction(PRED, np.array([1, 2])) == (1000.0 + 900.0) / 2.0


# ---------------------------------------------------------------------------
# the evaluation row
# ---------------------------------------------------------------------------


def test_comparison_row_without_ground_truth():
    labels, outcomes = np.array([0, 2]), np.array([510.0, 860.0])
    row = comparison_row("m", PRED, labels, outcomes)
    assert row == {"model": "m", "eps_f": eps_factual(PRED, labels, outcomes),
                   "eps_wmse": None, "aodt": None,
                   "mean_best_prediction": mean_best_prediction(PRED), "n": 2}


def test_comparison_row_with_ground_truth():
    true_types, labels = np.array([1, 2]), np.array([0, 2])
    row = comparison_row("m", PRED, labels, PRED[np.arange(2), labels], TRUE, true_types,
                         best_types=np.array([1, 2]))
    assert row["eps_f"] == 0.0
    assert row["aodt"] == aodt_learned_space(PRED, TRUE, true_types, labels)
    # learned cluster 1 holds no donor, so eps_wmse is taken over clusters 0 and 2
    y_tilde, nonempty = remap_potentials_to_learned(TRUE, true_types, labels, 3)
    assert nonempty.tolist() == [True, False, True]
    assert row["eps_wmse"] == eps_wmse(PRED[:, nonempty], y_tilde[:, nonempty])
    assert row["mean_best_prediction"] == (1000.0 + 900.0) / 2.0


def test_comparison_row_remaps_the_potentials_once(monkeypatch):
    true_types, labels = np.array([1, 2]), np.array([0, 2])
    args = ("m", PRED, labels, PRED[np.arange(2), labels], TRUE, true_types, np.array([1, 2]))
    expected = comparison_row(*args)
    calls = []
    remap = metrics.remap_potentials_to_learned
    monkeypatch.setattr(metrics, "remap_potentials_to_learned",
                        lambda *a: calls.append(a) or remap(*a))
    assert comparison_row(*args) == expected
    assert len(calls) == 1


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.float64, 7, elements=st.floats(-1e4, 1e4)),
       hnp.arrays(np.float64, 7, elements=st.floats(-1e4, 1e4)))
def test_comparison_row_of_a_pair_regressor(pred, y):
    # a pair regressor is one column with every label 0 and no best types,
    # so it gets no eps_wmse or aodt even with the ground truth
    truth = (np.tile(y[:, None], (1, 3)), np.arange(7) % 3 + 1)
    for ground_truth in ((), truth):
        row = comparison_row("ridge", pred[:, None], np.zeros(7, dtype=int), y, *ground_truth)
        assert row["eps_f"] == float(np.mean((pred - y) ** 2))
        assert row["mean_best_prediction"] == float(np.mean(pred))
        assert row["eps_wmse"] is None and row["aodt"] is None and row["n"] == 7


def test_predictions_must_be_2d():
    with pytest.raises(ValueError):
        eps_factual(np.zeros(3), np.zeros(3, dtype=int), np.zeros(3))


# ---------------------------------------------------------------------------
# learned-space remapping
# ---------------------------------------------------------------------------


def test_remap_identity_when_clusters_align():
    # learned labels are a relabeling of the true types: permutation recovery
    true_types = np.array([1, 2, 3, 1, 2, 3])
    learned = np.array([2, 0, 1, 2, 0, 1])  # true k -> learned (k+1) mod 3
    potentials = np.tile(np.array([[10.0, 20.0, 30.0]]), (6, 1))
    y_tilde, nonempty = remap_potentials_to_learned(potentials, true_types, learned, 3)
    assert nonempty.all()
    np.testing.assert_allclose(y_tilde, np.tile([[20.0, 30.0, 10.0]], (6, 1)))


def test_remap_merged_cluster_averages():
    # true types 1 and 2 both land in learned cluster 0 with equal mass
    true_types = np.array([1, 2, 1, 2])
    learned = np.array([0, 0, 0, 0])
    potentials = np.array([[100.0, 200.0]] * 4)
    y_tilde, nonempty = remap_potentials_to_learned(potentials, true_types, learned, 2)
    np.testing.assert_allclose(y_tilde[:, 0], 150.0)
    assert nonempty.tolist() == [True, False]


def test_aodt_learned_space_ignores_empty_cluster():
    true_types = np.array([1, 2, 1, 2])
    learned = np.array([0, 1, 0, 1])
    potentials = np.array([[10.0, 50.0]] * 4)
    pred = np.array([[0.0, 1.0, 99.0]] * 4)  # cluster 2 never used by donors
    score = aodt_learned_space(pred[:, :2], potentials, true_types, learned)
    assert score == 1.0
    # an empty third cluster with a huge prediction must not count
    score3 = aodt_learned_space(
        pred, np.column_stack([potentials, np.zeros(4)]),
        true_types, learned)
    assert score3 == 1.0


# ---------------------------------------------------------------------------
# flipped ratio
# ---------------------------------------------------------------------------


def test_flipped_ratio_hand_value():
    original = np.array([0, 1, 2, 0])
    new = np.array([0, 2, 2, 1])
    assert flipped_ratio(original, new) == pytest.approx(0.5)


def test_flipped_ratio_excludes_untransplanted():
    original = np.array([0, -1, 2])
    new = np.array([1, 0, -1])
    assert flipped_ratio(original, new) == pytest.approx(1.0)
    assert flipped_ratio(np.array([-1, 0]), np.array([0, -1])) is None


def test_flipped_ratio_length_mismatch():
    with pytest.raises(ValueError):
        flipped_ratio(np.array([0, 1]), np.array([0]))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

# Learned cluster j holds exactly the donors of true type j + 1, so the
# learned space is the true one.
ALIGNED_TYPES, ALIGNED_LABELS = np.arange(8) % 3 + 1, np.arange(8) % 3


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.float64, (8, 3), elements=st.floats(-1e3, 1e3)))
def test_eps_wmse_zero_iff_equal(pred):
    assert eps_wmse(pred, pred.copy()) == 0.0
    assert aodt_learned_space(pred, pred.copy(), ALIGNED_TYPES, ALIGNED_LABELS) == 1.0


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.float64, (8, 3), elements=st.floats(-1e3, 1e3)),
       hnp.arrays(np.float64, (8, 3), elements=st.floats(-1e3, 1e3)))
def test_metric_ranges(pred, true):
    assert eps_wmse(pred, true) >= 0.0
    assert 0.0 <= aodt_learned_space(pred, true, ALIGNED_TYPES, ALIGNED_LABELS) <= 1.0
