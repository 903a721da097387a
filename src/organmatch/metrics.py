"""Counterfactual-evaluation metrics and allocation-comparison helpers.

All metric functions are pure and permutation-invariant over records.
``eps_factual`` and ``eps_wmse`` are mean squared errors in squared days;
``aodt_learned_space`` (accuracy of the best donor type) is an
argmax-agreement fraction with ties broken toward the lowest index on both
sides. ``comparison_row`` bundles them into one model's evaluation row.
"""

from __future__ import annotations

import numpy as np


def _check_2d(predictions: np.ndarray) -> np.ndarray:
    predictions = np.asarray(predictions, dtype=float)
    if predictions.ndim != 2:
        raise ValueError("predictions must be an (n, K) matrix")
    return predictions


def eps_factual(predictions: np.ndarray, factual_labels: np.ndarray,
                outcomes: np.ndarray) -> float:
    """(1/n) sum_i (yhat_i[k_i] - y_i)^2 with 0-based factual labels k_i."""
    predictions = _check_2d(predictions)
    factual_labels = np.asarray(factual_labels, dtype=int)
    outcomes = np.asarray(outcomes, dtype=float)
    n = predictions.shape[0]
    if factual_labels.shape != (n,) or outcomes.shape != (n,):
        raise ValueError("predictions, labels and outcomes disagree in length")
    if np.any((factual_labels < 0) | (factual_labels >= predictions.shape[1])):
        raise ValueError("factual label out of range")
    err = predictions[np.arange(n), factual_labels] - outcomes
    return float(np.mean(err * err))


def eps_wmse(predictions: np.ndarray, true_potentials: np.ndarray) -> float:
    """(1/n) sum_i sum_k (yhat_i[k] - y_i[k])^2 over all K potential outcomes."""
    predictions = _check_2d(predictions)
    true_potentials = np.asarray(true_potentials, dtype=float)
    if true_potentials.shape != predictions.shape:
        raise ValueError("predictions and potentials disagree in shape")
    err = predictions - true_potentials
    return float(np.mean(np.sum(err * err, axis=1)))


def mean_best_prediction(predictions: np.ndarray,
                         best_types: np.ndarray | None = None) -> float:
    """(1/n) sum_i yhat_i[b_i] — the average predicted best outcome at each
    row's 0-based best type ``b_i``, by default the row's argmax."""
    predictions = _check_2d(predictions)
    if best_types is None:
        return float(np.mean(np.max(predictions, axis=1)))
    return float(np.mean(predictions[np.arange(len(predictions)), best_types]))


def remap_potentials_to_learned(true_potentials: np.ndarray,
                                true_donor_type: np.ndarray,
                                learned_labels: np.ndarray,
                                k: int):
    """Express ground-truth potentials in the learned donor-type space.

    Learned clusters need not align one-to-one with the generative donor
    types (nearby types can legitimately merge), so potentials are averaged
    under the empirical conditional P(true type | learned cluster) estimated
    from the hard labels of the same donors:

        y_tilde[i, j] = sum_k P(true k | learned j) * y_i[k].

    Returns (y_tilde, nonempty) where ``nonempty[j]`` flags learned clusters
    that contain at least one donor; empty clusters carry no donors and
    should be excluded from argmax comparisons.
    """
    true_potentials = np.asarray(true_potentials, dtype=float)
    true0 = np.asarray(true_donor_type, dtype=int) - 1  # to 0-based
    learned_labels = np.asarray(learned_labels, dtype=int)
    n_true = true_potentials.shape[1]
    counts = np.zeros((n_true, k))
    np.add.at(counts, (true0, learned_labels), 1.0)
    totals = counts.sum(axis=0)
    nonempty = totals > 0
    cond = counts / np.maximum(totals, 1.0)
    return true_potentials @ cond, nonempty


def aodt_learned_space(predictions: np.ndarray, true_potentials: np.ndarray,
                       true_donor_type: np.ndarray, learned_labels: np.ndarray) -> float:
    """AoDT computed in the learned cluster space (empty clusters excluded)."""
    predictions = _check_2d(predictions)
    return _aodt(predictions, *remap_potentials_to_learned(
        true_potentials, true_donor_type, learned_labels, predictions.shape[1]))


def _aodt(predictions: np.ndarray, y_tilde: np.ndarray, nonempty: np.ndarray) -> float:
    """AoDT against remapped potentials ``y_tilde`` over the ``nonempty`` clusters."""
    masked_pred = np.where(nonempty, predictions, -np.inf)
    masked_true = np.where(nonempty, y_tilde, -np.inf)
    return float(np.mean(np.argmax(masked_pred, axis=1) == np.argmax(masked_true, axis=1)))


def comparison_row(model: str, predictions: np.ndarray, factual_labels: np.ndarray,
                   outcomes: np.ndarray, true_potentials: np.ndarray | None = None,
                   true_donor_type: np.ndarray | None = None,
                   best_types: np.ndarray | None = None) -> dict:
    """One model's ``comparison.csv`` row from its ``predict_types``: (n, K)
    predictions, 0-based donor labels and best types. ``eps_wmse`` (over
    non-empty learned clusters) and ``aodt`` are None without the ground truth
    or best types; a pair regressor has no best types (one column, labels 0).
    Both read one remapping of the potentials."""
    predictions = _check_2d(predictions)
    row = {"model": model,
           "eps_f": eps_factual(predictions, factual_labels, outcomes),
           "eps_wmse": None, "aodt": None,
           "mean_best_prediction": mean_best_prediction(predictions, best_types),
           "n": predictions.shape[0]}
    if true_potentials is not None and true_donor_type is not None and best_types is not None:
        y_tilde, nonempty = remap_potentials_to_learned(
            true_potentials, true_donor_type, factual_labels, predictions.shape[1])
        row["eps_wmse"] = eps_wmse(predictions[:, nonempty], y_tilde[:, nonempty])
        row["aodt"] = _aodt(predictions, y_tilde, nonempty)
    return row


def flipped_ratio(original_types: np.ndarray, new_types: np.ndarray) -> float | None:
    """The fraction of recipients whose newly assigned donor type differs
    from the original one.

    Entries with a negative type in either log (recipient never transplanted
    under that policy) are excluded. Returns None when no entry is left (not
    applicable).
    """
    original_types = np.asarray(original_types, dtype=int)
    new_types = np.asarray(new_types, dtype=int)
    if original_types.shape != new_types.shape:
        raise ValueError("assignment logs disagree in length")
    mask = (original_types >= 0) & (new_types >= 0)
    if not np.any(mask):
        return None
    return float(np.mean(original_types[mask] != new_types[mask]))
