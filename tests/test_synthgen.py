"""Generative-model tests: configuration, sampling laws, oracle consistency."""

from dataclasses import replace

import numpy as np
import pytest

from organmatch import synthgen
from organmatch.datamodel import Dataset
from organmatch.numkit import rng_stream
from organmatch.synthgen import (
    ConfigError,
    paper_preset,
    sample_dataset,
    semi_synthetic_outcomes,
)


def test_preset_shape():
    config = paper_preset()
    assert config.n == 5000
    assert config.n_recipient_types == 2
    assert config.n_donor_types == 3
    np.testing.assert_allclose(config.match_table[0], [0.6, 0.2, 0.2])
    np.testing.assert_allclose(config.match_table[1], [0.1, 0.7, 0.2])


def test_config_validation_rejects_bad_rows():
    config = paper_preset()
    with pytest.raises(ConfigError):
        replace(config, match_table=[[0.5, 0.5, 0.5], [0.1, 0.7, 0.2]])
    config = paper_preset()
    with pytest.raises(ConfigError):
        replace(config, outcome_vars=[[0.0, 1, 1], [1, 1, 1]])


@pytest.mark.parametrize("name, value", [
    ("recipient_means", [[-2.0, 0.0], [2.0]]),
    ("donor_vars", [[1.0, 1.0], [1.0, 1.0]]),
    ("untreated_means", [400.0]),
    ("match_table", []),
    ("match_table", [[float("nan"), 0.5, 0.5], [0.1, 0.7, 0.2]]),
    ("recipient_type_weights", [1.5, -0.5]),
    ("outcome_means", [[500.0, 1000.0, float("inf")], [100.0, 800.0, 900.0]]),
    ("untreated_means", [400.0, -1.0]),
])
def test_config_validation_rejects_ragged_negative_and_non_finite_tables(name, value):
    config = paper_preset()
    with pytest.raises(ConfigError, match=name.split("_")[0]):
        replace(config, **{name: value})


def test_sample_shapes_and_factual_consistency():
    ds = sample_dataset(paper_preset(n=500, seed=1))
    assert len(ds) == 500
    assert ds.recipients.shape == (500, 2) and ds.donors.shape == (500, 2)
    assert ds.true_potentials.shape == (500, 3)
    # factual outcome equals the potential at the factual donor type, exactly
    np.testing.assert_array_equal(
        ds.outcomes, ds.true_potentials[np.arange(500), ds.true_donor_type - 1])
    assert np.all(ds.untreated_survival >= 1.0)
    assert set(np.unique(ds.true_recipient_type)) <= {1, 2}
    assert set(np.unique(ds.true_donor_type)) <= {1, 2, 3}


def test_marginal_donor_type_frequencies():
    ds = sample_dataset(paper_preset(n=5000, seed=2))
    freq = np.bincount(ds.true_donor_type - 1, minlength=3) / len(ds)
    # P(k) = 0.5*(0.6,0.2,0.2) + 0.5*(0.1,0.7,0.2) = (0.35, 0.45, 0.20)
    np.testing.assert_allclose(freq, [0.35, 0.45, 0.20], atol=0.02)


def test_selection_bias_present():
    ds = sample_dataset(paper_preset(n=5000, seed=3))
    m2 = ds.true_recipient_type == 2
    p_k1_given_m2 = np.mean(ds.true_donor_type[m2] == 1)
    assert p_k1_given_m2 < 0.15


def test_sampling_deterministic():
    a = sample_dataset(paper_preset(n=200, seed=9))
    b = sample_dataset(paper_preset(n=200, seed=9))
    np.testing.assert_array_equal(a.recipients, b.recipients)
    np.testing.assert_array_equal(a.outcomes, b.outcomes)
    np.testing.assert_array_equal(a.untreated_survival, b.untreated_survival)


def test_outcome_means_match_generative_table():
    ds = sample_dataset(paper_preset(n=5000, seed=4))
    for m in (1, 2):
        mask = ds.true_recipient_type == m
        observed = ds.true_potentials[mask].mean(axis=0)
        np.testing.assert_allclose(observed, paper_preset().outcome_means[m - 1], atol=2.0)


def test_exponential_untreated_mean():
    ds = sample_dataset(paper_preset(n=20_000, seed=6))
    m1 = ds.true_recipient_type == 1
    assert abs(ds.untreated_survival[m1].mean() - 400.0) < 15.0


# ---------------------------------------------------------------------------
# semi-synthetic surrogate
# ---------------------------------------------------------------------------


def _feature_dataset(n=200, seed=0):
    rng = rng_stream(seed, "semi-fixture")
    return Dataset(
        recipients=rng.normal(size=(n, 4)),
        donors=rng.normal(size=(n, 3)),
        outcomes=rng.uniform(100, 800, size=n),
        recipient_names=[f"x{i}" for i in range(4)],
        donor_names=[f"x{i}" for i in range(3)],
    )


def test_semi_synthetic_oracle_exact():
    ds = semi_synthetic_outcomes(_feature_dataset(), k=3, seed=7)
    assert ds.true_potentials.shape == (200, 3)
    np.testing.assert_array_equal(
        ds.outcomes, ds.true_potentials[np.arange(200), ds.true_donor_type - 1])


def test_semi_synthetic_positive_potentials():
    ds = semi_synthetic_outcomes(_feature_dataset(seed=1), k=3, seed=8)
    assert np.all(ds.true_potentials >= 1.0)


def test_semi_synthetic_identical_recipients_same_potentials():
    base = _feature_dataset(seed=2)
    base.recipients[:] = base.recipients[0]
    ds = semi_synthetic_outcomes(base, k=3, seed=9, noise_sd=0.0)
    np.testing.assert_allclose(
        ds.true_potentials,
        np.broadcast_to(ds.true_potentials[0], ds.true_potentials.shape),
        rtol=1e-12)


def test_semi_synthetic_deterministic():
    a = semi_synthetic_outcomes(_feature_dataset(seed=3), k=3, seed=10)
    b = semi_synthetic_outcomes(_feature_dataset(seed=3), k=3, seed=10)
    np.testing.assert_array_equal(a.outcomes, b.outcomes)
    np.testing.assert_array_equal(a.true_donor_type, b.true_donor_type)
