"""End-to-end smoke test on a realistic 500-row CSV table.

Builds a registry-style CSV with numeric and categorical columns plus
missing values, ingests it through the schema loader, attaches
semi-synthetic counterfactual outcomes, trains the model, evaluates it, and
runs a short allocation simulation.
"""

import numpy as np
import pytest

from netsize import matchrep_constants
from organmatch import allocsim, baselines, datamodel, matchrep, metrics, synthgen
from organmatch.numkit import rng_stream

N = 500


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    rng = rng_stream(0, "semi-e2e")
    path = tmp_path_factory.mktemp("semi") / "registry.csv"
    blood = ["a", "b", "ab", "o"]
    lines = ["r_age,r_bmi,r_blood,d_age,d_blood,d_cold_time,outcome"]
    for i in range(N):
        r_age = f"{rng.uniform(18, 75):.1f}"
        r_bmi = f"{rng.uniform(17, 38):.1f}" if rng.random() > 0.05 else ""
        r_blood = blood[rng.integers(4)]
        d_age = f"{rng.uniform(18, 70):.1f}"
        d_blood = blood[rng.integers(4)]
        d_cold = f"{rng.uniform(2, 24):.2f}"
        outcome = f"{rng.uniform(50, 2000):.1f}"  # replaced by the surrogate
        lines.append(f"{r_age},{r_bmi},{r_blood},{d_age},{d_blood},{d_cold},{outcome}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def dataset(csv_path):
    schema = datamodel.SchemaConfig(
        recipient_columns=["r_age", "r_bmi", "r_blood"],
        donor_columns=["d_age", "d_blood", "d_cold_time"],
        outcome_column="outcome",
        categorical={"r_blood": ["a", "b", "ab", "o"],
                     "d_blood": ["a", "b", "ab", "o"]},
    )
    loaded = datamodel.load_csv(csv_path, schema)
    return synthgen.semi_synthetic_outcomes(loaded, k=3, seed=1)


def test_ingestion_shapes(dataset):
    assert len(dataset) == N
    # r_age + r_bmi + bmi-missing indicator + 4 blood one-hots
    assert "r_bmi__missing" in dataset.recipient_names
    assert dataset.d_r == 7
    assert dataset.d_o == 6
    assert dataset.has_ground_truth
    assert dataset.true_potentials.shape == (N, 3)


def test_surrogate_oracle_consistency(dataset):
    np.testing.assert_array_equal(
        dataset.outcomes,
        dataset.true_potentials[np.arange(N), dataset.true_donor_type - 1])
    assert np.all(dataset.untreated_survival >= 1.0)


@pytest.fixture(scope="module")
def trained(dataset):
    indices = datamodel.split(dataset, seed=0)
    normed = datamodel.normalize_fit_transform(dataset, indices)
    train = normed.subset(indices.train)
    config = matchrep.TrainConfig(k=3, pretrain_epochs=15, joint_epochs=60, batch_size=64,
                                  seed=0)
    with matchrep_constants(HIDDEN=16, REP_DIM=6, EMBED_DIM=6, MIN_CLUSTER_COUNT=4):
        model, log = matchrep.train_joint(train.recipients, train.donors,
                                          train.outcomes, config)
    return model, log, normed, indices


def test_training_improves_factual_fit(trained):
    model, log, normed, indices = trained
    assert log[-1]["L_f"] < log[0]["L_f"]
    for subset, bound in ((normed.subset(indices.train), 0.7),
                          (normed.subset(indices.validation), 0.9)):
        preds = matchrep.predict_potential_batch(model, subset.recipients)
        labels, _ = matchrep.donor_type_batch(model, subset.donors)
        eps = metrics.eps_factual(preds, labels, subset.outcomes)
        # better than predicting the subset-mean outcome everywhere
        assert eps < bound * float(np.var(subset.outcomes))


def test_evaluation_report_on_validation(trained):
    model, _, normed, indices = trained
    val = normed.subset(indices.validation)
    preds = matchrep.predict_potential_batch(model, val.recipients)
    labels, _ = matchrep.donor_type_batch(model, val.donors)
    score = metrics.aodt_learned_space(preds, val.true_potentials,
                                       val.true_donor_type, labels)
    assert 0.0 <= score <= 1.0


def test_baseline_comparison_runs(trained, monkeypatch):
    model, _, normed, indices = trained
    train = normed.subset(indices.train)
    val = normed.subset(indices.validation)
    spec = baselines.BaselineSpec(
        clusterer="kmeans", predictor="linear-per-head",
        train=matchrep.TrainConfig(k=3, seed=0))
    monkeypatch.setattr(matchrep, "MIN_CLUSTER_COUNT", 4)
    base = baselines.fit_cluster_predictor(train.recipients, train.donors,
                                           train.outcomes, spec)
    preds = base.predict_potentials(val.recipients)
    labels = base.donor_labels(val.donors)
    eps = metrics.eps_factual(preds, labels, val.outcomes)
    assert np.isfinite(eps) and eps >= 0.0


def test_short_simulation_runs(trained, dataset):
    model, _, normed, _ = trained
    config = allocsim.SimConfig(donor_fraction=0.7)
    stream = allocsim.build_stream(dataset, config, seed=0)
    scorer, guide = allocsim.model_scorer_and_guide(model, normed)
    fcfs = allocsim.run_policy(dataset, stream, "fcfs", config)
    guided = allocsim.run_policy(dataset, stream, "matching-uf", config,
                                 scorer=scorer, guide=guide)
    for report in (fcfs, guided):
        assert report.n == N
        assert report.n_transplanted + report.n_dead + report.n_waiting == N
        assert report.n_transplanted > 0
