"""Acceptance gate: eight end-to-end criteria, one printed verdict line each.

The heavy artifacts (full-preset trainings at several seeds, the beta=0
ablations, and the decoupled baselines) are built once in session-scoped
fixtures and shared across criteria.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from gradcheck import finite_diff_check
from organmatch import allocsim, baselines, cli, datamodel, matchrep, metrics, numkit, synthgen
from organmatch.numkit import rng_stream

SEEDS = (1, 2, 3, 4, 5)
STREAM_SEEDS = (11, 12, 13, 14, 15)


def _report(capfd, criterion: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    with capfd.disabled():  # keep the verdict visible under pytest capture
        print(f"ACCEPTANCE {criterion}: {verdict} — {detail}", flush=True)


def _prepare(seed: int):
    dataset = synthgen.sample_dataset(synthgen.paper_preset(seed=seed))
    indices = datamodel.split(dataset, seed=seed)
    normed = datamodel.normalize_fit_transform(dataset, indices)
    return normed, indices


def _adjusted_rand(a: np.ndarray, b: np.ndarray) -> float:
    """Adjusted Rand index between two label vectors."""
    a = np.asarray(a)
    b = np.asarray(b)
    ua, ai = np.unique(a, return_inverse=True)
    ub, bi = np.unique(b, return_inverse=True)
    table = np.zeros((len(ua), len(ub)))
    np.add.at(table, (ai, bi), 1.0)
    n = a.size
    comb = lambda x: x * (x - 1) / 2.0
    sum_ij = comb(table).sum()
    sum_a = comb(table.sum(axis=1)).sum()
    sum_b = comb(table.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb(n)
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


@pytest.fixture(scope="session")
def seeded_runs():
    """Per-seed artifacts for criteria 3, 4, and 7."""
    runs = {}
    for seed in SEEDS:
        start = time.time()
        normed, indices = _prepare(seed)
        train = normed.subset(indices.train)
        val = normed.subset(indices.validation)
        model, _ = matchrep.train_joint(train.recipients, train.donors,
                                        train.outcomes,
                                        matchrep.TrainConfig(seed=seed))
        train_seconds = time.time() - start
        model_b0, _ = matchrep.train_joint(train.recipients, train.donors,
                                           train.outcomes,
                                           matchrep.TrainConfig(seed=seed, beta=0.0))
        base = {}
        for clusterer in ("kmeans", "em"):
            spec = baselines.BaselineSpec(
                clusterer=clusterer, predictor="multihead-nn",
                train=matchrep.TrainConfig(seed=seed))
            base[clusterer] = baselines.fit_cluster_predictor(
                train.recipients, train.donors, train.outcomes, spec)
        runs[seed] = {
            "normed": normed, "train": train, "val": val,
            "model": model, "model_b0": model_b0, "baselines": base,
            "train_seconds": train_seconds,
        }
    return runs


@pytest.fixture(scope="session")
def seed0_run():
    """Canonical preset run for criteria 5 and 6."""
    normed, indices = _prepare(0)
    train = normed.subset(indices.train)
    model, _ = matchrep.train_joint(train.recipients, train.donors,
                                    train.outcomes, matchrep.TrainConfig(seed=0))
    return {"normed": normed, "indices": indices, "model": model}


# ---------------------------------------------------------------------------
# Criterion 1: analytic KL vs Monte Carlo; backprop vs finite differences
# ---------------------------------------------------------------------------


def test_criterion_1_kl_and_gradients(capfd):
    start = time.time()
    rng = rng_stream(0, "acceptance", "kl")
    max_gap = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 6))
        mean_p, var_p = rng.normal(size=d), rng.uniform(0.3, 2.0, size=d)
        mean_q, var_q = rng.normal(size=d), rng.uniform(0.3, 2.0, size=d)
        analytic = numkit.kl_diag(mean_p, var_p, mean_q, var_q)
        x = mean_p + np.sqrt(var_p) * rng.normal(size=(1_000_000, d))
        log_p = -0.5 * np.sum((x - mean_p) ** 2 / var_p + np.log(2 * np.pi * var_p), axis=1)
        log_q = -0.5 * np.sum((x - mean_q) ** 2 / var_q + np.log(2 * np.pi * var_q), axis=1)
        max_gap = max(max_gap, abs(float(np.mean(log_p - log_q)) - analytic))

    fd_rng = rng_stream(1, "acceptance", "fd")
    net = numkit.init_dense_net([5, 12, 12, 1], rng_stream(2, "acceptance", "net", "relu"))
    batch = fd_rng.normal(size=(16, 5))
    target = fd_rng.normal(size=16)

    def loss_and_grads(params):
        for dst, src in zip(net.parameters(), params):
            dst[:] = src
        out, cache = numkit.mlp_forward(net, batch)
        err = out[:, 0] - target
        grads, _ = numkit.mlp_backward(net, cache, (2.0 / 16) * err[:, None])
        return float(np.mean(err * err)), grads

    max_rel = finite_diff_check(loss_and_grads, [p.copy() for p in net.parameters()],
                                tol=1e-4).max_rel_error

    elapsed = time.time() - start
    ok = max_gap <= 1e-2 and max_rel <= 1e-4 and elapsed < 60.0
    _report(capfd, 1, ok, f"KL-vs-MC gap {max_gap:.2e} (<=1e-2), "
                   f"grad rel err {max_rel:.2e} (<=1e-4), {elapsed:.1f}s (<60s)")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 2: clustering invariants, property-based
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(np.float64, (8, 3), elements=st.floats(-10, 10)),
       hnp.arrays(np.float64, (3, 3), elements=st.floats(-10, 10)))
def _soft_assign_rows_sum_one(embeds, centers):
    t = matchrep.soft_assign(embeds, centers)
    np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(np.float64, (8, 3), elements=st.floats(-5, 5)),
       hnp.arrays(np.float64, (3, 3), elements=st.floats(-5, 5)))
def _dec_loss_nonneg_zero_at_target(embeds, centers):
    t = matchrep.soft_assign(embeds, centers)
    loss_self, _, _ = matchrep.dec_loss_and_grads(embeds, centers, t)
    assert abs(loss_self) < 1e-9
    p = matchrep.target_distribution(t)
    loss, _, _ = matchrep.dec_loss_and_grads(embeds, centers, p)
    assert loss >= -1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def _objectives_monotone(seed):
    rng = rng_stream(seed, "acceptance", "mono")
    points = rng.normal(size=(60, 3)) + 3.0 * rng.integers(0, 2, size=(60, 1))
    _, _, inertia = numkit.kmeans_fit(points, 3, rng_stream(seed, "km"))
    assert all(b <= a + 1e-9 for a, b in zip(inertia, inertia[1:]))
    loglik = numkit.gmm_em_fit(points, 2, rng_stream(seed, "em"))[-1]
    assert all(b >= a - 1e-7 for a, b in zip(loglik, loglik[1:]))


def test_criterion_2_clustering_invariants(capfd):
    start = time.time()
    failure = None
    try:
        _soft_assign_rows_sum_one()
        _dec_loss_nonneg_zero_at_target()
        _objectives_monotone()
    except AssertionError as exc:  # hypothesis raises on a falsifying example
        failure = exc
    elapsed = time.time() - start
    ok = failure is None and elapsed < 60.0
    _report(capfd, 2, ok, f"soft-assign normalization, DEC-loss sign, k-means/EM "
                   f"monotonicity property checks, {elapsed:.1f}s (<60s)")
    if failure is not None:
        raise failure
    assert ok


# ---------------------------------------------------------------------------
# Criterion 3: donor-type recovery (ARI vs coarsened truth)
# ---------------------------------------------------------------------------


def test_criterion_3_donor_type_recovery(seeded_runs, capfd):
    aris = []
    max_seconds = 0.0
    for seed in SEEDS:
        run = seeded_runs[seed]
        labels, _ = matchrep.donor_type_batch(run["model"], run["normed"].donors)
        # generative types 2 and 3 overlap heavily; the recoverable structure
        # is type 1 versus the merged pair {2, 3}
        coarse = (run["normed"].true_donor_type > 1).astype(int)
        aris.append(_adjusted_rand(labels, coarse))
        max_seconds = max(max_seconds, run["train_seconds"])
    mean_ari = float(np.mean(aris))
    ok = mean_ari >= 0.9 and max_seconds < 300.0
    _report(capfd, 3, ok, f"mean ARI {mean_ari:.3f} (>=0.9) over seeds {SEEDS}, "
                   f"slowest training {max_seconds:.0f}s (<300s/seed)")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 4: invariance term halves the held-out per-cluster divergence
# ---------------------------------------------------------------------------


def _heldout_rep_kl(model, val) -> float:
    xprime, _ = numkit.mlp_forward(model.phi, val.recipients)
    labels, _ = matchrep.donor_type_batch(model, val.donors)
    loss, _, used = matchrep.rep_loss_and_grads(xprime, labels, model.config.k,
                                                min_cluster_count=2)
    return loss / max(used, 1)


def test_criterion_4_representation_invariance(seeded_runs, capfd):
    ratios = []
    for seed in SEEDS:
        run = seeded_runs[seed]
        with_term = _heldout_rep_kl(run["model"], run["val"])
        ablated = _heldout_rep_kl(run["model_b0"], run["val"])
        ratios.append(with_term / ablated)
    mean_ratio = float(np.mean(ratios))
    ok = mean_ratio <= 0.5
    _report(capfd, 4, ok, f"held-out per-cluster KL ratio vs beta=0 ablation "
                   f"{mean_ratio:.3f} (<=0.5), per-seed "
                   + "/".join(f"{r:.2f}" for r in ratios))
    assert ok


# ---------------------------------------------------------------------------
# Criterion 5: accuracy of the best donor type on the held-out split
# ---------------------------------------------------------------------------


def test_criterion_5_aodt(seed0_run, capfd):
    normed = seed0_run["normed"]
    val = normed.subset(seed0_run["indices"].validation)
    model = seed0_run["model"]
    preds = matchrep.predict_potential_batch(model, val.recipients)
    if model.active is not None:
        preds = np.where(model.active, preds, -np.inf)
    labels, _ = matchrep.donor_type_batch(model, normed.donors)
    y_tilde, nonempty = metrics.remap_potentials_to_learned(
        val.true_potentials, val.true_donor_type,
        labels[seed0_run["indices"].validation], model.config.k)
    masked_pred = np.where(nonempty, preds, -np.inf)
    masked_true = np.where(nonempty, y_tilde, -np.inf)
    score = float(np.mean(np.argmax(masked_pred, axis=1)
                          == np.argmax(masked_true, axis=1)))
    ok = score >= 0.9
    _report(capfd, 5, ok, f"held-out AoDT {score:.3f} (>=0.9) on the canonical preset run")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 6: allocation-policy comparison over repeated streams
# ---------------------------------------------------------------------------


def test_criterion_6_allocation_policies(seed0_run, capfd):
    start = time.time()
    normed = seed0_run["normed"]
    model = seed0_run["model"]
    config = allocsim.SimConfig()
    scorer, guide = allocsim.model_scorer_and_guide(model, normed)
    oracle = allocsim.oracle_mean_scorer(
        normed, synthgen.paper_preset().outcome_means)

    agg = {"fcfs_ben": [], "bf_ben": [], "real_surv": [], "muf_surv": [],
           "flip": [], "real_dr": [], "muf_dr": []}
    for stream_seed in STREAM_SEEDS:
        stream = allocsim.build_stream(normed, config, seed=stream_seed)
        real = allocsim.run_policy(normed, stream, "real", config)
        fcfs = allocsim.run_policy(normed, stream, "fcfs", config)
        bf = allocsim.run_policy(normed, stream, "bf", config, scorer=oracle)
        muf = allocsim.run_policy(normed, stream, "matching-uf", config,
                                  scorer=scorer, guide=guide)
        agg["fcfs_ben"].append(fcfs.avg_benefit)
        agg["bf_ben"].append(bf.avg_benefit)
        agg["real_surv"].append(real.avg_survival)
        agg["muf_surv"].append(muf.avg_survival)
        agg["real_dr"].append(real.death_rate)
        agg["muf_dr"].append(muf.death_rate)
        agg["flip"].append(metrics.flipped_ratio(
            allocsim.assigned_true_types(normed, real),
            allocsim.assigned_true_types(normed, muf)))
    m = {k: float(np.mean(v)) for k, v in agg.items()}
    elapsed = time.time() - start
    checks = {
        "benefit-first beats FCFS on benefit": m["bf_ben"] > m["fcfs_ben"],
        "guided survival >= 1.05x real": m["muf_surv"] >= 1.05 * m["real_surv"],
        "flipped ratio >= 0.3": m["flip"] >= 0.3,
        "guided death rate <= real": m["muf_dr"] <= m["real_dr"],
        "under 10 minutes": elapsed < 600.0,
    }
    ok = all(checks.values())
    _report(capfd, 6, ok, f"bf/fcfs benefit {m['bf_ben']:.0f}/{m['fcfs_ben']:.0f}, "
                   f"guided/real survival {m['muf_surv']:.0f}/{m['real_surv']:.0f}, "
                   f"flip {m['flip']:.2f}, death {m['muf_dr']:.2f}/{m['real_dr']:.2f}, "
                   f"{elapsed:.0f}s" + ("" if ok else f"; failed: "
                   + ", ".join(k for k, v in checks.items() if not v)))
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: factual error competitive with the best decoupled baseline
# ---------------------------------------------------------------------------


def _val_eps(predict, label, val) -> float:
    preds = predict(val.recipients)
    labels = label(val.donors)
    return metrics.eps_factual(preds, labels, val.outcomes)


def test_criterion_7_factual_error(seeded_runs, capfd):
    model_eps, base_eps = [], {"kmeans": [], "em": []}
    for seed in SEEDS:
        run = seeded_runs[seed]
        val = run["val"]
        model = run["model"]
        model_eps.append(_val_eps(
            lambda r: matchrep.predict_potential_batch(model, r),
            lambda d: matchrep.donor_type_batch(model, d)[0], val))
        for name, bmodel in run["baselines"].items():
            base_eps[name].append(_val_eps(bmodel.predict_potentials,
                                           bmodel.donor_labels, val))
    model_mean = float(np.mean(model_eps))
    family_means = {k: float(np.mean(v)) for k, v in base_eps.items()}
    best = min(family_means.values())
    ok = model_mean <= 1.05 * best
    _report(capfd, 7, ok, f"model eps_F {model_mean:.0f} vs best decoupled baseline "
                   f"{best:.0f} (allowed {1.05 * best:.0f}); families "
                   + ", ".join(f"{k}:{v:.0f}" for k, v in family_means.items()))
    assert ok


# ---------------------------------------------------------------------------
# Criterion 8: byte-identical CLI reproducibility
# ---------------------------------------------------------------------------


def test_criterion_8_reproducibility(tmp_path, capfd, monkeypatch):
    for name, value in (("HIDDEN", 16), ("REP_DIM", 6), ("EMBED_DIM", 6),
                        ("MIN_CLUSTER_COUNT", 4)):
        monkeypatch.setattr(matchrep, name, value)
    train_config = tmp_path / "train.json"
    train_config.write_text(json.dumps({
        "k": 3, "pretrain_epochs": 10, "joint_epochs": 20, "batch_size": 64, "seed": 0,
    }))

    def pipeline(tag: str) -> dict[str, bytes]:
        root = tmp_path / tag
        data, models, sim = root / "data", root / "models", root / "sim"
        assert cli.main(["gen", "--n", "500", "--seed", "0",
                         "--out", str(data)]) == 0
        assert cli.main(["train", "--data", str(data), "--config",
                         str(train_config), "--baselines", "",
                         "--out", str(models)]) == 0
        assert cli.main(["simulate", "--data", str(data), "--model",
                         str(models / "model.json"), "--stream-seed", "0",
                         "--out", str(sim)]) == 0
        out = {}
        for base in (data, models, sim):
            for path in sorted(base.iterdir()):
                if path.name != "manifest.json":  # manifests embed run paths
                    out[f"{base.name}/{path.name}"] = path.read_bytes()
        return out

    first = pipeline("run1")
    second = pipeline("run2")
    differing = sorted(name for name in first
                       if first[name] != second.get(name))
    ok = set(first) == set(second) and not differing
    _report(capfd, 8, ok, f"{len(first)} artifacts byte-identical across same-seed "
                   f"gen/train/simulate reruns"
                   + ("" if ok else f"; differs: {differing}"))
    assert ok
