#!/usr/bin/env python3
"""Seed x beta robustness sweep on the synthetic preset.

Per seed, trains the joint model at each invariance weight beta and the
``kmeans``/``em`` multi-head baselines once (beta does not enter them),
and scores each on the held-out split with ``metrics.comparison_row``,
``organmatch eval``'s scorer, plus its number of active clusters, ARI
against the coarsened generative types and, for the joint model, the
held-out representation divergence.
A fit that diverges or kills a cluster gives a row with its ``error`` and
empty metric cells. Prints one CSV table to stdout:

    python3 scripts/seed_sweep.py --seeds 1,2,3,4,5
    python3 scripts/seed_sweep.py --seeds 0 --betas 0,10,100,300   # beta ablation
"""

import argparse
import csv
import sys
from pathlib import Path

from organmatch import baselines, datamodel, matchrep, metrics, numkit, synthgen

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import adjusted_rand  # noqa: E402

FIELDS = ["seed", "beta", "model", "eps_f", "eps_wmse", "aodt", "mean_best_prediction",
          "n", "n_active", "ari_coarse", "rep_kl_heldout", "error"]
BASELINES = ("kmeans/multihead-nn", "em/multihead-nn")


def fit_and_score(name, config, train, val, normed, coarse) -> dict:
    """Train ``name`` (``matchrep`` or a baseline) with ``config`` on
    ``train`` and return its row on ``val``; ARI is taken over every donor
    of ``normed`` against the ``coarse`` truth."""
    model, _ = baselines.fit_model(name, train, config)
    preds, labels, best = model.predict_types(val.recipients, val.donors)
    row = {**metrics.comparison_row(name, preds, labels, val.outcomes, val.true_potentials,
                                    val.true_donor_type, best),
           "n_active": int(model.active.sum()),
           "ari_coarse": adjusted_rand(model.donor_labels(normed.donors), coarse)}
    if name == matchrep.JOINT:
        xprime = numkit.mlp_predict(model.phi, val.recipients)
        rep_kl, _, used = matchrep.rep_loss_and_grads(xprime, labels, config.k,
                                                      min_cluster_count=2)
        row["rep_kl_heldout"] = rep_kl / max(used, 1)
    return row


def run_seed(seed: int, betas: list[float], n: int) -> list[dict]:
    """The joint model's row at each beta, then each baseline's (beta None)."""
    dataset = synthgen.sample_dataset(synthgen.paper_preset(n=n, seed=seed))
    indices = datamodel.split(dataset, seed=seed)
    normed = datamodel.normalize_fit_transform(dataset, indices)
    train, val = normed.subset(indices.train), normed.subset(indices.validation)
    coarse = (normed.true_donor_type > 1).astype(int)

    rows = []
    fits = ([(matchrep.JOINT, b, matchrep.TrainConfig(seed=seed, beta=b)) for b in betas]
            + [(base, None, matchrep.TrainConfig(seed=seed)) for base in BASELINES])
    for name, beta, config in fits:
        try:
            row = fit_and_score(name, config, train, val, normed, coarse)
        except (numkit.TrainingDivergedError, matchrep.DeadClusterError) as exc:
            row = {"model": name, "error": repr(exc)}
        rows.append({"seed": seed, "beta": beta, **row})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1,2,3,4,5",
                        help="comma-separated training seeds")
    parser.add_argument("--betas", default=f"{matchrep.TrainConfig.beta:g}",
                        help="comma-separated invariance weights of the joint model")
    parser.add_argument("--n", type=int, default=5000)
    args = parser.parse_args(argv)
    betas = [float(b) for b in args.betas.split(",")]

    writer = csv.DictWriter(sys.stdout, fieldnames=FIELDS)
    writer.writeheader()
    for seed in (int(s) for s in args.seeds.split(",")):
        writer.writerows(run_seed(seed, betas, args.n))
        print(f"# seed {seed} done", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
