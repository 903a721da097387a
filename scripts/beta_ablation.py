#!/usr/bin/env python3
"""Ablation of the invariance weight beta.

Trains the model at several beta values on the synthetic preset and reports
held-out factual error together with the per-cluster representation
divergence, showing what the invariance term buys (and costs).
"""

import argparse
import csv
import sys

import numpy as np

from organmatch import datamodel, matchrep, metrics, numkit, synthgen


def heldout_rep_kl(model, val) -> float:
    xprime = numkit.mlp_predict(model.phi, val.recipients)
    labels, _ = matchrep.donor_type_batch(model, val.donors)
    loss, _, used = matchrep.rep_loss_and_grads(xprime, labels, model.config.k,
                                                min_cluster_count=2)
    return loss / max(used, 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--betas", default="0,10,100,300",
                        help="comma-separated beta values")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=5000)
    args = parser.parse_args()

    dataset = synthgen.sample_dataset(synthgen.paper_preset(n=args.n, seed=args.seed))
    indices = datamodel.split(dataset, seed=args.seed)
    normed = datamodel.normalize_fit_transform(dataset, indices)
    train = normed.subset(indices.train)
    val = normed.subset(indices.validation)

    rows = []
    for beta in (float(b) for b in args.betas.split(",")):
        model, _ = matchrep.train_joint(
            train.recipients, train.donors, train.outcomes,
            matchrep.TrainConfig(seed=args.seed, beta=beta))
        preds = matchrep.predict_potential_batch(model, val.recipients)
        labels, _ = matchrep.donor_type_batch(model, val.donors)
        rows.append({
            "beta": beta,
            "eps_f": metrics.eps_factual(preds, labels, val.outcomes),
            "rep_kl_heldout": heldout_rep_kl(model, val),
            "aodt": metrics.aodt_learned_space(preds, val.true_potentials,
                                               val.true_donor_type, labels),
        })
        print(f"# beta {beta} done", file=sys.stderr)

    writer = csv.DictWriter(sys.stdout,
                            fieldnames=["beta", "eps_f", "rep_kl_heldout", "aodt"])
    writer.writeheader()
    writer.writerows(rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
