#!/usr/bin/env python3
"""Multi-seed robustness sweep on the synthetic preset.

For each seed: train the joint model and the decoupled baselines, then
report held-out factual error, donor-type recovery (ARI against the
coarsened generative types), and best-type accuracy. Prints one CSV table
to stdout.
"""

import argparse
import csv
import sys
from pathlib import Path

from organmatch import baselines, datamodel, matchrep, metrics, synthgen

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import adjusted_rand  # noqa: E402


def run_seed(seed: int, n: int) -> list[dict]:
    dataset = synthgen.sample_dataset(synthgen.paper_preset(n=n, seed=seed))
    indices = datamodel.split(dataset, seed=seed)
    normed = datamodel.normalize_fit_transform(dataset, indices)
    train = normed.subset(indices.train)
    val = normed.subset(indices.validation)

    rows = []
    model, _ = matchrep.train_joint(train.recipients, train.donors,
                                    train.outcomes, matchrep.TrainConfig(seed=seed))
    preds = matchrep.predict_potential_batch(model, val.recipients)
    labels, _ = matchrep.donor_type_batch(model, val.donors)
    all_labels, _ = matchrep.donor_type_batch(model, normed.donors)
    coarse = (normed.true_donor_type > 1).astype(int)
    rows.append({
        "seed": seed, "model": "matchrep",
        "eps_f": metrics.eps_factual(preds, labels, val.outcomes),
        "ari_coarse": adjusted_rand(all_labels, coarse),
        "aodt": metrics.aodt_learned_space(preds, val.true_potentials,
                                           val.true_donor_type, labels),
    })
    for clusterer in ("kmeans", "em"):
        spec = baselines.BaselineSpec(clusterer=clusterer,
                                      predictor="multihead-nn",
                                      train=matchrep.TrainConfig(seed=seed))
        bmodel = baselines.fit_cluster_predictor(train.recipients, train.donors,
                                                 train.outcomes, spec)
        bpreds = bmodel.predict_potentials(val.recipients)
        blabels = bmodel.donor_labels(val.donors)
        rows.append({
            "seed": seed, "model": spec.name,
            "eps_f": metrics.eps_factual(bpreds, blabels, val.outcomes),
            "ari_coarse": adjusted_rand(bmodel.donor_labels(normed.donors), coarse),
            "aodt": metrics.aodt_learned_space(bpreds, val.true_potentials,
                                               val.true_donor_type, blabels),
        })
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="1,2,3,4,5",
                        help="comma-separated training seeds")
    parser.add_argument("--n", type=int, default=5000)
    args = parser.parse_args()

    rows = []
    for seed in (int(s) for s in args.seeds.split(",")):
        rows.extend(run_seed(seed, args.n))
        print(f"# seed {seed} done", file=sys.stderr)

    writer = csv.DictWriter(sys.stdout,
                            fieldnames=["seed", "model", "eps_f", "ari_coarse", "aodt"])
    writer.writeheader()
    writer.writerows(rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
