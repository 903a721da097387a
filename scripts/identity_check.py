"""Check that two source trees write and read bit-identical tables, train
bit-identical models and simulate byte-identical ledgers.

Each tree writes the 5,000-row synthetic preset with ``write_csv`` and
``write_ground_truth_csv``; the bytes are compared, and so is every array
that ``load_csv``, ``attach_ground_truth_csv`` and
``normalize_fit_transform`` read back from them. Each tree then trains
``matchrep.train_joint``, the ``kmeans/multihead-nn``,
``kmeans/multihead-nn+rep``, ``kmeans/linear-per-head``,
``em/linear-per-head`` and ``dec/linear-per-head`` baselines and a pair
regressor of every kind in ``baselines.PAIR_KINDS`` on the preset and
compares, byte for byte, every parameter, every training-log value, the
held-out predictions and donor labels, the ``active`` mask and any
training error. Then each tree builds the preset's donor stream (the seed
is the stream seed) and runs all seven allocation policies on it with the
joint model it trained; the stream's ``(step, donor)`` rows and the ledger
CSV, the SHA-256 of ``repr(ledger)`` and ``summary()`` of every policy are
compared byte for byte, so a reordered stream shows even where the ledgers
do not change. The same is done at scale: each tree writes a 50,000-row
preset (the bytes of both tables are compared), reads it back (every array
read is compared),
normalizes it with the joint model's statistics, runs the joint model's
``predict_potential_batch`` and
``donor_type_batch`` on all of it (the arrays are compared byte for byte,
as ties in the ledgers they drive can hide a changed bit) and simulates
all seven policies on its stream, comparing the stream too. Last,
``organmatch eval`` scores the saved models on the preset written as CSV,
and ``organmatch simulate`` runs every policy there with the saved joint
model (the oracle scoring ``uf`` and ``bf``); the exit codes, the bytes of
every table (each ledger and ``policy_table.csv`` included) and the cells
of ``comparison.csv`` are compared:

    python3 scripts/identity_check.py --ref ../parent/src --seeds 1 2 3 11

Each tree runs in its own child process with BLAS pinned to one thread.
Both children run this script's code, so the other tree must offer every
library call it makes; each baseline is built with the keyword form
``BaselineSpec(clusterer=..., predictor=..., with_rep=..., train=...)``,
which every tree accepts.
Prints one line per seed, model and part for the arrays both trees have,
then the arrays present in only one tree (say, a config field one of them
lacks) on lines of their own, and exits 1 if any array differs or is
one-sided.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve()
THIS_SRC = HERE.parent.parent / "src"
# trained before a pair regressor of each kind in baselines.PAIR_KINDS
MODELS = ("joint", "kmeans/multihead-nn", "kmeans/multihead-nn+rep", "kmeans/linear-per-head",
          "em/linear-per-head", "dec/linear-per-head")
SCALE_N = 50_000  # rows of the preset that the at-scale stage writes, reads and simulates


def _leaves(obj, prefix):
    """(path, array) for every array and number in a tree of model dataclasses."""
    if isinstance(obj, np.ndarray):
        yield prefix, obj
    elif is_dataclass(obj):
        for f in fields(obj):
            yield from _leaves(getattr(obj, f.name), f"{prefix}.{f.name}")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{prefix}[{i}]")
    elif isinstance(obj, (bool, int, float)):
        yield prefix, np.asarray(obj)


def _fit(name, matchrep, baselines, train, val, seed):
    """Train one model; returns (model, {part: {key: array}})."""
    config = matchrep.TrainConfig(seed=seed)
    if name == "joint":
        model, log = matchrep.train_joint(train.recipients, train.donors, train.outcomes, config)
        return model, {"params": dict(_leaves(model, "model")),
                       "log": {key: np.array([row[key] for row in log]) for key in log[0]},
                       "preds": {"": matchrep.predict_potential_batch(model, val.recipients)},
                       "labels": {"": matchrep.donor_type_batch(model, val.donors)[0]},
                       "active": {"": np.asarray(model.active)}}
    if name in baselines.PAIR_KINDS:
        model = baselines.fit_pair_regressor(train.recipients, train.donors, train.outcomes,
                                             name, config=config)
        return model, {"params": dict(_leaves(model, "model")),
                       "preds": {"": model.predict(np.hstack([val.recipients, val.donors]))}}
    base, _, rep = name.partition("+")
    clusterer, predictor = base.split("/")
    spec = baselines.BaselineSpec(clusterer=clusterer, predictor=predictor,
                                  with_rep=rep == "rep", train=config)
    model = baselines.fit_cluster_predictor(train.recipients, train.donors, train.outcomes, spec)
    return model, {"params": dict(_leaves(model, "model")),
                   "preds": {"": model.predict_potentials(val.recipients)},
                   "labels": {"": model.donor_labels(val.donors)}}


def _simulate(allocsim, preset, dataset, normed, model, seed) -> dict:
    """Run every policy on the preset's stream with the oracle scorer for
    ``uf``/``bf`` and the model for the ``matching-*`` policies; returns
    the stream's donor arrivals and each policy's ledger CSV, the SHA-256 of
    ``repr(ledger)`` (the rows a report builds) and ``repr(summary())`` as
    arrays."""
    config = allocsim.SimConfig()
    stream = allocsim.build_stream(dataset, config, seed=seed)
    oracle = allocsim.oracle_mean_scorer(dataset, preset.outcome_means)
    guided = {"scorer": allocsim.model_scorer(model, normed),
              "guide": allocsim.model_guide(model, normed)}
    # (step, donor) rows in the form every tree's stream converts to
    parts = {"stream": {"": np.asarray(stream.donor_arrivals, dtype=np.int64).reshape(-1, 2)},
             "ledger": {}, "rows": {}, "summary": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for policy in allocsim.POLICIES:
            kwargs = ({"scorer": oracle} if policy in ("uf", "bf")
                      else guided if policy.startswith("matching-") else {})
            report = allocsim.run_policy(dataset, stream, policy, config, **kwargs)
            path = Path(tmp) / "ledger.csv"
            allocsim.write_ledger_csv(report, path)
            parts["ledger"][policy] = np.frombuffer(path.read_bytes(), dtype=np.uint8)
            parts["rows"][policy] = np.array(
                hashlib.sha256(repr(report.ledger).encode()).hexdigest())
            parts["summary"][policy] = np.array(repr(report.summary()))
    return parts


def _round_trip(datamodel, dataset):
    """``dataset`` written by ``write_csv`` and ``write_ground_truth_csv``:
    the bytes of both files and the dataset ``load_csv`` and
    ``attach_ground_truth_csv`` read back from them."""
    schema = datamodel.SchemaConfig(
        recipient_columns=[f"r_{c}" for c in dataset.recipient_names],
        donor_columns=[f"d_{c}" for c in dataset.donor_names], outcome_column="outcome")
    with tempfile.TemporaryDirectory() as tmp:
        data, truth = Path(tmp) / "dataset.csv", Path(tmp) / "ground_truth.csv"
        datamodel.write_csv(dataset, data)
        datamodel.write_ground_truth_csv(dataset, truth)
        written = {path.name: np.frombuffer(path.read_bytes(), dtype=np.uint8)
                   for path in (data, truth)}
        back = datamodel.attach_ground_truth_csv(datamodel.load_csv(data, schema), truth)
    return written, back


def _tabular(datamodel, dataset, indices) -> dict:
    """The bytes of ``dataset`` as written by ``write_csv`` and
    ``write_ground_truth_csv``, and every array read back from those files
    and normalized on the training split."""
    written, back = _round_trip(datamodel, dataset)
    normed = datamodel.normalize_fit_transform(back, indices)
    return {"csv": written, "read": {**dict(_leaves(back, "read")),
                                     **dict(_leaves(normed, "normed"))}}


def _at_scale(allocsim, datamodel, matchrep, synthgen, model, normalization, seed) -> dict:
    """The 50,000-row preset written and read back, normalized with the
    joint model's statistics and simulated under every policy: the bytes of
    both tables, every array read back, the joint model's inference on
    every row, and each policy's ledger and summary."""
    preset = synthgen.paper_preset(n=SCALE_N, seed=seed)
    written, back = _round_trip(datamodel, synthgen.sample_dataset(preset))
    normed = datamodel.apply_normalization(back, normalization)
    labels, soft = matchrep.donor_type_batch(model, normed.donors)
    return {"csv": written, "read": dict(_leaves(back, "read")),
            "infer": {"preds": matchrep.predict_potential_batch(model, normed.recipients),
                      "labels": labels, "soft": soft},
            **_simulate(allocsim, preset, back, normed, model, seed)}


def _cli(baselines, cli, datamodel, matchrep, preset, dataset, models, normalization,
         seed) -> dict:
    """``organmatch eval`` of the trained ``models`` on ``dataset``, both
    written into one directory with a ``gen`` manifest of the preset's
    outcome means, then ``organmatch simulate`` of every policy there with
    the joint model's ``model.json``. Per command: the exit code and the
    bytes of every table; for ``eval`` also each cell of ``comparison.csv``
    keyed ``<model> <column>``."""
    with tempfile.TemporaryDirectory() as tmp:
        root, out, sim = Path(tmp), Path(tmp) / "eval", Path(tmp) / "simulate"
        datamodel.write_csv(dataset, root / "dataset.csv")
        datamodel.write_ground_truth_csv(dataset, root / "ground_truth.csv")
        # so that uf and bf score with the oracle, as after `organmatch gen`
        (root / "manifest.json").write_text(json.dumps(
            {"command": "gen", "config": {"outcome_means": np.asarray(
                preset.outcome_means, dtype=float).tolist()}}))
        for name, model in models.items():
            if name == "joint":
                matchrep.save_model(model, root / "model.json",
                                    normalization=datamodel.normalization_to_dict(normalization))
            elif name in baselines.PAIR_KINDS:
                baselines.save_pair_regressor(model, root / f"pair_{name}.json")
            else:
                baselines.save_cluster_predictor(
                    model, root / f"baseline_{name.replace('/', '_')}.json")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["eval", "--data", tmp, "--models", tmp, "--out", str(out)])
            sim_code = cli.main(["simulate", "--data", tmp, "--model", str(root / "model.json"),
                                 "--stream-seed", str(seed), "--out", str(sim)])
        tables = [path for path in (out / "comparison.csv", out / "eval_reports.json")
                  if path.exists()]
        rows = csv.DictReader(tables[0].read_text().splitlines()) if tables else []
        # simulate's manifest names the temporary directory, so only its tables are compared
        return {"eval": {"exit": {"": np.array(code)},
                         "tables": {path.name: np.frombuffer(path.read_bytes(), dtype=np.uint8)
                                    for path in tables},
                         "cells": {f"{row['model']} {column}": np.array(cell)
                                   for row in rows for column, cell in row.items()}},
                "cli-simulate": {"exit": {"": np.array(sim_code)},
                                 "tables": {path.name: np.frombuffer(path.read_bytes(),
                                                                     dtype=np.uint8)
                                            for path in sorted(sim.glob("*.csv"))}}}


def emit(src: Path, seed: int, out: Path) -> None:
    """Child process: write and read the preset's tables, train every model
    and simulate every policy with the ``organmatch`` of ``src`` and save
    every part as ``<model>|<part>|<key>`` arrays in ``out``."""
    sys.path.insert(0, str(src))
    import organmatch
    from organmatch import allocsim, baselines, cli, datamodel, matchrep, numkit, synthgen

    if Path(organmatch.__file__).resolve().parent != src.resolve() / "organmatch":
        raise ImportError(f"organmatch imported from {organmatch.__file__}, not {src}")
    preset = synthgen.paper_preset(seed=seed)
    dataset = synthgen.sample_dataset(preset)
    indices = datamodel.split(dataset, seed=seed)
    normed = datamodel.normalize_fit_transform(dataset, indices)
    train, val = normed.subset(indices.train), normed.subset(indices.validation)
    results = [("data", _tabular(datamodel, dataset, indices))]
    fitted = {}
    for name in (*MODELS, *baselines.PAIR_KINDS):
        try:
            model, parts = _fit(name, matchrep, baselines, train, val, seed)
            fitted[name] = model
        except (numkit.TrainingDivergedError, matchrep.DeadClusterError) as exc:
            model, parts = None, {"error": {"": np.array(repr(exc))}}
        results.append((name, parts))
        if name == "joint" and model is not None:
            results.append(("simulate", _simulate(allocsim, preset, dataset, normed, model, seed)))
            results.append(("simulate-50k", _at_scale(allocsim, datamodel, matchrep, synthgen,
                                                      model, normed.normalization, seed)))
    results.extend(_cli(baselines, cli, datamodel, matchrep, preset, dataset, fitted,
                        normed.normalization, seed).items())
    arrays = {f"{name}|{part}|{key}": value for name, parts in results
              for part, values in parts.items() for key, value in values.items()}
    np.savez(out, **arrays)


def _run_child(src: Path, seed: int, out: Path) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    env.pop("PYTHONPATH", None)
    subprocess.run([sys.executable, str(HERE), "--emit", str(src), "--seeds", str(seed),
                    "--out", str(out)], check=True, env=env)
    with np.load(out) as data:
        return {key: data[key] for key in data.files}


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def compare(ref: Path, seeds: list[int]) -> tuple[int, int]:
    """Returns the number of shared arrays that differ and of one-sided arrays."""
    n_differ = n_one_sided = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            this = _run_child(THIS_SRC, seed, Path(tmp) / f"this-{seed}.npz")
            other = _run_child(ref, seed, Path(tmp) / f"ref-{seed}.npz")
            groups = sorted({key.rsplit("|", 1)[0] for key in this.keys() | other.keys()})
            for group in groups:
                mine = {k.rsplit("|", 1)[1] for k in this if k.startswith(group + "|")}
                theirs = {k.rsplit("|", 1)[1] for k in other if k.startswith(group + "|")}
                shared = sorted(mine & theirs)
                differ = [k for k in shared
                          if not _same(this[f"{group}|{k}"], other[f"{group}|{k}"])]
                n_differ += len(differ)
                verdict = "equal bytes" if not differ else f"DIFFER in {len(differ)}: {differ[:3]}"
                model, part = group.split("|")
                note = (f" ({this[group + '|'].item()})"
                        if part == "error" and "" in shared and not differ else "")
                print(f"seed {seed}  {model:22s} {part:7s} {len(shared):3d} shared arrays  "
                      f"{verdict}{note}", flush=True)
                for side, keys in (("only in ref", theirs - mine),
                                   ("only in this", mine - theirs)):
                    n_one_sided += len(keys)
                    if keys:
                        print(f"seed {seed}  {model:22s} {part:7s} {side}: {sorted(keys)}",
                              flush=True)
    return n_differ, n_one_sided


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ref", type=Path, help="the other tree's src directory")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 5, 11])
    parser.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(args.emit, args.seeds[0], args.out)
        return 0
    if args.ref is None:
        parser.error("--ref is required")
    n_differ, n_one_sided = compare(args.ref, args.seeds)
    if n_differ:
        print(f"{n_differ} SHARED ARRAYS DIFFER; {n_one_sided} arrays in one tree only")
    elif n_one_sided:
        print(f"NO SHARED ARRAY DIFFERS; {n_one_sided} arrays in one tree only")
    else:
        print("ALL EQUAL")
    return 1 if n_differ or n_one_sided else 0


if __name__ == "__main__":
    sys.exit(main())
