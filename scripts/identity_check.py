"""Check that two source trees write and read bit-identical tables, train
bit-identical models and simulate byte-identical ledgers, calling each tree
only through the contract the ``organmatch`` CLI uses:
``baselines.fit_model``, ``predict_types``, ``matchrep.save_model`` and
``allocsim.model_scorer_and_guide``. The other tree must be commit
``d79e15e`` or later, where ``fit_model`` and ``predict_types`` arrived.

Each tree writes the 5,000-row synthetic preset with ``write_csv`` and
``write_ground_truth_csv``; the bytes are compared, and so is every array
that ``load_csv``, ``attach_ground_truth_csv`` and
``normalize_fit_transform`` read back from them. Each tree then fits the
joint model (``matchrep.JOINT``), the ``kmeans/multihead-nn``,
``kmeans/multihead-nn+rep``, ``kmeans/linear-per-head``,
``em/linear-per-head`` and ``dec/linear-per-head`` baselines and a pair
regressor of every kind in ``baselines.PAIR_KINDS`` on the preset and
compares, byte for byte, every parameter, every training-log value, the
held-out predictions and donor labels and any training error. The same is
done at scale: each tree writes a 50,000-row preset (the bytes of both
tables are compared), reads it back (every array read is compared),
normalizes it with the joint model's statistics, infers it with the joint
model's ``predict_potentials`` and ``matchrep.donor_type_batch`` (the
arrays are compared byte for byte, as ties in the ledgers they drive can
hide a changed bit) and runs all seven allocation policies on its donor
stream (the seed is the stream seed), the oracle scoring ``uf`` and
``bf``; the stream's ``(step, donor)`` rows, each ledger CSV, each of its
columns and each ``summary()`` are compared, so a reordered stream shows
even where the ledgers do not change, and a dropped ledger column shows as
one-sided while the others are still compared. Last, ``organmatch eval``
scores the saved models on the preset written as CSV, and ``organmatch
simulate`` runs every policy there with the saved joint model; the exit
codes, the bytes and each column of every table (each ledger and
``policy_table.csv`` included) and the cells of ``comparison.csv`` are
compared:

    python3 scripts/identity_check.py --ref ../parent/src --seeds 1 2 3 11

Each tree runs in its own child process with BLAS pinned to one thread;
the two children of a seed run at once.
Prints one line per seed, model and part for the arrays both trees have,
then the arrays present in only one tree (say, a config field one of them
lacks) on lines of their own, and exits 1 if any array differs or is
one-sided.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
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
# fitted after the joint model and before a pair regressor of each kind in baselines.PAIR_KINDS
BASELINES = ("kmeans/multihead-nn", "kmeans/multihead-nn+rep", "kmeans/linear-per-head",
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


def _fit(name, baselines, matchrep, train, val, seed):
    """Fit one model; returns (model, {part: {key: array}})."""
    model, log = baselines.fit_model(name, train, matchrep.TrainConfig(seed=seed))
    preds, labels, _ = model.predict_types(val.recipients, val.donors)
    parts = {"params": dict(_leaves(model, "model")), "preds": {"": preds}}
    if log is not None:
        parts["log"] = {key: np.array([row[key] for row in log]) for key in log[0]}
    if name not in baselines.PAIR_KINDS:  # a pair regressor labels every donor 0
        parts["labels"] = {"": labels}
    return model, parts


def _columns(table: str, text: bytes) -> dict:
    """One array per column of the CSV ``text`` of ``table``, keyed
    ``<table> <column>``: its cells' UTF-8 bytes, a line each. A column one
    tree does not write is one-sided, and each other column is compared on
    its own."""
    header, *rows = csv.reader(io.StringIO(text.decode(), newline=""))
    cells = list(zip(*rows)) or [()] * len(header)
    return {f"{table} {column}": np.frombuffer("\n".join(values).encode(), dtype=np.uint8)
            for column, values in zip(header, cells)}


def _tables(paths) -> dict:
    """The bytes and the columns of each CSV table file."""
    tables = {path.name: path.read_bytes() for path in paths}
    return {"tables": {name: np.frombuffer(text, dtype=np.uint8)
                       for name, text in tables.items()},
            "columns": {key: value for name, text in tables.items()
                        for key, value in _columns(name, text).items()}}


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
    joint model's statistics and simulated under every policy with the
    oracle scorer for ``uf``/``bf`` and the model for the ``matching-*``
    policies: the bytes of both tables, every array read back, the joint
    model's inference on every row, the stream's donor arrivals and each
    policy's ledger CSV, its columns and ``repr(summary())``."""
    preset = synthgen.paper_preset(n=SCALE_N, seed=seed)
    written, back = _round_trip(datamodel, synthgen.sample_dataset(preset))
    normed = datamodel.apply_normalization(back, normalization)
    labels, soft = matchrep.donor_type_batch(model, normed.donors)
    config = allocsim.SimConfig()
    stream = allocsim.build_stream(back, config, seed=seed)
    oracle = allocsim.oracle_mean_scorer(back, preset.outcome_means)
    scorer, guide = allocsim.model_scorer_and_guide(model, normed)
    summaries = {}
    with tempfile.TemporaryDirectory() as tmp:
        for policy in allocsim.POLICIES:
            kwargs = ({"scorer": oracle} if policy in ("uf", "bf")
                      else {"scorer": scorer, "guide": guide} if policy.startswith("matching-")
                      else {})
            report = allocsim.run_policy(back, stream, policy, config, **kwargs)
            allocsim.write_ledger_csv(report, Path(tmp) / f"ledger_{policy}.csv")
            summaries[policy] = np.array(repr(report.summary()))
        ledgers = _tables(sorted(Path(tmp).glob("*.csv")))
    return {"csv": written, "read": dict(_leaves(back, "read")),
            "infer": {"preds": model.predict_potentials(normed.recipients),
                      "labels": labels, "soft": soft},
            # (step, donor) rows in the form every tree's stream converts to
            "stream": {"": np.asarray(stream.donor_arrivals, dtype=np.int64).reshape(-1, 2)},
            **ledgers, "summary": summaries}


def _cli(baselines, cli, datamodel, matchrep, preset, dataset, models, normalization,
         seed) -> dict:
    """``organmatch eval`` of the fitted ``models`` on ``dataset``, both
    written into one directory with a ``gen`` manifest of the preset's
    outcome means, then ``organmatch simulate`` of every policy there with
    the joint model's ``model.json``. Per command: the exit code and the
    bytes and columns of every table; for ``eval`` also each cell of
    ``comparison.csv`` keyed ``<model> <column>``."""
    with tempfile.TemporaryDirectory() as tmp:
        root, out, sim = Path(tmp), Path(tmp) / "eval", Path(tmp) / "simulate"
        datamodel.write_csv(dataset, root / "dataset.csv")
        datamodel.write_ground_truth_csv(dataset, root / "ground_truth.csv")
        # so that uf and bf score with the oracle, as after `organmatch gen`
        (root / "manifest.json").write_text(json.dumps(
            {"command": "gen", "config": {"outcome_means": np.asarray(
                preset.outcome_means, dtype=float).tolist()}}))
        # the files `organmatch train` writes; only model.json carries the normalization
        saved = {matchrep.JOINT: datamodel.normalization_to_dict(normalization)}
        for name, model in models.items():
            file = ("model.json" if name == matchrep.JOINT
                    else f"pair_{name}.json" if name in baselines.PAIR_KINDS
                    else f"baseline_{name.replace('/', '_')}.json")
            matchrep.save_model(model, root / file, normalization=saved.get(name))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["eval", "--data", tmp, "--models", tmp, "--out", str(out)])
            sim_code = cli.main(["simulate", "--data", tmp, "--model", str(root / "model.json"),
                                 "--stream-seed", str(seed), "--out", str(sim)])
        comparison = out / "comparison.csv"
        rows = csv.DictReader(comparison.read_text().splitlines()) if comparison.exists() else []
        # the manifests name the temporary directory, so only the tables are compared
        return {"eval": {"exit": {"": np.array(code)}, **_tables(sorted(out.glob("*.csv"))),
                         "cells": {f"{row['model']} {column}": np.array(cell)
                                   for row in rows for column, cell in row.items()}},
                "cli-simulate": {"exit": {"": np.array(sim_code)},
                                 **_tables(sorted(sim.glob("*.csv")))}}


def emit(src: Path, seed: int, out: Path) -> None:
    """Child process: write and read the preset's tables, fit every model
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
    for name in (matchrep.JOINT, *BASELINES, *baselines.PAIR_KINDS):
        try:
            fitted[name], parts = _fit(name, baselines, matchrep, train, val, seed)
        except (numkit.TrainingDivergedError, matchrep.DeadClusterError) as exc:
            parts = {"error": {"": np.array(repr(exc))}}
        results.append((name, parts))
    if matchrep.JOINT in fitted:
        results.append(("simulate-50k", _at_scale(allocsim, datamodel, matchrep, synthgen,
                                                  fitted[matchrep.JOINT], normed.normalization,
                                                  seed)))
    results.extend(_cli(baselines, cli, datamodel, matchrep, preset, dataset, fitted,
                        normed.normalization, seed).items())
    arrays = {f"{name}|{part}|{key}": value for name, parts in results
              for part, values in parts.items() for key, value in values.items()}
    np.savez(out, **arrays)


def _run_children(ref: Path, seed: int, tmp: Path) -> list[dict]:
    """The arrays that this tree's child and the ``ref`` tree's child emit.
    Both run at once, each with BLAS on one thread; a failed child raises
    once both have ended."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    env.pop("PYTHONPATH", None)
    outs = [tmp / f"this-{seed}.npz", tmp / f"ref-{seed}.npz"]
    children = [subprocess.Popen([sys.executable, str(HERE), "--emit", str(src),
                                  "--seeds", str(seed), "--out", str(out)], env=env)
                for src, out in zip((THIS_SRC, ref), outs)]
    failed = [child for child in children if child.wait()]
    if failed:
        raise subprocess.CalledProcessError(failed[0].returncode, failed[0].args)
    arrays = []
    for out in outs:
        with np.load(out) as data:
            arrays.append({key: data[key] for key in data.files})
    return arrays


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def compare(ref: Path, seeds: list[int]) -> tuple[int, int]:
    """Returns the number of shared arrays that differ and of one-sided arrays."""
    n_differ = n_one_sided = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            this, other = _run_children(ref, seed, Path(tmp))
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
