"""Command-line entry point: gen / train / eval / simulate.

Each command writes its artifacts plus a ``manifest.json`` capturing the
fully resolved configuration and the SHA-256 hash of every artifact, so any
run is reproducible from the manifest alone. Exit codes: 0 success,
2 configuration error, 3 data error, 4 numeric divergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections.abc import Sequence
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import allocsim, baselines, datamodel, matchrep, metrics, synthgen
from .numkit import InsufficientDataError, TrainingDivergedError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

DEFAULT_BASELINES = ("kmeans/multihead-nn", "em/multihead-nn",
                     "kmeans/linear-per-head", "em/linear-per-head")


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _sha256(path: Path) -> str:
    """The file's SHA-256, read 1 MiB at a time so a large artifact is never held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out: Path, command: str, config: dict, seed: int,
                    artifacts: list[Path]) -> Path:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "artifacts": {p.name: _sha256(p) for p in artifacts},
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def _write_records(path: Path, fields: Sequence[str], records: list[dict]) -> None:
    """A CSV table of the ``fields`` of each record, one row per record."""
    datamodel.write_table(path, fields, len(records), lambda lo, hi: [
        [record[name] for record in records[lo:hi]] for name in fields])


def _ensure_out(path_str: str) -> Path:
    out = Path(path_str)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_config(path_str: str | None, cls, **overrides):
    """A ``cls`` config built in one construction from the JSON object of
    its fields in ``path_str``, each of its declared type, if a path is
    given, and the ``overrides`` that are not None."""
    values = {}
    try:
        if path_str:
            values = json.loads(Path(path_str).read_text())
            if not isinstance(values, dict):
                raise TypeError(f"a JSON {type(values).__name__}, not an object")
            datamodel.check_field_kinds(cls, values)
        return cls(**{**values, **{k: v for k, v in overrides.items() if v is not None}})
    except OSError as exc:
        raise datamodel.ConfigError(f"unreadable config file {path_str}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise datamodel.ConfigError(f"malformed JSON in {path_str}: {exc}") from exc
    except TypeError as exc:
        raise datamodel.ConfigError(f"{path_str} is not a {cls.__name__}: {exc}") from exc


def _load_data_dir(data_dir: str) -> datamodel.Dataset:
    root = Path(data_dir)
    csv_path = root / "dataset.csv"
    if not csv_path.exists():
        raise datamodel.IngestionError(f"no dataset.csv in {data_dir}")
    dataset = datamodel.load_csv(csv_path)
    truth = root / "ground_truth.csv"
    if truth.exists():
        dataset = datamodel.attach_ground_truth_csv(dataset, truth)
    return dataset


def _oracle_outcome_means(data_dir: str) -> np.ndarray | None:
    """The (M, K) true outcome means that the manifest of a ``gen`` data
    directory records, or None for data of another origin. An unreadable
    manifest, or a non-finite mean, raises IngestionError."""
    path = Path(data_dir) / "manifest.json"
    if not path.exists():
        return None
    try:
        manifest = json.loads(path.read_text())
        if manifest.get("command") != "gen":
            return None
        means = np.asarray(manifest["config"]["outcome_means"], dtype=float)
        if means.ndim != 2:
            raise ValueError(f"outcome_means has shape {means.shape}")
        if not np.isfinite(means).all():
            raise ValueError("outcome_means holds a non-finite value")
        return means
    except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise datamodel.IngestionError(f"unreadable data manifest {path}: {exc!r}") from exc


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    config = _load_config(args.config, synthgen.SyntheticConfig, n=args.n, seed=args.seed)

    out = _ensure_out(args.out)
    dataset = synthgen.sample_dataset(config)
    data_path = out / "dataset.csv"
    truth_path = out / "ground_truth.csv"
    datamodel.write_csv(dataset, data_path)
    datamodel.write_ground_truth_csv(dataset, truth_path)
    _write_manifest(out, "gen", asdict(config), config.seed, [data_path, truth_path])
    print(f"wrote {len(dataset)} records to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _parse_names(raw: str | None, default=()) -> list[str]:
    """The comma-separated names in ``raw``; ``default`` if it is None, none
    if blank. An empty entry or a name listed twice raises ConfigError."""
    if raw is None:
        return list(default)
    names = [name.strip() for name in raw.split(",")] if raw.strip() else []
    if "" in names:
        raise datamodel.ConfigError(f"an entry is empty in {raw!r}")
    if len(set(names)) < len(names):
        raise datamodel.ConfigError(f"a name is listed twice in {raw!r}")
    return names


def cmd_train(args) -> int:
    config = _load_config(args.config, matchrep.TrainConfig, seed=args.seed, beta=args.beta)
    baseline_names = [baselines.BaselineSpec.from_name(name, config).name
                      for name in _parse_names(args.baselines, DEFAULT_BASELINES)]
    pair_kinds = _parse_names(args.pair_regressors)
    for kind in pair_kinds:
        if kind not in baselines.PAIR_KINDS:
            raise datamodel.ConfigError(f"pair regressor {kind!r} not in {baselines.PAIR_KINDS}")
    files = {matchrep.JOINT: "model.json",
             **{name: f"baseline_{name.replace('/', '_')}.json" for name in baseline_names},
             **{kind: f"pair_{kind}.json" for kind in pair_kinds}}

    dataset = _load_data_dir(args.data)
    indices = datamodel.split(dataset, seed=config.seed)
    normed = datamodel.normalize_fit_transform(dataset, indices)
    train = normed.subset(indices.train)
    # only the joint model's file carries the normalization, which simulate reads
    normalization = {matchrep.JOINT: datamodel.normalization_to_dict(normed.normalization)}

    out = _ensure_out(args.out)
    artifacts = []
    for name, file in files.items():
        model, log = baselines.fit_model(name, train, config)
        matchrep.save_model(model, out / file, normalization=normalization.get(name))
        artifacts.append(out / file)
        if log is not None:
            artifacts.append(out / "training_log.csv")
            _write_records(artifacts[-1], matchrep.LOG_FIELDS, log)

    _write_manifest(out, "train", {
        "train": asdict(config),
        "data": str(Path(args.data)),
        "baselines": baseline_names,
        "pair_regressors": pair_kinds,
    }, config.seed, artifacts)
    print(f"wrote {len(artifacts)} model artifacts to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

# The model type that each file ``train`` writes may hold, by its name.
MODEL_FILES = (("model.json", matchrep.MatchRepModel), ("baseline_*.json", matchrep.MatchRepModel),
               ("pair_*.json", baselines.PairRegressor))


def cmd_eval(args) -> int:
    models_dir = Path(args.models)
    model_path = models_dir / "model.json"
    joint, norm = matchrep.load_model_and_normalization(model_path)

    dataset = _load_data_dir(args.data)
    indices = datamodel.split(dataset, seed=joint.config.seed)
    normed = datamodel.apply_normalization(dataset, norm)
    subset = normed.subset(indices.validation if args.split == "validation"
                           else indices.train if args.split == "train"
                           else np.arange(len(normed)))

    rows = []
    for pattern, kind in MODEL_FILES:
        for path in sorted(models_dir.glob(pattern)):
            model = joint if path == model_path else matchrep.load_model(path, kind)
            model.check_input_widths(path, subset.d_r, subset.d_o)
            preds, labels, best = model.predict_types(subset.recipients, subset.donors)
            rows.append(metrics.comparison_row(
                model.name, preds, labels, subset.outcomes, subset.true_potentials,
                subset.true_donor_type, best))

    out = _ensure_out(args.out)
    table_path = out / "comparison.csv"
    _write_records(table_path, list(rows[0]), rows)  # the columns of metrics.comparison_row
    _write_manifest(out, "eval", {
        "data": str(Path(args.data)), "models": str(models_dir),
        "split": args.split,
    }, joint.config.seed, [table_path])
    print(f"evaluated {len(rows)} models on {len(subset)} records -> {table_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    sim_config = _load_config(args.sim_config, allocsim.SimConfig)
    policies = _parse_names(args.policies) or list(allocsim.POLICIES)

    dataset = _load_data_dir(args.data)
    if not dataset.has_ground_truth:
        raise datamodel.IngestionError("simulate needs ground_truth.csv next to dataset.csv")
    model_sc = guide = oracle = None
    if args.model:
        model, norm = matchrep.load_model_and_normalization(args.model)
        model.check_input_widths(args.model, dataset.d_r, dataset.d_o)
        model_sc, guide = allocsim.model_scorer_and_guide(
            model, datamodel.apply_normalization(dataset, norm))
    if {"uf", "bf"} & set(policies):
        outcome_means = _oracle_outcome_means(args.data)
        if outcome_means is not None and dataset.true_recipient_type is not None:
            oracle = allocsim.oracle_mean_scorer(dataset, outcome_means)
    scorers = {policy: oracle if oracle and policy in ("uf", "bf") else model_sc
               for policy in policies}
    for policy, scorer in scorers.items():
        allocsim.check_policy(policy, scorer, guide)

    seed = args.stream_seed if args.stream_seed is not None else 0
    stream = allocsim.build_stream(dataset, sim_config, seed=seed)

    out = _ensure_out(args.out)
    artifacts = [out / f"ledger_{policy}.csv" for policy in policies]
    rows, real_types = {}, None
    # real first: its true types, which each other policy is compared with, alone outlive it
    for policy in sorted(scorers, key=lambda p: p != "real"):
        report = allocsim.run_policy(dataset, stream, policy, sim_config, scorers[policy], guide)
        allocsim.write_ledger_csv(report, out / f"ledger_{policy}.csv")
        types = allocsim.assigned_true_types(dataset, report)
        rows[policy] = {**report.summary(), "flipped_vs_real": None if real_types is None
                        else metrics.flipped_ratio(real_types, types)}
        if policy == "real":
            real_types = types
        del report, types  # one report at a time: the next policy runs without it

    table_path = out / "policy_table.csv"
    _write_records(table_path, [*allocsim.SUMMARY_FIELDS, "flipped_vs_real"],
                   [rows[policy] for policy in policies])
    artifacts.append(table_path)
    _write_manifest(out, "simulate", {
        "sim": asdict(sim_config), "policies": policies,
        "data": str(Path(args.data)),
        "model": None if not args.model else str(Path(args.model)),
    }, seed, artifacts)
    print(f"simulated {len(policies)} policies -> {table_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="organmatch")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    gen.add_argument("--config", help="SyntheticConfig JSON file; default the paper-5.1 preset")
    gen.add_argument("--n", type=int)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    train = sub.add_parser("train", help="train the model and baselines")
    train.add_argument("--data", required=True, help="directory produced by gen")
    train.add_argument("--config", help="TrainConfig JSON file")
    train.add_argument("--seed", type=int)
    train.add_argument("--beta", type=float, help="override beta (0 = ablation)")
    train.add_argument("--baselines",
                       help="comma list like 'kmeans/multihead-nn,em/multihead-nn+rep'; "
                            "empty string disables")
    train.add_argument("--pair-regressors",
                       help=f"comma list from {baselines.PAIR_KINDS}")
    train.add_argument("--out", required=True)
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate saved models on a dataset")
    ev.add_argument("--data", required=True)
    ev.add_argument("--models", required=True, help="directory produced by train")
    ev.add_argument("--split", choices=("validation", "train", "all"), default="validation")
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_eval)

    sim = sub.add_parser("simulate", help="run allocation-policy simulations")
    sim.add_argument("--data", required=True)
    sim.add_argument("--model", help="matchrep model.json for matching policies")
    sim.add_argument("--policies", help=f"comma list from {allocsim.POLICIES}")
    sim.add_argument("--stream-seed", type=int)
    sim.add_argument("--sim-config", help="SimConfig JSON file")
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except datamodel.ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (datamodel.IngestionError, InsufficientDataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDivergedError, matchrep.DeadClusterError) as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
