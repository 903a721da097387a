"""End-to-end CLI tests: gen / train / eval / simulate, manifests, exit codes."""

import csv
import dataclasses
import hashlib
import json
import shutil
import weakref
from pathlib import Path

import numpy as np
import pytest

from netsize import SMALL_NETS, matchrep_constants
from organmatch import allocsim, baselines, cli, datamodel, matchrep, numkit, synthgen
from organmatch.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main

# every model this module trains has the SMALL_NETS networks
TRAIN_CONFIG = {"k": 3, "pretrain_epochs": 5, "joint_epochs": 8, "batch_size": 32, "seed": 0}


@pytest.fixture(scope="module", autouse=True)
def small_nets_throughout():
    with matchrep_constants(**SMALL_NETS):
        yield


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def data_dir(workdir) -> Path:
    out = workdir / "data"
    assert main(["gen", "--n", "150", "--seed", "0", "--out", str(out)]) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def models_dir(workdir, data_dir) -> Path:
    out = workdir / "models"
    config = workdir / "train.json"
    config.write_text(json.dumps(TRAIN_CONFIG))
    code = main(["train", "--data", str(data_dir), "--config", str(config),
                 "--baselines", "kmeans/linear-per-head",
                 "--pair-regressors", "ridge,reg-tree", "--out", str(out)])
    assert code == EXIT_OK
    return out


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_artifacts_and_manifest(data_dir):
    assert (data_dir / "dataset.csv").exists()
    assert (data_dir / "ground_truth.csv").exists()
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["seed"] == 0
    assert manifest["config"]["n"] == 150
    assert set(manifest["artifacts"]) == {"dataset.csv", "ground_truth.csv"}
    rows = _read_csv(data_dir / "dataset.csv")
    assert len(rows) == 150


def test_gen_byte_identical_across_runs(workdir, data_dir):
    again = workdir / "data2"
    assert main(["gen", "--n", "150", "--seed", "0", "--out", str(again)]) == EXIT_OK
    for name in ("dataset.csv", "ground_truth.csv"):
        assert (again / name).read_bytes() == (data_dir / name).read_bytes()


def test_gen_malformed_config_is_config_error(workdir):
    bad = workdir / "bad.json"
    bad.write_text("{not json")
    assert main(["gen", "--config", str(bad), "--out", str(workdir / "x")]) == EXIT_CONFIG


# 100,000 nested arrays, beyond the recursion limit of the json module
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def test_gen_deeply_nested_config_is_config_error(workdir):
    deep = workdir / "deep_config.json"
    deep.write_text(DEEP_JSON)
    assert main(["gen", "--config", str(deep), "--out", str(workdir / "x")]) == EXIT_CONFIG


def test_gen_negative_size_is_config_error(workdir):
    assert main(["gen", "--n", "-3", "--out", str(workdir / "x")]) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_artifacts(models_dir):
    assert (models_dir / "model.json").exists()
    assert (models_dir / "baseline_kmeans_linear-per-head.json").exists()
    assert (models_dir / "pair_ridge.json").exists()
    manifest = json.loads((models_dir / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["baselines"] == ["kmeans/linear-per-head"]
    assert "model.json" in manifest["artifacts"]


def test_training_log_is_the_log_of_train_joint(workdir, data_dir, models_dir):
    # one row per joint epoch of the loss terms train_joint logs, and no sum of them
    config = matchrep.load_model(models_dir / "model.json").config
    dataset = datamodel.load_csv(data_dir / "dataset.csv")
    indices = datamodel.split(dataset, seed=config.seed)
    train = datamodel.normalize_fit_transform(dataset, indices).subset(indices.train)
    _, log = matchrep.train_joint(train.recipients, train.donors, train.outcomes, config)
    assert len(log) == TRAIN_CONFIG["joint_epochs"]
    header = ["epoch", "L_f", "L_DEC", "L_Phi", "dec_active", "label_churn", "cluster_counts"]
    with open(workdir / "log_reference.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *([row[name] for name in header] for row in log)])
    assert ((models_dir / "training_log.csv").read_bytes()
            == (workdir / "log_reference.csv").read_bytes())


def test_train_byte_identical_across_runs(workdir, data_dir, models_dir):
    again = workdir / "models2"
    config = workdir / "train.json"
    code = main(["train", "--data", str(data_dir), "--config", str(config),
                 "--baselines", "kmeans/linear-per-head",
                 "--pair-regressors", "ridge,reg-tree", "--out", str(again)])
    assert code == EXIT_OK
    for name in ("model.json", "training_log.csv", "baseline_kmeans_linear-per-head.json",
                 "pair_ridge.json", "pair_reg-tree.json"):
        assert (again / name).read_bytes() == (models_dir / name).read_bytes()


def test_train_missing_data_is_data_error(workdir):
    assert main(["train", "--data", str(workdir / "nowhere"),
                 "--out", str(workdir / "x")]) == EXIT_DATA


def test_train_dead_cluster_is_numeric_error(workdir, data_dir, monkeypatch):
    def dead_cluster(*args, **kwargs):
        raise matchrep.DeadClusterError(1)

    monkeypatch.setattr(matchrep, "train_joint", dead_cluster)
    assert main(["train", "--data", str(data_dir), "--baselines", "",
                 "--out", str(workdir / "dead")]) == EXIT_NUMERIC


def test_train_bad_baseline_name_is_config_error(workdir, data_dir):
    assert main(["train", "--data", str(data_dir), "--baselines", "foo",
                 "--out", str(workdir / "x")]) == EXIT_CONFIG


@pytest.mark.parametrize("names", ["kmeans", "kmeans/multihead-nn/x", "kmeans/multihead-nn+",
                                   "em/linear-per-head+rep", "kmeans/multihead-nn,dec/gp"])
def test_train_malformed_or_linear_rep_baseline_is_config_error(workdir, data_dir, names,
                                                                 capsys):
    out = workdir / "rejected_baselines"
    assert main(["train", "--data", str(data_dir), "--baselines", names,
                 "--out", str(out)]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


CONFIG_CLASSES = [(synthgen.SyntheticConfig, {"match_table": [[0.5, 0.5, 0.5], [0.1, 0.7, 0.2]]}),
                  (matchrep.TrainConfig, {"beta": -1.0}),
                  (allocsim.SimConfig, {"donor_fraction": 1.5}),
                  (baselines.BaselineSpec, {"clusterer": "spectral"})]


@pytest.mark.parametrize("cls, bad", CONFIG_CLASSES, ids=[c.__name__ for c, _ in CONFIG_CLASSES])
def test_every_config_is_valid_from_construction(cls, bad):
    with pytest.raises(datamodel.ConfigError):
        cls(**bad)
    config = cls()
    name = next(iter(bad))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, name, bad[name])


# train's invalid values are test_train_invalid_config_value_is_config_error's
@pytest.mark.parametrize("command, flag, body", [
    ("gen", "--config", CONFIG_CLASSES[0][1]),
    ("simulate", "--sim-config", CONFIG_CLASSES[2][1]),
])
def test_config_of_invalid_value_is_config_error(workdir, data_dir, command, flag, body, capsys):
    path = workdir / "invalid_value_config.json"
    path.write_text(json.dumps(body))
    args = [command, flag, str(path), "--out", str(workdir / "x")]
    if command != "gen":
        args += ["--data", str(data_dir)]
    assert main(args) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_train_bad_pair_kind_is_config_error(workdir, data_dir):
    assert main(["train", "--data", str(data_dir), "--pair-regressors", "svm",
                 "--out", str(workdir / "x")]) == EXIT_CONFIG


@pytest.mark.parametrize("command, flag, body", [
    ("gen", "--config", {"bogus": 1}),
    ("train", "--config", {"bogus": 1}),
    ("train", "--config", [1, 2]),
    ("simulate", "--sim-config", {"bogus": 1}),
    # fields of variants the model no longer offers
    ("train", "--config", {"center_init": "kmeans"}),
    ("train", "--config", {"kl_direction": "conditional-to-marginal"}),
    ("train", "--config", {"target_update_interval": 1}),
    ("train", "--config", {"dec_exponent": -0.5}),
    ("train", "--config", {"dec_lr": 0.5}),  # folded into alpha, now DEC_STEP
    # the DEC schedule's tuning values, now matchrep constants
    ("train", "--config", {"min_cluster_frac": 0.01}),
    ("train", "--config", {"embed_decay": 0.004}),
    ("train", "--config", {"dec_min_epochs": 5}),
    ("train", "--config", {"dec_stop_tol": 0.005}),
    # the network sizes and steps, now matchrep constants
    ("train", "--config", {"learning_rate": 1e-3}),
    ("train", "--config", {"alpha": 0.1}),
    ("train", "--config", {"hidden": 32}),
    ("train", "--config", {"rep_dim": 8}),
    ("train", "--config", {"embed_dim": 8}),
    ("train", "--config", {"min_cluster_count": 8}),
])
def test_config_with_unknown_field_is_config_error(workdir, data_dir, command, flag, body):
    path = workdir / "odd_config.json"
    path.write_text(json.dumps(body))
    args = [command, flag, str(path), "--out", str(workdir / "x")]
    if command != "gen":
        args += ["--data", str(data_dir)]
    assert main(args) == EXIT_CONFIG


@pytest.mark.parametrize("command, flag, body", [
    ("gen", "--config", {"n": "150"}),
    ("train", "--config", {"k": "3"}),
    ("train", "--config", {"k": 3.0}),
    ("train", "--config", {"beta": True}),
    ("simulate", "--sim-config", {"donor_fraction": [0.5]}),
])
def test_config_field_of_wrong_type_is_config_error(workdir, data_dir, command, flag, body):
    path = workdir / "mistyped_config.json"
    path.write_text(json.dumps(body))
    args = [command, flag, str(path), "--out", str(workdir / "x")]
    if command != "gen":
        args += ["--data", str(data_dir)]
    assert main(args) == EXIT_CONFIG


@pytest.mark.parametrize("body", [{"k": 1}, {"batch_size": 0}])
def test_train_invalid_config_value_is_config_error(workdir, data_dir, body):
    path = workdir / "invalid_config.json"
    path.write_text(json.dumps(body))
    assert main(["train", "--data", str(data_dir), "--config", str(path),
                 "--out", str(workdir / "x")]) == EXIT_CONFIG


def test_train_beta_flag_wins_over_the_config_file(workdir, data_dir):
    path = workdir / "beta_config.json"
    path.write_text(json.dumps({**TRAIN_CONFIG, "beta": 5.0, "joint_epochs": 1}))
    out = workdir / "beta_zero"
    assert main(["train", "--data", str(data_dir), "--config", str(path), "--beta", "0",
                 "--baselines", "", "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["train"]["beta"] == 0.0
    assert matchrep.load_model(out / "model.json").config.beta == 0.0


def test_train_negative_beta_flag_is_config_error(workdir, data_dir):
    out = workdir / "beta_negative"
    assert main(["train", "--data", str(data_dir), "--beta", "-1", "--baselines", "",
                 "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("body", [{"beta": float("nan")}, {"alpha": float("inf")},
                                  {"learning_rate": -1.0}, {"learning_rate": 0.0},
                                  {"joint_epochs": -3}, {"pretrain_epochs": -1},
                                  {"min_cluster_count": -1}],
                         ids=lambda body: "{}={}".format(*next(iter(body.items()))))
def test_train_non_finite_or_out_of_range_config_is_config_error(workdir, data_dir, body,
                                                                 capsys):
    # json writes NaN and Infinity, and reads them back; alpha, learning_rate
    # and min_cluster_count are no config fields, so those are refused by name
    path = workdir / "out_of_range_config.json"
    path.write_text(json.dumps({**TRAIN_CONFIG, "pretrain_epochs": 1, "joint_epochs": 1, **body}))
    out = workdir / "out_of_range"
    assert main(["train", "--data", str(data_dir), "--config", str(path), "--baselines", "",
                 "--out", str(out)]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("baselines, pair_regressors", [
    ("kmeans/linear-per-head, kmeans/linear-per-head", ""),
    ("", "ridge,ridge"),
    ("kmeans/linear-per-head,kmeans/linear-per-head", "ridge,ridge"),
])
def test_train_name_listed_twice_is_config_error(workdir, data_dir, baselines, pair_regressors,
                                                 capsys):
    path = workdir / "repeated_names_config.json"
    path.write_text(json.dumps(TRAIN_CONFIG))
    out = workdir / "repeated_names"
    assert main(["train", "--data", str(data_dir), "--config", str(path),
                 "--baselines", baselines, "--pair-regressors", pair_regressors,
                 "--out", str(out)]) == EXIT_CONFIG
    assert "listed twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, names", [
    ("train", "--baselines", ","),
    ("train", "--pair-regressors", "ridge,"),
    ("simulate", "--policies", ","),
    ("simulate", "--policies", "fcfs,,real"),
])
def test_empty_name_entry_is_config_error(workdir, data_dir, command, flag, names, capsys):
    out = workdir / "empty_entry"
    assert main([command, "--data", str(data_dir), flag, names,
                 "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "an entry is empty" in err and "listed twice" not in err
    assert not out.exists()


def test_train_non_finite_feature_is_data_error(workdir, data_dir):
    nan_data = workdir / "nan_data"
    nan_data.mkdir()
    lines = (data_dir / "dataset.csv").read_text().splitlines()
    lines[5] = "nan" + lines[5][lines[5].index(","):]
    (nan_data / "dataset.csv").write_text("\n".join(lines) + "\n")
    config = nan_data / "train.json"
    config.write_text(json.dumps(TRAIN_CONFIG))
    assert main(["train", "--data", str(nan_data), "--config", str(config),
                 "--baselines", "", "--out", str(workdir / "x")]) == EXIT_DATA


def test_train_malformed_csv_is_data_error(workdir):
    broken = workdir / "broken"
    broken.mkdir()
    (broken / "dataset.csv").write_text("r_a,d_b,outcome\n1,2,notanumber\n")
    assert main(["train", "--data", str(broken),
                 "--out", str(workdir / "x")]) == EXIT_DATA


@pytest.mark.parametrize("case", ["empty", "non-utf8"])
def test_train_unreadable_csv_is_data_error(workdir, data_dir, case, capsys):
    bad = shutil.copytree(data_dir, workdir / f"unreadable_{case}")
    raw = (bad / "dataset.csv").read_bytes()
    (bad / "dataset.csv").write_bytes(b"" if case == "empty" else raw[:200] + b"\xff" + raw[200:])
    assert main(["train", "--data", str(bad), "--baselines", "",
                 "--out", str(workdir / "x")]) == EXIT_DATA
    assert "dataset.csv" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, case", [
    pytest.param(command, flag, case,
                 id="-".join((command, flag) if case == "non-utf8" else (case, command, flag)))
    for case in ("non-utf8", "missing", "directory")
    for command, flag in (("gen", "--config"), ("train", "--config"),
                          ("simulate", "--sim-config"))])
def test_non_utf8_config_is_config_error(workdir, data_dir, command, flag, case):
    # a config file that cannot be read is a config error too
    path = workdir / f"{case}_config.json"
    if case == "non-utf8":
        path.write_bytes(b'{"seed": 1\xff}')
    elif case == "directory":
        path.mkdir(exist_ok=True)
    args = [command, flag, str(path), "--out", str(workdir / "x")]
    if command != "gen":
        args += ["--data", str(data_dir)]
    assert main(args) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_comparison_table(workdir, data_dir, models_dir):
    out = workdir / "eval"
    code = main(["eval", "--data", str(data_dir), "--models", str(models_dir),
                 "--out", str(out)])
    assert code == EXIT_OK
    rows = _read_csv(out / "comparison.csv")
    names = [r["model"] for r in rows]
    assert "matchrep" in names
    assert "kmeans/linear-per-head" in names
    assert "ridge" in names
    for row in rows:
        assert float(row["eps_f"]) >= 0.0
    match = next(r for r in rows if r["model"] == "matchrep")
    assert 0.0 <= float(match["aodt"]) <= 1.0


def test_eval_train_split_scores_the_training_rows(workdir, data_dir, models_dir):
    out = workdir / "eval_train"
    assert main(["eval", "--data", str(data_dir), "--models", str(models_dir),
                 "--split", "train", "--out", str(out)]) == EXIT_OK
    dataset = datamodel.load_csv(data_dir / "dataset.csv")
    n_train = len(datamodel.split(dataset, seed=TRAIN_CONFIG["seed"]).train)
    rows = _read_csv(out / "comparison.csv")
    assert len(rows) == 4 and all(int(row["n"]) == n_train for row in rows)
    assert n_train < len(dataset)


def test_eval_best_prediction_skips_inactive_heads(workdir, data_dir, models_dir):
    # deactivate the head that holds most rows' maximum: the model never
    # assigns that donor type, so it is no row's best type
    model, norm = matchrep.load_model_and_normalization(models_dir / "model.json")
    normed = datamodel.apply_normalization(datamodel.load_csv(data_dir / "dataset.csv"), norm)
    preds = matchrep.predict_potential_batch(model, normed.recipients)
    model.active = np.ones(model.config.k, dtype=bool)
    model.active[np.bincount(np.argmax(preds, axis=1)).argmax()] = False
    edited = workdir / "models_inactive"
    edited.mkdir()
    doc = json.loads((models_dir / "model.json").read_text())
    doc["model"]["active"] = {"dtype": "bool", "array": model.active.tolist()}
    (edited / "model.json").write_text(json.dumps(doc))
    out = workdir / "eval_inactive"
    assert main(["eval", "--data", str(data_dir), "--models", str(edited),
                 "--split", "all", "--out", str(out)]) == EXIT_OK
    row = _read_csv(out / "comparison.csv")[0]
    masked = np.where(model.active, preds, -np.inf).max(axis=1)
    assert float(row["mean_best_prediction"]) == float(np.mean(masked))
    assert float(row["mean_best_prediction"]) < float(np.mean(preds.max(axis=1)))


def test_eval_baseline_best_prediction_skips_inactive_heads(workdir, data_dir, models_dir):
    # as for the joint model: deactivate the baseline head that holds most
    # rows' maximum
    name = "baseline_kmeans_linear-per-head.json"
    bmodel = baselines.load_cluster_predictor(models_dir / name)
    norm = matchrep.load_model_and_normalization(models_dir / "model.json")[1]
    normed = datamodel.apply_normalization(datamodel.load_csv(data_dir / "dataset.csv"), norm)
    preds = bmodel.predict_potentials(normed.recipients)
    np.testing.assert_array_equal(bmodel.active, True)
    active = np.ones(bmodel.config.k, dtype=bool)
    active[np.bincount(np.argmax(preds, axis=1)).argmax()] = False
    edited = workdir / "baselines_inactive"
    edited.mkdir()
    shutil.copy(models_dir / "model.json", edited)
    doc = json.loads((models_dir / name).read_text())
    doc["model"]["active"] = {"dtype": "bool", "array": active.tolist()}
    (edited / name).write_text(json.dumps(doc))
    out = workdir / "eval_baselines_inactive"
    assert main(["eval", "--data", str(data_dir), "--models", str(edited),
                 "--split", "all", "--out", str(out)]) == EXIT_OK
    row = _read_csv(out / "comparison.csv")[1]
    assert row["model"] == "kmeans/linear-per-head"
    masked = np.where(active, preds, -np.inf).max(axis=1)
    assert float(row["mean_best_prediction"]) == float(np.mean(masked))
    assert float(row["mean_best_prediction"]) < float(np.mean(preds.max(axis=1)))


def test_eval_has_no_seed_option(workdir, data_dir, models_dir):
    # eval splits with the seed saved in the model, the one train split with
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--data", str(data_dir), "--models", str(models_dir),
              "--seed", "3", "--out", str(workdir / "x")])
    assert exc.value.code == EXIT_CONFIG


def test_eval_missing_model_is_data_error(workdir, data_dir):
    assert main(["eval", "--data", str(data_dir), "--models", str(workdir / "nope"),
                 "--out", str(workdir / "x")]) == EXIT_DATA


LINEAR_BASELINE = "baseline_kmeans_linear-per-head.json"
BAD_MODEL_FILES = ("wrong-format", "previous-format", "truncated", "no-phi",
                   "no-normalization", "pair-regressor", "int-encoder", "short-bias",
                   "missing-head", "short-scale", "nan-weight", "infinite-outcome-scale",
                   "v4-file", "invalid-config", "v5-file", "v6-file", "v7-file", "v8-file",
                   "dec-centers-width", "nan-normalization", "zero-scale", "baseline-file",
                   "bool-weight", "bool-centers", "v9-file", "v10-file", "decoder-field",
                   "v11-file", "embed-decay-field", "v12-file", "hidden-field", "v13-file")


def _bad_model_file(models_dir: Path, case: str) -> str:
    text = (models_dir / "model.json").read_text()
    no_phi, no_norm, int_encoder = json.loads(text), json.loads(text), json.loads(text)
    short_bias, missing_head, short_scale = json.loads(text), json.loads(text), json.loads(text)
    nan_weight, inf_scale, narrow_centers = json.loads(text), json.loads(text), json.loads(text)
    v4, invalid_config = json.loads(text), json.loads(text)
    nan_norm, zero_scale = json.loads(text), json.loads(text)
    bool_weight, bool_centers = json.loads(text), json.loads(text)
    with_decoder, with_embed_decay = json.loads(text), json.loads(text)
    with_hidden = json.loads(text)
    del no_phi["model"]["phi"]
    no_norm["normalization"] = None
    int_encoder["model"]["phi"] = 5
    short_bias["model"]["phi"]["layers"][0]["bias"]["array"].pop()
    missing_head["model"]["predictor"]["heads"].pop()
    short_scale["normalization"]["recipient_scale"].pop()
    encoder = nan_weight["model"]["clusterer"]["encoder"]
    encoder["layers"][0]["weight"]["array"][0][0] = float("nan")
    for row in narrow_centers["model"]["clusterer"]["centers"]["array"]:
        row.pop()  # one column narrower than the encoder's embedding
    inf_scale["model"]["predictor"]["outcome_scale"] = float("inf")
    v4["format"] = "organmatch-model-v4"  # whose TrainConfig still had dec_lr
    v4["model"]["config"]["dec_lr"] = 1.0
    invalid_config["model"]["config"]["k"] = 1
    nan_norm["normalization"]["recipient_mean"][0] = float("nan")
    zero_scale["normalization"]["donor_scale"][0] = 0.0
    # only the active mask may be a bool array; these would read as 0/1 floats
    bool_weight["model"]["phi"]["layers"][0]["weight"]["dtype"] = "bool"
    bool_centers["model"]["clusterer"]["centers"]["dtype"] = "bool"
    # the DEC decoder is training state, which a model file no longer holds
    clusterer = with_decoder["model"]["clusterer"]
    clusterer["decoder"] = clusterer["encoder"]
    # a TrainConfig with a field of the v11 one, now a matchrep constant
    with_embed_decay["model"]["config"]["embed_decay"] = 0.004
    # a v13 TrainConfig with a field of the v12 one, now a matchrep constant
    with_hidden["model"]["config"]["hidden"] = 32
    return {"wrong-format": '{"format": "other"}',
            "previous-format": text.replace(matchrep.MODEL_FORMAT, "organmatch-model-v3"),
            "truncated": text[:len(text) // 2],
            "no-phi": json.dumps(no_phi),
            "no-normalization": json.dumps(no_norm),
            "pair-regressor": (models_dir / "pair_ridge.json").read_text(),
            "int-encoder": json.dumps(int_encoder),
            "short-bias": json.dumps(short_bias),
            "missing-head": json.dumps(missing_head),
            "short-scale": json.dumps(short_scale),
            "nan-weight": json.dumps(nan_weight),
            "infinite-outcome-scale": json.dumps(inf_scale),
            "v4-file": json.dumps(v4),
            "invalid-config": json.dumps(invalid_config),
            "v5-file": text.replace(matchrep.MODEL_FORMAT, "organmatch-model-v5"),
            "v6-file": text.replace(matchrep.MODEL_FORMAT, "organmatch-model-v6"),
            "v7-file": text.replace(matchrep.MODEL_FORMAT, "organmatch-model-v7"),
            "v8-file": text.replace(matchrep.MODEL_FORMAT, "organmatch-model-v8"),
            "v9-file": text.replace(matchrep.MODEL_FORMAT, "organmatch-model-v9"),
            "v10-file": text.replace(matchrep.MODEL_FORMAT, "organmatch-model-v10"),
            "decoder-field": json.dumps(with_decoder),
            "v11-file": text.replace(matchrep.MODEL_FORMAT, "organmatch-model-v11"),
            "embed-decay-field": json.dumps(with_embed_decay),
            "v12-file": text.replace(matchrep.MODEL_FORMAT, "organmatch-model-v12"),
            "hidden-field": json.dumps(with_hidden),
            "v13-file": text.replace(matchrep.MODEL_FORMAT, "organmatch-model-v13"),
            "dec-centers-width": json.dumps(narrow_centers),
            "nan-normalization": json.dumps(nan_norm),
            "zero-scale": json.dumps(zero_scale),
            "bool-weight": json.dumps(bool_weight),
            "bool-centers": json.dumps(bool_centers),
            # a cluster model like the joint one, saved with no normalization
            "baseline-file": (models_dir / LINEAR_BASELINE).read_text()}[case]


@pytest.mark.parametrize("case", BAD_MODEL_FILES)
def test_eval_malformed_model_is_data_error(workdir, data_dir, models_dir, case):
    bad = workdir / f"bad_models_{case}"
    bad.mkdir()
    (bad / "model.json").write_text(_bad_model_file(models_dir, case))
    assert main(["eval", "--data", str(data_dir), "--models", str(bad),
                 "--out", str(workdir / "x")]) == EXIT_DATA


def _em_below_variance_floor(model):
    """Make the k-means baseline ``model`` an EM one whose variances are below the floor."""
    k, d = np.shape(model["clusterer"]["centers"]["array"])
    model["name"] = "em/linear-per-head"
    model["clusterer"].update(
        kind="em", weights={"dtype": "float64", "array": [1.0 / k] * k},
        variances={"dtype": "float64", "array": [[numkit.VAR_FLOOR / 2] * d] * k})


def _first_weight(model):
    """The rows of the first head's weight of a baseline or pair regressor ``model``."""
    return model["predictor"]["heads"][0]["layers"][0]["weight"]["array"]


BAD_BASELINE_EDITS = {  # case: (file, edit of its "model" object)
    "pair-weight": ("pair_ridge.json", lambda model: _first_weight(model).pop()),
    "linear-head-weight": (LINEAR_BASELINE, lambda model: _first_weight(model).pop()),
    "dropped-linear-head": (LINEAR_BASELINE, lambda model: model["predictor"]["heads"].pop()),
    "null-centers": (LINEAR_BASELINE, lambda model: model["clusterer"].update(centers=None)),
    "null-linear-heads": (LINEAR_BASELINE, lambda model: model.update(predictor=None)),
    "tree-feature-999": ("pair_reg-tree.json", lambda model: model["tree"].update(feature=999)),
    "tree-right-null": ("pair_reg-tree.json", lambda model: model["tree"].update(right=None)),
    "invalid-train-config": (LINEAR_BASELINE, lambda model: model["config"].update(k=1)),
    "float-active": (LINEAR_BASELINE, lambda model: model["active"].update(dtype="float64")),
    "em-variance-below-floor": (LINEAR_BASELINE, _em_below_variance_floor),
    "bool-centers": (LINEAR_BASELINE, lambda model: model["clusterer"]["centers"].update(
        dtype="bool")),
    "bool-head-weight": (LINEAR_BASELINE, lambda model: model["predictor"]["heads"][0][
        "layers"][0]["weight"].update(dtype="bool")),
}


@pytest.mark.parametrize("case", BAD_BASELINE_EDITS)
def test_eval_short_baseline_weights_is_data_error(workdir, data_dir, models_dir, case, capsys):
    name, edit = BAD_BASELINE_EDITS[case]
    doc = json.loads((models_dir / name).read_text())
    if name == "pair_reg-tree.json":
        assert doc["model"]["tree"]["left"] is not None  # the root splits
    edit(doc["model"])
    bad = workdir / f"short_{case}"
    bad.mkdir()
    (bad / "model.json").write_bytes((models_dir / "model.json").read_bytes())
    (bad / name).write_text(json.dumps(doc))
    assert main(["eval", "--data", str(data_dir), "--models", str(bad),
                 "--out", str(workdir / "x")]) == EXIT_DATA
    assert name in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", BAD_MODEL_FILES)
def test_simulate_malformed_model_is_data_error(workdir, data_dir, models_dir, case):
    bad = workdir / f"bad_model_{case}.json"
    bad.write_text(_bad_model_file(models_dir, case))
    assert main(["simulate", "--data", str(data_dir), "--model", str(bad),
                 "--out", str(workdir / "x")]) == EXIT_DATA


@pytest.mark.parametrize("wrapped", [False, True], ids=["bare", "in-model-file"])
def test_simulate_deeply_nested_model_is_data_error(workdir, data_dir, wrapped):
    deep = workdir / f"deep_model_{wrapped}.json"
    deep.write_text(f'{{"format": "{matchrep.MODEL_FORMAT}", "model": {DEEP_JSON}}}'
                    if wrapped else DEEP_JSON)
    assert main(["simulate", "--data", str(data_dir), "--model", str(deep),
                 "--out", str(workdir / "x")]) == EXIT_DATA


def test_simulate_deeply_nested_data_manifest_is_data_error(workdir, data_dir):
    bad = shutil.copytree(data_dir, workdir / "deep_manifest")
    (bad / "manifest.json").write_text(DEEP_JSON)
    assert main(["simulate", "--data", str(bad), "--policies", "uf",
                 "--out", str(workdir / "x")]) == EXIT_DATA


def test_simulate_policy_table(workdir, data_dir, models_dir):
    out = workdir / "sim"
    code = main(["simulate", "--data", str(data_dir),
                 "--model", str(models_dir / "model.json"),
                 "--stream-seed", "0", "--out", str(out)])
    assert code == EXIT_OK
    rows = _read_csv(out / "policy_table.csv")
    assert [r["policy"] for r in rows] == [
        "real", "fcfs", "uf", "bf", "matching-fcfs", "matching-uf", "matching-bf"]
    for row in rows:
        assert (out / f"ledger_{row['policy']}.csv").exists()
        parts = (int(row["n_transplanted"]) + int(row["n_dead"])
                 + int(row["n_waiting"]))
        assert parts == int(row["n"])
    real = next(r for r in rows if r["policy"] == "real")
    assert real["flipped_vs_real"] == ""


def test_simulate_holds_one_report_at_a_time(workdir, data_dir, models_dir, monkeypatch):
    argv = ["simulate", "--data", str(data_dir), "--model", str(models_dir / "model.json"),
            "--stream-seed", "0", "--out"]
    assert main([*argv, str(workdir / "sim_untracked")]) == EXIT_OK
    reports = []
    run_policy = allocsim.run_policy

    def tracked(*args, **kwargs):
        # every earlier policy's report is gone before the next one runs
        assert [ref() for ref in reports] == [None] * len(reports)
        report = run_policy(*args, **kwargs)
        reports.append(weakref.ref(report))
        return report

    monkeypatch.setattr(allocsim, "run_policy", tracked)
    out = workdir / "sim_one_report"
    assert main([*argv, str(out)]) == EXIT_OK
    assert len(reports) == len(allocsim.POLICIES)
    for name in ("policy_table.csv", *(f"ledger_{p}.csv" for p in allocsim.POLICIES)):
        assert (out / name).read_bytes() == (workdir / "sim_untracked" / name).read_bytes(), name


def test_simulate_rows_follow_the_listed_order_with_real_last(workdir, data_dir):
    runs = {}
    for listed in ("real,fcfs", "fcfs,real"):
        out = workdir / f"sim_{listed.replace(',', '_')}"
        assert main(["simulate", "--data", str(data_dir), "--policies", listed,
                     "--stream-seed", "0", "--out", str(out)]) == EXIT_OK
        runs[listed] = _read_csv(out / "policy_table.csv")
    assert [row["policy"] for row in runs["fcfs,real"]] == ["fcfs", "real"]
    assert runs["fcfs,real"] == runs["real,fcfs"][::-1]
    assert runs["fcfs,real"][0]["flipped_vs_real"] != ""


def test_simulate_keeps_only_the_true_types_of_real(workdir, data_dir, models_dir, monkeypatch):
    argv = ["simulate", "--data", str(data_dir), "--model", str(models_dir / "model.json"),
            "--stream-seed", "0", "--out"]
    assert main([*argv, str(workdir / "sim_untracked_types")]) == EXIT_OK
    types = []  # (policy, weakref to the true types returned for it)
    run_policy, assigned_true_types = allocsim.run_policy, allocsim.assigned_true_types

    def tracked_run(*args, **kwargs):
        # no policy's true types outlive its run, except real's
        assert [policy for policy, ref in types if ref() is not None] in ([], ["real"])
        return run_policy(*args, **kwargs)

    def tracked_types(dataset, report):
        out = assigned_true_types(dataset, report)
        types.append((report.policy, weakref.ref(out)))
        return out

    monkeypatch.setattr(allocsim, "run_policy", tracked_run)
    monkeypatch.setattr(allocsim, "assigned_true_types", tracked_types)
    out = workdir / "sim_real_types"
    assert main([*argv, str(out)]) == EXIT_OK
    assert sorted(policy for policy, _ in types) == sorted(allocsim.POLICIES)
    for name in ("policy_table.csv", *(f"ledger_{p}.csv" for p in allocsim.POLICIES)):
        assert (out / name).read_bytes() == (
            workdir / "sim_untracked_types" / name).read_bytes(), name


def test_simulate_stream_beyond_int32_is_config_error(workdir, data_dir, monkeypatch, capsys):
    beyond = allocsim.EventStream(donor_arrivals=[(0, 0), (2 ** 31, 1)], n=150)
    monkeypatch.setattr(allocsim, "build_stream", lambda *args, **kwargs: beyond)
    assert main(["simulate", "--data", str(data_dir), "--policies", "fcfs",
                 "--out", str(workdir / "x")]) == EXIT_CONFIG
    assert "int32" in capsys.readouterr().err


def test_simulate_byte_identical_across_runs(workdir, data_dir, models_dir):
    first = workdir / "sim"
    again = workdir / "sim2"
    code = main(["simulate", "--data", str(data_dir),
                 "--model", str(models_dir / "model.json"),
                 "--stream-seed", "0", "--out", str(again)])
    assert code == EXIT_OK
    assert (again / "policy_table.csv").read_bytes() == \
        (first / "policy_table.csv").read_bytes()
    assert (again / "ledger_matching-uf.csv").read_bytes() == \
        (first / "ledger_matching-uf.csv").read_bytes()


def test_each_manifest_lists_exactly_the_files_its_command_wrote(workdir, data_dir, models_dir):
    evaluated, simulated = workdir / "listed_eval", workdir / "listed_sim"
    assert main(["eval", "--data", str(data_dir), "--models", str(models_dir),
                 "--out", str(evaluated)]) == EXIT_OK
    assert main(["simulate", "--data", str(data_dir), "--model", str(models_dir / "model.json"),
                 "--stream-seed", "0", "--out", str(simulated)]) == EXIT_OK
    written = {}
    for out in (data_dir, models_dir, evaluated, simulated):
        manifest = json.loads((out / "manifest.json").read_text())
        written[manifest["command"]] = {path.name for path in out.iterdir()} - {"manifest.json"}
        assert set(manifest["artifacts"]) == written[manifest["command"]], manifest["command"]
    assert written["gen"] == {"dataset.csv", "ground_truth.csv"}
    assert written["eval"] == {"comparison.csv"}
    assert written["simulate"] == {"policy_table.csv",
                                   *(f"ledger_{policy}.csv" for policy in allocsim.POLICIES)}
    assert written["train"] == {"model.json", "baseline_kmeans_linear-per-head.json",
                                "pair_ridge.json", "pair_reg-tree.json", "training_log.csv"}


def test_every_cli_table_is_the_bytes_csv_writer_writes(workdir, data_dir, models_dir,
                                                        monkeypatch):
    """training_log.csv, comparison.csv and policy_table.csv hold the bytes
    that csv.writer writes for the cells the commands hand to the writer."""
    tables = {}
    write_table = datamodel.write_table

    def recording(path, header, n, block):
        write_table(path, header, n, block)
        tables[Path(path).name] = (Path(path), header, list(zip(*block(0, n))))

    monkeypatch.setattr(datamodel, "write_table", recording)
    out = workdir / "tables"
    assert main(["train", "--data", str(data_dir), "--config", str(workdir / "train.json"),
                 "--baselines", "", "--out", str(out / "models")]) == EXIT_OK
    assert main(["eval", "--data", str(data_dir), "--models", str(models_dir),
                 "--out", str(out / "eval")]) == EXIT_OK
    assert main(["simulate", "--data", str(data_dir), "--model", str(models_dir / "model.json"),
                 "--stream-seed", "0", "--out", str(out / "sim")]) == EXIT_OK
    assert set(tables) == {"training_log.csv", "comparison.csv", "policy_table.csv"}
    for path, header, rows in tables.values():
        with open(out / "reference.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *rows])
        assert path.read_bytes() == (out / "reference.csv").read_bytes(), path.name
    cells = {type(cell) for _, _, rows in tables.values() for row in rows for cell in row}
    assert {type(None), bool, str, int} <= cells, cells


@pytest.mark.parametrize("n", [0, 1, numkit.ROW_BLOCK - 1, numkit.ROW_BLOCK,
                               numkit.ROW_BLOCK + 1, 2 * numkit.ROW_BLOCK + 1])
def test_record_tables_are_the_bytes_csv_writer_writes(tmp_path, n):
    fields = ["policy", "n", 'rate, "share"', "flipped", "active"]
    values = [None, True, 0.5, float("nan"), -0.0, np.float64(1 / 3), 'a "b", c', 7]
    records = [{"policy": f"p{i}", "n": i, 'rate, "share"': i / 7,
                "flipped": values[i % len(values)], "active": i % 3 == 0} for i in range(n)]
    cli._write_records(tmp_path / "table.csv", fields, records)
    with open(tmp_path / "reference.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([fields, *([r[f] for f in fields] for r in records)])
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("size", [0, 3 * (1 << 20) + 17], ids=["empty", "several-chunks"])
def test_manifest_hash_is_the_whole_file_sha256(tmp_path, size):
    path = tmp_path / "artifact.bin"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    assert cli._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulate_unknown_policy_is_config_error(workdir, data_dir):
    assert main(["simulate", "--data", str(data_dir), "--policies", "greedy",
                 "--out", str(workdir / "x")]) == EXIT_CONFIG


def test_simulate_matching_without_model_is_config_error(workdir, data_dir):
    assert main(["simulate", "--data", str(data_dir),
                 "--policies", "matching-uf",
                 "--out", str(workdir / "x")]) == EXIT_CONFIG


@pytest.mark.parametrize("policies", ["fcfs,greedy", None, "fcfs,fcfs", "fcfs,bf"],
                         ids=["unknown", "default-without-model", "duplicate", "bf-without-scorer"])
def test_simulate_rejects_a_policy_list_before_writing_anything(workdir, data_dir, policies,
                                                                 capsys):
    data = data_dir
    if policies == "fcfs,bf":
        # data without a gen manifest has no oracle, and there is no model
        data = shutil.copytree(data_dir, workdir / "no_oracle", dirs_exist_ok=True)
        (data / "manifest.json").unlink()
    out = workdir / f"rejected_{policies}"
    argv = ["simulate", "--data", str(data), "--out", str(out)]
    assert main(argv + (["--policies", policies] if policies else [])) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_without_ground_truth_is_data_error(workdir):
    bare = workdir / "bare"
    bare.mkdir()
    (bare / "dataset.csv").write_text("r_a,d_b,outcome\n1.0,2.0,3.0\n" * 1)
    assert main(["simulate", "--data", str(bare),
                 "--out", str(workdir / "x")]) == EXIT_DATA


def _edit_ground_truth(path: Path, case: str) -> str:
    """Break ``ground_truth.csv`` in one way; returns the column named in the error."""
    if case == "non-utf8":
        lines = path.read_bytes().split(b"\n")
        lines[8] = b"\xff" + lines[8]
        path.write_bytes(b"\n".join(lines))
        return "ground_truth.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    header = list(rows[0])
    if case == "missing-column":
        header.remove("untreated_survival")
    elif case == "unparseable-cell":
        rows[7]["potential_2"] = "soon"
    elif case == "type-zero":
        rows[7]["true_donor_type"] = "0"
    elif case == "type-above-k":
        rows[7]["true_donor_type"] = str(sum(c.startswith("potential_") for c in header) + 1)
    elif case == "recipient-type-above-m":
        rows[7]["true_recipient_type"] = "3"  # the preset has 2 recipient types
    else:
        rows[7]["untreated_survival"] = "nan"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    return {"unparseable-cell": "potential_2",
            "type-zero": "true_donor_type",
            "type-above-k": "true_donor_type",
            "recipient-type-above-m": "true_recipient_type"}.get(case, "untreated_survival")


@pytest.mark.parametrize("case", ["missing-column", "unparseable-cell", "nan-survival",
                                  "type-zero", "type-above-k", "non-utf8"])
def test_simulate_malformed_ground_truth_is_data_error(workdir, data_dir, case, capsys):
    bad = shutil.copytree(data_dir, workdir / f"bad_truth_{case}")
    column = _edit_ground_truth(bad / "ground_truth.csv", case)
    assert main(["simulate", "--data", str(bad), "--policies", "fcfs",
                 "--out", str(workdir / "x")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert column in err
    if case not in ("missing-column", "non-utf8"):
        assert "row 7" in err


def test_simulate_recipient_type_outside_outcome_means_is_data_error(workdir, data_dir, capsys):
    # the manifest's outcome_means cover 2 recipient types; the oracle
    # scorer checks every row when it is built, not when a row is scored
    bad = shutil.copytree(data_dir, workdir / "bad_truth_recipient_type")
    _edit_ground_truth(bad / "ground_truth.csv", "recipient-type-above-m")
    assert main(["simulate", "--data", str(bad), "--policies", "uf",
                 "--out", str(workdir / "x")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "row 7" in err and "true_recipient_type" in err


@pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"command": "gen"}', "nan-mean"])
def test_simulate_malformed_data_manifest_is_data_error(workdir, data_dir, text):
    bad = shutil.copytree(data_dir, workdir / f"bad_manifest_{len(text)}")
    if text == "nan-mean":  # the real manifest with one outcome mean not finite
        manifest = json.loads((bad / "manifest.json").read_text())
        manifest["config"]["outcome_means"][0][0] = float("nan")
        text = json.dumps(manifest)
    (bad / "manifest.json").write_text(text)
    assert main(["simulate", "--data", str(bad), "--policies", "uf",
                 "--out", str(workdir / "x")]) == EXIT_DATA


def test_simulate_reads_the_data_manifest_only_for_uf_or_bf(workdir, data_dir, models_dir,
                                                            monkeypatch):
    # fcfs and matching-uf never read the oracle, so its broken manifest does not matter
    bad = shutil.copytree(data_dir, workdir / "bad_manifest_unread")
    (bad / "manifest.json").write_text("{not json")

    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle scorer was built")

    monkeypatch.setattr(allocsim, "oracle_mean_scorer", no_oracle)
    assert main(["simulate", "--data", str(bad), "--model", str(models_dir / "model.json"),
                 "--policies", "fcfs,matching-uf", "--stream-seed", "0",
                 "--out", str(workdir / "sim_unread_manifest")]) == EXIT_OK


def test_eval_on_data_of_another_width_is_data_error(workdir, models_dir):
    config = workdir / "wide.json"
    config.write_text(json.dumps({"recipient_means": [[-2.0, 0.0, 1.0], [2.0, 0.0, 1.0]],
                                  "recipient_vars": [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]}))
    wide = workdir / "wide_data"
    assert main(["gen", "--config", str(config), "--n", "60", "--out", str(wide)]) == EXIT_OK
    assert main(["eval", "--data", str(wide), "--models", str(models_dir),
                 "--out", str(workdir / "x")]) == EXIT_DATA


def test_internal_value_error_is_not_reported_as_a_user_error(workdir, data_dir, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(allocsim, "run_policy", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["simulate", "--data", str(data_dir), "--policies", "fcfs",
              "--out", str(workdir / "x")])
