"""Smoke test of scripts/seed_sweep.py: its columns, its rows against
``metrics.comparison_row`` and the model's active clusters, and the error
row of a failed fit."""

import csv
import importlib.util
import io
from pathlib import Path

import pytest

from organmatch import datamodel, matchrep, metrics, synthgen
from organmatch.numkit import TrainingDivergedError

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "seed_sweep.py"


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("seed_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(sweep, capsys, argv) -> list[dict]:
    assert sweep.main(argv) == 0
    reader = csv.DictReader(io.StringIO(capsys.readouterr().out))
    rows = list(reader)
    assert reader.fieldnames == sweep.FIELDS
    return rows


def test_rows_are_comparison_rows(sweep, capsys, monkeypatch):
    trained = {}
    train_joint = matchrep.train_joint

    def keep(*args):
        model, log = train_joint(*args)
        trained[args[3].beta] = model
        return model, log

    monkeypatch.setattr(matchrep, "train_joint", keep)
    rows = _run(sweep, capsys, ["--seeds", "3", "--betas", "0,100", "--n", "400"])
    assert [(r["seed"], r["beta"], r["model"]) for r in rows] == [
        ("3", "0.0", "matchrep"), ("3", "100.0", "matchrep"),
        ("3", "", "kmeans/multihead-nn"), ("3", "", "em/multihead-nn")]
    assert all(r["error"] == "" and r["ari_coarse"] != "" for r in rows)
    assert [r["rep_kl_heldout"] == "" for r in rows] == [False, False, True, True]

    dataset = synthgen.sample_dataset(synthgen.paper_preset(n=400, seed=3))
    indices = datamodel.split(dataset, seed=3)
    val = datamodel.normalize_fit_transform(dataset, indices).subset(indices.validation)
    model = trained[100.0]
    preds = matchrep.predict_potential_batch(model, val.recipients)
    expected = metrics.comparison_row(
        "matchrep", preds, matchrep.donor_type_batch(model, val.donors)[0], val.outcomes,
        val.true_potentials, val.true_donor_type, matchrep.best_donor_types(model, preds))
    assert {key: rows[1][key] for key in expected} == {
        key: "" if value is None else str(value) for key, value in expected.items()}
    assert rows[1]["n_active"] == str(int(model.active.sum()))


def test_failed_fit_gives_an_error_row(sweep, capsys, monkeypatch):
    train_joint = matchrep.train_joint

    def diverge_at_beta_0(*args):
        if args[3].beta == 0.0:
            raise TrainingDivergedError("L_f is nan")
        return train_joint(*args)

    monkeypatch.setattr(matchrep, "train_joint", diverge_at_beta_0)
    rows = _run(sweep, capsys, ["--seeds", "3", "--betas", "0,100", "--n", "400"])
    failed, rest = rows[0], rows[1:]
    assert (failed["beta"], failed["model"]) == ("0.0", "matchrep")
    assert failed["error"] == repr(TrainingDivergedError("L_f is nan"))
    assert all(failed[key] == "" for key in sweep.FIELDS
               if key not in ("seed", "beta", "model", "error"))
    assert [r["model"] for r in rest] == ["matchrep", "kmeans/multihead-nn", "em/multihead-nn"]
    assert all(r["error"] == "" and r["eps_f"] != "" for r in rest)
