"""Ingestion fuzz: random edits to every file the CLI reads end with exit
0, 2 or 3, never with a traceback.

One tiny ``gen`` directory and one tiny training run (the joint model, a
``kmeans/linear-per-head`` baseline and the ``ridge`` and ``reg-tree`` pair
regressors) are made once per module. Each example copies the file it
targets, applies one random edit and runs the commands that read it:
``dataset.csv`` and ``ground_truth.csv`` through ``eval`` and ``simulate
--policies fcfs,uf``, ``model.json`` through the same two, a baseline or
pair-regressor file through ``eval``, a ``SimConfig`` JSON through
``simulate --sim-config`` and a ``SyntheticConfig`` JSON through ``gen
--config``.
"""

import csv
import io
import json
import math
import shutil
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from netsize import SMALL_NETS, matchrep_constants
from organmatch import allocsim, synthgen
from organmatch.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main

# trained with the SMALL_NETS networks
TRAIN_CONFIG = {"k": 3, "pretrain_epochs": 5, "joint_epochs": 8, "batch_size": 32, "seed": 0}
CELL_VALUES = ("text", "", "nan", "inf")
JSON_VALUES = ("text", "", math.nan, math.inf)
OUT_OF_RANGE_INTS = (999, -1)
BASELINE_FILES = ("baseline_kmeans_linear-per-head.json", "pair_ridge.json",
                  "pair_reg-tree.json")
MODEL_FILES = ("model.json", *BASELINE_FILES)
TARGETS = ("dataset.csv", "ground_truth.csv", "sim.json", "synth.json", *MODEL_FILES)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data"
    assert main(["gen", "--n", "60", "--seed", "0", "--out", str(data)]) == EXIT_OK
    config = root / "train.json"
    config.write_text(json.dumps(TRAIN_CONFIG))
    with matchrep_constants(**SMALL_NETS):
        assert main(["train", "--data", str(data), "--config", str(config),
                     "--baselines", "kmeans/linear-per-head",
                     "--pair-regressors", "ridge,reg-tree",
                     "--out", str(root / "models")]) == EXIT_OK
    (root / "sim.json").write_text(json.dumps(asdict(allocsim.SimConfig())))
    (root / "synth.json").write_text(json.dumps(asdict(synthgen.paper_preset())))
    return root


# ---------------------------------------------------------------------------
# Edits
# ---------------------------------------------------------------------------


def _truncate(draw, raw: bytes) -> bytes:
    return raw[:draw(st.integers(0, len(raw)))]


def _splice(draw, raw: bytes) -> bytes:
    at = draw(st.integers(0, len(raw)))
    cut = draw(st.integers(0, 8))
    return raw[:at] + draw(st.binary(min_size=1, max_size=8)) + raw[at + cut:]


def _edit_csv(draw, raw: bytes) -> bytes:
    kind = draw(st.sampled_from(("cell", "drop-column", "duplicate-column",
                                 "truncate", "splice")))
    if kind == "truncate":
        return _truncate(draw, raw)
    if kind == "splice":
        return _splice(draw, raw)
    rows = list(csv.reader(io.StringIO(raw.decode("utf-8"))))
    col = draw(st.integers(0, len(rows[0]) - 1))
    if kind == "cell":
        rows[draw(st.integers(1, len(rows) - 1))][col] = draw(st.sampled_from(CELL_VALUES))
    elif kind == "drop-column":
        rows = [row[:col] + row[col + 1:] for row in rows]
    else:
        at = draw(st.integers(0, len(rows[0])))
        rows = [row[:at] + [row[col]] + row[at:] for row in rows]
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue().encode("utf-8")


def _nodes(value, path=()):
    """(path, value) for every node of a JSON document, the root included."""
    yield path, value
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _set(doc, path, value) -> None:
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _edit_json(draw, raw: bytes) -> bytes:
    kind = draw(st.sampled_from(("cell", "int", "drop-column", "drop-element",
                                 "duplicate-column", "truncate", "splice")))
    if kind == "truncate":
        return _truncate(draw, raw)
    if kind == "splice":
        return _splice(draw, raw)
    doc = json.loads(raw)
    nodes = list(_nodes(doc))
    ints = [path for path, value in nodes if path and type(value) is int]
    lists = [value for _, value in nodes if isinstance(value, list) and value]
    if kind == "cell":
        leaves = [path for path, value in nodes
                  if path and not isinstance(value, (dict, list))]
        _set(doc, draw(st.sampled_from(leaves)), draw(st.sampled_from(JSON_VALUES)))
    elif kind == "int" and ints:
        _set(doc, draw(st.sampled_from(ints)), draw(st.sampled_from(OUT_OF_RANGE_INTS)))
    elif kind == "drop-element" and lists:
        items = draw(st.sampled_from(lists))
        del items[draw(st.integers(0, len(items) - 1))]
    elif kind == "duplicate-column" and lists:
        items = draw(st.sampled_from(lists))
        at = draw(st.integers(0, len(items) - 1))
        items.insert(at, items[at])
    else:
        containers = [value for _, value in nodes if isinstance(value, (dict, list)) and value]
        container = draw(st.sampled_from(containers))
        del container[draw(st.sampled_from(list(container) if isinstance(container, dict)
                                           else range(len(container))))]
    return json.dumps(doc).encode("utf-8")


# ---------------------------------------------------------------------------
# The property
# ---------------------------------------------------------------------------


def _run(base, target: str, case) -> list[int]:
    data, model = base / "data", base / "models" / "model.json"
    out = str(case / "out")
    if target in ("dataset.csv", "ground_truth.csv"):
        data = case
    elif target == "model.json":
        model = case / "model.json"
    elif target == "synth.json":
        return [main(["gen", "--config", str(case / target), "--n", "60", "--out", out])]
    elif target in BASELINE_FILES:
        shutil.copy(model, case / "model.json")
        return [main(["eval", "--data", str(data), "--models", str(case), "--out", out])]
    models = model.parent
    simulate = ["simulate", "--data", str(data), "--model", str(model),
                "--policies", "fcfs,uf", "--out", out]
    if target == "sim.json":
        return [main(simulate + ["--sim-config", str(case / target)])]
    return [main(["eval", "--data", str(data), "--models", str(models), "--out", out]),
            main(simulate)]


@settings(max_examples=300, deadline=None)
@given(target=st.sampled_from(TARGETS), data=st.data())
def test_random_edits_exit_with_a_documented_code(base, target, data):
    case = base / "case"
    shutil.rmtree(case, ignore_errors=True)
    shutil.copytree(base / "data", case)
    source = (base / "models" / target if target in MODEL_FILES
              else base / target if target.endswith(".json") else base / "data" / target)
    edit = _edit_json if target.endswith(".json") else _edit_csv
    (case / target).write_bytes(edit(data.draw, source.read_bytes()))
    for code in _run(base, target, case):
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA)
