"""Ingestion, splitting, and normalization tests."""

import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from organmatch import datamodel
from organmatch.datamodel import (
    ConfigError,
    Dataset,
    IngestionError,
    SchemaConfig,
    apply_normalization,
    attach_ground_truth_csv,
    load_csv,
    normalization_from_dict,
    normalization_to_dict,
    normalize_fit_transform,
    split,
    write_csv,
    write_ground_truth_csv,
    write_table,
)
from organmatch.numkit import ROW_BLOCK, InsufficientDataError, rng_stream
from organmatch.synthgen import paper_preset, sample_dataset


def make_dataset(n=20, d_r=3, d_o=2, seed=0) -> Dataset:
    rng = rng_stream(seed, "fixture")
    return Dataset(
        recipients=rng.normal(size=(n, d_r)),
        donors=rng.normal(size=(n, d_o)),
        outcomes=rng.uniform(100, 1000, size=n),
        recipient_names=[f"x{i}" for i in range(d_r)],
        donor_names=[f"x{i}" for i in range(d_o)],
    )


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------


def test_split_10_records_gives_9_1():
    ds = make_dataset(n=10)
    idx = split(ds, seed=0)
    assert len(idx.train) == 9 and len(idx.validation) == 1


def test_split_deterministic_and_partition():
    ds = make_dataset(n=57)
    a = split(ds, seed=4)
    b = split(ds, seed=4)
    np.testing.assert_array_equal(a.train, b.train)
    np.testing.assert_array_equal(a.validation, b.validation)
    union = np.concatenate([a.train, a.validation])
    assert len(set(union.tolist())) == 57


def test_split_too_small_rejected():
    with pytest.raises(InsufficientDataError):
        split(make_dataset(n=9))


def test_split_validation_frequency_over_seeds():
    ds = make_dataset(n=50)
    hits = np.zeros(50)
    n_seeds = 1000
    for seed in range(n_seeds):
        hits[split(ds, seed=seed).validation] += 1
    freq = hits / n_seeds
    assert np.all(np.abs(freq - 0.10) < 0.03)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_train_stats_only():
    ds = make_dataset(n=40)
    idx = split(ds, seed=1)
    normed = normalize_fit_transform(ds, idx)
    train_rec = normed.recipients[idx.train]
    np.testing.assert_allclose(train_rec.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(train_rec.var(axis=0), 1.0, atol=1e-6)
    # validation rows use train statistics, not their own
    raw_val = ds.recipients[idx.validation]
    expected = (raw_val - ds.recipients[idx.train].mean(axis=0)) \
        / ds.recipients[idx.train].std(axis=0)
    np.testing.assert_allclose(normed.recipients[idx.validation], expected, rtol=1e-12)


def test_normalize_constant_column_scale_one():
    ds = make_dataset(n=20)
    ds.recipients[:, 0] = 7.0
    with pytest.warns(UserWarning):
        normed = normalize_fit_transform(ds, split(ds, seed=0))
    np.testing.assert_allclose(normed.recipients[:, 0], 0.0, atol=1e-12)


def test_normalize_outcomes_untouched():
    ds = make_dataset(n=30)
    normed = normalize_fit_transform(ds, split(ds, seed=0))
    np.testing.assert_array_equal(normed.outcomes, ds.outcomes)


def test_apply_normalization_round_trips_through_dict():
    ds = make_dataset(n=30)
    normed = normalize_fit_transform(ds, split(ds, seed=0))
    doc = normalization_to_dict(normed.normalization)
    again = apply_normalization(ds, normalization_from_dict(doc))
    np.testing.assert_allclose(again.recipients, normed.recipients)
    np.testing.assert_allclose(again.donors, normed.donors)


@pytest.mark.parametrize("name, value", [("recipient_mean", np.nan), ("donor_mean", np.inf),
                                         ("recipient_scale", -1.0), ("donor_scale", 0.0)])
def test_normalization_from_dict_refuses_bad_statistics(name, value):
    ds = make_dataset(n=30)
    doc = normalization_to_dict(normalize_fit_transform(ds, split(ds, seed=0)).normalization)
    doc[name][0] = value
    with pytest.raises(IngestionError):
        normalization_from_dict(doc)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


SCHEMA = SchemaConfig(recipient_columns=["age", "sex"], donor_columns=["dage"],
                      outcome_column="days", categorical={"sex": ["f", "m"]})


def _write(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    return path


def test_load_csv_two_rows(tmp_path):
    path = _write(tmp_path, "age,sex,dage,days\n50,f,40,365\n60,m,30,200\n")
    ds = load_csv(path, SCHEMA)
    assert len(ds) == 2
    assert ds.d_r == 3  # age + one-hot(sex) over 2 categories
    assert ds.d_o == 1
    np.testing.assert_allclose(ds.recipients[0], [50.0, 1.0, 0.0])
    np.testing.assert_allclose(ds.outcomes, [365.0, 200.0])


def test_load_csv_missing_value_imputed_with_indicator(tmp_path):
    path = _write(tmp_path, "age,sex,dage,days\n50,f,40,365\n,f,30,200\n70,m,20,100\n")
    ds = load_csv(path, SCHEMA)
    assert "age__missing" in ds.recipient_names
    col = ds.recipient_names.index("age")
    flag = ds.recipient_names.index("age__missing")
    assert ds.recipients[1, col] == pytest.approx(60.0)  # mean of 50, 70
    np.testing.assert_allclose(ds.recipients[:, flag], [0.0, 1.0, 0.0])


def test_load_csv_unknown_column_rejected(tmp_path):
    path = _write(tmp_path, "age,sex,days\n50,f,365\n")
    with pytest.raises(IngestionError):
        load_csv(path, SCHEMA)


def test_load_csv_unparseable_cell_names_row_and_column(tmp_path):
    path = _write(tmp_path, "age,sex,dage,days\nfifty,f,40,365\n")
    with pytest.raises(IngestionError, match="age"):
        load_csv(path, SCHEMA)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_load_csv_non_finite_cell_names_row_and_column(tmp_path, cell):
    path = _write(tmp_path, f"age,sex,dage,days\n50,f,40,365\n60,m,{cell},200\n")
    with pytest.raises(IngestionError, match=r"row 1, column 'dage': non-finite"):
        load_csv(path, SCHEMA)


def test_load_csv_undeclared_category_rejected(tmp_path):
    path = _write(tmp_path, "age,sex,dage,days\n50,x,40,365\n")
    with pytest.raises(IngestionError, match="sex"):
        load_csv(path, SCHEMA)


def test_csv_round_trip(tmp_path):
    ds = make_dataset(n=12)
    path = tmp_path / "round.csv"
    write_csv(ds, path)
    schema = SchemaConfig(
        recipient_columns=[f"r_x{i}" for i in range(ds.d_r)],
        donor_columns=[f"d_x{i}" for i in range(ds.d_o)],
        outcome_column="outcome",
    )
    back = load_csv(path, schema)
    np.testing.assert_array_equal(back.recipients, ds.recipients)
    np.testing.assert_array_equal(back.donors, ds.donors)
    np.testing.assert_array_equal(back.outcomes, ds.outcomes)


def test_ground_truth_csv_round_trip(tmp_path):
    rng = rng_stream(3, "gt")
    ds = make_dataset(n=8)
    ds.true_potentials = rng.uniform(100, 1000, size=(8, 3))
    ds.untreated_survival = rng.uniform(10, 500, size=8)
    ds.true_recipient_type = rng.integers(1, 3, size=8)
    ds.true_donor_type = rng.integers(1, 4, size=8)
    path = tmp_path / "gt.csv"
    write_ground_truth_csv(ds, path)
    stripped = make_dataset(n=8)
    back = attach_ground_truth_csv(stripped, path)
    np.testing.assert_array_equal(back.true_potentials, ds.true_potentials)
    np.testing.assert_array_equal(back.untreated_survival, ds.untreated_survival)
    np.testing.assert_array_equal(back.true_recipient_type, ds.true_recipient_type)
    np.testing.assert_array_equal(back.true_donor_type, ds.true_donor_type)


def test_load_csv_without_schema_reads_the_written_layout(tmp_path):
    ds = make_dataset(n=5)
    path = tmp_path / "round.csv"
    write_csv(ds, path)
    back = load_csv(path)
    assert back.recipient_names == [f"r_x{i}" for i in range(ds.d_r)]
    np.testing.assert_array_equal(back.donors, ds.donors)
    with pytest.raises(IngestionError, match="does not look like a generated dataset"):
        load_csv(_write(tmp_path, "age,sex,dage,days\n50,f,40,365\n"))


SCHEMA_EDITS = {  # case: the SchemaConfig fields that replace SCHEMA's
    "outcome-as-feature": dict(recipient_columns=["age", "days"]),
    "no-recipient-columns": dict(recipient_columns=[]),
    "no-donor-columns": dict(donor_columns=[]),
    "string-not-list": dict(recipient_columns="age"),
    "non-str-column": dict(donor_columns=[3]),
    "non-str-outcome": dict(outcome_column=None),
    "column-twice": dict(recipient_columns=["age", "age"]),
    "column-in-two-roles": dict(donor_columns=["age"]),
    "categorical-outcome": dict(categorical={"days": ["a", "b"]}),
    "categorical-unknown-column": dict(categorical={"sex": ["f", "m"], "bmi": ["lo", "hi"]}),
    "empty-categories": dict(categorical={"sex": []}),
    "repeated-category": dict(categorical={"sex": ["f", "m", "f"]}),
    "categories-not-a-list": dict(categorical={"sex": "fm"}),
    "categorical-not-a-dict": dict(categorical=[("sex", ["f", "m"])]),
}


@pytest.mark.parametrize("case", SCHEMA_EDITS)
def test_schema_refuses_columns_that_would_corrupt_features(case):
    declared = {name: getattr(SCHEMA, name) for name in
               ("recipient_columns", "donor_columns", "outcome_column", "categorical")}
    with pytest.raises(ConfigError):
        SchemaConfig(**{**declared, **SCHEMA_EDITS[case]})


def test_schema_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        SCHEMA.recipient_columns = ["age", "days"]


@pytest.mark.parametrize("header", ["r_x,r_x,d_y,outcome", "r_x,d_y,d_y,outcome"])
def test_load_csv_without_schema_refuses_a_repeated_feature_column(tmp_path, header):
    path = _write(tmp_path, f"{header}\n1,2,3,4\n5,6,7,8\n")
    with pytest.raises(IngestionError, match="does not look like a generated dataset"):
        load_csv(path)


def test_load_csv_unparseable_outcome_names_row_and_column(tmp_path):
    path = _write(tmp_path, "age,sex,dage,days\n50,f,40,365\n60,m,30,soon\n")
    with pytest.raises(IngestionError, match=r"row 1, column 'days': unparseable cell 'soon'"):
        load_csv(path, SCHEMA)


@pytest.mark.parametrize("raw", [b"", b"age,sex,dage,days\n",
                                 b"age,sex,dage,days\n50,f,\xff,365\n"],
                         ids=["empty", "header-only", "non-utf8"])
def test_unreadable_csv_is_ingestion_error(tmp_path, raw):
    path = tmp_path / "data.csv"
    path.write_bytes(raw)
    with pytest.raises(IngestionError, match="empty file|unreadable CSV"):
        load_csv(path, SCHEMA)
    with pytest.raises(IngestionError, match="empty file|unreadable CSV"):
        attach_ground_truth_csv(make_dataset(n=1), path)


# ---------------------------------------------------------------------------
# Reader: the block-wise readers against the column-wise, per-row ones they replaced
# ---------------------------------------------------------------------------


def _dictreader_columns(path):
    """The reader of the replaced readers: one csv.DictReader dict per row."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header, rows = reader.fieldnames, list(reader)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise IngestionError(f"unreadable CSV file {path}: {exc}") from None
    if not header or not rows:
        raise IngestionError(f"empty file {path}")
    return header, len(rows), {col: tuple(row[col] for row in rows) for col in header}


def _per_cell_parse(cells, col, kind):
    """The parser of the replaced readers: one cell at a time."""
    out = np.zeros(len(cells), dtype=kind)
    for i, cell in enumerate(cells):
        try:
            out[i] = kind(cell)
        except (TypeError, ValueError, OverflowError):
            raise IngestionError(f"row {i}, column {col!r}: unparseable cell {cell!r}") from None
    bad = np.nonzero(~np.isfinite(out))[0]
    if bad.size:
        raise IngestionError(f"row {bad[0]}, column {col!r}: non-finite cell {cells[bad[0]]!r}")
    return out


def _reference_encode_block(columns, n, block, schema):
    """The column-wise _encode_block of the replaced load_csv."""
    names, feats = [], []
    for col in block:
        raw = columns[col]
        if col in schema.categorical:
            cats = schema.categorical[col]
            onehot = np.zeros((n, len(cats)))
            for i, v in enumerate(raw):
                if v not in cats:
                    raise IngestionError(f"row {i}, column {col!r}: undeclared category {v!r}")
                onehot[i, cats.index(v)] = 1.0
            feats.append(onehot)
            names.extend(f"{col}={c}" for c in cats)
        else:
            missing = [v is None or v == "" for v in raw]
            if any(missing):
                if all(missing):
                    raise IngestionError(f"column {col!r} has no observed values")
                vals = _per_cell_parse([("0" if m else v) for v, m in zip(raw, missing)],
                                       col, float)
                flags = np.array(missing, dtype=float)
                vals = np.where(flags > 0, vals[flags == 0].mean(), vals)
                feats += [vals[:, None], flags[:, None]]
                names += [col, f"{col}__missing"]
            else:
                feats.append(_per_cell_parse(raw, col, float)[:, None])
                names.append(col)
    return np.hstack(feats) if feats else np.zeros((n, 0)), names


def _reference_load_csv(path, schema=None):
    """The column-wise load_csv that the block-wise one replaced."""
    header, n, columns = _dictreader_columns(path)
    if schema is None:
        try:
            schema = SchemaConfig(recipient_columns=[c for c in header if c.startswith("r_")],
                                  donor_columns=[c for c in header if c.startswith("d_")],
                                  outcome_column="outcome")
        except ConfigError as exc:
            raise IngestionError(f"{path} does not look like a generated dataset "
                                 f"(r_*/d_*/outcome columns): {exc}") from None
    needed = set(schema.recipient_columns) | set(schema.donor_columns) | {schema.outcome_column}
    missing_cols = needed - set(header)
    if missing_cols:
        raise IngestionError(f"unknown column(s): {sorted(missing_cols)}")
    recipients, r_names = _reference_encode_block(columns, n, schema.recipient_columns, schema)
    donors, d_names = _reference_encode_block(columns, n, schema.donor_columns, schema)
    outcomes = _per_cell_parse(columns[schema.outcome_column], schema.outcome_column, float)
    return Dataset(recipients, donors, outcomes, r_names, d_names)


def _reference_attach_ground_truth_csv(dataset, path):
    """The column-wise attach_ground_truth_csv that the block-wise one replaced."""
    header, n, columns = _dictreader_columns(path)
    if n != len(dataset):
        raise IngestionError("ground-truth file and dataset disagree in length")
    pot_cols = sorted((c for c in header
                       if c.startswith("potential_") and c[len("potential_"):].isdigit()),
                      key=lambda c: int(c[len("potential_"):]))
    if not pot_cols:
        raise IngestionError("ground-truth file has no potential_* columns")
    missing_cols = {"true_recipient_type", "true_donor_type", "untreated_survival"} - set(header)
    if missing_cols:
        raise IngestionError(f"ground-truth file lacks column(s): {sorted(missing_cols)}")
    types = {col: _per_cell_parse(columns[col], col, int)
             for col in ("true_recipient_type", "true_donor_type")}
    for col, vals in types.items():
        bad = np.nonzero(vals < 1)[0]
        if bad.size:
            raise IngestionError(
                f"row {bad[0]}, column {col!r}: type {vals[bad[0]]} is not 1-based")
    above = np.nonzero(types["true_donor_type"] > len(pot_cols))[0]
    if above.size:
        raise IngestionError(
            f"row {above[0]}, column 'true_donor_type': type "
            f"{types['true_donor_type'][above[0]]} exceeds the {len(pot_cols)} potential_* columns")
    return dataclasses.replace(
        dataset,
        true_potentials=np.column_stack([_per_cell_parse(columns[c], c, float)
                                         for c in pot_cols]),
        untreated_survival=_per_cell_parse(columns["untreated_survival"],
                                           "untreated_survival", float),
        true_recipient_type=types["true_recipient_type"],
        true_donor_type=types["true_donor_type"])


def _loaded(load, *args):
    """Every array and name list ``load(*args)`` returns, as bytes, or its
    IngestionError text."""
    try:
        ds = load(*args)
    except IngestionError as exc:
        return str(exc)
    return {name: (value.dtype.str, value.shape, value.tobytes())
            if isinstance(value, np.ndarray) else value
            for name, value in vars(ds).items()}


def _assert_reader_parity(monkeypatch, load, reference, *args):
    """``load(*args)`` returns what ``reference(*args)`` returns, in blocks of
    ``ROW_BLOCK`` rows and in blocks of 2 rows; returns that."""
    want = _loaded(reference, *args)
    assert _loaded(load, *args) == want
    with monkeypatch.context() as patched:
        patched.setattr(datamodel, "ROW_BLOCK", 2)
        assert _loaded(load, *args) == want
    return want


PARITY_SCHEMA = SchemaConfig(recipient_columns=["age", "sex"], donor_columns=["dage"],
                             outcome_column="days", categorical={"sex": ["f", "m, x"]})
TRUTH_HEADER = "true_recipient_type,true_donor_type,potential_1,potential_2,untreated_survival\n"


@pytest.mark.parametrize("text, loads", [
    ("age,sex,dage,days\n\n50,f,40,365\n\n60,f,30,200\n\n", True),
    ("days,age,sex,dage\n365,50,f,40\n200,,f\n", True),
    ("age,sex,dage,days\n50,f,40,365\n60,f,30\n", False),
    ("age,sex,dage,days\n50,f,40,365,extra,more\n60,f,30,200\n", True),
    ("age,sex,dage,days,age\n50,f,40,365,70\n60,f,30,200\n55,f,20,100,90\n", True),
    ('age,sex,dage,days\r\n50,"m, x",40,365\r\n60,f,"30",200\r\n', True),
    ("age,sex,dage,days\n50,m,40,365\n", False),
    ("age,sex,dage,days\n50,f,40,365\n60,f,nan,200\n", False),
    ("age,sex,dage,days\n50,f,forty,365\n", False),
    ("age,sex,dage,days\n", False),
    ("age,sex,dage,days\n\n\n", False),
    ("age,sex,dage,days\n,f,40,365\n60,f,,200\n\n70,\"m, x\",30,100\n80,f,20,50\n", True),
    ("age,sex,dage,days\n50,f,nan,365\n60,f,40,200\n70,f,x,100\n", False),
    ("age,sex,dage,days\n50,f,forty,365\n60,f,40,200\n70,f,40,100\nold,f,40,1\n", False),
    ("age,sex,dage,days\n50,f,40,inf\n60,f,40,200\n70,x,40,100\n", False),
], ids=["blank-lines", "short-row-missing-cell", "short-row-outcome", "extra-cells",
        "repeated-header", "crlf-quoted-comma", "undeclared-category", "non-finite",
        "unparseable", "header-only", "header-and-blank-lines", "imputed-across-blocks",
        "non-finite-before-unparseable", "bad-cells-in-two-columns-and-blocks",
        "feature-before-outcome"])
def test_load_csv_matches_the_dictreader_reference(tmp_path, monkeypatch, text, loads):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    got = _assert_reader_parity(monkeypatch, load_csv, _reference_load_csv, path, PARITY_SCHEMA)
    assert isinstance(got, dict) == loads, got


@pytest.mark.parametrize("rows, loads", [
    ("1,2,500.5,600.25,30.0\n\n2,1,400.0,300.0,12.5\n", True),
    ("1,2,500.5,600.25,30.0\r\n2,1,400.0,300.0,12.5,9\r\n", True),
    ("1,99999999999999999999,500.5,600.25,30.0\n2,1,400.0,300.0,12.5\n", False),
    ("1,2,500.5,600.25,30.0\n-99999999999999999999,1,400.0,300.0,12.5\n", False),
    ("1,2,500.5,600.25,30.0\n2,1.0,400.0,300.0,12.5\n", False),
    ("1,2,500.5,600.25,30.0\n2,1,400.0\n", False),
    ("1,2,500.5,600.25,30.0\n2,1,nan,300.0,12.5\n1,1,x,300.0,12.5\n", False),
    ("1,2,500.5,600.25,30.0\n2,1,400.0,300.0,x\n0,1,1.0,1.0,1.0\n", False),
], ids=["blank-line", "crlf-extra-cell", "int-above-int64", "int-below-int64",
        "float-type", "short-row", "non-finite-before-unparseable", "type-check-before-cells"])
def test_attach_ground_truth_csv_matches_the_dictreader_reference(tmp_path, monkeypatch,
                                                                   rows, loads):
    path = tmp_path / "truth.csv"
    path.write_bytes((TRUTH_HEADER + rows).encode("utf-8"))
    n = len(list(filter(None, rows.splitlines())))
    got = _assert_reader_parity(monkeypatch, attach_ground_truth_csv,
                                _reference_attach_ground_truth_csv, make_dataset(n=n), path)
    assert isinstance(got, dict) == loads, got


def test_readers_peak_memory_follows_their_arrays_not_their_text(tmp_path):
    ds = sample_dataset(paper_preset(n=30_000, seed=1))
    data, truth = tmp_path / "dataset.csv", tmp_path / "ground_truth.csv"
    write_csv(ds, data)
    write_ground_truth_csv(ds, truth)
    base = Dataset(ds.recipients, ds.donors, ds.outcomes, ds.recipient_names, ds.donor_names)
    reads = {"load_csv": (lambda: load_csv(data), ("recipients", "donors", "outcomes")),
             "attach_ground_truth_csv": (lambda: attach_ground_truth_csv(base, truth),
                                         ("true_potentials", "untreated_survival",
                                          "true_recipient_type", "true_donor_type"))}
    for name, (read, returned) in reads.items():
        tracemalloc.start()
        try:
            got = read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = sum(getattr(got, field).nbytes for field in returned)
        # holding every cell's text at once peaked at some 11-14 times the arrays
        assert peak <= 4 * arrays, (name, peak, arrays)


PARITY_CELLS = st.sampled_from(["1", "2.5", "-3", "", "nan", "1e999", "x", "f", "m, x",
                                "99999999999999999999"])


@settings(max_examples=100, deadline=None)
@given(header=st.lists(st.sampled_from(["age", "sex", "dage", "days", "other"]),
                       min_size=1, max_size=6),
       rows=st.lists(st.lists(PARITY_CELLS, max_size=7), max_size=6),
       line_end=st.sampled_from(["\n", "\r\n"]))
def test_random_tables_read_as_the_dictreader_reference_reads_them(tmp_path_factory,
                                                                   header, rows, line_end):
    path = tmp_path_factory.mktemp("parity") / "data.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator=line_end).writerows([header, *rows])
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_reader_parity(monkeypatch, load_csv, _reference_load_csv, path, PARITY_SCHEMA)


# ---------------------------------------------------------------------------
# Writers: byte-exact against the per-row repr(float(v)) writers they replaced
# ---------------------------------------------------------------------------


def _reference_write_csv(dataset, path):
    header = ([f"r_{n}" for n in dataset.recipient_names]
              + [f"d_{n}" for n in dataset.donor_names] + ["outcome"])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(dataset)):
            row = [repr(float(v)) for v in dataset.recipients[i]]
            row += [repr(float(v)) for v in dataset.donors[i]]
            row.append(repr(float(dataset.outcomes[i])))
            writer.writerow(row)


def _reference_write_ground_truth_csv(dataset, path):
    k = dataset.true_potentials.shape[1]
    header = (["true_recipient_type", "true_donor_type"]
              + [f"potential_{j + 1}" for j in range(k)] + ["untreated_survival"])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(dataset)):
            row = [int(dataset.true_recipient_type[i]), int(dataset.true_donor_type[i])]
            row += [repr(float(v)) for v in dataset.true_potentials[i]]
            row.append(repr(float(dataset.untreated_survival[i])))
            writer.writerow(row)


EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                     1e308, -1e308, 1.7976931348623157e308, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def datasets_with_truth(draw):
    n = draw(st.integers(0, 6))
    d_r, d_o, k = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def block(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(EDGE_FLOATS, min_size=size, max_size=size)),
                        dtype=float).reshape(shape)

    types = st.lists(st.integers(1, k), min_size=n, max_size=n)
    return Dataset(
        recipients=block(n, d_r), donors=block(n, d_o), outcomes=block(n),
        recipient_names=[f"x{i}" for i in range(d_r)],
        donor_names=[f"x{i}" for i in range(d_o)],
        true_potentials=block(n, k), untreated_survival=block(n),
        true_recipient_type=np.array(draw(types), dtype=int),
        true_donor_type=np.array(draw(types), dtype=int))


@settings(max_examples=60, deadline=None)
@given(datasets_with_truth())
def test_writers_match_the_per_row_repr_reference(tmp_path_factory, ds):
    tmp = tmp_path_factory.mktemp("writers")
    for name, write, reference in (
            ("dataset", write_csv, _reference_write_csv),
            ("truth", write_ground_truth_csv, _reference_write_ground_truth_csv)):
        write(ds, tmp / f"{name}.csv")
        reference(ds, tmp / "reference.csv")
        assert (tmp / f"{name}.csv").read_bytes() == (tmp / "reference.csv").read_bytes()
    if len(ds):
        back = attach_ground_truth_csv(load_csv(tmp / "dataset.csv"), tmp / "truth.csv")
        for name in ("recipients", "donors", "outcomes", "true_potentials",
                     "untreated_survival", "true_recipient_type", "true_donor_type"):
            np.testing.assert_array_equal(getattr(back, name), getattr(ds, name))


# A table of each of these lengths fills no block, part of one, exactly one
# and one or two plus a row.
ROW_COUNTS = (0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1)
EDGE_CELLS = (float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 0.1)


def _csv_writer_bytes(path, header, rows) -> bytes:
    """The bytes csv.writer writes for ``header`` and ``rows``: the reference
    of every table writer."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def _edge_dataset(n: int) -> Dataset:
    """``n`` records whose features cycle through NaN, infinities and -0.0,
    with a feature named with a comma and a quote."""
    rng = rng_stream(n, "edge-dataset")
    recipients, donors = rng.normal(size=(n, 2)), rng.normal(size=(n, 1))
    recipients[::3, 0] = np.resize(EDGE_CELLS, len(recipients[::3]))
    donors[1::2, 0] = np.resize(EDGE_CELLS[::-1], len(donors[1::2]))
    potentials = rng.uniform(100, 1000, size=(n, 3))
    potentials[::5, 1] = np.nan
    return Dataset(recipients=recipients, donors=donors, outcomes=rng.uniform(100, 1000, size=n),
                   recipient_names=['age, "years"', "x1"], donor_names=["x0"],
                   true_potentials=potentials, untreated_survival=rng.uniform(0, 500, size=n),
                   true_recipient_type=rng.integers(1, 3, size=n),
                   true_donor_type=rng.integers(1, 4, size=n))


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_dataset_writers_write_the_bytes_of_csv_writer(tmp_path, n):
    ds = _edge_dataset(n)
    for name, write, reference in (
            ("dataset", write_csv, _reference_write_csv),
            ("truth", write_ground_truth_csv, _reference_write_ground_truth_csv)):
        write(ds, tmp_path / f"{name}.csv")
        reference(ds, tmp_path / "reference.csv")
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert (tmp_path / "dataset.csv").read_text().startswith('"r_age, ""years""",r_x1,d_x0,')


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_write_table_writes_the_bytes_of_csv_writer(tmp_path, n):
    rng = rng_stream(n, "table")
    floats = np.resize(np.array(EDGE_CELLS), n) * rng.uniform(0.5, 2, size=n)
    ints = rng.integers(-10**12, 10**12, size=n)
    flags = rng.random(n) < 0.5
    masked = np.ma.masked_array(np.resize(np.array(EDGE_CELLS), n), rng.random(n) < 0.5)
    others = [[None, 'say "hi", then go', "line\nbreak", True, 3, np.float64(0.1), 2.5,
               np.float32(0.25), "plain", ""][i % 10] for i in range(n)]
    names = np.array(["a", "b,c", 'd"'])[rng.integers(0, 3, size=n)]
    columns = [floats, ints, flags, masked, others, names]
    header = ["float", "int", "bool", 'masked, "float"', "other", "name"]
    write_table(tmp_path / "table.csv", header, n,
                lambda lo, hi: [column[lo:hi] for column in columns])
    rows = zip(floats.tolist(), ints.tolist(), flags.tolist(), masked.tolist(), others,
               names.tolist())
    assert (tmp_path / "table.csv").read_bytes() == _csv_writer_bytes(tmp_path / "ref.csv",
                                                                      header, rows)


TABLE_CELLS = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20), st.floats(), EDGE_FLOATS,
    st.text(alphabet=' ,"\r\nab\t', max_size=4))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4).flatmap(lambda width: st.lists(
    st.lists(TABLE_CELLS, min_size=width, max_size=width), max_size=6)))
def test_random_tables_write_the_bytes_of_csv_writer(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("tables")
    width = len(rows[0]) if rows else 2
    header = [f"c{j}" for j in range(width)]
    columns = [list(column) for column in zip(*rows)] or [[]] * width
    write_table(tmp / "table.csv", header, len(rows),
                lambda lo, hi: [column[lo:hi] for column in columns])
    assert (tmp / "table.csv").read_bytes() == _csv_writer_bytes(tmp / "ref.csv", header, rows)


def test_write_table_refuses_a_block_of_another_shape(tmp_path):
    for columns in ([[1, 2]], [[1, 2], [3]], [[1, 2], [3, 4], [5, 6]]):
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.csv", ["a", "b"], 2, lambda lo, hi: columns)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_subset_indexes_every_per_record_field(data):
    n = data.draw(st.integers(1, 12))
    ds = make_dataset(n=n, seed=n)
    optional = {"true_potentials": rng_stream(n, "pot").normal(size=(n, 3)),
                "untreated_survival": np.arange(n, dtype=float),
                "true_recipient_type": np.arange(n) % 2 + 1,
                "true_donor_type": np.arange(n) % 3 + 1}
    for name, value in optional.items():
        if data.draw(st.booleans()):
            setattr(ds, name, value)
    ds.normalization = datamodel.Normalization(np.zeros(3), np.ones(3), np.zeros(2), np.ones(2))
    idx = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    sub = ds.subset(idx)
    assert len(sub) == len(idx)
    for name in ("recipients", "donors", "outcomes", *optional):
        value = getattr(ds, name)
        if value is None:
            assert getattr(sub, name) is None
        else:
            np.testing.assert_array_equal(getattr(sub, name), value[np.asarray(idx, dtype=int)])
    assert sub.recipient_names is ds.recipient_names and sub.donor_names is ds.donor_names
    assert sub.normalization is ds.normalization


@settings(max_examples=25, deadline=None)
@given(st.integers(10, 200), st.integers(0, 10_000))
def test_split_sizes_property(n, seed):
    idx = split(make_dataset(n=n), seed=seed)
    assert len(idx.train) + len(idx.validation) == n
    assert abs(len(idx.validation) - round(0.1 * n)) <= 1
    assert set(idx.train.tolist()).isdisjoint(idx.validation.tolist())
