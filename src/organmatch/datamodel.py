"""Canonical dataset representation, CSV ingestion, normalization, splitting.

A :class:`Dataset` stores recipient features, donor features and factual
outcomes as dense arrays, plus optional synthetic ground truth (the full
potential-outcome vector, untreated survival, and true type labels).
Outcomes are survival times in days and are never normalized; feature
normalization statistics are fit on the training split only.
"""

from __future__ import annotations

import csv
import functools
import itertools
import types
import typing
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .numkit import ROW_BLOCK, InsufficientDataError, rng_stream


class IngestionError(ValueError):
    pass


class ConfigError(ValueError):
    """An invalid configuration value; every config dataclass raises it when
    it is built with one, so none exists invalid."""


@functools.cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)


def _is_kind(value, hint) -> bool:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_is_kind(value, arg) for arg in args)
    if origin is list:
        return isinstance(value, list) and all(_is_kind(v, args[0]) for v in value)
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, origin or hint)


def check_field_kinds(cls, values: dict) -> None:
    """Raise TypeError if a value read from JSON is not of the declared type
    of the field of dataclass ``cls`` that it is named after.

    An int passes for a float, and a bool for no number.
    Names that are not fields of ``cls`` are left to its constructor.
    """
    declared = _field_types(cls)
    for name, value in values.items():
        if name in declared and not _is_kind(value, declared[name]):
            raise TypeError(f"{cls.__name__}.{name} must be {declared[name]}, "
                            f"not a {type(value).__name__}")


@dataclass
class Normalization:
    recipient_mean: np.ndarray
    recipient_scale: np.ndarray
    donor_mean: np.ndarray
    donor_scale: np.ndarray

    def __post_init__(self):
        if not (all(np.isfinite(stat).all() for stat in vars(self).values())
                and (self.recipient_scale > 0).all() and (self.donor_scale > 0).all()):
            raise IngestionError("normalization statistics must be finite, their scales positive")


@dataclass
class Dataset:
    """Records whose features, outcomes and ground-truth survival are all finite."""

    recipients: np.ndarray  # (n, d_r)
    donors: np.ndarray  # (n, d_o)
    outcomes: np.ndarray  # (n,)
    recipient_names: list[str]
    donor_names: list[str]
    true_potentials: np.ndarray | None = None  # (n, K)
    untreated_survival: np.ndarray | None = None  # (n,)
    true_recipient_type: np.ndarray | None = None  # (n,) 1-based
    true_donor_type: np.ndarray | None = None  # (n,) 1-based
    normalization: Normalization | None = None

    def __post_init__(self):
        n = len(self.outcomes)
        if self.recipients.shape[0] != n or self.donors.shape[0] != n:
            raise IngestionError("feature blocks and outcomes disagree in length")
        for name in ("recipients", "donors", "outcomes", "true_potentials", "untreated_survival"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise IngestionError(f"a non-finite value in the dataset's {name}")

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def d_r(self) -> int:
        return self.recipients.shape[1]

    @property
    def d_o(self) -> int:
        return self.donors.shape[1]

    @property
    def has_ground_truth(self) -> bool:
        return self.true_potentials is not None and self.untreated_survival is not None

    def subset(self, indices) -> "Dataset":
        """The records at ``indices``; every array field is per record."""
        idx = np.asarray(indices, dtype=int)
        return replace(self, **{name: value[idx] for name, value in vars(self).items()
                                if isinstance(value, np.ndarray)})


TRAIN_FRACTION = 0.9


@dataclass
class SplitIndices:
    train: np.ndarray
    validation: np.ndarray


def split(dataset: Dataset, seed: int = 0) -> SplitIndices:
    """Deterministic uniform 90/10 train/validation split."""
    n = len(dataset)
    if n < 10:
        raise InsufficientDataError(f"need at least 10 records, got {n}")
    rng = rng_stream(seed, "datamodel", "split")
    perm = rng.permutation(n)
    n_train = int(round(TRAIN_FRACTION * n))
    return SplitIndices(train=np.sort(perm[:n_train]), validation=np.sort(perm[n_train:]))


def _standardize(block: np.ndarray, train_idx: np.ndarray):
    mean = block[train_idx].mean(axis=0)
    scale = block[train_idx].std(axis=0, ddof=0)
    zero = scale < 1e-12
    if np.any(zero):
        warnings.warn("zero-variance column; scale set to 1")
        scale = np.where(zero, 1.0, scale)
    return mean, scale


def normalize_fit_transform(dataset: Dataset, indices: SplitIndices) -> Dataset:
    """Standardize features with statistics computed on the training split only.

    Outcomes are left in raw day units.
    """
    r_mean, r_scale = _standardize(dataset.recipients, indices.train)
    d_mean, d_scale = _standardize(dataset.donors, indices.train)
    return apply_normalization(dataset, Normalization(r_mean, r_scale, d_mean, d_scale))


def normalization_to_dict(norm: Normalization) -> dict:
    return {name: value.tolist() for name, value in vars(norm).items()}


def normalization_from_dict(doc: dict) -> Normalization:
    return Normalization(**{f.name: np.asarray(doc[f.name], dtype=float)
                            for f in fields(Normalization)})


def apply_normalization(dataset: Dataset, norm: Normalization) -> Dataset:
    """Standardize a raw dataset with previously fitted statistics."""
    shapes = [stat.shape for stat in vars(norm).values()]
    if shapes != [(dataset.d_r,)] * 2 + [(dataset.d_o,)] * 2:
        raise IngestionError(
            f"the data has {dataset.d_r} recipient and {dataset.d_o} donor features, the "
            f"normalization statistics (recipient mean and scale, donor mean and scale) "
            f"have shapes {shapes}")
    return replace(dataset,
                   recipients=(dataset.recipients - norm.recipient_mean) / norm.recipient_scale,
                   donors=(dataset.donors - norm.donor_mean) / norm.donor_scale,
                   outcomes=dataset.outcomes.copy(), normalization=norm)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchemaConfig:
    """Declares which CSV columns hold recipient/donor features and the outcome.

    Each feature list is nonempty and every column is named once, in one
    role. ``categorical`` maps a feature column to its explicit list of
    distinct categories; such columns are one-hot encoded (no data-driven
    category discovery). Missing numeric values are imputed with the column
    mean of the remaining rows and flagged with a companion
    ``<col>__missing`` indicator column; a non-finite numeric cell (``nan``,
    ``inf``) is an error.
    """

    recipient_columns: list[str]
    donor_columns: list[str]
    outcome_column: str
    categorical: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        try:
            check_field_kinds(SchemaConfig, vars(self))
        except TypeError as exc:
            raise ConfigError(str(exc)) from None
        features = self.recipient_columns + self.donor_columns
        named = features + [self.outcome_column]
        if not self.recipient_columns or not self.donor_columns or len(set(named)) < len(named):
            raise ConfigError(f"recipient {self.recipient_columns}, donor {self.donor_columns} "
                              f"and outcome {self.outcome_column!r} columns: each feature list "
                              f"must be nonempty and each column named once")
        for col, cats in self.categorical.items():
            if not (col in features and _is_kind(cats, list[str]) and cats
                    and len(set(cats)) == len(cats)):
                raise ConfigError(f"categorical column {col!r} must be a feature column "
                                  f"with a nonempty list of distinct categories, not {cats!r}")


class _Column:
    """One column of a table, parsed a block of rows at a time.

    ``kind`` is float, int or a list of categories; a categorical cell
    becomes its category's index. With ``impute`` an empty or absent cell
    parses as 0 and is flagged, a block at a time, in ``flags``. The column
    keeps the text of its first fault, to be raised by :meth:`values`: the
    lowest undeclared category or unparseable cell, else the lowest
    non-finite cell.
    """

    def __init__(self, name: str, kind, impute: bool = False):
        self.name, self.kind, self.impute = name, kind, impute
        self.index = {c: j for j, c in enumerate(kind)} if isinstance(kind, list) else None
        self.blocks: list[np.ndarray] = []
        self.flags: list[np.ndarray] = []
        self.unparseable = self.non_finite = None

    def add(self, cells, lo: int) -> None:
        """Parse ``cells``, the column's cells of rows ``lo`` onwards."""
        if self.unparseable:  # no later cell changes the fault or is kept
            return
        if self.index is not None:
            codes = np.fromiter(map(self.index.get, cells, itertools.repeat(-1)),
                                dtype=np.intp, count=len(cells))
            bad = np.flatnonzero(codes < 0)
            if bad.size:
                self.unparseable = (f"row {lo + bad[0]}, column {self.name!r}: "
                                    f"undeclared category {cells[bad[0]]!r}")
            self.blocks.append(codes)
            return
        if self.impute:
            missing = [v is None or v == "" for v in cells]
            if any(missing):
                cells = [("0" if m else v) for v, m in zip(cells, missing)]
            self.flags.append(np.array(missing, dtype=bool))
        kind = self.kind
        try:
            values = np.fromiter(map(kind, cells), dtype=kind, count=len(cells))
        except (TypeError, ValueError, OverflowError):
            values = np.zeros(len(cells), dtype=kind)
            for i, cell in enumerate(cells):  # find the first bad cell
                try:
                    values[i] = kind(cell)
                except (TypeError, ValueError, OverflowError):
                    self.unparseable = (f"row {lo + i}, column {self.name!r}: "
                                        f"unparseable cell {cell!r}")
                    return
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size and self.non_finite is None:
            self.non_finite = (f"row {lo + bad[0]}, column {self.name!r}: "
                               f"non-finite cell {cells[bad[0]]!r}")
        self.blocks.append(values)

    def values(self) -> np.ndarray:
        """Every cell's value, as one array; the column's fault, or a column
        to impute with no observed cell, raises IngestionError."""
        if self.impute and self.flags and all(map(np.all, self.flags)):
            raise IngestionError(f"column {self.name!r} has no observed values")
        if self.unparseable or self.non_finite:
            raise IngestionError(self.unparseable or self.non_finite)
        self.blocks = [np.concatenate(self.blocks)]
        return self.blocks[0]


def _read_block(rows, width: int, where: dict[str, int], columns: dict[str, _Column],
                lo: int) -> int:
    """Read the next ``ROW_BLOCK`` of ``rows``, rows ``lo`` onwards of a
    table ``width`` columns wide, into ``columns``; return how many rows
    were read. A short row's absent cells are None. The block's cells are
    freed on return, before the next block is read."""
    block = list(itertools.islice(rows, ROW_BLOCK))
    if block and columns:
        if min(map(len, block)) < width:
            block = [row + [None] * (width - len(row)) for row in block]
        cells = list(zip(*block))
        for name, column in columns.items():
            column.add(cells[where[name]], lo)
    return len(block)


def _read_table(path, plan) -> tuple[list[str], int, dict[str, _Column]]:
    """The header, the row count and the parsed columns of a UTF-8
    comma-separated file, read ``ROW_BLOCK`` rows at a time.

    ``plan(header)`` gives the columns to parse, ``{name: (kind, impute)}``
    as :class:`_Column` takes them, each named in the header. Rows are read
    as ``csv.DictReader`` reads them: blank lines are skipped, a short row's
    absent cells are None, extra cells are ignored and a repeated column
    name keeps its last column. A file that is not UTF-8 or not CSV, then
    one that is empty or has no data row, then an IngestionError of
    ``plan``, raise IngestionError, in that order, once the file is read.
    """
    plan_error = None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None) or []
            try:
                columns = {name: _Column(name, *spec) for name, spec in plan(header).items()}
            except IngestionError as exc:
                columns, plan_error = {}, exc
            where = {name: j for j, name in enumerate(header)}  # a repeated name: its last
            rows, n = filter(None, reader), 0
            while size := _read_block(rows, len(header), where, columns, n):
                n += size
    except (UnicodeDecodeError, csv.Error) as exc:
        raise IngestionError(f"unreadable CSV file {path}: {exc}") from None
    if not header or not n:
        raise IngestionError(f"empty file {path}")
    if plan_error is not None:
        raise plan_error
    return header, n, columns


def _encode_block(columns: dict[str, _Column], n: int, block: list[str],
                  schema: SchemaConfig):
    """The features of the ``block`` columns, ``n`` rows each, and their
    names; the columns are taken out of ``columns`` as they are encoded."""
    names: list[str] = []
    feats: list[np.ndarray] = []
    for col in block:
        column = columns.pop(col)
        vals = column.values()
        if col in schema.categorical:
            cats = schema.categorical[col]
            onehot = np.zeros((n, len(cats)))
            onehot[np.arange(n), vals] = 1.0
            feats.append(onehot)
            names.extend(f"{col}={c}" for c in cats)
        elif (flags := np.concatenate(column.flags).astype(float)).any():
            # a missing cell parsed as 0 and is imputed with the mean
            vals = np.where(flags > 0, vals[flags == 0].mean(), vals)
            feats += [vals[:, None], flags[:, None]]
            names += [col, f"{col}__missing"]
        else:
            feats.append(vals[:, None])
            names.append(col)
    return np.hstack(feats) if feats else np.zeros((n, 0)), names


_QUOTED = frozenset(',"\r\n')  # csv.writer quotes a cell that holds one of these


def _cells(column) -> list[str]:
    """The text csv.writer writes for each cell of one block of a column:
    the repr of a float, the str of an int or a bool, "" for None or a
    masked cell, and any other value's str, quoted if need be."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) else "O"
    if kind in "biuf":
        mask = np.ma.getmaskarray(column)
        text = list(map(repr if kind == "f" else str, np.ma.getdata(column)[~mask].tolist()))
        if not mask.any():
            return text
        cells = np.full(mask.shape, "", dtype=object)
        cells[~mask] = np.array(text, dtype=object)
        return cells.tolist()
    text = column.tolist() if isinstance(column, np.ndarray) else list(column)
    if not set(map(type, text)) <= {str}:
        text = ["" if v is None else float.__repr__(v) if isinstance(v, float) else str(v)
                for v in text]
    quoted = {t: '"' + t.replace('"', '""') + '"'
              for t in set(text) if not _QUOTED.isdisjoint(t)}
    return [quoted.get(t, t) for t in text] if quoted else text


def _rows_text(columns, width: int, n: int) -> str:
    """``n`` rows of ``width`` cells as CSV text, from their columns."""
    cells = list(map(_cells, columns))
    if len(cells) != width or any(len(c) != n for c in cells):
        raise ValueError(f"a block of {n} rows needs {width} columns of {n} cells")
    return "\r\n".join(map(",".join, zip(*cells))) + "\r\n"


def write_table(path, header: list[str], n: int, block) -> None:
    """Write ``header`` and ``n`` rows as UTF-8 CSV, ``numkit.ROW_BLOCK``
    rows at a time; ``block(lo, hi)`` gives the columns of rows ``lo`` to
    ``hi - 1``, one sequence per header name.

    For two or more columns the bytes are those that ``csv.writer`` writes
    for the same cells: a float is its repr (NaN is ``nan``), an int its
    str, a bool ``True`` or ``False``, None an empty cell and any other
    value its str, quoted when it holds a comma, a quote or a line break;
    rows end in "\\r\\n". A masked cell of a ``numpy.ma`` column is empty
    too. NumPy columns of numbers are formatted by C-level maps, other
    columns cell by cell unless all their cells are str; cells are joined
    by C-level joins. csv.writer writes the header.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, n, ROW_BLOCK):
            hi = min(lo + ROW_BLOCK, n)
            fh.write(_rows_text(block(lo, hi), len(header), hi - lo))


def load_csv(path, schema: SchemaConfig | None = None) -> Dataset:
    """Parse a UTF-8 comma-separated file with a header row into a Dataset.

    Without a schema the file must have the ``r_*``, ``d_*`` and ``outcome``
    columns that write_csv writes. The file is read ``numkit.ROW_BLOCK`` rows
    at a time and its first fault is raised once it is read: an unreadable
    or empty file, then the header, then the columns in the schema's order,
    the outcome last; within a column an unparseable cell before a
    non-finite one, the lowest row first.
    """
    def plan(header):
        nonlocal schema
        if schema is None:
            try:
                schema = SchemaConfig(recipient_columns=[c for c in header if c.startswith("r_")],
                                      donor_columns=[c for c in header if c.startswith("d_")],
                                      outcome_column="outcome")
            except ConfigError as exc:
                raise IngestionError(f"{path} does not look like a generated dataset "
                                     f"(r_*/d_*/outcome columns): {exc}") from None
        features = schema.recipient_columns + schema.donor_columns
        missing_cols = {*features, schema.outcome_column} - set(header)
        if missing_cols:
            raise IngestionError(f"unknown column(s): {sorted(missing_cols)}")
        return {**{col: (schema.categorical[col],) if col in schema.categorical else (float, True)
                   for col in features}, schema.outcome_column: (float,)}

    _, n, columns = _read_table(path, plan)
    recipients, r_names = _encode_block(columns, n, schema.recipient_columns, schema)
    donors, d_names = _encode_block(columns, n, schema.donor_columns, schema)
    outcomes = columns[schema.outcome_column].values()
    return Dataset(recipients, donors, outcomes, r_names, d_names)


def write_csv(dataset: Dataset, path) -> None:
    """Write features and outcome; the inverse of load_csv."""
    header = ([f"r_{n}" for n in dataset.recipient_names]
              + [f"d_{n}" for n in dataset.donor_names] + ["outcome"])
    write_table(path, header, len(dataset), lambda lo, hi: [
        *dataset.recipients[lo:hi].T, *dataset.donors[lo:hi].T, dataset.outcomes[lo:hi]])


_TYPE_COLUMNS = ("true_recipient_type", "true_donor_type")


def attach_ground_truth_csv(dataset: Dataset, path) -> Dataset:
    """Attach the ground-truth columns written by write_ground_truth_csv.

    The file is read as load_csv reads one; its first fault is raised once
    it is read: an unreadable or empty file, a row count other than the
    dataset's, the header, the two type columns, their ranges, then the
    potential columns in order and the untreated survival.
    """
    def plan(header):
        nonlocal pot_cols
        pot_cols = sorted((c for c in header
                           if c.startswith("potential_") and c[len("potential_"):].isdigit()),
                          key=lambda c: int(c[len("potential_"):]))
        return {**{col: (int,) for col in _TYPE_COLUMNS if col in header},
                **{col: (float,) for col in [*pot_cols, "untreated_survival"] if col in header}}

    pot_cols: list[str] = []
    header, n, columns = _read_table(path, plan)
    if n != len(dataset):
        raise IngestionError("ground-truth file and dataset disagree in length")
    if not pot_cols:
        raise IngestionError("ground-truth file has no potential_* columns")
    missing_cols = {*_TYPE_COLUMNS, "untreated_survival"} - set(header)
    if missing_cols:
        raise IngestionError(f"ground-truth file lacks column(s): {sorted(missing_cols)}")
    types = {col: columns[col].values() for col in _TYPE_COLUMNS}
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
    return replace(dataset,
                   true_potentials=np.column_stack([columns[c].values() for c in pot_cols]),
                   untreated_survival=columns["untreated_survival"].values(),
                   true_recipient_type=types["true_recipient_type"],
                   true_donor_type=types["true_donor_type"])


def write_ground_truth_csv(dataset: Dataset, path) -> None:
    if not dataset.has_ground_truth:
        raise ValueError("dataset has no ground truth")
    k = dataset.true_potentials.shape[1]
    header = [*_TYPE_COLUMNS, *(f"potential_{j + 1}" for j in range(k)), "untreated_survival"]
    write_table(path, header, len(dataset), lambda lo, hi: [
        dataset.true_recipient_type[lo:hi], dataset.true_donor_type[lo:hi],
        *dataset.true_potentials[lo:hi].T, dataset.untreated_survival[lo:hi]])
