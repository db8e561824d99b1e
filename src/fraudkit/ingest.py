"""Delimited-text ingestion, cleaning rules, and categorical encoding.

Datasets are comma-delimited UTF-8 text with a header row. Cleaning
drops columns or rows with missing values (never imputes), encodes
categorical columns ordinally by first appearance, and validates the
binary label (0 = non-fraud, 1 = fraud).
"""

import csv
from array import array
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from fraudkit.base import FraudkitError, check_array, check_labels

KINDS = ("numeric", "categorical", "label", "drop")
MISSING_POLICIES = ("forbid", "drop_column", "drop_row")

# Cell values treated as missing, besides the empty string.
_MISSING_TOKENS = {"", "na", "nan", "null", "none"}


class SchemaError(FraudkitError):
    pass


class ParseError(FraudkitError):
    pass


def _is_missing(cell):
    return cell.strip().lower() in _MISSING_TOKENS


@dataclass
class ColumnSchema:
    name: str
    kind: str
    missing_policy: str = "drop_row"
    categories: tuple | None = None  # filled in for encoded categorical columns

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(f"unknown column kind {self.kind!r} for {self.name!r}")
        if self.missing_policy not in MISSING_POLICIES:
            raise SchemaError(
                f"unknown missing policy {self.missing_policy!r} for {self.name!r}"
            )


def _validate_schema(schema):
    names = [c.name for c in schema]
    if len(set(names)) != len(names):
        raise SchemaError("duplicate column names in schema")
    labels = [c for c in schema if c.kind == "label"]
    if len(labels) != 1:
        raise SchemaError(f"schema must have exactly one label column, got {len(labels)}")
    return labels[0]


class Dataset:
    """Immutable feature matrix plus binary label vector.

    schema lists the retained feature columns in matrix order followed
    by the label column.
    """

    def __init__(self, schema, features, labels):
        schema = list(schema)
        label_col = _validate_schema(schema)
        feature_cols = [c for c in schema if c.kind in ("numeric", "categorical")]
        features = check_array(features, name="features")
        labels = check_labels(labels, name="labels")
        if features.shape[0] != labels.shape[0]:
            raise ValueError("features and labels disagree on row count")
        if features.shape[1] != len(feature_cols):
            raise SchemaError(
                f"schema describes {len(feature_cols)} feature columns but "
                f"matrix has {features.shape[1]}"
            )
        features.setflags(write=False)
        labels.setflags(write=False)
        self.schema = tuple(feature_cols) + (label_col,)
        self.features = features
        self.labels = labels

    @property
    def n_rows(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]

    @property
    def n_pos(self):
        return int(np.count_nonzero(self.labels == 1))

    @property
    def n_neg(self):
        return int(np.count_nonzero(self.labels == 0))

    @property
    def feature_names(self):
        return [c.name for c in self.schema if c.kind != "label"]

    @property
    def label_name(self):
        return self.schema[-1].name

    def __repr__(self):
        return (
            f"Dataset(n_rows={self.n_rows}, n_features={self.n_features}, "
            f"n_pos={self.n_pos}, n_neg={self.n_neg})"
        )


@dataclass
class DatasetProfile:
    n_rows: int
    n_features: int
    fraud_fraction: float
    columns: dict = field(default_factory=dict)  # name -> {mean, std, n_missing, n_distinct}

    def to_dict(self):
        return {
            "n_rows": self.n_rows,
            "n_features": self.n_features,
            "fraud_fraction": self.fraud_fraction,
            "columns": self.columns,
        }


def encode_categoricals(values, categories=None):
    """Ordinal encoding by first appearance.

    Returns (codes, categories). Passing a stored categories tuple
    re-applies that mapping exactly; unseen values then raise.
    """
    values = list(values)
    if categories is None:
        mapping = {}
        for v in values:
            if v not in mapping:
                mapping[v] = len(mapping)
        categories = tuple(mapping)
    else:
        mapping = {v: i for i, v in enumerate(categories)}
    try:
        codes = np.array([mapping[v] for v in values], dtype=np.float64)
    except KeyError as exc:
        raise ParseError(f"value {exc.args[0]!r} not in stored category mapping") from exc
    return codes, tuple(categories)


def load_csv(path, schema):
    """Load a comma-delimited file and apply the cleaning rules.

    Header must contain exactly the schema's column names (any order).
    Columns with kind=drop are removed; missing values are handled per
    column policy; categorical columns are ordinally encoded, by first
    appearance or, where the schema stores categories, by that mapping
    (an unseen value is then an error). Numeric
    and label cells are read with float(), so padding whitespace, `1_0`
    and `inf` parse as they do in Python; a non-finite numeric cell or a
    label other than 0 or 1 is an error. Blank lines are skipped.

    Errors name the 1-based file line (csv's line_num: the line a record
    ends on) and, for a bad cell, its column. Every missing-value error
    comes before any parse error, and cells in rows dropped for a missing
    value are never parsed.
    """
    schema = list(schema)
    label_col = _validate_schema(schema)
    by_name = {c.name: c for c in schema}

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, no header row") from None
        # Non-blank records and the file line each ends on. Two flat
        # sequences keep the cyclic GC's work lower than a tuple per record
        # would, and a C array of line numbers holds no int objects.
        rows, lines = [], array("q")
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)

    if sorted(header) != sorted(by_name):
        missing = set(by_name) - set(header)
        extra = set(header) - set(by_name)
        duplicate = {n for n in header if header.count(n) > 1}
        raise SchemaError(
            f"{path}: header does not match schema (missing: {sorted(missing)}, "
            f"unexpected: {sorted(extra)}, duplicate: {sorted(duplicate)})"
        )
    for line, row in zip(lines, rows):
        if len(row) != len(header):
            raise ParseError(f"{path}: line {line} has {len(row)} cells, expected {len(header)}")

    # One transpose to column-major cells; zip relies on the width check.
    columns = dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ())
    del rows
    keep_names = [n for n in header if by_name[n].kind != "drop"]

    # Missing-value pass: drop_column removes any column containing a
    # missing cell; drop_row marks rows; forbid errors out. Every missing
    # token fails float() or parses to NaN, so only a numeric or label
    # column whose whole-column parse fails or yields NaN is scanned.
    parsed = {}
    dropped_cols = set()
    bad_rows = set()
    for name in keep_names:
        col_schema = by_name[name]
        cells = columns[name]
        if col_schema.kind != "categorical":
            values = parsed[name] = _parse_floats(cells)
            if values is not None and not np.isnan(values).any():
                continue
        miss = [i for i, cell in enumerate(cells) if _is_missing(cell)]
        if not miss:
            continue
        if col_schema.missing_policy == "forbid":
            raise ParseError(f"{path}: line {lines[miss[0]]}: missing value in column {name!r}")
        # An all-missing column is dropped outright; drop_row would empty
        # the dataset for no reason.
        if col_schema.missing_policy == "drop_column" or len(miss) == len(cells):
            if col_schema.kind == "label":
                raise ParseError(f"{path}: cannot drop label column {name!r}")
            dropped_cols.add(name)
        else:
            bad_rows.update(miss)

    keep_names = [n for n in keep_names if n not in dropped_cols]
    if bad_rows:
        keep = np.ones(len(lines), dtype=bool)
        keep[list(bad_rows)] = False
        selectors = keep.tolist()
        lines = array("q", compress(lines, selectors))
        columns = {n: list(compress(columns[n], selectors)) for n in keep_names}
        parsed = {n: None if v is None else v[keep] for n, v in parsed.items()}

    out_schema = []
    feature_vectors = []
    labels = None
    for name in keep_names:
        col_schema = by_name[name]
        cells = columns[name]
        if col_schema.kind == "categorical":
            try:
                codes, categories = encode_categoricals(cells, col_schema.categories)
            except ParseError:
                known = set(col_schema.categories)
                i = next(i for i, cell in enumerate(cells) if cell not in known)
                raise ParseError(
                    f"{path}: line {lines[i]}: category {cells[i]!r} in column {name!r} "
                    "is not in its stored mapping"
                ) from None
            out_schema.append(
                ColumnSchema(name, "categorical", col_schema.missing_policy, categories)
            )
            feature_vectors.append(codes)
            continue
        values = _checked_floats(path, name, col_schema.kind, cells, lines, parsed[name])
        if col_schema.kind == "numeric":
            feature_vectors.append(values)
        else:
            labels = values.astype(np.int64)
        out_schema.append(ColumnSchema(name, col_schema.kind, col_schema.missing_policy))

    # Free the cell strings before the feature matrix is stacked.
    del columns, cells
    n_rows = len(lines)
    features = (
        np.column_stack(feature_vectors)
        if feature_vectors and n_rows
        else np.empty((n_rows, len(feature_vectors)), dtype=np.float64)
    )
    if labels is None:
        raise SchemaError(f"{path}: label column {label_col.name!r} was dropped by cleaning")
    return Dataset(out_schema, features, labels)


def _parse_floats(cells):
    """float() of every cell as one float64 array, or None if a cell does not parse."""
    try:
        return np.fromiter(map(float, cells), np.float64, count=len(cells))
    except ValueError:
        return None


def _checked_floats(path, name, kind, cells, lines, values):
    """The numeric or label column as float64, given its whole-column
    parse (None when a cell failed), or ParseError at its first bad cell."""
    if values is None:
        values = _parse_floats(cells)
    accept = np.isfinite if kind == "numeric" else lambda v: (v == 0) | (v == 1)
    if values is not None and accept(values).all():
        return values
    what = "numeric cell" if kind == "numeric" else "label"
    problem = "non-finite numeric cell" if kind == "numeric" else "label outside {0,1}"
    for cell, line in zip(cells, lines):
        try:
            ok = accept(float(cell))
        except ValueError:
            raise ParseError(
                f"{path}: line {line}: unparseable {what} in column {name!r}: {cell!r}"
            ) from None
        if not ok:
            raise ParseError(f"{path}: line {line}: {problem} in column {name!r}: {cell!r}")


# Rows formatted per write. The allocator keeps about one block's worth
# of strings resident after the write (about 3 MB at 1,024 rows of 31
# cells, 0.2 MB at 128), and larger blocks are no faster.
_WRITE_BLOCK_ROWS = 128


def write_csv(ds, path):
    """Write the dataset as comma-delimited UTF-8 text.

    The header goes through csv.writer, which quotes names that need it.
    Each data row holds the shortest round-trip repr of every feature,
    then the integer label, and ends in CRLF: the bytes csv.writer's
    excel dialect writes for those cells, so load_csv(write_csv(ds)) is
    bit-exact.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(ds.feature_names + [ds.label_name])
        for start in range(0, ds.n_rows, _WRITE_BLOCK_ROWS):
            block = slice(start, start + _WRITE_BLOCK_ROWS)
            # A float repr or int str never holds a comma, quote or line
            # break, so no cell needs quoting.
            cells = [map(repr, col) for col in ds.features[block].T.tolist()]
            cells.append(map(str, ds.labels[block].tolist()))
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def profile(ds):
    """Exact row/feature/fraud counts and per-column summary statistics."""
    if ds.n_rows < 1:
        raise ValueError("cannot profile an empty dataset")
    columns = {}
    for j, name in enumerate(ds.feature_names):
        col = ds.features[:, j]
        columns[name] = {
            "mean": float(np.mean(col)),
            "std": float(np.sqrt(np.mean((col - np.mean(col)) ** 2))),
            "n_missing": 0,  # cleaning leaves no missing cells
            "n_distinct": int(np.unique(col).size),
        }
    return DatasetProfile(
        n_rows=ds.n_rows,
        n_features=ds.n_features,
        fraud_fraction=ds.n_pos / ds.n_rows,
        columns=columns,
    )


def infer_schema(path, label, categorical=(), drop=(), missing_policy="drop_row"):
    """Build a schema from a file header: named label, listed drops and
    categoricals, everything else numeric."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    if label not in header:
        raise SchemaError(f"{path}: label column {label!r} not in header")
    schema = []
    for name in header:
        if name == label:
            schema.append(ColumnSchema(name, "label", "forbid"))
        elif name in drop:
            schema.append(ColumnSchema(name, "drop"))
        elif name in categorical:
            schema.append(ColumnSchema(name, "categorical", missing_policy))
        else:
            schema.append(ColumnSchema(name, "numeric", missing_policy))
    return schema
