"""Delimited-text ingestion, cleaning rules, and categorical encoding.

Datasets are comma-delimited UTF-8 text with a header row. Cleaning
drops columns or rows with missing values (never imputes), encodes
categorical columns ordinally by first appearance, and validates the
binary label (0 = non-fraud, 1 = fraud).
"""

import csv
import io
import mmap
import os
import shutil
import signal
import stat
import tempfile
import traceback
from array import array
from contextlib import ExitStack, closing, contextmanager
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import chain, compress, islice

import numpy as np

from fraudkit import base
from fraudkit.base import FraudkitError, check_array, check_labels
from fraudkit.floatfmt import format_rows

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
        return asdict(self)


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


# Raw file lines per read block. A clean block of a schema without a
# categorical column is parsed in C by np.loadtxt (load_csv's docstring
# says when); any other block goes through csv.reader and float() of each
# cell. A block's cells die before the next block is read, so a load
# holds the float values of the file's kept columns, the cells of one
# block (about 2.5 MB at 1,024 lines of 31 cells) and what it keeps of
# each missing or bad cell. Blocks of 8,192 records loaded about a tenth
# slower through csv.reader.
_READ_BLOCK_ROWS = 1024

# Characters that send a block to csv.reader: a quote may open a quoted
# cell, and loadtxt strips the ASCII separators FS, GS, RS and US as
# whitespace where float() rejects them.
_CSV_ONLY = '"\x1c\x1d\x1e\x1f'

# The lines csv.reader reads as no record.
_BLANK = ("\n", "\r\n", "\r")

# The line breaks str.splitlines takes that open(newline="") does not,
# besides FS, GS and RS, which _CSV_ONLY refuses.
_SPLIT_ONLY = "\x0b\x0c\x85\u2028\u2029"

# The values a numeric or label part must hold to be clean.
_ACCEPT = {"numeric": np.isfinite, "label": lambda v: (v == 0) | (v == 1)}


def _blocks(path, lines, clean=None):
    """Yield the header, then one block per _READ_BLOCK_ROWS raw file
    lines that hold a record, appending the file line each record ends on
    to lines. A block is clean(header, raw lines, records)'s float64
    array or, where clean is None or returns None, the block's csv
    records. Where clean is given and _load_ranges takes the data, its
    blocks come instead. Reader and decoding errors become ParseErrors
    naming the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        head = []  # the file lines the header spans
        reader, read = csv.reader(head.append(line) or line for line in fh), 0
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file, no header row")
            yield header
            read = reader.line_num
            ranged = None
            if clean:
                start = len("".join(head).encode("utf-8"))
                ranged = _load_ranges(path, fh, start, partial(clean, header))
            if ranged is not None:
                for values in ranged:  # a line per record: the ranges take no blank line
                    lines.extend(range(read + 1, read + len(values) + 1))
                    read += len(values)
                    yield values
                return
            while raw := list(islice(fh, _READ_BLOCK_ROWS)):
                records = len(raw) - sum(map(raw.count, _BLANK))
                if not records:
                    read += len(raw)
                    continue
                values = clean(header, raw, records) if clean else None
                if values is not None:
                    lines.extend(i for i, line in enumerate(raw, read + 1) if line not in _BLANK)
                    read += len(raw)
                    yield values
                    continue
                # Reading on into the file, so that a quoted line break
                # across the block's end still parses.
                reader, rows = csv.reader(chain(raw, fh)), []
                while reader.line_num < len(raw):
                    if row := next(reader):
                        rows.append(row)
                        lines.append(read + reader.line_num)
                read += reader.line_num
                yield rows
                del rows  # so the next block is read without these cells
        except csv.Error as exc:
            raise ParseError(f"{path}: line {read + reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def _load_ranges(path, fh, start, parse):
    """The float64 blocks of path's data, which starts at byte start,
    parsed by parse(raw lines, records) in byte ranges as load_csv
    describes; or None where the ranges do not apply (fh is path, open as
    text) or a range refuses a block. A child's part holds at least one
    value for each line of its range, so an empty part is a range that
    refused."""
    cpus = base.usable_cpus()
    if cpus < 2 or not hasattr(os, "fork") or not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        return None
    with open(path, "rb") as data:
        data.seek(start)
        if next(islice(data, 2 * _READ_BLOCK_ROWS - 1, None), None) is None:
            return None  # under two read blocks of lines
        size = os.fstat(data.fileno()).st_size
        cuts = [start]
        for i in range(1, cpus):
            data.seek(start + (size - start) * i // cpus)
            data.readline()  # on to just past the next line break
            cuts.append(data.tell())
    cuts.append(size)
    spans = [span for span in zip(cuts, cuts[1:]) if span[0] < span[1]]
    jobs = [(f"reading bytes {a + 1}-{b}", (a, b)) for a, b in spans[1:]]
    with _forked(path, partial(_parse_part, path, parse), jobs) as parts:
        blocks = []
        for values in _range_blocks(path, spans[0], parse):
            if values is None:
                return None  # and the children are killed at once
            blocks.append(values)
        width = blocks[0].shape[1]
        for part in parts:
            rows = os.fstat(part.fileno()).st_size // (8 * width)
            if not rows:
                return None
            for done in range(0, rows, _READ_BLOCK_ROWS):
                blocks.append(_mapped_empty(min(_READ_BLOCK_ROWS, rows - done), width))
                part.readinto(blocks[-1])
    return blocks


def _range_blocks(path, span, parse):
    """Yield the float64 values of the file's bytes span[0] up to span[1],
    a block of _READ_BLOCK_ROWS lines at a time, each parsed by parse(raw
    lines, records). Lines split as open(newline="") splits them. For a
    block that is not UTF-8, holds a blank line or a _SPLIT_ONLY
    character, or that parse refuses, yield None and stop."""
    start, end = span
    with open(path, "rb") as fh:
        fh.seek(start)
        # Binary lines end in b"\n", so a block never splits "\r\n" or a
        # UTF-8 character, and span ends where a line does.
        while start < end and (data := b"".join(islice(fh, _READ_BLOCK_ROWS))[: end - start]):
            start += len(data)
            try:
                text = data.decode("utf-8")
                raw = text.splitlines(keepends=True)
                # parse would refuse a blank line too, as loadtxt skips it,
                # but loadtxt warns of a block of nothing else.
                refused = sum(map(raw.count, _BLANK)) or any(c in text for c in _SPLIT_ONLY)
                values = None if refused else parse(raw, len(raw))
            except UnicodeDecodeError:
                values = None
            yield values
            if values is None:
                return


def _parse_part(path, parse, part, span):
    """A forked child's range: the float64 values of its blocks to the
    file part, or nothing where a block refuses."""
    for values in _range_blocks(path, span, parse):
        if values is None:
            part.truncate(0)
            return
        part.write(values)


def _loadtxt_block(by_name, header, raw, records):
    """The kept columns of a block of raw lines as parsed by numpy's C
    parser, or None where csv.reader must read the block: where a line
    holds a _CSV_ONLY character or is longer than csv's field limit,
    where loadtxt raises or reads other than one row per record at the
    header's width, or where a cell is not clean."""
    text = "".join(raw)
    if max(map(len, raw)) > csv.field_size_limit() or any(c in text for c in _CSV_ONLY):
        return None
    try:
        parsed = np.loadtxt(raw, delimiter=",", comments=None, quotechar='"', ndmin=2)
    except ValueError:
        return None
    kinds = np.array([by_name[name].kind for name in header])
    if parsed.shape != (records, len(header)) or not all(
        accept(parsed[:, kinds == kind]).all() for kind, accept in _ACCEPT.items()
    ):
        return None
    taken = kinds != "drop"
    return np.compress(taken, parsed, axis=1, out=_mapped_empty(records, np.count_nonzero(taken)))


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
    comes before any parse error, and a bad cell in a row dropped for a
    missing value is never reported.

    The file is read in blocks of _READ_BLOCK_ROWS raw lines, and each
    block holding a record becomes one float64 array. A block of a schema
    without a categorical column is parsed by numpy's C parser
    (np.loadtxt) when it holds no quote, no ASCII separator (FS, GS, RS,
    US) and no line longer than csv's field limit, and when loadtxt reads
    one row per record at the header's width with every cell clean. Any
    other block goes through csv.reader, which reads on into the file
    where a quoted line break crosses the block's end, and float() of
    each cell. Every cell loadtxt takes, float() takes with the same bits,
    so the loaded bits and the errors do not depend on the path.

    Where the schema has no categorical column, path is a regular file,
    fork is available, base.usable_cpus() is more than 1 and the data
    holds at least two read blocks of lines, the data's bytes are first
    cut into one contiguous range per usable CPU, each cut moved on to
    just past a line break. This process parses range 0 and a forked
    child each other range, _READ_BLOCK_ROWS lines at a time through
    np.loadtxt as above, with lines split as open(newline="") splits
    them. A child leaves its float64 values in an unnamed temporary file,
    which this process reads back a block at a time, so nothing is
    pickled. A range stops at the first block that is not UTF-8, holds a
    blank line or a line break open(newline="") does not split at (VT,
    FF, NEL, U+2028, U+2029), or is one np.loadtxt does not take (where
    that is range 0, the children are killed at once), and the whole file
    is then read again by the one reader above. So every loaded bit, file
    line and error comes from one reader, whatever the number of CPUs, and
    a file that falls back costs at most one extra range's parse. A child
    that fails raises OSError naming path; any exception here,
    KeyboardInterrupt included, first kills and reaps every child.

    A csv
    block's array holds float() of each numeric and label cell (NaN where
    float() rejects it) and a running code for each categorical cell,
    numbered by first appearance in the file. Each cell is parsed once
    and judged in its block: a missing cell leaves its record index, and
    a numeric or label cell that does not parse, is not finite or is a
    label other than 0 or 1 leaves its record index and text. After the
    last block, the missing-value pass and the drops read the record
    indices, then each kept column, in header order, reports its first
    bad cell in a kept row. Category codes are then renumbered by first
    appearance among the kept rows, and the feature matrix is filled
    block by block, freeing each block. Blocks sit on their own memory
    maps, so each one freed returns its pages, and peak memory is about
    one float matrix plus one block of cells, 8 bytes per missing cell
    and the text of each bad cell, whatever the file's length.
    """
    schema = list(schema)
    _validate_schema(schema)
    by_name = {c.name: c for c in schema}
    clean = partial(_loadtxt_block, by_name)
    if any(c.kind == "categorical" for c in schema):
        clean = None  # running category codes come from csv cells only
    lines = array("q")
    with closing(_blocks(path, lines, clean)) as records:
        header = next(records)
        if sorted(header) != sorted(by_name):
            missing = set(by_name) - set(header)
            extra = set(header) - set(by_name)
            duplicate = {n for n in header if header.count(n) > 1}
            raise SchemaError(
                f"{path}: header does not match schema (missing: {sorted(missing)}, "
                f"unexpected: {sorted(extra)}, duplicate: {sorted(duplicate)})"
            )
        taken = [by_name[n].kind != "drop" for n in header]
        columns = [by_name[n] for n in compress(header, taken)]
        mappings = {c.name: {} for c in columns if c.kind == "categorical"}  # cell -> code
        blocks = []  # per block, a (records, len(columns)) float64 array
        starts = []  # per block, the index of its first record
        missing = {c.name: array("q") for c in columns}  # name -> records of missing cells
        bad = {c.name: [] for c in columns}  # name -> [(record, cell)] of other rejected cells
        for block in records:
            start = len(lines) - len(block)
            starts.append(start)
            if isinstance(block, np.ndarray):  # clean, from np.loadtxt
                blocks.append(block)
                continue
            for i, row in enumerate(block):
                if len(row) != len(header):
                    raise ParseError(
                        f"{path}: line {lines[start + i]} has {len(row)} cells, "
                        f"expected {len(header)}"
                    )
            values = _mapped_empty(len(block), len(columns))
            # One transpose to column-major cells; zip relies on the width check.
            for j, (col, cells) in enumerate(zip(columns, compress(zip(*block), taken))):
                if col.kind == "categorical":
                    mapping = mappings[col.name]
                    values[:, j] = np.fromiter(
                        (mapping.setdefault(cell, len(mapping)) for cell in cells),
                        np.float64,
                        count=len(cells),
                    )
                    if gaps := set(filter(_is_missing, set(cells))):
                        missing[col.name].extend(
                            start + i for i, cell in enumerate(cells) if cell in gaps
                        )
                    continue
                # Every missing token fails float() or parses to NaN, so
                # _ACCEPT rejects it along with the bad cells.
                values[:, j] = _parse_floats(cells)
                for i in np.flatnonzero(~_ACCEPT[col.kind](values[:, j])).tolist():
                    if _is_missing(cells[i]):
                        missing[col.name].append(start + i)
                    else:
                        bad[col.name].append((start + i, cells[i]))
            blocks.append(values)
            del block, cells  # so the next block is read without this one
    file_lines = np.frombuffer(lines, dtype=np.int64)
    keep = np.ones(len(file_lines), dtype=bool)

    # Missing-value pass: drop_column removes any column containing a
    # missing cell; drop_row marks rows; forbid errors out.
    kept = []  # indices into columns
    for j, col in enumerate(columns):
        miss = np.frombuffer(missing[col.name], dtype=np.int64)
        if not len(miss):
            kept.append(j)
            continue
        if col.missing_policy == "forbid":
            raise ParseError(
                f"{path}: line {file_lines[miss[0]]}: missing value in column {col.name!r}"
            )
        # An all-missing column is dropped outright; drop_row would empty
        # the dataset for no reason.
        if col.missing_policy == "drop_column" or len(miss) == len(file_lines):
            if col.kind == "label":
                raise ParseError(f"{path}: cannot drop label column {col.name!r}")
        else:
            keep[miss] = False
            kept.append(j)
    lines = file_lines[keep]
    keeps = [keep[start:start + len(v)] for start, v in zip(starts, blocks)]

    # Cell checks and final category codes, column by column in header order.
    out_schema = []
    for j in kept:
        col = columns[j]
        out_schema.append(ColumnSchema(col.name, col.kind, col.missing_policy))
        if col.kind != "categorical":
            for record, cell in bad[col.name]:
                if keep[record]:
                    raise _cell_error(path, file_lines[record], col, cell)
            continue
        running = np.concatenate([v[k, j] for v, k in zip(blocks, keeps)] or [np.empty(0)])
        codes, first = encode_categoricals(running.astype(np.intp).tolist())
        cells = list(mappings[col.name])
        seen = [cells[c] for c in first]  # in first appearance among kept rows
        try:
            final, categories = encode_categoricals(seen, col.categories)
        except ParseError:
            known = set(col.categories)
            k = next(k for k, cell in enumerate(seen) if cell not in known)
            raise ParseError(
                f"{path}: line {lines[np.argmax(codes == k)]}: category {seen[k]!r} "
                f"in column {col.name!r} is not in its stored mapping"
            ) from None
        out_schema[-1].categories = categories
        recode = np.zeros(len(cells))
        recode[list(first)] = final
        for v in blocks:
            v[:, j] = recode[v[:, j].astype(np.intp)]
    del missing, bad, mappings

    feature_at = [j for j in kept if columns[j].kind != "label"]
    (label_at,) = (j for j in kept if columns[j].kind == "label")
    features = np.empty((len(lines), len(feature_at)))
    labels = np.empty(len(lines), dtype=np.int64)
    start = 0
    for b, k in enumerate(keeps):
        values, blocks[b] = blocks[b][k], None
        features[start:start + len(values)] = values[:, feature_at]
        labels[start:start + len(values)] = values[:, label_at]
        start += len(values)
    return Dataset(out_schema, features, labels)


def _mapped_empty(rows, cols):
    """An uninitialised float64 array on its own anonymous memory map,
    whose pages go back to the system when it is freed. malloc would keep
    a freed block of this size on its heap once an earlier free had
    raised its mmap threshold."""
    return np.frombuffer(mmap.mmap(-1, rows * cols * 8), np.float64).reshape(rows, cols)


def _parse_floats(cells):
    """float() of every cell as one float64 array, NaN where a cell does not parse."""
    try:
        return np.fromiter(map(float, cells), np.float64, count=len(cells))
    except ValueError:
        return np.fromiter(map(_float_or_nan, cells), np.float64, count=len(cells))


def _float_or_nan(cell):
    try:
        return float(cell)
    except ValueError:
        return np.nan


def _cell_error(path, line, col, cell):
    """The ParseError for a numeric or label cell, not missing, that
    float() or _ACCEPT rejects."""
    try:
        float(cell)
        problem = "non-finite numeric cell" if col.kind == "numeric" else "label outside {0,1}"
    except ValueError:
        problem = "unparseable numeric cell" if col.kind == "numeric" else "unparseable label"
    return ParseError(f"{path}: line {line}: {problem} in column {col.name!r}: {cell!r}")


# Values formatted per write block: at least one row, and 512 rows of 30
# features. format_rows's arrays peak at about 185 bytes a value, 2.8 MB
# a block, and are freed at its return; smaller blocks pay numpy's
# per-call overhead more often.
_WRITE_BLOCK_VALUES = 512 * 30


def write_csv(ds, path):
    """Write the dataset as comma-delimited UTF-8 text.

    The header goes through csv.writer, which quotes names that need it.
    Each data row holds the shortest round-trip repr of every feature,
    then the integer label, and ends in CRLF: the bytes csv.writer's
    excel dialect writes for those cells, so load_csv(write_csv(ds)) is
    bit-exact. floatfmt.format_rows computes those bytes for a block of
    rows at once in numpy, calling repr only for subnormals and the
    values repr writes in exponent form. A block holds
    _WRITE_BLOCK_VALUES // n_features rows, and at least one.

    Rows are formatted on every CPU this process may run on, and the
    bytes do not depend on how many there are: the blocks are cut into
    one contiguous range per CPU (one range without fork, and no more
    ranges than blocks). This process writes the header and the first
    range; a forked child writes each other range to an unnamed
    temporary file, and this process appends those files to path in
    order, 1 MiB at a time, so it never holds a child's whole text.
    Any path takes the ranges, a pipe included. A failed child raises
    OSError naming path; any exception here, KeyboardInterrupt included,
    first kills and reaps every child.
    """
    with open(path, "wb") as fh:
        header = io.StringIO()
        csv.writer(header).writerow(ds.feature_names + [ds.label_name])
        fh.write(header.getvalue().encode("utf-8"))
        blocks = range(0, ds.n_rows, max(1, _WRITE_BLOCK_VALUES // max(1, ds.n_features)))
        cpus = base.usable_cpus() if hasattr(os, "fork") else 1
        workers = max(1, min(cpus, len(blocks)))  # one empty range for no rows
        ends = [i * len(blocks) // workers for i in range(workers + 1)]
        _write_ranges(ds, fh, path, [blocks[a:b] for a, b in zip(ends, ends[1:])])


def _write_blocks(ds, fh, blocks):
    """Write to the binary file fh the rows of the blocks that start at
    the rows in blocks, a range whose step is the block's row count."""
    for start in blocks:
        block = slice(start, start + blocks.step)
        fh.write(format_rows(ds.features[block], ds.labels[block]))


def _write_ranges(ds, fh, path, ranges):
    """write_csv's rows on len(ranges) CPUs: ranges[0] here, each other
    range in a forked child, appended to fh in order."""
    jobs = [
        (f"writing rows {blocks[0] + 1}-{min(blocks[-1] + blocks.step, ds.n_rows)}", blocks)
        for blocks in ranges[1:]
    ]
    with _forked(path, partial(_write_blocks, ds), jobs) as parts:
        _write_blocks(ds, fh, ranges[0])
        for part in parts:
            shutil.copyfileobj(part, fh, 2**20)


@contextmanager
def _forked(path, run, jobs):
    """Run run(part, job) in a forked child for each (what, job) in jobs,
    each child writing its own unnamed temporary file part, and give an
    iterator over the parts, in order, each rewound once its child has
    exited. fork, not spawn, so that a child reads what this process
    holds where it lies and nothing is pickled; a child ends in
    os._exit, so it never flushes a copy of this process's buffers. A
    child that fails prints its traceback and exits 1, and the iterator
    raises OSError naming path and what. On leaving the block, whatever
    the exception (KeyboardInterrupt included) or at a return, every
    child not yet reaped is killed and reaped."""
    running = []  # children not yet reaped
    with ExitStack() as files:
        try:
            children = []
            for what, job in jobs:
                part = files.enter_context(tempfile.TemporaryFile())
                pid = os.fork()
                if pid == 0:
                    _child(run, part, job)
                running.append(pid)
                children.append((pid, part, what))

            def reaped():
                for pid, part, what in children:
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    running.remove(pid)
                    if code:
                        raise OSError(f"{path}: the process {what} exited with status {code}")
                    part.seek(0)
                    yield part

            yield reaped()
        finally:
            for pid in running:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _child(run, part, job):
    """A forked child's whole run: run(part, job), then exit, 0 on success
    and 1 after printing the traceback."""
    try:
        run(part, job)
        part.flush()
        os._exit(0)
    except BaseException:
        traceback.print_exc()  # the parent's error names only the path and the job
    finally:
        os._exit(1)


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


def infer_schema(path, label, categorical=(), drop=()):
    """Build a schema from a file header: named label, listed drops and
    categoricals, everything else numeric. A listed column that is not in
    the header is a SchemaError naming it, and so is a pipe: its header is
    read here, and load_csv would have to open it a second time."""
    if stat.S_ISFIFO(os.stat(path).st_mode):
        raise SchemaError(f"{path}: a pipe can be read only once")
    with closing(_blocks(path, array("q"))) as records:
        header = next(records)
    if label not in header:
        raise SchemaError(f"{path}: label column {label!r} not in header")
    for what, names in (("drop", drop), ("categorical", categorical)):
        unknown = [name for name in names if name not in header]
        if unknown:
            raise SchemaError(f"{path}: {what} columns {unknown} not in header")
    schema = []
    for name in header:
        if name == label:
            schema.append(ColumnSchema(name, "label", "forbid"))
        elif name in drop:
            schema.append(ColumnSchema(name, "drop"))
        elif name in categorical:
            schema.append(ColumnSchema(name, "categorical"))
        else:
            schema.append(ColumnSchema(name, "numeric"))
    return schema
