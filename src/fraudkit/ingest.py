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
import pickle
import re
import shutil
import signal
import stat
import sys
import tempfile
import traceback
from array import array
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import chain, combinations, compress, islice

import numpy as np

from fraudkit import base
from fraudkit.base import FraudkitError, check_array, check_labels
from fraudkit.floatfmt import RowFormatter

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
        categories = tuple(dict.fromkeys(values))
    mapping = {v: i for i, v in enumerate(categories)}
    try:
        codes = np.array([mapping[v] for v in values], dtype=np.float64)
    except KeyError as exc:
        raise ParseError(f"value {exc.args[0]!r} not in stored category mapping") from exc
    return codes, tuple(categories)


# Raw file lines per read block. A block's cells, about 2.5 MB at 1,024
# lines of 31 cells, die before the next block is read. Blocks of 8,192
# records loaded about a tenth slower through csv.reader.
_READ_BLOCK_ROWS = 1024

# Characters that send a block to csv.reader. A quote may open a quoted
# cell, and np.loadtxt closes a quote left open at the end of its input, so
# a record that runs past a block's end would read as clean rows there. And
# loadtxt strips the ASCII separators FS, GS, RS and US as whitespace where
# float() rejects them.
_CSV_ONLY = '"\x1c\x1d\x1e\x1f'

# The lines csv.reader reads as no record.
_BLANK = ("\n", "\r\n", "\r")

# What errors="surrogateescape" decodes a byte that is not UTF-8 to.
_NOT_UTF8 = re.compile("[\udc80-\udcff]")

# The values a numeric or label part must hold to be clean.
_ACCEPT = {"numeric": np.isfinite, "label": lambda v: (v == 0) | (v == 1)}


class _Span(io.RawIOBase):
    """The unbuffered file fh from where it stands up to byte end (None: its end)."""

    def __init__(self, fh, end):
        self.fh, self.left = fh, sys.maxsize if end is None else end - fh.tell()

    def readable(self):
        return True

    def readinto(self, buf):
        n = self.fh.readinto(memoryview(buf)[: self.left])
        self.left -= n
        return n


def _text(fh, end=None):
    """The lines of _Span(fh, end), split as open(newline="") splits them;
    a byte that is not UTF-8 becomes a lone surrogate, which _utf8 finds."""
    return io.TextIOWrapper(_Span(fh, end), "utf-8", "surrogateescape", newline="")


def _utf8(lines):
    """Yield lines up to one holding a byte that is not UTF-8; there raise UnicodeError."""
    for line in lines:
        if not line.isascii() and _NOT_UTF8.search(line):
            raise UnicodeError
        yield line


def _header(path, lines):
    """The header record read from lines, and the lines it spans."""
    head = []
    reader = csv.reader(_utf8(head.append(line) or line for line in lines))
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeError:
        raise ParseError(f"{path}: line {len(head)}: not UTF-8 text") from None
    if header is None:
        raise ParseError(f"{path}: empty file, no header row")
    return header, head


def _spans(path, fh, start):
    """The byte ranges load_csv reads path's data in, where fh is path
    open unbuffered and the data starts at byte start."""
    cpus = base.fork_cpus()
    if cpus < 2 or not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        return [(start, None)]
    with open(path, "rb") as data:
        data.seek(start)
        breaks = 0
        for chunk in iter(partial(data.read, 2**20), b""):  # never the whole data at once
            if b'"' in chunk:
                return [(start, None)]  # a quoted cell may span a cut
            if breaks < 2 * _READ_BLOCK_ROWS:  # and no further
                breaks += chunk.count(b"\n")
        if breaks < 2 * _READ_BLOCK_ROWS:
            return [(start, None)]  # under two read blocks of line breaks
        size, cuts = data.tell(), [start]
        for i in range(1, cpus):
            data.seek(start + (size - start) * i // cpus)
            data.readline()  # on to just past the next line break
            cuts.append(data.tell())
    cuts.append(size)
    return [span for span in zip(cuts, cuts[1:]) if span[0] < span[1]]


class _Range:
    """What a byte range of load_csv's data, or the whole data, holds
    besides its values: records count from 0 and lines from 1."""

    def __init__(self, columns):
        self.records = self.line_count = 0
        self.lines = array("q")  # per record, the line it ends on
        self.missing = [array("q") for _ in columns]  # per kept column, records of missing cells
        self.bad = [[] for _ in columns]  # and [(record, cell)] of other rejected cells
        self.categories = {j: {} for j, c in enumerate(columns) if c.kind == "categorical"}
        self.error = None  # (line, the text after "line N") of the first structural error

    def extend(self, got, blocks):
        """Append range got, mapping the category codes in its blocks onto this one's."""
        self.lines.frombytes((np.frombuffer(got.lines, np.int64) + self.line_count).tobytes())
        for mine, theirs in zip(self.missing, got.missing):
            mine.frombytes((np.frombuffer(theirs, np.int64) + self.records).tobytes())
        for mine, theirs in zip(self.bad, got.bad):
            mine.extend((self.records + i, cell) for i, cell in theirs)
        for j, cells in got.categories.items():
            codes = self.categories[j]
            recode = np.array([codes.setdefault(cell, len(codes)) for cell in cells])
            for values in blocks:
                values[:, j] = recode[values[:, j].astype(np.intp)]
        self.records += got.records
        self.line_count += got.line_count


def _read_range(header, by_name, lines, put):
    """Read one range's lines in blocks of _READ_BLOCK_ROWS, put(values)
    each block's float64 values, and return the range's _Range. A block
    goes to np.loadtxt where _loadtxt_block takes it, else to csv.reader
    and float(), which reads every cell loadtxt takes to the same bits. A
    structural error (a record of other than the header's width, a
    csv.Error or a byte that is not UTF-8) ends the range."""
    taken = [by_name[n].kind != "drop" for n in header]
    columns = [by_name[n] for n in compress(header, taken)]
    got, read = _Range(columns), 0  # read: the lines read
    try:
        while raw := list(islice(lines, _READ_BLOCK_ROWS)):
            records = len(raw) - sum(map(raw.count, _BLANK))
            if not records:
                read += len(raw)
                continue
            values = _loadtxt_block(by_name, header, raw, records)
            if values is not None:
                got.lines.extend(i for i, line in enumerate(raw, read + 1) if line not in _BLANK)
                read += len(raw)
            else:
                # Reading on into the range, so that a quoted line break
                # across the block's end still parses.
                reader, rows = csv.reader(_utf8(chain(raw, lines))), []
                while reader.line_num < len(raw):
                    if row := next(reader):
                        if len(row) != len(header):
                            what = f" has {len(row)} cells, expected {len(header)}"
                            got.error = (read + reader.line_num, what)
                            return got
                        rows.append(row)
                        got.lines.append(read + reader.line_num)
                read += reader.line_num
                values = _csv_values(got, columns, taken, rows)
                del rows  # so the next block is read without these cells
            put(values)
            got.records += len(values)
    except csv.Error as exc:
        got.error = (read + reader.line_num, f": {exc}")
    except UnicodeError:  # raised before csv.reader counts the line
        got.error = (read + reader.line_num + 1, ": not UTF-8 text")
    got.line_count = read
    return got


def _csv_values(got, columns, taken, rows):
    """The float64 values of the kept columns of csv records that follow
    got's: float() of a numeric or label cell, NaN where that fails, and a
    categorical cell's code; missing and bad cells and categories go to got."""
    values = _mapped_empty(len(rows), len(columns))
    # One transpose to column-major cells; zip relies on the width check.
    for j, (col, cells) in enumerate(zip(columns, compress(zip(*rows), taken))):
        if col.kind == "categorical":
            codes = got.categories[j]
            values[:, j] = [codes.setdefault(cell, len(codes)) for cell in cells]
            if gaps := set(filter(_is_missing, set(cells))):
                got.missing[j].extend(got.records + i for i, c in enumerate(cells) if c in gaps)
            continue
        # Every missing token fails float() or parses to NaN, so _ACCEPT
        # rejects it along with the bad cells.
        values[:, j] = _parse_floats(cells)
        for i in np.flatnonzero(~_ACCEPT[col.kind](values[:, j])).tolist():
            if _is_missing(cells[i]):
                got.missing[j].append(got.records + i)
            else:
                got.bad[j].append((got.records + i, cells[i]))
    return values


def _loadtxt_block(by_name, header, raw, records):
    """The kept columns of a block of raw lines as parsed by numpy's C
    parser, or None where the schema has a categorical column, a line
    holds a _CSV_ONLY character or is longer than csv's field limit,
    loadtxt raises or reads other than one row per record at the header's
    width, or a cell is not clean. loadtxt, like float(), raises at the
    lone surrogate a byte that is not UTF-8 is read as."""
    kinds = np.array([by_name[name].kind for name in header])
    text = "".join(raw)
    if "categorical" in kinds or max(map(len, raw)) > csv.field_size_limit():
        return None
    if any(c in text for c in _CSV_ONLY):
        return None
    try:
        parsed = np.loadtxt(raw, delimiter=",", comments=None, quotechar='"', ndmin=2)
    except ValueError:
        return None
    if parsed.shape != (records, len(header)) or not all(
        accept(parsed[:, kinds == kind]).all() for kind, accept in _ACCEPT.items()
    ):
        return None
    taken = kinds != "drop"
    return np.compress(taken, parsed, axis=1, out=_mapped_empty(records, np.count_nonzero(taken)))


def _read_part(path, read, part, span):
    """A forked child's range, to the file part: each block's row count in
    8 bytes and float64 values, 8 zero bytes, then the pickled _Range."""

    def put(values):
        part.write(len(values).to_bytes(8, "little"))
        part.write(values)

    with open(path, "rb", buffering=0) as fh:
        fh.seek(span[0])
        got = read(_text(fh, span[1]), put)
    part.write(bytes(8))
    pickle.dump(got, part)


def _read_back(width, part):
    """A child's _Range and its float64 blocks of width values a row."""
    blocks = []
    while rows := int.from_bytes(part.read(8), "little"):
        blocks.append(_mapped_empty(rows, width))
        part.readinto(blocks[-1])
    return pickle.load(part), blocks


def _read(path, by_name):
    """path's kept columns, in header order, its data's float64 blocks and
    the _Range of the whole data, read as load_csv describes."""
    with open(path, "rb", buffering=0) as fh:
        lines = _text(fh)
        header, head = _header(path, lines)
        if sorted(header) != sorted(by_name):
            missing = set(by_name) - set(header)
            extra = set(header) - set(by_name)
            duplicate = {n for n in header if header.count(n) > 1}
            raise SchemaError(
                f"{path}: header does not match schema (missing: {sorted(missing)}, "
                f"unexpected: {sorted(extra)}, duplicate: {sorted(duplicate)})"
            )
        columns = [by_name[n] for n in header if by_name[n].kind != "drop"]
        start = len("".join(head).encode("utf-8", "surrogateescape"))
        spans = _spans(path, fh, start)
        if len(spans) > 1:
            fh.seek(start)
            lines = _text(fh, spans[0][1])
        read = partial(_read_range, header, by_name)
        jobs = [(f"reading bytes {a + 1}-{b}", (a, b)) for a, b in spans[1:]]
        with _forked(path, partial(_read_part, path, read), jobs) as parts:
            whole, blocks, first = _Range(columns), [], []
            whole.line_count = len(head)
            children = map(partial(_read_back, len(columns)), parts)
            for got, own in chain([(read(lines, first.append), first)], children):
                if got.error:  # the earliest in the file; at range 0 the children are killed
                    line, what = got.error
                    raise ParseError(f"{path}: line {whole.line_count + line}{what}")
                whole.extend(got, own)
                blocks.extend(own)
    return columns, blocks, whole


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
    ends on) and, for a bad cell, its column. The earliest structural
    error (a record of other than the header's width, a csv.Error, or a
    byte that is not UTF-8, header included) comes first, then every
    missing-value error, then any parse error; a bad cell in a row
    dropped for a missing value is never reported.

    The data after the header is cut at line breaks into one byte range
    per usable CPU; it is one range where fork is missing, path is not a
    regular file, or the data holds under two read blocks of lines or any
    quote. Counting a line's quotes cannot tell whether a quoted cell
    spans a cut: csv.reader reads `x"y,"a` and `b",z"w`, two quotes each,
    as one record ['x"y', 'a\\r\\nb', 'z"w'], as a quote opens a quoted cell
    only at a cell's start. This process reads range 0, and a forked child
    each other range, through _read_range; a child hands back its values
    through an unnamed temporary file, read back a block at a time, then
    a pickle of its _Range. This process raises the earliest structural
    error (range 0's before it waits for any child, killing them), then
    offsets each range's records and lines and maps its category codes
    onto the file's. So every loaded bit, line and error is the same at
    every CPU count. A failed child raises OSError naming path.

    Then the missing-value pass and the drops read the record indices of
    missing cells, each kept column in header order reports its first bad
    cell in a kept row, category codes are renumbered by first appearance
    among the kept rows, and the feature matrix is filled block by block,
    each block's memory map freed as it goes. So peak memory is about one
    float matrix plus one block of cells per reader, 8 bytes per missing
    cell and the text of each bad cell.
    """
    schema = list(schema)
    _validate_schema(schema)
    by_name = {c.name: c for c in schema}
    columns, blocks, got = _read(path, by_name)
    file_lines = np.frombuffer(got.lines, dtype=np.int64)
    keep = np.ones(len(file_lines), dtype=bool)

    # Missing-value pass: drop_column removes any column containing a
    # missing cell; drop_row marks rows; forbid errors out.
    kept = []  # indices into columns
    for j, col in enumerate(columns):
        miss = np.frombuffer(got.missing[j], dtype=np.int64)
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
    starts = np.cumsum([0] + [len(v) for v in blocks])
    keeps = [keep[a:b] for a, b in zip(starts, starts[1:])]

    # Cell checks and final category codes, column by column in header order.
    out_schema = []
    for j in kept:
        col = columns[j]
        out_schema.append(ColumnSchema(col.name, col.kind, col.missing_policy))
        if col.kind != "categorical":
            for record, cell in got.bad[j]:
                if keep[record]:
                    raise _cell_error(path, file_lines[record], col, cell)
            continue
        running = np.concatenate([v[k, j] for v, k in zip(blocks, keeps)] or [np.empty(0)])
        codes, first = encode_categoricals(running.astype(np.intp).tolist())
        cells = list(got.categories[j])
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
    del got

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
# features. A RowFormatter's arrays take about 166 bytes a value, 2.5 MB
# for a block, allocated once by each process that writes a range;
# smaller blocks pay numpy's per-call overhead more often.
_WRITE_BLOCK_VALUES = 512 * 30


def write_csv(ds, path):
    """Write the dataset as comma-delimited UTF-8 text.

    The header goes through csv.writer, which quotes names that need it.
    Each data row holds the shortest round-trip repr of every feature,
    then the integer label, and ends in CRLF: the bytes csv.writer's
    excel dialect writes for those cells, so load_csv(write_csv(ds)) is
    bit-exact. A floatfmt.RowFormatter computes those bytes for a block
    of rows at once in numpy, calling repr only for subnormals and the
    values repr writes in exponent form. A block holds
    _WRITE_BLOCK_VALUES // n_features rows, and at least one; each range
    formats all its blocks in the arrays of one formatter, so a write
    faults its pages in once per process, not once per block.

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
        workers = max(1, min(base.fork_cpus(), len(blocks)))  # one empty range for no rows
        ends = [i * len(blocks) // workers for i in range(workers + 1)]
        _write_ranges(ds, fh, path, [blocks[a:b] for a, b in zip(ends, ends[1:])])


def _write_blocks(ds, fh, blocks):
    """Write to the binary file fh the rows of the blocks that start at
    the rows in blocks, a range whose step is the block's row count. One
    RowFormatter, made here, formats every block of the range, so each
    process that writes a range allocates its formatting arrays once."""
    formatter = RowFormatter(min(blocks.step, ds.n_rows), ds.n_features)
    for start in blocks:
        block = slice(start, start + blocks.step)
        fh.write(formatter.format(ds.features[block], ds.labels[block]))


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
    holds where it lies; a child ends in os._exit, so it never flushes a
    copy of this process's buffers. A
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
    categoricals, everything else numeric. A column that two of these name,
    or that is not in the header, is a SchemaError naming it, as is a pipe:
    its header is read here, and load_csv would have to open it again."""
    lists = {"label": [label], "drop": drop, "categorical": categorical}
    for a, b in combinations(lists, 2):
        both = [name for name in lists[a] if name in lists[b]]
        if both:
            raise SchemaError(f"{path}: column {both[0]!r} is named in both {a} and {b}")
    if stat.S_ISFIFO(os.stat(path).st_mode):
        raise SchemaError(f"{path}: a pipe can be read only once")
    with open(path, "rb", buffering=0) as fh:
        header, _ = _header(path, _text(fh))
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
