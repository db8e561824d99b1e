import csv
import io
import os
import re
import struct
import threading
import time
from array import array
from collections import Counter
from contextlib import closing
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fraudkit import base, ingest
from fraudkit.ingest import (
    ColumnSchema,
    Dataset,
    MISSING_POLICIES,
    ParseError,
    SchemaError,
    encode_categoricals,
    infer_schema,
    load_csv,
    profile,
    write_csv,
)


def make_dataset(X, y, label="Class"):
    schema = [ColumnSchema(f"c{j}", "numeric") for j in range(np.shape(X)[1])]
    schema.append(ColumnSchema(label, "label"))
    return Dataset(schema, X, y)


class TestEncodeCategoricals:
    def test_two_level_first_appearance(self):
        codes, cats = encode_categoricals(["Y", "N", "Y"])
        assert codes.tolist() == [0, 1, 0]
        assert cats == ("Y", "N")

    def test_three_level(self):
        codes, _ = encode_categoricals(["a", "b", "c", "a"])
        assert codes.tolist() == [0, 1, 2, 0]

    def test_empty(self):
        codes, cats = encode_categoricals([])
        assert codes.tolist() == []
        assert cats == ()

    @given(st.lists(st.text(max_size=6)))
    def test_bijection_and_replay(self, values):
        codes, cats = encode_categoricals(values)
        # distinct strings <-> distinct codes
        assert len(cats) == len(set(values))
        assert sorted(set(codes.tolist())) == list(range(len(cats)))
        replay, _ = encode_categoricals(values, categories=cats)
        assert np.array_equal(codes, replay)

    def test_replay_rejects_unseen(self):
        _, cats = encode_categoricals(["a", "b"])
        with pytest.raises(ParseError):
            encode_categoricals(["c"], categories=cats)


class TestLoadCsv:
    def test_basic_load(self, tiny_csv):
        schema = infer_schema(tiny_csv, "Class", categorical=["country", "declined"])
        ds = load_csv(tiny_csv, schema)
        # the row with the missing amount is dropped (drop_row default)
        assert ds.n_rows == 5
        assert ds.n_features == 3
        assert ds.n_pos == 1
        assert ds.feature_names == ["amount", "country", "declined"]

    def test_all_missing_column_dropped(self, tmp_path):
        path = tmp_path / "scd.csv"
        rows = "\n".join(f"{i},,{i % 2}" for i in range(8))
        path.write_text("amt,txn_date,isFraudulent\n" + rows + "\n")
        schema = [
            ColumnSchema("amt", "numeric"),
            ColumnSchema("txn_date", "numeric", "drop_column"),
            ColumnSchema("isFraudulent", "label"),
        ]
        ds = load_csv(path, schema)
        assert ds.n_rows == 8
        assert ds.feature_names == ["amt"]

    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b,Class\n")
        ds = load_csv(path, infer_schema(path, "Class"))
        assert ds.n_rows == 0
        assert ds.n_features == 2

    def test_header_order_insensitive(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,Class\n1.0,0\n")
        schema = [ColumnSchema("Class", "label"), ColumnSchema("a", "numeric")]
        ds = load_csv(path, schema)
        assert ds.n_rows == 1

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,0\n")
        with pytest.raises(SchemaError):
            load_csv(path, [ColumnSchema("a", "numeric"), ColumnSchema("Class", "label")])

    def test_bad_label(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,Class\n1.0,2\n")
        with pytest.raises(ParseError, match="label"):
            load_csv(path, infer_schema(path, "Class"))

    def test_bad_numeric_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,Class\nxyz,0\n")
        with pytest.raises(ParseError, match="numeric"):
            load_csv(path, [ColumnSchema("a", "numeric"), ColumnSchema("Class", "label")])

    def test_missing_under_forbid(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,Class\n,0\n")
        schema = [ColumnSchema("a", "numeric", "forbid"), ColumnSchema("Class", "label")]
        with pytest.raises(ParseError, match="missing"):
            load_csv(path, schema)

    def test_ragged_row_names_file_line_past_blank_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,Class\n1.0,0\n\n\n2.0\n")
        with pytest.raises(ParseError, match="line 5 has 1 cells, expected 2"):
            load_csv(path, infer_schema(path, "Class"))

    def test_missing_under_forbid_names_file_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,Class\n1.0,0\n\n\n,1\n")
        schema = [ColumnSchema("a", "numeric", "forbid"), ColumnSchema("Class", "label")]
        with pytest.raises(ParseError, match="line 5: missing value in column 'a'"):
            load_csv(path, schema)

    def test_bad_label_names_file_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,Class\n1.0,0\n\n2.0,7\n")
        with pytest.raises(ParseError, match="line 4: label outside"):
            load_csv(path, infer_schema(path, "Class"))

    @pytest.mark.parametrize("cell", ["xyz", "inf", "-inf", "1e400", "-nan"])
    def test_bad_numeric_cell_names_column_and_line(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"a,b,Class\n1.0,2.0,0\n\n1.0,{cell},1\n")
        with pytest.raises(ParseError, match=f"line 4: .* in column 'b': '{cell}'"):
            load_csv(path, infer_schema(path, "Class"))

    def test_bad_cell_in_dropped_row_is_ignored(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,Class\n1.0,inf,0\n,xyz,1\n2.0,3.0,1\n")
        schema = [
            ColumnSchema("a", "numeric", "drop_row"),
            ColumnSchema("b", "numeric"),
            ColumnSchema("Class", "label"),
        ]
        with pytest.raises(ParseError, match="line 2: non-finite"):
            load_csv(path, schema)
        path.write_text("a,b,Class\n,inf,0\n1.0,2.0,1\n")
        assert load_csv(path, schema).features.tolist() == [[1.0, 2.0]]

    def test_duplicate_header_name(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,a,Class\n1,2,0\n")
        with pytest.raises(SchemaError, match="duplicate"):
            load_csv(path, [ColumnSchema("a", "numeric"), ColumnSchema("Class", "label")])

    def test_drop_kind_removed(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,a,Class\n7,1.5,0\n8,2.5,1\n")
        ds = load_csv(path, infer_schema(path, "Class", drop=["id"]))
        assert ds.feature_names == ["a"]

    def test_round_trip(self, tmp_path, tiny_csv):
        schema = infer_schema(tiny_csv, "Class", categorical=["country", "declined"])
        ds = load_csv(tiny_csv, schema)
        out = tmp_path / "copy.csv"
        write_csv(ds, out)
        ds2 = load_csv(out, infer_schema(out, "Class"))
        assert np.array_equal(ds.features, ds2.features)
        assert np.array_equal(ds.labels, ds2.labels)


# Reader oracle: a row-major, cell-by-cell load_csv kept as the reference
# for the column-wise reader. It spells out the contract: blank lines are
# skipped; errors name the file line; missing cells are judged column by
# column in header order before any cell is parsed; cells in dropped rows
# are never parsed.
ORACLE_MISSING = {"", "na", "nan", "null", "none"}


def reference_load(path, schema):
    by_name = {c.name: c for c in schema}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        records = [(reader.line_num, row) for row in reader if row]
    for line, row in records:
        if len(row) != len(header):
            raise ParseError(f"{path}: line {line} has {len(row)} cells, expected {len(header)}")
    names = [n for n in header if by_name[n].kind != "drop"]
    dropped, bad_rows = set(), set()
    for name in names:
        j = header.index(name)
        miss = [k for k, (_, row) in enumerate(records) if row[j].strip().lower() in ORACLE_MISSING]
        if not miss:
            continue
        if by_name[name].missing_policy == "forbid":
            raise ParseError(f"{path}: line {records[miss[0]][0]}: missing value in column {name!r}")
        if by_name[name].missing_policy == "drop_column" or len(miss) == len(records):
            if by_name[name].kind == "label":
                raise ParseError(f"{path}: cannot drop label column {name!r}")
            dropped.add(name)
        else:
            bad_rows.update(miss)
    names = [n for n in names if n not in dropped]
    kept = [rec for k, rec in enumerate(records) if k not in bad_rows]
    columns, labels, categories = [], [], {}
    for name in names:
        j = header.index(name)
        kind = by_name[name].kind
        if kind == "categorical":
            codes = {}
            columns.append([float(codes.setdefault(row[j], len(codes))) for _, row in kept])
            categories[name] = tuple(codes)
            continue
        values = []
        for line, row in kept:
            cell = row[j]
            what = "numeric cell" if kind == "numeric" else "label"
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: line {line}: unparseable {what} in column {name!r}: {cell!r}"
                ) from None
            if kind == "numeric" and not np.isfinite(v):
                raise ParseError(
                    f"{path}: line {line}: non-finite numeric cell in column {name!r}: {cell!r}"
                )
            if kind == "label" and v not in (0.0, 1.0):
                raise ParseError(
                    f"{path}: line {line}: label outside {{0,1}} in column {name!r}: {cell!r}"
                )
            values.append(v)
        if kind == "numeric":
            columns.append(values)
        else:
            labels = values
    features = np.array(columns, dtype=np.float64).reshape(len(columns), len(kept)).T
    feature_names = [n for n in names if by_name[n].kind != "label"]
    return feature_names, categories, features, np.array(labels, dtype=np.int64)


CLEAN_CELL = st.floats(allow_nan=False, allow_infinity=False).map(repr)
ODD_NUMERIC = st.sampled_from(
    ["", "NA", "nan", " NaN ", "null", "None", " ", " 1.5 ", '"2.25"', '"1,5"',
     "1_0", "-0", "1e400", "inf", "-inf", "-nan", "xyz"]
)
LABEL_CELL = st.sampled_from(["0", "1", "0", "1", " 1 ", "1.0", "0e0", "2", "x", "", "nan"])
CATEGORY_CELL = st.sampled_from(["AU", "US", "AU", " FR", '"a,b"', "", "na"])


@st.composite
def messy_files(draw):
    """(text, schema) of a small file mixing every kind of cell."""
    kinds = {"a": "numeric", "b": "numeric", "cat": "categorical", "id": "drop", "Class": "label"}
    header = draw(st.permutations(list(kinds)))
    schema = [
        ColumnSchema(n, kinds[n], draw(st.sampled_from(MISSING_POLICIES))) for n in header
    ]
    numeric = st.one_of(CLEAN_CELL, CLEAN_CELL, CLEAN_CELL, ODD_NUMERIC)
    cells = {"numeric": numeric, "drop": numeric, "categorical": CATEGORY_CELL, "label": LABEL_CELL}
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
        row = [draw(cells[kinds[n]]) for n in header]
        if draw(st.integers(0, 30)) == 0:
            row.pop()
        lines.append(",".join(row))
    return "\n".join(lines) + "\n", schema


def assert_loads_as_reference(path, schema):
    """load_csv at 1, 2 and 3 usable CPUs gives reference_load's dataset,
    or its error type and text."""
    try:
        names, categories, X, y = reference_load(path, schema)
    except (ParseError, SchemaError) as exc:
        for cpus in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp, pytest.raises(type(exc)) as got:
                mp.setattr(base, "usable_cpus", lambda: cpus)
                load_csv(path, schema)
            assert str(got.value) == str(exc)
        return
    for cpus in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(base, "usable_cpus", lambda: cpus)
            ds = load_csv(path, schema)
        assert ds.feature_names == names
        assert {c.name: c.categories for c in ds.schema if c.kind == "categorical"} == categories
        assert ds.features.shape == X.shape
        assert ds.features.tobytes() == X.tobytes()
        assert ds.labels.tobytes() == y.tobytes()


class TestReaderOracle:
    @settings(max_examples=300, deadline=None)
    @given(messy_files())
    def test_matches_cell_by_cell_reference(self, tmp_path_factory, file):
        text, schema = file
        path = tmp_path_factory.mktemp("oracle") / "messy.csv"
        path.write_text(text, encoding="utf-8")
        assert_loads_as_reference(path, schema)


@pytest.fixture(scope="class", params=[1, 2, 3])
def read_block_rows(request):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_READ_BLOCK_ROWS", request.param)
        yield request.param


@pytest.mark.usefixtures("read_block_rows")
class TestReaderOracleSmallBlocks(TestReaderOracle):
    """The oracle again with records read 1, 2 and 3 at a time, so that
    every file of more than a few rows spans several blocks."""


# Cells at the edge of the two paths: float() alone reads `1_0` and `١`,
# loadtxt alone `\x1c1`, both `\u20031`; the last two open or hold a quote.
EDGE_CELL = st.sampled_from(["1_0", "\u0661", "\x1c1", "\u20031", '"1', '1"'])
# Lines that csv.reader reads as one blank cell or as no record at all.
ODD_LINE = st.sampled_from([" \n", "\n", "\r"])


@st.composite
def numeric_messy_files(draw):
    """(text, schema) of a small file without a categorical column, whose
    blocks may take either path: mostly clean rows, some odd cells and
    lines, and CRLF or LF line ends."""
    kinds = {"a": "numeric", "b": "numeric", "id": "drop", "Class": "label"}
    header = draw(st.permutations(list(kinds)))
    schema = [
        ColumnSchema(n, kinds[n], draw(st.sampled_from(MISSING_POLICIES))) for n in header
    ]
    clean = {"numeric": CLEAN_CELL, "drop": CLEAN_CELL, "label": st.sampled_from(["0", "1"])}
    odd = st.one_of(ODD_NUMERIC, EDGE_CELL)
    odd = {"numeric": odd, "drop": odd, "label": LABEL_CELL}
    text = ",".join(header) + "\n"
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 5)) == 0:
            text += draw(ODD_LINE)
        # About one row in four holds an odd cell.
        at = draw(st.integers(0, 4 * len(header) - 1))
        row = [draw((odd if j == at else clean)[kinds[n]]) for j, n in enumerate(header)]
        if draw(st.integers(0, 30)) == 0:
            row.pop()
        text += ",".join(row) + draw(st.sampled_from(["\n", "\r\n"]))
    return text, schema


class TestReaderOracleBothPaths:
    """The reference against files whose blocks take the np.loadtxt path
    or the csv path, at blocks of 1, 2 and 3 lines and the default. At
    small blocks most files are long enough to be read in byte ranges."""

    @pytest.fixture(params=[1, 2, 3, None])
    def block_rows(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(ingest, "_READ_BLOCK_ROWS", request.param)

    @pytest.mark.usefixtures("block_rows")
    def test_matches_cell_by_cell_reference_on_both_paths(self, tmp_path_factory, monkeypatch):
        paths = Counter()
        parse, load_ranges = ingest._loadtxt_block, ingest._load_ranges

        def spy(*args):
            values = parse(*args)
            paths["csv" if values is None else "loadtxt"] += 1
            return values

        def ranges_spy(*args):  # None where the file is too short or a range refuses
            blocks = load_ranges(*args)
            paths["serial" if blocks is None else "ranges"] += 1
            return blocks

        monkeypatch.setattr(ingest, "_loadtxt_block", spy)
        monkeypatch.setattr(ingest, "_load_ranges", ranges_spy)

        @settings(max_examples=300, deadline=None)
        @given(numeric_messy_files())
        def check(file):
            text, schema = file
            path = tmp_path_factory.mktemp("oracle") / "messy.csv"
            path.write_bytes(text.encode("utf-8"))
            assert_loads_as_reference(path, schema)

        check()
        assert paths["loadtxt"] > 0 and paths["csv"] > 0, paths
        # At 3-line blocks a file takes the ranges only where its 6 to 8
        # rows are all clean, which too few examples draw to rely on.
        if ingest._READ_BLOCK_ROWS <= 2:
            assert paths["ranges"] > 0 and paths["serial"] > 0, paths


# Cells that reach np.loadtxt: the reader splits lines at line breaks and
# cells at commas, and a block with a _CSV_ONLY character skips loadtxt.
LOADTXT_CELL = st.one_of(
    st.floats().map(repr),
    st.text(
        st.sampled_from("0123456789+-.eEinfaty_ \t\x0b\x0c\x00\x1c\x1f\x85\xa0\u2003\u0661x"),
        max_size=8,
    ),
    st.text(max_size=8),
).filter(lambda cell: not any(c in cell for c in ingest._CSV_ONLY + ",\r\n"))


@settings(max_examples=2000, deadline=None)
@given(LOADTXT_CELL)
def test_every_cell_loadtxt_reads_float_reads_to_the_same_bits(cell):
    for line, at in ((f"{cell},0\n", 0), (f"0,{cell}\r\n", 1)):
        try:
            parsed = np.loadtxt([line], delimiter=",", comments=None, quotechar='"', ndmin=2)
        except ValueError:
            continue
        assert parsed.shape == (1, 2)
        assert struct.pack("<d", float(cell)) == struct.pack("<d", parsed[0, at])


class TestReadBlocks:
    """Precedence across read blocks of two lines."""

    @pytest.fixture(autouse=True)
    def two_record_blocks(self, monkeypatch):
        monkeypatch.setattr(ingest, "_READ_BLOCK_ROWS", 2)

    def test_later_forbid_missing_cell_beats_earlier_bad_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,Class\nxyz,1.0,0\n2.0,3.0,1\n3.0,4.0,0\n4.0,,1\n")
        schema = [
            ColumnSchema("a", "numeric"),
            ColumnSchema("b", "numeric", "forbid"),
            ColumnSchema("Class", "label"),
        ]
        with pytest.raises(ParseError, match="line 5: missing value in column 'b'"):
            load_csv(path, schema)

    def test_bad_cell_in_dropped_row_is_never_reported(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,Class\n1,2,0\n3,4,1\n5,6,0\n,inf,1\n7,8,2\n")
        schema = [
            ColumnSchema("a", "numeric", "drop_row"),
            ColumnSchema("b", "numeric"),
            ColumnSchema("Class", "label"),
        ]
        with pytest.raises(ParseError, match="line 6: label outside"):
            load_csv(path, schema)
        path.write_text("a,b,Class\n1,2,0\n3,4,1\n5,6,0\n,inf,1\n7,8,1\n")
        ds = load_csv(path, schema)
        assert ds.features.tolist() == [[1, 2], [3, 4], [5, 6], [7, 8]]
        assert ds.labels.tolist() == [0, 1, 0, 1]

    def test_all_missing_drop_row_column_is_dropped_and_rows_kept(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,gone,Class\n" + "".join(f"{i},,{i % 2}\n" for i in range(5)))
        ds = load_csv(path, infer_schema(path, "Class"))
        assert ds.feature_names == ["a"]
        assert ds.features[:, 0].tolist() == [0, 1, 2, 3, 4]

    def test_category_first_seen_in_dropped_row_is_not_code_zero(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,cat,Class\n,FR,0\n1,US,1\n2,FR,0\n3,AU,1\n")
        ds = load_csv(path, infer_schema(path, "Class", categorical=["cat"]))
        assert ds.schema[1].categories == ("US", "FR", "AU")
        assert ds.features[:, 1].tolist() == [0, 1, 2]

    def test_unseen_stored_category_is_named_at_first_kept_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,cat,Class\n,NZ,0\n1,US,1\n2,FR,0\n3,NZ,1\n4,DE,0\n")
        schema = [
            ColumnSchema("a", "numeric"),
            ColumnSchema("cat", "categorical", categories=("FR", "US")),
            ColumnSchema("Class", "label"),
        ]
        with pytest.raises(ParseError, match="line 5: category 'NZ' in column 'cat'"):
            load_csv(path, schema)
        path.write_text("a,cat,Class\n,NZ,0\n1,US,1\n2,FR,0\n3,US,1\n")
        ds = load_csv(path, schema)
        assert ds.schema[1].categories == ("FR", "US")
        assert ds.features[:, 1].tolist() == [1, 0, 1]

    @pytest.mark.parametrize("categorical", [[], ["cat"]])
    def test_block_of_only_blank_lines_loads(self, tmp_path, categorical):
        path = tmp_path / "d.csv"
        cells = [",AU", ",US"] if categorical else ["", ""]
        header = "a,cat,Class" if categorical else "a,Class"
        path.write_text(f"{header}\n1.5{cells[0]},0\n\n\r\n\n2.5{cells[1]},1\n")
        ds = load_csv(path, infer_schema(path, "Class", categorical=categorical))
        assert ds.features[:, 0].tolist() == [1.5, 2.5]
        assert ds.labels.tolist() == [0, 1]

    def test_bad_utf8_past_the_header_names_the_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,Class\n" + b"1.0,0\n" * 5000 + b"\xff,1\n")
        schema = infer_schema(path, "Class")
        with pytest.raises(ParseError, match=f"{path}: not UTF-8 text"):
            load_csv(path, schema)


class TestWriteCsv:
    def test_golden_bytes(self, tmp_path):
        schema = [
            ColumnSchema("amount", "numeric"),
            ColumnSchema("a,b", "numeric"),
            ColumnSchema('say "hi"', "numeric"),
            ColumnSchema("Class", "label"),
        ]
        X = [
            [0.1, 1e-05, 0.0001],
            [1e16, -0.0, 5e-324],
            [1.7976931348623157e308, 1.0, -2.5],
        ]
        path = tmp_path / "golden.csv"
        write_csv(Dataset(schema, X, [0, 1, 0]), path)
        assert path.read_bytes() == (
            b'amount,"a,b","say ""hi""",Class\r\n'
            b"0.1,1e-05,0.0001,0\r\n"
            b"1e+16,-0.0,5e-324,1\r\n"
            b"1.7976931348623157e+308,1.0,-2.5,0\r\n"
        )

    def test_golden_bytes_no_features(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_csv(make_dataset(np.empty((2, 0)), [1, 0]), path)
        assert path.read_bytes() == b"Class\r\n1\r\n0\r\n"

    def test_matches_csv_writer_across_blocks(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(5000, 3)) * 10.0 ** rng.integers(-8, 8, size=(5000, 3))
        y = rng.integers(0, 2, size=5000)
        path = tmp_path / "long.csv"
        write_csv(make_dataset(X, y), path)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["c0", "c1", "c2", "Class"])
        for row, label in zip(X, y):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
        assert path.read_bytes() == expected.getvalue().encode()

    @settings(deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
            elements=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
        )
    )
    def test_round_trip_bit_exact(self, tmp_path_factory, X):
        path = tmp_path_factory.mktemp("rt") / "rt.csv"
        ds = make_dataset(X, np.arange(X.shape[0]) % 2)
        write_csv(ds, path)
        back = load_csv(path, infer_schema(path, "Class"))
        assert back.feature_names == ds.feature_names
        assert back.features.shape == X.shape
        assert back.features.tobytes() == np.ascontiguousarray(X).tobytes()
        assert back.labels.tobytes() == ds.labels.tobytes()


# write_csv's CPU count before any test sets it.
REAL_CPUS = base.usable_cpus()


def use_cpus(monkeypatch, n):
    """Make write_csv see n usable CPUs; never more than one beyond the
    real count, so a test starts at most one child the machine has no CPU for."""
    if n > REAL_CPUS + 1:
        pytest.skip(f"{n} writers on {REAL_CPUS} CPUs")
    monkeypatch.setattr(base, "usable_cpus", lambda: n)


def assert_no_residue(directory, *names):
    """No child process is left, and directory holds only names."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir(directory)) == sorted(names)


def varied_dataset(n_rows):
    """Rows whose text lengths vary, so range ends fall mid-file at odd byte offsets."""
    rng = np.random.default_rng(n_rows)
    X = rng.normal(size=(n_rows, 3)) * 10.0 ** rng.integers(-8, 8, size=(n_rows, 3))
    return make_dataset(X, rng.integers(0, 2, size=n_rows))


def serial_bytes(ds, tmp_path, monkeypatch):
    use_cpus(monkeypatch, 1)
    write_csv(ds, tmp_path / "serial.csv")
    return (tmp_path / "serial.csv").read_bytes()


class TestWriteCsvRanges:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("n_rows", [0, 1, 127, 128, 129, 5000])
    def test_bytes_do_not_depend_on_cpus(self, tmp_path, monkeypatch, cpus, n_rows):
        ds = varied_dataset(n_rows)
        expected = serial_bytes(ds, tmp_path, monkeypatch)
        assert expected.count(b"\r\n") == n_rows + 1
        use_cpus(monkeypatch, cpus)
        write_csv(ds, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == expected
        assert_no_residue(tmp_path, "serial.csv", "out.csv")

    def test_this_process_formats_only_the_first_range(self, tmp_path, monkeypatch):
        # 5,000 rows are 40 blocks: 13, 13 and 14 of them on three writers.
        calls, real = [], ingest._write_blocks

        def spy(ds, fh, blocks):
            calls.append(blocks)  # a child appends to its own copy
            real(ds, fh, blocks)

        monkeypatch.setattr(ingest, "_write_blocks", spy)
        use_cpus(monkeypatch, 3)
        write_csv(varied_dataset(5000), tmp_path / "out.csv")
        assert calls == [range(0, 13 * 128, 128)]
        assert_no_residue(tmp_path, "out.csv")

    def test_serial_without_fork(self, tmp_path, monkeypatch):
        ds = varied_dataset(5000)
        expected = serial_bytes(ds, tmp_path, monkeypatch)
        use_cpus(monkeypatch, 2)
        monkeypatch.delattr(os, "fork")
        write_csv(ds, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == expected

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_output_that_is_not_a_regular_file_is_written_serially(self, tmp_path, monkeypatch):
        ds = varied_dataset(5000)
        expected = serial_bytes(ds, tmp_path, monkeypatch)
        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked to write a pipe"))
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_csv(ds, fifo)
        reader.join(timeout=30)
        assert not reader.is_alive() and got == [expected]
        assert_no_residue(tmp_path, "serial.csv", "pipe")

    def test_failed_child_names_the_path(self, tmp_path, monkeypatch):
        parent, real = os.getpid(), ingest._write_blocks

        def fail_in_child(ds, fh, blocks):
            if os.getpid() != parent:
                raise OSError("no space left in this test")
            real(ds, fh, blocks)

        monkeypatch.setattr(ingest, "_write_blocks", fail_in_child)
        use_cpus(monkeypatch, 2)
        path = tmp_path / "out.csv"
        with pytest.raises(OSError, match=f"{path}: the process writing rows 2561-5000 exited with status 1"):
            write_csv(varied_dataset(5000), path)
        assert_no_residue(tmp_path, "out.csv")

    def test_exception_in_parent_range_reaps_children(self, tmp_path, monkeypatch):
        parent = os.getpid()

        def interrupted(ds, fh, blocks):
            if os.getpid() != parent:
                time.sleep(60)  # a child the parent must kill
            raise KeyboardInterrupt

        monkeypatch.setattr(ingest, "_write_blocks", interrupted)
        use_cpus(monkeypatch, 3)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            write_csv(varied_dataset(5000), tmp_path / "out.csv")
        assert time.monotonic() - started < 30
        assert_no_residue(tmp_path, "out.csv")


# A file of 1,000 rows read in blocks of 50 lines: 20 blocks, cut into up
# to four byte ranges. The files are small, so a test may start more
# readers than the machine has CPUs.
MANY_ROWS, MANY_BLOCK_ROWS = 1000, 50


@pytest.fixture
def many_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "_READ_BLOCK_ROWS", MANY_BLOCK_ROWS)
    path = tmp_path / "many.csv"
    write_csv(varied_dataset(MANY_ROWS), path)
    return path


def read_at(monkeypatch, cpus, path, schema):
    """The values and file lines _blocks reads with cpus usable CPUs."""
    monkeypatch.setattr(base, "usable_cpus", lambda: cpus)
    lines = array("q")
    clean = partial(ingest._loadtxt_block, {c.name: c for c in schema})
    with closing(ingest._blocks(path, lines, clean)) as blocks:
        next(blocks)
        values = np.concatenate(list(blocks))
    return values, lines


def outcome_at(monkeypatch, cpus, path, schema):
    """load_csv's dataset, or its error type and text, with cpus usable CPUs."""
    monkeypatch.setattr(base, "usable_cpus", lambda: cpus)
    try:
        ds = load_csv(path, schema)
    except (ParseError, SchemaError) as exc:
        return type(exc), str(exc)
    return ds.feature_names, ds.features.tobytes(), ds.labels.tobytes()


def ranges_taken(monkeypatch):
    """A list that gets, for each load, whether its byte ranges were taken."""
    taken, real = [], ingest._load_ranges

    def spy(*args):
        blocks = real(*args)
        taken.append(blocks is not None)
        return blocks

    monkeypatch.setattr(ingest, "_load_ranges", spy)
    return taken


def first_cut(path, parts):
    """The end of range 0 of path's data when cut into parts ranges."""
    data = path.read_bytes()
    start = data.index(b"\n") + 1
    return data.index(b"\n", start + (len(data) - start) // parts) + 1


# Each edits the cells of one row, near the end of the file.
LAST_RANGE_FAULTS = {
    "quote": lambda cells: [b'"' + cells[0] + b'"', *cells[1:]],
    "blank-line": lambda cells: [b"\r\n" + cells[0], *cells[1:]],
    "missing-cell": lambda cells: [cells[0], b"", *cells[2:]],
    "bad-cell": lambda cells: [cells[0], b"xyz", *cells[2:]],
    "bad-utf8": lambda cells: [cells[0], b"\xff", *cells[2:]],
}


def break_row(path, row, fault):
    rows = path.read_bytes().split(b"\r\n")
    rows[row] = b",".join(LAST_RANGE_FAULTS[fault](rows[row].split(b",")))
    path.write_bytes(b"\r\n".join(rows))


class TestLoadCsvRanges:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    @pytest.mark.parametrize("ending", ["\r\n", "\n", "\r and \n"])
    def test_bits_and_lines_do_not_depend_on_cpus(self, many_blocks, monkeypatch, cpus, ending):
        text = many_blocks.read_bytes().decode()
        if ending == "\r and \n":  # every other line ends in a bare CR
            rows = text.split("\r\n")
            text = "".join(row + ("\r\n", "\r")[i % 2] for i, row in enumerate(rows[:-1]))
        else:
            text = text.replace("\r\n", ending)
        many_blocks.write_bytes(text.encode())
        schema = infer_schema(many_blocks, "Class")
        expected, expected_lines = read_at(monkeypatch, 1, many_blocks, schema)
        taken = ranges_taken(monkeypatch)
        values, lines = read_at(monkeypatch, cpus, many_blocks, schema)
        assert values.tobytes() == expected.tobytes()
        assert lines == expected_lines
        assert lines.tolist() == list(range(2, MANY_ROWS + 2))
        assert taken == [cpus > 1]

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_header_over_two_lines(self, many_blocks, monkeypatch, cpus):
        # The data starts after the header's two lines and its bytes, not
        # its characters: the quoted name holds a line break and a 2-byte
        # character.
        data = many_blocks.read_bytes()
        many_blocks.write_bytes(data.replace(b"c0,", '"\u00e70\r\nx",'.encode(), 1))
        schema = infer_schema(many_blocks, "Class")
        assert schema[0].name == "\u00e70\r\nx"
        expected, _ = read_at(monkeypatch, 1, many_blocks, schema)
        taken = ranges_taken(monkeypatch)
        values, lines = read_at(monkeypatch, cpus, many_blocks, schema)
        assert values.tobytes() == expected.tobytes()
        assert lines.tolist() == list(range(3, MANY_ROWS + 3))
        assert taken == [True]

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    @pytest.mark.parametrize("fault", list(LAST_RANGE_FAULTS))
    def test_fault_in_the_last_range_loads_as_on_one_cpu(
        self, many_blocks, monkeypatch, cpus, fault
    ):
        break_row(many_blocks, -3, fault)  # the last row but one
        schema = infer_schema(many_blocks, "Class")
        expected = outcome_at(monkeypatch, 1, many_blocks, schema)
        taken = ranges_taken(monkeypatch)
        assert outcome_at(monkeypatch, cpus, many_blocks, schema) == expected
        assert taken == [False]
        if fault in ("bad-cell", "bad-utf8"):
            assert expected[0] is ParseError
        else:
            assert len(expected[1]) == (MANY_ROWS - (fault == "missing-cell")) * 3 * 8

    @pytest.mark.filterwarnings("error")
    def test_block_of_only_blank_lines_loads_as_on_one_cpu(self, many_blocks, monkeypatch):
        # np.loadtxt warns of a block with no data; the ranges never give it
        # one. The first block is clean, and the second holds only blank lines.
        break_row(many_blocks, MANY_BLOCK_ROWS + 1, "blank-line")
        many_blocks.write_bytes(many_blocks.read_bytes().replace(b"\r\n\r\n", b"\r\n" * 150))
        schema = infer_schema(many_blocks, "Class")
        expected = outcome_at(monkeypatch, 1, many_blocks, schema)
        assert outcome_at(monkeypatch, 2, many_blocks, schema) == expected
        assert len(expected[1]) == MANY_ROWS * 3 * 8

    @pytest.mark.parametrize("n_rows", [2 * MANY_BLOCK_ROWS - 1, 2 * MANY_BLOCK_ROWS])
    def test_file_under_two_read_blocks_is_read_serially(self, tmp_path, monkeypatch, n_rows):
        monkeypatch.setattr(ingest, "_READ_BLOCK_ROWS", MANY_BLOCK_ROWS)
        path = tmp_path / "short.csv"
        write_csv(varied_dataset(n_rows), path)
        schema = infer_schema(path, "Class")
        expected = outcome_at(monkeypatch, 1, path, schema)
        ranges = ranges_taken(monkeypatch)
        assert outcome_at(monkeypatch, 2, path, schema) == expected
        assert ranges == [n_rows >= 2 * MANY_BLOCK_ROWS]

    def test_this_process_parses_only_the_first_range(self, many_blocks, monkeypatch):
        spans, real = [], ingest._range_blocks

        def spy(path, span, parse):
            spans.append(span)  # a child appends to its own copy
            return real(path, span, parse)

        monkeypatch.setattr(ingest, "_range_blocks", spy)
        outcome_at(monkeypatch, 3, many_blocks, infer_schema(many_blocks, "Class"))
        assert spans == [(len(b"c0,c1,c2,Class\r\n"), first_cut(many_blocks, 3))]
        assert_no_residue(many_blocks.parent, "many.csv")

    def test_serial_without_fork(self, many_blocks, monkeypatch):
        schema = infer_schema(many_blocks, "Class")
        expected = outcome_at(monkeypatch, 1, many_blocks, schema)
        monkeypatch.delattr(os, "fork")
        taken = ranges_taken(monkeypatch)
        assert outcome_at(monkeypatch, 2, many_blocks, schema) == expected
        assert taken == [False]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_input_that_is_not_a_regular_file_is_read_serially(self, many_blocks, monkeypatch):
        schema = infer_schema(many_blocks, "Class")
        expected = outcome_at(monkeypatch, 1, many_blocks, schema)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked to read a pipe"))
        fifo = many_blocks.parent / "pipe"
        os.mkfifo(fifo)
        data = many_blocks.read_bytes()
        writer = threading.Thread(target=lambda: fifo.write_bytes(data), daemon=True)
        writer.start()
        assert outcome_at(monkeypatch, 2, fifo, schema) == expected
        writer.join(timeout=30)
        assert not writer.is_alive()

    def test_refusal_in_the_first_range_kills_the_children(self, many_blocks, monkeypatch):
        break_row(many_blocks, 2, "quote")
        schema = infer_schema(many_blocks, "Class")
        expected = outcome_at(monkeypatch, 1, many_blocks, schema)
        parent, real = os.getpid(), ingest._range_blocks

        def slow_in_child(path, span, parse):
            if os.getpid() != parent:
                time.sleep(60)  # a child the parent must kill
            return real(path, span, parse)

        monkeypatch.setattr(ingest, "_range_blocks", slow_in_child)
        started = time.monotonic()
        assert outcome_at(monkeypatch, 3, many_blocks, schema) == expected
        assert time.monotonic() - started < 30
        assert_no_residue(many_blocks.parent, "many.csv")

    def test_failed_child_names_the_path(self, many_blocks, monkeypatch):
        parent, real = os.getpid(), ingest._range_blocks

        def fail_in_child(path, span, parse):
            if os.getpid() != parent:
                raise OSError("no space left in this test")
            return real(path, span, parse)

        monkeypatch.setattr(ingest, "_range_blocks", fail_in_child)
        size = many_blocks.stat().st_size
        ends = f"{first_cut(many_blocks, 2) + 1}-{size}"
        message = f"{many_blocks}: the process reading bytes {ends} exited with status 1"
        with pytest.raises(OSError, match=re.escape(message)):
            outcome_at(monkeypatch, 2, many_blocks, infer_schema(many_blocks, "Class"))
        assert_no_residue(many_blocks.parent, "many.csv")

    def test_exception_in_the_first_range_reaps_children(self, many_blocks, monkeypatch):
        parent = os.getpid()

        def interrupted(path, span, parse):
            if os.getpid() != parent:
                time.sleep(60)  # a child the parent must kill
            raise KeyboardInterrupt

        monkeypatch.setattr(ingest, "_range_blocks", interrupted)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            outcome_at(monkeypatch, 3, many_blocks, infer_schema(many_blocks, "Class"))
        assert time.monotonic() - started < 30
        assert_no_residue(many_blocks.parent, "many.csv")


class TestProfile:
    def test_counts(self):
        ds = make_dataset([[1.0], [2.0], [3.0], [4.0]], [0, 1, 0, 0])
        p = profile(ds)
        assert p.n_rows == 4
        assert p.fraud_fraction == 0.25
        assert p.columns["c0"]["mean"] == 2.5
        assert p.columns["c0"]["n_distinct"] == 4

    def test_pos_neg_partition(self, blobs):
        assert blobs.n_pos + blobs.n_neg == blobs.n_rows

    def test_empty_errors(self):
        ds = make_dataset(np.empty((0, 1)), [])
        with pytest.raises(ValueError):
            profile(ds)
