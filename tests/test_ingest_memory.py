"""Ingest memory is bounded: load_csv reads its file in fixed record
blocks in one byte range per CPU, and write_csv's parent holds one block
of text whatever the number of writers."""

import numpy as np

from fraudkit.ingest import write_csv
from fraudkit.synth import SyntheticSpec, gen_synthetic
from memprobe import minor_faults, peak_rise_mb

N_ROWS, N_FEATURES = 40_000, 30

SETUP = """
import sys
from fraudkit import base
from fraudkit.ingest import infer_schema, load_csv

path, warm, cpus, *categorical = sys.argv[1:]
base.usable_cpus = lambda: int(cpus)
load_csv(warm, infer_schema(warm, "is_fraud", categorical))
schema = infer_schema(path, "is_fraud", categorical)
"""

STEP = """
ds = load_csv(path, schema)
assert ds.features.shape == (40_000, 30)
"""

# Under the default drop_row policy a blank cell drops its row only.
GAPPED_STEP = """
ds = load_csv(path, schema)
assert ds.n_features == 30 and 30_000 < ds.n_rows < 40_000
"""

# One block of cells plus the interpreter's own allocations.
BLOCK_ALLOWANCE_MB = 16


def _write_files(tmp_path):
    path, warm = tmp_path / "data.csv", tmp_path / "warm.csv"
    spec = SyntheticSpec(n_rows=N_ROWS, n_features=N_FEATURES, fraud_fraction=0.01, seed=3)
    write_csv(gen_synthetic(spec), path)
    write_csv(gen_synthetic(SyntheticSpec(n_rows=50, n_features=N_FEATURES, seed=3)), warm)
    return path, warm


def _assert_bounded(rise_mb):
    matrix_mb = N_ROWS * N_FEATURES * 8 / 2**20
    bound = 2 * matrix_mb + BLOCK_ALLOWANCE_MB
    assert rise_mb <= bound, (
        f"loading a {matrix_mb:.1f} MB matrix raised peak RSS by {rise_mb:.0f} MB (bound {bound:.0f})"
    )


def test_load_peak_rss_is_bounded(tmp_path):
    path, warm = _write_files(tmp_path)
    _assert_bounded(peak_rise_mb(SETUP, STEP, str(path), str(warm), "1"))


def test_load_peak_rss_is_bounded_on_two_cpus(tmp_path):
    # This process parses the first half of the file and reads the other
    # half's values back from a child's temporary file a block at a time.
    path, warm = _write_files(tmp_path)
    _assert_bounded(peak_rise_mb(SETUP, STEP, str(path), str(warm), "2"))


def test_load_with_scattered_missing_cells_is_bounded(tmp_path):
    # Blanking one feature cell in 500 at random leaves a gap in nearly
    # every 1,024-line block of every column, so no part of the file is
    # clean; about 6% of rows are dropped.
    path, warm = _write_files(tmp_path)
    gaps = np.random.default_rng(11).random((N_ROWS, N_FEATURES)) < 0.002
    with open(path, newline="") as fh:
        lines = fh.read().split("\r\n")  # the header, the rows, then ""
    for r in np.flatnonzero(gaps.any(axis=1)).tolist():
        cells = lines[1 + r].split(",")
        for j in np.flatnonzero(gaps[r]).tolist():
            cells[j] = ""
        lines[1 + r] = ",".join(cells)
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))
    # At two CPUs each range reads its gapped blocks through csv.reader.
    _assert_bounded(peak_rise_mb(SETUP, GAPPED_STEP, str(path), str(warm), "2"))



def test_load_with_a_categorical_column_on_two_cpus_is_bounded(tmp_path):
    # Every block goes through csv.reader, and f00's 40,000 distinct cells
    # become categories: each range's and the whole file's mapping.
    path, warm = _write_files(tmp_path)
    _assert_bounded(peak_rise_mb(SETUP, STEP, str(path), str(warm), "2", "f00"))

# The set is drawn in place, so that the set-up peaks no higher than the
# matrix it keeps, and the warm-up write is small, so that its peak does
# not hide the step's.
WRITE_SETUP = """
import sys
import numpy as np
from fraudkit import base
from fraudkit.ingest import ColumnSchema, Dataset, write_csv

path, warm = sys.argv[1:]
base.usable_cpus = lambda: 2  # one child, so the parallel path runs
rng = np.random.default_rng(3)
schema = [ColumnSchema(f"V{j}", "numeric") for j in range(30)] + [ColumnSchema("Class", "label")]
ds = Dataset(schema, rng.normal(size=(40_000, 30)), rng.integers(0, 2, size=40_000))
write_csv(Dataset(schema, ds.features[:300], ds.labels[:300]), warm)
"""

WRITE_STEP = """
write_csv(ds, path)
"""

# The child's half of the 23 MB file is about 12 MB of text. Reading it
# back into the parent, as bytes and then as str, raised the peak by
# 23 MB, where appending it 1 MiB at a time and one 512-row block's
# formatting arrays raise it by about 2.5 MB.
WRITE_ALLOWANCE_MB = 6


def test_write_peak_rss_holds_no_child_text(tmp_path):
    path, warm = tmp_path / "data.csv", tmp_path / "warm.csv"
    rise_mb = peak_rise_mb(WRITE_SETUP, WRITE_STEP, str(path), str(warm))
    assert path.stat().st_size > 20 * 2**20
    assert rise_mb <= WRITE_ALLOWANCE_MB, (
        f"writing 40,000 rows raised the parent's peak RSS by {rise_mb:.1f} MB "
        f"(allowance {WRITE_ALLOWANCE_MB})"
    )


# Each writing process formats its range's blocks in arrays it allocates
# once, so the 40,000-row write takes about 2,700 minor faults, parent
# and child together, on a 2-vCPU VM. When every block allocated its
# arrays afresh, malloc handed their pages back to the system at each
# block's end, and the write took about 84,000.
WRITE_FAULTS = 15_000


def test_write_does_not_fault_its_pages_in_per_block(tmp_path):
    path, warm = tmp_path / "data.csv", tmp_path / "warm.csv"
    faults = minor_faults(WRITE_SETUP, WRITE_STEP, str(path), str(warm))
    assert faults <= WRITE_FAULTS, (
        f"writing 40,000 rows took {faults} minor page faults (bound {WRITE_FAULTS})"
    )
