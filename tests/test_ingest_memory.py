"""Load memory is bounded: load_csv reads its file in fixed record blocks."""

import numpy as np

from fraudkit.ingest import write_csv
from fraudkit.synth import SyntheticSpec, gen_synthetic
from memprobe import peak_rise_mb

N_ROWS, N_FEATURES = 40_000, 30

SETUP = """
import sys
from fraudkit.ingest import infer_schema, load_csv

path, warm = sys.argv[1:]
load_csv(warm, infer_schema(warm, "is_fraud"))
schema = infer_schema(path, "is_fraud")
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
    _assert_bounded(peak_rise_mb(SETUP, STEP, str(path), str(warm)))


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
    _assert_bounded(peak_rise_mb(SETUP, GAPPED_STEP, str(path), str(warm)))
