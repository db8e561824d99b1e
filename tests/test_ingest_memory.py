"""Load memory is bounded: load_csv reads its file in fixed record blocks."""

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

# One block of cells plus the interpreter's own allocations.
BLOCK_ALLOWANCE_MB = 16


def test_load_peak_rss_is_bounded(tmp_path):
    path, warm = tmp_path / "data.csv", tmp_path / "warm.csv"
    spec = SyntheticSpec(n_rows=N_ROWS, n_features=N_FEATURES, fraud_fraction=0.01, seed=3)
    write_csv(gen_synthetic(spec), path)
    write_csv(gen_synthetic(SyntheticSpec(n_rows=50, n_features=N_FEATURES, seed=3)), warm)
    rise_mb = peak_rise_mb(SETUP, STEP, str(path), str(warm))
    matrix_mb = N_ROWS * N_FEATURES * 8 / 2**20
    bound = 2 * matrix_mb + BLOCK_ALLOWANCE_MB
    assert rise_mb <= bound, (
        f"loading a {matrix_mb:.1f} MB matrix raised peak RSS by {rise_mb:.0f} MB (bound {bound:.0f})"
    )
