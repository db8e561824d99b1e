"""Load memory is bounded: load_csv reads its file in fixed record blocks."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fraudkit
from fraudkit.ingest import write_csv
from fraudkit.synth import SyntheticSpec, gen_synthetic

# The probe reads the kernel's own counters of its process: ru_maxrss of a
# child starts at its parent's peak, so under pytest it would hide the load.
PROBE = """
import sys
from fraudkit.ingest import infer_schema, load_csv

def status_mb(field):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(field)) / 1024

path, warm = sys.argv[1:]
load_csv(warm, infer_schema(warm, "is_fraud"))
schema = infer_schema(path, "is_fraud")
before = status_mb("VmRSS:")
ds = load_csv(path, schema)
after = status_mb("VmHWM:")
assert ds.features.shape == (40_000, 30)
print(ds.features.nbytes / 2**20, after - before)
"""

# One block of cells plus the interpreter's own allocations.
BLOCK_ALLOWANCE_MB = 16


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_load_peak_rss_is_bounded(tmp_path):
    path, warm = tmp_path / "data.csv", tmp_path / "warm.csv"
    spec = SyntheticSpec(n_rows=40_000, n_features=30, fraud_fraction=0.01, seed=3)
    write_csv(gen_synthetic(spec), path)
    write_csv(gen_synthetic(SyntheticSpec(n_rows=50, n_features=30, seed=3)), warm)
    # A fresh interpreter, so only this load can raise its peak RSS.
    src = str(Path(fraudkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(path), str(warm)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    matrix_mb, rise_mb = map(float, out.split())
    bound = 2 * matrix_mb + BLOCK_ALLOWANCE_MB
    assert rise_mb <= bound, (
        f"loading a {matrix_mb:.1f} MB matrix raised peak RSS by {rise_mb:.0f} MB (bound {bound:.0f})"
    )
