"""Sampler memory is bounded: NearMiss gathers and measures its majority
rows one distance block at a time, and SMOTE writes its synthetic rows
into its output one block at a time."""

import pytest

from fraudkit.resample import BLOCK_ROWS
from memprobe import peak_rise_mb

N_ROWS, N_POS, N_FEATURES = 100_000, 300, 30

SETUP = """
import sys
import numpy as np
from fraudkit.resample import NearMiss, Smote

rng = np.random.default_rng(0)
X = rng.normal(size=(100_000, 30))
y = np.zeros(100_000, dtype=np.int64)
y[rng.choice(100_000, size=300, replace=False)] = 1
version = int(sys.argv[1])
NearMiss(version=version, k=3, ratio=1.0).fit_resample(X[:2000], y[:2000])
Smote(ratio=1.0, seed=2).fit_resample(X[:2000], y[:2000])
"""

STEP = """
Xr, yr = NearMiss(version=version, k=3, ratio=1.0).fit_resample(X, y)
assert int((yr == 0).sum()) == 300
"""

SMOTE_STEP = """
Xr, yr = Smote(ratio=1.0, seed=2).fit_resample(X, y)
assert len(yr) == 2 * 99_700
"""

# One BLOCK_ROWS x N_POS block of distances.
DISTANCE_BLOCK_MB = BLOCK_ROWS * N_POS * 8 / 2**20


@pytest.mark.parametrize("version", [1, 3])
def test_nearmiss_peak_rss_is_bounded(version):
    # A full 99,700 x 300 float64 distance matrix alone would be 228 MB,
    # and a copy of the majority rows 23 MB. A block's distances, their
    # product term, the previous block and a partitioned copy stay below
    # six blocks.
    rise_mb = peak_rise_mb(SETUP, STEP, str(version))
    bound = 6 * DISTANCE_BLOCK_MB
    assert rise_mb <= bound, (
        f"NearMiss v{version} on 100,000 x 30 raised peak RSS by {rise_mb:.0f} MB "
        f"(bound {bound:.0f})"
    )


def test_smote_holds_its_output_and_one_block():
    # The output is every row plus as many synthetic ones, and their labels;
    # the allowance covers one block of synthetic rows, the random draws and
    # the finiteness flags.
    n_syn = N_ROWS - 2 * N_POS
    output_mb = (N_ROWS + n_syn) * (N_FEATURES + 1) * 8 / 2**20
    rise_mb = peak_rise_mb(SETUP, SMOTE_STEP, "1")
    bound = output_mb + 10
    assert rise_mb <= bound, (
        f"Smote(ratio=1) on 100,000 x 30 raised peak RSS by {rise_mb:.0f} MB (bound {bound:.0f})"
    )
