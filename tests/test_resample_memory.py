"""NearMiss memory is bounded: distances are computed in fixed row blocks."""

import pytest

from memprobe import peak_rise_mb

SETUP = """
import sys
import numpy as np
from fraudkit.resample import NearMiss

rng = np.random.default_rng(0)
X = rng.normal(size=(100_000, 30))
y = np.zeros(100_000, dtype=np.int64)
y[rng.choice(100_000, size=300, replace=False)] = 1
version = int(sys.argv[1])
NearMiss(version=version, k=3, ratio=1.0).fit_resample(X[:2000], y[:2000])
"""

STEP = """
Xr, yr = NearMiss(version=version, k=3, ratio=1.0).fit_resample(X, y)
assert int((yr == 0).sum()) == 300
"""


@pytest.mark.parametrize("version", [1, 3])
def test_nearmiss_peak_rss_is_bounded(version):
    # A full 99,700 x 300 float64 distance matrix alone would be 239 MB.
    rise_mb = peak_rise_mb(SETUP, STEP, str(version))
    assert rise_mb < 120, f"NearMiss v{version} on 100,000 x 30 raised peak RSS by {rise_mb:.0f} MB"
