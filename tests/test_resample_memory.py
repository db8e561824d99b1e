"""NearMiss memory is bounded: distances are computed in fixed row blocks."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fraudkit

PROBE = """
import resource, sys
import numpy as np
from fraudkit.resample import NearMiss

rng = np.random.default_rng(0)
X = rng.normal(size=(100_000, 30))
y = np.zeros(100_000, dtype=np.int64)
y[rng.choice(100_000, size=300, replace=False)] = 1
version = int(sys.argv[1])
NearMiss(version=version, k=3, ratio=1.0).fit_resample(X[:2000], y[:2000])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
Xr, yr = NearMiss(version=version, k=3, ratio=1.0).fit_resample(X, y)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert int((yr == 0).sum()) == 300
print((after - before) / 1024)
"""


@pytest.mark.parametrize("version", [1, 3])
def test_nearmiss_peak_rss_is_bounded(version):
    # A fresh interpreter per version, so only this call can raise its peak RSS.
    # A full 99,700 x 300 float64 distance matrix alone would be 239 MB.
    src = str(Path(fraudkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(version)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    rise_mb = float(out.strip())
    assert rise_mb < 120, f"NearMiss v{version} on 100,000 x 30 raised peak RSS by {rise_mb:.0f} MB"
