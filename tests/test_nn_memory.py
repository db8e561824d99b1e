"""Scoring memory is bounded: predict_proba works through fixed row blocks."""

import os
import subprocess
import sys
from pathlib import Path

import fraudkit

PROBE = """
import resource
import numpy as np
from fraudkit.models import build_cnn2d

net = build_cnn2d(30).initialize(0)
X = np.random.default_rng(0).normal(size=(40_000, 30))
net.predict_proba(X[:8])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
p = net.predict_proba(X)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert p.shape == (40_000,)
print((after - before) / 1024)
"""


def test_cnn2d_predict_peak_rss_is_bounded():
    # A fresh interpreter, so only this scoring call can raise its peak RSS.
    src = str(Path(fraudkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    rise_mb = float(out.strip())
    assert rise_mb < 250, f"cnn2d predict on 40,000 rows raised peak RSS by {rise_mb:.0f} MB"
