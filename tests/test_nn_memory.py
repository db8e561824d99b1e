"""Scoring memory is bounded: predict_proba works through fixed row blocks."""

from memprobe import peak_rise_mb

SETUP = """
import numpy as np
from fraudkit.models import build_cnn2d

net = build_cnn2d(30).initialize(0)
X = np.random.default_rng(0).normal(size=(40_000, 30))
net.predict_proba(X[:8])
"""

STEP = """
p = net.predict_proba(X)
assert p.shape == (40_000,)
"""


def test_cnn2d_predict_peak_rss_is_bounded():
    rise_mb = peak_rise_mb(SETUP, STEP)
    assert rise_mb < 250, f"cnn2d predict on 40,000 rows raised peak RSS by {rise_mb:.0f} MB"
