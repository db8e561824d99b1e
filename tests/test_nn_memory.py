"""Scoring memory is bounded: predict_proba works through fixed row blocks,
and no layer keeps its activations once scoring or training is done."""

import numpy as np
import pytest

from fraudkit.models import build_cnn1d, build_cnn2d, build_logreg, build_lstm
from fraudkit.nn.network import fit
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


def test_cnn2d_predict_keeps_no_activations():
    # Scoring holds one layer's working set of a 512-row block at a time: the
    # rise is about 11 MB. Keeping every layer's activations of a block, and
    # the previous block's until they are overwritten, raises it to about
    # 21 MB, and 4,096-row blocks to about 88 MB; both exceed this bound.
    rise_mb = peak_rise_mb(SETUP, STEP)
    assert rise_mb < 16, f"cnn2d predict on 40,000 rows raised peak RSS by {rise_mb:.0f} MB"


BUILDERS = {"cnn2d": build_cnn2d, "cnn1d": build_cnn1d, "lstm": build_lstm, "logreg": build_logreg}


def held_arrays(net):
    """(layer index, attribute) of each array a layer holds besides its
    parameters and gradients, found through lists and tuples too."""

    def has_array(value):
        if isinstance(value, np.ndarray):
            return True
        return isinstance(value, (list, tuple)) and any(map(has_array, value))

    return [
        (i, name)
        for i, layer in enumerate(net.layers)
        for name, value in vars(layer).items()
        if name not in ("params", "grads") and has_array(value)
    ]


@pytest.mark.parametrize("validate", [True, False], ids=["val", "no-val"])
@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_fitted_and_scored_networks_hold_no_activations(kind, validate):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 30))
    y = (X[:, 0] > 0.5).astype(np.int64)
    val = (X[150:], y[150:]) if validate else (None, None)
    net = BUILDERS[kind](30)
    fit(net, X[:150], y[:150], *val, epochs_max=2, batch_size=32, seed=1)
    assert held_arrays(net) == []
    net.predict_proba(X)
    assert held_arrays(net) == []
