"""Forest fit memory is bounded: each tree grows on its distinct bootstrap
rows with the draw counts as weights, from one transposed copy of X."""

from memprobe import peak_rise_mb

N_ROWS, N_FEATURES = 200_000, 30

SETUP = """
import numpy as np
from fraudkit.trees import RandomForestClassifier

rng = np.random.default_rng(0)
X = rng.normal(size=(200_000, 30))
y = (X[:, 0] + rng.normal(size=200_000) > 2).astype(np.int64)
RandomForestClassifier(n_trees=1, max_depth=2).fit(X[:500], y[:500])
"""

STEP = """
forest = RandomForestClassifier(n_trees=2, max_depth=4, seed=1).fit(X, y)
assert len(forest.trees_) == 2
"""


def test_forest_fit_peak_rss_is_bounded():
    # X.T once per fit is 1.0x X; a per-tree copy of X[boot] and its
    # transpose, as bootstrap sampling by rows makes, is 2.0x more.
    x_mb = N_ROWS * N_FEATURES * 8 / 2**20
    rise_mb = peak_rise_mb(SETUP, STEP)
    assert rise_mb < 1.6 * x_mb, (
        f"a forest fit on a {x_mb:.0f} MB X raised peak RSS by {rise_mb:.0f} MB"
    )
