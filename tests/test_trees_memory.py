"""Tree and forest fit memory is bounded: a fit holds X's dense ranks,
half the size of X, and each node only its rows; a forest tree grows on
its distinct bootstrap rows with the draw counts as weights."""

from memprobe import peak_rise_mb

N_ROWS, N_FEATURES = 200_000, 30

SETUP = """
import numpy as np
from fraudkit.trees import DecisionTreeClassifier, RandomForestClassifier

rng = np.random.default_rng(0)
X = rng.normal(size=(200_000, 30))
y = (X[:, 0] + rng.normal(size=200_000) > 2).astype(np.int64)
RandomForestClassifier(n_trees=1, max_depth=2).fit(X[:500], y[:500])
DecisionTreeClassifier(max_depth=2).fit(X[:500], y[:500])
"""

STEPS = {
    "forest": """
forest = RandomForestClassifier(n_trees=2, max_depth=4, seed=1).fit(X, y)
assert len(forest.trees_) == 2
""",
    "tree": """
tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
assert tree.tree_["feature"][0] >= 0
""",
}


def assert_fit_peak_rss_is_bounded(kind):
    # The ranks are 0.5x X. A transposed float copy of X is 1.0x more, a
    # presorted index list per feature 2.0x, and a per-tree copy of X[boot]
    # and its transpose, as bootstrap sampling by rows makes, 2.0x.
    x_mb = N_ROWS * N_FEATURES * 8 / 2**20
    rise_mb = peak_rise_mb(SETUP, STEPS[kind])
    assert rise_mb < 1.6 * x_mb, (
        f"a {kind} fit on a {x_mb:.0f} MB X raised peak RSS by {rise_mb:.0f} MB"
    )


def test_forest_fit_peak_rss_is_bounded():
    assert_fit_peak_rss_is_bounded("forest")


def test_tree_fit_peak_rss_is_bounded():
    assert_fit_peak_rss_is_bounded("tree")
