"""CART decision tree and bagged-tree forest baselines.

Split search is exact and presorted (SLIQ, Mehta, Agrawal & Rissanen
1996): a fit argsorts each feature once, and each split partitions
those index lists, keeping their order, instead of re-sorting every
feature at every node. The search reads class counts only where the
sorted value changes, so the order of rows with equal values never
matters, and the trees, ties included, are the ones a per-node sort
gives.
"""

import math
from dataclasses import dataclass

import numpy as np

from fraudkit.base import BaseEstimator, NotFittedError, check_X_y
from fraudkit.rng import derive_seed, generator


@dataclass
class TreeNode:
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    prob: float = 0.0  # positive fraction at leaves

    @property
    def is_leaf(self):
        return self.feature is None

    def to_dict(self):
        if self.is_leaf:
            return {"prob": self.prob}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, d):
        if "feature" not in d:
            return cls(prob=d["prob"])
        return cls(
            feature=d["feature"],
            threshold=d["threshold"],
            left=cls.from_dict(d["left"]),
            right=cls.from_dict(d["right"]),
        )


def _gini_part(pos, n):
    # n * Gini for one side; Gini g = 1 - p^2 - (1-p)^2.
    neg = n - pos
    return n - (pos * pos + neg * neg) / n


def _best_split(X, y, sorted_idx, features, min_leaf):
    """Best (feature, threshold) by Gini over midpoints of sorted distinct
    values; ties broken by lower feature index, then lower threshold.

    sorted_idx[j] lists the node's rows in ascending order of feature j;
    rows with equal values may come in any order, because class counts
    are only read where the value changes.
    """
    n = sorted_idx.shape[1]
    total_pos = int(y[sorted_idx[0]].sum())
    parent = _gini_part(total_pos, n)
    best = (None, None, parent)
    sizes_l = np.arange(1, n, dtype=np.float64)
    for j in features:
        order = sorted_idx[j]
        xs = X[order, j]
        pos_l = np.cumsum(y[order])[:-1].astype(np.float64)
        valid = (xs[:-1] != xs[1:]) & (sizes_l >= min_leaf) & (n - sizes_l >= min_leaf)
        if not valid.any():
            continue
        score = _gini_part(pos_l, sizes_l) + _gini_part(total_pos - pos_l, n - sizes_l)
        score[~valid] = np.inf
        i = int(np.argmin(score))  # argmin keeps the lowest threshold on ties
        if score[i] < best[2]:
            best = (j, _midpoint(xs[i], xs[i + 1]), score[i])
    return best[0], best[1]


def _midpoint(a, b):
    """Threshold between sorted neighbours a < b: their midpoint, or a where
    the midpoint rounds up to b (0.3 and 0.1 + 0.2) or overflows. A split
    then always sends a left and b right."""
    a, b = float(a), float(b)  # Python floats overflow to inf without a warning
    mid = (a + b) / 2.0
    return mid if a <= mid < b else a


def _grow(X, y, max_depth, min_leaf, max_features, rng):
    """Grow a tree depth-first, left child first, from presorted index lists.

    Each feature is argsorted once; a split partitions every list with one
    gather, keeping each list's order, so every node's lists are sorted by
    their feature. A node's lists are dropped when the next node is taken,
    and the pending nodes hold disjoint rows, so index memory stays
    O(features * rows) at any depth. Nodes are grown in the order recursion
    would grow them, so the forest's feature draws come in the same order.
    """
    n_features = X.shape[1]
    if n_features == 0:
        return TreeNode(prob=float(y.mean()))
    goes_left = np.zeros(len(y), dtype=bool)
    root = TreeNode()
    pending = [(root, np.argsort(X, axis=0).T, 0)]
    while pending:
        node, sorted_idx, depth = pending.pop()
        rows = sorted_idx[0]
        node.prob = float(y[rows].mean())
        if (
            len(rows) < 2 * min_leaf
            or (max_depth is not None and depth >= max_depth)
            or node.prob in (0.0, 1.0)
        ):
            continue
        if max_features is None or max_features >= n_features:
            features = range(n_features)
        else:
            features = np.sort(rng.choice(n_features, size=max_features, replace=False))
        feature, threshold = _best_split(X, y, sorted_idx, features, min_leaf)
        if feature is None:
            continue
        node.feature = int(feature)
        node.threshold = float(threshold)
        node.left, node.right = TreeNode(), TreeNode()
        goes_left[rows] = X[rows, feature] <= threshold
        left = goes_left[sorted_idx]
        n_left = int(left[0].sum())
        right_idx = sorted_idx[~left].reshape(n_features, len(rows) - n_left)
        left_idx = sorted_idx[left].reshape(n_features, n_left)
        pending.append((node.right, right_idx, depth + 1))
        pending.append((node.left, left_idx, depth + 1))
    return root


class DecisionTreeClassifier(BaseEstimator):
    """Greedy binary CART on Gini impurity; leaves hold positive fractions."""

    def __init__(self, max_depth=None, min_leaf=1, max_features=None, seed=0):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.max_features = max_features
        self.seed = seed
        self.root_ = None

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        if len(y) < self.min_leaf:
            raise ValueError(f"need at least min_leaf={self.min_leaf} rows")
        rng = generator(self.seed)
        self.root_ = _grow(X, y, self.max_depth, self.min_leaf, self.max_features, rng)
        return self

    def predict_proba(self, X):
        if self.root_ is None:
            raise NotFittedError("tree is not fitted")
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(len(X))
        self._fill(self.root_, X, np.arange(len(X)), out)
        return out

    def _fill(self, node, X, idx, out):
        if node.is_leaf:
            out[idx] = node.prob
            return
        mask = X[idx, node.feature] <= node.threshold
        self._fill(node.left, X, idx[mask], out)
        self._fill(node.right, X, idx[~mask], out)

    def predict(self, X, threshold=0.5):
        return (self.predict_proba(X) >= threshold).astype(np.int64)


class RandomForestClassifier(BaseEstimator):
    """Bagged CART trees with per-split random feature subsets.

    With n_trees=1, bootstrap=False and max_features=None the forest
    reduces exactly to a single DecisionTreeClassifier.
    """

    def __init__(
        self,
        n_trees=50,
        max_depth=None,
        min_leaf=1,
        max_features="sqrt",
        bootstrap=True,
        seed=0,
    ):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed
        self.trees_ = None

    def _resolve_max_features(self, n_features):
        if self.max_features == "sqrt":
            return max(1, int(math.isqrt(n_features)))
        return self.max_features

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        max_features = self._resolve_max_features(X.shape[1])
        self.trees_ = []
        for t in range(self.n_trees):
            tree_seed = derive_seed(self.seed, f"tree/{t}")
            if self.bootstrap:
                rng = generator(derive_seed(self.seed, f"bootstrap/{t}"))
                idx = rng.integers(0, len(y), size=len(y))
                Xt, yt = X[idx], y[idx]
            else:
                Xt, yt = X, y
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_leaf=self.min_leaf,
                max_features=max_features,
                seed=tree_seed,
            )
            self.trees_.append(tree.fit(Xt, yt))
        return self

    def predict_proba(self, X):
        if not self.trees_:
            raise NotFittedError("forest is not fitted")
        return np.mean([t.predict_proba(X) for t in self.trees_], axis=0)

    def predict(self, X, threshold=0.5):
        return (self.predict_proba(X) >= threshold).astype(np.int64)
