"""CART decision tree and bagged-tree forest baselines.

Split search is exact. A full search (every feature, as a plain tree
does) is presorted (SLIQ, Mehta, Agrawal & Rissanen 1996): a fit
argsorts each feature once, and each split partitions those index
lists, keeping their order, instead of re-sorting every feature at
every node. A forest node searches only a few drawn features, and
partitioning every list for them is the cost that made scikit-learn
drop presorting (deprecated in 0.22, removed in 0.24), so forests keep
each node's rows only and argsort the drawn features over them.

Either way the search gathers a block of features' value-ordered rows
as one (features, rows) array from a transposed copy of X and scores
every candidate threshold in the block at once. It reads class counts
only where the sorted value changes, so the order of rows with equal
values never matters, and the trees, ties included, are the ones a
per-node stable sort gives.
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
        """Nested form, one dict per node. It recurses once per level, so
        bundles hold tree_to_lists instead."""
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
        """Read the nested form that bundles held before the flat lists."""
        if "feature" not in d:
            return cls(prob=d["prob"])
        return cls(
            feature=d["feature"],
            threshold=d["threshold"],
            left=cls.from_dict(d["left"]),
            right=cls.from_dict(d["right"]),
        )


def tree_to_lists(root):
    """A tree as parallel preorder lists: feature, threshold, left and
    right child index, and prob. A leaf has feature -1, threshold None
    and children -1. Built from an explicit stack, so depth is no limit."""
    lists = {"feature": [], "threshold": [], "left": [], "right": [], "prob": []}
    stack = [(root, None, None)]  # (node, parent index, parent's child list)
    while stack:
        node, parent, side = stack.pop()
        i = len(lists["prob"])
        if parent is not None:
            lists[side][parent] = i
        lists["feature"].append(-1 if node.is_leaf else node.feature)
        lists["threshold"].append(None if node.is_leaf else node.threshold)
        lists["left"].append(-1)
        lists["right"].append(-1)
        lists["prob"].append(node.prob)
        if not node.is_leaf:
            stack += [(node.right, i, "right"), (node.left, i, "left")]
    return lists


def tree_from_lists(lists):
    """The tree that tree_to_lists wrote. A child must come after its
    parent, as in preorder, so a malformed payload cannot form a cycle."""
    nodes = [TreeNode(prob=float(p)) for p in lists["prob"]]
    if not nodes or any(len(lists[k]) != len(nodes) for k in ("feature", "threshold", "left", "right")):
        raise ValueError("tree lists must be non-empty and of equal length")
    rows = zip(lists["feature"], lists["threshold"], lists["left"], lists["right"])
    for i, (feature, threshold, left, right) in enumerate(rows):
        if feature < 0:
            continue
        if not i < left < len(nodes) or not i < right < len(nodes):
            raise ValueError(f"tree node {i}: children {left}, {right} do not follow it")
        node = nodes[i]
        node.feature, node.threshold = feature, float(threshold)
        node.left, node.right = nodes[left], nodes[right]
    return nodes[0]


def _gini_part(pos, n):
    # n * Gini for one side; Gini g = 1 - p^2 - (1-p)^2.
    neg = n - pos
    return n - (pos * pos + neg * neg) / n


def _split_scores(pos_l, sizes_l, sizes_r, total_pos):
    """_gini_part(pos_l, sizes_l) + _gini_part(total_pos - pos_l, sizes_r):
    the same float operations, but in place, because on large nodes fresh
    memory for each temporary costs more than the arithmetic. Overwrites
    pos_l."""
    left = pos_l * pos_l
    neg = np.subtract(sizes_l, pos_l)
    neg *= neg
    left += neg
    left /= sizes_l
    np.subtract(sizes_l, left, out=left)
    pos_r = np.subtract(total_pos, pos_l, out=pos_l)
    np.subtract(sizes_r, pos_r, out=neg)
    neg *= neg
    pos_r *= pos_r
    pos_r += neg
    pos_r /= sizes_r
    np.subtract(sizes_r, pos_r, out=pos_r)
    left += pos_r
    return left


def _gather(XT, features, rows):
    """XT[features[i], rows[i]] (rows 2-D) or XT[features[i], rows] (1-D)
    as one (features, rows) array. It takes from the flattened XT with one
    index array, which runs about twice as fast as numpy's 2-D fancy index."""
    return XT.ravel()[rows + (features * XT.shape[1])[:, None]]


# Elements (features x rows) per gathered search block. A block holds at
# least one feature, so a root node on many rows searches one at a time.
SEARCH_BLOCK = 1 << 16


def _best_split(XT, y, rows, features, sorted_idx, min_leaf):
    """Best (feature, threshold) by Gini over midpoints of sorted distinct
    values; ties broken by lower feature index, then lower threshold.

    XT is X transposed and contiguous; features is ascending. With
    sorted_idx, row i lists the node's rows in ascending order of
    features[i]; without it each block argsorts its features over rows.
    Rows with equal values may come in any order, because class counts
    are only read where the value changes.
    """
    n = len(rows)
    total_pos = int(y[rows].sum())
    best = (None, None, _gini_part(total_pos, n))
    sizes_l = np.arange(1, n, dtype=np.float64)
    sizes_r = n - sizes_l
    size_ok = (sizes_l >= min_leaf) & (sizes_r >= min_leaf)
    step = max(1, SEARCH_BLOCK // n)
    for start in range(0, len(features), step):
        block = features[start : start + step]
        if sorted_idx is None:
            order = rows[np.argsort(_gather(XT, block, rows), axis=1)]
        else:
            order = sorted_idx[start : start + step]
        xs = _gather(XT, block, order)
        pos_l = np.cumsum(y[order], axis=1)[:, :-1]
        score = _split_scores(pos_l, sizes_l, sizes_r, total_pos)
        score[(xs[:, :-1] == xs[:, 1:]) | ~size_ok] = np.inf
        # Row-major argmin: lowest feature, then lowest threshold, on ties.
        f, i = np.unravel_index(np.argmin(score), score.shape)
        if score[f, i] < best[2]:
            best = (block[f], _midpoint(xs[f, i], xs[f, i + 1]), score[f, i])
    return best[0], best[1]


def _midpoint(a, b):
    """Threshold between sorted neighbours a < b: their midpoint, or a where
    the midpoint rounds up to b (0.3 and 0.1 + 0.2) or overflows. A split
    then always sends a left and b right."""
    a, b = float(a), float(b)  # Python floats overflow to inf without a warning
    mid = (a + b) / 2.0
    return mid if a <= mid < b else a


def _grow(X, y, max_depth, min_leaf, max_features, rng):
    """Grow a tree depth-first, left child first.

    A full search presorts: each feature is argsorted once, and a split
    partitions every list with one gather, keeping each list's order, so
    every node's lists are sorted by their feature. A forest node keeps
    only its rows and its search sorts the drawn features. A node's
    index arrays are dropped when the next node is taken, and the
    pending nodes hold disjoint rows, so index memory stays
    O(features * rows) for a full search and O(rows) for a forest at
    any depth. Nodes are grown in the order recursion would grow them,
    so the forest's feature draws come in the same order.
    """
    n_features = X.shape[1]
    if n_features == 0:
        return TreeNode(prob=float(y.mean()))
    XT = np.ascontiguousarray(X.T)
    y = y.astype(np.float64)  # 0/1 labels: their sums and means are exact
    full = max_features is None or max_features >= n_features
    goes_left = np.zeros(len(y), dtype=bool)
    root = TreeNode()
    # Each pending node carries its presorted lists (full search) or its rows.
    pending = [(root, np.argsort(XT, axis=1) if full else np.arange(len(y)), 0)]
    while pending:
        node, idx, depth = pending.pop()
        rows = idx[0] if full else idx
        node.prob = float(y[rows].mean())
        if (
            len(rows) < 2 * min_leaf
            or (max_depth is not None and depth >= max_depth)
            or node.prob in (0.0, 1.0)
        ):
            continue
        if full:
            features = np.arange(n_features)
        else:
            features = np.sort(rng.choice(n_features, size=max_features, replace=False))
        feature, threshold = _best_split(
            XT, y, rows, features, idx if full else None, min_leaf
        )
        if feature is None:
            continue
        node.feature = int(feature)
        node.threshold = float(threshold)
        node.left, node.right = TreeNode(), TreeNode()
        goes_left[rows] = XT[feature, rows] <= threshold
        left = goes_left[idx]
        shape = (*idx.shape[:-1], -1)  # every presorted list keeps the same rows
        pending.append((node.right, idx[~left].reshape(shape), depth + 1))
        pending.append((node.left, idx[left].reshape(shape), depth + 1))
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
        stack = [(self.root_, np.arange(len(X)))]  # explicit, so depth is no limit
        while stack:
            node, idx = stack.pop()
            if node.is_leaf:
                out[idx] = node.prob
            elif idx.size:
                mask = X[idx, node.feature] <= node.threshold
                stack += [(node.right, idx[~mask]), (node.left, idx[mask])]
        return out

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
