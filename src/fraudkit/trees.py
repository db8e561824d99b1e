"""CART decision tree and bagged-tree forest baselines.

A fitted tree is five parallel preorder lists (TREE_KEYS), in memory
and in bundles alike, as scikit-learn's Tree keeps node arrays rather
than node objects. A leaf has feature -1, threshold None and children
-1; prob is the positive fraction of a node's training rows.

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

A forest tree grows on its bootstrap sample as scikit-learn's forests
do: on the distinct rows drawn (about 1 - 1/e, 63%, of the draws), each
weighted by its draw count, from the one transposed X of the fit rather
than a copy of the sample. Sizes, class counts and probs become sums of
weights; the counts are small integers, so those sums are exact, every
candidate split scores as it does on the rows repeated by their counts,
and the tree is that tree bit for bit. A plain tree counts each row
once and keeps its shared sizes.
"""

import math

import numpy as np

from fraudkit.base import BaseEstimator, NotFittedError, check_object, check_X_y
from fraudkit.rng import derive_seed, generator


TREE_KEYS = ("feature", "threshold", "left", "right", "prob")


def check_tree(tree, n_features):
    """Raise ValueError unless tree's TREE_KEYS are non-empty lists of equal
    length in which every prob is a number in [0, 1] and every feature -1
    (a leaf, whose children are -1) or an int in [0, n_features), and a
    split's threshold is finite and its children ints that follow it, so
    that no cycle forms."""
    n = len(tree["prob"])
    if not n or any(type(tree[k]) is not list or len(tree[k]) != n for k in TREE_KEYS):
        raise ValueError("tree lists must be non-empty and of equal length")
    nodes = zip(*(tree[k] for k in TREE_KEYS))
    for i, (feature, threshold, left, right, prob) in enumerate(nodes):
        if type(prob) not in (int, float) or not 0 <= prob <= 1:
            raise ValueError(f"tree node {i}: prob {prob!r} is not a number in [0, 1]")
        if type(feature) is not int or not -1 <= feature < n_features:
            raise ValueError(f"tree feature index {feature!r} is outside its {n_features} features")
        if feature == -1 and (left, right) != (-1, -1):
            raise ValueError(f"tree node {i}: leaf with children {left!r}, {right!r}")
        if feature >= 0 and (type(threshold) not in (int, float) or not math.isfinite(threshold)):
            raise ValueError(f"tree node {i}: threshold {threshold!r} is not a finite number")
        if feature >= 0 and not all(type(c) is int and i < c < n for c in (left, right)):
            raise ValueError(f"tree node {i}: children {left!r}, {right!r} do not follow it")


def _preorder(root, expand):
    """The preorder lists of the tree below root, left child first, built
    from an explicit stack, so depth is no limit. expand(node), called on
    the nodes in preorder, gives a node's feature (-1 for a leaf),
    threshold, prob, and its (left, right) nodes or () for a leaf."""
    tree = {k: [] for k in TREE_KEYS}
    stack = [(root, -1, None)]  # (node, parent index, parent's child list)
    while stack:
        node, parent, side = stack.pop()
        i = len(tree["prob"])
        if parent >= 0:
            tree[side][parent] = i
        feature, threshold, prob, children = expand(node)
        for key, value in zip(TREE_KEYS, (feature, threshold, -1, -1, prob)):
            tree[key].append(value)
        if children:
            stack += [(children[1], i, "right"), (children[0], i, "left")]
    return tree


def _expand_nested(node):
    d, path = node
    if "feature" not in check_object(d, path):
        return -1, None, d["prob"], ()
    children = (d["left"], f"{path}.left"), (d["right"], f"{path}.right")
    return d["feature"], d["threshold"], 0.0, children


def tree_from_nested(root, name="root"):
    """The preorder lists of a tree in the nested form that bundles held
    before the lists: a leaf is {"prob"}, and a split {"feature",
    "threshold", "left", "right"} gets prob 0.0. A node that is not an
    object raises ValueError naming its path from name, as root.left."""
    return _preorder((root, name), _expand_nested)


class _Node:
    """Read-only view of node i of a tree's lists."""

    def __init__(self, tree, i):
        self.tree, self.i, self.is_leaf = tree, i, tree["feature"][i] < 0

    left = property(lambda self: _Node(self.tree, self.tree["left"][self.i]))
    right = property(lambda self: _Node(self.tree, self.tree["right"][self.i]))


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


def _best_split(XT, y, weight, rows, n, total_pos, features, sorted_idx, min_leaf):
    """Best (feature, threshold) by Gini over midpoints of sorted distinct
    values; ties broken by lower feature index, then lower threshold.

    XT is X transposed and contiguous; features is ascending. y holds each
    row's label times its weight, and weight is each row's integer weight,
    or None where every weight is 1; n and total_pos are the node's
    weighted size and positive count. With sorted_idx, row i lists the
    node's rows in ascending order of features[i]; without it each block
    argsorts its features over rows. Rows with equal values may come in
    any order, because class counts are only read where the value changes.
    """
    best = (None, None, _gini_part(total_pos, n))
    if weight is None:  # unit weights: every feature shares its left sizes
        sizes_l = np.arange(1, n, dtype=np.float64)
        sizes_r = n - sizes_l
        size_ok = (sizes_l >= min_leaf) & (sizes_r >= min_leaf)
    step = max(1, SEARCH_BLOCK // len(rows))
    for start in range(0, len(features), step):
        block = features[start : start + step]
        if sorted_idx is None:
            order = rows[np.argsort(_gather(XT, block, rows), axis=1)]
        else:
            order = sorted_idx[start : start + step]
        xs = _gather(XT, block, order)
        if weight is not None:
            sizes_l = np.cumsum(weight[order], axis=1)[:, :-1]
            sizes_r = n - sizes_l
            size_ok = (sizes_l >= min_leaf) & (sizes_r >= min_leaf)
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


def _grow(XT, y, weight, max_depth, min_leaf, max_features, rng):
    """Grow a tree on XT (X transposed, contiguous) and float labels y,
    depth-first, left child first, from the rows of nonzero weight: weight
    is each row's integer weight (a forest tree's draw counts), or None
    where every row counts once.

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
    n_features = XT.shape[0]
    rows = np.arange(len(y))
    if weight is not None:  # y becomes each row's positive count
        rows, y = np.flatnonzero(weight), y * weight

    def size_pos(rows):  # weighted size and positive count; sums of integers
        n = len(rows) if weight is None else int(weight[rows].sum())
        return n, int(y[rows].sum())

    if n_features == 0:
        n, pos = size_pos(rows)
        return _preorder(None, lambda _: (-1, None, pos / n, ()))
    full = max_features is None or max_features >= n_features
    goes_left = np.zeros(len(y), dtype=bool)

    def expand(node):
        idx, depth = node  # presorted lists (full search) or rows, and depth
        rows = idx[0] if full else idx
        n, pos = size_pos(rows)
        prob = pos / n  # exact integers: the correctly rounded mean of the rows
        if (
            n < 2 * min_leaf
            or (max_depth is not None and depth >= max_depth)
            or prob in (0.0, 1.0)
        ):
            return -1, None, prob, ()
        if full:
            features = np.arange(n_features)
        else:
            features = np.sort(rng.choice(n_features, size=max_features, replace=False))
        feature, threshold = _best_split(
            XT, y, weight, rows, n, pos, features, idx if full else None, min_leaf
        )
        if feature is None:
            return -1, None, prob, ()
        goes_left[rows] = XT[feature, rows] <= threshold
        left = goes_left[idx]
        shape = (*idx.shape[:-1], -1)  # every presorted list keeps the same rows
        children = [(idx[mask].reshape(shape), depth + 1) for mask in (left, ~left)]
        return int(feature), float(threshold), prob, children

    if full:
        root = np.argsort(XT, axis=1) if weight is None else rows[np.argsort(XT[:, rows], axis=1)]
    else:
        root = rows
    return _preorder((root, 0), expand)


def _predict(tree, X):
    """Each row's prob, walking one node at a time from an explicit stack."""
    feature, threshold, left, right, prob = (tree[k] for k in TREE_KEYS)
    out = np.empty(len(X))
    stack = [(0, np.arange(len(X)))]
    while stack:
        i, idx = stack.pop()
        if feature[i] < 0:
            out[idx] = prob[i]
        elif idx.size:
            mask = X[idx, feature[i]] <= threshold[i]
            stack += [(right[i], idx[~mask]), (left[i], idx[mask])]
    return out


class DecisionTreeClassifier(BaseEstimator):
    """Greedy binary CART on Gini impurity; leaves hold positive fractions."""

    def __init__(self, max_depth=None, min_leaf=1, max_features=None, seed=0):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.max_features = max_features
        self.seed = seed
        self.tree_ = None  # the preorder lists of TREE_KEYS once fitted

    # A node view of tree_'s root, for perfbench's tree-shape walk.
    root_ = property(lambda self: _Node(self.tree_, 0))

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        if len(y) < self.min_leaf:
            raise ValueError(f"need at least min_leaf={self.min_leaf} rows")
        rng = generator(self.seed)
        XT, y = np.ascontiguousarray(X.T), y.astype(np.float64)
        self.tree_ = _grow(XT, y, None, self.max_depth, self.min_leaf, self.max_features, rng)
        return self

    def predict_proba(self, X):
        if self.tree_ is None:
            raise NotFittedError("tree is not fitted")
        return _predict(self.tree_, np.asarray(X, dtype=np.float64))


class RandomForestClassifier(BaseEstimator):
    """Bagged CART trees with per-split random feature subsets; trees_ holds
    each tree's preorder lists.

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
        if len(y) < self.min_leaf:
            raise ValueError(f"need at least min_leaf={self.min_leaf} rows")
        max_features = self._resolve_max_features(X.shape[1])
        XT, y = np.ascontiguousarray(X.T), y.astype(np.float64)
        self.trees_ = []
        for t in range(self.n_trees):
            weight = None
            if self.bootstrap:  # the draw counts weight the distinct rows drawn
                rng = generator(derive_seed(self.seed, f"bootstrap/{t}"))
                draw = rng.integers(0, len(y), size=len(y))
                weight = np.bincount(draw, minlength=len(y)).astype(np.float64)
            rng = generator(derive_seed(self.seed, f"tree/{t}"))
            tree = _grow(XT, y, weight, self.max_depth, self.min_leaf, max_features, rng)
            self.trees_.append(tree)
        return self

    def predict_proba(self, X):
        if not self.trees_:
            raise NotFittedError("forest is not fitted")
        X = np.asarray(X, dtype=np.float64)
        return np.mean([_predict(tree, X) for tree in self.trees_], axis=0)
