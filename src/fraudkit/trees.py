"""CART decision tree and bagged-tree forest baselines.

A fitted tree is five parallel preorder lists (TREE_KEYS), in memory
and in bundles alike, as scikit-learn's Tree keeps node arrays rather
than node objects. A leaf has feature -1, threshold None and children
-1; prob is the positive fraction of a node's training rows.

Split search is exact, and every tree, plain or in a forest, uses the
same one. A fit computes each feature's dense ranks once (equal values
share a rank), in place of any copy of X. A node keeps only its rows;
for a block of its features at a time it sorts the keys rank << 32 |
row, as scikit-learn has sorted each node's features since it dropped
presorting (deprecated in 0.22, removed in 0.24), and scores every
candidate threshold in the block at once. It reads class counts only
where the rank changes, so the order of rows with equal values never
matters, and the trees, ties included, are the ones a per-node stable
sort of the values gives. Rows and ranks are packed in 32 bits each, so
a fit takes fewer than 2**32 rows.

A forest tree grows on its bootstrap sample as scikit-learn's forests
do: on the distinct rows drawn (about 1 - 1/e, 63%, of the draws), each
weighted by its draw count, from the one X and ranks of the fit rather
than a copy of the sample. Sizes, class counts and probs become sums of
weights; the counts are small integers, so those sums are exact, every
candidate split scores as it does on the rows repeated by their counts,
and the tree is that tree bit for bit. A plain tree counts each row
once and keeps its shared sizes.
"""

import math

import numpy as np

from fraudkit.base import BaseEstimator, NotFittedError, check_positive_int, check_X_y, is_finite
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
        if feature >= 0 and (type(threshold) not in (int, float) or not is_finite(threshold)):
            raise ValueError(f"tree node {i}: threshold {threshold!r} is not a finite number")
        if feature >= 0 and not all(type(c) is int and i < c < n for c in (left, right)):
            raise ValueError(f"tree node {i}: children {left!r}, {right!r} do not follow it")


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


# Elements (features x rows) per sorted search block. A block holds at
# least one feature, so a root node on many rows searches one at a time.
SEARCH_BLOCK = 1 << 16


def _dense_ranks(X):
    """Each value's dense rank within its column, as a (features, rows)
    uint32 array: equal values, -0.0 and 0.0 among them, share a rank, and
    the next larger value has the next one. It is built SEARCH_BLOCK
    elements (at least one column) at a time, so its temporaries are no
    larger than a column or a search block."""
    R = np.empty(X.shape[::-1], dtype=np.uint32)
    step = max(1, SEARCH_BLOCK // len(X))
    for start in range(0, X.shape[1], step):
        columns = np.ascontiguousarray(X[:, start : start + step].T)
        order = np.argsort(columns, axis=1)
        order += np.arange(0, columns.size, len(X))[:, None]  # flat, for take and put
        values = np.take(columns, order)
        ranks = np.zeros(order.shape, dtype=np.uint32)
        np.cumsum(values[:, 1:] != values[:, :-1], axis=1, dtype=np.uint32, out=ranks[:, 1:])
        np.put(R[start : start + step], order, ranks)
    return R


def _best_split(X, R, y, weight, rows, n, total_pos, features, min_leaf):
    """Best (feature, threshold, rank) by Gini over midpoints of sorted
    distinct values, where rank is R's rank of the largest value sent left;
    ties broken by lower feature index, then lower threshold. feature is
    None where no split lowers the impurity.

    R is X's dense ranks (_dense_ranks) and features is ascending. y holds
    each row's label times its weight, and weight is each row's integer
    weight, or None where every weight is 1; n and total_pos are the node's
    weighted size and positive count. For each block of features the search
    sorts the keys rank << 32 | i, where i is a row's place in rows, so the
    low halves give the rows in value order and the high halves show where
    the value changes. Rows with equal values may come in any order,
    because class counts are only read where the value changes.
    """
    best = (None, None, None)
    best_score = _gini_part(total_pos, n)
    y = y[rows]
    if weight is None:  # unit weights: every feature shares its left sizes
        sizes_l = np.arange(1, n, dtype=np.float64)
        sizes_r = n - sizes_l
        size_ok = (sizes_l >= min_leaf) & (sizes_r >= min_leaf)
    else:
        weight = weight[rows]
    places = np.arange(len(rows), dtype="<u8")
    step = max(1, SEARCH_BLOCK // len(rows))
    for start in range(0, len(features), step):
        block = features[start : start + step]
        keys = R.ravel()[rows + (block * R.shape[1])[:, None]].astype("<u8")
        keys <<= 32
        keys |= places
        keys.sort(axis=1)
        ranks = keys.view("<u4")[:, 1::2]  # the high halves, a view of keys
        ties = ranks[:, :-1] == ranks[:, 1:]
        # The low halves, in place, so ranks is read above and no longer.
        order = np.bitwise_and(keys, 0xFFFFFFFF, out=keys).view("<i8")
        if weight is not None:
            sizes_l = np.cumsum(weight[order], axis=1)[:, :-1]
            sizes_r = n - sizes_l
            size_ok = (sizes_l >= min_leaf) & (sizes_r >= min_leaf)
        pos_l = np.cumsum(y[order], axis=1)[:, :-1]
        score = _split_scores(pos_l, sizes_l, sizes_r, total_pos)
        score[ties | ~size_ok] = np.inf
        # Row-major argmin: lowest feature, then lowest threshold, on ties.
        f, i = np.unravel_index(np.argmin(score), score.shape)
        if score[f, i] < best_score:
            feature = block[f]
            a, b = rows[order[f, i : i + 2]]
            best = (feature, _midpoint(X[a, feature], X[b, feature]), R[feature, a])
            best_score = score[f, i]
    return best


def _midpoint(a, b):
    """Threshold between sorted neighbours a < b: their midpoint, or a where
    the midpoint rounds up to b (0.3 and 0.1 + 0.2) or overflows. A split
    then always sends a left and b right."""
    a, b = float(a), float(b)  # Python floats overflow to inf without a warning
    mid = (a + b) / 2.0
    return mid if a <= mid < b else a


def _grow(X, R, y, max_depth, min_leaf, weight=None, rng=None):
    """Grow a tree on X, its dense ranks R and float labels y into its
    preorder lists, depth-first, left child first, from an explicit stack,
    so depth is no limit. A plain tree (weight and rng None) counts every
    row once and searches every feature at each node. A forest tree grows
    from the rows of nonzero weight, each row's integer weight its draw
    count, and a node searches max(1, isqrt(features)) features that rng
    draws, or every feature where that is all of them.

    A node holds only its rows, in ascending order, and a split keeps that
    order, sending left the rows whose rank in the split's feature is at
    most the split's rank: the rows whose value is at most the threshold.
    A node's rows are dropped when the next node is taken, and the pending
    nodes hold disjoint rows, so index memory stays O(rows) at any depth.
    Nodes are grown in the order recursion would grow them, so the feature
    draws come in the same order.
    """
    n_features = X.shape[1]
    n_search = n_features if rng is None else max(1, math.isqrt(n_features))
    rows = np.arange(len(y))
    if weight is not None:  # y becomes each row's positive count
        rows, y = np.flatnonzero(weight), y * weight

    tree = {k: [] for k in TREE_KEYS}
    stack = [(rows, 0, -1, None)]  # (rows, depth, parent index, parent's child list)
    while stack:
        rows, depth, parent, side = stack.pop()
        i = len(tree["prob"])
        if parent >= 0:
            tree[side][parent] = i
        # Weighted size and positive count, sums of integers, so prob is
        # the correctly rounded mean of the rows.
        n = len(rows) if weight is None else int(weight[rows].sum())
        pos = int(y[rows].sum())
        prob = pos / n
        feature = threshold = None
        if not (
            n < 2 * min_leaf
            or (max_depth is not None and depth >= max_depth)
            or prob in (0.0, 1.0)
        ):
            if n_search >= n_features:
                features = np.arange(n_features)
            else:
                features = np.sort(rng.choice(n_features, size=n_search, replace=False))
            feature, threshold, rank = _best_split(
                X, R, y, weight, rows, n, pos, features, min_leaf
            )
        leaf = feature is None
        for key, value in zip(TREE_KEYS, (-1 if leaf else int(feature), threshold, -1, -1, prob)):
            tree[key].append(value)
        if not leaf:
            left = R[feature, rows] <= rank
            stack += [(rows[~left], depth + 1, i, "right"), (rows[left], depth + 1, i, "left")]
    return tree


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


def _check_params(max_depth, min_leaf):
    """max_depth and min_leaf if max_depth is None or an int of at least 0
    and min_leaf a positive int; else ValueError naming the one that is not."""
    if max_depth is not None and (type(max_depth) is not int or max_depth < 0):
        raise ValueError(f"max_depth {max_depth!r} is not None or an int >= 0")
    return max_depth, check_positive_int(min_leaf, "min_leaf")


def _fit_inputs(X, y, min_leaf):
    """The checked X, its dense ranks and y as floats."""
    X, y = check_X_y(X, y)
    if len(y) < min_leaf:
        raise ValueError(f"need at least min_leaf={min_leaf} rows")
    if len(y) >= 1 << 32:  # rows and ranks are packed in 32 bits each
        raise ValueError(f"a tree fits fewer than 2**32 rows, not {len(y)}")
    return X, _dense_ranks(X), y.astype(np.float64)


class DecisionTreeClassifier(BaseEstimator):
    """Greedy binary CART on Gini impurity, searching every feature at each
    split; leaves hold positive fractions."""

    def __init__(self, max_depth=None, min_leaf=1):
        self.max_depth, self.min_leaf = _check_params(max_depth, min_leaf)
        self.tree_ = None  # the preorder lists of TREE_KEYS once fitted

    # A node view of tree_'s root, for perfbench's tree-shape walk.
    root_ = property(lambda self: _Node(self.tree_, 0))

    def fit(self, X, y):
        X, R, y = _fit_inputs(X, y, self.min_leaf)
        self.tree_ = _grow(X, R, y, self.max_depth, self.min_leaf)
        return self

    def predict_proba(self, X):
        if self.tree_ is None:
            raise NotFittedError("tree is not fitted")
        return _predict(self.tree_, np.asarray(X, dtype=np.float64))


class RandomForestClassifier(BaseEstimator):
    """Breiman's random forest: each CART tree grows on a bootstrap sample
    and searches max(1, isqrt(features)) random features at each split;
    trees_ holds each tree's preorder lists."""

    def __init__(self, n_trees=50, max_depth=None, min_leaf=1, seed=0):
        self.n_trees = check_positive_int(n_trees, "n_trees")
        self.max_depth, self.min_leaf = _check_params(max_depth, min_leaf)
        self.seed = seed
        self.trees_ = None

    def fit(self, X, y):
        X, R, y = _fit_inputs(X, y, self.min_leaf)
        self.trees_ = []
        for t in range(self.n_trees):
            rng = generator(derive_seed(self.seed, f"bootstrap/{t}"))
            draw = rng.integers(0, len(y), size=len(y))  # its counts weight the rows drawn
            weight = np.bincount(draw, minlength=len(y)).astype(np.float64)
            rng = generator(derive_seed(self.seed, f"tree/{t}"))
            self.trees_.append(_grow(X, R, y, self.max_depth, self.min_leaf, weight, rng))
        return self

    def predict_proba(self, X):
        if not self.trees_:
            raise NotFittedError("forest is not fitted")
        X = np.asarray(X, dtype=np.float64)
        # The trees' mean as np.mean takes it over a trees x rows stack,
        # bit for bit: their sum in tree order, then one division.
        total = _predict(self.trees_[0], X)
        for tree in self.trees_[1:]:
            total += _predict(tree, X)
        total /= len(self.trees_)
        return total
