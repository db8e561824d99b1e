"""Exactness of the blocked samplers and the sorted-rank tree search against reference code.

The references below are the plain forms the fast paths replace: NearMiss
over the full n_neg x n_pos distance matrix with full sorts, SMOTE
neighbours by a stable argsort of each row of the full minority matrix,
and CART that stable-argsorts every feature at every node. Outputs must
be equal (rows, their order, a tree's preorder lists), not close: SMOTE's
rows equal to ref_smote's bit for bit come from the parent, neighbour and
lambda that ref_smote records for them.

Inputs on small dyadic grids keep every distance exact whatever the BLAS
call shape, so block sizes of 1 and 3 rows can be compared too; they are
also tie-heavy, which exercises the lower-row-index tie rule.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fraudkit
from fraudkit import resample
from fraudkit.resample import (
    NearMiss,
    RandomUnderSampler,
    Smote,
    pairwise_distances,
    round_half_away,
)
from fraudkit.rng import derive_seed, generator
from fraudkit.models import model_to_dict
from fraudkit.trees import DecisionTreeClassifier, RandomForestClassifier, _gini_part


def ref_pairwise_distances(a, b):
    """Euclidean distances as one out-of-place expression."""
    sq = (a**2).sum(axis=1)[:, None] + (b**2).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.sqrt(np.maximum(sq, 0.0))


def ref_nearmiss(X, y, version, k, ratio):
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y == 0)
    if pos.size < k:
        raise ValueError("too few minority rows")
    target = round_half_away(ratio * pos.size)
    if target > neg.size:
        raise ValueError("target exceeds majority count")
    dist = ref_pairwise_distances(X[neg], X[pos])
    if version in (1, 2):
        part = np.sort(dist, axis=1)
        score = part[:, :k].mean(axis=1) if version == 1 else part[:, -k:].mean(axis=1)
        kept_neg = neg[np.argsort(score, kind="stable")[:target]]
    else:
        mask = np.zeros(neg.size, dtype=bool)
        for j in range(pos.size):
            mask[np.argsort(dist[:, j], kind="stable")[:k]] = True
        candidates = np.flatnonzero(mask)
        if target > candidates.size:
            raise ValueError("shortlist too short")
        score = np.sort(dist[candidates], axis=1)[:, :k].mean(axis=1)
        kept_neg = neg[candidates[np.argsort(-score, kind="stable")[:target]]]
    idx = np.sort(np.concatenate([pos, kept_neg]))
    return X[idx], y[idx]


def ref_smote(X, y, ratio, k, seed):
    """(X_out, y_out, provenance tuples) with full-matrix neighbours."""
    pos = np.flatnonzero(y == 1)
    n_syn = round_half_away(ratio * int((y == 0).sum())) - pos.size
    Xp = X[pos]
    dist = ref_pairwise_distances(Xp, Xp)
    np.fill_diagonal(dist, np.inf)
    neighbors = np.stack([np.argsort(dist[i], kind="stable")[:k] for i in range(pos.size)])
    rng = generator(seed)
    parents = rng.integers(0, pos.size, size=n_syn)
    nn_pick = rng.integers(0, k, size=n_syn)
    lams = rng.uniform(0.0, 1.0, size=n_syn)
    nns = neighbors[parents, nn_pick]
    synthetic = Xp[parents] + lams[:, None] * (Xp[nns] - Xp[parents])
    prov = [(int(pos[p]), int(pos[n]), float(lam)) for p, n, lam in zip(parents, nns, lams)]
    return np.vstack([X, synthetic]), np.concatenate([y, np.ones(n_syn, dtype=np.int64)]), prov


def ref_best_split(X, y, features, min_leaf):
    n = len(y)
    total_pos = int(y.sum())
    best = (None, None, _gini_part(total_pos, n))
    sizes_l = np.arange(1, n, dtype=np.float64)
    for j in features:
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        pos_l = np.cumsum(y[order])[:-1].astype(np.float64)
        valid = (xs[:-1] != xs[1:]) & (sizes_l >= min_leaf) & (n - sizes_l >= min_leaf)
        if not valid.any():
            continue
        score = _gini_part(pos_l, sizes_l) + _gini_part(total_pos - pos_l, n - sizes_l)
        score[~valid] = np.inf
        i = int(np.argmin(score))
        if score[i] < best[2]:
            # The midpoint, or the lower value where the midpoint rounds up
            # to the upper one or overflows, so the lower value goes left.
            a, b = float(xs[i]), float(xs[i + 1])
            mid = (a + b) / 2.0
            best = (j, mid if a <= mid < b else a, score[i])
    return best[0], best[1]


def ref_grow(X, y, depth, max_depth, min_leaf, max_features, rng):
    """The tree as nested dicts: every node has its prob, a split also its
    feature, threshold, left and right."""
    node = {"prob": float(y.mean())}
    if len(y) < 2 * min_leaf or (max_depth is not None and depth >= max_depth) or node["prob"] in (0.0, 1.0):
        return node
    n_features = X.shape[1]
    if max_features is None or max_features >= n_features:
        features = range(n_features)
    else:
        features = np.sort(rng.choice(n_features, size=max_features, replace=False))
    feature, threshold = ref_best_split(X, y, features, min_leaf)
    if feature is None:
        return node
    mask = X[:, feature] <= threshold
    node["feature"], node["threshold"] = int(feature), float(threshold)
    node["left"] = ref_grow(X[mask], y[mask], depth + 1, max_depth, min_leaf, max_features, rng)
    node["right"] = ref_grow(X[~mask], y[~mask], depth + 1, max_depth, min_leaf, max_features, rng)
    return node


def ref_flatten(node, lists=None):
    """A nested tree as the preorder lists of a bundle, left child first."""
    if lists is None:
        lists = {"feature": [], "threshold": [], "left": [], "right": [], "prob": []}
    i = len(lists["prob"])
    split = "feature" in node
    lists["feature"].append(node["feature"] if split else -1)
    lists["threshold"].append(node["threshold"] if split else None)
    lists["left"].append(-1)
    lists["right"].append(-1)
    lists["prob"].append(node["prob"])
    if split:
        lists["left"][i] = len(lists["prob"])
        ref_flatten(node["left"], lists)
        lists["right"][i] = len(lists["prob"])
        ref_flatten(node["right"], lists)
    return lists


def ref_tree_lists(X, y, max_depth=None, min_leaf=1, max_features=None, seed=0):
    rng = generator(seed)
    return ref_flatten(ref_grow(X, y, 0, max_depth, min_leaf, max_features, rng))


def tree_lists(tree):
    """A fitted tree's lists as its bundle holds them."""
    return model_to_dict(tree)["flat_tree"]


def ref_forest_lists(X, y, n_trees=3, max_depth=None, min_leaf=1, max_features="sqrt",
                     bootstrap=True, seed=0):
    """Each tree of a forest as the reference grows it on its bootstrap
    sample, every drawn row repeated as often as it was drawn."""
    if max_features == "sqrt":
        max_features = max(1, math.isqrt(X.shape[1]))
    lists = []
    for t in range(n_trees):
        boot = np.arange(len(y))
        if bootstrap:
            boot = generator(derive_seed(seed, f"bootstrap/{t}")).integers(0, len(y), size=len(y))
        lists.append(ref_tree_lists(X[boot], y[boot], max_depth, min_leaf, max_features,
                                    seed=derive_seed(seed, f"tree/{t}")))
    return lists


def repeated_rows(seed, n=240, n_distinct=30, n_features=6):
    """n rows drawn from n_distinct rounded ones, each with its own label,
    so a bootstrap draws many rows several times and equal rows disagree."""
    rng = np.random.default_rng(seed)
    base = np.round(rng.normal(size=(n_distinct, n_features)), 1)
    X = base[rng.integers(0, n_distinct, size=n)]
    return X, (rng.random(n) < 0.2 + 0.2 * (X[:, 0] > 0)).astype(np.int64)


# (min_leaf, max_depth) settings that the forest tests cycle through.
FOREST_SETTINGS = [(1, None), (2, None), (3, 2), (1, 2), (2, 3), (3, None)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


def _grid_case(rng, case):
    """Small tie-heavy set with exactly representable distances."""
    n_pos = int(rng.integers(3, 10))
    n_neg = int(rng.integers(1, 30))
    if case % 2:
        X = rng.integers(0, 3, size=(n_pos + n_neg, 2)).astype(float)
    else:
        X = rng.integers(-8, 9, size=(n_pos + n_neg, 3)) / 4.0
    y = np.array([1] * n_pos + [0] * n_neg)
    order = rng.permutation(len(y))
    return X[order], y[order], n_pos


def test_row_kmean_adds_like_a_full_sort():
    # The scores rank NearMiss rows, so they must match to the last bit.
    # np.partition leaves a small k already sorted; from about k = 50 on it
    # does not, and an unsorted sum then differs in the last bits.
    rng = np.random.default_rng(8)
    dist = np.abs(rng.normal(size=(500, 400))) * rng.uniform(0.1, 1e3, size=(500, 1))
    for k in (1, 3, 50, 200, 400):
        full = np.sort(dist, axis=1)
        smallest, largest = full[:, :k].mean(axis=1), full[:, -k:].mean(axis=1)
        assert np.array_equal(resample._row_kmean(dist, k), smallest), k
        assert np.array_equal(resample._row_kmean(dist, k, largest=True), largest), k


@pytest.mark.parametrize("block_rows", [1, 3, resample.BLOCK_ROWS])
def test_nearmiss_and_smote_match_reference_on_ties(monkeypatch, block_rows):
    monkeypatch.setattr(resample, "BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(42)
    for case in range(150):
        X, y, n_pos = _grid_case(rng, case)
        k = int(rng.integers(1, n_pos + 1))
        ratio = float(rng.uniform(0.2, 3.0))
        for version in (1, 2, 3):
            got = _outcome(NearMiss(version=version, k=k, ratio=ratio).fit_resample, X, y)
            want = _outcome(ref_nearmiss, X, y, version, k, ratio)
            if isinstance(want, tuple):
                assert np.array_equal(got[0], want[0]), (case, version)
                assert np.array_equal(got[1], want[1]), (case, version)
            else:
                assert got is want, (case, version)
        if int((y == 0).sum()) < n_pos:
            continue  # SMOTE at ratio 1 cannot shrink the minority
        k = int(rng.integers(1, n_pos))
        X_out, y_out = Smote(ratio=1.0, k=k, seed=case).fit_resample(X, y)
        X_ref, y_ref, _ = ref_smote(X, y, 1.0, k, case)
        assert np.array_equal(X_out, X_ref) and np.array_equal(y_out, y_ref), case


@pytest.mark.parametrize("version", [1, 2, 3])
def test_nearmiss_matches_reference_over_several_blocks(version):
    rng = np.random.default_rng(version)
    n_neg = 2 * resample.BLOCK_ROWS + 517
    X = rng.normal(size=(n_neg + 60, 5))
    y = np.array([1] * 60 + [0] * n_neg)
    order = rng.permutation(len(y))
    X, y = X[order], y[order]
    got = NearMiss(version=version, k=3, ratio=1.5).fit_resample(X, y)
    want = ref_nearmiss(X, y, version, 3, 1.5)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_pairwise_distances_match_the_out_of_place_expression():
    # Also a @ a.T itself, which numpy computes with syrk, and slices of one
    # array against the whole of it, as SMOTE's blocks are.
    rng = np.random.default_rng(13)
    for case in range(60):
        n_a, n_b, p = (int(v) for v in rng.integers(1, 80, size=3))
        a = rng.normal(size=(n_a, p)) * 10.0 ** rng.integers(-150, 150)
        b = rng.normal(size=(n_b, p)) * 10.0 ** rng.integers(-150, 150)
        cut = int(rng.integers(0, n_a))
        pairs = [(a, b), (b, a), (a, a), (a[cut:], a), (a[:cut + 1], a)]
        with np.errstate(over="ignore", under="ignore"):
            for x, z in pairs:
                assert pairwise_distances(x, z).tobytes() == ref_pairwise_distances(x, z).tobytes(), case


def test_smote_matches_reference_on_continuous_data():
    # 8,000 rows give about 3,500 synthetic rows: more than one block of them.
    rng = np.random.default_rng(9)
    for n_rows in (800, 8000):
        X = rng.normal(size=(n_rows, 6))
        y = (rng.random(n_rows) < 0.2).astype(np.int64)
        X_out, y_out = Smote(ratio=0.8, k=5, seed=3).fit_resample(X, y)
        X_ref, y_ref, _ = ref_smote(X, y, 0.8, 5, 3)
        assert X_out.tobytes() == X_ref.tobytes() and np.array_equal(y_out, y_ref), n_rows


BLAS_PROBE = """
import numpy as np
from fraudkit import resample
rng = np.random.default_rng(0)
for n_rows, n_cols in [(3 * resample.BLOCK_ROWS + 1, 127), (2 * resample.BLOCK_ROWS + 1, 301),
                       (resample.BLOCK_ROWS + 5, 64)]:
    A = rng.normal(size=(n_rows, 30))
    B = rng.normal(size=(n_cols, 30))
    blocks = [d for _, d in resample._distance_blocks(A, B)]
    assert np.array_equal(np.vstack(blocks), resample.pairwise_distances(A, B)), (n_rows, n_cols)
    # Rows gathered block by block, as NearMiss takes its majority rows.
    rows = np.flatnonzero(rng.random(len(A)) < 0.7)
    blocks = [d for _, d in resample._distance_blocks(A, B, rows)]
    assert np.array_equal(np.vstack(blocks), resample.pairwise_distances(A[rows], B)), (n_rows, n_cols)
print("ok")
"""


def _child_env(**extra):
    src = str(Path(fraudkit.__file__).resolve().parents[1])
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_blocked_distances_equal_the_full_matrix_with_one_blas_thread():
    # A fresh interpreter, so the BLAS thread count is set before numpy loads.
    out = subprocess.run(
        [sys.executable, "-c", BLAS_PROBE], env=_child_env(OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True,
    )
    assert out.returncode == 0 and out.stdout.strip() == "ok", out.stderr


@pytest.fixture(scope="module")
def sampler_outputs():
    """What each grid sampler hands the trees, on a tie-heavy rounded set."""
    rng = np.random.default_rng(5)
    X = np.round(rng.normal(size=(1200, 6)), 1)
    y = (rng.random(1200) < 0.1).astype(np.int64)
    out = {"none": (X, y), "rus": RandomUnderSampler(ratio=4.0, seed=2).fit_resample(X, y)}
    for version in (1, 2, 3):
        out[f"nearmiss{version}"] = NearMiss(version=version, k=3, ratio=2.0).fit_resample(X, y)
    out["smote"] = Smote(ratio=0.5, k=5, seed=1).fit_resample(X, y)
    return out


@pytest.mark.parametrize("sampler", ["none", "nearmiss1", "nearmiss2", "nearmiss3", "smote", "rus"])
def test_trees_match_reference_on_sampler_outputs(sampler_outputs, sampler):
    X, y = sampler_outputs[sampler]
    tree = DecisionTreeClassifier().fit(X, y)
    assert json.dumps(tree_lists(tree)) == json.dumps(ref_tree_lists(X, y))
    forest = RandomForestClassifier(n_trees=3, seed=6).fit(X, y)
    got = model_to_dict(forest)["flat_trees"]
    assert json.dumps(got) == json.dumps(ref_forest_lists(X, y, n_trees=3, seed=6))


def test_tree_matches_reference_on_rounded_grids():
    rng = np.random.default_rng(11)
    for case in range(300):
        n = int(rng.integers(2, 60))
        X = np.round(rng.normal(size=(n, int(rng.integers(1, 5)))), int(rng.integers(0, 2)))
        y = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.int64)
        params = dict(max_depth=[None, 1, 3][case % 3], min_leaf=int(rng.integers(1, 4)))
        if n < params["min_leaf"]:
            continue
        got = tree_lists(DecisionTreeClassifier(**params).fit(X, y))
        assert json.dumps(got) == json.dumps(ref_tree_lists(X, y, **params)), case


@pytest.mark.parametrize("n_features", [1, 3, 9, 36])
@pytest.mark.parametrize("data", ["rounded", "repeated"])
def test_forest_trees_match_reference_across_parameters(data, n_features):
    # Weighted bootstrap trees against trees grown on the repeated rows: min_leaf
    # then counts a row once per draw. A node searches isqrt(n_features)
    # features, 1, 1, 3 and 6 of them, which at n_features = 1 is every feature.
    if data == "rounded":
        rng = np.random.default_rng(21)
        X = np.round(rng.normal(size=(240, n_features)), 1)
        y = (rng.random(240) < 0.3).astype(np.int64)
    else:
        X, y = repeated_rows(22, n_features=n_features)
    for case, (min_leaf, max_depth) in enumerate(FOREST_SETTINGS):
        params = dict(n_trees=3, max_depth=max_depth, min_leaf=min_leaf, seed=case)
        got = model_to_dict(RandomForestClassifier(**params).fit(X, y))["flat_trees"]
        assert json.dumps(got) == json.dumps(ref_forest_lists(X, y, **params)), params
