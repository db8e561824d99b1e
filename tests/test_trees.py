"""The blocked split search against the per-node sort reference at several
block sizes, on tie-heavy rows and on -0.0, 0.0, subnormals and values near
the float limits; deep trees without recursion, hyperparameter checks, the
flat tree payload, tree bundles written before the lists became the
in-memory form, and forest bundles written before trees grew on weighted
bootstrap rows."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from fraudkit import trees
from fraudkit.base import FraudkitError
from fraudkit.models import load_bundle, model_to_dict, save_bundle
from fraudkit.preprocess import StandardScaler
from fraudkit.trees import (
    DecisionTreeClassifier,
    RandomForestClassifier,
    _gini_part,
    _split_scores,
    check_tree,
)
from test_sampling_reference import (
    FOREST_SETTINGS,
    ref_forest_lists,
    ref_tree_lists,
    repeated_rows,
    tree_lists,
)

TREE_BUNDLES = Path(__file__).parent / "tree_bundles"

# SEARCH_BLOCK as a function of a set's rows n: one feature per block; one
# feature row per block at the root, so deeper nodes take several; and
# blocks of 4 features at the root, which split 6 features 4 + 2, and a
# forest node's 6 features drawn from 36 the same way.
BLOCKS = {"one": lambda n: 1, "row": lambda n: n, "uneven": lambda n: 4 * n}


def tie_heavy(seed, n=400, n_features=6):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, n_features)), 1)
    y = (rng.random(n) < 0.3).astype(np.int64)
    return X, y


# -0.0 and 0.0 must share a rank; the subnormals and the values near the
# float limits sit next to zero or overflow a midpoint.
EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, 1.5e308, -1e308, -1.7e308, -1.0, 0.5, 2.0]


def extreme_rows(seed, n=200, n_distinct=60, n_features=5):
    """Rows drawn with repeats from n_distinct rows of EXTREMES, each with
    its own label, so a bootstrap draws many rows several times."""
    rng = np.random.default_rng(seed)
    base = rng.choice(EXTREMES, size=(n_distinct, n_features))
    X = base[rng.integers(0, n_distinct, size=n)]
    return X, (rng.random(n) < 0.3 + 0.3 * (X[:, 0] > 0)).astype(np.int64)


def test_split_scores_equal_the_gini_formula_bit_for_bit():
    rng = np.random.default_rng(4)
    for n in (2, 3, 50, 5000):
        y = (rng.random((3, n)) < rng.uniform(0.0, 1.0)).astype(np.float64)
        pos_l = np.cumsum(y, axis=1)[:, :-1]
        sizes_l = np.arange(1, n, dtype=np.float64)
        total_pos = int(y[0].sum())
        want = _gini_part(pos_l, sizes_l) + _gini_part(total_pos - pos_l, n - sizes_l)
        assert np.array_equal(_split_scores(pos_l.copy(), sizes_l, n - sizes_l, total_pos), want)


@pytest.mark.parametrize("block", BLOCKS)
def test_tree_and_forest_match_reference_at_block_sizes(monkeypatch, block):
    for X, y in [tie_heavy(3), extreme_rows(13), tie_heavy(3, n_features=36)]:
        monkeypatch.setattr(trees, "SEARCH_BLOCK", BLOCKS[block](len(y)))
        tree = DecisionTreeClassifier(min_leaf=2).fit(X, y)
        want = ref_tree_lists(X, y, min_leaf=2)
        assert json.dumps(tree_lists(tree)) == json.dumps(want)
        forest = RandomForestClassifier(n_trees=3, seed=6).fit(X, y)
        got = model_to_dict(forest)["flat_trees"]
        assert json.dumps(got) == json.dumps(ref_forest_lists(X, y, n_trees=3, seed=6))


# A forest node searches isqrt(d) features: 1 of 3, 3 of 9, 6 of 36, and
# at d = 1 every feature.
@pytest.mark.parametrize("n_features", [1, 3, 9, 36])
@pytest.mark.parametrize("block", BLOCKS)
def test_forest_matches_reference_across_parameters_at_block_sizes(monkeypatch, block,
                                                                   n_features):
    sets = [tie_heavy(8, n=200, n_features=n_features),
            repeated_rows(9, n=200, n_features=n_features),
            extreme_rows(10, n_features=n_features)]
    for data, (X, y) in enumerate(sets):
        monkeypatch.setattr(trees, "SEARCH_BLOCK", BLOCKS[block](len(y)))
        for case, (min_leaf, max_depth) in enumerate(FOREST_SETTINGS[data % 2::2]):
            params = dict(n_trees=2, max_depth=max_depth, min_leaf=min_leaf, seed=case)
            got = model_to_dict(RandomForestClassifier(**params).fit(X, y))["flat_trees"]
            assert json.dumps(got) == json.dumps(ref_forest_lists(X, y, **params)), (data, params)


@pytest.mark.parametrize("block", BLOCKS)
def test_tree_matches_reference_on_rounded_grids_at_block_sizes(monkeypatch, block):
    rng = np.random.default_rng(12)
    for case in range(120):
        n = int(rng.integers(2, 60))
        X = np.round(rng.normal(size=(n, int(rng.integers(1, 7)))), int(rng.integers(0, 2)))
        y = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.int64)
        params = dict(max_depth=[None, 2][case % 2], min_leaf=int(rng.integers(1, 4)))
        if n < params["min_leaf"]:
            continue
        monkeypatch.setattr(trees, "SEARCH_BLOCK", BLOCKS[block](n))
        got = tree_lists(DecisionTreeClassifier(**params).fit(X, y))
        assert json.dumps(got) == json.dumps(ref_tree_lists(X, y, **params)), case


def deep_set(n=2000):
    """One feature with alternating labels: every split peels one row."""
    return np.arange(n, dtype=np.float64)[:, None], np.arange(n) % 2


def test_deep_tree_predicts_and_round_trips_a_bundle(tmp_path):
    X, y = deep_set()
    tree = DecisionTreeClassifier().fit(X, y)
    assert np.array_equal(tree.predict_proba(X), y.astype(np.float64))
    forest = RandomForestClassifier(n_trees=2, seed=1).fit(X, y)
    scaler = StandardScaler().fit(X)
    for model in (tree, forest):
        path = tmp_path / f"{type(model).__name__}.model"
        save_bundle(path, model, scaler, 0.5, ["x"], {})
        loaded = load_bundle(path)[0]
        assert np.array_equal(loaded.predict_proba(X), model.predict_proba(X))


@pytest.mark.parametrize("cls, params, message", [
    (RandomForestClassifier, {"n_trees": 2.0}, "n_trees 2.0 is not a positive int"),
    (DecisionTreeClassifier, {"max_depth": -1}, "max_depth -1 is not None or an int >= 0"),
    (RandomForestClassifier, {"max_depth": 2.0}, "max_depth 2.0 is not None or an int >= 0"),
    (DecisionTreeClassifier, {"min_leaf": 0}, "min_leaf 0 is not a positive int"),
], ids=["forest-n-trees-2.0", "tree-max-depth--1", "forest-max-depth-2.0", "tree-min-leaf-0"])
def test_bad_hyperparameter_fails_loudly(cls, params, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        cls(**params).fit(*deep_set(8))


def test_bundles_written_before_the_lists_score_as_stored():
    # tree_bundles/ holds a depth-4 CART and a 2-tree depth-3 forest, each
    # as written by fraudkit 2a2f6a3 (flat lists), and their probabilities
    # on 40 fixed rows.
    expected = json.loads((TREE_BUNDLES / "expected.json").read_text())
    for kind in ("dtree", "forest"):
        model, scaler, *_ = load_bundle(TREE_BUNDLES / f"{kind}_flat.model")
        got = model.predict_proba(scaler.transform(expected["rows"]))
        assert got.tolist() == expected["probabilities"][kind], kind


@pytest.mark.parametrize("kind,key", [("dtree", "flat_tree"), ("forest", "flat_trees")])
def test_nested_tree_bundles_fail_naming_the_missing_key(kind, key):
    # The same two models with the nested trees of bundles older than the
    # lists: save_bundle no longer writes that form, so it does not load.
    path = TREE_BUNDLES / f"{kind}_nested.model"
    with pytest.raises(FraudkitError) as info:
        load_bundle(path)
    assert str(info.value) == f"{path}: not a model bundle: missing key '{key}'"


# Forests whose bundles fraudkit 47311aa wrote to tree_bundles/, from a
# build that grew each tree on its bootstrap rows repeated as drawn.
PINNED_FORESTS = {"forest_default": {}, "forest_leaf2_depth4": {"min_leaf": 2, "max_depth": 4}}


def write_pinned_forest(path, name):
    """Fit PINNED_FORESTS[name] on fixed tie-heavy rows with repeats, and save its bundle."""
    X, y = repeated_rows(31, n=200, n_distinct=100, n_features=5)
    forest = RandomForestClassifier(seed=5, **PINNED_FORESTS[name]).fit(X, y)
    save_bundle(path, forest, StandardScaler().fit(X), 0.5, [f"f{i}" for i in range(5)], {})


@pytest.mark.parametrize("name", PINNED_FORESTS)
def test_forest_bundle_bytes_equal_the_pinned_ones(tmp_path, name):
    write_pinned_forest(tmp_path / "forest.model", name)
    pinned = (TREE_BUNDLES / f"{name}.model").read_bytes()
    assert (tmp_path / "forest.model").read_bytes() == pinned


def test_flat_payload_is_preorder():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    tree = DecisionTreeClassifier().fit(X, np.array([0, 1, 1, 1]))
    assert model_to_dict(tree)["flat_tree"] == {
        "feature": [0, -1, -1],
        "threshold": [0.5, None, None],
        "left": [1, -1, -1],
        "right": [2, -1, -1],
        "prob": [0.75, 0.0, 1.0],
    }


@pytest.mark.parametrize("lists", [
    {"feature": [0, -1], "threshold": [0.5, None], "left": [0, -1], "right": [1, -1],
     "prob": [0.5, 0.0]},
    {"feature": [0], "threshold": [0.5], "left": [1], "right": [2], "prob": [0.5]},
    {"feature": [], "threshold": [], "left": [], "right": [], "prob": []},
    {"feature": [-1, -1], "threshold": [None], "left": [-1, -1], "right": [-1, -1],
     "prob": [0.5, 0.5]},
    {"feature": [-1, -1, -1], "threshold": [0.5, None, None], "left": [1, -1, -1],
     "right": [2, -1, -1], "prob": [0.0, 0.0, 1.0]},
])
def test_malformed_flat_tree_is_rejected(tmp_path, lists):
    with pytest.raises(ValueError):
        check_tree(lists, 1)
    path = tmp_path / "bad.model"
    save_bundle(path, DecisionTreeClassifier().fit(*deep_set(4)), StandardScaler().fit(
        deep_set(4)[0]), 0.5, ["x"], {})
    payload = json.loads(path.read_text())
    payload["model"]["flat_tree"] = lists
    path.write_text(json.dumps(payload))
    with pytest.raises(FraudkitError, match="not a model bundle"):
        load_bundle(path)


@pytest.mark.parametrize(
    "n_trees, n_rows", [(50, 284_807), (7, 1_000), (128, 5_000), (3, 10), (10, 19_000)]
)
def test_forest_mean_equals_np_mean_of_the_stack(monkeypatch, n_trees, n_rows):
    """The forest sums its trees' outputs in place, and its mean is
    np.mean's over a trees x rows stack, bit for bit."""
    rng = np.random.default_rng(n_trees * n_rows)
    outputs = rng.random((n_trees, n_rows))
    outputs[:, ::7] = rng.integers(0, 2, size=outputs[:, ::7].shape)  # pure leaves
    monkeypatch.setattr(trees, "_predict", lambda tree, X: outputs[tree].copy())
    forest = RandomForestClassifier(n_trees=n_trees)
    forest.trees_ = list(range(n_trees))
    got = forest.predict_proba(np.empty((n_rows, 1)))
    assert got.tobytes() == np.mean(outputs, axis=0).tobytes()
