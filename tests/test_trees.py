"""The blocked split search against the per-node sort reference at several
block sizes, deep trees without recursion, the flat tree payload, tree
bundles written before the lists became the in-memory form, and forest
bundles written before trees grew on weighted bootstrap rows."""

import json
from pathlib import Path

import numpy as np
import pytest

from fraudkit import trees
from fraudkit.base import FraudkitError
from fraudkit.models import load_bundle, model_to_dict, save_bundle
from fraudkit.preprocess import StandardScaler
from fraudkit.rng import derive_seed, generator
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
# blocks of 4 features at the root, which split 6 features 4 + 2 and a
# forest node's 5 drawn features 4 + 1.
BLOCKS = {"one": lambda n: 1, "row": lambda n: n, "uneven": lambda n: 4 * n}


def tie_heavy(seed, n=400, n_features=6):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, n_features)), 1)
    y = (rng.random(n) < 0.3).astype(np.int64)
    return X, y


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
    X, y = tie_heavy(3)
    monkeypatch.setattr(trees, "SEARCH_BLOCK", BLOCKS[block](len(y)))
    tree = DecisionTreeClassifier(min_leaf=2, seed=4).fit(X, y)
    assert json.dumps(tree_lists(tree)) == json.dumps(ref_tree_lists(X, y, min_leaf=2, seed=4))
    forest = RandomForestClassifier(n_trees=3, max_features=5, seed=6).fit(X, y)
    for t, lists in enumerate(model_to_dict(forest)["flat_trees"]):
        boot = generator(derive_seed(6, f"bootstrap/{t}")).integers(0, len(y), size=len(y))
        want = ref_tree_lists(X[boot], y[boot], max_features=5, seed=derive_seed(6, f"tree/{t}"))
        assert json.dumps(lists) == json.dumps(want), t


@pytest.mark.parametrize("max_features", [1, 3, 6])
@pytest.mark.parametrize("block", BLOCKS)
def test_forest_matches_reference_across_parameters_at_block_sizes(monkeypatch, block,
                                                                   max_features):
    for data, (X, y) in enumerate([tie_heavy(8, n=200), repeated_rows(9, n=200)]):
        monkeypatch.setattr(trees, "SEARCH_BLOCK", BLOCKS[block](len(y)))
        for case, (min_leaf, max_depth, bootstrap) in enumerate(FOREST_SETTINGS[data::2]):
            params = dict(n_trees=2, max_depth=max_depth, min_leaf=min_leaf,
                          max_features=max_features, bootstrap=bootstrap, seed=case)
            got = model_to_dict(RandomForestClassifier(**params).fit(X, y))["flat_trees"]
            assert json.dumps(got) == json.dumps(ref_forest_lists(X, y, **params)), (data, params)


@pytest.mark.parametrize("block", BLOCKS)
def test_tree_matches_reference_on_rounded_grids_at_block_sizes(monkeypatch, block):
    rng = np.random.default_rng(12)
    for case in range(120):
        n = int(rng.integers(2, 60))
        X = np.round(rng.normal(size=(n, int(rng.integers(1, 7)))), int(rng.integers(0, 2)))
        y = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.int64)
        params = dict(max_depth=[None, 2][case % 2], min_leaf=int(rng.integers(1, 4)),
                      max_features=[None, 1, 3][case % 3], seed=case)
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
    forest = RandomForestClassifier(n_trees=2, max_features=1, seed=1).fit(X, y)
    scaler = StandardScaler().fit(X)
    for model in (tree, forest):
        path = tmp_path / f"{type(model).__name__}.model"
        save_bundle(path, model, scaler, 0.5, ["x"], {})
        loaded = load_bundle(path)[0]
        assert np.array_equal(loaded.predict_proba(X), model.predict_proba(X))


def test_bundles_written_before_the_lists_score_as_stored():
    # tree_bundles/ holds a depth-4 CART and a 2-tree depth-3 forest, each
    # as written by fraudkit 2a2f6a3 (flat lists) and with the nested trees
    # of older bundles, and their probabilities on 40 fixed rows.
    expected = json.loads((TREE_BUNDLES / "expected.json").read_text())
    for kind in ("dtree", "forest"):
        for form in ("flat", "nested"):
            model, scaler, *_ = load_bundle(TREE_BUNDLES / f"{kind}_{form}.model")
            got = model.predict_proba(scaler.transform(expected["rows"]))
            assert got.tolist() == expected["probabilities"][kind], (kind, form)


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
