import itertools

import numpy as np
import pytest

from fraudkit.base import NotFittedError
from fraudkit.models import (
    MODEL_KINDS,
    NeuralNetClassifier,
    build_cnn1d,
    build_cnn2d,
    build_lstm,
    build_logreg,
    classify,
    load_bundle,
    make_model,
    model_from_dict,
    model_to_dict,
    predict,
    save_bundle,
)
from fraudkit.preprocess import StandardScaler
from fraudkit.trees import DecisionTreeClassifier, RandomForestClassifier, _gini_part


class _Stub:
    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=np.float64)

    def predict_proba(self, X):
        return self.probs


def n_params(net):
    return sum(arr.size for arr in net.named_params().values())


class TestArchitectures:
    def test_cnn2d_grid(self):
        assert build_cnn2d(30).input_shape == (5, 6, 1)
        with pytest.raises(ValueError, match="not reshapeable to 5x6"):
            build_cnn2d(11)

    def test_cnn2d_parameter_count(self):
        net = build_cnn2d(30).initialize(0)
        # conv 3x3x1x64 + 64, conv 3x3x64x32 + 32, dense 64 -> 1
        assert n_params(net) == (576 + 64) + (18432 + 32) + (64 + 1)
        assert n_params(net) == 19169

    def test_cnn1d_parameter_count(self):
        f = 30
        net = build_cnn1d(f).initialize(0)
        expected = (f * 64 + 64) + (64 * 64 + 64) + (64 * 100 + 100) + (100 + 1)
        assert n_params(net) == expected

    def test_lstm_parameter_count(self):
        f = 30
        net = build_lstm(f, hidden=50).initialize(0)
        assert n_params(net) == 4 * (50 * (50 + f) + 50) + (50 + 1)

    def test_logreg_parameter_count(self):
        assert n_params(build_logreg(7).initialize(0)) == 8

    def test_flatten_widths(self):
        assert build_cnn2d(30).shapes[5] == (64,)
        assert build_cnn1d(30).shapes[7] == (64,)

    def test_lstm_zero_input_gives_half(self):
        net = build_lstm(4).initialize(3)
        p = net.predict_proba(np.zeros((2, 4)))
        # zero input, zero state: cell stays 0, so the head sees its bias only
        assert p == pytest.approx([0.5, 0.5], abs=1e-12)


class TestLogreg:
    def test_intercept_only_learns_base_rate(self):
        X = np.zeros((200, 2))
        y = np.array([1] * 50 + [0] * 150)
        clf = NeuralNetClassifier(kind="logreg", lr=0.1, epochs_max=200, patience=200, seed=0)
        clf.fit(X, y)
        assert clf.predict_proba(X)[0] == pytest.approx(0.25, abs=0.02)

    def test_coefficient_recovery(self):
        rng = np.random.default_rng(0)
        w_true = np.array([1.5, -2.0])
        X = rng.normal(size=(4000, 2))
        p = 1.0 / (1.0 + np.exp(-(X @ w_true)))
        y = (rng.uniform(size=4000) < p).astype(np.int64)
        clf = NeuralNetClassifier(kind="logreg", lr=0.05, epochs_max=300, patience=300, seed=1)
        clf.fit(X, y)
        w_hat = clf.network_.layers[0].params["W"][0]
        assert np.all(np.abs(w_hat - w_true) / np.abs(w_true) < 0.15)

    def test_separable(self, blobs):
        clf = make_model("logreg", lr=0.05, epochs_max=60, seed=2)
        clf.fit(blobs.features, blobs.labels)
        acc = np.mean(classify(clf, blobs.features) == blobs.labels)
        assert acc >= 0.95

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            NeuralNetClassifier(kind="logreg").predict_proba(np.zeros((1, 2)))


class TestDecisionTree:
    def test_pure_leaf(self):
        tree = DecisionTreeClassifier().fit(np.zeros((5, 2)), np.zeros(5, dtype=np.int64))
        assert tree.tree_["feature"][0] == -1
        assert tree.tree_["prob"][0] == 0.0

    def test_perfect_split(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.tree_["feature"][0] == 0
        assert tree.tree_["threshold"][0] == 1.5
        assert np.array_equal(classify(tree, X), y)

    def test_conjunction_needs_depth_two(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 0, 0, 1])  # x0 AND x1
        shallow = DecisionTreeClassifier(max_depth=1).fit(X, y)
        deep = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert not np.array_equal(classify(shallow, X), y)
        assert np.array_equal(classify(deep, X), y)

    def test_xor_has_no_greedy_split(self):
        # every axis split on XOR leaves Gini unchanged, so greedy CART
        # keeps the root as a 0.5 leaf rather than splitting arbitrarily
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.tree_["feature"][0] == -1
        assert tree.tree_["prob"][0] == 0.5

    def test_depth_one_matches_brute_force(self):
        def gini_of_split(X, y, j, t):
            mask = X[:, j] <= t
            if mask.sum() == 0 or (~mask).sum() == 0:
                return np.inf
            return _gini_part(y[mask].sum(), mask.sum()) + _gini_part(
                y[~mask].sum(), (~mask).sum()
            )

        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(25, 3))
            y = rng.integers(0, 2, size=25)
            if y.min() == y.max():
                continue
            best = min(
                (
                    (gini_of_split(X, y, j, t), j, t)
                    for j in range(3)
                    for t in (
                        np.sort(np.unique(X[:, j]))[:-1] + np.diff(np.sort(np.unique(X[:, j]))) / 2
                    )
                ),
            )
            tree = DecisionTreeClassifier(max_depth=1).fit(X, y)
            assert tree.tree_["feature"][0] == best[1], f"seed {seed}"
            assert tree.tree_["threshold"][0] == pytest.approx(best[2], abs=1e-12)

    def test_min_leaf_respected(self):
        X = np.arange(10, dtype=np.float64).reshape(-1, 1)
        y = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
        tree = DecisionTreeClassifier(min_leaf=3).fit(X, y)

        t = tree.tree_

        def check(i, idx):
            if t["feature"][i] == -1:
                assert idx.size >= 3
                return
            mask = X[idx, t["feature"][i]] <= t["threshold"][i]
            check(t["left"][i], idx[mask])
            check(t["right"][i], idx[~mask])

        check(0, np.arange(10))

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict_proba(np.zeros((1, 1)))


    @pytest.mark.parametrize(
        "values",
        [[0.3, 0.1 + 0.2], [1e308, 1.5e308], [-1.5e308, -1e308]],
        ids=["midpoint-rounds-up", "sum-overflows", "sum-overflows-negative"],
    )
    def test_threshold_separates_neighbouring_values(self, values):
        # The midpoint of these neighbours rounds to the upper value or
        # overflows; the threshold must still send the lower value left.
        X = np.array(values).reshape(-1, 1)
        y = np.array([0, 1])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.tree_["threshold"][0] == values[0]
        assert classify(tree, X).tolist() == [0, 1]


class TestForest:
    def test_deterministic(self, blobs):
        X, y = blobs.features, blobs.labels
        a = RandomForestClassifier(n_trees=5, seed=4).fit(X, y).predict_proba(X)
        b = RandomForestClassifier(n_trees=5, seed=4).fit(X, y).predict_proba(X)
        assert np.array_equal(a, b)

    def test_accuracy_on_blobs(self, blobs):
        X, y = blobs.features, blobs.labels
        forest = RandomForestClassifier(n_trees=10, seed=1).fit(X, y)
        assert np.mean(classify(forest, X) == y) >= 0.95

    def test_bad_n_trees(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_trees=0).fit(np.zeros((4, 1)), np.array([0, 1, 0, 1]))

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            RandomForestClassifier().predict_proba(np.zeros((1, 1)))


class TestPredictClassify:
    def test_boundary_inclusive(self):
        model = _Stub([0.5, 0.49999])
        assert classify(model, np.zeros((2, 1)), threshold=0.5).tolist() == [1, 0]

    def test_threshold_clamped(self):
        model = _Stub([0.2, 1.0])
        assert classify(model, np.zeros((2, 1)), threshold=5.0).tolist() == [0, 1]
        assert classify(model, np.zeros((2, 1)), threshold=-1.0).tolist() == [1, 1]

    def test_probabilities_pass_through_in_the_unit_interval(self, blobs):
        """predict clips nothing: every model keeps its scores in [0, 1],
        at saturated sigmoid heads and pure leaves too."""
        X, y = blobs.features, blobs.labels
        far = X * 1e3
        for model in (
            DecisionTreeClassifier(max_depth=3).fit(X, y),
            RandomForestClassifier(n_trees=3, seed=1).fit(X, y),
            NeuralNetClassifier(kind="logreg", epochs_max=2, seed=1).fit(X, y),
        ):
            p = predict(model, far)
            assert np.array_equal(p, model.predict_proba(far))
            assert ((p >= 0.0) & (p <= 1.0)).all()
            assert {0.0, 1.0} <= set(p.tolist()), type(model).__name__

    def test_permutation_invariance(self, blobs):
        X, y = blobs.features, blobs.labels
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        perm = np.random.default_rng(5).permutation(len(X))
        assert np.array_equal(classify(tree, X)[perm], classify(tree, X[perm]))


# Every argument run_cell or a plan hands make_model, none at its default,
# plus one that no model takes.
FACTORY_ARGS = dict(hidden=7, inner_act="tanh", lr=0.01, epochs_max=3, batch_size=16, patience=2,
                    seed=9, n_trees=4, max_depth=5, min_leaf=2, unknown=1)
NETWORK_ARGS = ("hidden", "inner_act", "lr", "epochs_max", "batch_size", "patience", "seed")


class TestFactoryAndSerialization:
    @pytest.mark.parametrize("kind,taken", [
        *((kind, NETWORK_ARGS) for kind in ("cnn2d", "cnn1d", "lstm", "logreg")),
        ("dtree", ("max_depth", "min_leaf")),
        ("forest", ("n_trees", "max_depth", "min_leaf", "seed")),
    ])
    def test_make_model_passes_what_the_constructor_takes(self, kind, taken):
        params = make_model(kind, **FACTORY_ARGS).get_params()
        assert params.pop("kind", kind) == kind
        assert params == {name: FACTORY_ARGS[name] for name in taken}

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_bundle_load_then_save_rewrites_the_bytes(self, kind, tmp_path):
        rng = np.random.default_rng(4)
        X, y = rng.normal(size=(40, 30)), np.arange(40) % 2
        model = make_model(kind, epochs_max=1, hidden=4, n_trees=2, max_depth=3, seed=1).fit(X, y)
        first, second = tmp_path / "first.model", tmp_path / "second.model"
        features = [f"f{j}" for j in range(30)]
        save_bundle(first, model, StandardScaler().fit(X), 0.25, features, {"f3": ("a", "b")})
        save_bundle(second, *load_bundle(first))
        assert second.read_bytes() == first.read_bytes()

    def test_make_model_kinds(self):
        assert make_model("cnn2d").kind == "cnn2d"
        assert isinstance(make_model("dtree", max_depth=3), DecisionTreeClassifier)
        assert isinstance(make_model("forest", n_trees=2), RandomForestClassifier)
        with pytest.raises(ValueError):
            make_model("svm")

    def test_get_params_round_trip(self):
        clf = NeuralNetClassifier(kind="lstm", hidden=20, lr=0.01)
        params = clf.get_params()
        assert params["hidden"] == 20
        clone = NeuralNetClassifier(**params)
        assert clone.get_params() == params

    @pytest.mark.parametrize("kind", ["logreg", "dtree", "forest"])
    def test_serialization_round_trip(self, kind, blobs):
        X, y = blobs.features, blobs.labels
        model = make_model(kind, epochs_max=3, n_trees=3, max_depth=3, seed=0)
        model.fit(X, y)
        clone = model_from_dict(model_to_dict(model))
        assert np.allclose(model.predict_proba(X), clone.predict_proba(X), atol=0)

    def test_serialization_network_kind(self, blobs):
        X, y = blobs.features, blobs.labels
        model = make_model("cnn1d", epochs_max=2, seed=0).fit(X, y)
        clone = model_from_dict(model_to_dict(model))
        assert np.array_equal(model.predict_proba(X), clone.predict_proba(X))

    def test_unknown_payload(self):
        with pytest.raises(ValueError):
            model_from_dict({"kind": "svm"})
