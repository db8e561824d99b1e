"""Model architectures, a uniform train/predict interface, and bundles.

Builders assemble the three deep architectures (2DCNN, 1DCNN, LSTM);
classifier wrappers expose fit/predict_proba/predict for every model
kind, deep or classical. A bundle is the one saved form of a fitted
pipeline: feature order, categorical mappings, scaler statistics, model
and threshold.
"""

import json
from pathlib import Path

import numpy as np

from fraudkit.base import BaseEstimator, FraudkitError, NotFittedError
from fraudkit.nn.layers import LSTM, Activation, Conv1D, Conv2D, Dense, Dropout, Flatten, MaxPool1D
from fraudkit.nn.network import Network, fit as fit_network
from fraudkit.preprocess import StandardScaler
from fraudkit.trees import (
    DecisionTreeClassifier,
    RandomForestClassifier,
    TreeNode,
    tree_from_lists,
    tree_to_lists,
)

BUNDLE_FORMAT_VERSION = 1


def build_cnn2d(input_features=30):
    """conv2d(64,3x3,relu) -> conv2d(32,3x3,relu) -> flatten -> dense(1,sigmoid).

    Rows fill the 5x6 feature image row-major in dataset column order,
    so only 30-feature inputs fit.
    """
    if input_features != 30:
        raise ValueError(
            f"not reshapeable to 5x6: {input_features} features (expected 30)"
        )
    net = Network(
        [
            Conv2D(64, 3, init="he"),
            Activation("relu"),
            Conv2D(32, 3, init="he"),
            Activation("relu"),
            Flatten(),
            Dense(1, init="glorot"),
            Activation("sigmoid"),
        ],
        input_shape=(5, 6, 1),
    )
    flat = net.shapes[5][0]
    assert flat == 64, f"flatten width {flat} != 64 for the 5x6 grid"
    return net


def build_cnn1d(input_features):
    """Length-1 sequence with input_features channels, per the 1DCNN layout:
    conv1d(64,k=1) x2 -> dropout(0.5) -> maxpool(1) -> flatten(64) ->
    dense(100,relu) -> dense(1,sigmoid)."""
    net = Network(
        [
            Conv1D(64, 1, init="he"),
            Activation("relu"),
            Conv1D(64, 1, init="he"),
            Activation("relu"),
            Dropout(0.5),
            MaxPool1D(1),
            Flatten(),
            Dense(100, init="he"),
            Activation("relu"),
            Dense(1, init="glorot"),
            Activation("sigmoid"),
        ],
        input_shape=(1, input_features),
    )
    flat = net.shapes[7][0]
    assert flat == 64, f"flatten width {flat} != 64"
    return net


def build_lstm(input_features, hidden=50, inner_act="relu"):
    """Length-1 sequence into an LSTM with `hidden` blocks, sigmoid head."""
    return Network(
        [
            LSTM(hidden, inner_act=inner_act, init="glorot"),
            Dense(1, init="glorot"),
            Activation("sigmoid"),
        ],
        input_shape=(1, input_features),
    )


def build_logreg(input_features):
    """Logistic regression as a dense(1, sigmoid) network."""
    return Network(
        [Dense(1, init="glorot"), Activation("sigmoid")],
        input_shape=(input_features,),
    )


# kind -> builder(input_features, classifier); the classifier carries hidden and inner_act.
_NETWORK_BUILDERS = {
    "cnn2d": lambda f, clf: build_cnn2d(f),
    "cnn1d": lambda f, clf: build_cnn1d(f),
    "lstm": lambda f, clf: build_lstm(f, hidden=clf.hidden, inner_act=clf.inner_act),
    "logreg": lambda f, clf: build_logreg(f),
}


MODEL_KINDS = (*_NETWORK_BUILDERS, "dtree", "forest")


class NeuralNetClassifier(BaseEstimator):
    """fit/predict wrapper over the network engine for one architecture."""

    def __init__(
        self,
        kind="cnn1d",
        hidden=50,
        inner_act="relu",
        lr=0.001,
        epochs_max=100,
        batch_size=256,
        patience=5,
        seed=0,
    ):
        self.kind = kind
        self.hidden = hidden
        self.inner_act = inner_act
        self.lr = lr
        self.epochs_max = epochs_max
        self.batch_size = batch_size
        self.patience = patience
        self.seed = seed
        self.network_ = None
        self.history_ = None

    def fit(self, X, y, X_val=None, y_val=None):
        if self.kind not in _NETWORK_BUILDERS:
            raise ValueError(f"unknown network kind {self.kind!r}")
        X = np.asarray(X, dtype=np.float64)
        self.network_ = _NETWORK_BUILDERS[self.kind](X.shape[1], self)
        self.history_ = fit_network(
            self.network_,
            X,
            y,
            X_val,
            y_val,
            epochs_max=self.epochs_max,
            batch_size=self.batch_size,
            patience=self.patience,
            lr=self.lr,
            seed=self.seed,
        )
        return self

    def predict_proba(self, X):
        if self.network_ is None:
            raise NotFittedError(f"{self.kind} model is not fitted")
        return self.network_.predict_proba(np.asarray(X, dtype=np.float64))

    def predict(self, X, threshold=0.5):
        return classify(self, X, threshold)


def make_model(kind, **params):
    """Uniform factory over every model kind. The model gets each of params
    that its constructor takes; the others (say lr for a tree) are ignored."""
    if kind in _NETWORK_BUILDERS:
        cls, params = NeuralNetClassifier, {**params, "kind": kind}
    elif kind == "dtree":
        cls = DecisionTreeClassifier
    elif kind == "forest":
        cls = RandomForestClassifier
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    names = cls._param_names()
    return cls(**{k: v for k, v in params.items() if k in names})


def predict(model, rows):
    p = model.predict_proba(np.asarray(rows, dtype=np.float64))
    return np.clip(p, 0.0, 1.0)


def classify(model, rows, threshold=0.5):
    """Labels = 1 iff p >= threshold (boundary inclusive); threshold clamped."""
    threshold = min(max(float(threshold), 0.0), 1.0)
    return (predict(model, rows) >= threshold).astype(np.int64)


def model_to_dict(model):
    """Serializable form of any trained model. Trees are flat preorder
    lists (trees.tree_to_lists), so no depth is too deep for JSON."""
    from fraudkit.nn.network import network_to_dict

    if isinstance(model, NeuralNetClassifier):
        return {"kind": model.kind, "network": network_to_dict(model.network_)}
    if isinstance(model, DecisionTreeClassifier):
        return {"kind": "dtree", "flat_tree": tree_to_lists(model.root_)}
    if isinstance(model, RandomForestClassifier):
        return {"kind": "forest", "flat_trees": [tree_to_lists(t.root_) for t in model.trees_]}
    raise ValueError(f"cannot serialize model of type {type(model).__name__}")


def model_from_dict(payload):
    """The model model_to_dict wrote. Trees are also read in the nested
    form ("root" and "trees") of bundles written before the flat lists."""
    from fraudkit.nn.network import network_from_dict

    kind = payload["kind"]
    if kind in _NETWORK_BUILDERS:
        model = NeuralNetClassifier(kind=kind)
        model.network_ = network_from_dict(payload["network"])
        return model
    if kind == "dtree":
        model = DecisionTreeClassifier()
        if "flat_tree" in payload:
            model.root_ = tree_from_lists(payload["flat_tree"])
        else:
            model.root_ = TreeNode.from_dict(payload["root"])
        return model
    if kind == "forest":
        model = RandomForestClassifier()
        model.trees_ = []
        if "flat_trees" in payload:
            roots = [tree_from_lists(lists) for lists in payload["flat_trees"]]
        else:
            roots = [TreeNode.from_dict(d) for d in payload["trees"]]
        for root in roots:
            tree = DecisionTreeClassifier()
            tree.root_ = root
            model.trees_.append(tree)
        return model
    raise ValueError(f"unknown serialized model kind {kind!r}")


def _check_tree_features(model, n_features):
    """Every split of a tree model reads one of the n_features columns: its
    feature is an int in [0, n_features)."""
    if isinstance(model, DecisionTreeClassifier):
        stack = [model.root_]
    elif isinstance(model, RandomForestClassifier):
        stack = [tree.root_ for tree in model.trees_]
    else:
        return
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            if type(node.feature) is not int or not 0 <= node.feature < n_features:
                raise ValueError(
                    f"tree feature index {node.feature} is outside its {n_features} features"
                )
            stack += [node.left, node.right]


def save_bundle(path, model, scaler, threshold, features, categories):
    """Write a fitted pipeline as one JSON bundle.

    categories maps each categorical feature to its categories in code
    order, so scoring can re-apply the training encoding.
    """
    payload = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "features": list(features),
        "categories": categories,
        "model": model_to_dict(model),
        "scaler": {"mean": scaler.mean_.tolist(), "std": scaler.std_.tolist()},
        "threshold": threshold,
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_bundle(path):
    """Read a bundle -> (model, scaler, threshold, features, categories).

    A file that is not JSON, nests too deeply to decode, lacks a key, has
    another format_version, or has a scaler or tree split that does not fit
    its features raises FraudkitError naming the file. A bundle written before
    categories were stored loads with none.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload["format_version"] != BUNDLE_FORMAT_VERSION:
            raise FraudkitError(
                f"{path}: unsupported bundle format_version {payload['format_version']!r}"
            )
        scaler = StandardScaler()
        scaler.mean_ = np.asarray(payload["scaler"]["mean"], dtype=np.float64)
        scaler.std_ = np.asarray(payload["scaler"]["std"], dtype=np.float64)
        features = payload["features"]
        if not len(scaler.mean_) == len(scaler.std_) == len(features):
            raise ValueError(
                f"scaler has {len(scaler.mean_)} means and {len(scaler.std_)} stds "
                f"for {len(features)} features"
            )
        categories = {name: tuple(v) for name, v in payload.get("categories", {}).items()}
        model = model_from_dict(payload["model"])
        _check_tree_features(model, len(features))
        return model, scaler, payload["threshold"], features, categories
    except KeyError as exc:
        raise FraudkitError(f"{path}: not a model bundle: missing key {exc}") from None
    except (TypeError, ValueError, RecursionError) as exc:
        raise FraudkitError(f"{path}: not a model bundle: {exc}") from None
