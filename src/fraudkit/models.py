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

from fraudkit.base import BaseEstimator, FraudkitError, NotFittedError, check_kind, check_object
from fraudkit.nn.layers import LSTM, Activation, Conv1D, Conv2D, Dense, Dropout, Flatten, MaxPool1D
from fraudkit.nn.network import Network, fit as fit_network
from fraudkit.preprocess import StandardScaler
from fraudkit.trees import DecisionTreeClassifier, RandomForestClassifier
from fraudkit.trees import check_tree

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
    return Network(
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


def build_cnn1d(input_features):
    """Length-1 sequence with input_features channels, per the 1DCNN layout:
    conv1d(64,k=1) x2 -> dropout(0.5) -> maxpool(1) -> flatten(64) ->
    dense(100,relu) -> dense(1,sigmoid)."""
    return Network(
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
    """fit/predict_proba wrapper over the network engine for one architecture."""

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
    return model.predict_proba(np.asarray(rows, dtype=np.float64))


def classify(model, rows, threshold=0.5):
    """Labels = 1 iff p >= threshold (boundary inclusive); threshold clamped."""
    threshold = min(max(float(threshold), 0.0), 1.0)
    return (predict(model, rows) >= threshold).astype(np.int64)


def model_to_dict(model):
    """Serializable form of any trained model. A tree is its preorder lists
    (trees.TREE_KEYS), so no depth is too deep for JSON."""
    from fraudkit.nn.network import network_to_dict

    if isinstance(model, NeuralNetClassifier):
        return {"kind": model.kind, "network": network_to_dict(model.network_)}
    if isinstance(model, DecisionTreeClassifier):
        return {"kind": "dtree", "flat_tree": model.tree_}
    if isinstance(model, RandomForestClassifier):
        return {"kind": "forest", "flat_trees": model.trees_}
    raise ValueError(f"cannot serialize model of type {type(model).__name__}")


def model_from_dict(payload):
    """The model model_to_dict wrote. Its kind must be one of MODEL_KINDS;
    load_bundle checks its trees against the bundle's features."""
    from fraudkit.nn.network import network_from_dict

    kind = check_kind(payload["kind"], MODEL_KINDS, "model kind")
    model = make_model(kind)
    if kind in _NETWORK_BUILDERS:
        model.network_ = network_from_dict(payload["network"])
    elif kind == "dtree":
        model.tree_ = payload["flat_tree"]
    else:
        model.trees_ = payload["flat_trees"]
    return model


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
    another format_version (an int: true is not 1), or holds a payload
    that could not score its features raises FraudkitError naming the
    file: features must be distinct strings, the scaler's mean and std
    finite and one per feature, the threshold a number in [0, 1], a
    network as wide as the features and ending in a one-unit sigmoid
    head, and every tree pass trees.check_tree. A part of the wrong JSON type fails naming its key,
    and a categories key that is not a feature, or a categories list that
    repeats a value, names that feature. A bundle loads only in the form
    save_bundle writes: one that lacks categories, or holds trees in any
    form but the flat lists, fails naming the key.
    """
    try:
        payload = check_object(json.loads(Path(path).read_text(encoding="utf-8")), "bundle")
        version = payload["format_version"]
        if type(version) is not int or version != BUNDLE_FORMAT_VERSION:
            raise FraudkitError(f"{path}: unsupported bundle format_version {version!r}")
        features = payload["features"]
        if type(features) is not list or any(type(f) is not str for f in features):
            raise ValueError(f"features {features!r} are not a list of strings")
        if len(set(features)) != len(features):
            raise ValueError(f"features {features} repeat a name")
        scaler, stats = StandardScaler(), check_object(payload["scaler"], "scaler")
        scaler.mean_ = np.asarray(stats["mean"], dtype=np.float64)
        scaler.std_ = np.asarray(stats["std"], dtype=np.float64)
        if not (np.isfinite(scaler.mean_).all() and np.isfinite(scaler.std_).all()):
            raise ValueError("scaler mean and std must be finite")
        if not scaler.mean_.shape == scaler.std_.shape == (len(features),):
            raise ValueError(
                f"scaler has {scaler.mean_.size} means and {scaler.std_.size} stds "
                f"for {len(features)} features"
            )
        threshold = payload["threshold"]
        if type(threshold) not in (int, float) or not 0 <= threshold <= 1:
            raise ValueError(f"threshold {threshold!r} is not a number in [0, 1]")
        categories = payload["categories"]
        if type(categories) is not dict or any(
            type(v) is not list or any(type(c) is not str for c in v) for v in categories.values()
        ):
            raise ValueError("categories must map feature names to lists of strings")
        for name, values in categories.items():
            if name not in features:
                raise ValueError(f"categories key {name!r} is not one of the features")
            if len(set(values)) != len(values):
                raise ValueError(f"categories of {name!r} {values} repeat a value")
        categories = {name: tuple(v) for name, v in categories.items()}
        model = model_from_dict(check_object(payload["model"], "model"))
        if isinstance(model, NeuralNetClassifier):
            net = model.network_
            if net.n_inputs != len(features):
                raise ValueError(
                    f"network input shape {list(net.input_shape)} "
                    f"does not fit {len(features)} features"
                )
            head = net.layers[-1] if net.layers else None
            sigmoid = isinstance(head, Activation) and head.activation == "sigmoid"
            if not sigmoid or net.output_shape != (1,):
                raise ValueError("network layers do not end in a one-unit sigmoid head")
        else:
            forest = isinstance(model, RandomForestClassifier)
            trees = model.trees_ if forest else [model.tree_]
            if not trees:
                raise ValueError("forest has no trees")
            for i, tree in enumerate(trees):
                key = f"flat_trees[{i}]" if forest else "flat_tree"
                check_tree(check_object(tree, key), len(features))
        return model, scaler, threshold, features, categories
    except KeyError as exc:
        raise FraudkitError(f"{path}: not a model bundle: missing key {exc}") from None
    except (AttributeError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise FraudkitError(f"{path}: not a model bundle: {exc}") from None
