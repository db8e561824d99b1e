"""Sequential network container, training loop, and model serialization."""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from fraudkit.base import FraudkitError, check_kind, check_object, is_finite
from fraudkit.nn.layers import INITS, LAYER_KINDS
from fraudkit.nn.losses import bce_loss, bce_loss_grad
from fraudkit.nn.optim import Adam
from fraudkit.rng import derive_seed, generator

FORMAT_VERSION = 1
PREDICT_BLOCK = 512  # rows per forward pass in predict_proba
ALIGN = 8  # float64s in 64 bytes: each tensor's view starts on such a boundary; ALIGN = 1
# keeps every bit, but nn-train ran 3.27 s against 3.00 s (medians, 4 pairs, 2-vCPU Xeon VM)


class TrainingError(FraudkitError):
    pass


class Network:
    """Sequential layers over a fixed per-sample input shape.

    Rows arrive flat (batch x n_features) and are reshaped to
    input_shape; shape algebra across all layers is verified at
    construction, so mismatches fail before any training.

    Training state is four vectors: _pack, the one place that allocates
    parameters, sizes one float64 vector `theta` and one `grad` from the
    layers' declarations, makes each entry of a layer's params and grads a
    reshaped view into them, and writes the starting values (drawn, loaded
    or unpickled) into the views; Adam keeps one moment vector of each
    kind over theta. The gap between two tensors, there only to align the
    next, stays zero in both vectors, so Adam leaves it at zero.
    """

    def __init__(self, layers, input_shape):
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        self.shapes = [self.input_shape]
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
            self.shapes.append(tuple(int(d) for d in shape))
        self.output_shape = self.shapes[-1]
        self.initialized = False

    def __setstate__(self, state):
        """pickle and copy.deepcopy copy each view as an array of its own,
        which training would no longer reach: copy them into a new theta."""
        self.__dict__.update(state)
        if self.initialized:
            self._pack([self.layers[i].params[name] for i, name, *_ in self._declared()])

    @property
    def n_inputs(self):
        return int(np.prod(self.input_shape))

    def initialize(self, seed=0):
        rng = generator(seed)
        self._pack(
            INITS[self.layers[i].init](rng, shape, *fans) if fans else 0.0
            for i, _name, shape, fans in self._declared()
        )
        return self

    def _declared(self):
        """(layer index, name, shape, fans) of every parameter, in the
        order they are drawn and saved."""
        return [
            (i, *decl)
            for i, (layer, shape) in enumerate(zip(self.layers, self.shapes))
            for decl in layer.declare_params(shape)
        ]

    def _pack(self, values):
        """Size theta and grad from the declarations, point every layer's
        params and grads into them, each tensor on a 64-byte boundary, and
        write into each the starting values (an array, flat list or scalar)
        of its declaration."""
        declared, starts, end = self._declared(), [], 0
        for *_, shape, _fans in declared:
            starts.append(end)
            end += -(-math.prod(shape) // ALIGN) * ALIGN
        self.theta, self.grad = _aligned_zeros(end), _aligned_zeros(end)
        for (i, name, shape, _fans), start, value in zip(declared, starts, values, strict=True):
            window = slice(start, start + math.prod(shape))
            self.theta[window] = np.asarray(value, dtype=np.float64).reshape(-1)
            self.layers[i].params[name] = self.theta[window].reshape(shape)
            self.layers[i].grads[name] = self.grad[window].reshape(shape)
        self.initialized = True

    def named_params(self):
        return {
            f"{i}.{name}": arr
            for i, layer in enumerate(self.layers)
            for name, arr in layer.params.items()
        }

    def named_grads(self):
        return {
            f"{i}.{name}": arr
            for i, layer in enumerate(self.layers)
            for name, arr in layer.grads.items()
        }

    def _reshape(self, X):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_inputs:
            raise ValueError(
                f"network expects {self.n_inputs} features per row, got shape {X.shape}"
            )
        return X.reshape(X.shape[0], *self.input_shape)

    def forward(self, X):
        """The network's output for X. Scoring needs no backward state, so
        each layer's is dropped as soon as that layer has returned."""
        return self._forward(X, keep=False)

    def _forward(self, X, keep, train=False, rng=None):
        if not self.initialized:
            raise TrainingError("network parameters are not initialized")
        out = self._reshape(X)
        for layer in self.layers:
            out = layer.forward(out, train=train, rng=rng)
            if not keep:
                layer.saved = None
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("non-finite network output")
        return out

    def predict_proba(self, X):
        """Forward passes over PREDICT_BLOCK rows at a time, so memory is bounded.
        A block is small, under 5 MB per cnn2d array, so that once the
        process has freed a larger array the allocator reuses a block's
        memory for the next one rather than fault it in again. Up to one
        block this is one forward pass, bit for bit; beyond it BLAS may round
        a row's last bits differently, by the row count of its call."""
        starts = range(0, max(len(X), 1), PREDICT_BLOCK)
        out = np.concatenate([self.forward(X[s : s + PREDICT_BLOCK]) for s in starts])
        return out.reshape(len(X))

    def zero_grads(self):
        self.grad.fill(0.0)

    def loss_and_grads(self, X, y, rng=None, train=True):
        """Mean batch BCE plus accumulated parameter gradients. The one path
        that keeps each layer's forward state, until its backward is done.
        The first layer computes no input gradient, as nothing reads it."""
        self.zero_grads()
        out = self._forward(X, keep=True, train=train, rng=rng)
        p = out.reshape(len(X))
        loss = bce_loss(p, y)
        grad = bce_loss_grad(p, y).reshape(out.shape)
        for k, layer in reversed(list(enumerate(self.layers))):
            grad = layer.backward(grad, input_grad=k > 0)
            layer.saved = None
        return loss


@dataclass
class TrainingHistory:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_accuracy: list = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False

    def to_dict(self):
        return asdict(self)


def fit(
    network,
    X_train,
    y_train,
    X_val=None,
    y_val=None,
    epochs_max=100,
    batch_size=256,
    patience=5,
    lr=0.001,
    seed=0,
):
    """Seeded mini-batch training with early stopping on validation loss.

    Shuffles per epoch, restores best-validation parameters on early
    stop. Without a validation set, runs all epochs on train loss.
    """
    X_train = np.asarray(X_train, dtype=np.float64)
    y_train = np.asarray(y_train)
    if len(X_train) == 0:
        raise TrainingError("empty training set")
    if not network.initialized:
        network.initialize(derive_seed(seed, "init"))
    history = TrainingHistory()
    if epochs_max == 0:
        return history

    shuffle_rng = generator(derive_seed(seed, "shuffle"))
    dropout_rng = generator(derive_seed(seed, "dropout"))
    optimizer = Adam(lr=lr)
    have_val = X_val is not None and len(X_val) > 0
    best_loss = np.inf
    best_theta = network.theta.copy()
    epochs_since_best = 0

    for epoch in range(epochs_max):
        order = shuffle_rng.permutation(len(X_train))
        epoch_loss = 0.0
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            loss = network.loss_and_grads(X_train[batch], y_train[batch], rng=dropout_rng)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {start // batch_size}"
                )
            optimizer.step({"theta": network.theta}, {"theta": network.grad})
            epoch_loss += loss * len(batch)
        history.train_loss.append(epoch_loss / len(order))

        if have_val:
            p_val = network.predict_proba(X_val)
            v_loss = bce_loss(p_val, y_val)
            history.val_loss.append(v_loss)
            history.val_accuracy.append(float(np.mean((p_val >= 0.5) == (y_val == 1))))
            monitored = v_loss
        else:
            monitored = history.train_loss[-1]

        if monitored < best_loss:
            best_loss = monitored
            best_theta[...] = network.theta
            history.best_epoch = epoch
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= patience:
                history.stopped_early = True
                break

    network.theta[...] = best_theta
    return history


def network_to_dict(network):
    layers = []
    for layer in network.layers:
        layers.append(
            {
                "kind": layer.kind,
                "hyperparams": layer.get_params(),
                "params": {
                    name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
                    for name, arr in layer.params.items()
                },
            }
        )
    return {
        "format_version": FORMAT_VERSION,
        "input_shape": list(network.input_shape),
        "layers": layers,
    }


def _layer_from_spec(i, spec):
    """The untrained layer spec describes; a hyperparameter its constructor
    rejects is a ValueError naming layers[i]."""
    cls = LAYER_KINDS[check_kind(spec["kind"], LAYER_KINDS, f"layers[{i}] kind")]
    hyperparams = check_object(spec["hyperparams"], f"layers[{i}] hyperparams")
    try:
        return cls(**hyperparams)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"layers[{i}] hyperparams: {exc}") from None


def network_from_dict(payload):
    """The network network_to_dict wrote. Its input_shape must be positive
    ints, its layers a list of objects of known kinds, and each layer's
    parameters the ones it declares, with that shape and as many finite
    numbers (not bools), checked before any is allocated; nothing is drawn.
    Its format_version must be the int FORMAT_VERSION: true is not 1."""
    version = check_object(payload, "network").get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    input_shape, specs = payload["input_shape"], payload["layers"]
    if type(input_shape) is not list or any(type(d) is not int or d < 1 for d in input_shape):
        raise ValueError(f"input_shape {input_shape!r} is not a list of positive ints")
    if type(specs) is not list:
        raise ValueError(f"layers is a {type(specs).__name__}, not a list")
    specs = [check_object(spec, f"layers[{i}]") for i, spec in enumerate(specs)]
    network = Network([_layer_from_spec(i, spec) for i, spec in enumerate(specs)], input_shape)
    declared = network._declared()
    for i, spec in enumerate(specs):
        stored = sorted(check_object(spec["params"], f"layers[{i}] params"))
        if stored != sorted(name for j, name, *_ in declared if j == i):
            raise ValueError(f"layers[{i}] params {stored} are not the ones the layer declares")
    data = []
    for i, name, shape, _fans in declared:
        key = f"layers[{i}] params {name}"
        p = check_object(specs[i]["params"][name], key)
        if p["shape"] != list(shape) or any(type(d) is not int for d in p["shape"]):
            raise ValueError(f"{key} shape {p['shape']!r} is not the declared {list(shape)}")
        values = p["data"]
        if type(values) is not list or len(values) != math.prod(shape):
            raise ValueError(f"{key} data is not a list of {math.prod(shape)} values")
        if not set(map(type, values)) <= {int, float} or not all(map(is_finite, values)):
            raise ValueError(f"{key} data holds values that are not finite numbers")
        data.append(values)
    network._pack(data)
    return network


def _aligned_zeros(n):
    """n float64 zeros starting on a 64-byte boundary."""
    buf = np.zeros(n + ALIGN)
    skip = -buf.ctypes.data % (ALIGN * buf.itemsize) // buf.itemsize
    return buf[skip : skip + n]
