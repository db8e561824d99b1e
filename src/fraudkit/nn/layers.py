"""Layer forward/backward passes for the dense-tensor network engine.

All arrays are batch-first float64. Conv1D and Conv2D are one
convolution, valid-padding and stride 1, over one or two spatial axes;
tests/test_nn_reference.py holds each to a loop im2col reference, bit
for bit. The sequence layers take one step, as every model here sees a
transaction as a sequence of length 1: MaxPool1D pools windows of one
step, the identity, and LSTM runs one step from a zero state.

Each activation is defined once, in _ACTIVATIONS, with its derivative
taken from its output. The Activation layer saves its output; the LSTM
saves z, its gate outputs and phi(c), so its backward evaluates none.

A layer's forward keeps what its backward needs in one attribute,
`saved`, which the network clears as soon as it no longer needs it:
after each layer's forward when scoring, after its backward when
training.

A layer allocates no parameters: declare_params lists the name, shape
and initializer fans of each one, and the network makes each entry of
the layer's params and grads a view into its one parameter vector or its
one gradient vector, which the optimizer updates as a whole. A layer
updates a grads entry only in place (+=) and never rebinds an entry of
params or grads, as an array bound in its place would no longer be
trained.

backward(grad, input_grad=True) accumulates the parameter gradients and
returns the gradient with respect to the layer's input. The network asks
its first layer for none (input_grad=False), as nothing reads it: a layer
with parameters then skips that product and returns None, and a layer
without parameters ignores the flag. What is still computed keeps every
float operation and its order, so every gradient keeps its bits.
"""

from itertools import product

import numpy as np

from fraudkit.base import BaseEstimator, check_kind, check_positive_int


def _sigmoid(x):
    """Branch-free logistic: e = exp(-|x|) <= 1, so nothing overflows.

    Per element the same float operations as a split by sign (1 / (1 + e)
    for x >= 0, e / (1 + e) below), so equal to it bit for bit, at +-0.0
    and NaN too: min(x, -x) keeps a NaN's sign where -|x| would flip it.
    """
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


# kind -> (forward(x), backward(grad, out)), out the forward's output (relu:
# out > 0 exactly where x > 0). _sigmoid is looked up per call, so a swap reaches it.
_ACTIVATIONS = {
    "relu": (lambda x: np.maximum(x, 0.0), lambda grad, out: grad * (out > 0)),
    "sigmoid": (lambda x: _sigmoid(x), lambda grad, out: grad * out * (1.0 - out)),
    "tanh": (np.tanh, lambda grad, out: grad * (1.0 - out**2)),
}
ACTIVATIONS = tuple(_ACTIVATIONS)


def apply_activation(x, kind):
    if kind not in ACTIVATIONS:
        raise ValueError(f"unknown activation {kind!r}")
    return _ACTIVATIONS[kind][0](x)


def _glorot_uniform(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _he_uniform(rng, shape, fan_in, _fan_out):
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


INITS = {"glorot": _glorot_uniform, "he": _he_uniform}


class Layer(BaseEstimator):
    """A layer's hyperparameters are its constructor arguments: get_params
    gives them, and network_to_dict saves them. forward sets `saved` to
    what backward needs; None means nothing is held."""

    kind = "layer"

    def __init__(self):
        self.params = {}
        self.grads = {}
        self.saved = None

    def declare_params(self, in_shape):
        """(name, shape, fans) of each parameter for the per-sample input
        shape, in the order drawn and saved: fans (fan_in, fan_out) for a
        weight that init draws, None for a bias, which starts at zero."""
        return []

    def output_shape(self, in_shape):
        raise NotImplementedError

    def forward(self, x, train=False, rng=None):
        raise NotImplementedError

    def backward(self, grad, input_grad=True):
        raise NotImplementedError


class Dense(Layer):
    kind = "dense"

    def __init__(self, units, init="glorot"):
        super().__init__()
        self.units = check_positive_int(units, "units")
        self.init = check_kind(init, INITS, "init")

    def output_shape(self, in_shape):
        if len(in_shape) != 1:
            raise ValueError(f"dense expects a flat input, got shape {in_shape}")
        return (self.units,)

    def declare_params(self, in_shape):
        (n,) = in_shape
        return [("W", (self.units, n), (n, self.units)), ("b", (self.units,), None)]

    def forward(self, x, train=False, rng=None):
        self.saved = x
        return x @ self.params["W"].T + self.params["b"]

    def backward(self, grad, input_grad=True):
        self.grads["W"] += grad.T @ self.saved
        self.grads["b"] += grad.sum(axis=0)
        return grad @ self.params["W"] if input_grad else None


class _Conv(Layer):
    """Valid-padding stride-1 cross-correlation over `rank` spatial axes:
    inputs [*spatial, c_in], a k x ... x k kernel K of shape
    (k,) * rank + (c_in, channels), outputs [*spatial - k + 1, channels].

    im2col copies one sliding-window view into C-contiguous columns
    [b, *out, k**rank * c_in], ordered (window offsets, channel) as in
    K.reshape(-1, channels): the strided view itself would round some
    products differently. The stacked GEMMs stay: 2-D GEMMs would round
    differently in the last bits. col2im adds one output position's whole
    window at a time: the 2DCNN's second conv has 2 output positions
    against 9 window offsets.
    """

    rank = None

    def __init__(self, channels, kernel_size, init="he"):
        super().__init__()
        self.channels = check_positive_int(channels, "channels")
        self.kernel_size = check_positive_int(kernel_size, "kernel_size")
        self.init = check_kind(init, INITS, "init")

    def output_shape(self, in_shape):
        k, spatial = self.kernel_size, in_shape[:-1]
        if len(in_shape) != self.rank + 1 or k > min(spatial):
            raise ValueError(
                f"{self.kind} kernel {'x'.join([str(k)] * self.rank)} does not fit input "
                f"shape {list(in_shape)}: it needs {self.rank + 1} axes, the spatial ones "
                f"at least {k} long"
            )
        return (*(n - k + 1 for n in spatial), self.channels)

    def declare_params(self, in_shape):
        c_in, size = in_shape[-1], self.kernel_size**self.rank
        shape = (self.kernel_size,) * self.rank + (c_in, self.channels)
        return [("K", shape, (size * c_in, size * self.channels)), ("b", (self.channels,), None)]

    def forward(self, x, train=False, rng=None):
        k, r = self.kernel_size, self.rank
        axes = tuple(range(1, r + 1))
        windows = np.lib.stride_tricks.sliding_window_view(x, (k,) * r, axis=axes)
        # [b, *out, c, *offsets] -> [b, *out, *offsets, c]
        order = (0, *axes, *range(r + 2, 2 * r + 2), r + 1)
        cols = np.ascontiguousarray(windows.transpose(order))
        wmat = self.params["K"].reshape(-1, self.channels)
        cols = cols.reshape(*cols.shape[: r + 1], len(wmat))
        self.saved = (x.shape, cols)
        out = cols @ wmat
        out += self.params["b"]
        return out

    def backward(self, grad, input_grad=True):
        x_shape, cols = self.saved
        wmat = self.params["K"].reshape(-1, self.channels)
        dK = cols.reshape(-1, len(wmat)).T @ grad.reshape(-1, self.channels)
        self.grads["K"] += dK.reshape(self.params["K"].shape)
        self.grads["b"] += grad.sum(axis=tuple(range(grad.ndim - 1)))
        if not input_grad:
            return None
        dcols = grad @ wmat.T
        dx = np.zeros(x_shape)
        k = self.kernel_size
        window_shape = (len(dx),) + (k,) * self.rank + x_shape[-1:]
        # Output positions in reverse lexicographic order give every dx
        # element its terms in ascending window-offset order.
        for pos in product(*(range(n - 1, -1, -1) for n in grad.shape[1:-1])):
            window = tuple(slice(o, o + k) for o in pos)
            dx[(slice(None), *window)] += dcols[(slice(None), *pos)].reshape(window_shape)
        return dx


class Conv1D(_Conv):
    """Convolution over [length, c_in] inputs, as in the 1DCNN."""

    kind, rank = "conv1d", 1


class Conv2D(_Conv):
    """Convolution over [h, w, c_in] inputs, as in the 2DCNN."""

    kind, rank = "conv2d", 2


class MaxPool1D(Layer):
    """Channel-wise max over windows of one step, so the identity: every
    sequence here has one step. The kind and its pool hyperparameter stay
    so that bundles keep their format."""

    kind = "maxpool1d"

    def __init__(self, pool):
        super().__init__()
        if type(pool) is not int or pool != 1:
            raise ValueError(f"pool {pool!r} is not 1: a window is one step")
        self.pool = pool

    def output_shape(self, in_shape):
        if len(in_shape) != 2:
            raise ValueError(f"maxpool1d needs 2 axes, got input shape {list(in_shape)}")
        return in_shape

    def forward(self, x, train=False, rng=None):
        return x

    def backward(self, grad, input_grad=True):
        return grad


class Dropout(Layer):
    """Inverted dropout: train-time zeroing with 1/(1-rate) rescale."""

    kind = "dropout"

    def __init__(self, rate):
        super().__init__()
        if type(rate) not in (int, float) or not 0.0 <= rate < 1.0:
            raise ValueError(f"rate {rate!r} is not a number in [0, 1)")
        self.rate = rate

    def output_shape(self, in_shape):
        return in_shape

    def forward(self, x, train=False, rng=None):
        if not train or self.rate == 0.0:
            self.saved = None
            return x
        if rng is None:
            raise ValueError("train-mode dropout needs a random generator")
        self.saved = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * self.saved

    def backward(self, grad, input_grad=True):
        if self.saved is None:  # no mask: eval mode or rate 0
            return grad
        return grad * self.saved


class Flatten(Layer):
    kind = "flatten"

    def output_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def forward(self, x, train=False, rng=None):
        self.saved = x.shape
        return x.reshape(x.shape[0], int(np.prod(x.shape[1:])))

    def backward(self, grad, input_grad=True):
        return grad.reshape(self.saved)


class Activation(Layer):
    kind = "activation"

    def __init__(self, activation):
        super().__init__()
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.activation = activation

    def output_shape(self, in_shape):
        return in_shape

    def forward(self, x, train=False, rng=None):
        self.saved = apply_activation(x, self.activation)
        return self.saved

    def backward(self, grad, input_grad=True):
        return _ACTIVATIONS[self.activation][1](grad, self.saved)


class LSTM(Layer):
    """LSTM over a sequence of one step, returning its hidden state.

    Input shape [1, input_dim]; output [hidden]. The inner activation
    phi applies to both the candidate transform and the cell-state
    output path; gate activations are always sigmoid.

    The state before the step is zero, so z = [h, x] = [0, x] and the
    forget gate multiplies nothing: c = i * g. W_f and b_f never get a
    gradient, and Adam leaves them as initialized. They stay in params, as
    do the hidden columns of each W, so bundles keep their format; the
    products stay over the whole of z too, as products over x alone round
    differently.
    """

    kind = "lstm"

    def __init__(self, hidden, inner_act="tanh", init="glorot"):
        super().__init__()
        self.hidden = check_positive_int(hidden, "hidden")
        self.inner_act = check_kind(inner_act, ("tanh", "relu"), "inner_act")
        self.init = check_kind(init, INITS, "init")

    def output_shape(self, in_shape):
        if len(in_shape) != 2 or in_shape[0] != 1:
            raise ValueError(f"lstm expects input shape [1, input_dim], got {list(in_shape)}")
        return (self.hidden,)

    def declare_params(self, in_shape):
        h, zdim = self.hidden, self.hidden + in_shape[1]
        decls = []
        for gate in "figo":
            decls += [(f"W_{gate}", (h, zdim), (zdim, h)), (f"b_{gate}", (h,), None)]
        return decls

    def forward(self, x, train=False, rng=None):
        p, act = self.params, self.inner_act
        z = np.concatenate([np.zeros((len(x), self.hidden)), x[:, 0, :]], axis=1)
        i = _sigmoid(z @ p["W_i"].T + p["b_i"])
        g = apply_activation(z @ p["W_g"].T + p["b_g"], act)
        o = _sigmoid(z @ p["W_o"].T + p["b_o"])
        phi_c = apply_activation(i * g, act)
        self.saved = (z, i, g, o, phi_c)
        return o * phi_c

    def backward(self, grad, input_grad=True):
        p = self.params
        z, i, g, o, phi_c = self.saved
        dphi, dsigmoid = _ACTIVATIONS[self.inner_act][1], _ACTIVATIONS["sigmoid"][1]
        dc = dphi(grad * o, phi_c)
        da_i = dsigmoid(dc * g, i)
        da_g = dphi(dc * i, g)
        da_o = dsigmoid(grad * phi_c, o)
        for name, da in (("i", da_i), ("g", da_g), ("o", da_o)):
            self.grads[f"W_{name}"] += da.T @ z
            self.grads[f"b_{name}"] += da.sum(axis=0)
        if not input_grad:
            return None
        # Summed left to right in gate order i, g, o, as the bits depend on it.
        dz = da_i @ p["W_i"] + da_g @ p["W_g"] + da_o @ p["W_o"]
        return dz[:, None, self.hidden :]


LAYER_KINDS = {
    cls.kind: cls
    for cls in (Dense, Conv1D, Conv2D, MaxPool1D, Dropout, Flatten, Activation, LSTM)
}
