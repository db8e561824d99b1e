"""Bit-identity of the network engine against straightforward reference code.

The reference layers below are the plain forms the engine's fast paths
replace: loop im2col/col2im Conv1D and Conv2D with a tensordot kernel
gradient, a sign-masked sigmoid, the window argmax MaxPool1D path, a
textbook LSTM that computes the forget gate on its zero cell state and
the input gradient, and the textbook Adam step. The sequence layers are
held to theirs at the one step every model takes. The engine runs both
convolutions as one layer over one or two spatial axes, from a
sliding-window view; each is held to its own reference. The engine must
agree with them exactly (np.array_equal), not just to a tolerance: the
fast paths keep every float operation and its order.
"""

import numpy as np
import pytest

from fraudkit import models
from fraudkit.models import build_cnn1d, build_cnn2d, build_logreg, build_lstm
from fraudkit.nn import layers, network
from fraudkit.nn.layers import LSTM, Activation, Conv1D, Conv2D, Dense, Flatten, MaxPool1D, _sigmoid
from fraudkit.nn.network import PREDICT_BLOCK, Network, fit
from fraudkit.nn.optim import Adam

from gradcheck import get_weights, init_layer


EPS = np.finfo(np.float64).eps


def ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class RefConv2D(Conv2D):
    """k*k slice copies into the im2col buffer, tensordot for dK."""

    def forward(self, x, train=False, rng=None):
        k = self.kernel_size
        b, h, w, c = x.shape
        oh, ow = h - k + 1, w - k + 1
        cols = np.empty((b, oh, ow, k * k * c))
        for di in range(k):
            for dj in range(k):
                cols[:, :, :, (di * k + dj) * c : (di * k + dj + 1) * c] = x[
                    :, di : di + oh, dj : dj + ow, :
                ]
        self._x_shape = x.shape
        self._cols = cols
        return cols @ self.params["K"].reshape(-1, self.channels) + self.params["b"]

    def backward(self, grad, input_grad=True):
        k = self.kernel_size
        _b, oh, ow, _ = grad.shape
        wmat = self.params["K"].reshape(-1, self.channels)
        self.grads["K"] += np.tensordot(
            self._cols, grad, axes=([0, 1, 2], [0, 1, 2])
        ).reshape(self.params["K"].shape)
        self.grads["b"] += grad.sum(axis=(0, 1, 2))
        dcols = grad @ wmat.T
        dx = np.zeros(self._x_shape)
        c = self._x_shape[3]
        for di in range(k):
            for dj in range(k):
                sl = dcols[:, :, :, (di * k + dj) * c : (di * k + dj + 1) * c]
                dx[:, di : di + oh, dj : dj + ow, :] += sl
        return dx


class RefConv1D(Conv1D):
    """k slice copies into the im2col buffer, tensordot for dK."""

    def forward(self, x, train=False, rng=None):
        k = self.kernel_size
        b, length, c = x.shape
        ol = length - k + 1
        cols = np.empty((b, ol, k * c))
        for d in range(k):
            cols[:, :, d * c : (d + 1) * c] = x[:, d : d + ol, :]
        self._x_shape = x.shape
        self._cols = cols
        return cols @ self.params["K"].reshape(-1, self.channels) + self.params["b"]

    def backward(self, grad, input_grad=True):
        k = self.kernel_size
        ol = grad.shape[1]
        wmat = self.params["K"].reshape(-1, self.channels)
        self.grads["K"] += np.tensordot(self._cols, grad, axes=([0, 1], [0, 1])).reshape(
            self.params["K"].shape
        )
        self.grads["b"] += grad.sum(axis=(0, 1))
        dcols = grad @ wmat.T
        dx = np.zeros(self._x_shape)
        c = self._x_shape[2]
        for d in range(k):
            dx[:, d : d + ol, :] += dcols[:, :, d * c : (d + 1) * c]
        return dx


class RefMaxPool1D(MaxPool1D):
    """Window argmax and gradient scatter, at the one pool size the layer takes."""

    def forward(self, x, train=False, rng=None):
        p = self.pool
        b, length, c = x.shape
        n_win = length // p
        windows = x[:, : n_win * p, :].reshape(b, n_win, p, c)
        self._x_shape = x.shape
        self._argmax = windows.argmax(axis=2)
        return windows.max(axis=2)

    def backward(self, grad, input_grad=True):
        b, n_win, c = grad.shape
        p = self.pool
        dwin = np.zeros((b, n_win, p, c))
        bi, wi, ci = np.ogrid[:b, :n_win, :c]
        dwin[bi, wi, self._argmax, ci] = grad
        dx = np.zeros(self._x_shape)
        dx[:, : n_win * p, :] = dwin.reshape(b, n_win * p, c)
        return dx


class RefLSTM(LSTM):
    """Every step computes the forget gate on its cell state, zero at t = 0,
    and backward sums all four gates' terms into dz and makes dx. phi' is
    taken from the pre-activation, phi re-evaluated where backward needs it."""

    def _phi(self, x):
        return np.tanh(x) if self.inner_act == "tanh" else np.maximum(x, 0.0)

    def _dphi(self, pre):
        if self.inner_act == "tanh":
            return 1.0 - np.tanh(pre) ** 2
        return (pre > 0).astype(np.float64)

    def forward(self, x, train=False, rng=None):
        b, T, _ = x.shape
        h = np.zeros((b, self.hidden))
        c = np.zeros((b, self.hidden))
        p = self.params
        self._x_shape, self._steps = x.shape, []
        for t in range(T):
            z = np.concatenate([h, x[:, t, :]], axis=1)
            f = ref_sigmoid(z @ p["W_f"].T + p["b_f"])
            i = ref_sigmoid(z @ p["W_i"].T + p["b_i"])
            a_g = z @ p["W_g"].T + p["b_g"]
            g = self._phi(a_g)
            o = ref_sigmoid(z @ p["W_o"].T + p["b_o"])
            c_new = f * c + i * g
            self._steps.append((z, f, i, a_g, g, o, c, c_new))
            h, c = o * self._phi(c_new), c_new
        return h

    def backward(self, grad, input_grad=True):
        p = self.params
        H = self.hidden
        dx = np.zeros(self._x_shape)
        dh = grad
        dc = np.zeros_like(grad)
        for t in range(self._x_shape[1] - 1, -1, -1):
            z, f, i, a_g, g, o, c_prev, c_new = self._steps[t]
            do = dh * self._phi(c_new)
            dc = dc + dh * o * self._dphi(c_new)
            da_f = dc * c_prev * f * (1.0 - f)
            da_i = dc * g * i * (1.0 - i)
            da_g = dc * i * self._dphi(a_g)
            da_o = do * o * (1.0 - o)
            for name, da in (("f", da_f), ("i", da_i), ("g", da_g), ("o", da_o)):
                self.grads[f"W_{name}"] += da.T @ z
                self.grads[f"b_{name}"] += da.sum(axis=0)
            dz = da_f @ p["W_f"] + da_i @ p["W_i"] + da_g @ p["W_g"] + da_o @ p["W_o"]
            dh = dz[:, :H]
            dx[:, t, :] = dz[:, H:]
            dc = dc * f
        return dx


class RefAdam(Adam):
    def step(self, named_params, named_grads):
        self.step_count += 1
        t = self.step_count
        for key, p in named_params.items():
            g = named_grads[key]
            m = self._m.setdefault(key, np.zeros_like(p))
            v = self._v.setdefault(key, np.zeros_like(p))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g**2
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def ref_predict_proba(self, X):
    return self.forward(X).reshape(len(X))


@pytest.fixture
def reference_engine(monkeypatch):
    """Swap every fast path for its reference form, where callers look it up."""

    def use():
        monkeypatch.setattr(layers, "_sigmoid", ref_sigmoid)
        monkeypatch.setattr(models, "Conv1D", RefConv1D)
        monkeypatch.setattr(models, "Conv2D", RefConv2D)
        monkeypatch.setattr(models, "MaxPool1D", RefMaxPool1D)
        monkeypatch.setattr(models, "LSTM", RefLSTM)
        monkeypatch.setattr(network, "Adam", RefAdam)
        monkeypatch.setattr(Network, "predict_proba", ref_predict_proba)

    return use


def assert_same(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)


class TestSigmoid:
    def test_random(self):
        x = np.random.default_rng(0).normal(scale=20.0, size=(300, 7))
        assert_same(_sigmoid(x), ref_sigmoid(x))

    def test_edge_values(self):
        tiny = np.finfo(np.float64).tiny
        x = np.array(
            [0.0, -0.0, 745.0, -745.0, 800.0, -800.0, 1e308, -1e308, np.inf, -np.inf,
             tiny, -tiny, 5e-324, -5e-324, tiny / 3, -tiny / 3, np.nan]
        )
        got, want = _sigmoid(x), ref_sigmoid(x)
        assert_same(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.isnan(got[-1])


def ref_activation(x, kind):
    """An activation's forward, from its input."""
    if kind == "relu":
        return np.maximum(x, 0.0)
    return ref_sigmoid(x) if kind == "sigmoid" else np.tanh(x)


def ref_activation_backward(grad, x, kind):
    """An activation's backward from its input x: relu masks on x > 0,
    sigmoid and tanh recompute their output from x."""
    if kind == "relu":
        return grad * (x > 0)
    out = ref_activation(x, kind)
    if kind == "sigmoid":
        return grad * out * (1.0 - out)
    return grad * (1.0 - out**2)


class TestActivation:
    @pytest.fixture(scope="class")
    def x(self):
        tiny = np.finfo(np.float64).tiny
        edges = [0.0, -0.0, tiny, -tiny, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan]
        normals = np.random.default_rng(21).normal(scale=20.0, size=200)
        return np.concatenate([edges, normals]).reshape(1, -1)

    @pytest.mark.parametrize("kind", ["relu", "sigmoid", "tanh"])
    def test_layer_matches_formulas_from_the_input(self, x, kind):
        grad = np.random.default_rng(22).normal(size=x.shape)
        layer = Activation(kind)
        out = layer.forward(x)
        want = ref_activation(x, kind)
        assert_same(out, want)
        assert np.array_equal(np.signbit(out), np.signbit(want))
        assert_same(layer.backward(grad), ref_activation_backward(grad, x, kind))

    @pytest.mark.parametrize("kind", ["relu", "tanh"])
    def test_derivative_from_output_matches_lstm_from_pre_activation(self, x, kind):
        """phi' read off phi(pre) equals RefLSTM's phi' from the
        pre-activation: (pre > 0) and 1 - tanh(pre)**2."""
        grad = np.random.default_rng(23).normal(size=x.shape)
        phi, dphi = layers._ACTIVATIONS[kind]
        assert_same(dphi(grad, phi(x)), grad * RefLSTM(1, inner_act=kind)._dphi(x))

    def test_sigmoid_is_looked_up_at_call_time(self, monkeypatch):
        def sentinel(x):
            return np.full_like(x, 0.25)

        monkeypatch.setattr(layers, "_sigmoid", sentinel)
        assert Activation("sigmoid").forward(np.zeros((2, 3))).tolist() == [[0.25] * 3] * 2


class TestConv:
    @pytest.mark.parametrize(
        "cls,shape,k,channels",
        [
            (Conv2D, (5, 6, 1), 3, 64),
            (Conv2D, (5, 6, 3), 2, 4),
            (Conv2D, (4, 4, 2), 4, 3),
            # The overlapping windows of a strided view round this one differently.
            (Conv1D, (9, 2), 3, 1),
            (Conv1D, (1, 30), 1, 64),
        ],
    )
    def test_forward_and_backward(self, cls, shape, k, channels):
        rng = np.random.default_rng(1)
        ref_cls = {Conv1D: RefConv1D, Conv2D: RefConv2D}[cls]
        fast, ref = cls(channels, k), ref_cls(channels, k)
        init_layer(fast, shape, 2)
        init_layer(ref, shape, 2)
        x = rng.normal(size=(9, *shape))
        out = fast.forward(x)
        assert_same(out, ref.forward(x))
        grad = rng.normal(size=out.shape)
        for _ in range(2):  # gradients accumulate across calls
            assert_same(fast.backward(grad), ref.backward(grad))
        for name in ("K", "b"):
            assert_same(fast.grads[name], ref.grads[name])

    def test_input_gradient_on_random_shapes(self):
        # Outputs wider than the kernel too, where one add per output
        # position makes more adds than one per window offset.
        rng = np.random.default_rng(3)
        for case in range(120):
            cls = (Conv1D, Conv2D)[case % 2]
            k = int(rng.integers(1, 5))
            spatial = tuple(int(n) for n in rng.integers(k, k + 6, size=cls.rank))
            shape = (*spatial, int(rng.integers(1, 4)))
            channels = int(rng.integers(1, 5))
            ref_cls = {Conv1D: RefConv1D, Conv2D: RefConv2D}[cls]
            fast, ref = cls(channels, k), ref_cls(channels, k)
            init_layer(fast, shape, case)
            init_layer(ref, shape, case)
            x = rng.normal(size=(int(rng.integers(1, 6)), *shape))
            grad = rng.normal(size=fast.forward(x).shape)
            ref.forward(x)
            assert_same(fast.backward(grad), ref.backward(grad))


class TestLSTM:
    @pytest.mark.parametrize("inner_act", ["relu", "tanh"])
    @pytest.mark.parametrize("n_rows", [1, 9])
    def test_forward_and_backward(self, n_rows, inner_act):
        # One row takes numpy's matrix-vector path, more rows a GEMM.
        rng = np.random.default_rng(14)
        fast, ref = LSTM(6, inner_act=inner_act), RefLSTM(6, inner_act=inner_act)
        init_layer(fast, (1, 5), 15)
        init_layer(ref, (1, 5), 15)
        x = rng.normal(size=(n_rows, 1, 5))
        out = fast.forward(x)
        assert_same(out, ref.forward(x))
        grad = rng.normal(size=out.shape)
        for _ in range(2):  # gradients accumulate across calls
            assert_same(fast.backward(grad), ref.backward(grad))
        for name in fast.params:
            assert_same(fast.grads[name], ref.grads[name])
        # The cell state before the step is zero: W_f and b_f get no gradient.
        assert not fast.grads["W_f"].any() and not fast.grads["b_f"].any()


@pytest.mark.parametrize(
    "make,shape",
    [
        (lambda: Dense(4), (7,)),
        (lambda: Conv1D(5, 2), (4, 3)),
        (lambda: Conv2D(5, 2), (4, 5, 2)),
        (lambda: LSTM(6, inner_act="relu"), (1, 5)),
    ],
    ids=["dense", "conv1d", "conv2d", "lstm-1-step"],
)
def test_no_input_grad_keeps_parameter_gradients(make, shape):
    rng = np.random.default_rng(16)
    full, first = make(), make()
    init_layer(full, shape, 17)
    init_layer(first, shape, 17)
    x = rng.normal(size=(9, *shape))
    out = full.forward(x)
    assert_same(first.forward(x), out)
    grad = rng.normal(size=out.shape)
    assert full.backward(grad).shape == x.shape
    assert first.backward(grad, input_grad=False) is None
    for name in full.params:
        assert_same(first.grads[name], full.grads[name])


class TestMaxPool1D:
    def test_pool_one_is_pass_through(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 1, 64))
        x[0, 0, :3] = [-0.0, np.nan, 0.0]
        fast, ref = MaxPool1D(1), RefMaxPool1D(1)
        assert_same(fast.forward(x), ref.forward(x))
        grad = rng.normal(size=x.shape)
        assert_same(fast.backward(grad), ref.backward(grad))


class TestAdam:
    def test_steps_match_textbook(self):
        rng = np.random.default_rng(5)
        shapes = {"W": (4, 6), "b": (4,), "K": (3, 3, 1, 8)}
        fast_p = {k: rng.normal(size=s) for k, s in shapes.items()}
        ref_p = {k: v.copy() for k, v in fast_p.items()}
        fast, ref = Adam(lr=0.003), RefAdam(lr=0.003)
        for _ in range(25):
            grads = {k: rng.normal(scale=10.0, size=s) for k, s in shapes.items()}
            grads["b"][0] = 0.0
            fast.step(fast_p, {k: g.copy() for k, g in grads.items()})
            ref.step(ref_p, grads)
        for k in shapes:
            assert_same(fast_p[k], ref_p[k])
            assert_same(fast._m[k], ref._m[k])
            assert_same(fast._v[k], ref._v[k])

    def test_one_flat_vector_matches_per_tensor_steps(self):
        """fit steps Adam once over the network's whole parameter vector:
        each tensor's slice of it, and of both moments, must take the bits
        the textbook step gives that tensor alone, and the zero gap
        between two slices must stay zero."""
        rng = np.random.default_rng(19)
        shapes = {"W": (4, 6), "b": (4,), "K": (3, 3, 1, 8)}
        starts = dict(zip(shapes, (0, 32, 40)))
        per_p = {k: rng.normal(size=s) for k, s in shapes.items()}
        theta = np.zeros(112)
        flat_p = {k: theta[starts[k] : starts[k] + np.prod(s)].reshape(s) for k, s in shapes.items()}
        for k in shapes:
            flat_p[k][...] = per_p[k]
        flat, per = Adam(lr=0.003), RefAdam(lr=0.003)
        for _ in range(25):
            grad = np.zeros_like(theta)
            grads = {k: rng.normal(scale=10.0, size=s) for k, s in shapes.items()}
            grads["b"][0] = 0.0
            for k in shapes:
                grad[starts[k] : starts[k] + grads[k].size] = grads[k].ravel()
            flat.step({"theta": theta}, {"theta": grad})
            per.step(per_p, grads)
        gap = np.ones(len(theta), dtype=bool)
        for k, s in shapes.items():
            window = slice(starts[k], starts[k] + np.prod(s))
            gap[window] = False
            assert_same(flat_p[k], per_p[k])
            assert_same(flat._m["theta"][window].reshape(s), per._m[k])
            assert_same(flat._v["theta"][window].reshape(s), per._v[k])
        for arr in (theta, flat._m["theta"], flat._v["theta"]):
            assert not arr[gap].any()


BUILDERS = {
    "cnn2d": lambda: build_cnn2d(30),
    "cnn1d": lambda: build_cnn1d(30),
    "lstm": lambda: build_lstm(30),
    "lstm-tanh": lambda: build_lstm(30, hidden=6, inner_act="tanh"),
    "logreg": lambda: build_logreg(30),
}


def _train(kind):
    rng = np.random.default_rng(6)
    X = rng.normal(size=(300, 30))
    y = (X[:, 0] + rng.normal(size=300) > 1.0).astype(np.int64)
    net = BUILDERS[kind]()
    history = fit(net, X[:240], y[:240], X[240:], y[240:], epochs_max=3, batch_size=32, seed=8)
    return get_weights(net), history.to_dict(), net.predict_proba(X)


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_fit_matches_reference_engine(kind, reference_engine):
    weights, history, proba = _train(kind)
    reference_engine()
    ref_weights, ref_history, ref_proba = _train(kind)
    assert weights.keys() == ref_weights.keys()
    for name in weights:
        assert_same(weights[name], ref_weights[name])
    assert history == ref_history
    assert_same(proba, ref_proba)


def test_multichannel_conv2d_stack_matches_reference(reference_engine):
    def stack():
        return Network(
            [models.Conv2D(4, 2), Activation("relu"), models.Conv2D(3, 2), Activation("tanh"),
             Flatten(), Dense(1), Activation("sigmoid")],
            input_shape=(4, 5, 2),
        )

    rng = np.random.default_rng(9)
    X = rng.normal(size=(120, 40))
    y = (rng.random(120) < 0.4).astype(np.int64)
    runs = []
    for swap in (None, reference_engine):
        if swap:
            swap()
        net = stack()
        fit(net, X, y, epochs_max=3, batch_size=16, seed=2)
        runs.append(get_weights(net))
    for name in runs[0]:
        assert_same(runs[0][name], runs[1][name])


class TestPredictBlocks:
    @pytest.fixture(scope="class")
    def nets(self):
        return {kind: build().initialize(11) for kind, build in BUILDERS.items()}

    @pytest.mark.parametrize("n_rows", [0, 1, PREDICT_BLOCK])
    def test_one_block_is_one_forward(self, nets, n_rows):
        X = np.random.default_rng(12).normal(size=(n_rows, 30))
        for net in nets.values():
            assert_same(net.predict_proba(X), net.forward(X).reshape(n_rows))

    def test_rows_are_scored_per_block(self, nets):
        X = np.random.default_rng(13).normal(size=(PREDICT_BLOCK + 1, 30))
        for net in nets.values():
            p = net.predict_proba(X)
            head, tail = X[:PREDICT_BLOCK], X[PREDICT_BLOCK:]
            assert_same(p, np.concatenate([net.forward(head), net.forward(tail)]).ravel())
            # BLAS may round a row's dot products differently when a call
            # holds another number of rows: last-bit differences only.
            np.testing.assert_allclose(p, net.forward(X).ravel(), rtol=0, atol=1e4 * EPS)
