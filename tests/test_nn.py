import copy
import math
import pickle
from dataclasses import dataclass

import numpy as np
import pytest

from fraudkit.models import (
    NeuralNetClassifier,
    build_cnn1d,
    build_cnn2d,
    build_logreg,
    build_lstm,
    load_bundle,
    save_bundle,
)
from fraudkit.nn.layers import (
    LSTM,
    Activation,
    Conv1D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool1D,
    apply_activation,
)
from fraudkit.nn import network
from fraudkit.nn.losses import bce_loss, bce_loss_grad
from fraudkit.nn.network import (
    Network,
    TrainingError,
    fit,
    network_from_dict,
    network_to_dict,
)
from fraudkit.nn.optim import Adam
from fraudkit.preprocess import StandardScaler

from gradcheck import check_layers, get_weights, init_layer, set_weights


def prob_head(*layers):
    return list(layers) + [Dense(1), Activation("sigmoid")]


def layer_forward(layer, x, **params):
    """One sample through a layer whose params are given directly."""
    layer.params = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    return layer.forward(np.asarray(x, dtype=np.float64)[None])[0]


@dataclass
class LSTMParams:
    """Gate weights [hidden x (hidden + input)] and biases [hidden]."""

    W_f: np.ndarray
    W_i: np.ndarray
    W_g: np.ndarray
    W_o: np.ndarray
    b_f: np.ndarray
    b_i: np.ndarray
    b_g: np.ndarray
    b_o: np.ndarray


@dataclass
class LSTMState:
    h: np.ndarray
    c: np.ndarray


def lstm_step(p, s, x, inner_act="tanh"):
    """Gate-equation oracle for one LSTM step: returns the new LSTMState.

    z = [h_{t-1}, x_t]; f/i/o = sigmoid gates; g = phi(W_g z + b_g);
    c_t = f*c + i*g; h_t = o * phi(c_t).
    """
    h, c = np.asarray(s.h, dtype=np.float64), np.asarray(s.c, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    z = np.concatenate([h, x], axis=-1)
    f = apply_activation(z @ p.W_f.T + p.b_f, "sigmoid")
    i = apply_activation(z @ p.W_i.T + p.b_i, "sigmoid")
    g = apply_activation(z @ p.W_g.T + p.b_g, inner_act)
    o = apply_activation(z @ p.W_o.T + p.b_o, "sigmoid")
    c_t = f * c + i * g
    h_t = o * apply_activation(c_t, inner_act)
    return LSTMState(h=h_t, c=c_t)


class TestForwardOracles:
    def test_dense_forward(self):
        y = layer_forward(Dense(2), [3.0, 4.0], W=[[1.0, 2.0], [0.0, -1.0]], b=[10.0, 0.0])
        assert y.tolist() == [21.0, -4.0]

    def test_dense_forward_shape_mismatch(self):
        with pytest.raises(ValueError):
            layer_forward(Dense(1), [1.0], W=[[1.0, 2.0]], b=[0.0])

    def test_conv2d_all_ones_kernel(self):
        x = np.ones((5, 5, 1))
        k = np.ones((3, 3, 1, 1))
        out = layer_forward(Conv2D(1, k.shape[0]), x, K=k, b=np.zeros(1))
        assert out.shape == (3, 3, 1)
        assert np.all(out == 9.0)

    def test_conv2d_delta_kernel_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 4, 1))
        k = np.zeros((1, 1, 1, 1))
        k[0, 0, 0, 0] = 1.0
        out = layer_forward(Conv2D(1, k.shape[0]), x, K=k, b=np.zeros(1))
        assert np.array_equal(out, x)

    def test_conv1d_first_differences(self):
        x = np.array([[1.0], [4.0], [9.0], [16.0]])
        k = np.array([[[-1.0]], [[1.0]]])  # kernel (1, -1) -> x[t+1] - x[t]
        out = layer_forward(Conv1D(1, 2), x, K=k, b=np.zeros(1))
        assert out[:, 0].tolist() == [3.0, 5.0, 7.0]

    def test_conv1d_k1_equals_dense_per_position(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 3))
        K = rng.normal(size=(1, 3, 4))
        b = rng.normal(size=4)
        out = layer_forward(Conv1D(4, 1), x, K=K, b=b)
        expected = np.stack([layer_forward(Dense(4), x[t], W=K[0].T, b=b) for t in range(6)])
        assert np.allclose(out, expected, atol=1e-12)

    def test_maxpool(self):
        # Every sequence here has one step, so a window has one step too.
        for pool in (2, 0, 1.0, True):
            with pytest.raises(ValueError, match=rf"pool {pool!r} is not 1"):
                MaxPool1D(pool=pool)

    def test_maxpool_identity(self):
        layer = MaxPool1D(pool=1)
        x = np.random.default_rng(2).normal(size=(2, 5, 3))
        assert np.array_equal(layer.forward(x), x)

    def test_dropout_inference_identity(self):
        layer = Dropout(0.5)
        x = np.ones((4, 4))
        assert np.array_equal(layer.forward(x, train=False), x)

    def test_dropout_zero_rate(self):
        layer = Dropout(0.0)
        x = np.ones((4, 4))
        rng = np.random.default_rng(3)
        assert np.array_equal(layer.forward(x, train=True, rng=rng), x)

    def test_dropout_preserves_mean(self):
        layer = Dropout(0.5)
        rng = np.random.default_rng(4)
        out = layer.forward(np.ones((200, 500)), train=True, rng=rng)
        assert abs(out.mean() - 1.0) < 0.02

    def test_dropout_needs_rng_in_train(self):
        with pytest.raises(ValueError):
            Dropout(0.5).forward(np.ones((2, 2)), train=True)

    def test_activation_values(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert apply_activation(x, "relu").tolist() == [0.0, 0.0, 2.0]
        assert apply_activation(np.array([0.0]), "sigmoid")[0] == 0.5
        assert apply_activation(np.array([0.0]), "tanh")[0] == 0.0

    def test_sigmoid_extreme_no_overflow(self):
        out = apply_activation(np.array([-36.0, 36.0]), "sigmoid")
        assert np.all(np.isfinite(out))
        assert out[0] < 1e-15
        assert out[1] > 1.0 - 1e-15

    def test_softmax_is_not_an_activation(self):
        with pytest.raises(ValueError, match="unknown activation 'softmax'"):
            Activation("softmax")
        with pytest.raises(ValueError, match="unknown activation 'softmax'"):
            apply_activation(np.zeros((1, 3)), "softmax")


class TestLstmStep:
    @staticmethod
    def zero_params(hidden, inputs):
        z = hidden + inputs
        zeros = lambda *s: np.zeros(s)
        return LSTMParams(
            W_f=zeros(hidden, z), W_i=zeros(hidden, z), W_g=zeros(hidden, z),
            W_o=zeros(hidden, z), b_f=zeros(hidden), b_i=zeros(hidden),
            b_g=zeros(hidden), b_o=zeros(hidden),
        )

    def test_zero_weights_halve_cell(self):
        p = self.zero_params(3, 2)
        s = LSTMState(h=np.zeros(3), c=np.ones(3))
        out = lstm_step(p, s, np.ones(2), inner_act="tanh")
        assert np.allclose(out.c, 0.5)
        assert np.allclose(out.h, 0.5 * np.tanh(0.5))

    def test_zero_state_fixed_point(self):
        p = self.zero_params(2, 2)
        s = LSTMState(h=np.zeros(2), c=np.zeros(2))
        out = lstm_step(p, s, np.zeros(2))
        assert np.all(out.c == 0.0)
        assert np.all(out.h == 0.0)

    def test_scalar_hand_oracle(self):
        p = LSTMParams(
            W_f=np.array([[0.0, 1.0]]), W_i=np.array([[0.0, -1.0]]),
            W_g=np.array([[0.0, 2.0]]), W_o=np.array([[0.0, 0.5]]),
            b_f=np.zeros(1), b_i=np.zeros(1), b_g=np.zeros(1), b_o=np.zeros(1),
        )
        s = LSTMState(h=np.zeros(1), c=np.zeros(1))
        out = lstm_step(p, s, np.ones(1), inner_act="tanh")
        sig = lambda v: 1.0 / (1.0 + math.exp(-v))
        c_expected = sig(-1.0) * math.tanh(2.0)
        assert out.c[0] == pytest.approx(c_expected, abs=1e-12)
        assert out.h[0] == pytest.approx(sig(0.5) * math.tanh(c_expected), abs=1e-12)

    def test_relu_inner_activation(self):
        p = self.zero_params(2, 1)
        p.b_g += 3.0
        s = LSTMState(h=np.zeros(2), c=np.zeros(2))
        out = lstm_step(p, s, np.zeros(1), inner_act="relu")
        assert np.allclose(out.c, 0.5 * 3.0)
        assert np.allclose(out.h, 0.5 * 1.5)  # o * relu(c)

    def test_layer_matches_step(self):
        rng = np.random.default_rng(5)
        layer = LSTM(hidden=3)
        init_layer(layer, (1, 2), 5)
        x = rng.normal(size=(1, 1, 2))
        out = layer.forward(x)
        p = LSTMParams(**{k: layer.params[k] for k in layer.params})
        s = lstm_step(p, LSTMState(h=np.zeros(3), c=np.zeros(3)), x[0, 0], inner_act="tanh")
        assert np.allclose(out[0], s.h, atol=1e-12)

    def test_layer_takes_one_step(self):
        layer = LSTM(hidden=3)
        for shape in ((2, 2), (0, 2), (2,)):
            with pytest.raises(ValueError, match=rf"lstm expects input shape \[1, input_dim\], got"):
                layer.output_shape(shape)


class TestLoss:
    def test_bce_values(self):
        assert bce_loss([0.5], [1]) == pytest.approx(math.log(2.0), abs=1e-12)
        assert bce_loss([0.1], [1]) == pytest.approx(math.log(10.0), abs=1e-9)
        assert bce_loss([0.9], [0]) == pytest.approx(math.log(10.0), abs=1e-9)

    def test_bce_clamp_is_finite(self):
        assert bce_loss([0.0], [1]) == pytest.approx(-math.log(1e-7), abs=1e-6)
        assert bce_loss([1.0], [1]) < 1e-6

    def test_bce_grad_analytic(self):
        # d/dp of -ln(p) is -1/p
        g = bce_loss_grad(np.array([0.3]), np.array([1]))
        assert g[0] == pytest.approx(-1.0 / 0.3, abs=1e-12)

    def test_bce_grad_zero_at_clamp(self):
        g = bce_loss_grad(np.array([0.0, 1.0]), np.array([1, 0]))
        assert g.tolist() == [0.0, 0.0]

    def test_bce_grad_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(0.05, 0.95, size=10)
        y = rng.integers(0, 2, size=10)
        g = bce_loss_grad(p, y)
        h = 1e-7
        for j in range(10):
            hi, lo = p.copy(), p.copy()
            hi[j] += h
            lo[j] -= h
            numeric = (bce_loss(hi, y) - bce_loss(lo, y)) / (2 * h)
            assert g[j] == pytest.approx(numeric, abs=1e-5)


class TestAdam:
    def test_zero_grad_no_update(self):
        p = {"w": np.array([1.0, -2.0])}
        Adam().step(p, {"w": np.zeros(2)})
        assert p["w"].tolist() == [1.0, -2.0]

    def test_first_step_is_signed_lr(self):
        p = {"w": np.array([0.0, 0.0])}
        Adam(lr=0.001).step(p, {"w": np.array([3.0, -0.5])})
        assert p["w"] == pytest.approx([-0.001, 0.001], rel=1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        grads = [rng.normal(size=3) for _ in range(5)]
        results = []
        for _ in range(2):
            p = {"w": np.zeros(3)}
            opt = Adam()
            for g in grads:
                opt.step(p, {"w": g.copy()})
            results.append(p["w"].copy())
        assert np.array_equal(results[0], results[1])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Adam().step({"w": np.zeros(2)}, {"w": np.zeros(3)})


class TestGradients:
    """Analytic backprop vs central finite differences per layer kind."""

    TOL = 1e-4

    def test_dense(self):
        err = check_layers(prob_head(Dense(4), Activation("relu")), (6,), 5, seed=0)
        assert err < self.TOL

    def test_conv2d(self):
        layers = prob_head(Conv2D(3, 2), Activation("relu"), Flatten())
        assert check_layers(layers, (4, 4, 2), 4, seed=1) < self.TOL

    def test_conv1d(self):
        layers = prob_head(Conv1D(3, 2), Activation("relu"), Flatten())
        assert check_layers(layers, (5, 2), 4, seed=2) < self.TOL

    def test_maxpool(self):
        layers = prob_head(Conv1D(2, 1), MaxPool1D(1), Flatten())
        assert check_layers(layers, (6, 1), 4, seed=3) < self.TOL

    def test_lstm_tanh(self):
        layers = prob_head(LSTM(4, inner_act="tanh"))
        assert check_layers(layers, (1, 2), 4, seed=4) < self.TOL

    def test_lstm_relu(self):
        layers = prob_head(LSTM(4, inner_act="relu"))
        assert check_layers(layers, (1, 2), 4, seed=5) < self.TOL

    def test_activations(self):
        layers = prob_head(Dense(3), Activation("tanh"), Dense(3), Activation("sigmoid"))
        assert check_layers(layers, (4,), 5, seed=6) < self.TOL


class TestNetwork:
    def test_shape_algebra(self):
        net = Network(
            [
                Conv2D(64, 3), Activation("relu"),
                Conv2D(32, 3), Activation("relu"),
                Flatten(), Dense(1), Activation("sigmoid"),
            ],
            (5, 6, 1),
        )
        assert net.shapes[1] == (3, 4, 64)
        assert net.shapes[3] == (1, 2, 32)
        assert net.shapes[5] == (64,)
        assert net.output_shape == (1,)

    def test_shape_mismatch_fails_at_construction(self):
        with pytest.raises(ValueError):
            Network([Conv2D(8, 7)], (5, 6, 1))

    def test_forward_requires_initialize(self):
        net = Network([Dense(1), Activation("sigmoid")], (3,))
        with pytest.raises(TrainingError):
            net.forward(np.zeros((2, 3)))

    def test_wrong_width_rejected(self):
        net = Network([Dense(1), Activation("sigmoid")], (3,)).initialize(0)
        with pytest.raises(ValueError):
            net.forward(np.zeros((2, 4)))

    def test_serialization_round_trip(self):
        net = Network(
            prob_head(Conv1D(2, 1), MaxPool1D(1), Flatten(), Dense(4), Activation("relu")),
            (3, 1),
        ).initialize(9)
        rng = np.random.default_rng(8)
        X = rng.normal(size=(5, 3))
        clone = network_from_dict(network_to_dict(net))
        assert np.array_equal(net.predict_proba(X), clone.predict_proba(X))

    @pytest.mark.parametrize("build", [build_cnn2d, build_lstm])
    def test_load_draws_no_random_numbers(self, build, monkeypatch):
        payload = network_to_dict(build(30).initialize(3))
        monkeypatch.setattr(network, "generator", lambda seed: pytest.fail("a load drew weights"))
        assert network_to_dict(network_from_dict(payload)) == payload

    @pytest.mark.parametrize("version", [99, True, 1.0, "1", None])
    def test_unsupported_format_version(self, version):
        # An int, as a bundle's own format_version: true and 1.0 are not 1.
        payload = network_to_dict(Network([Dense(1)], (2,)).initialize(0))
        payload["format_version"] = version
        with pytest.raises(ValueError) as info:
            network_from_dict(payload)
        assert str(info.value) == f"unsupported model format version {version!r}"


class TestFlatParameters:
    """Every params and grads entry of every layer is a view into the
    network's one parameter vector theta or its one gradient vector grad,
    each on a 64-byte boundary, and what lies between the views stays zero.
    A layer that rebound an entry would silently stop training."""

    BUILDERS = {"cnn2d": build_cnn2d, "cnn1d": build_cnn1d, "lstm": build_lstm, "logreg": build_logreg}

    @staticmethod
    def assert_packed(net):
        params = [layer.params for layer in net.layers]
        grads = [layer.grads for layer in net.layers]
        assert [d.keys() for d in params] == [d.keys() for d in grads]
        for dicts, flat in ((params, net.theta), (grads, net.grad)):
            gap = np.ones(len(flat), dtype=bool)
            for arr in (a for d in dicts for a in d.values()):
                assert np.shares_memory(arr, flat)
                assert arr.ctypes.data % 64 == 0 and arr.flags.c_contiguous
                start = (arr.ctypes.data - flat.ctypes.data) // flat.itemsize
                assert gap[start : start + arr.size].all()  # no two views overlap
                gap[start : start + arr.size] = False
            assert not flat[gap].any()

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_views_survive_every_step(self, kind, tmp_path):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(96, 30))
        y = (X[:, 0] + rng.normal(size=96) > 0.5).astype(np.int64)
        net = self.BUILDERS[kind](30).initialize(3)
        self.assert_packed(net)
        net.loss_and_grads(X, y, rng=rng)
        assert net.grad.any()
        net.zero_grads()
        self.assert_packed(net)
        assert not net.grad.any()

        other = self.BUILDERS[kind](30).initialize(4)
        set_weights(net, get_weights(other))
        self.assert_packed(net)
        assert np.array_equal(net.theta, other.theta)

        fit(net, X[:64], y[:64], X[64:], y[64:], epochs_max=3, batch_size=16, seed=5)
        self.assert_packed(net)
        assert not np.array_equal(net.theta, other.theta)

        model = NeuralNetClassifier(kind=kind)
        model.network_ = net
        path = tmp_path / f"{kind}.model"
        save_bundle(path, model, StandardScaler().fit(X), 0.5, [f"f{j}" for j in range(30)], {})
        loaded = load_bundle(path)[0].network_
        self.assert_packed(loaded)
        assert network_to_dict(loaded) == network_to_dict(net)
        for clone in (network_from_dict(network_to_dict(loaded)),
                      pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
            self.assert_packed(clone)
            assert network_to_dict(clone) == network_to_dict(net)


class TestFit:
    @staticmethod
    def logreg_net(n):
        return Network([Dense(1), Activation("sigmoid")], (n,))

    def test_zero_epochs(self):
        net = self.logreg_net(2).initialize(0)
        history = fit(net, np.zeros((4, 2)), np.array([0, 1, 0, 1]), epochs_max=0)
        assert history.train_loss == []
        assert history.best_epoch == -1

    def test_empty_training_set(self):
        with pytest.raises(TrainingError):
            fit(self.logreg_net(2), np.zeros((0, 2)), np.zeros(0))

    def test_deterministic(self, blobs):
        X, y = blobs.features, blobs.labels
        weights = []
        for _ in range(2):
            net = self.logreg_net(X.shape[1])
            fit(net, X, y, epochs_max=3, seed=42)
            weights.append(get_weights(net))
        for k in weights[0]:
            assert np.array_equal(weights[0][k], weights[1][k])

    def test_separable_blobs(self, blobs):
        X, y = blobs.features, blobs.labels
        net = self.logreg_net(X.shape[1])
        fit(net, X, y, X, y, epochs_max=60, lr=0.05, seed=1)
        acc = np.mean((net.predict_proba(X) >= 0.5) == (y == 1))
        assert acc >= 0.95

    def test_early_stopping_restores_best(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(60, 4))
        y = rng.integers(0, 2, size=60)
        X_val = rng.normal(size=(30, 4))
        y_val = rng.integers(0, 2, size=30)
        net = Network(prob_head(Dense(16), Activation("relu")), (4,))
        history = fit(net, X, y, X_val, y_val, epochs_max=100, patience=3, seed=2)
        assert history.stopped_early
        assert len(history.val_loss) < 100
        restored = bce_loss(net.predict_proba(X_val), y_val)
        assert restored == pytest.approx(min(history.val_loss), abs=1e-9)
