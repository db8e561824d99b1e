"""Central finite-difference gradient checking for network layers, a
copy of a network's weights, and its write-back, for tests that compare
trained networks, and the starting weights of a bare layer."""

import numpy as np

from fraudkit.nn.losses import bce_loss
from fraudkit.nn.network import Network


def max_rel_error(network, X, y, h=1e-5, rng=None, max_entries=40):
    """Largest relative disagreement between analytic and numeric grads.

    Checks up to max_entries randomly chosen elements per parameter
    array using central differences on the batch BCE loss.
    """
    rng = rng or np.random.default_rng(0)
    network.loss_and_grads(X, y, train=False)
    analytic = {k: v.copy() for k, v in network.named_grads().items()}
    params = network.named_params()

    worst = 0.0
    for key, arr in params.items():
        flat = arr.reshape(-1)
        n = flat.size
        picks = np.arange(n) if n <= max_entries else rng.choice(n, max_entries, replace=False)
        for j in picks:
            orig = flat[j]

            def numeric_grad(step):
                flat[j] = orig + step
                hi = bce_loss(network.forward(X).reshape(len(X)), y)
                flat[j] = orig - step
                lo = bce_loss(network.forward(X).reshape(len(X)), y)
                flat[j] = orig
                return (hi - lo) / (2.0 * step)

            numeric = numeric_grad(h)
            half = numeric_grad(h / 2.0)
            if abs(numeric - half) / (abs(numeric) + abs(half) + 1e-8) > 1e-3:
                # the two step sizes disagree: the perturbation straddles a
                # non-differentiable point (e.g. a relu kink); skip it
                continue
            a = analytic[key].reshape(-1)[j]
            rel = abs(a - numeric) / (abs(a) + abs(numeric) + 1e-8)
            worst = max(worst, rel)
    return worst


def check_layers(layers, input_shape, n_rows, seed):
    """Build, initialize, and gradient-check a network on random data."""
    rng = np.random.default_rng(seed)
    net = Network(layers, input_shape).initialize(seed)
    n_inputs = int(np.prod(input_shape))
    X = rng.normal(size=(n_rows, n_inputs))
    y = rng.integers(0, 2, size=n_rows)
    return max_rel_error(net, X, y, rng=rng)


def get_weights(network):
    """A copy of every parameter array of network, by name."""
    return {k: v.copy() for k, v in network.named_params().items()}


def set_weights(network, weights):
    """Write each array of weights, by name as get_weights gives it, into
    network's parameters in place, so they stay views into its theta."""
    for k, v in network.named_params().items():
        v[...] = weights[k]


def init_layer(layer, in_shape, seed):
    """layer, with the parameters that a network of it alone draws from
    seed at the per-sample input shape in_shape, and zero gradients."""
    Network([layer], in_shape).initialize(seed)
    return layer
