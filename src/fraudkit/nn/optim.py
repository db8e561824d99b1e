"""Adaptive-moment optimizer with bias correction."""

import numpy as np


class Adam:
    """Kingma and Ba's Adam, with their published beta1, beta2 and eps."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr=0.001):
        self.lr = lr
        self.step_count = 0
        self._m = {}
        self._v = {}

    def step(self, named_params, named_grads):
        """In-place update; named_params/named_grads map key -> array. Every
        element goes through the same float operations whether the arrays
        are separate tensors or one flat vector of them all."""
        self.step_count += 1
        t = self.step_count
        m_scale = 1.0 - self.beta1**t
        v_scale = 1.0 - self.beta2**t
        for key, p in named_params.items():
            g = named_grads[key]
            if p.shape != g.shape:
                raise ValueError(f"shape mismatch for {key}: {p.shape} vs {g.shape}")
            if key not in self._m:
                self._m[key] = np.zeros_like(p)
                self._v[key] = np.zeros_like(p)
            m, v = self._m[key], self._v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g**2
            # lr * m_hat / (sqrt(v_hat) + eps) in place, in that order.
            denom = np.sqrt(v / v_scale)
            denom += self.eps
            upd = m / m_scale
            upd *= self.lr
            upd /= denom
            p -= upd
