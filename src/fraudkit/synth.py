"""Synthetic two-cluster datasets for desk-scale experiments.

Both classes are unit-covariance Gaussians; the fraud-class mean sits
`separation` within-class standard deviations away along a random
(seeded) unit direction. Deterministic per seed.
"""

import math
from dataclasses import dataclass

import numpy as np

from fraudkit.ingest import ColumnSchema, Dataset
from fraudkit.resample import round_half_away
from fraudkit.rng import generator


@dataclass
class SyntheticSpec:
    n_rows: int = 1000
    n_features: int = 10
    fraud_fraction: float = 0.1
    separation: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.fraud_fraction < 1.0:
            raise ValueError("fraud_fraction must lie in (0, 1)")
        if not 0.0 <= self.separation < math.inf:
            raise ValueError(f"separation must be finite and >= 0, got {self.separation!r}")
        for name in ("n_rows", "n_features"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


def gen_synthetic(spec):
    rng = generator(spec.seed)
    n_pos = round_half_away(spec.fraud_fraction * spec.n_rows)
    n_neg = spec.n_rows - n_pos
    if n_pos < 1 or n_neg < 1:
        raise ValueError("fraud_fraction leaves one class empty")

    direction = rng.normal(size=spec.n_features)
    direction /= np.linalg.norm(direction)
    # Each class is drawn straight into its rows of one matrix, so at most
    # two copies are alive: the matrix and its shuffled rows.
    X = np.empty((spec.n_rows, spec.n_features))
    rng.standard_normal(out=X[:n_neg])
    rng.standard_normal(out=X[n_neg:])
    X[n_neg:] += spec.separation * direction
    y = np.concatenate([np.zeros(n_neg, dtype=np.int64), np.ones(n_pos, dtype=np.int64)])
    order = rng.permutation(spec.n_rows)

    width = len(str(spec.n_features - 1))
    schema = [
        ColumnSchema(f"f{j:0{width}d}", "numeric") for j in range(spec.n_features)
    ] + [ColumnSchema("is_fraud", "label")]
    return Dataset(schema, X[order], y[order])
