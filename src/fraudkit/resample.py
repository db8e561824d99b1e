"""Class-imbalance treatments: random under-sampling, NearMiss v1-v3, SMOTE.

Under-samplers take ratio = desired majority/minority count (>= 1);
SMOTE takes ratio = desired minority/majority count (in (0, 1]).
Neighbor searches are exact Euclidean with ties broken by lower row
index. All samplers are deterministic per seed.
"""

import math
from dataclasses import dataclass

import numpy as np

from fraudkit.base import BaseEstimator, check_X_y
from fraudkit.rng import generator


def round_half_away(x):
    """round() with halves away from zero (count targets from ratios)."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def pairwise_distances(a, b):
    """Euclidean distance matrix between the rows of a and b.

    Quadratic expansion keeps memory at O(len(a) * len(b)) instead of
    materializing the difference tensor.
    """
    sq = (
        (a**2).sum(axis=1)[:, None]
        + (b**2).sum(axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.sqrt(np.maximum(sq, 0.0))


def _k_nearest(dist_row, k):
    """Indices of the k smallest entries, ties by lower index."""
    order = np.argsort(dist_row, kind="stable")
    return order[:k]


class RandomUnderSampler(BaseEstimator):
    """Keep all minority rows plus a uniform random majority subset."""

    def __init__(self, ratio=1.0, seed=0):
        self.ratio = ratio
        self.seed = seed

    def fit_resample(self, X, y):
        X, y = check_X_y(X, y)
        pos = np.flatnonzero(y == 1)
        neg = np.flatnonzero(y == 0)
        if pos.size < 1:
            raise ValueError("no minority rows to balance against")
        n_keep = round_half_away(self.ratio * pos.size)
        if n_keep > neg.size:
            raise ValueError(
                f"ratio {self.ratio} needs {n_keep} majority rows, only {neg.size} available"
            )
        rng = generator(self.seed)
        kept_neg = rng.choice(neg, size=n_keep, replace=False)
        idx = np.concatenate([pos, kept_neg])
        idx = idx[rng.permutation(idx.size)]
        return X[idx], y[idx]


class NearMiss(BaseEstimator):
    """Distance-based majority under-sampling, versions 1-3.

    v1 keeps majority rows with the smallest mean distance to their k
    nearest minority rows; v2 uses the k farthest minority rows; v3
    first shortlists, per minority row, its k nearest majority rows,
    then keeps shortlisted rows with the largest mean distance to their
    k nearest minority rows.
    """

    def __init__(self, version=1, k=3, ratio=1.0):
        self.version = version
        self.k = k
        self.ratio = ratio

    def fit_resample(self, X, y):
        X, y = check_X_y(X, y)
        if self.version not in (1, 2, 3):
            raise ValueError(f"unknown NearMiss version {self.version}")
        pos = np.flatnonzero(y == 1)
        neg = np.flatnonzero(y == 0)
        if pos.size < self.k:
            raise ValueError(f"NearMiss needs at least k={self.k} minority rows, got {pos.size}")
        target = round_half_away(self.ratio * pos.size)
        if target > neg.size:
            raise ValueError(f"target {target} exceeds majority count {neg.size}")

        dist = pairwise_distances(X[neg], X[pos])  # [n_neg, n_pos]
        if self.version in (1, 2):
            part = np.sort(dist, axis=1)
            if self.version == 1:
                score = part[:, : self.k].mean(axis=1)
            else:
                score = part[:, -self.k :].mean(axis=1)
            order = np.argsort(score, kind="stable")  # ties -> lower row index
            kept_neg = neg[order[:target]]
        else:
            candidate_mask = np.zeros(neg.size, dtype=bool)
            for j in range(pos.size):
                candidate_mask[_k_nearest(dist[:, j], self.k)] = True
            candidates = np.flatnonzero(candidate_mask)
            if target > candidates.size:
                raise ValueError(
                    f"NearMiss v3 shortlist has {candidates.size} rows, target {target}"
                )
            score = np.sort(dist[candidates], axis=1)[:, : self.k].mean(axis=1)
            order = np.argsort(-score, kind="stable")
            kept_neg = neg[candidates[order[:target]]]

        idx = np.sort(np.concatenate([pos, kept_neg]))
        return X[idx], y[idx]


@dataclass
class SmoteProvenance:
    """Parents of one synthetic row: original dataset row indices and lambda."""

    parent: int
    neighbor: int
    lam: float


class Smote(BaseEstimator):
    """Synthetic minority over-sampling on segments between neighbors.

    Each synthetic row is x_i + lam * (x_nn - x_i) for a uniformly
    chosen real minority row x_i, one of its k nearest minority
    neighbors x_nn (uniform), and lam ~ Uniform[0, 1]. Original rows
    are preserved bit-exactly; provenance_ records (parent, neighbor,
    lam) per synthetic row after fit_resample.
    """

    def __init__(self, ratio=1.0, k=5, seed=0):
        self.ratio = ratio
        self.k = k
        self.seed = seed
        self.provenance_ = None

    def fit_resample(self, X, y):
        X, y = check_X_y(X, y)
        pos = np.flatnonzero(y == 1)
        neg = np.flatnonzero(y == 0)
        if pos.size < 2:
            raise ValueError("SMOTE needs at least 2 minority rows")
        if self.k >= pos.size:
            raise ValueError(f"k={self.k} must be < minority count {pos.size}")
        target = round_half_away(self.ratio * neg.size)
        n_syn = target - pos.size
        if n_syn < 0:
            raise ValueError(
                f"ratio {self.ratio} targets {target} minority rows, below current {pos.size}"
            )

        Xp = X[pos]
        dist = pairwise_distances(Xp, Xp)
        np.fill_diagonal(dist, np.inf)
        neighbors = np.stack([_k_nearest(dist[i], self.k) for i in range(pos.size)])

        rng = generator(self.seed)
        parents = rng.integers(0, pos.size, size=n_syn)
        nn_pick = rng.integers(0, self.k, size=n_syn)
        lams = rng.uniform(0.0, 1.0, size=n_syn)
        nns = neighbors[parents, nn_pick]
        synthetic = Xp[parents] + lams[:, None] * (Xp[nns] - Xp[parents])

        self.provenance_ = [
            SmoteProvenance(int(pos[p]), int(pos[n]), float(lam))
            for p, n, lam in zip(parents, nns, lams)
        ]
        X_out = np.vstack([X, synthetic])
        y_out = np.concatenate([y, np.ones(n_syn, dtype=np.int64)])
        return X_out, y_out

    def write_provenance(self, path):
        if self.provenance_ is None:
            raise ValueError("no provenance: call fit_resample first")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("parent,neighbor,lambda\n")
            for p in self.provenance_:
                fh.write(f"{p.parent},{p.neighbor},{p.lam!r}\n")


@dataclass
class SamplerConfig:
    method: str = "none"  # none | rus | nearmiss | smote
    nearmiss_version: int = 1
    k_neighbors: int = 0  # 0 -> method default (3 for NearMiss, 5 for SMOTE)
    ratio: float = 1.0
    seed: int = 0

    def build(self):
        if self.method == "none":
            return None
        if self.method == "rus":
            return RandomUnderSampler(ratio=self.ratio, seed=self.seed)
        if self.method == "nearmiss":
            return NearMiss(
                version=self.nearmiss_version, k=self.k_neighbors or 3, ratio=self.ratio
            )
        if self.method == "smote":
            return Smote(ratio=self.ratio, k=self.k_neighbors or 5, seed=self.seed)
        raise ValueError(f"unknown sampler method {self.method!r}")
