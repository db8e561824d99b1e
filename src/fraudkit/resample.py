"""Class-imbalance treatments: random under-sampling, NearMiss v1-v3, SMOTE.

Under-samplers take ratio = desired majority/minority count (>= 1);
SMOTE takes ratio = desired minority/majority count (in (0, 1]).
Neighbor searches are exact Euclidean with ties broken by lower row
index. All samplers are deterministic per seed.

NearMiss and SMOTE share one blocked k-nearest kernel. Distances are
computed for BLOCK_ROWS rows at a time against every minority row, so
memory is O(BLOCK_ROWS * n_pos) rather than a full n_neg x n_pos matrix.
Each block gives per-row scores (the mean of a row's k smallest or
largest distances, picked with np.partition and added in ascending
order, as after a full sort) and is merged into a running k nearest rows
per minority column. With one BLAS thread the blocks hold the full
matrix's distances bit for bit, so every selection is the one the full
matrix gives. NearMiss versions with one k draw their samples from one
walk over the blocks (nearmiss_resample), as draw's passes group them.
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
    materializing the difference tensor: two len(a) x len(b) arrays, the
    product and the result, with the rest done in place. The operations
    are those of sqrt(max(|a|^2 + |b|^2 - 2 * (a @ b.T), 0)) in that
    order; 2 * ab is taken as ab * 2, which IEEE multiplication rounds
    the same.
    """
    ab = a @ b.T
    ab *= 2.0
    sq = (a**2).sum(axis=1)[:, None] + (b**2).sum(axis=1)[None, :]
    sq -= ab
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq, out=sq)


# Rows per distance block. A multiple of 3 * 2**10, so every block but
# the last covers whole tiles of OpenBLAS's GEMM kernels: with one BLAS
# thread each block's distances are then bit-identical to the same rows
# of the full matrix. Blocks of 4,096 rows, not a multiple of 3, change
# the last bits of some distances (seen at 50,001 x 301 and 219,495 x 377).
BLOCK_ROWS = 3072


def _distance_blocks(A, B, rows=None):
    """Yield (start, distances from A[rows[start:stop]] to every row of B)
    over consecutive blocks of rows (by default every row of A, in order).

    Only one block's rows are gathered at a time, so the blocks hold
    O(BLOCK_ROWS * len(B)) memory and never a copy of A. Without rows,
    each block is a slice of A itself: numpy computes A[start:stop] @ B.T
    with syrk when that slice and B are the same array, which a gathered
    copy would not be. A single trailing row joins the block before it: a
    one-row product takes another BLAS path and would round differently.
    """
    n = len(A) if rows is None else len(rows)
    starts = list(range(0, n, BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [n]):
        block = A[start:stop] if rows is None else A[rows[start:stop]]
        yield start, pairwise_distances(block, B)


def _row_kmean(dist, k, largest=False):
    """Mean of each row's k smallest (or largest) entries.

    np.partition selects them and np.sort orders only those k, so the
    mean adds the same values in the same order as a full sort's
    np.sort(dist, axis=1)[:, :k].mean(axis=1).
    """
    kth = dist.shape[1] - k if largest else k - 1
    part = np.partition(dist, kth, axis=1)
    return np.sort(part[:, kth:] if largest else part[:, :k], axis=1).mean(axis=1)


# The running k nearest before any block: (column, distance, row).
_NO_NEAREST = (np.empty(0, np.intp), np.empty(0), np.empty(0, np.intp))


def _merge_nearest(nearest, start, dist, k):
    """Merge a distance block into the running k nearest rows per column.

    nearest holds (column, distance, row) arrays sorted by column, then
    distance, then row: each column's k nearest rows so far, ties to the
    lower row. dist holds rows start, start+1, ... of the row set. Until
    every column holds k rows, every block row at or below a column's kth
    smallest block distance enters the sort, so no tied row is lost.
    After that only block rows below a column's running kth distance
    enter: any other has k rows ahead of it, each at least as near and
    from a lower row.
    """
    if nearest[0].size == k * dist.shape[1]:
        enters = dist < nearest[1][k - 1 :: k]
    else:
        j = min(k, len(dist)) - 1
        enters = dist <= np.partition(dist, j, axis=0)[j]
    # flatnonzero is several times faster than a 2-D nonzero, in the same order.
    row, col = np.divmod(np.flatnonzero(enters), dist.shape[1])
    merged = [np.concatenate(pair) for pair in zip(nearest, (col, dist[row, col], row + start))]
    order = np.lexsort(merged[::-1])
    col, dist, row = (a[order] for a in merged)
    keep = np.arange(col.size) - np.searchsorted(col, col) < k  # rank within its column
    return col[keep], dist[keep], row[keep]


def _check_params(ratio, k=1):
    if not 0.0 < ratio < math.inf:
        raise ValueError(f"ratio must be finite and > 0, got {ratio!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


class RandomUnderSampler(BaseEstimator):
    """Keep all minority rows plus a uniform random majority subset."""

    def __init__(self, ratio=1.0, seed=0):
        self.ratio = ratio
        self.seed = seed

    def fit_resample(self, X, y):
        X, y = check_X_y(X, y)
        _check_params(self.ratio)
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
        (sample,) = nearmiss_resample([self], X, y)
        if isinstance(sample, ValueError):
            raise sample
        return sample

    def _target(self, n_pos, n_neg):
        """Majority rows to keep; a ValueError where this sampler cannot run."""
        _check_params(self.ratio, self.k)
        if self.version not in (1, 2, 3):
            raise ValueError(f"unknown NearMiss version {self.version}")
        if n_pos < self.k:
            raise ValueError(f"NearMiss needs at least k={self.k} minority rows, got {n_pos}")
        target = round_half_away(self.ratio * n_pos)
        if target > n_neg:
            raise ValueError(f"target {target} exceeds majority count {n_neg}")
        return target


def nearmiss_resample(samplers, X, y):
    """Each NearMiss sampler's fit_resample(X, y), or the ValueError it
    raises, in order, from one walk over the distance blocks.

    The samplers share one k, so each block's mean distance to the k
    nearest minority rows serves v1 and v3 alike. The mean of the k
    farthest is taken only for v2, and the running k nearest rows per
    minority column are merged only for v3.
    """
    X, y = check_X_y(X, y)
    k = samplers[0].k
    if any(s.k != k for s in samplers):
        raise ValueError(f"NearMiss samplers of one pass need one k, got {[s.k for s in samplers]}")
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y == 0)
    targets = [_caught(s._target, pos.size, neg.size) for s in samplers]
    versions = {s.version for s, t in zip(samplers, targets) if not isinstance(t, ValueError)}

    near = np.empty(neg.size) if versions & {1, 3} else None
    far = np.empty(neg.size) if 2 in versions else None
    nearest = _NO_NEAREST
    for start, dist in _distance_blocks(X, X[pos], neg) if versions else ():
        rows = slice(start, start + len(dist))
        if near is not None:
            near[rows] = _row_kmean(dist, k)
        if far is not None:
            far[rows] = _row_kmean(dist, k, largest=True)
        if 3 in versions:
            nearest = _merge_nearest(nearest, start, dist, k)
    # v3's shortlist: each minority row's k nearest majority rows.
    candidates = np.unique(nearest[2])

    def sample(version, target):
        if version in (1, 2):
            order = np.argsort(near if version == 1 else far, kind="stable")
            kept_neg = neg[order[:target]]  # ties -> lower row index
        elif target > candidates.size:
            raise ValueError(f"NearMiss v3 shortlist has {candidates.size} rows, target {target}")
        else:
            # The shortlisted rows' score is the mean of their k nearest distances.
            order = np.argsort(-near[candidates], kind="stable")
            kept_neg = neg[candidates[order[:target]]]
        idx = np.sort(np.concatenate([pos, kept_neg]))
        return X[idx], y[idx]

    return [t if isinstance(t, ValueError) else _caught(sample, s.version, t)
            for s, t in zip(samplers, targets)]


def _caught(f, *args):
    """f(*args), or the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return exc


def passes(samplers):
    """Indices of samplers, grouped by the pass that draws them: NearMiss
    samplers with one k share one distance pass; any other is a pass alone."""
    groups = {}
    for i, s in enumerate(samplers):
        groups.setdefault(("nearmiss", s.k) if isinstance(s, NearMiss) else i, []).append(i)
    return list(groups.values())


def draw(samplers, X, y):
    """Each sampler's sample (X_fit, y_fit) of (X, y), or the error it
    raises, in order: (X, y) itself for None (no sampler). Each distinct
    sampler (by repr) is drawn once, in the passes of passes(). Samples are
    read-only views, so a caller that writes into one fails instead of
    changing rows others share.
    """
    distinct = list({repr(s): s for s in samplers}.values())
    drawn = {}
    for group in passes(distinct):
        batch = [distinct[i] for i in group]
        try:
            if isinstance(batch[0], NearMiss):
                samples = nearmiss_resample(batch, X, y)
            else:
                samples = [(X, y) if batch[0] is None else batch[0].fit_resample(X, y)]
        except (ValueError, FloatingPointError, MemoryError) as exc:
            samples = [exc] * len(batch)
        drawn.update(zip(map(repr, batch), map(_read_only, samples)))
    return [drawn[repr(s)] for s in samplers]


def _read_only(sample):
    """sample with its arrays as read-only views; an exception as it is."""
    if isinstance(sample, Exception):
        return sample
    views = tuple(array.view() for array in sample)
    for view in views:
        view.flags.writeable = False
    return views


class Smote(BaseEstimator):
    """Synthetic minority over-sampling on segments between neighbors.

    Each synthetic row is x_i + lam * (x_nn - x_i) for a uniformly
    chosen real minority row x_i, one of its k nearest minority
    neighbors x_nn (uniform), and lam ~ Uniform[0, 1]. Original rows
    are preserved bit-exactly.
    """

    def __init__(self, ratio=1.0, k=5, seed=0):
        self.ratio = ratio
        self.k = k
        self.seed = seed

    def fit_resample(self, X, y):
        """(X, y) with the synthetic rows and their 1 labels appended.

        The synthetic rows are written straight into the output,
        BLOCK_ROWS at a time, so beyond its output and the random draws
        the call holds the minority rows and one block.
        """
        X, y = check_X_y(X, y)
        _check_params(self.ratio, self.k)
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
        # Distances are symmetric (bit for bit while the minority fits one
        # block: numpy then computes Xp @ Xp.T with syrk), so the k nearest
        # rows of column i are row i's k nearest neighbors, in order.
        nearest = _NO_NEAREST
        for start, dist in _distance_blocks(Xp, Xp):
            rows = np.arange(len(dist))
            dist[rows, start + rows] = np.inf  # a row is not its own neighbor
            nearest = _merge_nearest(nearest, start, dist, self.k)
        neighbors = nearest[2].reshape(pos.size, self.k)

        rng = generator(self.seed)
        parents = rng.integers(0, pos.size, size=n_syn)
        nn_pick = rng.integers(0, self.k, size=n_syn)
        lams = rng.uniform(0.0, 1.0, size=n_syn)
        nns = neighbors[parents, nn_pick]

        # Each block is Xp[parents] + lams * (Xp[nns] - Xp[parents]), with
        # the product and the sum taken in the other operand order, which
        # IEEE multiplication and addition round the same.
        X_out = np.empty((len(X) + n_syn, X.shape[1]))
        X_out[: len(X)] = X
        synthetic = X_out[len(X) :]
        for start in range(0, n_syn, BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            base = Xp[parents[rows]]
            block = synthetic[rows]
            Xp.take(nns[rows], axis=0, out=block)
            block -= base
            block *= lams[rows, None]
            block += base

        y_out = np.concatenate([y, np.ones(n_syn, dtype=np.int64)])
        return X_out, y_out


SAMPLER_METHODS = ("none", "rus", "nearmiss", "smote")


@dataclass
class SamplerConfig:
    method: str = "none"  # one of SAMPLER_METHODS
    nearmiss_version: int = 1
    k_neighbors: int = 0  # 0 -> the sampler's own default k
    ratio: float = 1.0
    seed: int = 0

    def build(self):
        k = {"k": self.k_neighbors} if self.k_neighbors else {}
        if self.method == "none":
            return None
        if self.method == "rus":
            return RandomUnderSampler(ratio=self.ratio, seed=self.seed)
        if self.method == "nearmiss":
            return NearMiss(version=self.nearmiss_version, ratio=self.ratio, **k)
        if self.method == "smote":
            return Smote(ratio=self.ratio, seed=self.seed, **k)
        raise ValueError(f"unknown sampler method {self.method!r}")
