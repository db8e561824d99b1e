"""Standardization, feature correlation, and the test/train/validation split."""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from fraudkit.base import BaseEstimator, NotFittedError, check_array
from fraudkit.rng import generator


class StandardScaler(BaseEstimator):
    """Per-feature standardization to mean 0, std 1.

    Uses the population std (divisor n) so refitting a transformed
    matrix yields std exactly 1. Zero-variance features map to 0.
    """

    def __init__(self):
        self.mean_ = None
        self.std_ = None

    def fit(self, X):
        X = check_array(X)
        if X.shape[0] < 1:
            raise ValueError("cannot fit scaler on an empty matrix")
        self.mean_ = X.mean(axis=0)
        self.std_ = np.sqrt(((X - self.mean_) ** 2).mean(axis=0))
        return self

    def transform(self, X):
        """X standardized into one new array: the result of X - mean_,
        divided by std_ in place, so the call holds its output and no
        second copy."""
        if self.mean_ is None:
            raise NotFittedError("scaler is not fitted")
        X = check_array(X)
        if X.shape[1] != self.mean_.shape[0]:
            raise ValueError(
                f"scaler fitted on {self.mean_.shape[0]} features, got {X.shape[1]}"
            )
        safe = np.where(self.std_ > 0, self.std_, 1.0)
        out = X - self.mean_
        out /= safe
        out[:, self.std_ == 0] = 0.0
        return out


@dataclass
class CorrelationResult:
    matrix: np.ndarray
    names: list
    constant: np.ndarray  # bool mask of zero-variance columns

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("," + ",".join(self.names) + "\n")
            for name, row in zip(self.names, self.matrix):
                fh.write(name + "," + ",".join(repr(float(v)) for v in row) + "\n")


# Elements per block of products in correlation_matrix (8 MB of float64).
_CORRELATION_BLOCK = 2**20


def correlation_matrix(ds, include_label=False):
    """Pearson correlation between features (optionally plus the label).

    Exactly symmetric with unit diagonal; pairs involving a
    zero-variance column are reported as 0 (with a warning).

    Beyond its p x p output it holds two n x p working arrays at once,
    the centered columns and their transposed copy, plus one block of
    products; include_label stacks one more copy that is freed once the
    columns are centered.
    """
    X = ds.features
    names = list(ds.feature_names)
    if include_label:
        X = np.column_stack([X, ds.labels.astype(np.float64)])
        names.append(ds.label_name)
    if X.shape[0] < 2:
        raise ValueError("correlation requires at least 2 rows")

    centered = X - X.mean(axis=0)
    del X  # the stacked copy, when include_label made one
    std = np.sqrt((centered**2).mean(axis=0))
    constant = std == 0
    if constant.any():
        warnings.warn(
            f"zero-variance columns reported as correlation 0: "
            f"{[n for n, c in zip(names, constant) if c]}",
            stacklevel=2,
        )
    # Columns as contiguous rows: each pair's mean is then numpy's pairwise
    # sum along one contiguous row of products, as it is for the product
    # of two columns, so a block of pairs gives the same bits as one pair.
    centered /= np.where(constant, 1.0, std)
    zT = np.ascontiguousarray(centered.T)
    del centered
    p, n = zT.shape
    step = max(1, _CORRELATION_BLOCK // n)  # column pairs per product
    m = np.zeros((p, p))
    for i in range(p):
        for j in range(i + 1, p, step):
            v = np.clip(np.mean(zT[i] * zT[j:j + step], axis=1), -1.0, 1.0)
            m[i, j:j + step] = m[j:j + step, i] = v
    m[constant] = m[:, constant] = 0.0  # z can be nonzero where the variance underflows
    np.fill_diagonal(m, 1.0)
    return CorrelationResult(matrix=m, names=names, constant=constant)


@dataclass
class SplitIndices:
    test: np.ndarray
    train: np.ndarray
    validation: np.ndarray
    seed: int


def split(n_rows, test_frac=0.035, val_frac=0.2, seed=0):
    """Random test/train/validation partition of range(n_rows).

    Test takes floor(test_frac * n) rows; of the remainder, validation
    takes floor(val_frac * m) and training the rest. Deterministic per
    seed.
    """
    if not (0 < test_frac < 1 and 0 < val_frac < 1):
        raise ValueError("fractions must lie in (0, 1)")
    if n_rows < 3:
        raise ValueError("need at least 3 rows to split")
    perm = generator(seed).permutation(n_rows)
    n_test = math.floor(test_frac * n_rows)
    n_val = math.floor(val_frac * (n_rows - n_test))
    test = np.sort(perm[:n_test])
    val = np.sort(perm[n_test : n_test + n_val])
    train = np.sort(perm[n_test + n_val :])
    if min(test.size, val.size, train.size) == 0:
        raise ValueError(
            f"too few rows ({n_rows}) for each partition to get at least one element"
        )
    return SplitIndices(test=test, train=train, validation=val, seed=seed)
