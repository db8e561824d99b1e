"""Estimator base class and input validation helpers."""

import inspect
import math
import os

import numpy as np


class FraudkitError(Exception):
    """Base class for all toolkit errors."""


class NotFittedError(FraudkitError):
    """Raised when predict/transform is called before fit."""


class ConfigError(ValueError):
    """A plan or schema value that is missing, does not parse or fails its
    check; plan errors name the [section] key."""


# Elements per block of check_array's finiteness flags.
FINITE_BLOCK = 1 << 16


def check_array(X, *, name="X"):
    """Coerce to a 2-D float64 ndarray and reject non-finite values,
    flagged a block of rows at a time so that the flags stay small
    whatever the size of X."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {X.shape}")
    step = max(1, FINITE_BLOCK // max(1, math.prod(X.shape[1:])))
    if not all(np.isfinite(X[i : i + step]).all() for i in range(0, len(X), step)):
        raise ValueError(f"{name} contains non-finite values")
    return X


def check_labels(y, *, name="y"):
    """Coerce to a 1-D int array of binary labels (0 = non-fraud, 1 = fraud)."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {y.shape}")
    y_int = y.astype(np.int64)
    if not np.array_equal(y_int, np.asarray(y, dtype=np.float64)):
        raise ValueError(f"{name} contains non-integer labels")
    bad = np.setdiff1d(np.unique(y_int), [0, 1])
    if bad.size:
        raise ValueError(f"{name} contains labels outside {{0, 1}}: {bad.tolist()}")
    return y_int


def is_finite(value):
    """Whether the int or float value is finite as a float; an int too
    large for a float is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def check_object(value, name):
    """value if it is a dict, as a JSON object loads; else ValueError naming it."""
    if type(value) is not dict:
        raise ValueError(f"{name} is a {type(value).__name__}, not an object")
    return value


def check_kind(value, kinds, name):
    """value if it is one of the strings kinds; else ValueError naming it
    and listing kinds."""
    if type(value) is not str or value not in kinds:
        raise ValueError(f"{name} {value!r} is not one of {', '.join(kinds)}")
    return value


def check_positive_int(value, name):
    """value if it is an int of at least 1; else ValueError naming it."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{name} {value!r} is not a positive int")
    return value


def usable_cpus():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_cpus():
    """Processes a job may fork its work onto: usable_cpus(), or 1 without os.fork."""
    return usable_cpus() if hasattr(os, "fork") else 1


def check_X_y(X, y):
    X = check_array(X)
    y = check_labels(y)
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    return X, y


class BaseEstimator:
    """get_params and repr in the scikit-learn style.

    Parameters are discovered from the subclass __init__ signature, so
    estimators must store each constructor argument under its own name.
    """

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [
            p.name
            for p in sig.parameters.values()
            if p.name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    def get_params(self):
        return {name: getattr(self, name) for name in self._param_names()}

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"
