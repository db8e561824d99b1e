"""RowFormatter against repr itself: every row's bytes, for values drawn by
Hypothesis, for random bit patterns and for the edges of repr's rules."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraudkit.floatfmt import RowFormatter


def format_rows(X, y):
    """The bytes of one block, formatted in arrays of its own."""
    return bytes(RowFormatter(*X.shape).format(X, y))


def repr_rows(X, y):
    return b"".join(
        (",".join([*map(repr, row), str(label)]) + "\r\n").encode()
        for row, label in zip(X.tolist(), y.tolist())
    )


def assert_rows_match_repr(values, n_cols=5):
    values = np.asarray(values, dtype=np.float64)
    X = values[: len(values) // n_cols * n_cols].reshape(-1, n_cols)
    y = np.arange(len(X)) % 2
    got, want = format_rows(X, y).split(b"\r\n"), repr_rows(X, y).split(b"\r\n")
    assert len(got) == len(want)
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert not bad, bad[:5]


def neighbours(values):
    """values and the doubles just below and above them, the finite ones."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        near = np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])
    return near[np.isfinite(near)]


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.lists(FINITE, min_size=1, max_size=40), st.integers(1, 4))
def test_hypothesis_floats(values, n_cols):
    assert_rows_match_repr(values, min(n_cols, len(values)))


@pytest.mark.parametrize(
    "exponents", [(0, 2047), (1023 - 15, 1023 + 54)], ids=["all", "positional"]
)
def test_random_bit_patterns(exponents):
    """100,000 finite doubles from random bits, with biased exponents in
    exponents: every double, or those near repr's positional range."""
    rng = np.random.default_rng(20201)
    bits = rng.integers(0, 2**52, size=100_000, dtype=np.uint64)
    bits |= rng.integers(*exponents, size=bits.size, dtype=np.uint64) << np.uint64(52)
    bits |= rng.integers(0, 2, size=bits.size, dtype=np.uint64) << np.uint64(63)
    values = bits.view(np.float64)
    assert_rows_match_repr(values[np.isfinite(values)])


def test_edges():
    tiny, big = 5e-324, sys.float_info.max
    edges = [
        0.0, -0.0, tiny, -tiny, 2.225073858507201e-308, 2.2250738585072014e-308, big, -big,
        1e-4, 9.999999999999999e-05, 1e16, 2.0**53, 0.1, 0.3, 1 / 3, 123456789012345680.0,
    ]
    powers = [2.0**e for e in range(-1074, 1024)] + [10.0**e for e in range(-5, 23)]
    values = neighbours(edges + powers)
    assert_rows_match_repr(np.concatenate([values, -values]), n_cols=3)


def test_scales_cents_and_integers():
    rng = np.random.default_rng(7)
    scaled = rng.normal(size=20_000) * 10.0 ** rng.integers(-8, 21, size=20_000)
    cents = np.round(rng.uniform(-1e6, 1e6, size=20_000), 2)
    integers = rng.integers(-(2**62), 2**62, size=20_000).astype(np.float64)
    assert_rows_match_repr(np.concatenate([scaled, cents, integers]))


@pytest.mark.parametrize("n_rows", [0, 3])
def test_no_feature_columns(n_rows):
    X, y = np.empty((n_rows, 0)), np.arange(n_rows) % 2
    assert format_rows(X, y) == repr_rows(X, y) == b"0\r\n1\r\n0\r\n"[: 3 * n_rows]


def test_reused_arrays_leak_nothing_between_blocks():
    """One formatter's full, short and full blocks each match a fresh
    format of that block: lengths, digits, signs and repr's fields of an
    earlier block leave nothing behind."""
    rng = np.random.default_rng(5)
    scales = 10.0 ** rng.integers(-330, 30, size=(3, 64, 7))
    blocks = rng.normal(size=(3, 64, 7)) * np.where(rng.random((3, 64, 7)) < 0.2, scales, 1.0)
    blocks[0, ::5] = 0.0
    labels = rng.integers(0, 2, size=(3, 64))
    formatter = RowFormatter(64, 7)
    for X, y in [(blocks[0], labels[0]), (blocks[1, :5], labels[1, :5]), (blocks[2], labels[2]),
                 (blocks[0, :1], labels[0, :1]), (blocks[0], labels[0])]:
        got = bytes(formatter.format(X, y))
        assert got == format_rows(X, y) == repr_rows(X, y)
