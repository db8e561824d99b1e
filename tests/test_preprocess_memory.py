"""Split and scale memory is bounded: each stage holds its output plus at
most one working copy of its input rows, and the finiteness check of its
input one block of flags."""

import pytest

from memprobe import peak_rise_mb

N_ROWS, N_FEATURES = 200_000, 30
MATRIX_MB = N_ROWS * N_FEATURES * 8 / 2**20

# One block of products or of finiteness flags, plus the interpreter's own
# allocations.
BLOCK_ALLOWANCE_MB = 10

SETUP = """
import sys
import warnings
import numpy as np
from fraudkit.base import check_array
from fraudkit.experiments import ExperimentPlan, prepare
from fraudkit.ingest import Dataset
from fraudkit.preprocess import StandardScaler, correlation_matrix
from fraudkit.synth import SyntheticSpec, gen_synthetic

rng = np.random.default_rng(0)
X = rng.normal(size=(200_000, 30))
X[:, 4] = 2.5  # a zero-variance column
y = (rng.random(200_000) < 0.002).astype(np.int64)
ds = Dataset(gen_synthetic(SyntheticSpec(n_rows=50, n_features=30, seed=1)).schema, X, y)
small = Dataset(ds.schema, X[:2000], y[:2000])
plan = ExperimentPlan(synthetic=SyntheticSpec(n_features=30), seed=3)
check_array(X[:2000])
scaler = StandardScaler().fit(X[:2000])  # a fit on every row would set the peak
scaler.transform(X[:2000])
warnings.simplefilter("ignore")  # the zero-variance column
include_label = sys.argv[1:] == ["label"]
correlation_matrix(small, include_label=include_label)
prepare(plan, small)
"""


def _assert_bounded(stage, rise_mb, bound_mb):
    assert rise_mb <= bound_mb, (
        f"{stage} on {N_ROWS:,} x {N_FEATURES} raised peak RSS by {rise_mb:.0f} MB "
        f"(bound {bound_mb:.0f})"
    )


def test_finiteness_check_holds_one_block_of_flags():
    # One n x p bool array would be 5.7 MB here; a block of flags is 64 KB.
    _assert_bounded("check_array", peak_rise_mb(SETUP, "check_array(X)"), 1)


def test_transform_holds_only_its_output():
    step = "out = scaler.transform(X)"
    _assert_bounded("transform", peak_rise_mb(SETUP, step), MATRIX_MB + BLOCK_ALLOWANCE_MB)


@pytest.mark.parametrize("include_label", [False, True])
def test_correlation_holds_the_centered_columns_and_one_transposed_copy(include_label):
    step = "result = correlation_matrix(ds, include_label=include_label)"
    rise_mb = peak_rise_mb(SETUP, step, *["label"] * include_label)
    columns = N_FEATURES + include_label
    _assert_bounded("correlation_matrix", rise_mb, 2 * N_ROWS * columns * 8 / 2**20 + BLOCK_ALLOWANCE_MB)


def test_prepare_holds_its_partitions_and_one_copy_of_the_training_rows():
    # The training partition is 0.965 * 0.8 of the rows, as split() draws it.
    step = "prepared = prepare(plan, ds)"
    train_mb = MATRIX_MB * 0.965 * 0.8
    _assert_bounded("prepare", peak_rise_mb(SETUP, step), MATRIX_MB + train_mb + BLOCK_ALLOWANCE_MB)
