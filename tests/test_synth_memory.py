"""gen_synthetic holds at most two copies of the feature matrix: the matrix
and its shuffled rows."""

from memprobe import peak_rise_mb

N_ROWS, N_FEATURES = 200_000, 30

SETUP = """
from fraudkit.synth import SyntheticSpec, gen_synthetic

gen_synthetic(SyntheticSpec(n_rows=1000, n_features=30, fraud_fraction=0.01, seed=3))
"""

STEP = """
ds = gen_synthetic(SyntheticSpec(n_rows=200_000, n_features=30, fraud_fraction=0.01, seed=3))
"""


def test_gen_synthetic_holds_two_copies_of_the_matrix():
    # A matrix is 45.8 MB here; three copies, as a stacked matrix beside its
    # class draws and its shuffled rows would be, raise the peak by 145 MB.
    # The allowance covers the labels, their class parts and shuffled copy
    # and the permutation, 1.6 MB each: two copies read 99 MB.
    matrix_mb = N_ROWS * N_FEATURES * 8 / 2**20
    rise_mb = peak_rise_mb(SETUP, STEP)
    bound = 2 * matrix_mb + 16
    assert rise_mb <= bound, (
        f"gen_synthetic of {N_ROWS:,} x {N_FEATURES} raised peak RSS by {rise_mb:.1f} MB "
        f"(bound {bound:.1f})"
    )
