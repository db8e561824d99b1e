import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraudkit.base import FINITE_BLOCK
from fraudkit.ingest import ColumnSchema, Dataset
from fraudkit.preprocess import (
    StandardScaler,
    correlation_matrix,
    split,
)


def column_dataset(*cols, labels=None):
    X = np.column_stack([np.asarray(c, dtype=float) for c in cols])
    labels = labels if labels is not None else [0] * (X.shape[0] - 1) + [1]
    schema = [ColumnSchema(f"c{j}", "numeric") for j in range(X.shape[1])]
    schema.append(ColumnSchema("Class", "label"))
    return Dataset(schema, X, labels)


def ref_transform(scaler, X):
    """StandardScaler.transform as one out-of-place expression."""
    safe = np.where(scaler.std_ > 0, scaler.std_, 1.0)
    out = (X - scaler.mean_) / safe
    out[:, scaler.std_ == 0] = 0.0
    return out


def edge_columns(rows, seed):
    """Columns that stress the rounding of centering and scaling: ordinary
    values, a constant, signed zeros, subnormals, values near 1e300 whose
    squares overflow, and values whose squares sit near the top of the
    range."""
    rng = np.random.default_rng(seed)
    return np.column_stack([
        rng.normal(size=rows) * 37.0,
        np.full(rows, 2.5),
        np.where(rng.random(rows) < 0.5, -0.0, 0.0),
        5e-324 * rng.integers(-40, 40, size=rows),
        1e300 * rng.uniform(0.5, 1.0, size=rows),
        1e150 * rng.normal(size=rows),
        np.where(rng.random(rows) < 0.3, -0.0, rng.normal(size=rows)),
    ])


class TestScaler:
    def test_mean_and_population_std(self):
        s = StandardScaler().fit([[1.0], [2.0], [3.0]])
        assert s.mean_[0] == 2.0
        assert s.std_[0] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)

    def test_constant_column(self):
        s = StandardScaler().fit([[5.0], [5.0]])
        assert s.mean_[0] == 5.0
        assert s.std_[0] == 0.0
        assert np.all(s.transform([[5.0], [7.0]]) == 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_value_in_any_block_of_rows(self, bad):
        step = FINITE_BLOCK // 30
        X = np.zeros((2 * step + 1, 30))
        scaler = StandardScaler().fit(X)
        for row in (0, step - 1, step, 2 * step):
            X[row, 29] = bad
            for call in (StandardScaler().fit, scaler.transform):
                with pytest.raises(ValueError, match="X contains non-finite values"):
                    call(X)
            X[row, 29] = 0.0
        wide = np.zeros((3, FINITE_BLOCK + 1))  # a block of one row
        wide[2, -1] = bad
        with pytest.raises(ValueError, match="X contains non-finite values"):
            StandardScaler().fit(wide)

    def test_transform_values(self):
        X = [[1.0], [2.0], [3.0]]
        out = StandardScaler().fit(X).transform(X)
        assert out[:, 0] == pytest.approx([-1.2247, 0.0, 1.2247], abs=1e-4)

    def test_refit_is_standard(self):
        rng = np.random.default_rng(0)
        X = rng.normal(3.0, 7.0, size=(50, 4))
        out = StandardScaler().fit(X).transform(X)
        refit = StandardScaler().fit(out)
        assert np.all(np.abs(refit.mean_) < 1e-9)
        assert np.all(np.abs(refit.std_ - 1.0) < 1e-9)

    def test_idempotent_on_standardized(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 3))
        Z = StandardScaler().fit(X).transform(X)
        s = StandardScaler().fit(Z)
        assert np.all(np.abs(s.mean_) < 1e-12)
        assert np.all(np.abs(s.std_ - 1.0) < 1e-12)

    @pytest.mark.parametrize("rows", [2, 9, 5000])
    def test_transform_matches_the_out_of_place_expression_bit_for_bit(self, rows):
        X = edge_columns(rows, rows)
        with np.errstate(over="ignore"):
            scaler = StandardScaler().fit(X[: max(2, rows // 2)])
        for data in (X, X[::-1], np.asfortranarray(X)):
            got = scaler.transform(data)
            assert got.tobytes() == ref_transform(scaler, data).tobytes()

    def test_width_mismatch(self):
        s = StandardScaler().fit([[1.0, 2.0]])
        with pytest.raises(ValueError):
            s.transform([[1.0]])


class TestCorrelation:
    def test_self_correlation(self):
        ds = column_dataset([1, 2, 3], [1, 2, 3])
        m = correlation_matrix(ds).matrix
        assert m[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_perfect_anticorrelation(self):
        ds = column_dataset([1, 2, 3], [3, 2, 1])
        m = correlation_matrix(ds).matrix
        assert m[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_symmetric_unit_diagonal_bounded(self):
        rng = np.random.default_rng(2)
        ds = column_dataset(*[rng.normal(size=40) for _ in range(6)])
        m = correlation_matrix(ds).matrix
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 1.0)
        assert np.max(np.abs(m)) <= 1.0 + 1e-12

    def test_zero_variance_flagged(self):
        ds = column_dataset([1, 2, 3], [5, 5, 5])
        with pytest.warns(UserWarning, match="zero-variance"):
            result = correlation_matrix(ds)
        assert result.constant.tolist() == [False, True]
        assert result.matrix[0, 1] == 0.0
        assert result.matrix[1, 1] == 1.0

    def test_label_correlation_identifies_driver(self):
        # label column tracks c1 exactly; c0 is noise
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2, size=200)
        ds = column_dataset(rng.normal(size=200), labels * 2.0, labels=labels)
        result = correlation_matrix(ds, include_label=True)
        label_corr = np.abs(result.matrix[-1, :-1])
        assert np.argmax(label_corr) == 1

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            correlation_matrix(column_dataset([1.0], labels=[1]))

    @pytest.mark.parametrize("rows", [2, 7, 8193, 47468])
    def test_matches_pair_by_pair_means_bit_for_bit(self, rows):
        rng = np.random.default_rng(rows)
        X = rng.normal(size=(rows, 30)) * rng.uniform(0.01, 100.0, size=30)
        X[:, 4] = 2.5
        # Variance underflows to 0, so zero-variance, yet not all its
        # centered values are 0.
        X[:, 5] = 1e-170 * np.arange(rows)
        labels = [0] * (rows - 1) + [1]
        with pytest.warns(UserWarning, match="zero-variance"):
            got = correlation_matrix(column_dataset(*X.T, labels=labels), include_label=True)
        want = pair_by_pair_correlation(np.column_stack([X, labels]))
        assert got.constant.tolist() == [j in (4, 5) for j in range(31)]
        assert got.matrix.tobytes() == want.tobytes()

    @pytest.mark.parametrize("include_label", [False, True])
    def test_matches_pair_by_pair_on_edge_values(self, include_label):
        X = edge_columns(3000, 1)
        labels = [0] * 2990 + [1] * 10
        with pytest.warns(UserWarning, match="zero-variance"), np.errstate(over="ignore"):
            got = correlation_matrix(column_dataset(*X.T, labels=labels), include_label=include_label)
            want = pair_by_pair_correlation(np.column_stack([X, labels]) if include_label else X)
        assert got.constant.tolist() == [j in (1, 2, 3) for j in range(X.shape[1] + include_label)]
        assert got.matrix.tobytes() == want.tobytes()


def pair_by_pair_correlation(X):
    """The Pearson matrix one column pair at a time: the clipped mean of
    the pair's standardized products, and 0 for a zero-variance column."""
    centered = X - X.mean(axis=0)
    std = np.sqrt((centered**2).mean(axis=0))
    z = centered / np.where(std == 0, 1.0, std)
    p = X.shape[1]
    m = np.zeros((p, p))
    for i in range(p):
        for j in range(i + 1, p):
            if std[i] > 0 and std[j] > 0:
                m[i, j] = m[j, i] = float(np.clip(np.mean(z[:, i] * z[:, j]), -1.0, 1.0))
    np.fill_diagonal(m, 1.0)
    return m


class TestSplit:
    def test_large_scale_sizes(self):
        idx = split(284807, seed=0)
        assert idx.test.size == 9968
        assert idx.validation.size == 54967
        assert idx.train.size == 219872

    def test_hundred_rows(self):
        idx = split(100, seed=1)
        assert (idx.test.size, idx.validation.size, idx.train.size) == (3, 19, 78)

    def test_deterministic(self):
        a, b = split(1000, seed=5), split(1000, seed=5)
        assert np.array_equal(a.test, b.test)
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.validation, b.validation)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(50, 3000), seed=st.integers(0, 2**32))
    def test_partition_property(self, n, seed):
        idx = split(n, seed=seed)
        merged = np.concatenate([idx.test, idx.train, idx.validation])
        assert merged.size == n
        assert np.array_equal(np.sort(merged), np.arange(n))

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            split(100, test_frac=1.5)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            split(10)  # floor(0.035 * 10) = 0 test rows
