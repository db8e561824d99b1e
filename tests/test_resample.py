import math

import numpy as np
import pytest

from fraudkit import resample
from fraudkit.resample import (
    NearMiss,
    RandomUnderSampler,
    SamplerConfig,
    Smote,
    nearmiss_resample,
    round_half_away,
)

from conftest import random_imbalanced
from test_sampling_reference import ref_smote


def nearmiss_v1_oracle(X, y, k, target):
    """Exhaustive mean-of-k-nearest-minority ranking; ties by lower index."""
    pos = [i for i in range(len(y)) if y[i] == 1]
    neg = [i for i in range(len(y)) if y[i] == 0]
    scored = []
    for i in neg:
        dists = sorted(math.dist(X[i], X[j]) for j in pos)
        scored.append((sum(dists[:k]) / k, i))
    scored.sort()
    return sorted(i for _, i in scored[:target])


def nearmiss_v2_oracle(X, y, k, target):
    """Exhaustive mean-of-k-farthest-minority ranking; ties by lower index."""
    pos = [i for i in range(len(y)) if y[i] == 1]
    neg = [i for i in range(len(y)) if y[i] == 0]
    scored = []
    for i in neg:
        dists = sorted(math.dist(X[i], X[j]) for j in pos)
        scored.append((sum(dists[-k:]) / k, i))
    scored.sort()
    return sorted(i for _, i in scored[:target])


def nearmiss_v3_oracle(X, y, k, target):
    """Exhaustive v3: shortlist every minority row's k nearest majority rows
    (ties by lower index), then keep the shortlisted rows with the largest
    mean distance to their k nearest minority rows (ties by lower index).
    None when the shortlist is shorter than target."""
    pos = [i for i in range(len(y)) if y[i] == 1]
    neg = [i for i in range(len(y)) if y[i] == 0]
    shortlist = set()
    for j in pos:
        shortlist.update(i for _, i in sorted((math.dist(X[i], X[j]), i) for i in neg)[:k])
    if len(shortlist) < target:
        return None
    scored = []
    for i in shortlist:
        dists = sorted(math.dist(X[i], X[j]) for j in pos)
        scored.append((-sum(dists[:k]) / k, i))
    scored.sort()
    return sorted(i for _, i in scored[:target])


def _oracle_cases(seed):
    """Small sets, a third on an integer grid that forces distance ties."""
    for case in range(100):
        rng = np.random.default_rng(seed + case)
        n_pos = int(rng.integers(3, 7))
        n_neg = int(rng.integers(3, 13))
        if case % 3 == 0:
            X = rng.integers(0, 3, size=(n_pos + n_neg, 2)).astype(float)
        else:
            X = rng.normal(size=(n_pos + n_neg, 2))
        y = np.array([1] * n_pos + [0] * n_neg)
        target = int(rng.integers(1, n_neg + 1))
        if round_half_away(target / n_pos * n_pos) == target:
            yield case, X, y, target, target / n_pos


class TestRoundHalfAway:
    def test_half_up(self):
        assert round_half_away(2.5) == 3
        assert round_half_away(3.5) == 4
        assert round_half_away(-2.5) == -3
        assert round_half_away(2.4) == 2


class TestRus:
    def test_count_arithmetic(self):
        rng = np.random.default_rng(0)
        X, y = random_imbalanced(rng, n_pos=50, n_neg=1000, n_features=3)
        Xr, yr = RandomUnderSampler(ratio=4.0, seed=1).fit_resample(X, y)
        assert int((yr == 0).sum()) == 200
        assert int((yr == 1).sum()) == 50

    def test_balanced_identity_counts(self):
        rng = np.random.default_rng(1)
        X, y = random_imbalanced(rng, n_pos=30, n_neg=30, n_features=2)
        Xr, yr = RandomUnderSampler(ratio=1.0, seed=0).fit_resample(X, y)
        assert int((yr == 0).sum()) == int((yr == 1).sum()) == 30

    def test_minority_preserved_bit_exactly(self):
        rng = np.random.default_rng(2)
        X, y = random_imbalanced(rng, n_pos=20, n_neg=100, n_features=4)
        Xr, yr = RandomUnderSampler(ratio=2.0, seed=3).fit_resample(X, y)
        original = {X[i].tobytes() for i in range(len(y)) if y[i] == 1}
        kept = {Xr[i].tobytes() for i in range(len(yr)) if yr[i] == 1}
        assert kept == original

    def test_ratio_exceeds_available(self):
        rng = np.random.default_rng(3)
        X, y = random_imbalanced(rng, n_pos=50, n_neg=100, n_features=2)
        with pytest.raises(ValueError):
            RandomUnderSampler(ratio=3.0).fit_resample(X, y)

    def test_deterministic_and_count_sweep(self):
        rng = np.random.default_rng(4)
        X, y = random_imbalanced(rng, n_pos=40, n_neg=400, n_features=3)
        for case in range(25):
            ratio = 1.0 + (case % 9)
            sampler = RandomUnderSampler(ratio=ratio, seed=case)
            Xr, yr = sampler.fit_resample(X, y)
            Xr2, yr2 = sampler.fit_resample(X, y)
            assert np.array_equal(Xr, Xr2) and np.array_equal(yr, yr2)
            assert int((yr == 0).sum()) == round_half_away(ratio * 40)


class TestNearMiss:
    def test_v1_keeps_closest(self):
        # minority at the origin; majority at distances 1, 2, 3
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1, 0, 0, 0])
        Xr, yr = NearMiss(version=1, k=1, ratio=1.0).fit_resample(X, y)
        assert sorted(Xr[:, 0].tolist()) == [0.0, 1.0]

    def test_v1_matches_oracle_six_rows(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(6, 2))
        y = np.array([1, 1, 1, 0, 0, 0])
        Xr, yr = NearMiss(version=1, k=3, ratio=2 / 3).fit_resample(X, y)
        expected = nearmiss_v1_oracle(X, y, k=3, target=2)
        kept = {Xr[i].tobytes() for i in range(len(yr)) if yr[i] == 0}
        assert kept == {X[i].tobytes() for i in expected}

    def test_v1_oracle_sweep_with_ties(self):
        for case in range(100):
            rng = np.random.default_rng(1000 + case)
            n_pos = int(rng.integers(3, 7))
            n_neg = int(rng.integers(3, 13))
            if case % 3 == 0:
                # integer grid coordinates force exact distance ties
                X = rng.integers(0, 3, size=(n_pos + n_neg, 2)).astype(float)
            else:
                X = rng.normal(size=(n_pos + n_neg, 2))
            y = np.array([1] * n_pos + [0] * n_neg)
            target = int(rng.integers(1, n_neg + 1))
            ratio = target / n_pos
            if round_half_away(ratio * n_pos) != target:
                continue
            Xr, yr = NearMiss(version=1, k=3, ratio=ratio).fit_resample(X, y)
            kept = sorted(Xr[i].tobytes() for i in range(len(yr)) if yr[i] == 0)
            expected = nearmiss_v1_oracle(X, y, k=3, target=target)
            assert kept == sorted(X[i].tobytes() for i in expected), f"case {case}"

    @pytest.mark.parametrize("version,oracle", [(2, nearmiss_v2_oracle), (3, nearmiss_v3_oracle)])
    def test_v2_v3_oracle_sweep_with_ties(self, version, oracle):
        checked = 0
        for case, X, y, target, ratio in _oracle_cases(2000 * version):
            expected = oracle(X, y, k=3, target=target)
            sampler = NearMiss(version=version, k=3, ratio=ratio)
            if expected is None:
                with pytest.raises(ValueError, match="shortlist"):
                    sampler.fit_resample(X, y)
                continue
            Xr, yr = sampler.fit_resample(X, y)
            kept = sorted(Xr[i].tobytes() for i in range(len(yr)) if yr[i] == 0)
            assert kept == sorted(X[i].tobytes() for i in expected), f"case {case}"
            checked += 1
        assert checked >= 50

    def test_full_target_is_noop(self):
        rng = np.random.default_rng(6)
        X, y = random_imbalanced(rng, n_pos=5, n_neg=10, n_features=2)
        Xr, yr = NearMiss(version=1, k=3, ratio=2.0).fit_resample(X, y)
        assert sorted(map(bytes, (r.tobytes() for r in Xr))) == sorted(
            map(bytes, (r.tobytes() for r in X))
        )

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_all_versions_complete(self, version):
        rng = np.random.default_rng(7)
        X, y = random_imbalanced(rng, n_pos=20, n_neg=200, n_features=4)
        Xr, yr = NearMiss(version=version, k=3, ratio=1.0).fit_resample(X, y)
        assert int((yr == 0).sum()) == 20
        assert int((yr == 1).sum()) == 20

    def test_insufficient_minority(self):
        rng = np.random.default_rng(8)
        X, y = random_imbalanced(rng, n_pos=2, n_neg=10, n_features=2)
        with pytest.raises(ValueError):
            NearMiss(version=1, k=3, ratio=1.0).fit_resample(X, y)

    def test_v2_uses_farthest(self):
        # one far minority outlier flips the v2 ranking away from v1's
        X = np.array([[0.0], [100.0], [1.0], [60.0]])
        y = np.array([1, 1, 0, 0])
        Xr1, yr1 = NearMiss(version=1, k=2, ratio=0.5).fit_resample(X, y)
        Xr2, yr2 = NearMiss(version=2, k=2, ratio=0.5).fit_resample(X, y)
        kept1 = [Xr1[i, 0] for i in range(len(yr1)) if yr1[i] == 0]
        kept2 = [Xr2[i, 0] for i in range(len(yr2)) if yr2[i] == 0]
        assert kept1 == kept2  # k=2 covers both minority rows: same mean
        Xr1, yr1 = NearMiss(version=1, k=1, ratio=0.5).fit_resample(X, y)
        Xr2, yr2 = NearMiss(version=2, k=1, ratio=0.5).fit_resample(X, y)
        kept1 = [Xr1[i, 0] for i in range(len(yr1)) if yr1[i] == 0]
        kept2 = [Xr2[i, 0] for i in range(len(yr2)) if yr2[i] == 0]
        assert kept1 == [1.0]  # nearest to origin
        assert kept2 == [60.0]  # smallest distance to the farthest minority


def partition_merge(nearest, start, dist, k):
    """_merge_nearest as it was before its full-column shortcut: every block
    row at or below a column's kth smallest block distance enters the sort."""
    j = min(k, len(dist)) - 1
    row, col = np.nonzero(dist <= np.partition(dist, j, axis=0)[j])
    merged = [np.concatenate(pair) for pair in zip(nearest, (col, dist[row, col], row + start))]
    order = np.lexsort(merged[::-1])
    col, dist, row = (a[order] for a in merged)
    keep = np.arange(col.size) - np.searchsorted(col, col) < k
    return col[keep], dist[keep], row[keep]


def kept_rows(X, sample):
    """Sorted bytes of the majority rows a sample kept."""
    Xr, yr = sample
    return sorted(Xr[i].tobytes() for i in range(len(yr)) if yr[i] == 0)


class TestSharedPass:
    """nearmiss_resample draws several NearMiss samplers with one k in one
    walk over the distance blocks."""

    @pytest.fixture(params=[1, 3, 3072], ids=["block1", "block3", "block3072"])
    def block_rows(self, request, monkeypatch):
        monkeypatch.setattr(resample, "BLOCK_ROWS", request.param)
        return request.param

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_merge_equals_the_partition_merge_on_ties(self, block_rows, k):
        # Three integer coordinates in {0, 1, 2}: a column's distances take
        # at most ten values, so nearly every kth distance is tied.
        rng = np.random.default_rng(block_rows + k)
        A = rng.integers(0, 3, size=(2 * block_rows + 400, 3)).astype(float)
        B = rng.integers(0, 3, size=(40, 3)).astype(float)
        got = want = resample._NO_NEAREST
        for start, dist in resample._distance_blocks(A, B):
            got = resample._merge_nearest(got, start, dist, k)
            want = partition_merge(want, start, dist, k)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert got[0].size == k * len(B)

    def test_versions_and_ratios_match_the_oracles(self, block_rows):
        oracles = {1: nearmiss_v1_oracle, 2: nearmiss_v2_oracle, 3: nearmiss_v3_oracle}
        for case in range(30):
            rng = np.random.default_rng(3000 + case)
            n_pos, n_neg = int(rng.integers(3, 7)), int(rng.integers(6, 13))
            X = rng.integers(0, 3, size=(n_pos + n_neg, 2)).astype(float)
            y = np.array([1] * n_pos + [0] * n_neg)
            targets = (n_pos, n_neg // 2 * 2)
            samplers = [NearMiss(version=v, k=3, ratio=t / n_pos)
                        for t in targets for v in (3, 1, 2)]
            for sampler, sample in zip(samplers, nearmiss_resample(samplers, X, y)):
                target = round_half_away(sampler.ratio * n_pos)
                expected = oracles[sampler.version](X, y, k=3, target=target)
                if expected is None:
                    assert "shortlist" in str(sample), f"case {case}"
                else:
                    assert kept_rows(X, sample) == sorted(X[i].tobytes() for i in expected)

    def test_an_error_goes_to_its_own_sampler(self):
        rng = np.random.default_rng(9)
        X, y = random_imbalanced(rng, n_pos=4, n_neg=10, n_features=2)
        samplers = [NearMiss(version=1, k=3, ratio=3.0), NearMiss(version=2, k=3, ratio=1.0),
                    NearMiss(version=4, k=3)]
        over, ok, unknown = nearmiss_resample(samplers, X, y)
        assert str(over) == "target 12 exceeds majority count 10"
        assert kept_rows(X, ok) == kept_rows(X, samplers[1].fit_resample(X, y))
        assert str(unknown) == "unknown NearMiss version 4"
        with pytest.raises(ValueError, match=r"need one k, got \[3, 2\]"):
            nearmiss_resample([samplers[1], NearMiss(version=1, k=2)], X, y)

    def test_one_walk_for_every_version(self, monkeypatch):
        walks = []
        real_distance_blocks = resample._distance_blocks

        def distance_blocks(*args):
            walks.append(len(args[1]))
            return real_distance_blocks(*args)

        monkeypatch.setattr(resample, "_distance_blocks", distance_blocks)
        rng = np.random.default_rng(10)
        X, y = random_imbalanced(rng, n_pos=20, n_neg=200, n_features=4)
        samplers = [NearMiss(version=v, k=3) for v in (1, 2, 3)]
        shared = nearmiss_resample(samplers, X, y)
        assert walks == [20]
        for sampler, sample in zip(samplers, shared):
            assert all(np.array_equal(a, b) for a, b in zip(sample, sampler.fit_resample(X, y)))
        assert walks == [20] * 4


class TestSmote:
    def test_segment_between_two_points(self):
        # with two minority rows and k=1 every synthetic point lies on
        # the segment from (0,0) to (2,2), i.e. equals (2t, 2t)
        X = np.array([[0.0, 0.0], [2.0, 2.0], [9.0, 9.0]])
        y = np.array([1, 1, 0])
        Xr, yr = Smote(ratio=3.0, k=1, seed=0).fit_resample(X, y)
        syn = Xr[3]
        assert syn[0] == pytest.approx(syn[1], abs=1e-12)
        assert 0.0 <= syn[0] <= 2.0
        # The rows are the reference's bit for bit, so its provenance is theirs.
        X_ref, _, prov = ref_smote(X, y, 3.0, 1, 0)
        assert Xr.tobytes() == X_ref.tobytes()
        (i, j, lam), = prov
        parent, nn = X[i], X[j]
        expected = parent + lam * (nn - parent)
        assert np.allclose(syn, expected, atol=1e-12)

    def test_count_arithmetic(self):
        rng = np.random.default_rng(9)
        X, y = random_imbalanced(rng, n_pos=50, n_neg=1000, n_features=3)
        Xr, yr = Smote(ratio=0.5, k=5, seed=1).fit_resample(X, y)
        assert int((yr == 1).sum()) == 500
        assert int((yr == 0).sum()) == 1000
        assert len(yr) == 1500

    def test_originals_preserved_and_segments(self):
        rng = np.random.default_rng(10)
        X, y = random_imbalanced(rng, n_pos=20, n_neg=60, n_features=4)
        Xr, yr = Smote(ratio=1.0, k=3, seed=2).fit_resample(X, y)
        assert np.array_equal(Xr[: len(y)], X)
        X_ref, _, prov = ref_smote(X, y, 1.0, 3, 2)
        assert Xr.tobytes() == X_ref.tobytes()
        parents, nns, lam = (np.array(v) for v in zip(*prov))
        points, parent, nn = Xr[len(y):], X[parents], X[nns]
        assert np.all((0.0 <= lam) & (lam <= 1.0))
        assert np.allclose(points, parent + lam[:, None] * (nn - parent), atol=1e-12)
        # convex-hull bound per coordinate
        assert np.all(points >= np.minimum(parent, nn) - 1e-12)
        assert np.all(points <= np.maximum(parent, nn) + 1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        X, y = random_imbalanced(rng, n_pos=10, n_neg=40, n_features=2)
        a = Smote(ratio=1.0, k=3, seed=5).fit_resample(X, y)
        b = Smote(ratio=1.0, k=3, seed=5).fit_resample(X, y)
        assert np.array_equal(a[0], b[0])

    def test_k_too_large(self):
        rng = np.random.default_rng(12)
        X, y = random_imbalanced(rng, n_pos=4, n_neg=10, n_features=2)
        with pytest.raises(ValueError):
            Smote(ratio=1.0, k=4).fit_resample(X, y)

    def test_ratio_below_current(self):
        rng = np.random.default_rng(13)
        X, y = random_imbalanced(rng, n_pos=50, n_neg=60, n_features=2)
        with pytest.raises(ValueError):
            Smote(ratio=0.1, k=3).fit_resample(X, y)


@pytest.mark.parametrize(
    "make",
    [
        lambda **kw: RandomUnderSampler(**kw),
        lambda **kw: NearMiss(version=1, **kw),
        lambda **kw: Smote(**kw),
    ],
    ids=["rus", "nearmiss", "smote"],
)
@pytest.mark.parametrize("ratio", [0.0, -2.0, math.inf, math.nan])
def test_ratio_must_be_finite_and_positive(make, ratio):
    rng = np.random.default_rng(15)
    X, y = random_imbalanced(rng, n_pos=10, n_neg=40, n_features=2)
    with pytest.raises(ValueError, match="ratio must be finite and > 0"):
        make(ratio=ratio).fit_resample(X, y)


@pytest.mark.parametrize("sampler", [NearMiss(version=1, k=0), Smote(k=0), NearMiss(version=3, k=-1)])
def test_k_must_be_positive(sampler):
    rng = np.random.default_rng(16)
    X, y = random_imbalanced(rng, n_pos=10, n_neg=40, n_features=2)
    with pytest.raises(ValueError, match="k must be >= 1"):
        sampler.fit_resample(X, y)


class TestSamplerConfig:
    def test_builds_each_method(self):
        assert SamplerConfig("none").build() is None
        assert isinstance(SamplerConfig("rus").build(), RandomUnderSampler)
        nm = SamplerConfig("nearmiss", nearmiss_version=2).build()
        assert isinstance(nm, NearMiss) and nm.version == 2 and nm.k == 3
        sm = SamplerConfig("smote").build()
        assert isinstance(sm, Smote) and sm.k == 5

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            SamplerConfig("oversample").build()
