import numpy as np
import pytest

from fraudkit.models import classify, make_model
from fraudkit.resample import round_half_away
from fraudkit.rng import generator
from fraudkit.synth import SyntheticSpec, gen_synthetic


class TestSpecValidation:
    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            SyntheticSpec(fraud_fraction=0.0)
        with pytest.raises(ValueError):
            SyntheticSpec(fraud_fraction=1.0)

    def test_negative_separation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(separation=-1.0)

    @pytest.mark.parametrize("name", ["n_rows", "n_features"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_degenerate_sizes_name_the_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be at least 1, got {value}$"):
            SyntheticSpec(**{name: value})


class TestGeneration:
    def test_positive_count_rounds(self):
        ds = gen_synthetic(
            SyntheticSpec(n_rows=284807, n_features=2, fraud_fraction=0.00172, seed=0)
        )
        assert ds.n_pos == 490
        assert ds.n_rows == 284807

    def test_schema_names(self):
        ds = gen_synthetic(SyntheticSpec(n_rows=10, n_features=12, fraud_fraction=0.5))
        assert ds.feature_names[0] == "f00"
        assert ds.feature_names[-1] == "f11"
        assert ds.label_name == "is_fraud"

    def test_deterministic(self):
        spec = SyntheticSpec(n_rows=100, n_features=3, fraud_fraction=0.2, seed=5)
        a, b = gen_synthetic(spec), gen_synthetic(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a = gen_synthetic(SyntheticSpec(n_rows=100, n_features=3, seed=1))
        b = gen_synthetic(SyntheticSpec(n_rows=100, n_features=3, seed=2))
        assert not np.array_equal(a.features, b.features)

    def test_tiny_fraction_leaves_class_empty(self):
        with pytest.raises(ValueError):
            gen_synthetic(SyntheticSpec(n_rows=10, fraud_fraction=0.001))

    def test_class_mean_separation(self):
        spec = SyntheticSpec(n_rows=4000, n_features=5, fraud_fraction=0.5, separation=6.0, seed=3)
        ds = gen_synthetic(spec)
        mu_pos = ds.features[ds.labels == 1].mean(axis=0)
        mu_neg = ds.features[ds.labels == 0].mean(axis=0)
        assert np.linalg.norm(mu_pos - mu_neg) == pytest.approx(6.0, abs=0.25)

    def test_separable_is_learnable(self):
        spec = SyntheticSpec(n_rows=2000, n_features=4, fraud_fraction=0.5, separation=6.0, seed=4)
        ds = gen_synthetic(spec)
        clf = make_model("logreg", lr=0.05, epochs_max=40, seed=0)
        clf.fit(ds.features, ds.labels)
        assert np.mean(classify(clf, ds.features) == ds.labels) >= 0.99

    def test_zero_separation_has_no_signal(self):
        spec = SyntheticSpec(n_rows=2000, n_features=4, fraud_fraction=0.5, separation=0.0, seed=5)
        ds = gen_synthetic(spec)
        clf = make_model("logreg", lr=0.05, epochs_max=20, seed=0)
        clf.fit(ds.features, ds.labels)
        acc = np.mean(classify(clf, ds.features) == ds.labels)
        assert acc < 0.6


def two_step_draw(spec):
    """gen_synthetic's features as it drew them before drawing in place:
    each class drawn as a matrix of its own, then copied into X."""
    rng = generator(spec.seed)
    n_pos = round_half_away(spec.fraud_fraction * spec.n_rows)
    n_neg = spec.n_rows - n_pos
    direction = rng.normal(size=spec.n_features)
    direction /= np.linalg.norm(direction)
    X = np.empty((spec.n_rows, spec.n_features))
    X[:n_neg] = rng.normal(size=(n_neg, spec.n_features))
    X[n_neg:] = rng.normal(size=(n_pos, spec.n_features)) + spec.separation * direction
    return X[rng.permutation(spec.n_rows)]


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
@pytest.mark.parametrize(
    "n_rows, n_features, fraud_fraction",
    [(2, 1, 0.5), (3, 1, 0.5), (10, 30, 0.2), (1000, 7, 0.05), (4001, 30, 0.001727)],
)
def test_in_place_draw_equals_the_two_step_draw(seed, n_rows, n_features, fraud_fraction):
    spec = SyntheticSpec(n_rows=n_rows, n_features=n_features, fraud_fraction=fraud_fraction,
                         separation=4.0, seed=seed)
    got = gen_synthetic(spec).features
    assert got.tobytes() == two_step_draw(spec).tobytes()
