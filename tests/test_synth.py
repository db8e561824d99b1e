import numpy as np
import pytest

from fraudkit.models import classify, make_model
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
