import numpy as np
import pytest

from fraudkit import experiments
from fraudkit.synth import SyntheticSpec, gen_synthetic


@pytest.fixture
def scribbling_models(monkeypatch):
    """Make every model the grid builds write into its training rows before it fits."""
    real_make_model = experiments.make_model

    def make_model(kind, **params):
        model = real_make_model(kind, **params)
        fit = model.fit

        def fit_in_place(X, y, *args):
            X[0, 0] = 123.0
            return fit(X, y, *args)

        model.fit = fit_in_place
        return model

    monkeypatch.setattr(experiments, "make_model", make_model)


@pytest.fixture
def tiny_csv(tmp_path):
    """6-row dataset with a categorical column and one missing cell."""
    path = tmp_path / "tiny.csv"
    path.write_text(
        "amount,country,declined,Class\n"
        "10.5,AU,N,0\n"
        "200.0,US,Y,1\n"
        "13.25,AU,N,0\n"
        "5.0,FR,N,0\n"
        ",AU,Y,1\n"
        "99.0,US,N,0\n"
    )
    return path


@pytest.fixture
def blobs():
    """Well-separated balanced synthetic set for quick training checks."""
    return gen_synthetic(
        SyntheticSpec(n_rows=600, n_features=6, fraud_fraction=0.5, separation=6.0, seed=7)
    )


def random_imbalanced(rng, n_pos, n_neg, n_features):
    X = rng.normal(size=(n_pos + n_neg, n_features))
    y = np.concatenate([np.ones(n_pos, dtype=np.int64), np.zeros(n_neg, dtype=np.int64)])
    order = rng.permutation(len(y))
    return X[order], y[order]
