import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from fraudkit.experiments import (
    CSV_COLUMNS,
    ExperimentPlan,
    ModelSpec,
    TrainConfig,
    _plan_hash,
    emit_report,
    imbalance_points,
    load_dataset,
    prepare,
    run_experiment,
)
from fraudkit.metrics import evaluate_predictions
from fraudkit.models import classify, make_model
from fraudkit.preprocess import StandardScaler, split
from fraudkit.resample import RandomUnderSampler, SamplerConfig
from fraudkit.rng import derive_seed
from fraudkit.synth import SyntheticSpec


def small_plan(tmp_path, **kwargs):
    defaults = dict(
        synthetic=SyntheticSpec(
            n_rows=400, n_features=6, fraud_fraction=0.2, separation=4.0, seed=11
        ),
        models=[ModelSpec("logreg")],
        samplers=[SamplerConfig("none")],
        train=TrainConfig(epochs_max=5),
        seed=3,
        output_dir=str(tmp_path / "out"),
    )
    defaults.update(kwargs)
    return ExperimentPlan(**defaults)


def sweep(plan):
    """The imbalance sweep through the grid runner."""
    prepared = prepare(plan)
    return run_experiment(plan, prepared, imbalance_points(plan, prepared))


def ref_prepare(plan, ds):
    """(X, y) of each partition as prepare built them with two gathers of
    the training rows, one to fit and one to transform."""
    idx = split(ds.n_rows, plan.test_frac, plan.val_frac, seed=derive_seed(plan.seed, "split"))
    X, y = ds.features, ds.labels
    scaler = StandardScaler().fit(X[idx.train])
    return [(scaler.transform(X[rows]), y[rows]) for rows in (idx.train, idx.validation, idx.test)]


class TestPrepare:
    def test_partitions_match_the_two_gather_form_bit_for_bit(self, tmp_path):
        plan = small_plan(tmp_path, synthetic=SyntheticSpec(n_rows=5000, n_features=9, seed=4))
        ds = load_dataset(plan)
        prepared = prepare(plan, ds)
        got = [(prepared.X_train, prepared.y_train), (prepared.X_val, prepared.y_val),
               (prepared.X_test, prepared.y_test)]
        for (X, y), (X_ref, y_ref) in zip(got, ref_prepare(plan, ds)):
            assert X.tobytes() == X_ref.tobytes() and X.shape == X_ref.shape
            assert np.array_equal(y, y_ref)

    def test_partition_sizes(self, tmp_path):
        plan = small_plan(tmp_path)
        prepared = prepare(plan)
        n_test = int(0.035 * 400)
        n_val = int(0.2 * (400 - n_test))
        assert len(prepared.y_test) == n_test
        assert len(prepared.y_val) == n_val
        assert len(prepared.y_train) == 400 - n_test - n_val

    def test_scaler_sees_train_rows_only(self, tmp_path, monkeypatch):
        calls = []

        class RecordingScaler(StandardScaler):
            def fit(self, X):
                calls.append(np.asarray(X, dtype=np.float64).copy())
                return super().fit(X)

        monkeypatch.setattr("fraudkit.experiments.StandardScaler", RecordingScaler)
        plan = small_plan(tmp_path)
        prepared = prepare(plan)
        assert len(calls) == 1
        assert calls[0].shape[0] == len(prepared.y_train)

    def test_train_partition_standardized(self, tmp_path):
        prepared = prepare(small_plan(tmp_path))
        assert np.all(np.abs(prepared.X_train.mean(axis=0)) < 1e-10)
        assert np.all(np.abs(prepared.X_train.std(axis=0) - 1.0) < 1e-10)


class TestRunGrid:
    def test_skip_does_not_abort_siblings(self, tmp_path):
        plan = small_plan(tmp_path, models=[ModelSpec("cnn2d"), ModelSpec("logreg")])
        record = run_experiment(plan)
        by_model = {}
        for cell in record.cells:
            by_model.setdefault(cell.model, []).append(cell)
        assert all("not reshapeable to 5x6" in c.status for c in by_model["cnn2d"])
        assert all(c.status == "ok" for c in by_model["logreg"])
        assert all(c.report is None for c in by_model["cnn2d"])

    def test_unreachable_sampler_target_skips(self, tmp_path):
        plan = small_plan(tmp_path, samplers=[SamplerConfig("rus", ratio=50.0)])
        record = run_experiment(plan)
        assert all(c.status.startswith("skipped:") for c in record.cells)

    def test_sampler_sees_train_rows_only(self, tmp_path, monkeypatch):
        seen = []
        orig = RandomUnderSampler.fit_resample

        def spy(self, X, y):
            seen.append(len(y))
            return orig(self, X, y)

        monkeypatch.setattr(RandomUnderSampler, "fit_resample", spy)
        plan = small_plan(tmp_path, samplers=[SamplerConfig("rus", ratio=1.0)])
        prepared = prepare(plan)
        run_experiment(plan, prepared=prepared)
        assert seen == [len(prepared.y_train)]

    def test_none_sampler_matches_direct_fit(self, tmp_path):
        plan = small_plan(tmp_path)
        prepared = prepare(plan)
        record = run_experiment(plan, prepared=prepared)
        cell_seed = derive_seed(plan.seed, "cell/synthetic/logreg/none/1.0")
        model = make_model(
            "logreg",
            lr=plan.train.lr,
            epochs_max=plan.train.epochs_max,
            batch_size=plan.train.batch_size,
            patience=plan.train.patience,
            seed=derive_seed(cell_seed, "model"),
        )
        model.fit(prepared.X_train, prepared.y_train, prepared.X_val, prepared.y_val)
        direct = evaluate_predictions(
            prepared.y_test, classify(model, prepared.X_test, plan.threshold)
        )
        test_cell = next(c for c in record.cells if c.partition == "test")
        assert test_cell.report == direct

    def test_none_cell_cannot_write_the_training_rows(self, tmp_path, scribbling_models):
        # A model that writes into its rows would change every later cell's.
        plan = small_plan(tmp_path, models=[ModelSpec("dtree"), ModelSpec("logreg")],
                          samplers=[SamplerConfig("none"), SamplerConfig("rus")])
        prepared = prepare(plan)
        before = prepared.X_train.copy()
        statuses = {c.status for c in run_experiment(plan, prepared).cells}
        assert statuses == {"skipped: assignment destination is read-only"}
        assert np.array_equal(prepared.X_train, before)

    def test_deterministic_cells(self, tmp_path):
        rows = []
        for _ in range(2):
            plan = small_plan(tmp_path, samplers=[SamplerConfig("rus"), SamplerConfig("none")])
            record = run_experiment(plan)
            rows.append([c.to_row() for c in record.cells])
        assert rows[0] == rows[1]

    def test_jobs_do_not_change_results(self, tmp_path):
        serial = run_experiment(
            small_plan(tmp_path, samplers=[SamplerConfig("none"), SamplerConfig("rus")], jobs=1)
        )
        threaded = run_experiment(
            small_plan(tmp_path, samplers=[SamplerConfig("none"), SamplerConfig("rus")], jobs=4)
        )
        assert [c.to_row() for c in serial.cells] == [c.to_row() for c in threaded.cells]

    def test_run_experiment_saves_models(self, tmp_path):
        plan = small_plan(tmp_path, models=[ModelSpec("logreg"), ModelSpec("dtree")])
        run_experiment(plan)
        saved = list((tmp_path / "out" / "models").glob("*.model"))
        assert len(saved) == 2

    def test_histories_recorded_for_networks(self, tmp_path):
        record = run_experiment(small_plan(tmp_path))
        assert len(record.histories) == 1
        (history,) = record.histories.values()
        assert len(history["train_loss"]) >= 1


class TestSweep:
    def test_ratio_capping(self, tmp_path):
        plan = small_plan(tmp_path, ratios=[1, 100])
        record = sweep(plan)
        assert all(c.status == "ok" for c in record.cells)
        labels = sorted({c.ratio for c in record.cells})
        assert labels == [1, 100]  # label keeps the requested ratio

    def test_ratios_must_ascend(self, tmp_path):
        with pytest.raises(ValueError):
            sweep(small_plan(tmp_path, ratios=[2, 1]))

    def test_ratios_must_be_at_least_one(self, tmp_path):
        with pytest.raises(ValueError):
            sweep(small_plan(tmp_path, ratios=[0.5, 1]))

    def test_recall_degrades_with_imbalance(self, tmp_path):
        plan = small_plan(
            tmp_path,
            synthetic=SyntheticSpec(
                n_rows=3000, n_features=6, fraud_fraction=0.05, separation=2.0, seed=1
            ),
            train=TrainConfig(epochs_max=20, lr=0.05),
            ratios=[1, 10],
        )
        record = sweep(plan)
        recalls = {
            c.ratio: c.report.recall
            for c in record.cells
            if c.partition == "test" and c.status == "ok"
        }
        assert recalls[1] > recalls[10]


class TestPlanHash:
    def test_stable_and_seed_sensitive(self, tmp_path):
        a = _plan_hash(small_plan(tmp_path))
        b = _plan_hash(small_plan(tmp_path))
        c = _plan_hash(small_plan(tmp_path, seed=4))
        assert a == b
        assert a != c

    def test_validate_rejects_empty_grid(self, tmp_path):
        plan = small_plan(tmp_path, models=[])
        with pytest.raises(ValueError):
            plan.validate()

    @pytest.mark.parametrize("grid, message", [
        ({"models": [ModelSpec("dtree"), ModelSpec("logreg"), ModelSpec("dtree", {"max_depth": 3})]},
         "models: model kind 'dtree' is listed twice"),
        ({"samplers": [SamplerConfig("rus"), SamplerConfig("rus", seed=5)]},
         r"samplers: sampler cell \('rus', 1.0\) is listed twice"),
        ({"samplers": [SamplerConfig("nearmiss", 2, ratio=2.0),
                       SamplerConfig("nearmiss", 2, k_neighbors=3, ratio=2.0)]},
         r"samplers: sampler cell \('nearmiss2', 2.0\) is listed twice"),
    ])
    def test_validate_rejects_repeated_cells(self, tmp_path, grid, message):
        with pytest.raises(ValueError, match=message):
            small_plan(tmp_path, **grid).validate()

    def test_validate_keeps_distinct_cells(self, tmp_path):
        small_plan(tmp_path, samplers=[
            SamplerConfig("nearmiss", 1), SamplerConfig("nearmiss", 2),
            SamplerConfig("rus"), SamplerConfig("rus", ratio=2.0),
        ]).validate()

    @pytest.mark.parametrize("grid, message", [
        ({"models": [ModelSpec("logreg"), ModelSpec("bogus")]},
         "models: model kind 'bogus' is not one of cnn2d, cnn1d, lstm, logreg, dtree, forest"),
        ({"samplers": [SamplerConfig("rus"), SamplerConfig("bogus")]},
         "samplers: method 'bogus' is not one of none, rus, nearmiss, smote"),
    ], ids=["model-kind", "sampler-method"])
    def test_unknown_kind_or_method_fails_before_any_cell(self, tmp_path, grid, message):
        # A plan built in code used to run, every such cell skipped.
        plan = small_plan(tmp_path, **grid)
        for call in (plan.validate, lambda: run_experiment(plan)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message
        assert not (tmp_path / "out").exists()

    def test_validate_needs_source(self, tmp_path):
        plan = small_plan(tmp_path, synthetic=None)
        with pytest.raises(ValueError):
            plan.validate()


class TestEmitReport:
    @pytest.fixture
    def record(self, tmp_path):
        plan = small_plan(tmp_path, models=[ModelSpec("logreg"), ModelSpec("cnn2d")])
        return run_experiment(plan)

    def test_csv_shape_and_undef(self, record, tmp_path):
        emit_report(record, tmp_path / "rep")
        lines = (tmp_path / "rep" / "cells.csv").read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(record.cells)
        skipped = [l for l in lines[1:] if "skipped" in l]
        assert skipped and all("undef" in l for l in skipped)

    def test_json_round_trip(self, record, tmp_path):
        emit_report(record, tmp_path / "rep")
        payload = json.loads((tmp_path / "rep" / "record.json").read_text())
        assert payload["plan_hash"] == record.plan_hash
        assert len(payload["cells"]) == len(record.cells)
        assert all("seconds" in c for c in payload["cells"])

    def test_timings_separate_from_cells(self, record, tmp_path):
        emit_report(record, tmp_path / "rep")
        cells_text = (tmp_path / "rep" / "cells.csv").read_text()
        timings = (tmp_path / "rep" / "timings.csv").read_text().strip().split("\n")
        assert "seconds" not in cells_text
        assert timings[0].endswith("seconds")
        assert len(timings) == 1 + len(record.cells)

    def test_svg_well_formed_with_one_bar_per_metric(self, record, tmp_path):
        emit_report(record, tmp_path / "rep", chart_name="grid")
        for partition in ("validation", "test"):
            path = tmp_path / "rep" / "charts" / f"grid_{partition}.svg"
            root = ET.fromstring(path.read_text())
            bars = [
                el
                for el in root.iter("{http://www.w3.org/2000/svg}rect")
                if "bar" in el.get("class", "")
            ]
            n_ok = sum(1 for c in record.cells if c.partition == partition and c.status == "ok")
            assert len(bars) == n_ok * 4
