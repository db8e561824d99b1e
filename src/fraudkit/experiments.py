"""Experiment harness: plans, grid runs, and report emission.

A plan fixes a dataset source, preprocessing, a sampler grid, a model
grid, and seeds; running it produces one result cell per grid point,
each evaluated on the untouched validation and test partitions.
Scaling is fit on the training partition only and samplers see only
training rows (no leakage). Everything numeric is a pure function of
the plan plus its global seed.
"""

import concurrent.futures
import csv
import hashlib
import json
import math
import multiprocessing
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from fraudkit import base
from fraudkit.base import ConfigError
from fraudkit.ingest import infer_schema, load_csv
from fraudkit.metrics import evaluate_predictions, format_metric
from fraudkit.models import classify, make_model, save_bundle
from fraudkit.nn.network import TrainingError
from fraudkit.preprocess import StandardScaler, split
from fraudkit.resample import NearMiss, SamplerConfig, nearmiss_resample, round_half_away
from fraudkit.rng import derive_seed
from fraudkit.svg import bar_chart
from fraudkit.synth import SyntheticSpec, gen_synthetic
from fraudkit.trees import RandomForestClassifier

METRIC_NAMES = ("accuracy", "precision", "recall", "f1")
CSV_COLUMNS = ("dataset", "model", "sampler", "ratio", "partition") + METRIC_NAMES + ("status",)


@dataclass
class ModelSpec:
    kind: str
    params: dict = field(default_factory=dict)

    @property
    def name(self):
        return self.kind


@dataclass
class TrainConfig:
    lr: float = 0.001
    epochs_max: int = 100
    batch_size: int = 256
    patience: int = 5


@dataclass
class ExperimentPlan:
    name: str = "experiment"
    dataset_path: str | None = None  # csv source ...
    label: str = "Class"
    categorical: tuple = ()
    drop: tuple = ()
    synthetic: SyntheticSpec | None = None  # ... or synthetic source
    test_frac: float = 0.035
    val_frac: float = 0.2
    seed: int = 0
    threshold: float = 0.5
    jobs: int = 1
    models: list = field(default_factory=lambda: [ModelSpec("logreg")])
    samplers: list = field(default_factory=lambda: [SamplerConfig("none")])
    ratios: list = field(default_factory=lambda: [1, 2, 5, 10, 25, 50, 100])
    train: TrainConfig = field(default_factory=TrainConfig)
    output_dir: str = "out"

    def validate(self):
        if not self.models or not self.samplers or not self.ratios:
            raise ValueError("plan grids must be non-empty")
        # A repeat would run its cells twice and save both to one bundle file.
        for name, what, values in (
            ("models", "model kind", [m.kind for m in self.models]),
            ("samplers", "sampler cell", [_cell_names(s, None) for s in self.samplers]),
        ):
            for n, v in enumerate(values):
                if v in values[:n]:
                    raise ValueError(f"{name}: {what} {v!r} is listed twice")
        if self.dataset_path is None and self.synthetic is None:
            raise ValueError("plan needs a dataset path or a synthetic spec")
        if self.dataset_path is not None and not Path(self.dataset_path).exists():
            raise ConfigError(
                f"[dataset] path must name an existing file, got {self.dataset_path!r}"
            )

    @property
    def dataset_name(self):
        if self.dataset_path is not None:
            return Path(self.dataset_path).stem
        return "synthetic"


@dataclass
class Cell:
    dataset: str
    model: str
    sampler: str
    ratio: float
    partition: str
    report: object | None  # MetricReport, None when skipped
    status: str  # "ok" | "skipped: reason" | "failed: reason"
    seconds: float

    def to_row(self):
        m = self.report.to_dict() if self.report else {}
        return {c: m.get(c) if c in METRIC_NAMES else getattr(self, c) for c in CSV_COLUMNS}


@dataclass
class RunRecord:
    plan_hash: str
    cells: list = field(default_factory=list)
    histories: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "plan_hash": self.plan_hash,
            "cells": [{**c.to_row(), "seconds": c.seconds} for c in self.cells],
            "histories": self.histories,
        }


@dataclass
class Prepared:
    """Standardized partitions; scaler statistics come from train rows only."""

    name: str
    X_train: np.ndarray
    y_train: np.ndarray
    X_val: np.ndarray
    y_val: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    scaler: StandardScaler
    features: list  # feature column names, in matrix order
    categories: dict  # categorical feature name -> categories in code order


def load_dataset(plan):
    if plan.synthetic is not None:
        return gen_synthetic(plan.synthetic)
    schema = infer_schema(
        plan.dataset_path, plan.label, categorical=plan.categorical, drop=plan.drop
    )
    return load_csv(plan.dataset_path, schema)


def prepare(plan, ds=None):
    """Split, then standardize all partitions with train-fitted statistics.

    The training rows are gathered once, for both the fit and the
    transform: beyond its output the call holds at most that one copy.
    """
    if ds is None:
        ds = load_dataset(plan)
    idx = split(
        ds.n_rows, plan.test_frac, plan.val_frac, seed=derive_seed(plan.seed, "split")
    )
    X, y = ds.features, ds.labels
    X_train = X[idx.train]
    scaler = StandardScaler().fit(X_train)
    X_train = scaler.transform(X_train)
    return Prepared(
        name=plan.dataset_name,
        X_train=X_train,
        y_train=y[idx.train],
        X_val=scaler.transform(X[idx.validation]),
        y_val=y[idx.validation],
        X_test=scaler.transform(X[idx.test]),
        y_test=y[idx.test],
        scaler=scaler,
        features=ds.feature_names,
        categories={c.name: c.categories for c in ds.schema if c.kind == "categorical"},
    )


def _plan_hash(plan):
    """Hash of every plan field that decides the cells (not jobs or output_dir)."""
    blob = repr(replace(plan, jobs=1, output_dir="")).encode()
    return hashlib.sha256(blob).hexdigest()


def _cell_seed(plan, model_name, sampler_name, ratio):
    return derive_seed(plan.seed, f"cell/{plan.dataset_name}/{model_name}/{sampler_name}/{ratio}")


def _cell_names(sampler_cfg, ratio):
    """(sampler name, ratio label) that name a grid cell."""
    method = sampler_cfg.method
    name = f"nearmiss{sampler_cfg.nearmiss_version}" if method == "nearmiss" else method
    return name, ratio if ratio is not None else sampler_cfg.ratio


def _cell_sampler(plan, model_spec, sampler_cfg, ratio):
    """The sampler a grid cell runs (None for method none), seeded for
    that cell. `ratio` is only a display label (e.g. the pre-cap sweep
    ratio); the sampler always uses the ratio carried by its config."""
    seed = _cell_seed(plan, model_spec.name, *_cell_names(sampler_cfg, ratio))
    return replace(sampler_cfg, seed=derive_seed(seed, "sampler")).build()


def _resample(prepared, sampler):
    """(X_fit, y_fit) that a sampler (or None) makes of the training rows."""
    if sampler is None:
        return prepared.X_train, prepared.y_train
    return sampler.fit_resample(prepared.X_train, prepared.y_train)


def run_cell(prepared, plan, model_spec, sampler_cfg, ratio=None, model_path=None, sample=None):
    """Train one grid cell and evaluate it on validation and test.

    Precondition violations (unsuitable model shape, unreachable sampler
    target) become skipped cells, and numeric breakdowns (a TrainingError
    or FloatingPointError) and allocations that fail (a MemoryError)
    failed cells, never grid aborts. An ok cell
    saves its bundle to model_path when one is given. sample, when
    given, is what the cell's sampler returned, (X_fit, y_fit), or the
    error it raised; cells that share it time only their own work.
    Returns (cells, history-or-None).
    """
    sampler_name, ratio_label = _cell_names(sampler_cfg, ratio)
    seed = _cell_seed(plan, model_spec.name, sampler_name, ratio_label)
    started = time.perf_counter()

    def ended(status):
        elapsed = time.perf_counter() - started
        return [
            Cell(prepared.name, model_spec.name, sampler_name, ratio_label, part, None,
                 status, elapsed)
            for part in ("validation", "test")
        ], None

    try:
        if sample is None:
            sample = _resample(prepared, _cell_sampler(plan, model_spec, sampler_cfg, ratio))
        if isinstance(sample, Exception):
            raise sample
        X_fit, y_fit = sample
        model = make_model(
            model_spec.kind,
            lr=plan.train.lr,
            epochs_max=plan.train.epochs_max,
            batch_size=plan.train.batch_size,
            patience=plan.train.patience,
            seed=derive_seed(seed, "model"),
            **model_spec.params,
        )
        if hasattr(model, "history_"):
            model.fit(X_fit, y_fit, prepared.X_val, prepared.y_val)
        else:
            model.fit(X_fit, y_fit)
        cells = []
        for part, X_eval, y_eval in (
            ("validation", prepared.X_val, prepared.y_val),
            ("test", prepared.X_test, prepared.y_test),
        ):
            report = evaluate_predictions(y_eval, classify(model, X_eval, plan.threshold))
            cells.append(
                Cell(prepared.name, model_spec.name, sampler_name, ratio_label, part,
                     report, "ok", time.perf_counter() - started)
            )
    except ValueError as exc:
        return ended(f"skipped: {exc}")
    except (TrainingError, FloatingPointError, MemoryError) as exc:
        return ended(f"failed: {exc}")

    if model_path is not None:
        Path(model_path).parent.mkdir(parents=True, exist_ok=True)
        save_bundle(model_path, model, prepared.scaler, plan.threshold, prepared.features,
                    prepared.categories)
    history = model.history_.to_dict() if getattr(model, "history_", None) else None
    return cells, history


def sweep_ratios_ok(ratios):
    """Sweep ratios must be finite, at least 1 and strictly ascending."""
    in_range = all(1 <= r < math.inf for r in ratios)
    return in_range and all(a < b for a, b in zip(ratios, ratios[1:]))


def imbalance_points(plan, prepared):
    """Grid points of the imbalance sweep: the plan's first model on the
    training partition random-under-sampled to each of plan.ratios.
    A ratio beyond the majority count is capped; its cells keep the
    requested ratio as their label."""
    ratios = list(plan.ratios)
    if not sweep_ratios_ok(ratios):
        raise ValueError("ratios must be finite, >= 1 and strictly ascending")
    n_pos = int(np.sum(prepared.y_train == 1))
    n_neg = int(np.sum(prepared.y_train == 0))
    points = []
    for r in ratios:
        capped = r if round_half_away(r * n_pos) <= n_neg else n_neg / n_pos
        points.append((plan.models[0], SamplerConfig(method="rus", ratio=capped), r))
    return points


_worker_state = None  # (prepared, plan, model_dir) of a forked grid worker


def _init_worker(prepared, plan, model_dir):
    """Process pool initializer. Under fork the arguments are inherited
    through copy-on-write memory, not pickled."""
    global _worker_state
    _worker_state = (prepared, plan, model_dir)


def _work(points, state=None):
    """Run grid points; state is (prepared, plan, model_dir), by default
    the one this worker was started with.

    Several points are NearMiss points with one k (_share_groups): each
    distinct sampler among them is drawn once, all in one distance pass.
    A sample is read-only, so a model that writes into its training rows
    fails instead of changing the next cell's rows. A sampler's
    ValueError goes to its own cells. Returns each point's (cells, history).
    """
    prepared, plan, model_dir = state or _worker_state
    samples = [None] * len(points)
    if len(points) > 1:
        samplers = [_cell_sampler(plan, *point) for point in points]
        distinct = {repr(s): s for s in samplers}
        try:
            drawn = nearmiss_resample(list(distinct.values()), prepared.X_train, prepared.y_train)
        except (ValueError, FloatingPointError, MemoryError) as exc:
            drawn = [exc] * len(distinct)  # each cell reports it
        drawn = dict(zip(distinct, drawn))
        for sample in drawn.values():
            for array in () if isinstance(sample, Exception) else sample:
                array.flags.writeable = False
        samples = [drawn[repr(s)] for s in samplers]
    results = []
    for (model_spec, sampler_cfg, ratio), sample in zip(points, samples):
        sampler_name, ratio_label = _cell_names(sampler_cfg, ratio)
        path = model_dir / f"{prepared.name}__{model_spec.name}__{sampler_name}__{ratio_label}.model"
        results.append(run_cell(prepared, plan, model_spec, sampler_cfg, ratio, path, sample))
    return results


def _share_groups(plan, points):
    """Point indices, grouped into tasks. NearMiss takes no seed and its
    versions share one distance pass, so all NearMiss points with one k
    are one task, across models, versions and ratios. Every other point
    is a task alone: its sampler is seeded per cell."""
    groups = {}
    for i, (model_spec, sampler_cfg, ratio) in enumerate(points):
        try:
            sampler = _cell_sampler(plan, model_spec, sampler_cfg, ratio)
        except ValueError:
            sampler = None  # run_cell reports it
        key = ("nearmiss", sampler.k) if isinstance(sampler, NearMiss) else i
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _expected_cost(point, n_pos, n_neg):
    """A point's relative expected cost: the rows its sampler returns
    times the trees its model grows. It only orders the work."""
    model_spec, cfg, _ = point
    if cfg.method in ("rus", "nearmiss"):
        rows = n_pos + min(cfg.ratio * n_pos, n_neg)
    elif cfg.method == "smote":
        rows = n_neg + cfg.ratio * n_neg
    else:
        rows = n_pos + n_neg
    if model_spec.kind == "forest":
        return rows * model_spec.params.get("n_trees", RandomForestClassifier().n_trees)
    return rows


def run_experiment(plan, prepared=None, points=None):
    """Run grid points and assemble their cells in point order.

    points are (model_spec, sampler_cfg, ratio label or None) triples;
    the default is every model against every sampler config. Each ok
    cell saves its bundle in <output_dir>/models/.

    NearMiss points with one k run as one task that draws each of their
    samplers once, in one distance pass: NearMiss takes no seed, so every
    model gets the same NearMiss rows. The seconds of such cells exclude
    the shared pass. Other points, those without a sampler included, are
    one task each.

    With plan.jobs > 1 the tasks run in up to jobs forked worker
    processes (no more than the CPUs this process may use), longest
    expected first. Every cell derives its seeds from the plan and the
    workers inherit the parent's data and BLAS settings, so the cells
    and bundles are those of jobs = 1. Each worker runs its own BLAS
    threads, so jobs times the BLAS thread count can oversubscribe the
    CPUs. Where fork is not available the tasks run in this process.
    """
    plan.validate()
    if prepared is None:
        prepared = prepare(plan)
    if points is None:
        points = [(m, s, None) for m in plan.models for s in plan.samplers]
    state = (prepared, plan, Path(plan.output_dir) / "models")
    record = RunRecord(plan_hash=_plan_hash(plan))
    groups = _share_groups(plan, points)

    workers = min(plan.jobs, base.usable_cpus(), len(groups))
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        n_pos = int(np.sum(prepared.y_train == 1))
        n_neg = len(prepared.y_train) - n_pos
        groups.sort(key=lambda g: -sum(_expected_cost(points[i], n_pos, n_neg) for i in g))
        pool = concurrent.futures.ProcessPoolExecutor(
            workers, multiprocessing.get_context("fork"), _init_worker, state
        )
        try:
            futures = [pool.submit(_work, [points[i] for i in g]) for g in groups]
            outputs = [future.result() for future in futures]
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        outputs = [_work([points[i] for i in g], state) for g in groups]
    results = [None] * len(points)
    for group, output in zip(groups, outputs):
        for i, result in zip(group, output):
            results[i] = result

    for (model_spec, _, _), (cells, history) in zip(points, results):
        record.cells.extend(cells)
        if history is not None:
            record.histories[f"{model_spec.name}/{cells[0].sampler}/{cells[0].ratio}"] = history
    return record


def emit_report(record, output_dir, chart_name="experiment"):
    """Write record.json, cells.csv, timings.csv and, per partition with
    an ok cell, a grouped-bar chart in charts/.

    Wall-clock seconds live in record.json/timings.csv only, so
    cells.csv is byte-identical across reruns of a seeded plan. A field
    that holds a comma, as a status may, is quoted.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "record.json").write_text(json.dumps(record.to_dict(), indent=2) + "\n")
    cell_rows = [CSV_COLUMNS]
    for cell in record.cells:
        row = cell.to_row()
        cell_rows.append([
            format_metric(row[c]) if c in METRIC_NAMES else str(row[c]) for c in CSV_COLUMNS
        ])
    timing_rows = [("dataset", "model", "sampler", "ratio", "partition", "seconds")]
    timing_rows += [
        (c.dataset, c.model, c.sampler, str(c.ratio), c.partition, f"{c.seconds:.6f}")
        for c in record.cells
    ]
    for name, rows in (("cells.csv", cell_rows), ("timings.csv", timing_rows)):
        with open(out / name, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    charts = out / "charts"
    charts.mkdir(exist_ok=True)
    for partition in ("validation", "test"):
        cells = [c for c in record.cells if c.partition == partition and c.status == "ok"]
        if not cells:
            continue
        groups = [
            (
                f"{c.model}/{c.sampler}@{c.ratio:g}",
                {m: getattr(c.report, m) for m in METRIC_NAMES},
            )
            for c in cells
        ]
        path = charts / f"{chart_name}_{partition}.svg"
        path.write_text(bar_chart(groups, title=f"{chart_name} ({partition} data)"))
