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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from fraudkit import base
from fraudkit.base import ConfigError, check_kind
from fraudkit.ingest import infer_schema, load_csv
from fraudkit.metrics import evaluate_predictions, format_metric
from fraudkit.models import MODEL_KINDS, classify, make_model, save_bundle
from fraudkit.nn.network import TrainingError
from fraudkit.preprocess import StandardScaler, split
from fraudkit.resample import SAMPLER_METHODS, SamplerConfig, draw, passes, round_half_away
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
        for m in self.models:
            check_kind(m.kind, MODEL_KINDS, "models: model kind")
        for s in self.samplers:
            check_kind(s.method, SAMPLER_METHODS, "samplers: method")
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
        if self.dataset_path is not None and not Path(self.dataset_path).is_file():
            raise ConfigError(f"[dataset] path must name a regular file, got {self.dataset_path!r}")

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
    Every partition is read-only, as a Dataset's arrays are.
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
    parts = (X_train, y[idx.train], scaler.transform(X[idx.validation]), y[idx.validation],
             scaler.transform(X[idx.test]), y[idx.test])
    for part in parts:
        part.flags.writeable = False
    categories = {c.name: c.categories for c in ds.schema if c.kind == "categorical"}
    return Prepared(plan.dataset_name, *parts, scaler, ds.feature_names, categories)


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
    """The sampler a grid cell runs (None for method none) seeded for that
    cell. `ratio` is only a display label (e.g. the pre-cap sweep ratio);
    the sampler uses its config's."""
    seed = _cell_seed(plan, model_spec.kind, *_cell_names(sampler_cfg, ratio))
    return replace(sampler_cfg, seed=derive_seed(seed, "sampler")).build()


def run_cell(prepared, plan, model_spec, sampler_cfg, ratio=None, model_path=None, sample=None):
    """Train one grid cell and evaluate it on validation and test.

    sample is what resample.draw gave the cell's sampler, read-only (X_fit,
    y_fit) or its error; without one the cell draws it through that call.
    Precondition violations (unsuitable model shape, unreachable sampler
    target, a write into the sample) become skipped cells, and numeric
    breakdowns (a TrainingError or FloatingPointError) and failed
    allocations (a MemoryError) failed cells, never grid aborts. A cell's
    seconds cover its fit and scoring, never the draw. An ok cell saves its
    bundle to model_path when one is given. Returns (cells, history-or-None).
    """
    sampler_name, ratio_label = _cell_names(sampler_cfg, ratio)
    seed = _cell_seed(plan, model_spec.kind, sampler_name, ratio_label)
    if sample is None:
        (sample,) = draw([_cell_sampler(plan, model_spec, sampler_cfg, ratio)],
                         prepared.X_train, prepared.y_train)
    started = time.perf_counter()

    def ended(status):
        elapsed = time.perf_counter() - started
        return [
            Cell(prepared.name, model_spec.kind, sampler_name, ratio_label, part, None,
                 status, elapsed)
            for part in ("validation", "test")
        ], None

    try:
        if isinstance(sample, Exception):
            raise sample
        X_fit, y_fit = sample
        model = make_model(model_spec.kind, **asdict(plan.train), seed=derive_seed(seed, "model"),
                           **model_spec.params)
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
                Cell(prepared.name, model_spec.kind, sampler_name, ratio_label, part,
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


def _work(task, state=None):
    """Run a task's grid points, given as (point, sampler) pairs, drawing
    their samples in one resample.draw call; state is (prepared, plan,
    model_dir), by default the one this worker was started with. Returns
    each point's (cells, history)."""
    prepared, plan, model_dir = state or _worker_state
    samples = draw([sampler for _, sampler in task], prepared.X_train, prepared.y_train)
    results = []
    for ((model_spec, sampler_cfg, ratio), _), sample in zip(task, samples):
        sampler_name, ratio_label = _cell_names(sampler_cfg, ratio)
        path = model_dir / f"{prepared.name}__{model_spec.kind}__{sampler_name}__{ratio_label}.model"
        results.append(run_cell(prepared, plan, model_spec, sampler_cfg, ratio, path, sample))
    return results


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

    Each point's sampler is built once, here, and the tasks are the
    groups of resample.passes: the `nearmiss` points with one k are one
    task, drawn in one distance pass (that sampler takes no seed, so every
    model gets the same rows); any other point is a task alone.
    Tasks run longest expected first, with plan.jobs > 1 in up to jobs
    forked workers (at most base.fork_cpus()). Seeds derive from the plan
    and the workers inherit the parent's data and BLAS settings, so the
    cells and bundles are those of jobs = 1. Each worker runs its own BLAS
    threads, so jobs times the BLAS thread count can oversubscribe the CPUs.
    """
    plan.validate()
    if prepared is None:
        prepared = prepare(plan)
    if points is None:
        points = [(m, s, None) for m in plan.models for s in plan.samplers]
    state = (prepared, plan, Path(plan.output_dir) / "models")
    record = RunRecord(plan_hash=_plan_hash(plan))
    samplers = [_cell_sampler(plan, *point) for point in points]
    n_pos = int(np.sum(prepared.y_train == 1))
    n_neg = len(prepared.y_train) - n_pos
    groups = sorted(
        passes(samplers), key=lambda g: -sum(_expected_cost(points[i], n_pos, n_neg) for i in g)
    )
    tasks = [[(points[i], samplers[i]) for i in group] for group in groups]

    workers = min(plan.jobs, base.fork_cpus(), len(tasks))
    if workers > 1:
        pool = concurrent.futures.ProcessPoolExecutor(
            workers, multiprocessing.get_context("fork"), _init_worker, state
        )
        try:
            futures = [pool.submit(_work, task) for task in tasks]
            outputs = [future.result() for future in futures]
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        outputs = [_work(task, state) for task in tasks]
    results = {i: r for group, output in zip(groups, outputs) for i, r in zip(group, output)}
    for i, (model_spec, _, _) in enumerate(points):
        cells, history = results[i]
        record.cells.extend(cells)
        if history is not None:
            record.histories[f"{model_spec.kind}/{cells[0].sampler}/{cells[0].ratio}"] = history
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
