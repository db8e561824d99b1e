"""Grid cells in forked worker processes: same bytes at every jobs count,
longest tasks first, one task and one distance pass per NearMiss k, every
sample drawn once and read-only, and no worker left behind."""

import concurrent.futures
import csv
import multiprocessing
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fraudkit
from fraudkit import base, experiments, resample
from fraudkit.base import FraudkitError, NotFittedError
from fraudkit.config import ConfigError
from fraudkit.experiments import ExperimentPlan, ModelSpec, TrainConfig, emit_report, run_experiment
from fraudkit.ingest import ParseError, SchemaError
from fraudkit.models import MODEL_KINDS
from fraudkit.nn.network import TrainingError
from fraudkit.resample import SamplerConfig
from fraudkit.synth import SyntheticSpec

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)

# lr = 1e300 leaves logreg finite but drives cnn1d to a non-finite output
# (a failed cell); cnn2d cannot take 6 features (a skipped cell).
MIXED = dict(
    synthetic=SyntheticSpec(n_rows=400, n_features=6, fraud_fraction=0.2, separation=4.0, seed=11),
    models=[ModelSpec("logreg"), ModelSpec("cnn1d"), ModelSpec("cnn2d"), ModelSpec("dtree"),
            ModelSpec("forest", {"n_trees": 3})],
    samplers=[SamplerConfig("none"), SamplerConfig("rus")],
    train=TrainConfig(lr=1e300, epochs_max=3),
    seed=3,
)


def grid_bytes(out, jobs, **plan_args):
    """{file name: bytes} of cells.csv and every saved bundle of the mixed
    plan, with plan_args replacing its fields, run at jobs workers into out."""
    plan = ExperimentPlan(**{**MIXED, **plan_args}, jobs=jobs, output_dir=str(out))
    emit_report(run_experiment(plan), out)
    files = [out / "cells.csv", *sorted((out / "models").glob("*.model"))]
    return {p.name: p.read_bytes() for p in files}


class PoolSpy(concurrent.futures.ProcessPoolExecutor):
    """The process pool, recording its worker counts and submitted tasks,
    each as the list of its points' (model, sampler) names. A task is a
    list of (point, sampler) pairs."""

    workers = []
    submitted = []

    def __init__(self, max_workers, *args, **kwargs):
        PoolSpy.workers.append(max_workers)
        super().__init__(max_workers, *args, **kwargs)

    def submit(self, fn, task, *args, **kwargs):
        PoolSpy.submitted.append(
            [(m.name, experiments._cell_names(cfg, ratio)[0]) for (m, cfg, ratio), _ in task]
        )
        return super().submit(fn, task, *args, **kwargs)


@pytest.fixture
def pool_spy(monkeypatch):
    monkeypatch.setattr(PoolSpy, "workers", [])
    monkeypatch.setattr(PoolSpy, "submitted", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PoolSpy)
    monkeypatch.setattr(base, "usable_cpus", lambda: 4)
    return PoolSpy


def test_jobs_give_identical_cells_and_bundles(tmp_path, pool_spy):
    runs = {jobs: grid_bytes(tmp_path / f"jobs{jobs}", jobs) for jobs in (1, 2, 4)}
    assert pool_spy.workers == [2, 4]
    cells = runs[1]["cells.csv"].decode()
    assert ",failed: non-finite network output" in cells
    assert ",skipped: not reshapeable" in cells
    assert sorted(runs[1]) == ["cells.csv"] + sorted(
        f"synthetic__{m}__{s}__1.0.model" for m in ("logreg", "dtree", "forest") for s in ("none", "rus")
    )
    assert runs[1] == runs[2] == runs[4]


PROBE = """
import hashlib, sys
from pathlib import Path
sys.path.insert(0, {tests!r})
from fraudkit import base
from test_grid_workers import grid_bytes

base.usable_cpus = lambda: 4
for jobs in (1, 2, 4):
    files = grid_bytes(Path({work!r}) / f"jobs{{jobs}}", jobs)
    print(hashlib.sha256(b"".join(k.encode() + v for k, v in sorted(files.items()))).hexdigest())
"""


def test_jobs_identical_under_two_blas_threads(tmp_path):
    # A fresh interpreter, so OpenBLAS reads the thread count when it loads.
    src = str(Path(fraudkit.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = PROBE.format(tests=str(Path(__file__).parent), work=str(tmp_path))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert len(out) == 3 and len(set(out)) == 1


def test_no_worker_outlives_the_grid(tmp_path, pool_spy):
    run_experiment(ExperimentPlan(**MIXED, jobs=2, output_dir=str(tmp_path / "out")))
    assert pool_spy.workers == [2]
    assert multiprocessing.active_children() == []


def test_uncaught_worker_error_reaches_caller_and_no_worker_survives(tmp_path, pool_spy,
                                                                     monkeypatch):
    real_run_cell = experiments.run_cell

    def run_cell(prepared, plan, model_spec, *args, **kwargs):
        if model_spec.kind == "dtree":
            raise ParseError("bad cell")
        return real_run_cell(prepared, plan, model_spec, *args, **kwargs)

    monkeypatch.setattr(experiments, "run_cell", run_cell)
    with pytest.raises(ParseError, match="bad cell"):
        run_experiment(ExperimentPlan(**MIXED, jobs=2, output_dir=str(tmp_path / "out")))
    assert pool_spy.workers == [2]
    assert multiprocessing.active_children() == []


# The benchmark grid's shape: NearMiss v3, v1, v2 at ratio 1 before a
# larger under-sampling ratio, for a tree and a 10-tree forest.
BENCH_SHAPE = dict(
    models=[ModelSpec("dtree"), ModelSpec("forest", {"n_trees": 10})],
    samplers=[*(SamplerConfig("nearmiss", nearmiss_version=v, k_neighbors=3) for v in (3, 1, 2)),
              SamplerConfig("rus", ratio=3.0)],
)


def test_longest_point_is_submitted_first(tmp_path, pool_spy):
    plan = ExperimentPlan(**{**MIXED, **BENCH_SHAPE}, jobs=2, output_dir=str(tmp_path / "out"))
    record = run_experiment(plan)
    # One NearMiss task, for k = 3, serves every version and both models.
    assert pool_spy.submitted == [
        [(m, s) for m in ("dtree", "forest") for s in ("nearmiss3", "nearmiss1", "nearmiss2")],
        [("forest", "rus")],
        [("dtree", "rus")],
    ]
    points = [(m.name, n) for m in plan.models for n in ("nearmiss3", "nearmiss1", "nearmiss2", "rus")]
    assert [(c.model, c.sampler) for c in record.cells[::2]] == points


def test_points_without_a_sampler_run_one_per_task(tmp_path, pool_spy):
    run_experiment(ExperimentPlan(**MIXED, jobs=2, output_dir=str(tmp_path / "out")))
    assert len(pool_spy.submitted) == 10
    assert all(len(task) == 1 for task in pool_spy.submitted)


def test_shared_nearmiss_is_sampled_once(tmp_path, monkeypatch):
    calls = []
    real_nearmiss_resample = resample.nearmiss_resample

    def nearmiss_resample(samplers, X, y):
        calls.append(list(map(repr, samplers)))
        return real_nearmiss_resample(samplers, X, y)

    monkeypatch.setattr(resample, "nearmiss_resample", nearmiss_resample)
    plan = ExperimentPlan(
        **{**MIXED, "models": [ModelSpec("dtree"), ModelSpec("forest", {"n_trees": 3})],
           "samplers": [SamplerConfig("nearmiss", nearmiss_version=1)]},
        output_dir=str(tmp_path / "out"),
    )
    prepared = experiments.prepare(plan)
    record = run_experiment(plan, prepared)
    assert calls == [["NearMiss(version=1, k=3, ratio=1.0)"]]
    # The shared sample gives each cell the report it gets alone.
    for model_spec in plan.models:
        alone, _ = experiments.run_cell(prepared, plan, model_spec, plan.samplers[0])
        shared = [c for c in record.cells if c.model == model_spec.name]
        assert [c.report for c in shared] == [c.report for c in alone]
        assert all(c.status == "ok" for c in shared)


def test_nearmiss_versions_walk_the_distances_once_per_k(tmp_path, monkeypatch):
    walks = []
    real_distance_blocks = resample._distance_blocks

    def distance_blocks(A, B, rows=None):
        walks.append(len(B))
        return real_distance_blocks(A, B, rows)

    monkeypatch.setattr(resample, "_distance_blocks", distance_blocks)
    plan = ExperimentPlan(
        **{**MIXED, "models": [ModelSpec("dtree"), ModelSpec("forest", {"n_trees": 3})],
           "samplers": [SamplerConfig("nearmiss", nearmiss_version=v, k_neighbors=k, ratio=r)
                        for v, k, r in ((1, 3, 1), (2, 3, 1), (3, 3, 1), (1, 5, 2), (2, 5, 2))]},
        output_dir=str(tmp_path / "out"),
    )
    prepared = experiments.prepare(plan)
    record = run_experiment(plan, prepared)
    assert len(walks) == 2  # k = 3, then k = 5
    # Each cell is the one it is alone, v3's short shortlist included.
    alone = [c for m in plan.models for s in plan.samplers
             for c in experiments.run_cell(prepared, plan, m, s)[0]]
    assert [(c.status, c.report) for c in record.cells] == [(c.status, c.report) for c in alone]
    assert sum(c.status == "ok" for c in record.cells) == 16


def test_jobs_give_identical_bytes_with_a_shared_sample(tmp_path, pool_spy):
    grid = dict(
        models=[ModelSpec("logreg"), ModelSpec("dtree"), ModelSpec("forest", {"n_trees": 3})],
        samplers=[SamplerConfig("nearmiss", nearmiss_version=3), SamplerConfig("rus"),
                  SamplerConfig("nearmiss", nearmiss_version=1)],
        train=TrainConfig(epochs_max=3),
    )
    runs = {jobs: grid_bytes(tmp_path / f"jobs{jobs}", jobs, **grid) for jobs in (1, 2, 4)}
    assert pool_spy.workers == [2, 4]
    # Both NearMiss versions are one task; each rus point is a task alone.
    assert sorted(map(len, pool_spy.submitted[:4])) == [1, 1, 1, 6]
    # NearMiss v3's shortlist falls short here: one error, reported by each
    # of its cells and by no NearMiss v1 cell.
    statuses = [row[-1] for row in csv.reader(runs[1]["cells.csv"].decode().splitlines())]
    assert sum(s.startswith("skipped: NearMiss v3 shortlist has") for s in statuses) == 6
    assert sum(s == "ok" for s in statuses) == 12
    assert len(runs[1]) == 1 + 6
    assert runs[1] == runs[2] == runs[4]


def test_every_model_kind_fits_on_a_shared_read_only_sample(tmp_path):
    plan = ExperimentPlan(
        synthetic=SyntheticSpec(n_rows=300, n_features=30, fraud_fraction=0.2, separation=4.0,
                                seed=5),
        models=[ModelSpec(kind) for kind in MODEL_KINDS],
        samplers=[SamplerConfig("nearmiss", nearmiss_version=1)],
        train=TrainConfig(epochs_max=2),
        output_dir=str(tmp_path / "out"),
    )
    assert [c.status for c in run_experiment(plan).cells] == ["ok"] * 2 * len(MODEL_KINDS)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_shared_sample_is_read_only(tmp_path, monkeypatch, scribbling_models, jobs):
    monkeypatch.setattr(base, "usable_cpus", lambda: 2)
    plan = ExperimentPlan(
        **{**MIXED, "models": [ModelSpec("dtree"), ModelSpec("logreg")],
           "samplers": [SamplerConfig("nearmiss", nearmiss_version=2), SamplerConfig("rus"),
                        SamplerConfig("smote"), SamplerConfig("none")]},
        jobs=jobs, output_dir=str(tmp_path / "out"),
    )
    prepared = experiments.prepare(plan)
    before = prepared.X_train.copy()
    cells = run_experiment(plan, prepared).cells
    assert len(cells) == 16
    assert {c.status for c in cells} == {"skipped: assignment destination is read-only"}
    assert np.array_equal(prepared.X_train, before)


# The points of a grid with every sampler method and NearMiss version, at
# two ratios for NearMiss v1 and rus.
EVERY_SAMPLER = dict(
    models=[ModelSpec("logreg"), ModelSpec("dtree")],
    samplers=[SamplerConfig("none"), SamplerConfig("rus"), SamplerConfig("rus", ratio=2.0),
              SamplerConfig("smote"),
              *(SamplerConfig("nearmiss", nearmiss_version=v) for v in (1, 2, 3)),
              SamplerConfig("nearmiss", nearmiss_version=1, ratio=2.0)],
    train=TrainConfig(epochs_max=3),
)


@pytest.mark.parametrize("jobs", [1, 2])
def test_every_cell_is_the_cell_alone(tmp_path, monkeypatch, jobs):
    monkeypatch.setattr(base, "usable_cpus", lambda: 2)
    plan = ExperimentPlan(**{**MIXED, **EVERY_SAMPLER}, jobs=jobs,
                          output_dir=str(tmp_path / "out"))
    prepared = experiments.prepare(plan)
    built = []
    real_cell_sampler = experiments._cell_sampler

    def cell_sampler(plan, model_spec, sampler_cfg, ratio):
        built.append((model_spec.name, experiments._cell_names(sampler_cfg, ratio)))
        return real_cell_sampler(plan, model_spec, sampler_cfg, ratio)

    monkeypatch.setattr(experiments, "_cell_sampler", cell_sampler)
    record = run_experiment(plan, prepared)
    points = [(m.name, experiments._cell_names(s, None)) for m in plan.models for s in plan.samplers]
    assert built == points
    alone = [c for m in plan.models for s in plan.samplers
             for c in experiments.run_cell(prepared, plan, m, s)[0]]
    assert [replace(c, seconds=0) for c in record.cells] == [replace(c, seconds=0) for c in alone]
    assert sum(c.status == "ok" for c in record.cells) == 28  # v3's shortlist falls short


def test_workers_capped_at_usable_cpus(tmp_path, pool_spy, monkeypatch):
    monkeypatch.setattr(base, "usable_cpus", lambda: 2)
    run_experiment(ExperimentPlan(**MIXED, jobs=8, output_dir=str(tmp_path / "a")))
    monkeypatch.setattr(base, "usable_cpus", lambda: 1)
    run_experiment(ExperimentPlan(**MIXED, jobs=8, output_dir=str(tmp_path / "b")))
    assert pool_spy.workers == [2]


def test_serial_without_fork(tmp_path, pool_spy, monkeypatch):
    monkeypatch.delattr(os, "fork")
    record = run_experiment(ExperimentPlan(**MIXED, jobs=2, output_dir=str(tmp_path / "out")))
    assert pool_spy.workers == []
    assert sum(c.status == "ok" for c in record.cells) == 12


def test_plan_hash_ignores_jobs():
    hashes = {experiments._plan_hash(ExperimentPlan(**MIXED, jobs=j)) for j in (1, 2, 8)}
    assert len(hashes) == 1



@pytest.mark.parametrize(
    "error", [FraudkitError, NotFittedError, SchemaError, ParseError, TrainingError, ConfigError]
)
def test_errors_survive_the_process_boundary(error):
    copy = pickle.loads(pickle.dumps(error("bad value")))
    assert type(copy) is error and str(copy) == "bad value"
