"""Grid cells in forked worker processes: same bytes at every jobs count,
longest points first, and no worker left behind."""

import concurrent.futures
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import fraudkit
from fraudkit import experiments
from fraudkit.base import FraudkitError, NotFittedError
from fraudkit.config import ConfigError
from fraudkit.experiments import ExperimentPlan, ModelSpec, TrainConfig, emit_report, run_experiment
from fraudkit.ingest import ParseError, SchemaError
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


def grid_bytes(out, jobs):
    """{file name: bytes} of cells.csv and every saved bundle of the mixed
    plan run at jobs workers into out."""
    plan = ExperimentPlan(**MIXED, jobs=jobs, output_dir=str(out))
    emit_report(run_experiment(plan), out, formats=("csv",))
    files = [out / "cells.csv", *sorted((out / "models").glob("*.model"))]
    return {p.name: p.read_bytes() for p in files}


class PoolSpy(concurrent.futures.ProcessPoolExecutor):
    """The process pool, recording its worker counts and submitted points."""

    workers = []
    submitted = []

    def __init__(self, max_workers, *args, **kwargs):
        PoolSpy.workers.append(max_workers)
        super().__init__(max_workers, *args, **kwargs)

    def submit(self, fn, point, *args, **kwargs):
        PoolSpy.submitted.append((point[0].name, experiments._cell_names(point[1], point[2])[0]))
        return super().submit(fn, point, *args, **kwargs)


@pytest.fixture
def pool_spy(monkeypatch):
    monkeypatch.setattr(PoolSpy, "workers", [])
    monkeypatch.setattr(PoolSpy, "submitted", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PoolSpy)
    monkeypatch.setattr(experiments, "_cpus", lambda: 4)
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
from fraudkit import experiments
from test_grid_workers import grid_bytes

experiments._cpus = lambda: 4
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


def test_longest_point_is_submitted_first(tmp_path, pool_spy):
    # The benchmark grid's shape: NearMiss v3, v1, v2 at ratio 1 before a
    # larger under-sampling ratio, for a tree and a 10-tree forest.
    samplers = [SamplerConfig("nearmiss", nearmiss_version=v, k_neighbors=3) for v in (3, 1, 2)]
    plan = ExperimentPlan(
        **{**MIXED, "models": [ModelSpec("dtree"), ModelSpec("forest", {"n_trees": 10})],
           "samplers": [*samplers, SamplerConfig("rus", ratio=3.0)]},
        jobs=2,
        output_dir=str(tmp_path / "out"),
    )
    record = run_experiment(plan)
    # Ties keep point order.
    assert pool_spy.submitted == [
        (m, s) for m in ("forest", "dtree") for s in ("rus", "nearmiss3", "nearmiss1", "nearmiss2")
    ]
    points = [(m.name, n) for m in plan.models for n in ("nearmiss3", "nearmiss1", "nearmiss2", "rus")]
    assert [(c.model, c.sampler) for c in record.cells[::2]] == points


def test_workers_capped_at_usable_cpus(tmp_path, pool_spy, monkeypatch):
    monkeypatch.setattr(experiments, "_cpus", lambda: 2)
    run_experiment(ExperimentPlan(**MIXED, jobs=8, output_dir=str(tmp_path / "a")))
    monkeypatch.setattr(experiments, "_cpus", lambda: 1)
    run_experiment(ExperimentPlan(**MIXED, jobs=8, output_dir=str(tmp_path / "b")))
    assert pool_spy.workers == [2]


def test_serial_without_fork(tmp_path, pool_spy, monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
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
