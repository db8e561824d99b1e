"""Self-test of the benchmark harness on tiny inputs (about ten seconds).

    python3 perfbench/selftest.py

Run it from the repository root. It shows that every correctness check
passes on good outputs and fires on a broken one: a CSV with one changed
cell, a profile with a fraud missing, a sampler result with one dropped
row, a bundle with one perturbed weight (through a whole ingest-score
pass, which must exit 3), histories with a missing epoch or a NaN loss,
a metric report out of range, a grid with a skipped cell, a cell report
out of range or a report file missing, and passes over one set whose
fraud recalls differ. It also checks that every metric name of
BENCHMARK.json is printed with its unit. It exits non-zero on the first
failure.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402  (imports no numpy, so BLAS can still be pinned)

os.environ.update(run.BLAS_ENV)

import workloads as wl  # noqa: E402
from fraudkit.experiments import prepare  # noqa: E402
from fraudkit.ingest import infer_schema, load_csv, profile, write_csv  # noqa: E402
from fraudkit.metrics import MetricReport  # noqa: E402
from fraudkit.nn.network import TrainingHistory  # noqa: E402
from fraudkit.synth import SyntheticSpec  # noqa: E402

TINY = SyntheticSpec(n_rows=12_000, n_features=30, fraud_fraction=0.005, separation=4.0, seed=3)


def expect_ok(label, fn, *args):
    fn(*args)
    print(f"ok    {label}")


def expect_fires(label, fn, *args):
    try:
        fn(*args)
    except wl.CheckError as exc:
        print(f"fires {label}: {exc}")
        return
    raise SystemExit(f"FAIL: check did not fire on {label}")


def run_task(task):
    """workloads.main in this process; returns (exit code, its stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = wl.main(["workloads.py", json.dumps(task)])
    return code, err.getvalue().strip()


def test_csv(work):
    ds = wl.gen_synthetic(TINY)
    path = work / "tiny.csv"
    write_csv(ds, path)
    loaded = load_csv(path, infer_schema(path, wl.LABEL))
    expect_ok("CSV round-trip", wl.check_roundtrip, ds, loaded)
    expect_ok("profile counts", wl.check_profile, profile(loaded), ds.n_rows, ds.n_features, ds.n_pos)
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[2] = repr(float(cells[2]) + 2.0**-40)
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    changed = load_csv(path, infer_schema(path, wl.LABEL))
    expect_fires("CSV with one changed cell", wl.check_roundtrip, ds, changed)
    expect_fires("profile with a fraud missing", wl.check_profile, profile(loaded), ds.n_rows, ds.n_features, ds.n_pos + 1)


def test_samplers():
    ds = wl.gen_synthetic(TINY)
    prep = prepare(wl.grid_plan(TINY, 1, "unused"), ds)
    n_pos = int(prep.y_train.sum())
    for cfg in (wl.SamplerConfig("rus", ratio=2.0), wl.SamplerConfig("nearmiss", 1, 3, 2.0)):
        name = wl.sampler_name(cfg)
        _, y = cfg.build().fit_resample(prep.X_train, prep.y_train)
        expect_ok(f"{name} class counts", wl.check_class_counts, name, y, *wl.sampler_target(cfg, n_pos))
        expect_fires(f"{name} result with one dropped row", wl.check_class_counts, name, y[1:],
                     *wl.sampler_target(cfg, n_pos))


def test_histories_reports_cells():
    good = TrainingHistory(train_loss=[0.3], val_loss=[0.2])
    expect_ok("history", wl.check_history, "logreg", good, 1)
    expect_fires("history with a missing epoch", wl.check_history, "logreg", good, 2)
    expect_fires("history with a NaN loss", wl.check_history, "logreg",
                 TrainingHistory(train_loss=[math.nan], val_loss=[0.2]), 1)
    report = MetricReport(accuracy=0.9, precision=0.5, recall=0.8, f1=0.6, support_pos=5, support_neg=95)
    expect_ok("metric report", wl.check_report, "r", report)
    expect_fires("recall above 1", wl.check_report, "r",
                 MetricReport(0.9, None, 1.5, None, 5, 95))


def test_grid_cells(work):
    """A tiny grid pass, then the same record with one cell broken."""
    inp = wl.Inputs({"work": str(work), "jobs": 1})
    _, _, (plan, _, record) = wl.sampling_grid(inp, wl.NULL_TRACER)
    n_points = len(wl.GRID_MODELS) * len(wl.GRID_SAMPLERS)
    out_dir = Path(plan.output_dir)
    expect_ok("grid cells and report files", wl.check_cells, record, n_points, out_dir)
    cell = record.cells[0]
    for label, broken in (
        ("grid with a skipped cell", dataclasses.replace(cell, report=None, status="skipped: x")),
        ("grid cell with recall above 1", dataclasses.replace(
            cell, report=dataclasses.replace(cell.report, recall=1.5))),
    ):
        cells = [broken, *record.cells[1:]]
        expect_fires(label, wl.check_cells, dataclasses.replace(record, cells=cells), n_points, out_dir)
    (out_dir / "cells.csv").unlink()
    expect_fires("grid report without cells.csv", wl.check_cells, record, n_points, out_dir)


def test_recall_agreement():
    """measure_passes with a stub runner whose passes over set 0 differ."""

    def stub(drift):
        calls = []

        def runner(directory, **task):
            calls.append(directory)
            recall = 0.5 + (drift if directory == "set0" and calls.count("set0") > 1 else 0.0)
            return {"recalls": [recall], "wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0, "ops": 1}

        return runner

    dirs = ["set0", "set1", "set2"]
    expect_ok("fraud recalls agree between passes", run.measure_passes, stub(0.0), "nn-train", dirs, 0,
              lambda: None)
    try:
        run.measure_passes(stub(0.25), "nn-train", dirs, 0, lambda: None)
    except run.RunFailed as exc:
        if exc.code != 1:
            raise SystemExit(f"FAIL: differing recalls exited {exc.code}, expected 1") from None
        print(f"fires passes over one set with differing recalls: {exc}")
        return
    raise SystemExit("FAIL: check did not fire on passes over one set with differing recalls")


def test_bundle_and_passes(work):
    """Full passes on the tiny set, then one with a perturbed bundle weight."""
    state = wl.setup("ingest-score", TINY, work)
    wl.save_expected(state, work)
    task = {"task": "pass", "work": str(work), "jobs": 1, "trace": False}
    for workload in wl.WORKLOADS:
        code, err = run_task({**task, "workload": workload})
        if code != 0:
            raise SystemExit(f"FAIL: tiny {workload} pass exited {code}: {err}")
        print(f"ok    tiny {workload} pass")
    code, err = run_task({**task, "task": "samplers"})
    if code != 0:
        raise SystemExit(f"FAIL: sampler check on the tiny set exited {code}: {err}")
    print("ok    tiny sampler check")

    path = work / "bundle_cnn1d.json"
    payload = json.loads(path.read_text())
    weights = payload["model"]["network"]["layers"][0]["params"]["K"]["data"]
    weights[0] += 1e-9
    path.write_text(json.dumps(payload))
    code, err = run_task({**task, "workload": "ingest-score"})
    if code != 3:
        raise SystemExit(f"FAIL: pass with a perturbed bundle weight exited {code}, expected 3")
    print(f"fires bundle with one perturbed weight: the pass exited 3 ({err})")


def test_metric_names():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for kind in ("end_to_end", "per_layer"):
        units = {m["name"]: m["unit"] for m in bench[kind]}
        metrics = {name: 1.5 for name in units}
        lines = run.report_lines(metrics, units, 1)
        printed = set(lines[:-1])
        result = json.loads(lines[-1])
        for name, unit in units.items():
            if f"{name} 1.5 {unit}" not in printed or result["metrics"][name] != {"value": 1.5, "unit": unit}:
                raise SystemExit(f"FAIL: {kind} metric {name} is not printed with unit {unit}")
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise SystemExit(f"FAIL: result keys {sorted(result)}")
        print(f"ok    all {len(units)} {kind} names printed with their units")


def main():
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        test_csv(work)
        test_samplers()
        test_histories_reports_cells()
        test_recall_agreement()
        test_bundle_and_passes(work)
        test_grid_cells(work)
        test_metric_names()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # benchmark runs may still use it
            scratch.rmdir()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
