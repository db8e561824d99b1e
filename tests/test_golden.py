"""Golden plans: `fraudkit run` must reproduce the committed outputs byte for byte.

tests/golden/nets.cfg trains every network builder and a CART baseline
with and without random under-sampling; cells.csv and resolved.cfg next
to it are its committed outputs. tests/golden/samplers.cfg trains CART
and a 3-tree forest on NearMiss v1-v3, SMOTE and random under-sampling;
samplers/nearmissN/ holds the outputs of its run with each NearMiss
version, and a run with all three versions must write each version's
cells and bundles as its own run does. A change that moves any metric of any cell, or the resolved
plan echo, fails here and has to re-baseline the files openly. Every
saved model must be a bundle that reproduces its cell's test row of the
committed cells.csv.

bundles.sha256 holds the sha256 and path of every model bundle and chart
the four runs write, in `sha256sum` format, paths relative to the
directory each test runs in; each run's files must match it byte for
byte, so a change that moves any trained weight fails here even when
every metric stays put. A numpy or BLAS upgrade that moves a last bit is
re-baselined openly, as cells.csv is: rerun the plans as above and
regenerate the file with `sha256sum`. Every bundle, read by load_bundle
and written again by save_bundle, must come back byte for byte.
"""

import csv
import hashlib
import shutil
from pathlib import Path

import numpy as np
import pytest

from fraudkit.cli import OUTPUT_DIR_ENV, run_cli
from fraudkit.config import load_plan
from fraudkit.experiments import METRIC_NAMES, prepare
from fraudkit.metrics import evaluate_predictions, format_metric
from fraudkit.models import classify, load_bundle, save_bundle

GOLDEN = Path(__file__).parent / "golden"
RUN_DIRS = ("out", *(f"samplers/nearmiss{v}" for v in (1, 2, 3)))


def committed_digests():
    """Path -> sha256 from bundles.sha256."""
    pairs = (line.split("  ", 1) for line in (GOLDEN / "bundles.sha256").read_text().splitlines())
    return {path: digest for digest, path in pairs}


def assert_digests(root, out):
    """Every bundle and chart under root/out has its committed sha256, and
    bundles.sha256 lists no other file under out."""
    got = {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in (root / out).rglob("*")
        if p.suffix in (".model", ".svg")
    }
    want = {k: v for k, v in committed_digests().items() if k.startswith(f"{out}/")}
    assert got == want


def assert_resaved(models, resaved):
    """Every bundle under models, loaded and saved again to resaved, has
    the same bytes."""
    for path in sorted(models.glob("*.model")):
        save_bundle(resaved, *load_bundle(path))
        assert resaved.read_bytes() == path.read_bytes(), path.name


def test_digests_cover_the_golden_runs():
    paths = committed_digests()
    assert all(path.startswith(tuple(f"{d}/" for d in RUN_DIRS)) for path in paths)
    assert sum(path.endswith(".model") for path in paths) == 10 + 3 * 6
    assert sum(path.endswith(".svg") for path in paths) == 2 * len(RUN_DIRS)


def test_golden_nets_plan(tmp_path, monkeypatch):
    shutil.copy(GOLDEN / "nets.cfg", tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    assert run_cli(["run", "nets.cfg"]) == 0
    for name in ("cells.csv", "resolved.cfg"):
        assert (tmp_path / "out" / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    assert_digests(tmp_path, "out")
    assert_resaved(tmp_path / "out" / "models", tmp_path / "resaved.model")

    plan = load_plan(GOLDEN / "nets.cfg")
    prep = prepare(plan)
    with open(GOLDEN / "cells.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["partition"] == "test" and r["status"] == "ok"]
    names = [f"{r['dataset']}__{r['model']}__{r['sampler']}__{r['ratio']}.model" for r in rows]
    models = tmp_path / "out" / "models"
    assert sorted(p.name for p in models.glob("*.model")) == sorted(names)
    for name, row in zip(names, rows):
        model, scaler, threshold, features, categories = load_bundle(models / name)
        assert categories == {}, name
        assert features == prep.features, name
        assert np.array_equal(scaler.mean_, prep.scaler.mean_), name
        assert np.array_equal(scaler.std_, prep.scaler.std_), name
        report = evaluate_predictions(prep.y_test, classify(model, prep.X_test, threshold))
        got = {m: format_metric(getattr(report, m)) for m in METRIC_NAMES}
        assert got == {m: row[m] for m in METRIC_NAMES}, name


@pytest.mark.parametrize("version", [1, 2, 3])
def test_golden_samplers_plan(tmp_path, monkeypatch, version):
    shutil.copy(GOLDEN / "samplers.cfg", tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    out = f"samplers/nearmiss{version}"
    overrides = ["--set", f"samplers.nearmiss_version={version}", "--output-dir", out]
    assert run_cli(["run", "samplers.cfg", *overrides]) == 0
    for name in ("cells.csv", "resolved.cfg"):
        assert (tmp_path / out / name).read_bytes() == (GOLDEN / out / name).read_bytes(), name
    assert_digests(tmp_path, out)
    assert_resaved(tmp_path / out / "models", tmp_path / "resaved.model")


@pytest.mark.parametrize("jobs", [1, 2])
def test_golden_samplers_plan_with_every_version(tmp_path, monkeypatch, jobs):
    """One run with nearmiss_version = 1, 2, 3 writes each NearMiss
    version's cells.csv rows and bundles as that version's golden run
    does, and the SMOTE and under-sampling ones of every golden run."""
    shutil.copy(GOLDEN / "samplers.cfg", tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    overrides = ["--set", "samplers.nearmiss_version=1, 2, 3", "--jobs", str(jobs),
                 "--output-dir", "every"]
    assert run_cli(["run", "samplers.cfg", *overrides]) == 0

    def golden_dir(sampler):
        return f"samplers/{sampler if sampler.startswith('nearmiss') else 'nearmiss1'}"

    def rows(path):
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))

    samplers = ("nearmiss1", "nearmiss2", "nearmiss3", "smote", "rus")
    expected = [
        row
        for model in ("dtree", "forest")
        for sampler in samplers
        for row in rows(GOLDEN / golden_dir(sampler) / "cells.csv")
        if (row["model"], row["sampler"]) == (model, sampler)
    ]
    assert rows(tmp_path / "every" / "cells.csv") == expected
    digests = committed_digests()
    models = sorted((tmp_path / "every" / "models").glob("*.model"))
    assert len(models) == 2 * len(samplers)
    for path in models:
        sampler = path.name.split("__")[2]
        want = digests[f"{golden_dir(sampler)}/models/{path.name}"]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want, path.name
