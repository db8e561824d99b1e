import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fraudkit
from fraudkit.cli import run_cli
from fraudkit.experiments import METRIC_NAMES
from fraudkit.metrics import format_metric
from fraudkit.models import build_cnn1d, build_cnn2d, build_logreg, build_lstm
from fraudkit.nn.network import network_to_dict
from fraudkit.trees import DecisionTreeClassifier

# A bundle whose model nests 5,000 levels deep: it tests the JSON decoder's
# depth limit, which fails before any key is read.
DEEP_BUNDLE = (
    '{"format_version": 1, "features": ["f0"], "categories": {}, "threshold": 0.5, '
    '"scaler": {"mean": [0.0], "std": [1.0]}, "model": {"kind": "dtree", "root": '
    + '{"feature": 0, "threshold": 0.5, "right": {"prob": 1.0}, "left": ' * 5000
    + '{"prob": 0.0}' + "}" * 5002
)


def six_feature_bundle(feature=0, split=0.5, prob=0.0, mean=[0.0] * 6, std=[1.0] * 6, **top):
    """A one-split dtree bundle over the scoring data's f0..f5: feature,
    split and prob are its root node's, and top replaces top-level keys."""
    tree = {"feature": [feature, -1, -1], "threshold": [split, None, None],
            "left": [1, -1, -1], "right": [2, -1, -1], "prob": [prob, 0.5, 1.0]}
    return json.dumps({
        "format_version": 1, "features": [f"f{i}" for i in range(6)], "categories": {},
        "threshold": 0.5, "scaler": {"mean": mean, "std": std},
        "model": {"kind": "dtree", "flat_tree": tree}, **top,
    })


def logreg_payload(width):
    return {"kind": "logreg", "network": network_to_dict(build_logreg(width).initialize(0))}


def logreg_bundle(width, edit):
    """A logreg bundle over f0..f{width-1} whose network payload edit changes."""
    model = logreg_payload(width)
    edit(model["network"])
    return six_feature_bundle(model=model, features=[f"f{i}" for i in range(width)],
                              scaler={"mean": [0.0] * width, "std": [1.0] * width})


def network_bundle(kind, build, edit):
    """A kind bundle over f0..f5 of the network build(6), whose network
    payload edit changes."""
    model = {"kind": kind, "network": network_to_dict(build(6).initialize(0))}
    edit(model["network"])
    return six_feature_bundle(model=model)


def hyperparams(i, **values):
    """An edit that sets layer i's hyperparameters values."""
    return lambda net: net["layers"][i]["hyperparams"].update(values)


ONE_SPLIT = json.loads(six_feature_bundle())["model"]["flat_tree"]


PLAN_TEXT = """\
[plan]
seed = 7
output_dir = {out}

[dataset]
type = synthetic
n_rows = 300
n_features = 6
fraud_fraction = 0.2
separation = 4.0

[models]
kinds = logreg

[samplers]
methods = none

[train]
lr = 0.05
epochs_max = 30
"""


@pytest.fixture
def plan_file(tmp_path):
    path = tmp_path / "plan.cfg"
    path.write_text(PLAN_TEXT.format(out=tmp_path / "out"))
    return path


class TestBasics:
    def test_no_command_is_usage_error(self, capsys):
        assert run_cli([]) == 1

    def test_unknown_command(self):
        assert run_cli(["frobnicate"]) == 1

    def test_version(self, capsys):
        assert run_cli(["--version"]) == 0
        assert capsys.readouterr().out.startswith("fraudkit ")

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(fraudkit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-m", "fraudkit", "--version"],
                             env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith(f"fraudkit {fraudkit.__version__}")

    def test_closed_stdout_exits_quietly(self, tiny_csv):
        src = str(Path(fraudkit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = ["profile", str(tiny_csv), "--categorical", "country,declined"]
        proc = subprocess.Popen([sys.executable, "-m", "fraudkit", *argv],
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()  # the reader is gone before the command prints
        err = proc.stderr.read().decode()
        assert proc.wait() == 1
        assert err == ""

    def test_missing_data_file(self):
        assert run_cli(["profile", "/nonexistent.csv"]) == 1

    @pytest.mark.parametrize("argv", [
        ["profile", "{dir}"], ["evaluate", "{bundle}", "{dir}"], ["gen-synth", "{dir}"],
    ], ids=["profile", "evaluate", "gen-synth"])
    def test_directory_as_data_is_validation_error(self, tmp_path, capsys, argv):
        bundle = tmp_path / "ok.model"
        bundle.write_text(six_feature_bundle())
        directory = tmp_path / "data"
        directory.mkdir()
        assert run_cli([a.format(dir=directory, bundle=bundle) for a in argv]) == 1
        assert f"error: [Errno 21] Is a directory: '{directory}'" in capsys.readouterr().err

    def test_non_finite_cell_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("a,Class\n1.0,0\n\n1e400,1\n")
        assert run_cli(["profile", str(path)]) == 1
        assert "line 4: non-finite numeric cell in column 'a'" in capsys.readouterr().err


    def test_empty_file_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert run_cli(["profile", str(path)]) == 1
        assert f"error: {path}: empty file, no header row" in capsys.readouterr().err

    def test_oversized_cell_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text('a,Class\n1.0,0\n"' + "9" * 200_000 + '",1\n')
        assert run_cli(["profile", str(path)]) == 1
        assert f"error: {path}: line 3: field larger than field limit" in capsys.readouterr().err

    def test_unquoted_oversized_numeric_cell_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("a,Class\n1.0,0\n0." + "0" * 139_998 + "1,1\n")
        assert run_cli(["profile", str(path)]) == 1
        assert f"error: {path}: line 3: field larger than field limit" in capsys.readouterr().err

    def test_non_utf8_byte_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,Class\n1.0,0\n\xff,1\n")
        assert run_cli(["profile", str(path)]) == 1
        assert f"error: {path}: not UTF-8 text" in capsys.readouterr().err

class TestProfileExplore:
    def test_profile_json(self, tiny_csv, capsys):
        code = run_cli(
            ["profile", str(tiny_csv), "--categorical", "country,declined"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_rows"] == 5
        assert payload["fraud_fraction"] == pytest.approx(0.2)

    def test_explore_writes_reports(self, tiny_csv, tmp_path, capsys):
        out = tmp_path / "exp"
        code = run_cli(
            [
                "explore", str(tiny_csv),
                "--categorical", "country,declined",
                "--output-dir", str(out),
            ]
        )
        assert code == 0
        assert (out / "correlation.csv").exists()
        assert (out / "correlation.svg").read_text().startswith("<svg")

    @pytest.mark.parametrize("argv,named", [
        (["--drop", "amount, declined", "--categorical", "country"], None),
        (["--drop", "amount, declnied", "--categorical", "country"], "drop columns ['declnied']"),
        (["--categorical", "country,declined, cuontry,amt"], "categorical columns ['cuontry', 'amt']"),
    ])
    def test_listed_columns_must_be_in_header(self, tiny_csv, capsys, argv, named):
        code = run_cli(["profile", str(tiny_csv), *argv])
        captured = capsys.readouterr()
        if named is None:
            assert code == 0
            assert json.loads(captured.out)["n_features"] == 1
        else:
            assert code == 1
            assert f"{tiny_csv}: {named} not in header" in captured.err

    def test_output_dir_env(self, tiny_csv, tmp_path, monkeypatch, capsys):
        out = tmp_path / "envout"
        monkeypatch.setenv("FRAUDKIT_OUTPUT_DIR", str(out))
        code = run_cli(["explore", str(tiny_csv), "--categorical", "country,declined"])
        assert code == 0
        assert (out / "correlation.csv").exists()


class TestGenSynth:
    def test_writes_csv(self, tmp_path, capsys):
        path = tmp_path / "synth.csv"
        code = run_cli(
            ["gen-synth", str(path), "--n-rows", "50", "--n-features", "4",
             "--fraud-fraction", "0.2", "--seed", "1"]
        )
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "f0,f1,f2,f3,is_fraud"
        assert len(lines) == 51

    def test_stdout_redirected_to_a_file_holds_only_the_csv(self, tmp_path, capsys):
        src = str(Path(fraudkit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        path = tmp_path / "synth.csv"
        with open(path, "wb") as out:
            proc = subprocess.run(
                [sys.executable, "-m", "fraudkit", "gen-synth", "/dev/stdout", "--n-rows", "50",
                 "--n-features", "4", "--fraud-fraction", "0.2", "--seed", "1"],
                env=env, stdout=out, stderr=subprocess.PIPE, text=True,
            )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.startswith("wrote 50 rows (10 fraud) to /dev/stdout")
        assert run_cli(["profile", str(path), "--label", "is_fraud"]) == 0
        assert json.loads(capsys.readouterr().out)["n_rows"] == 50

    def test_bad_fraction_is_validation_error(self, tmp_path):
        assert run_cli(["gen-synth", str(tmp_path / "x.csv"), "--fraud-fraction", "2.0"]) == 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_separation_is_validation_error(self, tmp_path, capsys, value):
        out = tmp_path / "x.csv"
        assert run_cli(["gen-synth", str(out), "--separation", value]) == 1
        assert f"separation must be finite and >= 0, got {value}" in capsys.readouterr().err
        assert not out.exists()


class TestPlanCommands:
    def test_run_twice_is_byte_identical(self, plan_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["run", str(plan_file)]) == 0
        first = (out / "cells.csv").read_bytes()
        assert run_cli(["run", str(plan_file)]) == 0
        assert (out / "cells.csv").read_bytes() == first
        assert (out / "resolved.cfg").exists()
        assert (out / "record.json").exists()

    def test_set_override_changes_resolved(self, plan_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["run", str(plan_file), "--set", "plan.seed=99"]) == 0
        assert "seed = 99" in (out / "resolved.cfg").read_text()

    def test_set_strips_section_and_key(self, plan_file, tmp_path, capsys):
        # the plan has no [sweep] section, so the override must add it
        assert run_cli(["run", str(plan_file), "--set", " sweep . ratios = 1, 3"]) == 0
        assert "ratios = 1, 3\n" in (tmp_path / "out" / "resolved.cfg").read_text()

    def test_sweep_imbalance(self, plan_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            ["sweep-imbalance", str(plan_file), "--set", "sweep.ratios=1, 2"]
        )
        assert code == 0
        lines = (out / "cells.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 4  # two ratios x validation/test
        saved = sorted(p.name for p in (out / "models").glob("*.model"))
        assert saved == ["synthetic__logreg__rus__1.model", "synthetic__logreg__rus__2.model"]

    def test_compare_sampling(self, plan_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            ["compare-sampling", str(plan_file), "--set", "samplers.methods=none, rus"]
        )
        assert code == 0
        text = (out / "cells.csv").read_text()
        assert ",none," in text and ",rus," in text

    @pytest.mark.parametrize(
        "override,key",
        [
            ("train.lr=-1", "lr"),
            ("train.lr=0", "lr"),
            ("train.lr=nan", "lr"),
            ("train.lr=inf", "lr"),
            ("train.epochs_max=-3", "epochs_max"),
            ("train.epochs_max=0", "epochs_max"),
            ("train.batch_size=0", "batch_size"),
            ("train.patience=0", "patience"),
            ("train.lr=fast", "lr"),
        ],
    )
    def test_bad_train_value_exits_one(self, plan_file, tmp_path, capsys, override, key):
        assert run_cli(["run", str(plan_file), "--set", override]) == 1
        assert f"[train] {key} must be" in capsys.readouterr().err
        assert not (tmp_path / "out" / "cells.csv").exists()

    @pytest.mark.parametrize(
        "override,named",
        [
            ("samplers.k_neighbors=-1", "[samplers] k_neighbors must be >= 0"),
            ("samplers.ratio=-2", "[samplers] ratio must be finite and > 0"),
            ("samplers.ratio=inf", "[samplers] ratio must be finite and > 0"),
            ("samplers.nearmiss_version=7", "[samplers] nearmiss_version must be 1, 2 or 3"),
            ("samplers.methods=nearmis", "[samplers] methods: unknown method 'nearmis'"),
            ("plan.threshold=nan", "[plan] threshold must be in [0, 1]"),
            ("plan.threshold=2", "[plan] threshold must be in [0, 1]"),
            ("plan.jobs=0", "[plan] jobs must be >= 1"),
            ("plan.jobs=-3", "[plan] jobs must be >= 1"),
            ("plan.test_frac=1.5", "[plan] test_frac must be in (0, 1)"),
            ("models.kinds=bogus", "[models] kinds: unknown model kind 'bogus'"),
            ("models.n_trees=0", "[models] n_trees must be >= 1"),
            ("models.max_depth=-1", "[models] max_depth must be >= 0"),
            ("models.min_leaf=0", "[models] min_leaf must be >= 1"),
            ("models.hidden=0", "[models] hidden must be >= 1"),
            ("models.inner_act=bogus", "[models] inner_act must be tanh or relu"),
            ("plan.seed=abc", "[plan] seed must be an integer, got 'abc'"),
            ("plan.jobs=1.5", "[plan] jobs must be an integer, got '1.5'"),
            ("sweep.ratios=abc", "[sweep] ratios must be a comma list of numbers, got 'abc'"),
        ],
    )
    def test_bad_sampler_value_exits_one(self, plan_file, tmp_path, capsys, override, named):
        argv = ["run", str(plan_file), "--set", "models.kinds=dtree",
                "--set", "samplers.methods=nearmiss", "--set", override]
        assert run_cli(argv) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out" / "cells.csv").exists()

    @pytest.mark.parametrize(
        "override,named",
        [("models.max_dept=2", "[models] max_dept"), ("modles.kinds=dtree", "[modles]")],
    )
    def test_unknown_plan_key_exits_one(self, plan_file, tmp_path, capsys, override, named):
        assert run_cli(["run", str(plan_file), "--set", override]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out" / "cells.csv").exists()

    def test_bad_config_exits_one(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("[plan]\nseed = 1\n")  # no dataset section
        assert run_cli(["run", str(path)]) == 1

    def test_plan_drop_column_not_in_header_exits_one(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("id,time,amt,Class\n" + "".join(
            f"{i},{i + 1},{i % 3}.5,{i % 2}\n" for i in range(20)))
        plan = tmp_path / "p.cfg"
        plan.write_text(f"[plan]\noutput_dir = {tmp_path / 'out'}\n\n[dataset]\ntype = csv\n"
                        f"path = {data}\ndrop = id, tiem\n\n[models]\nkinds = dtree\n")
        assert run_cli(["train", str(plan)]) == 1
        assert f"{data}: drop columns ['tiem'] not in header" in capsys.readouterr().err
        assert not (tmp_path / "out" / "trained.model").exists()

    @pytest.mark.parametrize(
        "command,kinds,n_failed",
        [("run", "logreg, cnn1d", 2), ("sweep-imbalance", "cnn1d, logreg", 4),
         ("compare-sampling", "cnn1d, logreg", 2)],
    )
    def test_failed_cells_keep_the_grid_and_exit_one(self, plan_file, tmp_path, capsys,
                                                      command, kinds, n_failed):
        out = tmp_path / "out"
        argv = [command, str(plan_file), "--set", f"models.kinds={kinds}", "--set", "train.lr=1e300",
                "--set", "train.epochs_max=2", "--set", "sweep.ratios=1, 2"]
        assert run_cli(argv) == 1
        assert f"error: {n_failed} cells failed" in capsys.readouterr().err
        rows = list(csv.DictReader((out / "cells.csv").open()))
        failed = [r for r in rows if r["status"] == "failed: non-finite network output"]
        assert len(failed) == n_failed and {r["model"] for r in failed} == {"cnn1d"}
        assert all(r["status"] == "ok" for r in rows if r["model"] == "logreg")
        for name in ("record.json", "timings.csv", "resolved.cfg"):
            assert (out / name).exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "command,n_failed", [("run", 2), ("sweep-imbalance", 4), ("compare-sampling", 2)]
    )
    def test_cells_that_cannot_allocate_fail_and_exit_one(self, plan_file, tmp_path, capsys,
                                                          monkeypatch, command, n_failed, jobs):
        # Forked workers inherit the patch, so both jobs counts see it.
        message = "Unable to allocate 1.64 GiB for an array with shape (219872, 1000) and data type float64"

        def fit(self, X, y):
            raise MemoryError(message)

        monkeypatch.setattr(DecisionTreeClassifier, "fit", fit)
        out = tmp_path / "out"
        argv = [command, str(plan_file), "--set", "models.kinds=dtree, logreg", "--jobs", str(jobs),
                "--set", "train.epochs_max=2", "--set", "sweep.ratios=1, 2"]
        assert run_cli(argv) == 1
        assert f"error: {n_failed} cells failed" in capsys.readouterr().err
        # The message holds commas: cells.csv quotes it, so its reader gets it whole.
        with open(out / "cells.csv", newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        json_rows = json.loads((out / "record.json").read_text())["cells"]
        for rows in (csv_rows, json_rows):
            failed = [r for r in rows if r["status"] == f"failed: {message}"]
            assert len(failed) == n_failed and {r["model"] for r in failed} == {"dtree"}
            assert all(r["status"] == "ok" for r in rows if r["model"] == "logreg")
        assert all(None not in r for r in csv_rows)  # no field past the header's
        for name in ("timings.csv", "resolved.cfg"):
            assert (out / name).exists()

    def test_jobs_echo_is_the_plans(self, plan_file, tmp_path, capsys):
        assert run_cli(["run", str(plan_file), "--jobs", "64"]) == 0
        assert "jobs = 64\n" in (tmp_path / "out" / "resolved.cfg").read_text()


class TestTrainEvaluate:
    def test_train_then_evaluate(self, plan_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["train", str(plan_file)]) == 0
        train_out = capsys.readouterr().out
        assert "validation:" in train_out and "test:" in train_out
        bundle = out / "trained.model"
        assert bundle.exists()
        assert (out / "history.json").exists()

        # same seed as the plan keeps the synthetic class geometry identical
        data = tmp_path / "eval.csv"
        assert run_cli(
            ["gen-synth", str(data), "--n-rows", "100", "--n-features", "6",
             "--fraud-fraction", "0.2", "--separation", "4.0", "--seed", "7"]
        ) == 0
        capsys.readouterr()
        code = run_cli(["evaluate", str(bundle), str(data), "--label", "is_fraud"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) >= {"accuracy", "precision", "recall", "f1"}
        assert report["accuracy"] >= 0.8

    def _eval_data(self, tmp_path, capsys):
        """Scoring rows drawn like the plan's (same seed and geometry)."""
        data = tmp_path / "eval.csv"
        assert run_cli(
            ["gen-synth", str(data), "--n-rows", "200", "--n-features", "6",
             "--fraud-fraction", "0.2", "--separation", "4.0", "--seed", "7"]
        ) == 0
        capsys.readouterr()
        return data

    def _evaluate(self, capsys, *argv):
        code = run_cli(["evaluate", *map(str, argv), "--label", "is_fraud"])
        return code, capsys.readouterr()

    @pytest.mark.parametrize("kind", ["dtree", "lstm"])
    def test_train_is_the_first_cell_of_run(self, plan_file, tmp_path, capsys, kind):
        overrides = ["--set", f"models.kinds={kind}", "--set", "samplers.methods=rus, none",
                     "--set", "train.epochs_max=3"]
        assert run_cli(["train", str(plan_file), "--output-dir", str(tmp_path / "t"), *overrides]) == 0
        printed = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines()[:2])
        assert run_cli(["run", str(plan_file), "--output-dir", str(tmp_path / "r"), *overrides]) == 0
        trained = (tmp_path / "t" / "trained.model").read_bytes()
        assert trained == (tmp_path / "r" / "models" / f"synthetic__{kind}__rus__1.0.model").read_bytes()
        with open(tmp_path / "r" / "cells.csv", newline="") as fh:
            first = {r["partition"]: r for r in list(csv.DictReader(fh))[:2]}
        for part in ("validation", "test"):
            report = json.loads(printed[part])
            assert {m: format_metric(report[m]) for m in METRIC_NAMES} == {
                m: first[part][m] for m in METRIC_NAMES
            }

    def test_evaluate_scores_every_model_run_writes(self, plan_file, tmp_path, capsys):
        assert run_cli(["run", str(plan_file), "--set", "models.kinds=logreg, dtree",
                        "--set", "samplers.methods=none, rus"]) == 0
        data = self._eval_data(tmp_path, capsys)
        saved = sorted((tmp_path / "out" / "models").glob("*.model"))
        assert len(saved) == 4
        for path in saved:
            code, captured = self._evaluate(capsys, path, data)
            assert code == 0, captured.err
            assert json.loads(captured.out)["accuracy"] >= 0.8

    @pytest.mark.parametrize(
        "content,message",
        [
            ("{not json", "not a model bundle"),
            ('{"kind": "dtree", "root": {"prob": 0.5}}', "missing key 'format_version'"),
            ('{"format_version": 1, "features": [], "model": {}, "threshold": 0.5}',
             "missing key 'scaler'"),
            ('{"format_version": 2, "features": [], "model": {}, "scaler": {}, "threshold": 0.5}',
             "unsupported bundle format_version 2"),
            (six_feature_bundle(format_version=True), "unsupported bundle format_version True"),
            (six_feature_bundle(format_version=1.0), "unsupported bundle format_version 1.0"),
            (DEEP_BUNDLE, "maximum recursion depth exceeded"),
            (six_feature_bundle(feature=99), "tree feature index 99 is outside its 6 features"),
            (six_feature_bundle(feature=1.5), "tree feature index 1.5 is outside its 6 features"),
            (six_feature_bundle(mean=[0.0] * 3), "scaler has 3 means and 6 stds for 6 features"),
            (six_feature_bundle(feature=-2), "tree feature index -2 is outside its 6 features"),
            (six_feature_bundle(split=float("nan")), "threshold nan is not a finite number"),
            (six_feature_bundle(split=None), "threshold None is not a finite number"),
            (six_feature_bundle(prob="x"), "prob 'x' is not a number in [0, 1]"),
            (six_feature_bundle(model={"kind": "forest", "flat_trees": []}), "forest has no trees"),
            (six_feature_bundle(mean=None), "scaler mean and std must be finite"),
            (six_feature_bundle(std=[1.0] * 5 + [float("nan")]), "scaler mean and std must be finite"),
            (six_feature_bundle(threshold="x"), "threshold 'x' is not a number in [0, 1]"),
            (six_feature_bundle(threshold=5), "threshold 5 is not a number in [0, 1]"),
            (six_feature_bundle(features=5), "features 5 are not a list of strings"),
            (six_feature_bundle(features=["f0"] * 6), "repeat a name"),
            (six_feature_bundle(model=logreg_payload(5)), "network input shape [5] does not fit 6 features"),
            (six_feature_bundle(feature=-1), "tree node 0: leaf with children 1, 2"),
            (logreg_bundle(1, lambda net: net.update(layers=[])),
             "network layers do not end in a one-unit sigmoid head"),
            (logreg_bundle(3, lambda net: net.update(layers=[])),
             "network layers do not end in a one-unit sigmoid head"),
            (logreg_bundle(6, lambda net: net["layers"].pop()),
             "network layers do not end in a one-unit sigmoid head"),
            (logreg_bundle(6, lambda net: net.update(layers={})), "layers is a dict, not a list"),
            ("[]", "bundle is a list, not an object"),
            (six_feature_bundle(model=[]), "model is a list, not an object"),
            (six_feature_bundle(scaler=[]), "scaler is a list, not an object"),
            (six_feature_bundle(model={"kind": "dtree", "flat_tree": []}),
             "flat_tree is a list, not an object"),
            (six_feature_bundle(model={"kind": "forest", "flat_trees": [ONE_SPLIT, []]}),
             "flat_trees[1] is a list, not an object"),
            (logreg_bundle(6, lambda net: net["layers"][0].update(params=[])),
             "layers[0] params is a list, not an object"),
            (logreg_bundle(6, lambda net: net["layers"][0]["params"].update(W=[])),
             "layers[0] params W is a list, not an object"),
            (logreg_bundle(6, lambda net: net["layers"][0].update(hyperparams=[])),
             "layers[0] hyperparams is a list, not an object"),
            (logreg_bundle(6, lambda net: net["layers"][1].update(kind="conv9d")),
             "layers[1] kind 'conv9d' is not one of dense, conv1d, conv2d, maxpool1d, dropout, "
             "flatten, activation, lstm"),
            (logreg_bundle(6, lambda net: net["layers"][0].update(kind=["dense"])),
             "layers[0] kind ['dense'] is not one of dense, conv1d"),
            (six_feature_bundle(model={"kind": ["dtree"], "flat_tree": ONE_SPLIT}),
             "model kind ['dtree'] is not one of cnn2d, cnn1d, lstm, logreg, dtree, forest"),
            (six_feature_bundle(model={"kind": "svm"}), "model kind 'svm' is not one of cnn2d"),
            (six_feature_bundle(model={"kind": "forest", "trees": [{"prob": 0.5}, []]}),
             "missing key 'flat_trees'"),
            (six_feature_bundle(model={"kind": "dtree", "root": {
                "feature": 0, "threshold": 0.5, "left": [1], "right": {"prob": 1.0}}}),
             "missing key 'flat_tree'"),
            (network_bundle("lstm", build_lstm, hyperparams(0, inner_act="sigmoid")),
             "layers[0] hyperparams: inner_act 'sigmoid' is not one of tanh, relu"),
            (logreg_bundle(6, hyperparams(0, init="xavier")),
             "layers[0] hyperparams: init 'xavier' is not one of glorot, he"),
            (network_bundle("lstm", build_lstm, hyperparams(0, hidden="5")),
             "layers[0] hyperparams: hidden '5' is not a positive int"),
            (network_bundle("cnn1d", build_cnn1d, hyperparams(4, rate="0.5")),
             "layers[4] hyperparams: rate '0.5' is not a number in [0, 1)"),
            (six_feature_bundle(categories={"f1": ["a", "b", "a"]}),
             "categories of 'f1' ['a', 'b', 'a'] repeat a value"),
            (six_feature_bundle(categories={"zzz": ["a"]}),
             "categories key 'zzz' is not one of the features"),
            (network_bundle("cnn2d", lambda _: build_cnn2d(),
                            lambda net: net.update(input_shape=[30])),
             "conv2d kernel 3x3 does not fit input shape [30]"),
            (network_bundle("cnn1d", build_cnn1d, lambda net: net.update(input_shape=[5, 6, 1])),
             "conv1d kernel 1 does not fit input shape [5, 6, 1]"),
            (network_bundle("cnn1d", build_cnn1d, hyperparams(5, pool=2)),
             "layers[5] hyperparams: pool 2 is not 1"),
            (network_bundle("cnn1d", build_cnn1d, hyperparams(1, activation="softmax")),
             "layers[1] hyperparams: unknown activation 'softmax'"),
            (network_bundle("lstm", build_lstm, lambda net: net.update(input_shape=[3, 6])),
             "lstm expects input shape [1, input_dim], got [3, 6]"),
        ],
        ids=["not-json", "bare-tree", "no-scaler", "version-2", "version-true", "version-1.0",
             "nested-too-deep",
             "tree-feature-99", "tree-feature-1.5", "short-scaler", "tree-feature--2",
             "tree-split-nan", "tree-split-null", "tree-prob-string", "forest-no-trees",
             "scaler-mean-null", "scaler-std-nan", "threshold-string", "threshold-5",
             "features-int", "features-repeat", "network-width", "tree-feature--1-children",
             "no-layers-1-feature", "no-layers-3-features", "no-sigmoid-head", "layers-dict",
             "bundle-list", "model-list", "scaler-list", "flat-tree-list", "flat-trees-1-list",
             "params-list", "param-list", "hyperparams-list", "layer-kind-conv9d",
             "layer-kind-list", "model-kind-list", "model-kind-svm", "nested-trees-1-list",
             "nested-left-list", "lstm-inner-act-sigmoid", "dense-init-xavier",
             "lstm-hidden-string", "dropout-rate-string", "categories-repeat",
             "categories-unknown-feature", "cnn2d-input-30", "cnn1d-input-5x6x1",
             "maxpool1d-pool-2", "activation-softmax", "lstm-input-3x6"],
    )
    def test_evaluate_rejects_non_bundle(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.model"
        path.write_text(content)
        code, captured = self._evaluate(capsys, path, self._eval_data(tmp_path, capsys))
        assert code == 1
        assert f"{path}: " in captured.err and message in captured.err

    def test_evaluate_scores_the_unedited_hand_written_bundle(self, tmp_path, capsys):
        path = tmp_path / "ok.model"
        path.write_text(six_feature_bundle())
        code, captured = self._evaluate(capsys, path, self._eval_data(tmp_path, capsys))
        assert code == 0, captured.err

    def test_evaluate_aligns_columns_by_name(self, plan_file, tmp_path, capsys):
        assert run_cli(["train", str(plan_file), "--set", "models.kinds=dtree"]) == 0
        bundle = tmp_path / "out" / "trained.model"
        data = self._eval_data(tmp_path, capsys)
        with open(data, newline="") as fh:
            rows = [row[-2::-1] + row[-1:] for row in csv.reader(fh)]
        assert rows[0] == ["f5", "f4", "f3", "f2", "f1", "f0", "is_fraud"]
        swapped = tmp_path / "swapped.csv"
        with open(swapped, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        code, original = self._evaluate(capsys, bundle, data)
        assert code == 0
        code, reordered = self._evaluate(capsys, bundle, swapped)
        assert code == 0
        assert json.loads(reordered.out) == json.loads(original.out)

        code, captured = self._evaluate(capsys, bundle, data, "--drop", "f3")
        assert code == 1
        assert "['f0', 'f1', 'f2', 'f4', 'f5']" in captured.err
        assert "['f0', 'f1', 'f2', 'f3', 'f4', 'f5']" in captured.err


class TestCategoricalBundle:
    """A bundle stores each categorical column's mapping; evaluate re-applies it."""

    def _write(self, path, rows):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["amount", "country", "Class"])
            writer.writerows(rows)

    def _train(self, tmp_path, capsys):
        # Fraud depends on the country alone, so the tree splits on its codes.
        rng = np.random.default_rng(3)
        countries = ["AU", "US", "FR", "DE"]
        rows = []
        for i in range(400):
            country = countries[int(rng.integers(0, 4))]
            fraud = int(country in ("FR", "DE") and rng.random() < 0.9)
            rows.append([repr(float(rng.normal())), country, fraud])
        data = tmp_path / "data.csv"
        self._write(data, rows)
        plan = tmp_path / "plan.cfg"
        plan.write_text(
            f"[plan]\nseed = 3\noutput_dir = {tmp_path / 'out'}\n\n"
            f"[dataset]\ntype = csv\npath = {data}\nlabel = Class\ncategorical = country\n\n"
            "[models]\nkinds = dtree\nmax_depth = 4\n"
        )
        assert run_cli(["train", str(plan)]) == 0
        capsys.readouterr()
        return tmp_path / "out" / "trained.model", data, rows

    def _evaluate(self, capsys, bundle, data):
        code = run_cli(["evaluate", str(bundle), str(data), "--categorical", "country"])
        captured = capsys.readouterr()
        return code, captured

    def test_scoring_order_does_not_change_codes(self, tmp_path, capsys):
        bundle, data, rows = self._train(tmp_path, capsys)
        assert json.loads(bundle.read_text())["categories"] == {"country": ["DE", "AU", "US", "FR"]}
        resorted = tmp_path / "resorted.csv"
        self._write(resorted, sorted(rows, key=lambda r: r[1] != "FR"))
        code, original = self._evaluate(capsys, bundle, data)
        assert code == 0
        code, reordered = self._evaluate(capsys, bundle, resorted)
        assert code == 0
        assert json.loads(reordered.out) == json.loads(original.out)
        assert json.loads(original.out)["accuracy"] > 0.9

    def test_unseen_category_exits_one(self, tmp_path, capsys):
        bundle, data, rows = self._train(tmp_path, capsys)
        unseen = tmp_path / "unseen.csv"
        self._write(unseen, rows[:5] + [["1.0", "NZ", 0]] + rows[5:])
        code, captured = self._evaluate(capsys, bundle, unseen)
        assert code == 1
        assert "line 7: category 'NZ' in column 'country'" in captured.err

    def test_bundle_without_categories_exits_one(self, plan_file, tmp_path, capsys):
        assert run_cli(["train", str(plan_file), "--set", "models.kinds=dtree"]) == 0
        bundle = tmp_path / "out" / "trained.model"
        payload = json.loads(bundle.read_text())
        assert payload.pop("categories") == {}
        bundle.write_text(json.dumps(payload))
        data = tmp_path / "eval.csv"
        assert run_cli(["gen-synth", str(data), "--n-rows", "50", "--n-features", "6",
                        "--seed", "7", "--separation", "4.0", "--fraud-fraction", "0.2"]) == 0
        assert run_cli(["evaluate", str(bundle), str(data), "--label", "is_fraud"]) == 1
        assert f"{bundle}: not a model bundle: missing key 'categories'" in capsys.readouterr().err
