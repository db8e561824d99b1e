"""The benchmark's workloads: their inputs, one timed pass each, and checks.

Every workload runs on synthetic sets with the paper's shape (30
features, 492 frauds per 284,807 rows, fraud mean 4 standard deviations
away) at a fraction of its rows; see README.md for why.

Run as a script, this file executes one task in a fresh process, so the
CPU time and peak resident set of a pass belong to that pass alone:

    python3 perfbench/workloads.py '{"task": "pass", "workload": ..., ...}'

It prints one JSON line. Exit code 3 means a correctness check failed;
the reason goes to stderr.
"""

import dataclasses
import json
import math
import sys
import time
import uuid
from pathlib import Path

import numpy as np

from fraudkit.experiments import (
    ExperimentPlan,
    ModelSpec,
    emit_report,
    prepare,
    run_cell,
    run_experiment,
)
from fraudkit.ingest import ColumnSchema, Dataset, infer_schema, load_csv, profile, write_csv
from fraudkit.metrics import evaluate_predictions
from fraudkit.models import (
    build_cnn1d,
    build_cnn2d,
    build_logreg,
    build_lstm,
    classify,
    make_model,
    model_from_dict,
    model_to_dict,
    predict,
)
from fraudkit.nn.losses import bce_loss_grad
from fraudkit.nn.optim import Adam
from fraudkit.preprocess import StandardScaler, correlation_matrix, split
from fraudkit.resample import RandomUnderSampler, SamplerConfig, Smote, round_half_away
from fraudkit.rng import derive_seed, generator
from fraudkit.synth import SyntheticSpec, gen_synthetic

from spans import NULL_TRACER, Tracer, cpu_seconds, peak_rss, tracing_cost

PAPER_ROWS = 284_807
N_FEATURES = 30
FRAUD_FRACTION = 492 / PAPER_ROWS
SEPARATION = 4.0
LABEL = "is_fraud"

WORKLOADS = ("ingest-score", "nn-train", "sampling-grid")
# Rows of each synthetic set: a sixth of the paper's for the linear-cost
# CSV workload, a third where NearMiss's n_neg x n_pos work must show.
ROWS = {
    "ingest-score": round(PAPER_ROWS / 6),
    "nn-train": round(PAPER_ROWS / 3),
    "sampling-grid": round(PAPER_ROWS / 3),
}

# ingest-score scores three bundles trained in set-up. cnn2d is left out:
# its predict holds a large im2col buffer, and scoring the whole file
# with it would cost gigabytes of resident memory.
BUNDLE_KINDS = ("cnn1d", "lstm", "dtree")
BUNDLE_RUS_RATIO = 1  # balanced training keeps whole-file recall near 1 on every seed
BUNDLE_EPOCHS = 20
PROBE_ROWS = 4096  # rows whose probabilities must survive the JSON round-trip

NETS = ("cnn2d", "cnn1d", "lstm", "logreg")
EPOCHS = 1  # patience = EPOCHS, so early stopping cannot fire
BATCH = 256
SMOTE_RATIO = 0.1

GRID_MODELS = (ModelSpec("dtree"), ModelSpec("forest", {"n_trees": 10}))
# NearMiss v3 comes first so that both workers open on NearMiss: their
# distance matrices are then alive together on every pass, and the grid's
# peak RSS does not hinge on how cell timings happen to interleave.
GRID_SAMPLERS = (
    SamplerConfig(method="nearmiss", nearmiss_version=3, k_neighbors=3, ratio=1.0),
    SamplerConfig(method="nearmiss", nearmiss_version=1, k_neighbors=3, ratio=1.0),
    SamplerConfig(method="nearmiss", nearmiss_version=2, k_neighbors=3, ratio=1.0),
    SamplerConfig(method="rus", ratio=100.0),
)
LAYER_BATCHES = 64  # fixed training batches per network in the layer probe

BUILDERS = {
    "cnn2d": build_cnn2d,
    "cnn1d": build_cnn1d,
    "lstm": build_lstm,
    "logreg": build_logreg,
}


class CheckError(Exception):
    """A workload produced a wrong output."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------- inputs


def synthetic_spec(workload, seed):
    return SyntheticSpec(
        n_rows=ROWS[workload],
        n_features=N_FEATURES,
        fraud_fraction=FRAUD_FRACTION,
        separation=SEPARATION,
        seed=seed,
    )


def train_bundles(ds, seed):
    """Fit a scaler on the training partition, then each bundle model on a
    balanced random under-sample of it. Returns {kind: (scaler, model)}."""
    idx = split(ds.n_rows, seed=derive_seed(seed, "split"))
    scaler = StandardScaler().fit(ds.features[idx.train])
    X, y = RandomUnderSampler(
        ratio=BUNDLE_RUS_RATIO, seed=derive_seed(seed, "bundle-rus")
    ).fit_resample(scaler.transform(ds.features[idx.train]), ds.labels[idx.train])
    return {
        kind: (
            scaler,
            make_model(
                kind,
                epochs_max=BUNDLE_EPOCHS,
                patience=BUNDLE_EPOCHS,
                seed=derive_seed(seed, f"bundle/{kind}"),
            ).fit(X, y),
        )
        for kind in BUNDLE_KINDS
    }


def bundle_to_json(scaler, model):
    return json.dumps(
        {
            "scaler": {"mean": scaler.mean_.tolist(), "std": scaler.std_.tolist()},
            "model": model_to_dict(model),
        }
    )


def bundle_from_json(text):
    payload = json.loads(text)
    scaler = StandardScaler()
    scaler.mean_ = np.array(payload["scaler"]["mean"], dtype=np.float64)
    scaler.std_ = np.array(payload["scaler"]["std"], dtype=np.float64)
    return scaler, model_from_dict(payload["model"])


def setup(workload, spec, work):
    """Build one workload's inputs: the program's data generation, plus
    training and serialising the bundles in ingest-score. This is what
    setup_s times.

    Returns the in-memory state that `save_expected` hands to the passes.
    """
    ds = gen_synthetic(spec)
    bundles = {}
    if workload == "ingest-score":
        bundles = train_bundles(ds, spec.seed)
        for kind, (scaler, model) in bundles.items():
            (work / f"bundle_{kind}.json").write_text(bundle_to_json(scaler, model))
    return spec, ds, bundles


def save_expected(state, work):
    """The generated set, for the passes to read, and the reference
    predictions of the in-memory bundle models (not timed)."""
    spec, ds, bundles = state
    np.save(work / "features.npy", ds.features)
    np.save(work / "labels.npy", ds.labels)
    meta = {
        "columns": ds.feature_names + [ds.label_name],
        "frauds": ds.n_pos,
        "spec": dataclasses.asdict(spec),
    }
    (work / "meta.json").write_text(json.dumps(meta))
    for kind, (scaler, model) in bundles.items():
        X = scaler.transform(ds.features)
        np.save(work / f"expected_{kind}.npy", classify(model, X))
        np.save(work / f"expected_proba_{kind}.npy", predict(model, X[:PROBE_ROWS]))


class Inputs:
    """One set-up's inputs, read back in a task's process."""

    def __init__(self, task):
        self.work = Path(task["work"])
        self.jobs = task["jobs"]
        self.meta = json.loads((self.work / "meta.json").read_text())
        self.spec = SyntheticSpec(**self.meta["spec"])
        self.seed = self.spec.seed
        names = self.meta["columns"]
        schema = [ColumnSchema(n, "numeric") for n in names[:-1]]
        schema.append(ColumnSchema(names[-1], "label"))
        self.ds = Dataset(
            schema, np.load(self.work / "features.npy"), np.load(self.work / "labels.npy")
        )


# ---------------------------------------------------------------- checks


def bit_equal(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def check_roundtrip(original, loaded):
    require(loaded.feature_names == original.feature_names, "load_csv changed the column names")
    require(
        bit_equal(loaded.features, original.features) and bit_equal(loaded.labels, original.labels),
        "load_csv(write_csv(ds)) is not bit-exact with the generated set",
    )


def check_profile(prof, rows, features, frauds):
    got = (prof.n_rows, prof.n_features, round(prof.fraud_fraction * prof.n_rows))
    require(got == (rows, features, frauds), f"profile gave rows/features/frauds {got}, expected {(rows, features, frauds)}")


def check_predictions(kind, got, expected):
    require(bit_equal(got, expected), f"{kind} bundle predictions differ from the in-memory model's")


def check_class_counts(name, y, n_pos, n_neg):
    got = (int(np.sum(y == 1)), int(np.sum(y == 0)))
    require(
        got == (n_pos, n_neg) and got[0] + got[1] == len(y),
        f"{name} gave {got[0]} positives / {got[1]} negatives, expected {n_pos} / {n_neg}",
    )


def check_history(kind, history, epochs):
    for name in ("train_loss", "val_loss"):
        losses = getattr(history, name)
        require(len(losses) == epochs, f"{kind} {name} has {len(losses)} epochs, expected {epochs}")
        require(all(math.isfinite(v) for v in losses), f"{kind} {name} is not finite: {losses}")


def check_report(name, report):
    """Every defined metric lies in [0, 1]; an empty denominator stays None."""
    for metric in ("accuracy", "precision", "recall", "f1"):
        v = getattr(report, metric)
        require(v is None or 0.0 <= v <= 1.0, f"{name} {metric} = {v!r} is not in [0, 1]")


def check_cells(record, n_points, out_dir):
    require(len(record.cells) == 2 * n_points, f"grid gave {len(record.cells)} cells, expected {2 * n_points}")
    for cell in record.cells:
        require(cell.status == "ok", f"cell {cell.model}/{cell.sampler}/{cell.partition}: {cell.status}")
        check_report(f"{cell.model}/{cell.sampler}/{cell.partition}", cell.report)
    for name in ("record.json", "cells.csv", "timings.csv"):
        require((out_dir / name).is_file(), f"emit_report wrote no {name}")


def sampler_target(cfg, n_pos):
    """Exact (positives, negatives) an under-sampler config must return."""
    return n_pos, round_half_away(cfg.ratio * n_pos)


# ---------------------------------------------------------------- passes
#
# A pass returns (operations attempted, fraud recalls, outputs for its
# check). Every public fraudkit call sits in a span; untraced passes get
# NULL_TRACER.


def ingest_score(inp, tr):
    csv_path = inp.work / "synth.csv"
    with tr.span("ingest.write_csv"):
        write_csv(inp.ds, csv_path)
    with tr.span("ingest.load_csv", rss=True):
        loaded = load_csv(csv_path, infer_schema(csv_path, LABEL))
    with tr.span("ingest.profile"):
        prof = profile(loaded)
    with tr.span("preprocess.correlation"):
        correlation_matrix(loaded)
    scored = {}
    recalls = []
    for kind in BUNDLE_KINDS:
        with tr.span(f"score.{kind}"):
            with tr.span("models.bundle_load"):
                scaler, model = bundle_from_json((inp.work / f"bundle_{kind}.json").read_text())
            with tr.span("preprocess.transform"):
                X = scaler.transform(loaded.features)
            with tr.span(f"models.classify.{kind}", rss=True):
                pred = classify(model, X)
            with tr.span("metrics.evaluate"):
                report = evaluate_predictions(loaded.labels, pred)
        scored[kind] = (scaler, model, pred)
        recalls.append(report.recall)
    return 4 + len(BUNDLE_KINDS), recalls, (loaded, prof, scored)


def check_ingest_score(inp, out):
    loaded, prof, scored = out
    check_roundtrip(inp.ds, loaded)
    meta = inp.meta
    check_profile(prof, inp.spec.n_rows, len(meta["columns"]) - 1, meta["frauds"])
    for kind, (scaler, model, pred) in scored.items():
        check_predictions(kind, pred, np.load(inp.work / f"expected_{kind}.npy"))
        proba = predict(model, scaler.transform(loaded.features[:PROBE_ROWS]))
        check_predictions(kind, proba, np.load(inp.work / f"expected_proba_{kind}.npy"))


def nn_plan(spec):
    return ExperimentPlan(name="nn-train", synthetic=spec, seed=spec.seed)


def nn_train(inp, tr):
    with tr.span("experiments.prepare"):
        prep = prepare(nn_plan(inp.spec), inp.ds)
    with tr.span("resample.smote"):
        X, y = Smote(ratio=SMOTE_RATIO, seed=derive_seed(inp.seed, "smote")).fit_resample(
            prep.X_train, prep.y_train
        )
    # Classify at the training set's fraud share (1/11 after SMOTE 0.1):
    # at 0.5, one-epoch recall swings by twice as much from seed to seed.
    threshold = float(np.mean(y))
    histories, reports = {}, {}
    for kind in NETS:
        model = make_model(
            kind, epochs_max=EPOCHS, patience=EPOCHS, batch_size=BATCH, seed=derive_seed(inp.seed, kind)
        )
        with tr.span(f"nn.{kind}.fit"):
            model.fit(X, y, prep.X_val, prep.y_val)
        histories[kind] = model.history_
        for part, X_eval, y_eval in (
            ("validation", prep.X_val, prep.y_val),
            ("test", prep.X_test, prep.y_test),
        ):
            with tr.span("models.classify"):
                pred = classify(model, X_eval, threshold)
            with tr.span("metrics.evaluate"):
                reports[kind, part] = evaluate_predictions(y_eval, pred)
    recalls = [reports[kind, "validation"].recall for kind in NETS]
    return 2 + 3 * len(NETS), recalls, (prep, y, histories, reports)


def check_nn_train(inp, out):
    prep, y_smote, histories, reports = out
    n_neg = int(np.sum(prep.y_train == 0))
    check_class_counts("smote", y_smote, round_half_away(SMOTE_RATIO * n_neg), n_neg)
    for kind, history in histories.items():
        check_history(kind, history, EPOCHS)
    for (kind, part), report in reports.items():
        check_report(f"{kind}/{part}", report)


def grid_plan(spec, jobs, out_dir):
    return ExperimentPlan(
        name="sampling-grid",
        synthetic=spec,
        seed=spec.seed,
        jobs=jobs,
        models=list(GRID_MODELS),
        samplers=list(GRID_SAMPLERS),
        output_dir=str(out_dir),
    )


def sampling_grid(inp, tr):
    plan = grid_plan(inp.spec, inp.jobs, inp.work / "grid")
    with tr.span("experiments.prepare"):
        prep = prepare(plan, inp.ds)
    with tr.span("experiments.run_experiment"):
        record = run_experiment(plan, prep)
    with tr.span("experiments.emit_report"):
        emit_report(record, plan.output_dir)
    recalls = [c.report.recall for c in record.cells if c.partition == "validation" and c.report]
    return 2 + len(GRID_MODELS) * len(GRID_SAMPLERS), recalls, (plan, prep, record)


def check_sampling_grid(inp, out):
    plan, _, record = out
    check_cells(record, len(GRID_MODELS) * len(GRID_SAMPLERS), Path(plan.output_dir))


def cell_sampler(plan, model_spec, cfg):
    """The sampler config run_cell builds for one grid cell: the grid's
    config with the seed run_cell derives for that cell."""
    cell_seed = derive_seed(
        plan.seed, f"cell/{plan.dataset_name}/{model_spec.name}/{sampler_name(cfg)}/{cfg.ratio}"
    )
    return dataclasses.replace(cfg, seed=derive_seed(cell_seed, "sampler"))


def check_samplers(inp):
    """Every grid cell's sampler returns its exact target class counts.
    The grid keeps no sampler output, so this replays each cell's sampler,
    with the cell's own seed, once per run."""
    plan = grid_plan(inp.spec, inp.jobs, inp.work / "grid")
    prep = prepare(plan, inp.ds)
    n_pos = int(np.sum(prep.y_train == 1))
    for model_spec in GRID_MODELS:
        for cfg in GRID_SAMPLERS:
            _, y = cell_sampler(plan, model_spec, cfg).build().fit_resample(prep.X_train, prep.y_train)
            check_class_counts(
                f"{model_spec.name}/{sampler_name(cfg)}", y, *sampler_target(cfg, n_pos)
            )
    return {}


# ------------------------------------------------------- traced detail


def sampler_name(cfg):
    return f"nearmiss{cfg.nearmiss_version}" if cfg.method == "nearmiss" else cfg.method


def ingest_score_layers(tr, inp, out):
    m = {
        "ingest.write_csv_s": tr.total("ingest.write_csv"),
        "ingest.load_csv_s": tr.total("ingest.load_csv"),
        "ingest.load_csv_rss_mb": tr.rss("ingest.load_csv"),
        "ingest.profile_s": tr.total("ingest.profile"),
        "preprocess.correlation_s": tr.total("preprocess.correlation"),
        "preprocess.transform_s": tr.total("preprocess.transform"),
        "models.bundle_load_s": tr.total("models.bundle_load"),
        "metrics.evaluate_s": tr.total("metrics.evaluate"),
    }
    for kind in BUNDLE_KINDS:
        m[f"models.classify_s.{kind}"] = tr.total(f"models.classify.{kind}")
        m[f"models.classify_rss_mb.{kind}"] = tr.rss(f"models.classify.{kind}")
    return m


def nn_train_layers(tr, inp, out):
    return {f"nn.{kind}.epoch_s": tr.total(f"nn.{kind}.fit") / EPOCHS for kind in NETS}


def _tree_shape(node, depth=0):
    """(nodes, depth) of a fitted CART tree."""
    if node.is_leaf:
        return 1, depth
    ln, ld = _tree_shape(node.left, depth + 1)
    rn, rd = _tree_shape(node.right, depth + 1)
    return 1 + ln + rn, max(ld, rd)


def sampling_grid_layers(tr, inp, out):
    """Replay the grid serially through run_cell, then time each sampler
    and each tree fit directly on the same prepared partition."""
    plan, prep, _ = out
    m = {
        "experiments.prepare_s": tr.total("experiments.prepare"),
        "experiments.emit_report_s": tr.total("experiments.emit_report"),
    }
    serial = 0.0
    cells_ok = 0
    for model_spec in GRID_MODELS:
        for cfg in GRID_SAMPLERS:
            name = f"experiments.cell.{model_spec.name}.{sampler_name(cfg)}"
            with tr.span(name):
                cells, _ = run_cell(prep, plan, model_spec, cfg)
            m[f"experiments.cell_s.{model_spec.name}.{sampler_name(cfg)}"] = tr.total(name)
            serial += tr.total(name)
            cells_ok += sum(c.status == "ok" for c in cells)
    m["experiments.cells_ok"] = cells_ok
    m["experiments.parallel_efficiency"] = serial / (inp.jobs * tr.total("experiments.run_experiment"))

    n_pos = int(np.sum(prep.y_train == 1))
    samplers = [(sampler_name(cfg), cfg.build()) for cfg in GRID_SAMPLERS]
    samplers.append(("smote", Smote(ratio=SMOTE_RATIO, seed=derive_seed(plan.seed, "smote"))))
    resampled = {}
    for name, sampler in samplers:
        with tr.span(f"resample.{name}", rss=True):
            resampled[name] = sampler.fit_resample(prep.X_train, prep.y_train)
        m[f"resample.{name}.s"] = tr.total(f"resample.{name}")
        m[f"resample.{name}.rss_mb"] = tr.rss(f"resample.{name}")
        m[f"resample.{name}.rows_out"] = len(resampled[name][1])
    for cfg in GRID_SAMPLERS:
        name = sampler_name(cfg)
        check_class_counts(name, resampled[name][1], *sampler_target(cfg, n_pos))

    X_fit, y_fit = resampled["rus"]
    for spec in GRID_MODELS:
        model = make_model(spec.kind, seed=derive_seed(plan.seed, spec.kind), **spec.params)
        with tr.span(f"trees.{spec.kind}.fit"):
            model.fit(X_fit, y_fit)
        with tr.span(f"trees.{spec.kind}.predict"):
            model.predict_proba(prep.X_val)
        m[f"trees.{spec.kind}.fit_s"] = tr.total(f"trees.{spec.kind}.fit")
        m[f"trees.{spec.kind}.predict_s"] = tr.total(f"trees.{spec.kind}.predict")
        if spec.kind == "dtree":
            m["trees.dtree.nodes"], m["trees.dtree.depth"] = _tree_shape(model.root_)
    return m


def nn_layers(inp, tr):
    """Time each layer's forward and backward, Adam.step, a whole training
    step, and predict, for every network builder, on fixed batches of the
    prepared training partition."""
    prep = prepare(nn_plan(inp.spec), inp.ds)
    rng = generator(derive_seed(inp.seed, "layer-batches"))
    order = rng.permutation(len(prep.y_train))[: LAYER_BATCHES * BATCH]
    batches = [order[i : i + BATCH] for i in range(0, len(order), BATCH)]
    m = {}
    for kind, build in BUILDERS.items():
        net = build(N_FEATURES).initialize(derive_seed(inp.seed, f"layers/{kind}"))
        dropout_rng = generator(derive_seed(inp.seed, f"dropout/{kind}"))
        optimizer = Adam()
        names = [f"nn.{kind}.{i}.{layer.kind}" for i, layer in enumerate(net.layers)]
        for batch in batches:
            X, y = prep.X_train[batch], prep.y_train[batch]
            net.zero_grads()
            out = X.reshape(len(X), *net.input_shape)
            for name, layer in zip(names, net.layers):
                with tr.span(f"{name}.fwd"):
                    out = layer.forward(out, train=True, rng=dropout_rng)
            grad = bce_loss_grad(out.reshape(len(X)), y).reshape(out.shape)
            for name, layer in zip(reversed(names), reversed(net.layers)):
                with tr.span(f"{name}.bwd"):
                    grad = layer.backward(grad)
            with tr.span(f"nn.{kind}.adam"):
                optimizer.step(net.named_params(), net.named_grads())
        for batch in batches:
            with tr.span(f"nn.{kind}.step"):
                net.loss_and_grads(prep.X_train[batch], prep.y_train[batch], rng=dropout_rng)
                optimizer.step(net.named_params(), net.named_grads())
        with tr.span(f"nn.{kind}.predict", rss=True):
            net.predict_proba(prep.X_val)
        for name in names:
            for d in ("fwd", "bwd"):
                m[f"{name}.{d}_s"] = tr.total(f"{name}.{d}") / len(batches)
        for d in ("adam", "step"):
            m[f"nn.{kind}.{d}_s"] = tr.total(f"nn.{kind}.{d}") / len(batches)
        m[f"nn.{kind}.predict_s"] = tr.total(f"nn.{kind}.predict")
        m[f"nn.{kind}.predict_rss_mb"] = tr.rss(f"nn.{kind}.predict")
    return m


# ---------------------------------------------------------------- tasks

# workload -> (timed pass, its check, per-layer metrics of a traced pass)
PASSES = {
    "ingest-score": (ingest_score, check_ingest_score, ingest_score_layers),
    "nn-train": (nn_train, check_nn_train, nn_train_layers),
    "sampling-grid": (sampling_grid, check_sampling_grid, sampling_grid_layers),
}


def run_pass(task):
    """One pass in this process: timed work, then its (untimed) check."""
    inp = Inputs(task)
    work, check, layers = PASSES[task["workload"]]
    tr = Tracer(uuid.uuid4().hex) if task["trace"] else NULL_TRACER
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    ops, recalls, out = work(inp, tr)
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    rss_mb = peak_rss() / 2**20
    timed_spans = list(tr.spans) if task["trace"] else []
    check(inp, out)
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss_mb,
        "ops": ops,
        "recalls": recalls,
    }
    if task["trace"]:
        result["trace_overhead_s"] = tracing_cost(timed_spans)
        result["layers"] = layers(tr, inp, out)
        result["spans"] = tr.spans
        result["span_table"] = tr.table()
    return result


def run_layers(task):
    inp = Inputs(task)
    tr = Tracer(uuid.uuid4().hex)
    layers = nn_layers(inp, tr)
    return {"layers": layers, "spans": tr.spans, "span_table": tr.table()}


TASKS = {
    "pass": run_pass,
    "layers": run_layers,
    "samplers": lambda task: check_samplers(Inputs(task)),
}


def main(argv):
    task = json.loads(argv[1])
    try:
        result = TASKS[task["task"]](task)
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
