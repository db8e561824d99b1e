"""Command-line entry point.

Subcommands: profile, explore, gen-synth, train, evaluate,
sweep-imbalance, compare-sampling, run. Exit codes: 0 success,
1 validation error (a data, plan or bundle path that names a directory,
or that cannot be opened for want of permission, among them), 2 runtime
failure. Human-readable output goes to stdout, diagnostics to stderr,
machine formats only to files; gen-synth's status line is a diagnostic,
so `gen-synth /dev/stdout > f.csv` writes only the CSV.
"""

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import fraudkit
from fraudkit.base import FraudkitError
from fraudkit.config import _csv_list, load_plan, load_schema_config, plan_to_config_text
from fraudkit.experiments import emit_report, imbalance_points, prepare, run_cell, run_experiment
from fraudkit.ingest import SchemaError, infer_schema, load_csv, profile, write_csv
from fraudkit.metrics import evaluate_predictions
from fraudkit.models import classify, load_bundle
from fraudkit.preprocess import correlation_matrix
from fraudkit.svg import heatmap
from fraudkit.synth import SyntheticSpec, gen_synthetic

OUTPUT_DIR_ENV = "FRAUDKIT_OUTPUT_DIR"


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; validation errors are exit 1 here.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def _dataset_args(sub):
    sub.add_argument("data", help="comma-delimited dataset file")
    sub.add_argument("--label", default="Class", help="label column name")
    sub.add_argument("--schema", help="schema config file ([columns]/[missing] sections)")
    sub.add_argument("--categorical", default="", help="comma list of categorical columns")
    sub.add_argument("--drop", default="", help="comma list of columns to drop")


def _load_dataset(args, categories=None):
    """Load the data file; categories (name -> stored mapping) makes those
    feature columns categorical and encodes them with that mapping."""
    if args.schema:
        schema = load_schema_config(args.schema)
    else:
        schema = infer_schema(
            args.data,
            args.label,
            categorical=_csv_list(args.categorical),
            drop=_csv_list(args.drop),
        )
    if categories:
        schema = [
            replace(c, kind="categorical", categories=categories[c.name])
            if c.name in categories and c.kind in ("numeric", "categorical") else c
            for c in schema
        ]
    return load_csv(args.data, schema)


def _output_dir(args, default="out"):
    out = args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or default
    Path(out).mkdir(parents=True, exist_ok=True)
    return Path(out)


def _plan_overrides(args):
    overrides = list(args.set or [])
    if args.seed is not None:
        overrides.append(f"plan.seed={args.seed}")
    if args.output_dir:
        overrides.append(f"plan.output_dir={args.output_dir}")
    if args.jobs is not None:
        overrides.append(f"plan.jobs={args.jobs}")
    return overrides


def _resolve_plan(args):
    """Load and validate the plan, settle its output dir, echo resolved.cfg."""
    plan = load_plan(args.config, _plan_overrides(args))
    plan.validate()
    out = _output_dir(args, default=plan.output_dir)
    plan.output_dir = str(out)
    (out / "resolved.cfg").write_text(plan_to_config_text(plan))
    print(f"resolved config -> {out / 'resolved.cfg'}", file=sys.stderr)
    return plan, out


def cmd_profile(args):
    ds = _load_dataset(args)
    print(json.dumps(profile(ds).to_dict(), indent=2))
    return 0


def cmd_explore(args):
    ds = _load_dataset(args)
    out = _output_dir(args)
    result = correlation_matrix(ds, include_label=args.include_label)
    csv_path = out / "correlation.csv"
    result.to_csv(csv_path)
    svg_path = out / "correlation.svg"
    svg_path.write_text(heatmap(result.matrix, result.names, title=Path(args.data).name))
    print(f"wrote {csv_path} and {svg_path}")
    return 0


def cmd_gen_synth(args):
    """Options not given keep SyntheticSpec's defaults."""
    given = {f.name: getattr(args, f.name, None) for f in fields(SyntheticSpec)}
    ds = gen_synthetic(SyntheticSpec(**{k: v for k, v in given.items() if v is not None}))
    write_csv(ds, args.out)
    print(f"wrote {ds.n_rows} rows ({ds.n_pos} fraud) to {args.out}", file=sys.stderr)
    return 0


def cmd_train(args):
    """Run the plan's first cell (first model, first sampler); save its bundle."""
    plan, out = _resolve_plan(args)
    model_path = out / "trained.model"
    cells, history = run_cell(
        prepare(plan), plan, plan.models[0], plan.samplers[0], model_path=model_path
    )
    if cells[0].status != "ok":
        raise ValueError(cells[0].status)
    if history is not None:
        (out / "history.json").write_text(json.dumps(history, indent=2))
    for cell in cells:
        print(f"{cell.partition}: {json.dumps(cell.report.to_dict())}")
    print(f"model -> {model_path}")
    return 0


def cmd_evaluate(args):
    """Score a bundle on a dataset whose feature columns match it by name,
    encoding categorical columns with the bundle's stored mappings."""
    model, scaler, threshold, features, categories = load_bundle(args.model)
    ds = _load_dataset(args, categories)
    names = ds.feature_names
    if sorted(names) != sorted(features):
        raise SchemaError(f"dataset features {names} do not match the model's {features}")
    X = scaler.transform(ds.features[:, [names.index(f) for f in features]])
    y_pred = classify(model, X, threshold)
    print(json.dumps(evaluate_predictions(ds.labels, y_pred).to_dict(), indent=2))
    return 0


def _run_plan_command(args, chart_name, points=None):
    """Run the grid points that points(plan, prepared) lists (every model x
    sampler when None) and write the reports; every ok cell saves its
    bundle in models/. Exits 1 after the reports when any cell failed."""
    plan, out = _resolve_plan(args)
    prepared = prepare(plan)
    record = run_experiment(plan, prepared, points(plan, prepared) if points else None)
    emit_report(record, out, chart_name=chart_name)
    n_ok = sum(1 for c in record.cells if c.status == "ok")
    n_failed = sum(1 for c in record.cells if c.status.startswith("failed"))
    n_skip = len(record.cells) - n_ok - n_failed
    print(f"{n_ok} cells ok, {n_skip} skipped, {n_failed} failed; reports in {out}")
    if n_failed:
        print(f"error: {n_failed} cells failed", file=sys.stderr)
        return 1
    return 0


def cmd_sweep_imbalance(args):
    return _run_plan_command(args, "imbalance_sweep", imbalance_points)


def cmd_compare_sampling(args):
    """The plan's first model against every sampler config."""
    return _run_plan_command(
        args, "sampling_comparison", lambda plan, _: [(plan.models[0], s, None) for s in plan.samplers]
    )


def cmd_run(args):
    return _run_plan_command(args, "experiment")


def build_parser():
    parser = _ArgumentParser(prog="fraudkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"fraudkit {fraudkit.__version__}")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("profile", help="dataset profile as JSON")
    _dataset_args(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("explore", help="correlation matrix CSV + SVG heatmap")
    _dataset_args(p)
    p.add_argument("--include-label", action="store_true")
    p.add_argument("--output-dir")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("gen-synth", help="generate a synthetic dataset CSV")
    p.add_argument("out")
    p.add_argument("--n-rows", type=int)
    p.add_argument("--n-features", type=int)
    p.add_argument("--fraud-fraction", type=float)
    p.add_argument("--separation", type=float)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gen_synth)

    for name, func in (
        ("train", cmd_train),
        ("sweep-imbalance", cmd_sweep_imbalance),
        ("compare-sampling", cmd_compare_sampling),
        ("run", cmd_run),
    ):
        p = sub.add_parser(name)
        p.add_argument("config", help="plan config file")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
        p.add_argument("--output-dir")
        p.add_argument("--jobs", type=int)
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
        p.set_defaults(func=func)

    p = sub.add_parser("evaluate", help="evaluate a trained model bundle on a dataset")
    p.add_argument("model")
    _dataset_args(p)
    p.set_defaults(func=cmd_evaluate)

    parser.add_argument("--seed", type=int, help="global seed; stage seeds derive from it")
    return parser


def run_cli(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 1
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # stdout's reader went away: not a failure of the command
    except (FraudkitError, ValueError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, PermissionError, FileExistsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def main():
    try:
        code = run_cli()
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
    except BrokenPipeError:
        # The signal module's recipe: send the rest of stdout to devnull, so
        # the flush at exit cannot fail again, and exit 1 as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
