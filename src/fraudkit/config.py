"""Plan and schema config files: flat key/value text with section headers.

Grammar (INI, parsed with configparser):

    [plan]      name, seed, output_dir, test_frac, val_frac, threshold, jobs
    [dataset]   type = synthetic | csv
                synthetic: n_rows, n_features, fraud_fraction, separation,
                           seed (defaults to [plan] seed)
                csv: path, label, categorical (comma list), drop (comma list)
    [models]    kinds = comma list of {cnn2d,cnn1d,lstm,logreg,dtree,forest};
                optional hidden, inner_act, n_trees, max_depth, min_leaf
    [samplers]  methods = comma list of {none,rus,nearmiss,smote};
                ratio (finite, > 0), nearmiss_version (1, 2 or 3),
                k_neighbors (>= 0; 0 picks the method's default)
    [sweep]     ratios = comma list of majority:minority ratios
    [train]     lr (finite, > 0), epochs_max, batch_size, patience (each >= 1)

These are the only sections and keys: any other is a ConfigError naming
it. Command-line --set section.key=value overrides win over file values.
Every run echoes its fully resolved config; rerunning from the echo
reproduces outputs byte-identically.
"""

import configparser
import io
import math

from fraudkit.experiments import ExperimentPlan, ModelSpec, TrainConfig
from fraudkit.resample import SAMPLER_METHODS, SamplerConfig
from fraudkit.synth import SyntheticSpec


class ConfigError(ValueError):
    pass


PLAN_KEYS = {
    "plan": {"name", "seed", "output_dir", "test_frac", "val_frac", "threshold", "jobs"},
    "dataset": {"type", "n_rows", "n_features", "fraud_fraction", "separation", "seed",
                "path", "label", "categorical", "drop"},
    "models": {"kinds", "hidden", "inner_act", "n_trees", "max_depth", "min_leaf"},
    "samplers": {"methods", "nearmiss_version", "k_neighbors", "ratio"},
    "sweep": {"ratios"},
    "train": {"lr", "epochs_max", "batch_size", "patience"},
}


def _parser():
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # column names are case-sensitive
    return cp


def _csv_list(value):
    return [v.strip() for v in value.split(",") if v.strip()]


def _number(value):
    f = float(value)
    return int(f) if f == int(f) else f


def load_plan(path, overrides=()):
    cp = _parser()
    if not cp.read(path, encoding="utf-8"):
        raise ConfigError(f"cannot read config file {path}")
    for item in overrides:
        try:
            key, value = item.split("=", 1)
            section, option = key.split(".", 1)
        except ValueError:
            raise ConfigError(f"override must look like section.key=value: {item!r}") from None
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section.strip(), option.strip(), value.strip())
    return plan_from_parser(cp)


def plan_from_parser(cp):
    for section in cp.sections():
        if section not in PLAN_KEYS:
            raise ConfigError(f"unknown plan section [{section}]")
        for key in cp[section]:
            if key not in PLAN_KEYS[section]:
                raise ConfigError(f"unknown plan key [{section}] {key}")
    plan = ExperimentPlan()
    if cp.has_section("plan"):
        sec = cp["plan"]
        plan.name = sec.get("name", plan.name)
        plan.seed = sec.getint("seed", plan.seed)
        plan.output_dir = sec.get("output_dir", plan.output_dir)
        plan.test_frac = sec.getfloat("test_frac", plan.test_frac)
        plan.val_frac = sec.getfloat("val_frac", plan.val_frac)
        plan.threshold = sec.getfloat("threshold", plan.threshold)
        plan.jobs = sec.getint("jobs", plan.jobs)

    if not cp.has_section("dataset"):
        raise ConfigError("config needs a [dataset] section")
    sec = cp["dataset"]
    kind = sec.get("type", "synthetic")
    if kind == "synthetic":
        plan.synthetic = SyntheticSpec(
            n_rows=sec.getint("n_rows", 1000),
            n_features=sec.getint("n_features", 10),
            fraud_fraction=sec.getfloat("fraud_fraction", 0.1),
            separation=sec.getfloat("separation", 2.0),
            seed=sec.getint("seed", plan.seed),
        )
    elif kind == "csv":
        plan.dataset_path = sec.get("path")
        if not plan.dataset_path:
            raise ConfigError("[dataset] type=csv needs a path")
        plan.label = sec.get("label", plan.label)
        plan.categorical = tuple(_csv_list(sec.get("categorical", "")))
        plan.drop = tuple(_csv_list(sec.get("drop", "")))
    else:
        raise ConfigError(f"unknown dataset type {kind!r}")

    if cp.has_section("models"):
        sec = cp["models"]
        shared = {}
        for key in ("hidden", "n_trees", "max_depth", "min_leaf"):
            if key in sec:
                shared[key] = sec.getint(key)
        if "inner_act" in sec:
            shared["inner_act"] = sec.get("inner_act")
        plan.models = [ModelSpec(kind, dict(shared)) for kind in _csv_list(sec.get("kinds", "logreg"))]

    if cp.has_section("samplers"):
        sec = cp["samplers"]
        methods = _csv_list(sec.get("methods", "none"))
        ratio = sec.getfloat("ratio", 1.0)
        version = sec.getint("nearmiss_version", 1)
        k = sec.getint("k_neighbors", 0)
        for method in methods:
            if method not in SAMPLER_METHODS:
                raise ConfigError(f"[samplers] methods: unknown method {method!r}, "
                                  f"expected one of {', '.join(SAMPLER_METHODS)}")
        if not 0.0 < ratio < math.inf:
            raise ConfigError(f"[samplers] ratio must be finite and > 0, got {ratio!r}")
        if version not in (1, 2, 3):
            raise ConfigError(f"[samplers] nearmiss_version must be 1, 2 or 3, got {version}")
        if k < 0:
            raise ConfigError(f"[samplers] k_neighbors must be >= 0, got {k}")
        plan.samplers = [
            SamplerConfig(method=method, nearmiss_version=version, k_neighbors=k, ratio=ratio)
            for method in methods
        ]

    if cp.has_section("sweep"):
        plan.ratios = [_number(v) for v in _csv_list(cp["sweep"].get("ratios", ""))] or plan.ratios

    if cp.has_section("train"):
        sec = cp["train"]
        plan.train = TrainConfig(
            lr=sec.getfloat("lr", 0.001),
            epochs_max=sec.getint("epochs_max", 100),
            batch_size=sec.getint("batch_size", 256),
            patience=sec.getint("patience", 5),
        )
        if not 0.0 < plan.train.lr < math.inf:
            raise ConfigError(f"[train] lr must be finite and > 0, got {plan.train.lr!r}")
        for key in ("epochs_max", "batch_size", "patience"):
            if getattr(plan.train, key) < 1:
                raise ConfigError(f"[train] {key} must be >= 1, got {getattr(plan.train, key)}")
    return plan


def plan_to_config_text(plan):
    """Canonical config echo: fixed section/key order, normalized values."""
    cp = _parser()
    cp["plan"] = {
        "name": plan.name,
        "seed": str(plan.seed),
        "output_dir": plan.output_dir,
        "test_frac": repr(plan.test_frac),
        "val_frac": repr(plan.val_frac),
        "threshold": repr(plan.threshold),
        "jobs": str(plan.jobs),
    }
    if plan.synthetic is not None:
        s = plan.synthetic
        cp["dataset"] = {
            "type": "synthetic",
            "n_rows": str(s.n_rows),
            "n_features": str(s.n_features),
            "fraud_fraction": repr(s.fraud_fraction),
            "separation": repr(s.separation),
            "seed": str(s.seed),
        }
    else:
        cp["dataset"] = {
            "type": "csv",
            "path": plan.dataset_path,
            "label": plan.label,
            "categorical": ", ".join(plan.categorical),
            "drop": ", ".join(plan.drop),
        }
    models = {"kinds": ", ".join(m.kind for m in plan.models)}
    for m in plan.models:
        for k, v in m.params.items():
            models[k] = str(v)
    cp["models"] = models
    s0 = plan.samplers[0]
    cp["samplers"] = {
        "methods": ", ".join(s.method for s in plan.samplers),
        "ratio": repr(s0.ratio),
        "nearmiss_version": str(s0.nearmiss_version),
        "k_neighbors": str(s0.k_neighbors),
    }
    cp["sweep"] = {"ratios": ", ".join(str(r) for r in plan.ratios)}
    cp["train"] = {
        "lr": repr(plan.train.lr),
        "epochs_max": str(plan.train.epochs_max),
        "batch_size": str(plan.train.batch_size),
        "patience": str(plan.train.patience),
    }
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def load_schema_config(path):
    """Schema file: [columns] name = kind; optional [missing] name = policy."""
    from fraudkit.ingest import ColumnSchema

    cp = _parser()
    if not cp.read(path, encoding="utf-8"):
        raise ConfigError(f"cannot read schema file {path}")
    if not cp.has_section("columns"):
        raise ConfigError(f"{path}: schema needs a [columns] section")
    policies = dict(cp["missing"]) if cp.has_section("missing") else {}
    return [
        ColumnSchema(name, kind.strip(), policies.get(name, "drop_row"))
        for name, kind in cp["columns"].items()
    ]
