"""Plan and schema config files: flat key/value text with section headers.

A plan is an INI file (parsed with configparser) whose sections and keys
are the rows of PLAN_TABLE below: each row gives a key's section, name,
type and check, and a key not given takes the value of a plan that sets
nothing (_defaults). The unknown-key check, parsing, the value checks
and the resolved.cfg echo all read those rows. Any other section or key,
any value that does not parse and any value, given or default, that
fails its check is a ConfigError naming [section] key. Command-line
--set section.key=value overrides win over file values. Every run echoes
its fully resolved config; rerunning from the echo reproduces outputs
byte-identically. [samplers] nearmiss_version takes a comma list, as
methods does: each version is a sampler config of its own, and the grid
draws NearMiss versions with one k from one distance pass.
"""

import configparser
import io
import math
from dataclasses import dataclass

from fraudkit.base import ConfigError
from fraudkit.experiments import ExperimentPlan, ModelSpec, TrainConfig, sweep_ratios_ok
from fraudkit.models import MODEL_KINDS
from fraudkit.resample import SAMPLER_METHODS, SamplerConfig
from fraudkit.synth import SyntheticSpec


def _csv_list(value):
    return [v.strip() for v in value.split(",") if v.strip()]


def _numbers(value):
    """Comma list of numbers; integral values become ints (1, not 1.0)."""
    return [int(f) if f.is_integer() else f for f in map(float, _csv_list(value))]


def _integers(value):
    return [int(v) for v in _csv_list(value)]


_TYPE_NAMES = {int: "an integer", float: "a number", _numbers: "a comma list of numbers",
               _integers: "a comma list of integers"}


def _holds(test, text):
    """Check that value passes test, described as 'must be <text>'."""
    return lambda value: None if test(value) else f" must be {text}, got {value!r}"


def _members(choices, what):
    """Check that a list value is non-empty and each item is one of choices,
    named once."""
    def check(values):
        if not values:
            return f" must be non-empty, got {values!r}"
        for n, v in enumerate(values):
            if v not in choices:
                return f": unknown {what} {v!r}, expected one of {', '.join(map(str, choices))}"
            if v in values[:n]:
                return f": {what} {v!r} is listed twice"
        return None
    return check


def _at_least(n):
    return _holds(lambda v: v >= n, f">= {n}")


_FINITE_POSITIVE = _holds(lambda v: 0.0 < v < math.inf, "finite and > 0")
_FRACTION = _holds(lambda v: 0.0 < v < 1.0, "in (0, 1)")


@dataclass(frozen=True)
class Key:
    """One plan key. type parses the text. A key whose default (from
    _defaults) is None stays unset unless given, and the echo omits it. check returns a
    problem (the text after '[section] key') or None. when names the
    [dataset] type the key belongs to; keys of the other type are ignored."""

    section: str
    name: str
    type: object
    check: object = None
    when: str | None = None


# Rows in echo order. Each [models] key after kinds applies to every
# model kind, and [samplers] ratio and k_neighbors apply to every method.
# [samplers] nearmiss_version lists the NearMiss versions the grid runs,
# each a sampler config of its own.
PLAN_TABLE = (
    Key("plan", "name", str),
    Key("plan", "seed", int),
    Key("plan", "output_dir", str),
    Key("plan", "test_frac", float, _FRACTION),
    Key("plan", "val_frac", float, _FRACTION),
    Key("plan", "threshold", float, _holds(lambda v: 0.0 <= v <= 1.0, "in [0, 1]")),
    Key("plan", "jobs", int, _at_least(1)),
    Key("dataset", "type", str, _holds(lambda v: v in ("synthetic", "csv"), "synthetic or csv")),
    Key("dataset", "n_rows", int, _at_least(2), when="synthetic"),
    Key("dataset", "n_features", int, _at_least(1), when="synthetic"),
    Key("dataset", "fraud_fraction", float, _FRACTION, when="synthetic"),
    Key("dataset", "separation", float,
        _holds(lambda v: 0.0 <= v < math.inf, "finite and >= 0"), when="synthetic"),
    Key("dataset", "seed", int, when="synthetic"),
    Key("dataset", "path", str, _holds(bool, "given for type = csv"), when="csv"),
    Key("dataset", "label", str, when="csv"),
    Key("dataset", "categorical", _csv_list, when="csv"),
    Key("dataset", "drop", _csv_list, when="csv"),
    Key("models", "kinds", _csv_list, _members(MODEL_KINDS, "model kind")),
    Key("models", "hidden", int, _at_least(1)),
    Key("models", "n_trees", int, _at_least(1)),
    Key("models", "max_depth", int, _at_least(0)),
    Key("models", "min_leaf", int, _at_least(1)),
    Key("models", "inner_act", str, _holds(lambda v: v in ("tanh", "relu"), "tanh or relu")),
    Key("samplers", "methods", _csv_list, _members(SAMPLER_METHODS, "method")),
    Key("samplers", "ratio", float, _FINITE_POSITIVE),
    Key("samplers", "nearmiss_version", _integers, _members((1, 2, 3), "NearMiss version")),
    Key("samplers", "k_neighbors", int, _at_least(0)),
    Key("sweep", "ratios", _numbers, _holds(
        lambda v: v and sweep_ratios_ok(v), "non-empty, finite, >= 1 and strictly ascending")),
    Key("train", "lr", float, _FINITE_POSITIVE),
    Key("train", "epochs_max", int, _at_least(1)),
    Key("train", "batch_size", int, _at_least(1)),
    Key("train", "patience", int, _at_least(1)),
)


def _parser():
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # column names are case-sensitive
    return cp


def _read(cp, path, what):
    """Read the what file at path into cp. A file that cannot be read, or
    that configparser rejects, is a ConfigError naming it and, when
    rejected, its first bad line."""
    try:
        if cp.read(path, encoding="utf-8"):
            return
    except configparser.DuplicateSectionError as exc:
        line, problem = exc.lineno, f"section [{exc.section}] is repeated"
    except configparser.DuplicateOptionError as exc:
        line, problem = exc.lineno, f"key {exc.option} is repeated in [{exc.section}]"
    except configparser.MissingSectionHeaderError as exc:
        line, problem = exc.lineno, f"no [section] header before {exc.line!r}"
    except configparser.ParsingError as exc:
        line, text = exc.errors[0]
        problem = f"not a key = value line: {text}"
    else:
        raise ConfigError(f"cannot read {what} file {path}")
    raise ConfigError(f"{path}: line {line}: {problem}")


def load_plan(path, overrides=()):
    cp = _parser()
    _read(cp, path, "config")
    for item in overrides:
        try:
            key, value = item.split("=", 1)
            section, option = (part.strip() for part in key.split(".", 1))
        except ValueError:
            raise ConfigError(f"override must look like section.key=value: {item!r}") from None
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, option, value.strip())

    values = {row.section: {} for row in PLAN_TABLE}
    for section in cp.sections():
        if section not in values:
            raise ConfigError(f"unknown plan section [{section}]")
        for key in cp[section]:
            if not any(row.section == section and row.name == key for row in PLAN_TABLE):
                raise ConfigError(f"unknown plan key [{section}] {key}")
    if not cp.has_section("dataset"):
        raise ConfigError("config needs a [dataset] section")
    defaults = _defaults(cp.get("dataset", "type", fallback=None))
    for row in PLAN_TABLE:
        if row.when not in (None, values["dataset"].get("type")):
            continue
        text = cp.get(row.section, row.name, fallback=None)
        try:
            value = defaults[row.section].get(row.name) if text is None else row.type(text)
        except (ValueError, OverflowError):
            raise ConfigError(
                f"[{row.section}] {row.name} must be {_TYPE_NAMES[row.type]}, got {text!r}"
            ) from None
        if value is None:
            continue
        problem = row.check and row.check(value)
        if problem:
            raise ConfigError(f"[{row.section}] {row.name}{problem}")
        values[row.section][row.name] = value
    return _plan_from_values(values)


def _defaults(source_type):
    """_plan_values of a plan that sets nothing but its source type (unset:
    synthetic). [dataset] seed stays unset, so it follows [plan] seed."""
    if source_type == "csv":
        return _plan_values(ExperimentPlan(dataset_path=""))
    values = _plan_values(ExperimentPlan(synthetic=SyntheticSpec()))
    del values["dataset"]["seed"]
    return values


def _plan_from_values(values):
    """Build the plan from {section: {key: value}}; inverse of _plan_values."""
    dataset, models, samplers = values["dataset"], values["models"], values["samplers"]
    kinds, methods = models.pop("kinds"), samplers.pop("methods")
    versions = samplers.pop("nearmiss_version")
    if dataset.pop("type") == "synthetic":
        source = {"synthetic": SyntheticSpec(**{"seed": values["plan"]["seed"], **dataset})}
    else:
        source = {"dataset_path": dataset["path"], "label": dataset["label"],
                  "categorical": tuple(dataset["categorical"]), "drop": tuple(dataset["drop"])}
    return ExperimentPlan(
        **values["plan"],
        **source,
        models=[ModelSpec(kind, dict(models)) for kind in kinds],
        samplers=[
            SamplerConfig(method, nearmiss_version=version, **samplers)
            for method in methods
            for version in (versions if method == "nearmiss" else versions[:1])
        ],
        ratios=list(values["sweep"]["ratios"]),
        train=TrainConfig(**values["train"]),
    )


def _plan_values(plan):
    """The plan as {section: {key: value}}; keys outside the table are ignored."""
    if plan.synthetic is not None:
        dataset = {"type": "synthetic", **vars(plan.synthetic)}
    else:
        dataset = {"type": "csv", "path": plan.dataset_path, "label": plan.label,
                   "categorical": plan.categorical, "drop": plan.drop}
    params = {k: v for m in plan.models for k, v in m.params.items()}
    return {
        "plan": vars(plan),
        "dataset": dataset,
        "models": {"kinds": [m.kind for m in plan.models], **params},
        "samplers": {
            **vars(plan.samplers[0]),
            "methods": list(dict.fromkeys(s.method for s in plan.samplers)),
            "nearmiss_version": [s.nearmiss_version for s in plan.samplers
                                 if s.method == "nearmiss"] or [plan.samplers[0].nearmiss_version],
        },
        "sweep": {"ratios": plan.ratios},
        "train": vars(plan.train),
    }


def plan_to_config_text(plan):
    """Canonical config echo: every set key, in table order."""
    values = _plan_values(plan)
    text = {}
    for row in PLAN_TABLE:
        value = values[row.section].get(row.name)
        if value is not None:
            text.setdefault(row.section, {})[row.name] = (
                ", ".join(map(str, value)) if isinstance(value, (list, tuple)) else str(value)
            )
    cp = _parser()
    cp.read_dict(text)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def load_schema_config(path):
    """Schema file: [columns] name = kind; optional [missing] name = policy."""
    from fraudkit.ingest import ColumnSchema

    cp = _parser()
    _read(cp, path, "schema")
    if not cp.has_section("columns"):
        raise ConfigError(f"{path}: schema needs a [columns] section")
    policies = dict(cp["missing"]) if cp.has_section("missing") else {}
    return [
        ColumnSchema(name, kind.strip(), policies.get(name, "drop_row"))
        for name, kind in cp["columns"].items()
    ]
