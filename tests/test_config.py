from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraudkit.cli import run_cli
from fraudkit.config import (
    PLAN_TABLE,
    ConfigError,
    load_plan,
    load_schema_config,
    plan_to_config_text,
)
from fraudkit.experiments import ExperimentPlan, ModelSpec, TrainConfig
from fraudkit.models import MODEL_KINDS, make_model
from fraudkit.resample import SamplerConfig
from fraudkit.synth import SyntheticSpec

PLAN_TEXT = """\
[plan]
name = demo
seed = 9
output_dir = results
threshold = 0.4

[dataset]
type = synthetic
n_rows = 500
n_features = 8
fraud_fraction = 0.25
separation = 3.0

[models]
kinds = logreg, dtree
max_depth = 4

[samplers]
methods = none, rus
ratio = 2.0

[sweep]
ratios = 1, 5, 10

[train]
lr = 0.01
epochs_max = 7
batch_size = 64
patience = 2
"""


@pytest.fixture
def plan_file(tmp_path):
    path = tmp_path / "plan.cfg"
    path.write_text(PLAN_TEXT)
    return path


class TestLoadPlan:
    def test_fields(self, plan_file):
        plan = load_plan(plan_file)
        assert plan.name == "demo"
        assert plan.seed == 9
        assert plan.threshold == 0.4
        assert plan.synthetic.n_rows == 500
        assert [m.kind for m in plan.models] == ["logreg", "dtree"]
        assert plan.models[1].params["max_depth"] == 4
        assert [s.method for s in plan.samplers] == ["none", "rus"]
        assert plan.samplers[1].ratio == 2.0
        assert plan.ratios == [1, 5, 10]
        assert plan.train.epochs_max == 7

    def test_overrides_win(self, plan_file):
        plan = load_plan(plan_file, ["plan.seed=42", "train.lr=0.5"])
        assert plan.seed == 42
        assert plan.train.lr == 0.5

    def test_bad_override(self, plan_file):
        with pytest.raises(ConfigError):
            load_plan(plan_file, ["no-equals-sign"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_plan(tmp_path / "nope.cfg")

    def test_needs_dataset_section(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text("[plan]\nseed = 1\n")
        with pytest.raises(ConfigError, match="dataset"):
            load_plan(path)

    def test_unknown_dataset_type(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text("[dataset]\ntype = parquet\n")
        with pytest.raises(ConfigError):
            load_plan(path)

    def test_csv_needs_path(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text("[dataset]\ntype = csv\n")
        with pytest.raises(ConfigError, match="path"):
            load_plan(path)

    def test_unknown_key_in_file(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text("[dataset]\ntype = synthetic\nn_row = 50\n")
        with pytest.raises(ConfigError, match=r"\[dataset\] n_row"):
            load_plan(path)

    @pytest.mark.parametrize(
        "text,named",
        [
            ("seed = 1\n[dataset]\n", "line 1: no [section] header before 'seed = 1\\n'"),
            ("[dataset]\ntype = synthetic\ntype = csv\n",
             "line 3: key type is repeated in [dataset]"),
            ("[dataset]\n[plan]\nseed = 1\n[dataset]\n", "line 4: section [dataset] is repeated"),
            ("[dataset]\nn_rows 50\n", "line 2: not a key = value line: 'n_rows 50\\n'"),
        ],
        ids=["no-section-header", "repeated-key", "repeated-section", "no-equals-sign"],
    )
    def test_malformed_file_names_file_and_line(self, tmp_path, capsys, text, named):
        path = tmp_path / "p.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_plan(path)
        assert str(err.value) == f"{path}: {named}"
        assert run_cli(["run", str(path)]) == 1
        assert f"error: {path}: {named}" in capsys.readouterr().err

    def test_table_defaults_match_library_defaults(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text("[dataset]\n")
        assert load_plan(path) == ExperimentPlan(synthetic=SyntheticSpec())

    def test_csv_dataset_fields(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text(
            "[dataset]\ntype = csv\npath = data.csv\nlabel = isFraud\n"
            "categorical = country, declined\ndrop = id\n"
        )
        plan = load_plan(path)
        assert plan.dataset_path == "data.csv"
        assert plan.label == "isFraud"
        assert plan.categorical == ("country", "declined")
        assert plan.drop == ("id",)


class TestEcho:
    def test_round_trip_is_fixed_point(self, plan_file, tmp_path):
        plan = load_plan(plan_file)
        echo = plan_to_config_text(plan)
        echoed_file = tmp_path / "resolved.cfg"
        echoed_file.write_text(echo)
        assert plan_to_config_text(load_plan(echoed_file)) == echo

    def test_nearmiss_versions_echo_as_one_list(self, plan_file, tmp_path):
        # Each version is a sampler config of its own, in the listed order;
        # the other methods keep one config each.
        overrides = ["samplers.methods=nearmiss, rus", "samplers.nearmiss_version=3, 1"]
        plan = load_plan(plan_file, overrides)
        assert [(s.method, s.nearmiss_version) for s in plan.samplers] == [
            ("nearmiss", 3), ("nearmiss", 1), ("rus", 3)
        ]
        echo = plan_to_config_text(plan)
        assert "methods = nearmiss, rus\n" in echo
        assert "nearmiss_version = 3, 1\n" in echo
        echoed_file = tmp_path / "resolved.cfg"
        echoed_file.write_text(echo)
        assert load_plan(echoed_file) == plan

    def test_csv_round_trip_is_fixed_point(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text(
            "[dataset]\ntype = csv\npath = data.csv\nlabel = isFraud\n"
            "categorical = country, declined\ndrop = id\n"
        )
        echo = plan_to_config_text(load_plan(path))
        echoed_file = tmp_path / "resolved.cfg"
        echoed_file.write_text(echo)
        assert plan_to_config_text(load_plan(echoed_file)) == echo


# One value per table row that differs from the row's default and passes
# its check, and one value that fails each checked row's check.
GOOD = {
    ("plan", "name"): "other",
    ("plan", "seed"): "12",
    ("plan", "output_dir"): "elsewhere",
    ("plan", "test_frac"): "0.1",
    ("plan", "val_frac"): "0.3",
    ("plan", "threshold"): "0.25",
    ("plan", "jobs"): "3",
    ("dataset", "type"): "csv",
    ("dataset", "n_rows"): "700",
    ("dataset", "n_features"): "4",
    ("dataset", "fraud_fraction"): "0.3",
    ("dataset", "separation"): "1.5",
    ("dataset", "seed"): "8",
    ("dataset", "path"): "other.csv",
    ("dataset", "label"): "isFraud",
    ("dataset", "categorical"): "country,  declined",
    ("dataset", "drop"): "id",
    ("models", "kinds"): "dtree, forest, cnn1d",
    ("models", "hidden"): "8",
    ("models", "n_trees"): "4",
    ("models", "max_depth"): "0",
    ("models", "min_leaf"): "3",
    ("models", "inner_act"): "tanh",
    ("samplers", "methods"): "rus,smote",
    ("samplers", "ratio"): "2.5",
    ("samplers", "nearmiss_version"): "3",
    ("samplers", "k_neighbors"): "4",
    ("sweep", "ratios"): "1, 2.5, 4.0",
    ("train", "lr"): "0.5",
    ("train", "epochs_max"): "2",
    ("train", "batch_size"): "16",
    ("train", "patience"): "1",
}
BAD = {
    ("plan", "test_frac"): "1.5",
    ("plan", "val_frac"): "0",
    ("plan", "threshold"): "-0.1",
    ("plan", "jobs"): "0",
    ("dataset", "type"): "parquet",
    ("dataset", "n_rows"): "1",
    ("dataset", "n_features"): "0",
    ("dataset", "fraud_fraction"): "1",
    ("dataset", "separation"): "nan",
    ("dataset", "path"): "",
    ("models", "kinds"): "logreg, svm",
    ("models", "hidden"): "0",
    ("models", "n_trees"): "-1",
    ("models", "max_depth"): "-2",
    ("models", "min_leaf"): "0",
    ("models", "inner_act"): "sigmoid",
    ("samplers", "methods"): "tomek",
    ("samplers", "ratio"): "nan",
    ("samplers", "nearmiss_version"): "0",
    ("samplers", "k_neighbors"): "-5",
    ("sweep", "ratios"): "1, inf",
    ("train", "lr"): "-inf",
    ("train", "epochs_max"): "0",
    ("train", "batch_size"): "-1",
    ("train", "patience"): "0",
}
ROW_IDS = [f"{row.section}.{row.name}" for row in PLAN_TABLE]


def test_table_values_cover_every_row():
    assert list(GOOD) == [(row.section, row.name) for row in PLAN_TABLE]
    assert set(BAD) == {(row.section, row.name) for row in PLAN_TABLE if row.check}


def _row_plan(tmp_path, row):
    """A minimal plan whose dataset type is the one the row applies to."""
    path = tmp_path / "plan.cfg"
    path.write_text(f"[dataset]\ntype = {row.when or 'synthetic'}\npath = data.csv\n")
    return path


@pytest.mark.parametrize("row", PLAN_TABLE, ids=ROW_IDS)
def test_row_value_survives_echo(tmp_path, row):
    path = _row_plan(tmp_path, row)
    plan = load_plan(path, [f"{row.section}.{row.name}={GOOD[row.section, row.name]}"])
    assert plan != load_plan(path)
    echoed = tmp_path / "resolved.cfg"
    echoed.write_text(plan_to_config_text(plan))
    assert load_plan(echoed) == plan


@pytest.mark.parametrize("row", [row for row in PLAN_TABLE if row.check],
                         ids=[i for i, row in zip(ROW_IDS, PLAN_TABLE) if row.check])
def test_checked_row_rejects_bad_value(tmp_path, capsys, row):
    path = _row_plan(tmp_path, row)
    override = f"{row.section}.{row.name}={BAD[row.section, row.name]}"
    assert run_cli(["run", str(path), "--output-dir", str(tmp_path / "out"), "--set", override]) == 1
    assert f"error: [{row.section}] {row.name}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "cells.csv").exists()


@pytest.mark.parametrize(
    "override,named",
    [
        ("dataset.n_rows=0", "[dataset] n_rows must be >= 2, got 0"),
        ("dataset.n_features=0", "[dataset] n_features must be >= 1, got 0"),
        ("dataset.fraud_fraction=0", "[dataset] fraud_fraction must be in (0, 1), got 0.0"),
        ("dataset.separation=nan", "[dataset] separation must be finite and >= 0, got nan"),
        ("dataset.separation=inf", "[dataset] separation must be finite and >= 0, got inf"),
        ("dataset.separation=-1", "[dataset] separation must be finite and >= 0, got -1.0"),
    ],
)
def test_bad_synthetic_value_names_its_key(tmp_path, capsys, override, named):
    path = tmp_path / "plan.cfg"
    path.write_text("[dataset]\ntype = synthetic\n")
    assert run_cli(["run", str(path), "--output-dir", str(tmp_path / "out"), "--set", override]) == 1
    assert f"error: {named}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "resolved.cfg").exists()



@pytest.mark.parametrize(
    "override,named",
    [
        ("models.kinds=", "[models] kinds must be non-empty, got []"),
        ("samplers.methods= , ", "[samplers] methods must be non-empty, got []"),
        ("samplers.nearmiss_version= , ", "[samplers] nearmiss_version must be non-empty, got []"),
        ("sweep.ratios=",
         "[sweep] ratios must be non-empty, finite, >= 1 and strictly ascending, got []"),
    ],
)
def test_empty_grid_list_names_its_key(tmp_path, capsys, override, named):
    path = tmp_path / "plan.cfg"
    path.write_text("[dataset]\ntype = synthetic\n")
    assert run_cli(["run", str(path), "--output-dir", str(tmp_path / "out"), "--set", override]) == 1
    assert f"error: {named}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "resolved.cfg").exists()


@pytest.mark.parametrize(
    "override,named",
    [
        ("models.kinds=dtree, dtree", "[models] kinds: model kind 'dtree' is listed twice"),
        ("models.kinds=logreg, dtree, logreg",
         "[models] kinds: model kind 'logreg' is listed twice"),
        ("samplers.methods=none, rus, rus", "[samplers] methods: method 'rus' is listed twice"),
        ("samplers.nearmiss_version=3, 1, 3",
         "[samplers] nearmiss_version: NearMiss version 3 is listed twice"),
        ("sweep.ratios=1, 1, 2",
         "[sweep] ratios must be non-empty, finite, >= 1 and strictly ascending, got [1, 1, 2]"),
        ("sweep.ratios=1, 2, 2.0",
         "[sweep] ratios must be non-empty, finite, >= 1 and strictly ascending, got [1, 2, 2]"),
    ],
)
def test_repeated_grid_entry_names_its_key_and_value(tmp_path, override, named):
    """A repeated entry would run the same cells twice, writing one model
    file from two tasks."""
    path = tmp_path / "plan.cfg"
    path.write_text("[dataset]\ntype = synthetic\n")
    with pytest.raises(ConfigError) as err:
        load_plan(path, [override])
    assert str(err.value) == named


FUZZ_VALUES = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", " ", ",", "0", "1", "2", "3", "-1", "0.5", "1e400", "nan", "-inf",
                     "synthetic", "csv", "tanh", "logreg", "dtree, forest", "none, rus"]),
    st.integers(-10, 10**6).map(str),
    st.floats().map(repr),
    st.lists(st.sampled_from(["1", "2.5", "0", "inf", "x", "", "logreg", "rus"]), max_size=4).map(
        ", ".join
    ),
)


def _config_error(call):
    """The text of the ConfigError call raises, or None."""
    try:
        call()
    except ConfigError as exc:
        return str(exc)
    return None


def _hold(plan, row, value):
    """Set row's key to value in a built plan, as code would: a [models] or
    [samplers] key other than the lists on the second model or sampler
    config only, and a synthetic key past SyntheticSpec's own checks."""
    if row.section in ("plan", "train") or row.when:
        owner = {"plan": plan, "csv": plan, "train": plan.train, "synthetic": plan.synthetic}
        setattr(owner[row.when or row.section], {"path": "dataset_path"}.get(row.name, row.name),
                value)
    elif row.section == "sweep":
        plan.ratios = value
    elif row.name == "kinds":
        plan.models = [ModelSpec(kind) for kind in value]
    elif row.section == "models":
        plan.models = [ModelSpec("logreg"), ModelSpec("lstm", {row.name: value})]
    elif row.name == "methods":
        plan.samplers = [SamplerConfig(method) for method in value]
    elif row.name == "nearmiss_version":
        plan.samplers = [SamplerConfig("none")] + [SamplerConfig("nearmiss", v) for v in value]
    else:
        plan.samplers = [SamplerConfig("none"), SamplerConfig("rus", **{row.name: value})]


@settings(max_examples=400, deadline=None)
@given(row=st.sampled_from(PLAN_TABLE), value=FUZZ_VALUES)
def test_fuzzed_override_loads_or_names_its_key(tmp_path_factory, row, value):
    """A fuzzed value loads or fails naming its key; set in a plan built in
    code, it passes validate or fails it with the plan file's message."""
    directory = tmp_path_factory.mktemp("fuzz")
    data = directory / "data.csv"
    data.write_text("a,Class\n1.0,0\n")
    path = directory / "plan.cfg"
    path.write_text(f"[dataset]\ntype = {row.when or 'synthetic'}\npath = {data}\n")
    message = _config_error(
        lambda: load_plan(path, [f"{row.section}.{row.name}={value}"]).validate()
    )
    if message is not None:
        assert message.startswith(f"[{row.section}] {row.name}")
    try:
        parsed = row.type(value.strip())
    except (ValueError, OverflowError):
        return
    # A built plan holds no [dataset] type, and no empty list of NearMiss
    # versions: those exist only in the text.
    if row.name == "type" or (row.name == "nearmiss_version" and not parsed):
        return
    plan = load_plan(path)
    _hold(plan, row, parsed)
    assert _config_error(plan.validate) == message


@pytest.mark.parametrize("change, message", [
    ({"models": [ModelSpec("dtree", {"max_depth": "3"})]},
     "[models] max_depth must be an integer, got '3'"),
    ({"jobs": 1.5}, "[plan] jobs must be an integer, got 1.5"),
    ({"seed": 1.5}, "[plan] seed must be an integer, got 1.5"),
    ({"jobs": True}, "[plan] jobs must be an integer, got True"),
])
def test_built_plan_value_of_the_wrong_type_names_its_key(change, message):
    plan = ExperimentPlan(synthetic=SyntheticSpec(), **change)
    assert _config_error(plan.validate) == message


# Values of another type than a scalar row's, as code might hold them: a
# bool is neither an integer nor a number.
WRONG_TYPES = {int: ["3", 1.5, True], float: ["0.5", True], str: [3, True]}
TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


@pytest.mark.parametrize(
    "row", [row for row in PLAN_TABLE if row.type in TYPE_NAMES and row.name != "type"],
    ids=lambda row: f"{row.section}.{row.name}",
)
def test_every_scalar_row_refuses_another_type(tmp_path, row):
    data = tmp_path / "data.csv"
    data.write_text("a,Class\n1.0,0\n")
    path = tmp_path / "plan.cfg"
    path.write_text(f"[dataset]\ntype = {row.when or 'synthetic'}\npath = {data}\n")
    for value in WRONG_TYPES[row.type]:
        plan = load_plan(path)
        _hold(plan, row, value)
        assert _config_error(plan.validate) == (
            f"[{row.section}] {row.name} must be {TYPE_NAMES[row.type]}, got {value!r}"
        )


def test_an_integer_is_a_number():
    plan = ExperimentPlan(synthetic=SyntheticSpec(separation=4), threshold=1,
                          train=TrainConfig(lr=1), samplers=[SamplerConfig("rus", ratio=2)])
    plan.validate()


def test_every_field_a_built_plan_sets_has_a_row():
    """Each value a plan built in code can set is checked by a PLAN_TABLE
    row, so no field added later can bypass the rules plan files pass."""
    def rows(section, when=None):
        return {row.name for row in PLAN_TABLE if row.section == section and row.when == when}

    def names(cls):
        return {f.name for f in fields(cls)}

    assert names(TrainConfig) == rows("train")
    assert names(SyntheticSpec) == rows("dataset", "synthetic")
    assert names(SamplerConfig) - {"seed", "method"} | {"methods"} == rows("samplers")
    assert rows("sweep") == {"ratios"}
    # Beside the specs, grids and ratios, a plan holds [plan] keys and the
    # csv source's [dataset] keys, its dataset_path being [dataset] path.
    grids = {"synthetic", "train", "models", "samplers", "ratios", "dataset_path"}
    assert names(ExperimentPlan) - grids | {"path"} == rows("plan") | rows("dataset", "csv")
    # run_cell passes make_model the kind, the cell's seed and [train]'s keys;
    # ModelSpec.params gives every other constructor parameter.
    taken = {name for kind in MODEL_KINDS for name in type(make_model(kind))._param_names()}
    assert taken - {"kind", "seed"} - names(TrainConfig) == rows("models") - {"kinds"}


class TestSchemaConfig:
    def test_columns_and_policies(self, tmp_path):
        path = tmp_path / "schema.cfg"
        path.write_text(
            "[columns]\namount = numeric\ncountry = categorical\nClass = label\n"
            "[missing]\namount = forbid\n"
        )
        schema = load_schema_config(path)
        assert [(c.name, c.kind) for c in schema] == [
            ("amount", "numeric"),
            ("country", "categorical"),
            ("Class", "label"),
        ]
        assert schema[0].missing_policy == "forbid"
        assert schema[1].missing_policy == "drop_row"

    def test_needs_columns_section(self, tmp_path):
        path = tmp_path / "schema.cfg"
        path.write_text("[missing]\na = forbid\n")
        with pytest.raises(ConfigError, match="columns"):
            load_schema_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_schema_config(tmp_path / "nope.cfg")

    def test_repeated_column_names_file_and_line(self, tmp_path):
        path = tmp_path / "schema.cfg"
        path.write_text("[columns]\namount = numeric\nClass = label\namount = drop\n")
        with pytest.raises(ConfigError) as err:
            load_schema_config(path)
        assert str(err.value) == f"{path}: line 4: key amount is repeated in [columns]"
