import pytest

from fraudkit.config import (
    ConfigError,
    load_plan,
    load_schema_config,
    plan_to_config_text,
)

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
