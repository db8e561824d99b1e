"""Mutated bundles: `fraudkit evaluate` either scores one (exit 0) or rejects
it (exit 1), and never fails at run time (exit 2).

The bundles come from a small `fraudkit run` of a dtree, a forest and a
logreg model. Each example applies one to three edits anywhere in one
bundle's JSON: drop a key, give a value another type, or shrink or grow a
list.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraudkit.cli import run_cli

PLAN = """\
[plan]
seed = 3
output_dir = {out}

[dataset]
type = synthetic
n_rows = 300
n_features = 4
fraud_fraction = 0.2
separation = 3.0

[models]
kinds = dtree, forest, logreg
n_trees = 2
max_depth = 4

[samplers]
methods = rus

[train]
epochs_max = 2
"""

# Values of other types, the edges of the checked ranges, and JSON's non-finite numbers.
REPLACEMENTS = [None, True, 0, -1, 2, 10**6, 0.5, -0.5, 1.5, float("nan"), float("inf"),
                "x", "", [], [0], [0.5, None], {}, {"prob": 0.5}]


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(list(argv))
    return code, err.getvalue()


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """(payload per model kind, scoring CSV, path to write edited bundles to)."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "plan.cfg").write_text(PLAN.format(out=root / "out"))
    assert _cli("run", str(root / "plan.cfg"))[0] == 0
    data = root / "eval.csv"
    assert _cli("gen-synth", str(data), "--n-rows", "40", "--n-features", "4",
                "--fraud-fraction", "0.2", "--separation", "3.0", "--seed", "3")[0] == 0
    payloads = {}
    for kind in ("dtree", "forest", "logreg"):
        path = root / "out" / "models" / f"synthetic__{kind}__rus__1.0.model"
        assert _cli("evaluate", str(path), str(data), "--label", "is_fraud")[0] == 0
        payloads[kind] = json.loads(path.read_text())
    return payloads, data, root / "edited.model"


def _paths(value, path=()):
    """The path of every value nested in value, value itself included."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


def _edit(payload, data):
    paths = list(_paths(payload))[1:]
    if not paths:
        return
    path = data.draw(st.sampled_from(paths))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    edits = ["replace"] + (["drop"] if isinstance(parent, dict) else [])
    edits += ["shrink", "grow"] if isinstance(value, list) and value else []
    edit = data.draw(st.sampled_from(edits))
    if edit == "drop":
        del parent[key]
    elif edit == "replace":
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(REPLACEMENTS)))
    elif edit == "shrink":
        del value[data.draw(st.integers(0, len(value) - 1))]
    else:
        value.append(copy.deepcopy(value[data.draw(st.integers(0, len(value) - 1))]))


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_evaluate_never_fails_at_run_time_on_an_edited_bundle(golden, data):
    payloads, csv_path, path = golden
    payload = copy.deepcopy(payloads[data.draw(st.sampled_from(sorted(payloads)))])
    for _ in range(data.draw(st.integers(1, 3))):
        _edit(payload, data)
    path.write_text(json.dumps(payload))
    code, err = _cli("evaluate", str(path), str(csv_path), "--label", "is_fraud")
    assert code in (0, 1), err
