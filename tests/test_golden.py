"""Golden plan: `fraudkit run` must reproduce the committed outputs byte for byte.

tests/golden/nets.cfg trains every network builder and a CART baseline
with and without random under-sampling; cells.csv and resolved.cfg next
to it are its committed outputs. A change that moves any metric of any
cell, or the resolved plan echo, fails here and has to re-baseline the
files openly.
"""

import shutil
from pathlib import Path

from fraudkit.cli import OUTPUT_DIR_ENV, run_cli

GOLDEN = Path(__file__).parent / "golden"


def test_golden_nets_plan(tmp_path, monkeypatch):
    shutil.copy(GOLDEN / "nets.cfg", tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    assert run_cli(["run", "nets.cfg"]) == 0
    for name in ("cells.csv", "resolved.cfg"):
        assert (tmp_path / "out" / name).read_bytes() == (GOLDEN / name).read_bytes(), name
