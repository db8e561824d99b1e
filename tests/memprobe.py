"""Peak-RSS rise of one step of code, measured in a fresh interpreter.

ru_maxrss of a child process starts at its parent's peak, so under pytest
it hides any rise that stays below pytest's own peak. The probe reads the
kernel's counters of its own process from /proc/self/status instead:
VmRSS before the step and VmHWM after it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fraudkit

STATUS_MB = """
def status_mb(field):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(field)) / 1024
"""


def peak_rise_mb(setup, step, *argv):
    """Run setup, then step, in a fresh interpreter whose sys.argv[1:] is
    argv, and return by how many MB the step raised the peak RSS."""
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    probe = "\n".join([
        STATUS_MB, setup, 'before = status_mb("VmRSS:")', step,
        'print(status_mb("VmHWM:") - before)',
    ])
    src = str(Path(fraudkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, check=True
    ).stdout
    return float(out)
