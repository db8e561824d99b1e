"""Peak-RSS rise and minor page faults of one step of code, measured in
a fresh interpreter.

ru_maxrss of a child process starts at its parent's peak, so under pytest
it hides any rise that stays below pytest's own peak. The RSS probe reads
the kernel's counters of its own process from /proc/self/status instead:
VmRSS before the step and VmHWM after it. The fault probe counts
ru_minflt of the interpreter and of the children it reaps, so a step that
forks counts its children's faults too.
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


FAULTS = """
import resource

def faults():
    return sum(resource.getrusage(who).ru_minflt
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
"""


def peak_rise_mb(setup, step, *argv):
    """Run setup, then step, in a fresh interpreter whose sys.argv[1:] is
    argv, and return by how many MB the step raised the peak RSS."""
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    return float(_run([
        STATUS_MB, setup, 'before = status_mb("VmRSS:")', step,
        'print(status_mb("VmHWM:") - before)',
    ], argv))


def minor_faults(setup, step, *argv):
    """Run setup, then step, in a fresh interpreter whose sys.argv[1:] is
    argv, and return the minor page faults the step took, its reaped
    children's included."""
    pytest.importorskip("resource")
    return int(_run([FAULTS, setup, "before = faults()", step, "print(faults() - before)"], argv))


def _run(lines, argv):
    """The output of the probe made of lines, run with fraudkit's sources
    importable."""
    src = str(Path(fraudkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", "\n".join(lines), *argv],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
