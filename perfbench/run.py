"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ingest-score --seed 7 --seconds 25 --trace 0

Run it from the repository root: fraudkit is imported from ./src.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json and `--trace 1` its per-layer
metrics. A failed correctness check exits 1 and prints no result; a
missing source tree or a crash exits 2.
"""

import argparse
import contextlib
import ctypes
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

# One process generates the load and BLAS runs on one thread: a second
# OpenBLAS thread adds CPU time to the networks for no wall-time gain.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# A run sets up this many synthetic sets, each from its own seed derived
# from --seed, and cycles its passes through them: the median pass then
# averages over the data as well as over the machine.
DATASETS = 3
SETUP_REPEATS = 3  # set-ups timed after each pass; see SetupClock
DEADLINE_S = 170  # the whole run, children included, must end within this


class RunFailed(Exception):
    """A check failed (exit 1) or a child crashed (exit 2)."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(workload, seed, jobs):
    import numpy as np
    import workloads as wl

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = proc.stdout.strip() or None
    return {
        "nproc": jobs,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "jobs": jobs,
        "seed": seed,
        "datasets": DATASETS,
        "rows": wl.ROWS[workload],
        "features": wl.N_FEATURES,
        "frauds": wl.round_half_away(wl.FRAUD_FRACTION * wl.ROWS[workload]),
        "separation": wl.SEPARATION,
        "commit": commit,
    }


class Runner:
    """Starts each task in a fresh interpreter and collects its JSON line."""

    def __init__(self, jobs, deadline):
        self.jobs = jobs
        self.deadline = deadline

    def __call__(self, work, **task):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunFailed(f"run exceeded {DEADLINE_S} s", 2)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "workloads.py"),
                 json.dumps({"work": str(work), "jobs": self.jobs, **task})],
                stdout=subprocess.PIPE, text=True, timeout=remaining, check=False,
            )
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{task} did not finish within {DEADLINE_S} s", 2) from None
        if proc.returncode == 3:
            raise RunFailed(f"correctness check failed in {task}", 1)
        if proc.returncode != 0:
            raise RunFailed(f"{task} exited with code {proc.returncode}", 2)
        return json.loads(proc.stdout.strip().splitlines()[-1])


def set_up(wl, workload, seed, index, work):
    """Build the inputs of one synthetic set in its own directory; returns
    (directory, spec)."""
    directory = work / workload / f"set{index}"
    directory.mkdir(parents=True)
    spec = wl.synthetic_spec(workload, wl.derive_seed(seed, f"perfbench/set/{index}"))
    wl.save_expected(wl.setup(workload, spec, directory), directory)
    return directory, spec


class SetupClock:
    """Times SETUP_REPEATS builds of the run's sets per call, cycling
    through them, into a directory that no pass reads.

    It is called between passes. A build takes a tenth of a second, and
    in trial runs build times shifted by a fifth within seconds, so
    builds spread over the whole run sample the machine far better than
    back-to-back ones.
    """

    def __init__(self, wl, workload, specs, directory):
        directory.mkdir()
        self.build = lambda spec: wl.setup(workload, spec, directory)
        self.specs = itertools.cycle(specs)
        self.seconds = []

    def __call__(self):
        for _ in range(SETUP_REPEATS):
            spec = next(self.specs)
            t0 = time.perf_counter()
            self.build(spec)
            self.seconds.append(time.perf_counter() - t0)


def measure_passes(run, workload, dirs, seconds, between):
    """Cycle passes through the sets, calling `between` after each, until
    the next pass would end past the window. Every set gets a pass after
    the first, which only warms up (see end_to_end), so the first set has
    at least two passes, whose fraud recalls must agree."""
    passes, elapsed = [], []
    start = time.monotonic()
    while len(passes) <= len(dirs) or time.monotonic() - start + statistics.median(elapsed) <= seconds:
        t0 = time.monotonic()
        index = len(passes) % len(dirs)
        passes.append(run(dirs[index], task="pass", workload=workload, trace=False))
        passes[-1]["set"] = index
        elapsed.append(time.monotonic() - t0)
        between()
    for index in range(len(dirs)):
        recalls = {tuple(p["recalls"]) for p in passes if p["set"] == index}
        if len(recalls) != 1:
            raise RunFailed(f"fraud recalls differ between passes over set {index}: {sorted(recalls)}", 1)
    if workload == "sampling-grid":
        run(dirs[0], task="samplers")
    return passes


def end_to_end(passes, setup_times):
    """Medians over every pass but the first: in trial runs the first pass
    after set-up was often the slowest, by up to a tenth."""
    timed = passes[1:]

    def median(key):
        return statistics.median(p[key] for p in timed)

    per_set = {p["set"]: sum(p["recalls"]) / len(p["recalls"]) for p in passes}
    return {
        "wall_s": median("wall_s"),
        "cpu_s": median("cpu_s"),
        "peak_rss_mb": median("peak_rss_mb"),
        "setup_s": statistics.median(setup_times),
        "recall_mean": sum(per_set.values()) / len(per_set),
    }


def traced(run, workload, dirs):
    """The traced tour of every module; returns (passes, layers, spans).

    The tour runs each workload's pass with spans (the sampling-grid one
    also replays its cells serially and times samplers and tree fits
    directly), then the per-layer network probe. Every traced run thus
    reports every per-layer name. trace.overhead_s is the tracing cost
    that the named workload's traced pass estimates for itself.
    """
    passes, layers, spans = [], {}, {}
    for name, directory in dirs.items():
        res = run(directory, task="pass", workload=name, trace=True)
        passes.append(res)
        layers.update(res["layers"])
        spans[name] = res
        if name == workload:
            layers["trace.overhead_s"] = res["trace_overhead_s"]
    res = run(dirs["nn-train"], task="layers")
    layers.update(res["layers"])
    spans["nn-layers"] = res
    return passes, layers, spans


def report_lines(metrics, units, attempted):
    """One `name value unit` line per metric, then the JSON result line."""
    lines = [f"{name} {metrics[name]} {unit}" for name, unit in units.items()]
    lines.append(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": 0,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return lines


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "fraudkit" / "__init__.py").is_file():
        print(f"error: no fraudkit sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    os.environ.update(BLAS_ENV)
    os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads as wl

    deadline = time.monotonic() + DEADLINE_S
    jobs = len(os.sched_getaffinity(0))
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Runner(jobs, deadline)
        if args.trace:
            dirs = {w: set_up(wl, w, args.seed, 0, work)[0] for w in wl.WORKLOADS}
            passes, metrics, spans = traced(run, args.workload, dirs)
        else:
            sets = [set_up(wl, args.workload, args.seed, i, work) for i in range(DATASETS)]
            clock = SetupClock(wl, args.workload, [spec for _, spec in sets], work / "rebuild")
            passes = measure_passes(run, args.workload, [d for d, _ in sets], args.seconds, clock)
            metrics = end_to_end(passes, clock.seconds)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()

    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    env = environment(args.workload, args.seed, jobs)
    attempted = sum(p["ops"] for p in passes)
    print("env " + json.dumps(env))
    if args.trace:
        out = ROOT / ".perfbench-out" / f"trace-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"env": env, "per_layer": metrics, "runs": spans}) + "\n")
        print(f"spans written to {out}")
    else:
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            print(f"passes {key} " + " ".join(str(p[key]) for p in passes))
        print(f"fail_share 0 ratio (0 of {attempted} operations failed)")
    print("\n".join(report_lines(metrics, units, attempted)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
