"""Run the benchmark over many seeds and write a baseline file.

    python3 perfbench/baseline.py

Run it from the repository root. For every workload of BENCHMARK.json
it runs `perfbench/run.py` once per seed in SEEDS with tracing off,
then once with tracing on at TRACE_SEED. Into OUT it writes
`baseline.json` (every run's metrics, and per metric the median,
quartiles and their distance as a share of the median) and
`per_layer.md` (the traced per-layer table of each workload).
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = list(range(101, 111))
TRACE_SEED = 7
OUT = Path("perfbench/results")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    return env, json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    per_layer = [m["name"] for m in bench["per_layer"]]

    result, tables = {"seeds": SEEDS, "workloads": {}}, {}
    for workload in workloads:
        runs = []
        for seed in SEEDS:
            env, res = run_once(workload, seed, bench["run_seconds"], 0)
            runs.append({"seed": seed, "attempted": res["attempted"], "failed": res["failed"],
                         **{k: v["value"] for k, v in res["metrics"].items()}})
            print(workload, runs[-1], flush=True)
        env, traced = run_once(workload, TRACE_SEED, bench["run_seconds"], 1)
        tables[workload] = {k: v["value"] for k, v in traced["metrics"].items()}
        result["workloads"][workload] = {
            "env": {k: v for k, v in env.items() if k != "seed"},
            "runs": runs,
            "summary": {m["name"]: summarize([r[m["name"]] for r in runs]) for m in bench["end_to_end"]},
            "traced": {"seed": TRACE_SEED, **tables[workload]},
        }

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "baseline.json").write_text(json.dumps(result, indent=1) + "\n")
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    lines = [f"# Traced per-layer metrics, seed {TRACE_SEED}", "",
             "Each column is one `--trace 1` run of that workload. Every traced run",
             "measures every module, so the columns differ by machine noise and in",
             "`trace.overhead_s`, which belongs to the named workload.", "",
             "| Metric | Unit | " + " | ".join(workloads) + " |",
             "|---|---|" + "---|" * len(workloads)]
    for name in per_layer:
        cells = " | ".join(f"{tables[w][name]:.6g}" for w in workloads)
        lines.append(f"| `{name}` | {units[name]} | {cells} |")
    (OUT / "per_layer.md").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
