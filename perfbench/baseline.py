"""Record the benchmark baseline of the current checkout.

    python3 perfbench/baseline.py

For each workload: RUNS untraced runs with seeds 1..RUNS, then two traced
runs with seed 1. Writes `perfbench/baseline.json`: the machine, each
end-to-end metric's median and quartile spread ((q3 - q1) / median, from
`statistics.quantiles(values, n=4)`), the workload's detail metrics and
generated-input facts, and the traced per-layer profile with a check that
the two traced runs gave identical counts. Takes about 3 x 12 runs of
`run_seconds` each.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    detail = next(json.loads(ln[len("# detail "):]) for ln in lines if ln.startswith("# detail "))
    return json.loads(lines[-1]), detail


def _summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def _machine() -> dict:
    import numpy

    cpu = next((ln.split(":", 1)[1].strip() for ln in Path("/proc/cpuinfo").read_text().splitlines()
                if ln.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    doc = {"machine": _machine(), "run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = [_run(name, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        e2e = {m["name"]: _summary([r[0]["metrics"][m["name"]]["value"] for r in runs])
               for m in spec["end_to_end"]}
        detail_names = runs[0][1]["workload_metrics"]
        traced = [_run(name, 1, seconds, 1) for _ in range(2)]
        layers = {k: v["value"] for k, v in traced[0][0]["metrics"].items()}
        counts = {k for k, v in traced[0][0]["metrics"].items() if v["unit"] in ("count", "bytes")}
        doc["workloads"][name] = {
            "why": w["why"],
            "correct": all(r[0]["correct"] for r in runs + traced),
            "attempted": sum(r[0]["attempted"] for r in runs),
            "failed": sum(r[0]["failed"] for r in runs),
            "end_to_end": e2e,
            "detail_metrics": {k: _summary([r[1]["workload_metrics"][k] for r in runs])
                               for k in detail_names},
            "inputs_seed_1": runs[0][1]["facts"],
            "per_layer_seed_1": layers,
            "counts_repeat": all(traced[0][0]["metrics"][k] == traced[1][0]["metrics"][k] for k in counts),
        }
        (HERE / "baseline.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(name, {k: round(v["spread"], 4) for k, v in e2e.items()}, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
