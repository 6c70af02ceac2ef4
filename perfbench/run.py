"""Benchmark of billiard-lens: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload lens-implicit --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
The run sets up the seeded inputs, repeats whole passes of the workload until
`--seconds` have elapsed, checks every output against its oracle and prints
one metric per line, then a `# detail` JSON line and, last, the result:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics: `setup_s` (median of several
fresh-process set-ups: import, scene generation, writing and loading),
`wall_s` (one pass: the sum over its calls of each call's median time
across the passes) and `peak_rss_mb` (this fresh process). Both times are
taken at the host's undisturbed speed: a shared host that slows down for
seconds at a time slows a fixed reference kernel alike, so each call is
timed relative to kernel runs around it (workloads.Clock); raw pass times
are in the detail line. `--trace 1`
spends half the time on untraced passes and half on passes traced by
`tracer.py`, and reports the per-layer metrics. Spans are written to
`.perfbench_out/<workload>/spans.npz`. Exit code 1 means a check failed,
2 that the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4      # fresh processes timing set-up, besides this one
PROBE_TIMEOUT_S = 60


def _parse(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=("lens-implicit", "livshits", "single-orbit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _timed_setup(workload: str, seed: int, work: Path):
    """Set-up time at the host's undisturbed speed (see workloads.Clock),
    scaled by reference-kernel runs right after it."""
    t0 = time.perf_counter()
    import workloads  # imports billiard_lens: part of the set-up cost

    work.mkdir(parents=True, exist_ok=True)
    inputs = workloads.WORKLOADS[workload][0](work, seed)
    elapsed = time.perf_counter() - t0
    ref = []
    for _ in range(5):
        t0 = time.perf_counter()
        workloads.reference_kernel()
        ref.append(time.perf_counter() - t0)
    return workloads.REF_S * elapsed / statistics.median(ref), workloads, inputs


def _probe_setup(args) -> float:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def _passes(run_pass, inputs, deadline: float, on_pass=None) -> list:
    """Whole passes until the `perf_counter` deadline, give or take half a
    pass (at least one)."""
    out = []
    while True:
        t0 = time.perf_counter()
        res = run_pass(inputs)
        if on_pass is not None:
            on_pass(res)
        if out:
            res.pop("results", None)  # keep one pass of per-call results in memory
        out.append(res)
        now = time.perf_counter()
        if now + 0.5 * (now - t0) >= deadline:
            return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "billiard_lens" / "__init__.py").is_file():
        print("error: src/billiard_lens not found; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    out_dir = ROOT / ".perfbench_out" / args.workload

    if args.setup_probe:
        elapsed, _, _ = _timed_setup(args.workload, args.seed, out_dir.with_name(out_dir.name + "-probe"))
        print(repr(elapsed))
        return 0

    setup_main, workloads, inputs = _timed_setup(args.workload, args.seed, out_dir)
    setup_samples = [setup_main] + [_probe_setup(args) for _ in range(SETUP_PROBES)]
    _, run_pass, check, extra_metrics = workloads.WORKLOADS[args.workload]

    problems, facts = [], {}
    start = time.perf_counter()
    untraced = _passes(run_pass, inputs, start + (args.seconds / 2 if args.trace else args.seconds))
    passes = list(untraced)
    untraced_wall = float(workloads.ref_seconds(untraced).sum())
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (untraced_wall, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if args.trace:
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec)
        aggs = []
        traced = _passes(run_pass, inputs, start + args.seconds,
                         on_pass=lambda res: aggs.append(rec.finish_pass(res["wall_s"])))
        rec.paused = True
        if {r["digest"] for r in traced} != {r["digest"] for r in untraced}:
            problems.append("traced passes give other outputs than untraced ones")
        passes += traced
        layer = tracer.layer_metrics(aggs, float(workloads.ref_seconds(traced).sum()) - untraced_wall)
        counts = [tracer.pass_counts(a) for a in aggs]
        if any(c != counts[0] for c in counts):
            problems.append("work counts differ between identical traced passes")
        rays = counts[0]["flow.trace.calls"]
        statuses = sum(counts[0][f"flow.status.{s}"] for s in tracer.STATUSES)
        if statuses != rays:
            problems.append(f"flow.status.* sum to {statuses}, not to {rays} traced rays")
        expected = passes[0].get("rays_traced")
        if expected is not None and rays != expected:
            problems.append(f"flow.trace.calls = {rays}, but the outputs hold {expected} rays")
        out_dir.mkdir(parents=True, exist_ok=True)
        rec.save(out_dir / "spans.npz")

    found, workload_facts = check(inputs, passes)
    problems += found
    facts.update(workload_facts)
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    workload_metrics = extra_metrics(untraced)
    workload_metrics["fail_fraction"] = (failed / attempted, "1")

    shown = layer if args.trace else metrics
    for name, (value, unit) in {**metrics, **workload_metrics, **(layer if args.trace else {})}.items():
        print(f"{name:44s} {value:>16.6g} {unit}")
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "pass_wall_s": [r["wall_s"] for r in passes],
        "setup_samples_s": setup_samples,
        "end_to_end": {k: v for k, (v, _) in metrics.items()},
        "workload_metrics": {k: v for k, (v, _) in workload_metrics.items()},
        "facts": facts, "problems": problems,
    }
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
