"""The benchmark in `perfbench/` wraps named functions and methods of the
package at run time, and stops a run when one of them is gone. Installing
its tracer here makes a rename fail in the test suite instead."""

from pathlib import Path

from conftest import run_python

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_tracer_installs_on_every_wrapped_name():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tracer; "
            "tracer.install(tracer.Recorder())")
    done = run_python("-c", code, str(PERFBENCH))
    assert done.returncode == 0, done.stderr


_TABLE_CHECKS = """
import random, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import workloads
from billiard_lens import cli, lens
work = Path(sys.argv[2])
path, scene = workloads._write_scene(work, workloads._two_disc(random.Random(4)))
out = work / "two.jsonl"
assert cli.main(["lens", "--scene", path, "--spec", "grid:16x16", "--out", str(out)]) == 0
spec = lens.parse_spec("grid:16x16")
rows = workloads._read_jsonl(out)[1]
assert sum(r["status"] == "scattered" for r in rows) > 0
print(workloads._round_trip_problems(scene, spec, out))
print(workloads._reversal_problems(scene, spec, [r["params"] for r in rows], rows,
                                   random.Random(4), "two-disc"))
"""


def test_benchmark_table_checks_pass_on_a_written_table(tmp_path):
    # the benchmark reads tables through the package's own table API (row
    # views of a table read back, entries of the sampler): a change to it
    # that would stop those checks fails here
    done = run_python("-c", _TABLE_CHECKS, str(PERFBENCH), str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "[]"]


_WORKLOAD_CHECKS = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import workloads
for name in sys.argv[3:]:
    setup, run_pass, check, _ = workloads.WORKLOADS[name]
    work = Path(sys.argv[2]) / name
    work.mkdir()
    inputs = setup(work, 4)
    result = run_pass(inputs)
    problems, _ = check(inputs, [result])
    print(name, result["failed"], list(problems))
"""


_TRACED_PASS = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import tracer, workloads
setup, run_pass, _, _ = workloads.WORKLOADS["lens-implicit"]
inputs = setup(Path(sys.argv[2]), 4)
untraced = run_pass(inputs)
rec = tracer.Recorder()
tracer.install(rec)
traced = run_pass(inputs)
agg = rec.finish_pass(traced["wall_s"])
rec.paused = True
tracer.layer_metrics([agg], 0.0)
counts = tracer.pass_counts(agg)
statuses = sum(counts["flow.status." + s] for s in tracer.STATUSES)
print(counts["flow.trace.calls"], statuses, untraced["rays_traced"], traced["rays_traced"])
print(untraced["digest"] == traced["digest"], untraced["failed"], traced["failed"],
      untraced["codes"] + traced["codes"])
"""


def test_benchmark_traced_pass_keeps_its_checks(tmp_path):
    # a `--trace 1` run wraps the package's callables (tracer.install) and
    # checks what run.py checks: the traced ray statuses sum to the traced
    # rays, which are the rays the outputs hold, and traced outputs equal
    # untraced ones. One untraced and one traced lens-implicit pass, seed 4
    done = run_python("-c", _TRACED_PASS, str(PERFBENCH), str(tmp_path))
    assert done.returncode == 0, done.stderr
    rays, statuses, untraced_rays, traced_rays = map(int, done.stdout.split()[:4])
    assert rays == statuses == untraced_rays == traced_rays > 0, done.stdout
    assert done.stdout.splitlines()[1] == "True 0 0 [0, 0, 0, 0, 0, 0, 0, 0, 0, 0]", done.stdout


def test_benchmark_workloads_pass_their_checks(tmp_path):
    # each workload's set-up (seed 4), one pass and its check, as a benchmark
    # run makes them: a check that fails, a failed operation or an exception
    # fails here, with what the run printed. Every workload writes its scenes
    # and reads them back, so a reader that refuses one fails here too
    names = ["lens-implicit", "livshits", "single-orbit"]
    done = run_python("-c", _WORKLOAD_CHECKS, str(PERFBENCH), str(tmp_path), *names)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [f"{name} 0 []" for name in names], done.stdout
