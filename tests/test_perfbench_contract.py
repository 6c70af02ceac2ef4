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
