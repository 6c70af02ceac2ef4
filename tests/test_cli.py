import argparse
import contextlib
import io
import json
import math
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import billiard_lens as bl
from billiard_lens import cli, flow, geometry, lens, render, variation
from billiard_lens.curves import CurveChain
from billiard_lens.geometry import canonical_json

from conftest import (NUMERIC_FAILURES, entry_through, fail_rays_that_reflect, plugged_crescent_scene,
                      popen_python, run_python)


def _reject_constant(name):
    raise ValueError(f"{name} in JSON output")


def _strict_json(text):
    """json.loads that refuses NaN and Infinity, as a strict JSON reader does."""
    return json.loads(text, parse_constant=_reject_constant)


@pytest.fixture()
def sphere_json(tmp_path):
    scene = bl.make_scene(3, 10.0, [bl.SphereObstacle([0.0, 0.0, 0.0], 1.0)], "one-sphere")
    path = tmp_path / "sphere.json"
    path.write_text(geometry.scene_to_json(scene) + "\n")
    return str(path)


@pytest.fixture()
def disc_json(tmp_path):
    scene = bl.make_scene(2, 10.0, [bl.SphereObstacle([0.0, 0.0], 1.0)], "one-disc")
    path = tmp_path / "disc.json"
    path.write_text(geometry.scene_to_json(scene) + "\n")
    return str(path)


def test_validate_command(sphere_json, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["validate", "--scene", sphere_json, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["obstacle_count"] == 1
    assert doc["header"]["tool"].startswith("billiard-lens")


def test_validate_rejects_bad_scene(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 2, "ball_radius": 10.0, "obstacles": [], "name": "x", "oops": 1}')
    assert cli.main(["validate", "--scene", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert cli.main(["validate", "--scene", str(missing)]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["validate", "--scene", str(broken)]) == 2


@pytest.mark.parametrize("piece", [
    {"type": "line", "p0": [1.0, 0.0], "p1": [1.0, 0.0]},
    {"type": "bump_line", "p0": [1.0, 0.0], "p1": [1.0, 0.0], "amplitude": 0.1,
     "direction": [1.0, 0.0]},
], ids=["line", "bump_line"])
def test_validate_zero_length_segment_exits_2(piece, tmp_path, capsys):
    halves = [{"type": "arc", "center": [0.0, 0.0], "radius": 1.0, "theta0": theta0,
               "theta1": theta0 + math.pi} for theta0 in (0.0, math.pi)]
    scene = {"dimension": 2, "ball_radius": 10.0, "name": "zero-length",
             "obstacles": [{"kind": "curve2d", "center": [0.0, 0.0],
                            "params": {"pieces": [*halves, piece]}}]}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    assert cli.main(["validate", "--scene", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "endpoints" in err
    assert "Traceback" not in err


def test_validate_disconnected_scene_exits_2(tmp_path, capsys):
    scene = tmp_path / "plugged.json"
    scene.write_text(geometry.scene_to_json(plugged_crescent_scene(0.01)) + "\n")
    out = tmp_path / "report.json"
    assert cli.main(["validate", "--scene", str(scene), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exterior_disconnected" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("obstacles, message", [
    ([bl.SphereObstacle([-0.5, 0.0], 1.0), bl.SphereObstacle([0.5, 0.0], 1.0)],
     "a boundary sample of obstacle 1 lies inside obstacle 0"),
    ([bl.SphereObstacle([0.2, 0.0], 0.3), bl.SphereObstacle([0.0, 0.0], 1.0)],
     "a boundary sample of obstacle 0 lies inside obstacle 1"),
], ids=["crossing", "nested"])
def test_validate_overlapping_scene_exits_2(obstacles, message, tmp_path, capsys):
    # obstacles that overlap get no gap figure, which would be positive
    scene = tmp_path / "overlap.json"
    scene.write_text(geometry.scene_to_json(bl.make_scene(2, 10.0, obstacles, "overlap")) + "\n")
    out = tmp_path / "report.json"
    assert cli.main(["validate", "--scene", str(scene), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: overlap: {message}\n"
    assert not out.exists()


def test_trace_command_diametric(sphere_json, tmp_path):
    out = tmp_path / "traj.jsonl"
    svg = tmp_path / "traj.svg"
    code = cli.main([
        "trace", "--scene", sphere_json, "--entry=-10,0,0,1,0,0", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    header = json.loads(lines[0])
    assert header["status"] == "exited"
    assert header["total_time"] == pytest.approx(18.0)
    assert len(lines) == 1 + header["n_events"]


def test_trace_2d_with_svg(disc_json, tmp_path):
    out = tmp_path / "traj.jsonl"
    svg = tmp_path / "traj.svg"
    code = cli.main([
        "trace", "--scene", disc_json, "--entry=-10,0,1,0",
        "--out", str(out), "--svg", str(svg),
    ])
    assert code == 0
    text = svg.read_text()
    assert "<polyline" in text and "<path" in text and "<circle" in text


def test_lens_and_compare_self(disc_json, tmp_path):
    table = tmp_path / "table.jsonl"
    assert cli.main(["lens", "--scene", disc_json, "--spec", "grid:12x8",
                     "--out", str(table)]) == 0
    report = tmp_path / "cmp.json"
    code = cli.main(["compare", "--scene", str(table), "--scene-b", str(table),
                     "--out", str(report), "--expect-equal"])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["report"]["verdict"] == "indistinguishable"
    assert doc["report"]["max_dt"] == 0.0


def _drop_status(lines, k):
    row = json.loads(lines[k])
    del row["status"]
    lines[k] = json.dumps(row)


def _drop_spec(lines, k):
    header = json.loads(lines[0])
    del header["spec"]
    lines[0] = json.dumps(header)


def _array_row(lines, k):
    lines[k] = "[1, 2, 3]"


def _set(key, value):
    def corrupt(lines, k):
        row = json.loads(lines[k])
        row[key] = value
        lines[k] = json.dumps(row)
    return corrupt


@pytest.mark.parametrize("corrupt", [_drop_spec, _drop_status, _array_row, _set("t", "fast"),
                                     _set("q", [1.0, "x"]), _set("status", "bogus"),
                                     _set("reflections", "many"), _set("t", math.nan),
                                     _set("t", None), _set("q", [10.0, 0.0, 0.0]),
                                     _set("reflections", -1), _set("error", 5)],
                         ids=["header-without-spec", "row-without-status", "row-not-object",
                              "text-time", "text-in-q", "unknown-status", "text-reflections",
                              "nan-time", "free-row-without-time", "q-of-three-in-2d",
                              "negative-reflections", "number-error"])
def test_compare_malformed_table_exits_2(disc_json, tmp_path, corrupt):
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    assert cli.main(["lens", "--scene", disc_json, "--spec", "grid:4x4", "--out", str(good)]) == 0
    # the header has one place; a row fault is put in the first row and in a
    # middle one, and the message names the line either way
    for k in [0] if corrupt is _drop_spec else [1, 9]:
        lines = good.read_text().splitlines()
        corrupt(lines, k)
        bad.write_text("\n".join(lines) + "\n")
        proc = run_python("-m", "billiard_lens.cli", "compare", "--scene", str(good),
                          "--scene-b", str(bad))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: lens table line {k + 1}: ")
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("kept", [0, 255], ids=["header-only", "one-row-missing"])
def test_compare_truncated_table_exits_2(disc_json, tmp_path, kept):
    # a table with fewer rows than its spec compares nothing; it must not pass
    # as "indistinguishable" with itself
    full, cut = tmp_path / "full.jsonl", tmp_path / "cut.jsonl"
    assert cli.main(["lens", "--scene", disc_json, "--spec", "grid:16x16", "--out", str(full)]) == 0
    lines = full.read_text().splitlines()
    cut.write_text("\n".join(lines[:1 + kept]) + "\n")
    proc = run_python("-m", "billiard_lens.cli", "compare", "--scene", str(cut),
                      "--scene-b", str(cut), "--expect-equal")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert f"has {kept} rows" in proc.stderr and "grid:16x16 has 256" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.fixture()
def three_block_table(disc_json, tmp_path):
    """The lines of a 2,304-row table (grid:48x48): three blocks, the last
    of 256 rows."""
    path = tmp_path / "three-blocks.jsonl"
    assert cli.main(["lens", "--scene", disc_json, "--spec", "grid:48x48", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 2 * lens.BLOCK_ROWS + 256
    return lines


def _edit(lines, k, key, value):
    """lines with the row of line k + 1 given value at key."""
    row = json.loads(lines[k])
    row[key] = value(row[key])
    return lines[:k] + [canonical_json(row)] + lines[k + 1:]


_FIRST, _THIRD = 1 + 10, 1 + 2 * lens.BLOCK_ROWS + 10  # a row of the first block, of the third


@pytest.mark.parametrize("case", ["l-cut-in-block-2", "params-off-in-block-3", "l-bad-in-block-3",
                                  "k-bad-in-block-3-l-bad-in-block-1", "l-longer"])
def test_compare_reads_two_tables_in_lockstep(three_block_table, tmp_path, capsys, case):
    # compare joins block i of k with block i of l as it reads them: each
    # fault exits 2 with the message of the whole-table reader and join, and
    # the first fault read is the one reported
    lines_k = lines_l = three_block_table
    if case == "l-cut-in-block-2":
        lines_l = lines_l[:1 + lens.BLOCK_ROWS + 500]
        message = "lens table has 1524 rows, but its spec grid:48x48 has 2304"
    elif case == "params-off-in-block-3":
        lines_l = _edit(lines_l, _THIRD, "params", lambda p: [p[0] + 0.5, p[1]])
        message = "sample entry parameters do not align"
    elif case == "l-bad-in-block-3":
        lines_l = _edit(lines_l, _THIRD, "status", lambda s: "x")
        message = f"lens table line {_THIRD + 1}: unknown status 'x'"
    elif case == "k-bad-in-block-3-l-bad-in-block-1":
        lines_k = _edit(lines_k, _THIRD, "status", lambda s: "x")
        lines_l = _edit(lines_l, _FIRST, "reflections", lambda r: -1)
        message = f"lens table line {_FIRST + 1}: reflections must be an integer from 0 to 2**53"
    else:
        lines_l = lines_l + lines_l[-3:]
        message = "lens table has 2307 rows, but its spec grid:48x48 has 2304"
    paths = []
    for name, lines in (("k", lines_k), ("l", lines_l)):
        paths.append(tmp_path / f"{name}.jsonl")
        paths[-1].write_text("\n".join(lines) + "\n")
    out = tmp_path / "compare.json"
    assert cli.main(["compare", "--scene", str(paths[0]), "--scene-b", str(paths[1]),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("suffix", ["jsonl", "csv"])
def test_lens_leaves_nothing_but_its_output(disc_json, tmp_path, monkeypatch, suffix):
    # the rows are spooled beside --out in a file without a name: after a
    # run that succeeds the directory holds the output, after one that fails
    # in its second block it holds nothing
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / f"t.{suffix}"
    argv = ["lens", "--scene", disc_json, "--spec", "grid:32x64", "--out", str(out)]
    assert cli.main(argv) == 0
    assert [p.name for p in out_dir.iterdir()] == [out.name]
    out.unlink()
    trace_rows, calls = lens._trace_rows, []

    def fail_in_block_2(*args):
        calls.append(1)
        if len(calls) == 2:
            raise MemoryError("stub failure")
        return trace_rows(*args)

    monkeypatch.setattr(lens, "_trace_rows", fail_in_block_2)
    assert cli.main(argv) == 2
    assert len(calls) == 2 and list(out_dir.iterdir()) == []


_WORK_ARGS = {
    "validate": [],
    "trace": ["--entry=-10,0,1,0"],
    "lens": ["--spec", "grid:2x2"],
    "trapped": ["--spec", "grid:2x4,grid:4x8,grid:8x16"],
    "sls": ["--omega", "1,0", "--theta", "1,0", "--spec", "grid:2x2"],
    "compare": [],
    "conjugate": ["--entry=-10,0,1,0"],
    "regularity": ["--entry=-10,0,1,0"],
    "render": ["--entry=-10,0,1,0"],
}


def _fail_if_called(*args):
    raise AssertionError("work began before --out was checked")


def _files(root):
    return sorted(p.relative_to(root) for p in root.rglob("*"))


@pytest.mark.parametrize("command", sorted(_WORK_ARGS))
@pytest.mark.parametrize("where", ["missing", "directory"])
def test_bad_out_fails_before_the_work(command, where, disc_json, tmp_path, monkeypatch, capsys):
    # every command but livshits checks its --out (render: --svg) before it
    # reads the scene, traces a ray or reads a table line, fails as opening
    # it would, and writes no file
    for module, name in [(flow, "trace_phase"), (lens, "compare_jsonl"),
                         (geometry, "validate_scene"), (render, "svg_scene")]:
        monkeypatch.setattr(module, name, _fail_if_called)
    out = tmp_path / "missing" / "x.json" if where == "missing" else tmp_path
    tables = ["--scene-b", disc_json] if command == "compare" else []
    flag = "--svg" if command == "render" else "--out"
    argv = [command, "--scene", disc_json, *tables, *_WORK_ARGS[command], flag, str(out)]
    before = _files(tmp_path)
    assert cli.main(argv) == 2
    reason = "[Errno 2] No such file or directory" if where == "missing" else "[Errno 21] Is a directory"
    assert capsys.readouterr().err == f"error: {reason}: {str(out)!r}\n"
    assert _files(tmp_path) == before


@pytest.mark.parametrize("bad", ["--out", "--svg"])
def test_trace_with_one_bad_output_writes_neither(bad, disc_json, tmp_path, capsys):
    # both outputs are checked before the ray is traced: a bad --svg leaves
    # no --out behind, and a bad --out no --svg
    paths = {"--out": tmp_path / "t.jsonl", "--svg": tmp_path / "t.svg"}
    paths[bad] = tmp_path / "missing" / paths[bad].name
    argv = ["trace", "--scene", disc_json, *_WORK_ARGS["trace"],
            "--out", str(paths["--out"]), "--svg", str(paths["--svg"])]
    before = _files(tmp_path)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(paths[bad])!r}\n"
    assert _files(tmp_path) == before


def _thin_scene(tmp_path):
    """The scene file of a thin superellipsoid at p = 200, whose |u_i|^(p-1)
    leaves the float range inside its bounding circle."""
    scene = bl.make_scene(2, 10.0, [bl.SuperellipsoidObstacle([0.0, 0.0], [5.0, 0.1], 200.0)], "thin")
    path = tmp_path / "thin.json"
    path.write_text(geometry.scene_to_json(scene) + "\n")
    return str(path)


def test_thin_superellipsoid_is_accepted_and_traced_without_error(tmp_path, capsys):
    # the ray solver starts from the body's box, where no power overflows:
    # `validate` accepts the scene without a word on stderr (a RuntimeWarning
    # fails the test), and `lens` and `sls` write no error row
    path = _thin_scene(tmp_path)
    assert cli.main(["validate", "--scene", path]) == 0
    assert capsys.readouterr().err == ""
    out = tmp_path / "thin.jsonl"
    assert cli.main(["lens", "--scene", path, "--spec", "grid:16x16", "--out", str(out)]) == 0
    counts = lens.table_from_jsonl(out.read_text()).summary["counts"]
    assert counts == {**dict.fromkeys(lens.STATUSES, 0), "free": 200, "scattered": 56}
    out = tmp_path / "sls.json"
    assert cli.main(["sls", "--scene", path, "--omega", "1,0", "--theta", "1,0",
                     "--spec", "grid:64x1", "--out", str(out)]) == 0
    doc = _strict_json(out.read_text())
    assert doc["counts"] == {**dict.fromkeys(lens.STATUSES, 0), "free": 62, "scattered": 2}
    assert [(b["sojourn"], b["count"]) for b in doc["bins"]] == [(0, 62)]


def test_lens_records_an_overflow_per_ray(tmp_path, monkeypatch):
    # the stub tracer overflows on every ray that meets the thin body: those
    # rays are error rows of the written table, each with the exception's
    # text, and the others are traced
    fail_rays_that_reflect(monkeypatch, OverflowError)
    path, out = _thin_scene(tmp_path), tmp_path / "thin.jsonl"
    assert cli.main(["lens", "--scene", path, "--spec", "grid:16x16", "--out", str(out)]) == 0
    table = lens.table_from_jsonl(out.read_text())
    errors = table.status == "error"
    assert table.summary["counts"]["error"] == np.count_nonzero(errors) == 56
    assert set(table.error[errors]) == {"OverflowError: stub failure"}
    assert set(table.status[~errors]) == {"free"}


def test_sls_counts_the_rays_that_overflow(tmp_path, monkeypatch):
    # the stub tracer of the test above: the rays that overflow are counted,
    # and the spectrum of the others is still written
    fail_rays_that_reflect(monkeypatch, OverflowError)
    path, out = _thin_scene(tmp_path), tmp_path / "sls.json"
    assert cli.main(["sls", "--scene", path, "--omega", "1,0", "--theta", "1,0",
                     "--spec", "grid:64x1", "--out", str(out)]) == 0
    doc = _strict_json(out.read_text())
    assert doc["counts"] == {**dict.fromkeys(lens.STATUSES, 0), "free": 62, "error": 2}
    assert [(b["sojourn"], b["count"]) for b in doc["bins"]] == [(0, 62)]


def test_spec_too_large_for_memory_exits_2(disc_json, tmp_path, monkeypatch, capsys):
    # as an allocation of the block sampler would fail when memory runs out
    def too_large(*args):
        raise MemoryError("Unable to allocate 75 GiB for an array")

    monkeypatch.setattr(lens, "_param_blocks", too_large)
    out = tmp_path / "t.jsonl"
    assert cli.main(["lens", "--scene", disc_json, "--spec", "grid:100000x100000",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 75 GiB for an array\n"
    assert not out.exists()


@pytest.mark.parametrize("failure", NUMERIC_FAILURES, ids=lambda cls: cls.__name__)
def test_a_numeric_failure_that_ends_a_command_exits_3(failure, disc_json, tmp_path,
                                                       monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise failure("stub failure")

    monkeypatch.setattr(variation, "regularity_test", fail)
    out = tmp_path / "reg.json"
    assert cli.main(["regularity", "--scene", disc_json, "--entry", "0,0", "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"numeric failure: {failure.__name__}: stub failure\n"
    assert not out.exists()


def test_compare_expect_equal_exit_code(disc_json, tmp_path):
    other = tmp_path / "disc2.json"
    scene = bl.make_scene(2, 10.0, [bl.SphereObstacle([0.0, 0.0], 1.02)], "bigger")
    other.write_text(geometry.scene_to_json(scene) + "\n")
    t1, t2 = tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"
    assert cli.main(["lens", "--scene", disc_json, "--spec", "grid:24x24", "--out", str(t1)]) == 0
    assert cli.main(["lens", "--scene", str(other), "--spec", "grid:24x24", "--out", str(t2)]) == 0
    assert cli.main(["compare", "--scene", str(t1), "--scene-b", str(t2)]) == 0
    assert cli.main(["compare", "--scene", str(t1), "--scene-b", str(t2), "--expect-equal"]) == 4


def test_lens_rerun_byte_identical(disc_json, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["lens", "--scene", disc_json, "--spec", "mc:100", "--seed", "11"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes().replace(b"a.jsonl", b"") == b.read_bytes().replace(b"b.jsonl", b"")


def test_lens_prints_to_stdout_the_bytes_it_writes(disc_json, tmp_path):
    # 1200 rows, two blocks of the writer; only the header's invocation,
    # which names the output file, tells the two apart
    args = ["-m", "billiard_lens.cli", "lens", "--scene", disc_json, "--spec", "grid:40x30"]
    out = tmp_path / "t.jsonl"
    assert run_python(*args, "--out", str(out)).returncode == 0
    printed = run_python(*args, text=False)
    assert printed.returncode == 0 and printed.stdout.count(b"\n") == 1201
    assert printed.stdout == out.read_bytes().replace(b',"--out",' + json.dumps(str(out)).encode(), b"")


def test_lens_into_a_closed_pipe_exits_141_quietly(disc_json):
    # about 1 MB of table, far more than a pipe holds, so the writer meets the
    # closed pipe; 141 = 128 + SIGPIPE, and no message: the input was good
    proc = popen_python("-m", "billiard_lens.cli", "lens", "--scene", disc_json,
                        "--spec", "grid:64x64")
    head = proc.stdout.read(10)
    proc.stdout.close()
    try:
        assert proc.wait(timeout=120) == 141
    finally:
        proc.kill()
    assert head == b'{"invocati'
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_lens_leaves_numpy_ma_unloaded(tmp_path):
    # the first np.unique of a process imports numpy.ma (about 10 ms and 0.5 MB)
    scene = bl.make_scene(2, 10.0, [bl.SphereObstacle([-3.0, 0.0], 1.0),
                                    bl.SphereObstacle([3.0, 0.0], 1.0)], "two-disc")
    path = tmp_path / "two.json"
    path.write_text(geometry.scene_to_json(scene) + "\n")
    code = ("import sys\nfrom billiard_lens import cli\n"
            "for out in sys.argv[2:]:\n"
            "    assert cli.main(['lens', '--scene', sys.argv[1], '--spec', 'grid:16x16', "
            "'--nmax', '5', '--out', out]) == 0\n"
            "print('numpy.ma' in sys.modules)")
    proc = run_python("-c", code, str(path), str(tmp_path / "t.jsonl"), str(tmp_path / "t.csv"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_validate_leaves_numpy_ma_unloaded(tmp_path, livshits_pair):
    # the scanline cells of `validate` and the curve's closest-point queries
    # group without np.unique, which imports numpy.ma
    scenes = [bl.make_scene(2, 10.0, [bl.SphereObstacle([-3.0, 0.0], 1.0),
                                      bl.SphereObstacle([3.0, 0.0], 1.0)], "two-disc"),
              livshits_pair[0]]
    paths = []
    for k, scene in enumerate(scenes):
        paths.append(tmp_path / f"{k}.json")
        paths[-1].write_text(geometry.scene_to_json(scene) + "\n")
    code = ("import sys\nfrom billiard_lens import cli\n"
            "for scene in sys.argv[2:]:\n"
            "    assert cli.main(['validate', '--scene', scene, '--out', sys.argv[1]]) == 0\n"
            "print('numpy.ma' in sys.modules)")
    proc = run_python("-c", code, str(tmp_path / "v.json"), *map(str, paths))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_livshits_pipeline_and_validate_load_no_scipy(tmp_path, livshits_pair):
    # the `livshits` benchmark's calls, and `validate` of a 3D sphere, in one
    # process: scipy is left for `trapped` cluster radii above lens.TREE_PAIRS
    base, deformed, _ = livshits_pair
    sphere = bl.make_scene(3, 10.0, [bl.SphereObstacle([0.0, 0.0, 0.0], 1.0)], "one-sphere")
    paths = {}
    for name, scene in [("base", base), ("deformed", deformed), ("sphere", sphere)]:
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(geometry.scene_to_json(scene) + "\n")
    code = "\n".join([
        "import sys",
        "from billiard_lens import cli, geometry, lens",
        "base, deformed, sphere, work = sys.argv[1:]",
        "codes = [cli.main(['validate', '--scene', scene, '--out', work + '/v.json'])",
        "         for scene in (base, sphere)]",
        "for k, scene in enumerate((base, deformed)):",
        "    codes.append(cli.main(['lens', '--scene', scene, '--spec', 'grid:36x24',",
        "                           '--nmax', '600', '--out', f'{work}/{k}.jsonl']))",
        "codes.append(cli.main(['compare', '--scene', work + '/0.jsonl', '--scene-b',",
        "                       work + '/1.jsonl', '--expect-equal', '--out', work + '/c.json']))",
        "load = geometry.scene_from_json",
        "d = lens.boundary_distance(load(open(base).read()), load(open(deformed).read()), 100.0)",
        "print(codes, 0.45 < d < 0.55, sorted(m for m in sys.modules if m.startswith('scipy')))",
    ])
    proc = run_python("-c", code, *(str(paths[k]) for k in ("base", "deformed", "sphere")),
                      str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0] True []"


def test_lens_csv_output(disc_json, tmp_path):
    out = tmp_path / "table.csv"
    assert cli.main(["lens", "--scene", disc_json, "--spec", "grid:6x4", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[1].startswith("alpha,beta,status")
    assert len(lines) == 2 + 24


def test_sls_command_backscatter(sphere_json, tmp_path):
    out = tmp_path / "sls.json"
    code = cli.main([
        "sls", "--scene", sphere_json, "--omega", "1,0,0", "--theta=-1,0,0",
        "--spec", "grid:9x9", "--tol", "1e-3", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["bins"]) == 1
    assert doc["bins"][0]["sojourn"] == pytest.approx(-2.0, abs=1e-4)


def test_trapped_command(disc_json, tmp_path):
    out = tmp_path / "trapped.json"
    code = cli.main([
        "trapped", "--scene", disc_json, "--spec", "grid:4x4,grid:6x6,grid:8x8",
        "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["estimate"]["fractions"] == [0.0, 0.0, 0.0]


def test_regularity_and_conjugate_commands(sphere_json, conjugate_fixture_scene, tmp_path):
    qx = float(-np.sqrt(100.0 - 0.2**2 - 0.1**2))
    entry = f"{qx!r},0.2,0.1,1,0,0"
    out = tmp_path / "reg.json"
    code = cli.main([
        "regularity", "--scene", sphere_json, f"--entry={entry}", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["regular"] is True
    out2 = tmp_path / "conj.json"
    code = cli.main([
        "conjugate", "--scene", sphere_json, f"--entry={entry}", "--out", str(out2),
    ])
    assert code == 0
    doc2 = json.loads(out2.read_text())
    assert doc2["status"] == "exited"
    assert doc2["pairs"] == []  # single bounce has no event pairs
    # the refocusing orbit of the conjugate fixture: the disc's reflection
    # point is the mirror's centre of curvature, so the fan leaving event 0
    # refocuses at event 2; of the pairs (0, 1), (0, 2) and (1, 2) only
    # (0, 2) is conjugate, and under --tol 0 none is
    path, out = tmp_path / "conj-scene.json", tmp_path / "conj.json"
    path.write_text(geometry.scene_to_json(conjugate_fixture_scene) + "\n")
    entry = entry_through([0.0, 1.0], [2**-0.5, -(2**-0.5)])
    entry = ",".join(repr(float(x)) for x in [*entry.q, *entry.v])
    keys = {"i", "j", "conjugate", "smallest_singular_value", "singular_values", "tolerance"}
    for flags, tol, verdicts in (([], 1e-4, [False, True, False]),
                                 (["--tol", "0"], 0.0, [False, False, False])):
        argv = ["conjugate", "--scene", str(path), f"--entry={entry}", "--out", str(out), *flags]
        assert cli.main(argv) == 0
        pairs = _strict_json(out.read_text())["pairs"]
        assert [(p["i"], p["j"]) for p in pairs] == [(0, 1), (0, 2), (1, 2)]
        assert [p["conjugate"] for p in pairs] == verdicts
        for p in pairs:
            assert set(p) == keys and p["tolerance"] == tol
            assert p["singular_values"] == [p["smallest_singular_value"]]  # one, in 2D
    for flags, tol in (([], 1e-6), (["--tol", "1e-3"], 1e-3)):
        argv = ["regularity", "--scene", str(path), f"--entry={entry}", "--out", str(out), *flags]
        assert cli.main(argv) == 0
        doc = _strict_json(out.read_text())
        assert set(doc) == {"header", "position_by_direction", "direction_by_position", "regular", "t"}
        for key in ("position_by_direction", "direction_by_position"):
            assert set(doc[key]) == {"singular_values", "rank", "tolerance"}
            assert doc[key]["tolerance"] == tol


@pytest.mark.parametrize("command", ["regularity", "conjugate"])
def test_tangent_event_on_the_path_exits_3(command, tmp_path, capsys):
    # disc L turns the entry onto the line y = 1 - 2e-15, which grazes disc G
    # (|cos| ~ 6e-8, a tangent event) on its way to disc R: a transversal,
    # tangent, transversal orbit, so both the frame propagation and the
    # conjugate pair (0, 2) meet the tangent event
    b, s = 1.0 - 2e-15, 2**-0.5
    scene = bl.make_scene(2, 10.0, [bl.SphereObstacle([-4.0 - s, b - s], 1.0),
                                    bl.SphereObstacle([0.0, 0.0], 1.0),
                                    bl.SphereObstacle([4.0, b + 0.6], 1.0)], "graze")
    path = tmp_path / "graze.json"
    path.write_text(geometry.scene_to_json(scene) + "\n")
    entry = f"-4.0,{math.sqrt(84.0)!r},0,-1"
    traj = bl.trace(scene, cli._parse_entry(entry, scene))
    assert [(ev.obstacle, ev.type) for ev in traj.events] == [
        (0, "transversal"), (1, "tangent"), (2, "transversal")]
    out = tmp_path / "out.json"
    code = cli.main([command, "--scene", str(path), f"--entry={entry}", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numeric failure:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("end", ["first", "last"])
def test_tangent_event_at_an_end_of_the_conjugate_orbit(end, tmp_path):
    # a tangent event before the first transversal event or after the last
    # lies between no pair: `conjugate` exits 0 with the pairs of transversal
    # events, each conjugate_test's own result
    b, s = 1.0 - 2e-15, 2**-0.5
    if end == "first":
        # the entry runs along y = b past disc G (|cos| ~ 6e-8), then
        # reflects off R, D and R
        obstacles = [bl.SphereObstacle([0.0, 0.0], 1.0), bl.SphereObstacle([4.0, b + 0.6], 1.0),
                     bl.SphereObstacle([2.08, -2.84], 1.0)]
        entry, types = f"{-math.sqrt(100.0 - b * b)!r},{b!r},1,0", ["tangent"] + ["transversal"] * 3
    else:
        # K turns the entry down the line x = -4, and L turns it along a
        # line that grazes G
        obstacles = [bl.SphereObstacle([-4.0 + s, 5.0 + s], 1.0),
                     bl.SphereObstacle([-4.0 - s, 1.0 - s], 1.0), bl.SphereObstacle([0.0, -1.11e-13], 1.0)]
        entry, types = f"{-math.sqrt(75.0)!r},5.0,1,0", ["transversal"] * 2 + ["tangent"]
    scene = bl.make_scene(2, 10.0, obstacles, f"graze-{end}")
    path, out = tmp_path / "graze.json", tmp_path / "out.json"
    path.write_text(geometry.scene_to_json(scene) + "\n")
    traj = bl.trace(scene, cli._parse_entry(entry, scene))
    assert [ev.type for ev in traj.events] == types
    assert cli.main(["conjugate", "--scene", str(path), f"--entry={entry}", "--out", str(out)]) == 0
    pairs = _strict_json(out.read_text())["pairs"]
    transversal = [k for k, kind in enumerate(types) if kind == "transversal"]
    expected = [(i, j) for i in transversal for j in transversal if i < j]
    assert [(p.pop("i"), p.pop("j")) for p in pairs] == expected
    for p, (i, j) in zip(pairs, expected):
        assert p == json.loads(canonical_json(variation.conjugate_test(scene, traj, i, j).to_dict()))


def test_conjugate_walks_the_orbit_once_per_start_event(livshits_pair, tmp_path, monkeypatch):
    # on an orbit of n transversal events, `conjugate` carries one frame from
    # each event i past every later event j: n(n-1)/2 free flights (a walk
    # per pair makes about n^3/6). Each incidence is read at the event's
    # root, so neither the command nor conjugate_test(i, j), which walks the
    # events between i and j, makes a closest-point query
    base, _, _ = livshits_pair
    entry = entry_through([1.0, 0.0], [-0.5, 1.0])
    traj = bl.trace(base, entry)
    n = len(traj.events)
    assert n == 6 and all(ev.type == "transversal" for ev in traj.events)
    calls = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(variation, "propagate_free", counted("propagate_free", variation.propagate_free))
    monkeypatch.setattr(CurveChain, "closest_batch", counted("closest_batch", CurveChain.closest_batch))
    path, out = tmp_path / "liv.json", tmp_path / "out.json"
    path.write_text(geometry.scene_to_json(base) + "\n")
    entry = ",".join(repr(float(x)) for x in [*entry.q, *entry.v])
    assert cli.main(["conjugate", "--scene", str(path), f"--entry={entry}", "--out", str(out)]) == 0
    assert len(_strict_json(out.read_text())["pairs"]) == n * (n - 1) // 2
    assert calls == Counter(propagate_free=n * (n - 1) // 2)
    for i in range(n):
        for j in range(i + 1, n):
            calls.clear()
            variation.conjugate_test(base, traj, i, j)
            assert calls == Counter(propagate_free=j - i)


def test_livshits_command(tmp_path, capsys):
    prefix = tmp_path / "liv"
    code = cli.main(["livshits", "--out", str(prefix)])
    assert code == 0
    base = geometry.scene_from_json((tmp_path / "liv.base.json").read_text())
    deformed = geometry.scene_from_json((tmp_path / "liv.deformed.json").read_text())
    assert base.dimension == 2 and deformed.dimension == 2
    meta = json.loads((tmp_path / "liv.meta.json").read_text())
    c = float(np.sqrt(4.2**2 - 2.7**2))
    assert meta["foci"][1][0] == pytest.approx(c, rel=1e-12)
    printed = capsys.readouterr().out
    assert "foci" in printed


def test_trace_empty_scene_diametric(tmp_path):
    scene = bl.make_scene(3, 10.0, [], "empty")
    path = tmp_path / "empty.json"
    path.write_text(geometry.scene_to_json(scene) + "\n")
    out = tmp_path / "t.jsonl"
    assert cli.main(["trace", "--scene", str(path), "--entry=-10,0,0,1,0,0",
                     "--out", str(out)]) == 0
    header = json.loads(out.read_text().split("\n")[0])
    assert header["total_time"] == pytest.approx(20.0, abs=1e-12)
    assert header["n_events"] == 0


def test_livshits_lens_compare_pipeline(tmp_path):
    # Figure-level demonstration end to end through the CLI: the deformed
    # pocket is invisible, so the lens tables compare equal at default tolerance
    prefix = tmp_path / "liv"
    assert cli.main(["livshits", "--out", str(prefix)]) == 0
    tk, tl = tmp_path / "k.jsonl", tmp_path / "l.jsonl"
    args = ["--spec", "grid:16x12", "--nmax", "300"]
    assert cli.main(["lens", "--scene", str(prefix) + ".base.json", "--out", str(tk)] + args) == 0
    assert cli.main(["lens", "--scene", str(prefix) + ".deformed.json", "--out", str(tl)] + args) == 0
    report = tmp_path / "cmp.json"
    code = cli.main(["compare", "--scene", str(tk), "--scene-b", str(tl),
                     "--out", str(report), "--expect-equal"])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["report"]["verdict"] == "indistinguishable"


def test_render_command(disc_json, tmp_path):
    out = tmp_path / "scene.svg"
    assert cli.main(["render", "--scene", disc_json, "--svg", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<!--")  # header comment with version/hash/seed
    assert "<svg" in text


def test_svg_one_polyline_per_segment(disc_json, tmp_path):
    out = tmp_path / "t.jsonl"
    svg = tmp_path / "t.svg"
    qx = float(-np.sqrt(100.0 - 0.2**2))
    assert cli.main(["trace", "--scene", disc_json, f"--entry={qx!r},0.2,1,0",
                     "--out", str(out), "--svg", str(svg)]) == 0
    header = json.loads(out.read_text().split("\n")[0])
    n_segments = header["n_events"] + 1  # exited orbit
    assert svg.read_text().count("<polyline") == n_segments


def test_entry_parsing_errors(disc_json, capsys):
    assert cli.main(["trace", "--scene", disc_json, "--entry", "1,2,3"]) == 2
    assert cli.main(["trace", "--scene", disc_json, "--entry=-5,0,1,0"]) == 2  # off sphere
    assert cli.main(["trace", "--scene", disc_json]) == 2  # entry required
    capsys.readouterr()
    assert cli.main(["trace", "--scene", disc_json, "--entry=-10,0,0,0"]) == 2
    assert capsys.readouterr().err == "error: zero entry direction\n"


def test_intrinsic_entry(disc_json, tmp_path):
    out = tmp_path / "t.jsonl"
    # alpha = pi, beta = 0: diametric entry
    code = cli.main(["trace", "--scene", disc_json,
                     "--entry", f"{np.pi},0", "--out", str(out)])
    assert code == 0
    header = json.loads(out.read_text().split("\n")[0])
    assert header["total_time"] == pytest.approx(18.0, abs=1e-6)


def test_compare_reflection_mismatch_is_distinguishable(disc_json, tmp_path):
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    assert cli.main(["lens", "--scene", disc_json, "--spec", "grid:4x4", "--out", str(good)]) == 0
    lines = good.read_text().splitlines()
    k = next(k for k, ln in enumerate(lines[1:], 1) if json.loads(ln)["status"] == "free")
    row = json.loads(lines[k])
    assert row["reflections"] == 0
    row["reflections"] = 3
    lines[k] = json.dumps(row)
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "cmp.json"
    assert cli.main(["compare", "--scene", str(good), "--scene-b", str(bad), "--expect-equal",
                     "--out", str(out)]) == 4
    report = json.loads(out.read_text())["report"]
    assert report["reflection_mismatches"] == 1 and report["max_dt"] == 0
    assert report["verdict"] == "distinguishable"


def test_validate_empty_scene_writes_strict_json(tmp_path):
    path, out = tmp_path / "empty.json", tmp_path / "report.json"
    path.write_text(geometry.scene_to_json(bl.make_scene(2, 10.0, [], "empty")) + "\n")
    assert cli.main(["validate", "--scene", str(path), "--out", str(out)]) == 0
    doc = _strict_json(out.read_text())
    assert doc["header"]["seed"] is None
    for key in ("min_gradient_norm", "curvature_min", "curvature_max"):
        assert doc["report"][key] is None


# -- the flag table --------------------------------------------------------------

_LIMITS = ["--nmax", "--tmax"]
FLAG_TABLE = {  # command: (required flags, optional flags)
    "validate": (["--scene"], ["--out"]),
    "trace": (["--scene", "--entry"], ["--out", *_LIMITS, "--svg"]),
    "lens": (["--scene", "--spec"], ["--out", "--seed", *_LIMITS]),
    "trapped": (["--scene", "--spec"], ["--out", "--seed", *_LIMITS]),
    "sls": (["--scene", "--omega", "--theta", "--spec"], ["--out", "--seed", *_LIMITS, "--tol"]),
    "compare": (["--scene", "--scene-b"], ["--out", "--tol", "--expect-equal"]),
    "conjugate": (["--scene", "--entry"], ["--out", *_LIMITS, "--tol"]),
    "regularity": (["--scene", "--entry"], ["--out", "--tol"]),
    "livshits": (["--out"], []),
    "render": (["--scene"], ["--entry", *_LIMITS, "--svg"]),
}


def test_parser_flags_are_the_table():
    parser = cli.build_parser()
    assert parser is cli.build_parser()  # the one parser `main` reads every command with
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {}
    for name, sub in subs.choices.items():
        actions = [a for a in sub._actions if a.dest != "help"]
        flags[name] = ({o for a in actions if a.required for o in a.option_strings},
                       {o for a in actions if not a.required for o in a.option_strings})
    assert flags == {c: (set(r), set(o)) for c, (r, o) in FLAG_TABLE.items()}
    assert sum(len(r) + len(o) for r, o in flags.values()) == 50


def test_the_reused_parser_leaks_nothing_between_commands(disc_json, tmp_path, capsys):
    # a seeded lens, a usage error that had read another seed before its bad
    # --nmax, and a lens on the default seed, in one process, write what the
    # same calls write in fresh processes
    out = tmp_path / "t.jsonl"
    lens_args = ["lens", "--scene", disc_json, "--spec", "mc:60", "--out", str(out)]
    calls = [[*lens_args, "--seed", "7"], [*lens_args, "--seed", "9", "--nmax", "x"], lens_args]

    def written():  # the output file's bytes, None if there is none, which is then gone
        data = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return data

    in_process = []
    for argv in calls:
        code = cli.main(argv)
        in_process.append((code, capsys.readouterr().err, written()))
    fresh = []
    for argv in calls:
        proc = run_python("-m", "billiard_lens.cli", *argv)
        fresh.append((proc.returncode, proc.stderr, written()))
    assert [code for code, _, _ in in_process] == [0, 2, 0]
    assert in_process[0][2] != in_process[2][2]  # the seed reaches the rows
    assert in_process == fresh


@pytest.mark.parametrize("argv", [
    ["validate", "--scene", "{disc}", "--spec", "grid:1x1"],
    ["compare", "--scene", "{table}", "--scene-b", "{table}", "--seed", "3"],
    ["regularity", "--scene", "{disc}", "--entry", "3.1,0", "--nmax", "5"],
    ["livshits", "--scene", "x", "--out", "{tmp}/liv"],
    ["render", "--scene", "{disc}", "--out", "{tmp}/x.svg"],
    ["lens", "--scene", "{disc}", "--spe", "grid:2x2"],
    ["lens", "--scene", "{disc}", "--spec", "grid:2x2", "--nmax", "0"],
    ["lens", "--scene", "{disc}", "--spec", "grid:2x2", "--tmax", "-1"],
    ["trapped", "--scene", "{disc}", "--spec", "grid:2x2,grid:3x3,grid:4x4", "--tmax", "nan"],
    ["trace", "--scene", "{disc}", "--entry=nan,0"],
    ["sls", "--scene", "{sphere}", "--omega", "inf,0,0", "--theta=-1,0,0", "--spec", "grid:3x3"],
    ["compare", "--scene", "{table}", "--scene-b", "{table}", "--tol", "nan"],
    ["trace", "--scene", "{disc}", "--entry=-10,0,1,0", "--out", "{table}/x.jsonl"],
    ["trace", "--scene", "{sphere}", "--entry=-10,0,0,1,0,0", "--out", "{tmp}/trace.jsonl",
     "--svg", "{tmp}/trace.svg"],
], ids=["validate-spec", "compare-seed", "regularity-nmax", "livshits-scene", "render-out",
        "abbreviated-spec", "nmax-0", "tmax-negative", "tmax-nan", "entry-nan", "omega-inf",
        "tol-nan", "out-below-a-file", "svg-of-3d-scene"])
def test_rejected_input_exits_2(argv, disc_json, sphere_json, tmp_path, capsys):
    table = tmp_path / "t.jsonl"
    assert cli.main(["lens", "--scene", disc_json, "--spec", "grid:2x2", "--out", str(table)]) == 0
    capsys.readouterr()
    files = sorted(tmp_path.iterdir())
    names = {"disc": disc_json, "sphere": sphere_json, "table": str(table), "tmp": str(tmp_path)}
    assert cli.main([a.format(**names) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == files  # nothing written


@pytest.mark.parametrize("command, flag, value, rest", [
    ("sls", "--theta", "-1,0", ["--omega", "1,0", "--spec", "grid:8x8"]),
    ("trace", "--entry", "-10,0,1,0", []),
], ids=["sls-theta", "trace-entry"])
def test_flag_value_may_begin_with_a_dash(command, flag, value, rest, disc_json, tmp_path, capsys):
    texts = {}
    for spelling in ([flag, value], [f"{flag}={value}"]):
        out = tmp_path / f"{len(spelling)}.out"
        argv = [command, "--scene", disc_json, *spelling, *rest, "--out", str(out)]
        assert cli.main(argv) == 0
        # the header holds the invocation as typed; the rest is the same report
        texts[len(spelling)] = out.read_text().replace(canonical_json(argv), "INVOCATION")
        assert texts[len(spelling)].count("INVOCATION") == 1
    assert texts[1] == texts[2]
    # a flag without its value still exits 2, and a flag name is never a value
    for argv in ([*rest, flag], [flag, *rest, "--out", str(tmp_path / "x")]):
        assert cli.main([command, "--scene", disc_json, *argv]) == 2
        assert f"argument {flag}: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("obstacle, param", [
    ({"kind": "sphere", "center": [0.0, 0.0], "params": {"radius": -1.0}}, "radius"),
    ({"kind": "sphere", "center": [0.0, 0.0], "params": {"radius": 0.0}}, "radius"),
    ({"kind": "ellipsoid", "center": [0.0, 0.0], "params": {"semi_axes": [2.0, -0.5]}}, "semi_axes"),
], ids=["radius-negative", "radius-zero", "semi-axis-negative"])
@pytest.mark.parametrize("command, args", [
    ("validate", []),
    ("lens", ["--spec", "grid:16x16"]),
    ("trace", ["--entry=-10,0,1,0"]),
    ("trapped", ["--spec", "grid:2x2,grid:3x3,grid:4x4"]),
    ("sls", ["--omega", "1,0", "--theta=-1,0", "--spec", "grid:4x4"]),
], ids=["validate", "lens", "trace", "trapped", "sls"])
def test_non_positive_size_exits_2(command, args, obstacle, param, tmp_path, capsys):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"dimension": 2, "ball_radius": 10.0, "name": "bad",
                                 "obstacles": [obstacle]}))
    out = tmp_path / "out.json"
    assert cli.main([command, "--scene", str(scene), *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{param} must be positive" in err
    assert "Traceback" not in err
    assert not out.exists()


_SAMPLING_ARGS = {
    "lens": [],
    "trapped": [],
    "sls": ["--omega", "1,0", "--theta=-1,0"],
}


@pytest.mark.parametrize("spec", ["grid:3", "grid:3x", "grid:x4", "grid:2x2x2", "mc:", "mc:1e3",
                                  "mc:3x4", "grid", "poisson:5"])
@pytest.mark.parametrize("command", sorted(_SAMPLING_ARGS))
def test_bad_spec_exits_2_naming_it(command, spec, disc_json, tmp_path, capsys):
    # in a trapped ladder, the bad spec among good ones
    text = f"mc:2,{spec},mc:8" if command == "trapped" else spec
    out = tmp_path / "out.json"
    assert cli.main([command, "--scene", disc_json, *_SAMPLING_ARGS[command], "--spec", text,
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: bad sample spec {spec!r}: expected grid:POSxDIR "
                                       "or mc:N, with POS, DIR and N whole numbers\n")
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2**64, 99999999999999999999999])
@pytest.mark.parametrize("command", sorted(_SAMPLING_ARGS))
def test_seed_outside_64_bits_exits_2_naming_it(command, seed, disc_json, tmp_path, capsys):
    out = tmp_path / "out.json"
    spec = "mc:2,mc:4,mc:8" if command == "trapped" else "mc:5"
    argv = [command, "--scene", disc_json, *_SAMPLING_ARGS[command], "--spec", spec,
            "--out", str(out)]
    assert cli.main([*argv, f"--seed={seed}"]) == 2
    assert capsys.readouterr().err == f"error: seed must be an integer in [0, 2^64), not {seed}\n"
    assert not out.exists()
    # the largest seed is taken, and written as given
    assert cli.main([*argv, f"--seed={2**64 - 1}"]) == 0
    assert str(2**64 - 1) in out.read_text()


# -- property: argv drawn from the flag table ---------------------------------------
#
# Values are good or bad (0, -1, nan, inf, text, a missing path, a path below a
# file); required flags are sometimes left out and a flag the command does not
# read sometimes added. Sizes stay tiny: specs up to grid:4x4 or mc:16, --nmax
# up to 50.

@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli-property")
    files = {}
    for key, scene in [
        ("disc", bl.make_scene(2, 10.0, [bl.SphereObstacle([0.5, -0.3], 1.0)], "disc")),
        ("disc2", bl.make_scene(2, 10.0, [bl.SphereObstacle([0.5, -0.3], 1.5)], "disc2")),
        ("empty", bl.make_scene(2, 10.0, [], "empty")),
        ("sphere", bl.make_scene(3, 10.0, [bl.SphereObstacle([0.5, -0.3, 0.2], 1.0)], "sphere")),
    ]:
        files[key] = str(d / f"{key}.json")
        Path(files[key]).write_text(geometry.scene_to_json(scene) + "\n")
    # disc-table and disc2-table share their spec and compare distinguishable
    for key, scene, spec in [("disc-table", "disc", "grid:4x4"), ("disc2-table", "disc2", "grid:4x4"),
                             ("sphere-table", "sphere", "mc:8")]:
        files[key] = str(d / f"{key}.jsonl")
        assert cli.main(["lens", "--scene", files[scene], "--spec", spec, "--out", files[key]]) == 0
    return files


_BAD_VALUES = ["0", "-1", "nan", "inf", "-inf", "abc", ""]
_SPEC = st.one_of(st.builds("grid:{}x{}".format, st.integers(1, 4), st.integers(1, 4)),
                  st.builds("mc:{}".format, st.integers(1, 16)))
_ANGLE = st.floats(0.0, 2.0 * math.pi)
_TABLES = ["disc-table", "disc2-table", "sphere-table"]


def _good_value(draw, flag, command, scene, dim, files, tmp):
    if flag == "--scene-b" or (flag == "--scene" and command == "compare"):
        return files[draw(st.sampled_from(_TABLES))]
    if flag == "--scene":
        return files[scene]
    if flag == "--out":
        name = {"lens": draw(st.sampled_from(["o.jsonl", "o.csv"])), "livshits": "liv"}
        return str(tmp / name.get(command, "o.json"))
    if flag == "--svg":
        return str(tmp / "o.svg")
    if flag == "--spec":
        if command == "trapped":  # a ladder of increasing sizes
            return ",".join(f"mc:{n}" for n in sorted(draw(st.sets(st.integers(1, 16),
                                                                   min_size=3, max_size=3))))
        return draw(_SPEC)
    if flag == "--seed":
        return str(draw(st.integers(0, 2**64 - 1)))
    if flag == "--nmax":
        return str(draw(st.integers(1, 50)))
    if flag == "--tmax":
        return repr(draw(st.floats(0.01, 1e4)))
    if flag == "--tol":
        return repr(draw(st.floats(0.0, 1.0)))
    if flag in ("--omega", "--theta"):
        return ",".join(repr(draw(st.floats(-1.0, 1.0))) for _ in range(dim))
    if flag == "--entry":
        if dim == 2:
            coords = [draw(_ANGLE), draw(st.floats(-1.5, 1.5))]
        else:
            coords = [draw(st.floats(-1.0, 1.0)), draw(_ANGLE), draw(st.floats(0.0, 1.0)),
                      draw(_ANGLE)]
        return ",".join(map(repr, coords))
    raise AssertionError(flag)


def _bad_value(draw, flag, tmp):
    if flag in ("--scene", "--scene-b", "--out", "--svg"):  # tmp holds a file named "file"
        return draw(st.sampled_from([str(tmp / "missing" / "x"), str(tmp / "file" / "x"), str(tmp)]))
    return draw(st.sampled_from(_BAD_VALUES))


@st.composite
def _argv(draw, command, files, tmp):
    scene = draw(st.sampled_from(["disc", "empty", "sphere"]))
    dim = 3 if scene == "sphere" else 2
    required, optional = FLAG_TABLE[command]
    # hypothesis shrinks towards 0, so 0 is the good choice in each of these draws
    flags = [f for f in required if draw(st.integers(0, 9)) < 9]  # drop one now and then
    flags += [f for f in optional if draw(st.booleans())]
    if draw(st.integers(0, 7)) == 7:
        flags.append(draw(st.sampled_from(sorted(set(cli._FLAGS) - set(required + optional)))))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        if flag == "--expect-equal":
            argv.append(flag)
        elif draw(st.integers(0, 7)) == 7:
            argv.append(f"{flag}={_bad_value(draw, flag, tmp)}")
        elif flag in required + optional:
            argv.append(f"{flag}={_good_value(draw, flag, command, scene, dim, files, tmp)}")
        else:
            argv.append(f"{flag}=1")
    return argv


def _check_output(name, text):
    if name.endswith(".csv"):
        for line in text.splitlines()[2:]:
            for field in line.split(","):
                assert field in lens.STATUSES or not field or math.isfinite(float(field)), line
    elif text.startswith("<!--"):
        _strict_json(text[4:text.index("-->")])
    else:
        for line in filter(None, text.splitlines()):
            _strict_json(line)


@pytest.mark.parametrize("command", sorted(FLAG_TABLE))
@settings(max_examples=30)
@given(data=st.data())
def test_cli_exit_codes_and_strict_outputs(command, cli_files, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "file").write_text("x")
        argv = data.draw(_argv(command, cli_files, tmp), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert err.getvalue() or code == 4
        _check_output("stdout", out.getvalue())
        for path in tmp.iterdir():
            if path.is_file() and path.name != "file":
                _check_output(path.name, path.read_text())
