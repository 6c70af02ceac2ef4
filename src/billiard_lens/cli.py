"""Command-line interface.

Each command accepts exactly the flags that the table `_COMMANDS` lists for
it, required or optional; any other flag, a missing required flag or an
abbreviated flag exits 2; a flag's value may begin with "-". Every JSON,
JSONL and SVG output starts with a header embedding the tool version, scene
hash, sample spec, seed (null for commands without --seed) and the exact
invocation; a CSV lens table starts with a `#` line of the version, scene
hash, spec and seed. Identical invocations reproduce byte-identical files.
Each --out and --svg (not livshits's --out, a prefix) is checked before any
work (`_check_out`): a bad one exits 2, and no file is written.

Exit codes: 0 success, 2 bad input (with a message on stderr), 3 numeric
failure that ends a command (`lens`, `trapped` and `sls` record one per
ray), 4 distinguishable comparison verdict when --expect-equal is set, 141
(128 + SIGPIPE) when the reader of stdout closed it early, with no message.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import shutil
import sys
import tempfile

import numpy as np

from . import __version__ as VERSION
from . import flow, geometry, lens, render, variation
from .curves import _dot
from .geometry import canonical_json


def _csv_floats(text: str) -> list:
    """Comma-separated finite numbers (--entry, --omega, --theta)."""
    vals = [float(x) for x in text.split(",")]
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"non-finite component in {text!r}")
    return vals


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0.0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number >= 0, got {text!r}")
    return tol


_FLAGS = {
    "--scene": dict(help="scene JSON path (compare: lens table K)"),
    "--scene-b": dict(help="lens table L"),
    "--out": dict(help="output file path, default stdout (livshits: output prefix)"),
    "--spec": dict(help="sample spec grid:POSxDIR | mc:N (trapped: comma-separated ladder)"),
    "--seed": dict(type=int, default=0, help="64-bit seed for mc sampling"),
    "--nmax": dict(type=int, default=10000, help="reflection cutoff"),
    "--tmax": dict(type=float, help="time cutoff (default 1000*a)"),
    "--tol": dict(type=_tolerance, help="command tolerance"),
    "--omega": dict(help="incoming direction CSV"),
    "--theta": dict(help="outgoing direction CSV"),
    "--entry": dict(help="entry: q,v CSV or intrinsic coordinates CSV"),
    "--expect-equal": dict(action="store_true", help="exit 4 when the verdict is distinguishable"),
    "--svg": dict(help="SVG output path (2D scenes)"),
}


def _header(args, scene=None, spec=None):
    return {
        "tool": f"billiard-lens {VERSION}",
        "scene_hash": geometry.scene_hash(scene) if scene is not None else None,
        "spec": spec.spec_string() if spec is not None else None,
        "seed": vars(args).get("seed"),
        "invocation": list(args._invocation),
    }


def _stream(path, write):
    """Call write, a function of an open text stream, on the file at path,
    opened only now, or on stdout without a path."""
    if path:
        with open(path, "w", newline="\n") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _check_out(path):
    """Fail now, before any work, if the output file at path could not be
    opened later: if path names a directory, or its directory cannot take a
    file (tried with a file that has no name, so nothing is left behind),
    with the error that opening path gives. No path (stdout) passes."""
    if not path:
        return
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:
        tempfile.TemporaryFile(dir=os.path.dirname(path) or ".").close()
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None


def _spool(path):
    """A temporary text file for the rows of a table, opened now, before the
    first ray: beside path, or in the temporary directory without a path. It
    has no name, so nothing of it is left behind."""
    return tempfile.TemporaryFile("w+", newline="\n", dir=(os.path.dirname(path) or ".") if path else None)


def _after(head: str, spool):
    """A writer of the line head, then of the text written to spool."""
    def write(out):
        out.write(head + "\n")
        spool.seek(0)
        shutil.copyfileobj(spool, out)
    return write


def _write(path, text: str):
    """Write text to the file at path, or to stdout without a path."""
    _stream(path, lambda fh: fh.write(text))


def _load_scene(path: str):
    with open(path) as fh:
        return geometry.scene_from_json(fh.read())


def _parse_vector(text: str, dim: int):
    vals = _csv_floats(text)
    if len(vals) != dim:
        raise ValueError(f"expected {dim} comma-separated components")
    norm = math.sqrt(_dot(vals, vals))
    if norm == 0:
        raise ValueError("zero direction vector")
    return np.array(vals) / norm


def _parse_entry(text: str, scene) -> flow.PhasePoint:
    vals = _csv_floats(text)
    dim = scene.dimension
    a = scene.ball_radius
    if len(vals) == 2 * (dim - 1):  # intrinsic coordinates, as in lens tables
        e = lens._entries(a, dim, np.array([vals]))[0]
        return flow.PhasePoint(e.q, e.v)
    if len(vals) == 2 * dim:
        q = np.array(vals[:dim])
        v = np.array(vals[dim:])
        qn = math.sqrt(_dot(q, q))
        if abs(qn - a) > 1e-6 * a:
            raise ValueError(f"entry point is not on the boundary sphere (|q| = {qn:g})")
        q = q * (a / qn)
        vn = math.sqrt(_dot(v, v))
        if vn == 0:
            raise ValueError("zero entry direction")
        return flow.PhasePoint(q, v / vn)
    raise ValueError(f"entry needs {2 * dim} values (q,v) or intrinsic coordinates")


def _limits(args) -> flow.Limits:
    return flow.Limits(n_max=args.nmax, t_max=args.tmax)


def _cmd_validate(args):
    scene = _load_scene(args.scene)
    report = geometry.validate_scene(scene)
    doc = {"header": _header(args, scene), "report": report.to_dict()}
    _write(args.out, canonical_json(doc) + "\n")
    return 0


def _cmd_trace(args):
    scene = _load_scene(args.scene)
    entry = _parse_entry(args.entry, scene)
    traj = flow.trace(scene, entry, _limits(args))
    header = _header(args, scene)
    # the SVG is built first: a 3D scene has none, and then nothing is written
    svg = render.svg_scene(scene, [traj], comment=canonical_json(header)) if args.svg else None
    _write(args.out, flow.trajectory_jsonl(traj, header_extra=header))
    if svg is not None:
        _write(args.svg, svg)
    return 0


def _cmd_lens(args):
    # the rows stream into a spool a block at a time; the head, which holds
    # their summary, is written to the output before them. The table's head
    # writes the scene hash over the header's null, so it is taken once
    scene = _load_scene(args.scene)
    spec = lens.parse_spec(args.spec, seed=args.seed, n_max=args.nmax, t_max=args.tmax)
    csv = bool(args.out) and args.out.endswith(".csv")
    with _spool(args.out) as rows:
        head = lens.write_lens_rows(scene, spec, rows, csv, None if csv else _header(args, spec=spec))
        _stream(args.out, _after(head, rows))
    return 0


def _cmd_trapped(args):
    scene = _load_scene(args.scene)
    specs = [lens.parse_spec(s, seed=args.seed, n_max=args.nmax, t_max=args.tmax)
             for s in args.spec.split(",")]
    estimate = lens.estimate_trapped(scene, specs)
    doc = {"header": _header(args, scene), "estimate": estimate.to_dict()}
    _write(args.out, canonical_json(doc) + "\n")
    return 0


def _cmd_sls(args):
    scene = _load_scene(args.scene)
    omega = _parse_vector(args.omega, scene.dimension)
    theta = _parse_vector(args.theta, scene.dimension)
    spec = lens.parse_spec(args.spec, seed=args.seed, n_max=args.nmax, t_max=args.tmax)
    tol = args.tol if args.tol is not None else lens.ANGULAR_TOL
    spectrum = lens.scattering_spectrum(scene, omega, theta, tol, spec)
    doc = {
        "header": _header(args, scene, spec),
        "omega": list(omega),
        "theta": list(theta),
        "angular_tolerance": tol,
        "bins": [b.to_dict() for b in spectrum],
        "counts": spectrum.counts,
    }
    _write(args.out, canonical_json(doc) + "\n")
    return 0


def _cmd_compare(args):
    with open(args.scene) as table_k, open(args.scene_b) as table_l:
        hash_k, hash_l, report = lens.compare_jsonl(table_k, table_l, args.tol)
    doc = {"header": _header(args), "table_k": hash_k, "table_l": hash_l, "report": report.to_dict()}
    _write(args.out, canonical_json(doc) + "\n")
    if args.expect_equal and report.verdict != "indistinguishable":
        return 4
    return 0


def _cmd_conjugate(args):
    scene = _load_scene(args.scene)
    entry = _parse_entry(args.entry, scene)
    traj = flow.trace(scene, entry, _limits(args))
    tol = args.tol if args.tol is not None else variation.CONJUGATE_TOL
    trans = [k for k, ev in enumerate(traj.events) if ev.type == "transversal"]
    # one local query per event, shared by the walks from every start event
    incidence = variation._incidences(scene, traj.events)
    pairs = [{"i": i, "j": j, **r.to_dict()} for a, i in enumerate(trans)
             for j, r in variation._conjugacies(traj.events, incidence, i, trans[a + 1:], tol)]
    doc = {"header": _header(args, scene), "status": traj.status,
           "events": len(traj.events), "pairs": pairs}
    _write(args.out, canonical_json(doc) + "\n")
    return 0


def _cmd_regularity(args):
    scene = _load_scene(args.scene)
    entry = _parse_entry(args.entry, scene)
    tol = args.tol if args.tol is not None else variation.REGULARITY_TOL
    result = variation.regularity_test(scene, entry, tolerance=tol)
    doc = {"header": _header(args, scene), **result.to_dict()}
    _write(args.out, canonical_json(doc) + "\n")
    return 0


def _cmd_livshits(args):
    ball_radius = 10.0
    deformation = 0.05 * ball_radius
    base, foci = geometry.livshits_scene(ball_radius=ball_radius)
    deformed, _ = geometry.livshits_scene(ball_radius=ball_radius, deformation=deformation)
    _write(args.out + ".base.json", geometry.scene_to_json(base) + "\n")
    _write(args.out + ".deformed.json", geometry.scene_to_json(deformed) + "\n")
    meta = {
        "header": _header(args),
        "foci": [list(f) for f in foci],
        "ball_radius": ball_radius,
        "deformation": deformation,
        "base_hash": geometry.scene_hash(base),
        "deformed_hash": geometry.scene_hash(deformed),
    }
    _write(args.out + ".meta.json", canonical_json(meta) + "\n")
    sys.stdout.write(canonical_json({"foci": [list(f) for f in foci]}) + "\n")
    return 0


def _cmd_render(args):
    scene = _load_scene(args.scene)
    trajectories = []
    if args.entry:
        entry = _parse_entry(args.entry, scene)
        trajectories.append(flow.trace(scene, entry, _limits(args)))
    comment = canonical_json(_header(args, scene))
    _write(args.svg, render.svg_scene(scene, trajectories, comment=comment))
    return 0


_LIMITS = ("--nmax", "--tmax")
# command: (handler, required flags, optional flags)
_COMMANDS = {
    "validate": (_cmd_validate, ("--scene",), ("--out",)),
    "trace": (_cmd_trace, ("--scene", "--entry"), ("--out", *_LIMITS, "--svg")),
    "lens": (_cmd_lens, ("--scene", "--spec"), ("--out", "--seed", *_LIMITS)),
    "trapped": (_cmd_trapped, ("--scene", "--spec"), ("--out", "--seed", *_LIMITS)),
    "sls": (_cmd_sls, ("--scene", "--omega", "--theta", "--spec"),
            ("--out", "--seed", *_LIMITS, "--tol")),
    "compare": (_cmd_compare, ("--scene", "--scene-b"), ("--out", "--tol", "--expect-equal")),
    "conjugate": (_cmd_conjugate, ("--scene", "--entry"), ("--out", *_LIMITS, "--tol")),
    "regularity": (_cmd_regularity, ("--scene", "--entry"), ("--out", "--tol")),
    "livshits": (_cmd_livshits, ("--out",), ()),
    "render": (_cmd_render, ("--scene",), ("--entry", *_LIMITS, "--svg")),
}


def _attach_dash_values(argv):
    """argv with `--flag -value` written `--flag=-value`, which argparse reads
    as a value, for the flags that take one; a flag name is never a value."""
    out = []
    for word in argv:
        if (out and out[-1] in _FLAGS and "action" not in _FLAGS[out[-1]] and word.startswith("-")
                and word.split("=")[0] not in {"-h", "--help", *_FLAGS}):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing leaves
    nothing in it, so `main` reuses it."""
    parser = argparse.ArgumentParser(prog="billiard-lens", allow_abbrev=False)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, required, optional) in _COMMANDS.items():
        sub = subs.add_parser(name, allow_abbrev=False)
        for flag in required + optional:
            sub.add_argument(flag, required=flag in required, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_attach_dash_values(argv))
    except SystemExit as exc:  # --help exits 0, a usage error 2
        return 0 if exc.code == 0 else 2
    args._invocation = list(argv)
    try:
        if args.command != "livshits":  # whose --out is a prefix of three files
            for path in (vars(args).get("out"), vars(args).get("svg")):
                _check_out(path)
        code = _COMMANDS[args.command][0](args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # as the `signal` module documents: stdout goes to devnull, so that the
        # flush at exit finds no closed pipe; 141 is how a shell reports SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError, MemoryError, geometry.ValidationFailed) as exc:
        # ValueError: schema errors, spec mismatches, malformed JSON; MemoryError: a huge spec
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except geometry.NUMERIC_FAILURES as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
