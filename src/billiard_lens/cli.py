"""Command-line interface.

Commands: validate, trace, lens, trapped, sls, compare, conjugate,
regularity, livshits, render. Every JSON, JSONL and SVG output starts with
a header embedding the tool version, scene hash, sample spec, seed and the
exact invocation; a CSV lens table starts with a `#` line of the version,
scene hash, spec and seed. Identical invocations reproduce byte-identical
files.

Exit codes: 0 success, 2 bad input, 3 numeric failure, 4 distinguishable
comparison verdict when --expect-equal is set.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__ as VERSION
from . import flow, geometry, lens, render, variation
from .geometry import canonical_json


def _add_common(sub):
    sub.add_argument("--scene", help="scene JSON path (for compare: lens table K)")
    sub.add_argument("--scene-b", dest="scene_b", help="second input (compare: lens table L)")
    sub.add_argument("--out", help="output file path (default: stdout)")
    sub.add_argument("--spec", help="sample spec grid:POSxDIR | mc:N (trapped: comma list)")
    sub.add_argument("--seed", type=int, default=0, help="64-bit seed for mc sampling")
    sub.add_argument("--nmax", type=int, default=10000, help="reflection cutoff")
    sub.add_argument("--tmax", type=float, default=None, help="time cutoff (default 1000*a)")
    sub.add_argument("--tol", type=float, default=None, help="command tolerance")
    sub.add_argument("--omega", help="incoming direction CSV")
    sub.add_argument("--theta", help="outgoing direction CSV")
    sub.add_argument("--entry", help="entry: q,v CSV or intrinsic coordinates CSV")
    sub.add_argument("--expect-equal", dest="expect_equal", action="store_true",
                     help="compare: exit 4 when the verdict is distinguishable")
    sub.add_argument("--svg", help="SVG output path for 2D scenes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="billiard-lens")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("validate", "trace", "lens", "trapped", "sls", "compare",
                 "conjugate", "regularity", "livshits", "render"):
        _add_common(subs.add_parser(name))
    return parser


def _header(args, scene=None, spec=None):
    return {
        "tool": f"billiard-lens {VERSION}",
        "scene_hash": geometry.scene_hash(scene) if scene is not None else None,
        "spec": spec.spec_string() if spec is not None else None,
        "seed": args.seed,
        "invocation": list(args._invocation),
    }


def _write(args, text: str):
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_scene(path: str):
    if path is None:
        raise ValueError("--scene is required")
    with open(path) as fh:
        return geometry.scene_from_json(fh.read())


def _parse_vector(text: str, dim: int):
    vals = [float(x) for x in text.split(",")]
    if len(vals) != dim:
        raise ValueError(f"expected {dim} comma-separated components")
    v = np.array(vals)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("zero direction vector")
    return v / norm


def _parse_entry(text: str, scene) -> flow.PhasePoint:
    vals = [float(x) for x in text.split(",")]
    dim = scene.dimension
    a = scene.ball_radius
    if len(vals) == 2 * (dim - 1):  # intrinsic coordinates, as in lens tables
        e = lens._entries(a, dim, np.array([vals]))[0]
        return flow.PhasePoint(e.q, e.v)
    if len(vals) == 2 * dim:
        q = np.array(vals[:dim])
        v = np.array(vals[dim:])
        qn = np.linalg.norm(q)
        if abs(qn - a) > 1e-6 * a:
            raise ValueError(f"entry point is not on the boundary sphere (|q| = {qn:g})")
        q = q * (a / qn)
        vn = np.linalg.norm(v)
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
    _write(args, canonical_json(doc) + "\n")
    return 0


def _cmd_trace(args):
    scene = _load_scene(args.scene)
    if not args.entry:
        raise ValueError("--entry is required for trace")
    entry = _parse_entry(args.entry, scene)
    traj = flow.trace(scene, entry, _limits(args))
    _write(args, flow.trajectory_jsonl(traj, header_extra=_header(args, scene)))
    if args.svg:
        with open(args.svg, "w", newline="\n") as fh:
            fh.write(render.svg_scene(scene, [traj], comment=canonical_json(_header(args, scene))))
    return 0


def _cmd_lens(args):
    scene = _load_scene(args.scene)
    if not args.spec:
        raise ValueError("--spec is required for lens")
    spec = lens.parse_spec(args.spec, seed=args.seed, n_max=args.nmax, t_max=args.tmax)
    table = lens.build_lens_table(scene, spec)
    if args.out and args.out.endswith(".csv"):
        _write(args, lens.table_to_csv(table, scene.dimension))
    else:
        _write(args, lens.table_to_jsonl(table, header_extra=_header(args, scene, spec)))
    return 0


def _cmd_trapped(args):
    scene = _load_scene(args.scene)
    if not args.spec:
        raise ValueError("--spec is required for trapped (comma-separated ladder)")
    specs = [lens.parse_spec(s, seed=args.seed, n_max=args.nmax, t_max=args.tmax)
             for s in args.spec.split(",")]
    estimate = lens.estimate_trapped(scene, specs)
    doc = {"header": _header(args, scene), "estimate": estimate.to_dict()}
    _write(args, canonical_json(doc) + "\n")
    return 0


def _cmd_sls(args):
    scene = _load_scene(args.scene)
    if not (args.omega and args.theta and args.spec):
        raise ValueError("sls requires --omega, --theta and --spec")
    omega = _parse_vector(args.omega, scene.dimension)
    theta = _parse_vector(args.theta, scene.dimension)
    spec = lens.parse_spec(args.spec, seed=args.seed, n_max=args.nmax, t_max=args.tmax)
    tol = args.tol if args.tol is not None else 1e-2
    bins = lens.scattering_spectrum(scene, omega, theta, tol, spec)
    doc = {
        "header": _header(args, scene, spec),
        "omega": list(omega),
        "theta": list(theta),
        "angular_tolerance": tol,
        "bins": [b.to_dict() for b in bins],
    }
    _write(args, canonical_json(doc) + "\n")
    return 0


def _cmd_compare(args):
    if not (args.scene and args.scene_b):
        raise ValueError("compare requires --scene and --scene-b (lens table files)")
    with open(args.scene) as fh:
        table_k = lens.table_from_jsonl(fh.read())
    with open(args.scene_b) as fh:
        table_l = lens.table_from_jsonl(fh.read())
    tol = args.tol
    if tol is None:
        # default 1e-6 * ball radius; entry points sit on the sphere
        ball = float(np.linalg.norm(table_k.samples[0].q)) if table_k.samples else 1.0
        tol = 1e-6 * ball
    report = lens.compare_lens(table_k, table_l, tol)
    doc = {"header": _header(args), "table_k": table_k.scene_hash,
           "table_l": table_l.scene_hash, "report": report.to_dict()}
    _write(args, canonical_json(doc) + "\n")
    if args.expect_equal and report.verdict != "indistinguishable":
        return 4
    return 0


def _cmd_conjugate(args):
    scene = _load_scene(args.scene)
    if not args.entry:
        raise ValueError("--entry is required for conjugate")
    entry = _parse_entry(args.entry, scene)
    traj = flow.trace(scene, entry, _limits(args))
    tol = args.tol if args.tol is not None else 1e-4
    results = []
    trans = [k for k, ev in enumerate(traj.events) if ev.type == "transversal"]
    for a_idx in range(len(trans)):
        for b_idx in range(a_idx + 1, len(trans)):
            i, j = trans[a_idx], trans[b_idx]
            res = variation.conjugate_test(scene, traj, i, j, tol)
            results.append({"i": i, "j": j, **res.to_dict()})
    doc = {"header": _header(args, scene), "status": traj.status,
           "events": len(traj.events), "pairs": results}
    _write(args, canonical_json(doc) + "\n")
    return 0


def _cmd_regularity(args):
    scene = _load_scene(args.scene)
    if not args.entry:
        raise ValueError("--entry is required for regularity")
    entry = _parse_entry(args.entry, scene)
    tol = args.tol if args.tol is not None else 1e-6
    result = variation.regularity_test(scene, entry, tolerance=tol)
    doc = {"header": _header(args, scene), **result.to_dict()}
    _write(args, canonical_json(doc) + "\n")
    return 0


def _cmd_livshits(args):
    if not args.out:
        raise ValueError("--out prefix is required for livshits")
    ball_radius = 10.0
    deformation = 0.05 * ball_radius
    base, foci = geometry.livshits_scene(ball_radius=ball_radius)
    deformed, _ = geometry.livshits_scene(ball_radius=ball_radius, deformation=deformation)
    with open(args.out + ".base.json", "w", newline="\n") as fh:
        fh.write(geometry.scene_to_json(base) + "\n")
    with open(args.out + ".deformed.json", "w", newline="\n") as fh:
        fh.write(geometry.scene_to_json(deformed) + "\n")
    meta = {
        "header": _header(args),
        "foci": [list(f) for f in foci],
        "ball_radius": ball_radius,
        "deformation": deformation,
        "base_hash": geometry.scene_hash(base),
        "deformed_hash": geometry.scene_hash(deformed),
    }
    with open(args.out + ".meta.json", "w", newline="\n") as fh:
        fh.write(canonical_json(meta) + "\n")
    sys.stdout.write(canonical_json({"foci": [list(f) for f in foci]}) + "\n")
    return 0


def _cmd_render(args):
    scene = _load_scene(args.scene)
    trajectories = []
    if args.entry:
        entry = _parse_entry(args.entry, scene)
        trajectories.append(flow.trace(scene, entry, _limits(args)))
    svg = render.svg_scene(scene, trajectories, comment=canonical_json(_header(args, scene)))
    path = args.svg or args.out
    if path:
        with open(path, "w", newline="\n") as fh:
            fh.write(svg)
    else:
        sys.stdout.write(svg)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "trace": _cmd_trace,
    "lens": _cmd_lens,
    "trapped": _cmd_trapped,
    "sls": _cmd_sls,
    "compare": _cmd_compare,
    "conjugate": _cmd_conjugate,
    "regularity": _cmd_regularity,
    "livshits": _cmd_livshits,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    args._invocation = list(argv)
    try:
        return _COMMANDS[args.command](args)
    except (geometry.SchemaError, geometry.InvalidParameters, geometry.ValidationFailed,
            lens.SpecMismatch, FileNotFoundError, IsADirectoryError, ValueError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (flow.RootPolishFailed, variation.ItineraryChanged, variation.TangentOnPath,
            variation.TangentIncidence, geometry.SingularGradient, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
