"""The three benchmark workloads: seeded inputs, one timed pass, oracles.

Every workload is a closed loop with one caller: the next call is issued
only when the previous one has returned. Inputs come from `random.Random`
seeded by the benchmark seed, never from the package's own generator, and
are handed to the program as scene files, sample specs and entry points.

A workload is four functions (see WORKLOADS): `setup(work_dir, seed)`
builds the inputs, `run_pass(inputs)` times one pass over them through a
`Clock`, `check(inputs, passes)` applies the oracles to what the passes
returned and wrote, and `metrics(passes)` gives the workload's own figures.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from pathlib import Path

import numpy as np

from billiard_lens import cli, flow, geometry, lens, variation
from billiard_lens.geometry import EllipsoidObstacle, SphereObstacle, SuperellipsoidObstacle

A = 10.0                  # ball radius of every scene
CHORD_TOL = 1e-9 * A      # free-ray chord law |t - 2a<v,nu>|
OUTPUT_TOL = 1e-12 * A    # what a faster tracer or writer may change in a written value
REVERSAL_SAMPLES = 64     # scattered samples per lens table retraced backwards
ORBITS_PER_SCENE = 400    # single-orbit: 3 scenes, so >= 1000 orbits per pass
ORBIT_CHUNK = 40          # orbits per timed call between two reference-kernel runs
REF_S = 0.0045            # reference_kernel() time in the fast state of the host the
                          # baseline was recorded on (2-vCPU Intel Xeon, Python 3.11)
# Finite-difference oracle of the Jacobi blocks: criterion 3's step and
# tolerance 1e-4 |fd| + 1e-8, taken per block in the max norm, since the
# error of a difference quotient scales with the block, not with each entry.
# On strongly defocusing orbits the step shrinks until step * |J| <= FD_SCALE,
# so the O((h |J|)^2) truncation stays below the relative term; the absolute
# term is noise over the step, so it grows as 1/step: rounding for
# closed-form roots, the polish tolerance |F| <= 1e-12 a for marched ones.
# Near-grazing incidences raise the truncation further: an orbit that misses
# is compared again at a tenth and a hundredth of the step. Past
# |J| = FD_MAX_GAIN (orbits that bounce many times near a periodic one),
# rounding in the probe orbits leaves no step that resolves 1e-4, so those
# orbits are counted, not checked.
FD_STEP = 1e-6 * A
FD_SCALE = 1e-3
FD_MAX_GAIN = 1e6
FD_NOISE_CLOSED = 1e-8 * FD_STEP
FD_NOISE_MARCHED = 1e-12 * A
FLAT_CURVATURE = 1e-4     # a principal curvature below this marks a flat boundary point


class Problems(list):
    """Violated checks, as messages."""

    def require(self, ok: bool, message: str):
        if not ok:
            self.append(message)


def _jitter(rnd: random.Random, scale: float) -> float:
    return rnd.uniform(-scale, scale)


def _write_scene(work: Path, scene) -> tuple[str, object]:
    """Write a scene file and load it back as the program would."""
    path = work / f"{scene.name}.json"
    path.write_text(geometry.scene_to_json(scene) + "\n")
    return str(path), geometry.scene_from_json(path.read_text())


def _two_disc(rnd):
    return geometry.make_scene(2, A, [
        SphereObstacle([-3.0 + _jitter(rnd, 0.2), _jitter(rnd, 0.2)], 1.0 + _jitter(rnd, 0.1)),
        SphereObstacle([3.0 + _jitter(rnd, 0.2), _jitter(rnd, 0.2)], 1.0 + _jitter(rnd, 0.1)),
    ], "two-disc")


def _disc_ellipse(rnd):
    return geometry.make_scene(2, A, [
        SphereObstacle([-3.0 + _jitter(rnd, 0.2), 0.5 + _jitter(rnd, 0.2)], 1.0 + _jitter(rnd, 0.1)),
        EllipsoidObstacle([3.0 + _jitter(rnd, 0.2), -0.5 + _jitter(rnd, 0.2)],
                          [1.6 * (1 + _jitter(rnd, 0.05)), 0.9 * (1 + _jitter(rnd, 0.05))]),
    ], "disc-ellipse")


def _sphere_ellipsoid(rnd):
    return geometry.make_scene(3, A, [
        SphereObstacle([-3.0 + _jitter(rnd, 0.2), 0.4 + _jitter(rnd, 0.2), _jitter(rnd, 0.2)],
                       1.0 + _jitter(rnd, 0.1)),
        EllipsoidObstacle([3.0 + _jitter(rnd, 0.2), -0.4 + _jitter(rnd, 0.2), 0.2 + _jitter(rnd, 0.2)],
                          [s * (1 + _jitter(rnd, 0.05)) for s in (1.5, 1.0, 0.8)]),
    ], "sphere-ellipsoid")


def _superellipsoid(rnd):
    return geometry.make_scene(3, A, [
        SuperellipsoidObstacle([_jitter(rnd, 0.2) for _ in range(3)],
                               [s * (1 + _jitter(rnd, 0.05)) for s in (3.0, 2.5, 2.0)], 6.0),
    ], "superellipsoid")


def reference_kernel() -> float:
    """Fixed work of the kind the program does, written here so that no
    change to the program changes it: small-vector arithmetic in the
    interpreter, then a chunked pairwise-distance reduction in numpy."""
    q, c, acc = np.array([-10.0, 0.1]), np.array([0.5, 0.2]), 0.0
    for i in range(400):
        v = np.array([math.cos(1e-3 * i), math.sin(1e-3 * i)])
        d = q - c
        b = float(d @ v)
        disc = b * b - float(d @ d) + 1.0
        if disc > 0.0:
            acc += math.sqrt(disc)
    X = np.linspace(-1.0, 1.0, 4096).reshape(2048, 2)
    for lo in range(0, 2048, 512):
        acc += float(np.min(np.sum((X[lo:lo + 512, None, :] - X[None, ::32, :]) ** 2, axis=2)))
    return acc


class Clock:
    """Times the calls of one pass, and the reference kernel between them.

    The shared host this was built on switches between fast and slow
    states every few seconds, and the slowdown hits the program and the
    kernel much alike: a call's time over the mean of the kernel times just
    before and after it stays put across those states (see `ref_seconds`)."""

    def __init__(self):
        self.op_s: list[float] = []
        self.ref_s = [self._reference()]

    @staticmethod
    def _reference() -> float:
        """Faster of two kernel runs: the first may pay for caches the
        call before it evicted."""
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            reference_kernel()
            best = min(best, time.perf_counter() - t0)
        return best

    def call(self, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.op_s.append(time.perf_counter() - t0)
            self.ref_s.append(self._reference())

    def record(self) -> dict:
        ref = np.array(self.ref_s)
        return {"wall_s": float(sum(self.op_s)), "op_s": list(self.op_s),
                "ref_s": list(0.5 * (ref[:-1] + ref[1:]))}


def ref_seconds(passes: list) -> np.ndarray:
    """Each call's time at the host's undisturbed speed: its time over the
    adjacent reference-kernel time, as a median over the run's passes (every
    pass issues the same calls in the same order), times REF_S."""
    ratio = np.array([np.array(r["op_s"]) / np.array(r["ref_s"]) for r in passes])
    return REF_S * np.median(ratio, axis=0)


def _digest(paths) -> str:
    """Hash of the files, read in chunks so that the measured process does
    not hold them."""
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                h.update(chunk)
    return h.hexdigest()


# -- lens tables as written by the CLI ------------------------------------------
# The timed passes read only what they count (a JSONL header, the CSV status
# column, streamed); `check`, which runs after peak RSS is read, parses whole
# files.


def _jsonl_header(path) -> dict:
    with open(path) as fh:
        return json.loads(fh.readline())


def _read_jsonl(path) -> tuple[dict, list]:
    lines = Path(path).read_text().splitlines()
    return json.loads(lines[0]), [json.loads(ln) for ln in lines[1:] if ln.strip()]


def _read_csv(path) -> list:
    lines = Path(path).read_text().splitlines()
    cols = lines[1].split(",")
    return [dict(zip(cols, ln.split(","))) for ln in lines[2:] if ln]


def _csv_status_counts(path) -> dict:
    counts = {s: 0 for s in lens.STATUSES}
    with open(path) as fh:
        fh.readline()
        col = fh.readline().rstrip("\n").split(",").index("status")
        for ln in fh:
            if ln.strip():
                counts[ln.split(",")[col]] += 1
    return counts


def _chord_violations(samples, mu_of) -> int:
    """Free samples whose time breaks t = 2a<v,nu>."""
    bad = 0
    for s in samples:
        if s["status"] == "free" and abs(float(s["t"]) - 2.0 * A * mu_of(s)) > CHORD_TOL:
            bad += 1
    return bad


def _jsonl_mu(s) -> float:
    q, v = np.array(s["q"]), np.array(s["v"])
    return float(v @ (-q / A))


def _reversal_problems(scene, spec, table_params, table_rows, rnd, label) -> list:
    """Retrace a seeded subset of scattered samples from their reversed exit
    state: the reversed ray must leave at the entry point along -v, with the
    same time and reflection count."""
    entries = lens.sample_phase_sphere(spec, scene.ball_radius, scene.dimension)
    scattered = [k for k, r in enumerate(table_rows) if r["status"] == "scattered"]
    out = []
    for k in rnd.sample(scattered, min(REVERSAL_SAMPLES, len(scattered))):
        e = entries[k]
        if not all(math.isclose(float(p), float(q), rel_tol=1e-12, abs_tol=1e-12)
                   for p, q in zip(table_params[k], e.params, strict=True)):
            out.append(f"{label}: regenerated entry {k} does not match the table")
            continue
        try:
            fwd = flow.trace(scene, flow.PhasePoint(e.q, e.v), spec.limits())
            back = flow.trace(scene, flow.PhasePoint(fwd.exit_state.q, -fwd.exit_state.v), spec.limits())
        except (ArithmeticError, RuntimeError, ValueError) as exc:
            out.append(f"{label}: sample {k} fails to retrace: {type(exc).__name__}: {exc}")
            continue
        t_table = float(table_rows[k]["t"])
        ok = (abs(fwd.total_time - t_table) <= OUTPUT_TOL
              and back.status == "exited"
              and len(back.events) == int(table_rows[k]["reflections"])
              and abs(back.total_time - t_table) <= CHORD_TOL
              and float(np.max(np.abs(back.exit_state.q - e.q))) <= 1e-7 * A
              and float(np.max(np.abs(back.exit_state.v + e.v))) <= 1e-7)
        if not ok:
            out.append(f"{label}: sample {k} does not retrace (t={t_table}, back t={back.total_time}, "
                       f"{len(back.events)} vs {table_rows[k]['reflections']} reflections)")
    return out


def _round_trip_problems(scene, spec, path) -> list:
    """The table the CLI wrote, read back, against the same table built in
    this process: indistinguishable with max|dt| = 0, and every entry state
    kept within OUTPUT_TOL."""
    built = lens.build_lens_table(scene, spec)
    with open(path) as fh:
        read = lens.table_from_jsonl(fh.read())
    try:
        rep = lens.compare_lens(built, read, 1e-6 * A)
    except lens.SpecMismatch as exc:
        return [f"JSONL round trip: {exc}"]
    out = []
    if not (rep.verdict == "indistinguishable" and rep.max_dt == 0 and rep.reflection_mismatches == 0):
        out.append(f"JSONL round trip compares {rep.verdict} with max|dt| = {rep.max_dt}, "
                   f"{rep.reflection_mismatches} reflection mismatches")
    drift = max(max(float(np.max(np.abs(a.q - b.q))), float(np.max(np.abs(a.v - b.v))))
                for a, b in zip(built.samples, read.samples))
    if drift > OUTPUT_TOL:
        out.append(f"JSONL round trip moves entry states by {drift:.3g}")
    return out


# -- lens-implicit ------------------------------------------------------------------

def setup_lens_implicit(work: Path, seed: int) -> dict:
    rnd = random.Random(seed)
    two_path, two = _write_scene(work, _two_disc(rnd))
    se_path, se = _write_scene(work, _sphere_ellipsoid(rnd))
    sup_path, sup = _write_scene(work, _superellipsoid(rnd))
    se_seed, sup_seed = rnd.getrandbits(32), rnd.getrandbits(32)
    out = {k: str(work / k) for k in ("two.jsonl", "se.jsonl", "sup.csv", "trapped.json", "compare.json")}
    lens_cmds = [
        ["lens", "--scene", two_path, "--spec", "grid:128x128", "--out", out["two.jsonl"]],
        ["lens", "--scene", se_path, "--spec", "mc:8000", "--seed", str(se_seed), "--out", out["se.jsonl"]],
        ["lens", "--scene", sup_path, "--spec", "mc:4000", "--seed", str(sup_seed), "--out", out["sup.csv"]],
    ]
    return {
        "scenes": {"two": two, "se": se, "sup": sup},
        "specs": {"two": lens.parse_spec("grid:128x128"),
                  "se": lens.parse_spec("mc:8000", seed=se_seed),
                  "sup": lens.parse_spec("mc:4000", seed=sup_seed)},
        "out": out,
        "lens_cmds": lens_cmds,
        "trapped_cmd": ["trapped", "--scene", two_path, "--spec", "grid:4x25,grid:8x125,grid:16x625",
                        "--out", out["trapped.json"]],
        "compare_cmd": ["compare", "--scene", out["two.jsonl"], "--scene-b", out["two.jsonl"],
                        "--expect-equal", "--out", out["compare.json"]],
        "seed": seed,
    }


def run_lens_implicit(inp: dict) -> dict:
    clock = Clock()
    codes = [clock.call(cli.main, list(argv))
             for argv in inp["lens_cmds"] + [inp["trapped_cmd"], inp["compare_cmd"]]]

    out = inp["out"]
    statuses = [_jsonl_header(out[k])["summary"]["counts"] for k in ("two.jsonl", "se.jsonl")]
    statuses.append(_csv_status_counts(out["sup.csv"]))
    lens_rays = sum(sum(c.values()) for c in statuses)
    ladder = json.loads(Path(out["trapped.json"]).read_text())["estimate"]
    ladder_rays = sum(ladder["resolutions"])
    return {
        **clock.record(),
        "codes": codes,
        "lens_rays": lens_rays,
        "rays_traced": lens_rays + ladder_rays,
        "attempted": len(codes) + lens_rays + ladder_rays,
        "failed": sum(c != 0 for c in codes) + sum(c["error"] for c in statuses),
        "digest": _digest(out.values()),
        "tables": statuses,
    }


def check_lens_implicit(inp: dict, passes: list) -> tuple[Problems, dict]:
    p = Problems()
    out = inp["out"]
    p.require(all(c == 0 for r in passes for c in r["codes"]), "a CLI command exited non-zero")
    p.require(len({r["digest"] for r in passes}) == 1, "outputs differ between identical passes")
    _, two_rows = _read_jsonl(out["two.jsonl"])
    _, se_rows = _read_jsonl(out["se.jsonl"])
    sup_rows = _read_csv(out["sup.csv"])
    bad = (_chord_violations(two_rows, _jsonl_mu) + _chord_violations(se_rows, _jsonl_mu)
           + _chord_violations(sup_rows, lambda s: float(s["dir_mu"])))
    p.require(bad == 0, f"{bad} free samples break the chord law")
    report = json.loads(Path(out["compare.json"]).read_text())["report"]
    p.require(report["verdict"] == "indistinguishable" and report["max_dt"] == 0,
              f"the two-disc table compares {report['verdict']} with itself, max|dt| = {report['max_dt']}")
    p.extend(_round_trip_problems(inp["scenes"]["two"], inp["specs"]["two"], out["two.jsonl"]))
    fr = json.loads(Path(out["trapped.json"]).read_text())["estimate"]["fractions"]
    p.require(all(a >= b for a, b in zip(fr, fr[1:])) and fr[-1] <= 1e-3,
              f"trapped fractions {fr} are not monotone down to <= 1e-3")
    rnd = random.Random(inp["seed"])
    sc, sp = inp["scenes"], inp["specs"]
    p.extend(_reversal_problems(sc["two"], sp["two"], [r["params"] for r in two_rows], two_rows, rnd, "two-disc"))
    p.extend(_reversal_problems(sc["se"], sp["se"], [r["params"] for r in se_rows], se_rows, rnd, "sphere-ellipsoid"))
    sup_params = [[r["pos_z"], r["pos_phi"], r["dir_mu"], r["dir_psi"]] for r in sup_rows]
    p.extend(_reversal_problems(sc["sup"], sp["sup"], sup_params, sup_rows, rnd, "superellipsoid"))
    names = ("two-disc grid:128x128", "sphere-ellipsoid mc:8000", "superellipsoid mc:4000")
    facts = {
        "tables": {n: {"rays": sum(c.values()),
                       "scattered_share": c["scattered"] / sum(c.values())}
                   for n, c in zip(names, passes[0]["tables"])},
        "trapped_fractions": fr,
        "jsonl_bytes": {"two-disc": Path(out["two.jsonl"]).stat().st_size,
                        "sphere-ellipsoid": Path(out["se.jsonl"]).stat().st_size},
    }
    return p, facts


def metrics_lens_implicit(passes: list) -> dict:
    ops = ref_seconds(passes)
    return {
        "lens_rays_per_s": (passes[0]["lens_rays"] / float(ops[:3].sum()), "1/s"),
        "trapped_ladder_s": (float(ops[3]), "s"),
        "compare_s": (float(ops[4]), "s"),
    }


# -- livshits -----------------------------------------------------------------------

LIVSHITS_DEFORMATION = 0.5  # 0.05 a, the pair the `livshits` command writes


def setup_livshits(work: Path, seed: int) -> dict:
    # The pair is the paper's fixed demonstration; the seed does not change it.
    base, _ = geometry.livshits_scene(ball_radius=A)
    deformed, _ = geometry.livshits_scene(ball_radius=A, deformation=LIVSHITS_DEFORMATION)
    base_path, base = _write_scene(work, base)
    def_path, deformed = _write_scene(work, deformed)
    out = {k: str(work / k) for k in ("validate.json", "base.jsonl", "deformed.jsonl", "compare.json")}
    return {
        "base": base,
        "deformed": deformed,
        "out": out,
        "validate_cmd": ["validate", "--scene", base_path, "--out", out["validate.json"]],
        "lens_cmds": [
            ["lens", "--scene", base_path, "--spec", "grid:36x24", "--nmax", "600", "--out", out["base.jsonl"]],
            ["lens", "--scene", def_path, "--spec", "grid:36x24", "--nmax", "600", "--out", out["deformed.jsonl"]],
        ],
        "compare_cmd": ["compare", "--scene", out["base.jsonl"], "--scene-b", out["deformed.jsonl"],
                        "--expect-equal", "--out", out["compare.json"]],
    }


def run_livshits(inp: dict) -> dict:
    clock = Clock()
    codes = [clock.call(cli.main, list(argv))
             for argv in [inp["validate_cmd"]] + inp["lens_cmds"] + [inp["compare_cmd"]]]
    distance = clock.call(lens.boundary_distance, inp["base"], inp["deformed"], 100.0)

    out = inp["out"]
    statuses = [_jsonl_header(out[k])["summary"]["counts"] for k in ("base.jsonl", "deformed.jsonl")]
    lens_rays = sum(sum(c.values()) for c in statuses)
    return {
        **clock.record(),
        "codes": codes,
        "lens_rays": lens_rays,
        "distance": distance,
        "rays_traced": lens_rays,
        "attempted": len(codes) + 1 + lens_rays,
        "failed": sum(c != 0 for c in codes) + sum(c["error"] for c in statuses),
        "digest": _digest(out.values()) + repr(distance),
        "tables": statuses,
    }


def check_livshits(inp: dict, passes: list) -> tuple[Problems, dict]:
    p = Problems()
    out = inp["out"]
    p.require(all(c == 0 for r in passes for c in r["codes"]), "a CLI command exited non-zero")
    p.require(len({r["digest"] for r in passes}) == 1, "outputs differ between identical passes")
    report = json.loads(Path(out["compare.json"]).read_text())["report"]
    p.require(report["verdict"] == "indistinguishable" and report["max_dt"] == 0,
              f"base vs deformed compares {report['verdict']} with max|dt| = {report['max_dt']}")
    scattered = passes[0]["tables"][0]["scattered"]
    p.require(scattered > 100, f"only {scattered} scattered samples: the verdict would be vacuous")
    distance = passes[0]["distance"]
    p.require(abs(distance - LIVSHITS_DEFORMATION) <= 0.2 * LIVSHITS_DEFORMATION,
              f"boundary distance {distance} is not within 20% of {LIVSHITS_DEFORMATION}")
    bad = sum(_chord_violations(_read_jsonl(out[k])[1], _jsonl_mu) for k in ("base.jsonl", "deformed.jsonl"))
    p.require(bad == 0, f"{bad} free samples break the chord law")
    c = passes[0]["tables"][0]
    facts = {"tables": {"base grid:36x24": {"rays": sum(c.values()),
                                            "scattered_share": c["scattered"] / sum(c.values())}},
             "boundary_distance": distance,
             "verdict": report["verdict"]}
    return p, facts


def metrics_livshits(passes: list) -> dict:
    ops = ref_seconds(passes)
    return {
        "lens_rays_per_s": (passes[0]["lens_rays"] / float(ops[1:3].sum()), "1/s"),
        "compare_s": (float(ops[3]), "s"),
        "validate_s": (float(ops[0]), "s"),
        "boundary_distance_s": (float(ops[4]), "s"),
    }


# -- single-orbit -------------------------------------------------------------------


def _unit(rnd: random.Random, dim: int) -> np.ndarray:
    while True:
        u = np.array([rnd.gauss(0.0, 1.0) for _ in range(dim)])
        n = float(np.linalg.norm(u))
        if n > 1e-6:
            return u / n


def _inner_point(obs, rnd, dim) -> np.ndarray:
    axes = getattr(obs, "semi_axes", None)
    axes = np.full(dim, obs.radius) if axes is None else axes
    return obs.center + 0.8 * rnd.random() * axes * _unit(rnd, dim)


def _aimed_entries(scene, n: int, rnd: random.Random) -> list:
    """Entries whose rays pass a free point `p` on their way into an obstacle.

    With two obstacles, `p` sits between them, so the reversed ray from `p`
    usually meets the other obstacle first and the orbit has two or more
    reflections. The entry is where that reversed ray leaves the ball."""
    dim, obstacles = scene.dimension, scene.obstacles
    entries = []
    while len(entries) < n:
        k = rnd.randrange(len(obstacles))
        target = _inner_point(obstacles[k], rnd, dim)
        if len(obstacles) > 1:
            other = obstacles[1 - k].center
            p = other + rnd.uniform(0.3, 0.7) * (obstacles[k].center - other) + 0.5 * _unit(rnd, dim)
        else:
            p = rnd.uniform(0.3, 0.9) * A * _unit(rnd, dim)
        if float(np.linalg.norm(p)) >= 0.9 * A or any(o.implicit(p) <= 0.0 for o in obstacles):
            continue
        v = (target - p) / np.linalg.norm(target - p)
        back = flow.trace_phase(scene, p, -v)
        if back.status != "exited" or any(ev.type != "transversal" for ev in back.events):
            continue
        entries.append(flow.PhasePoint(back.exit_state.q, -back.exit_state.v))
    return entries


def setup_single_orbit(work: Path, seed: int) -> dict:
    rnd = random.Random(seed)
    scenes = []
    for make in (_disc_ellipse, _sphere_ellipsoid, _superellipsoid):
        _, scene = _write_scene(work, make(rnd))
        scenes.append((scene, _aimed_entries(scene, ORBITS_PER_SCENE, rnd)))
    return {"scenes": scenes}


def _analyse(scene, entry) -> dict:
    """One orbit: trace, regularity, flow differentials against the
    finite-difference oracle, and conjugacy of every pair of reflections."""
    traj = flow.trace(scene, entry)
    reg = variation.regularity_test(scene, entry)
    last = traj.events[-1].t
    t = last + 0.5 * (traj.total_time - last)
    jac = variation.flow_differentials(scene, entry, t, traj)
    gain = max(float(np.max(np.abs(b))) for b in jac)
    h = min(FD_STEP, FD_SCALE / max(1.0, gain))
    try:
        fd = variation.fd_flow_jacobian(scene, entry, t, h)
    except variation.ItineraryChanged:
        fd = None
    n = len(traj.events)
    conj = [variation.conjugate_test(scene, traj, i, j).conjugate for i in range(n) for j in range(i + 1, n)]
    return {"traj": traj, "t": t, "h": h, "gain": gain, "regular": reg.regular, "jac": jac, "fd": fd, "conjugate": conj}


def _analyse_chunk(scene, entries, results, latency_s) -> None:
    for entry in entries:
        t0 = time.perf_counter()
        try:
            r = _analyse(scene, entry)
        except (ArithmeticError, RuntimeError, ValueError) as exc:
            r = {"error": f"{type(exc).__name__}: {exc}"}
        latency_s.append(time.perf_counter() - t0)
        results.append(r)


def run_single_orbit(inp: dict) -> dict:
    """Orbits one at a time; the clock times chunks of ORBIT_CHUNK orbits."""
    clock, results, latency_s, scene_of, call_of = Clock(), [], [], [], []
    for si, (scene, entries) in enumerate(inp["scenes"]):
        for lo in range(0, len(entries), ORBIT_CHUNK):
            chunk = entries[lo:lo + ORBIT_CHUNK]
            call_of += [len(clock.op_s)] * len(chunk)
            clock.call(_analyse_chunk, scene, chunk, results, latency_s)
            scene_of += [si] * len(chunk)
    for r, si in zip(results, scene_of):
        r["scene"] = si
    failed = sum("error" in r for r in results)
    h = hashlib.sha256()
    for r in results:
        if "error" in r:
            h.update(r["error"].encode())
            continue
        h.update(repr((len(r["traj"].events), r["traj"].total_time, r["regular"], r["conjugate"])).encode())
        for blk in r["jac"] + (r["fd"] or ()):
            h.update(np.ascontiguousarray(blk).tobytes())
    rec = clock.record()
    # each orbit at the host's undisturbed speed, by the kernel around its chunk
    latency_s = list(REF_S * np.array(latency_s) / np.array(rec["ref_s"])[call_of])
    return {**rec, "latency_s": latency_s, "results": results,
            "attempted": len(results), "failed": failed, "digest": h.hexdigest()}


def _symplectic_drift(scene, traj, t) -> float:
    """|A1^T B2 - B1^T A2 + I| for the frames seeded (0, I) and (I, 0),
    propagated to time t through the public transfer maps."""
    v0 = traj.entry.v
    frames = [variation.seed_frame(v0, 0.0, 1.0), variation.seed_frame(v0, 1.0, 0.0)]
    t_prev = 0.0
    for ev in traj.events:
        if ev.t >= t:
            break
        sf = geometry.surface_frame(scene.obstacles[ev.obstacle], ev.x)
        inc = variation.Incidence(ev.v_in, sf.normal, sf.shape_ambient())
        frames = [variation.propagate_reflection(variation.propagate_free(f, ev.t - t_prev), inc)
                  for f in frames]
        t_prev = ev.t
    f0, f1 = (variation.propagate_free(f, t - t_prev) for f in frames)
    m = v0.shape[0] - 1
    # the pairing cancels products that grow with every reflection; rounding
    # scales with their size
    scale = max(1.0, float(np.max(np.abs(f0.A.T @ f1.B))), float(np.max(np.abs(f0.B.T @ f1.A))))
    return float(np.max(np.abs(variation.symplectic_pairing(f0, f1) + np.eye(m)))) / scale


def _fd_margin(jac, fd, h, closed_form) -> float:
    """Largest excess of |J - FD| over the tolerance, per block in the max norm."""
    floor = (FD_NOISE_CLOSED if closed_form else FD_NOISE_MARCHED) / h
    return max(float(np.max(np.abs(a - b)) - 1e-4 * np.max(np.abs(b)) - floor) for a, b in zip(jac, fd))


def _min_curvature(scene, traj) -> float:
    """Smallest |principal curvature| over the reflection points of an orbit."""
    return min(float(np.min(np.abs(np.linalg.eigvalsh(
        geometry.surface_frame(scene.obstacles[ev.obstacle], ev.x).shape)))) for ev in traj.events)


def check_single_orbit(inp: dict, passes: list) -> tuple[Problems, dict]:
    p = Problems()
    p.require(len({r["digest"] for r in passes}) == 1, "orbit results differ between identical passes")
    results = passes[0]["results"]
    errors = [r["error"] for r in results if "error" in r]
    p.require(not errors, f"{len(errors)} orbits raised, first: {errors[:1]}")
    facts, fd_checked, fd_skipped, fd_unresolved, fd_refined, conjugate = {}, 0, 0, 0, 0, 0
    worst_fd, worst_sympl = -np.inf, 0.0
    for si, (scene, _) in enumerate(inp["scenes"]):
        mine = [r for r in results if r["scene"] == si and "error" not in r]
        quadric = all(isinstance(o, (SphereObstacle, EllipsoidObstacle)) for o in scene.obstacles)
        irregular = [r for r in mine if not r["regular"]]
        if quadric:
            p.require(len(irregular) <= 0.01 * len(mine),
                      f"{scene.name}: {len(irregular)}/{len(mine)} orbits are not regular")
        else:
            # a flat boundary point makes the direction block rank deficient
            flat = sum(_min_curvature(scene, r["traj"]) <= FLAT_CURVATURE for r in irregular)
            p.require(flat == len(irregular),
                      f"{scene.name}: {len(irregular) - flat} irregular orbits reflect at no flat point")
        for r in mine:
            worst_sympl = max(worst_sympl, _symplectic_drift(scene, r["traj"], r["t"]))
            conjugate += sum(r["conjugate"])
            if r["fd"] is None:
                fd_skipped += 1
                continue
            if r["gain"] > FD_MAX_GAIN:
                fd_unresolved += 1
                continue
            fd_checked += 1
            margin = _fd_margin(r["jac"], r["fd"], r["h"], quadric)
            for k in (1, 2):  # near-grazing incidences need a finer step
                if margin <= 0.0:
                    break
                fd_refined += 1
                h = r["h"] / 10 ** k
                try:
                    fd = variation.fd_flow_jacobian(scene, r["traj"].entry, r["t"], h)
                except variation.ItineraryChanged:
                    continue
                margin = _fd_margin(r["jac"], fd, h, quadric)
            worst_fd = max(worst_fd, margin)
        events = [len(r["traj"].events) for r in mine]
        facts[scene.name] = {
            "orbits": len(mine),
            "reflections": {str(k): events.count(k) for k in sorted(set(events))},
            "regular_share": 1.0 - len(irregular) / max(1, len(mine)),
        }
    p.require(worst_fd <= 0.0, f"Jacobi blocks miss the finite-difference oracle by {worst_fd:.3g}")
    p.require(fd_skipped + fd_unresolved <= 0.1 * len(results),
              f"the oracle checked only {fd_checked} of {len(results)} orbits")
    p.require(worst_sympl <= 1e-9, f"relative symplectic drift {worst_sympl:.3g} > 1e-9")
    p.require(conjugate == 0, f"{conjugate} conjugate pairs on convex scenes")
    facts.update({"fd_checked": fd_checked, "fd_itinerary_changed": fd_skipped,
                  "fd_unresolved_gain": fd_unresolved, "fd_refined_steps": fd_refined,
                  "fd_worst_margin": worst_fd, "symplectic_drift": worst_sympl})
    return p, facts


def metrics_single_orbit(passes: list) -> dict:
    lat = 1e3 * np.concatenate([r["latency_s"] for r in passes])
    return {
        "orbit_p50_ms": (float(np.percentile(lat, 50)), "ms"),
        "orbit_p99_ms": (float(np.percentile(lat, 99)), "ms"),
        "orbits": (int(lat.size), "count"),
    }


WORKLOADS = {
    "lens-implicit": (setup_lens_implicit, run_lens_implicit, check_lens_implicit, metrics_lens_implicit),
    "livshits": (setup_livshits, run_livshits, check_livshits, metrics_livshits),
    "single-orbit": (setup_single_orbit, run_single_orbit, check_single_orbit, metrics_single_orbit),
}
