"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import json
import math

import numpy as np
import pytest

import billiard_lens as bl
from billiard_lens import cli, flow, geometry, lens, variation
from billiard_lens.flow import Limits, PhasePoint
from billiard_lens.lens import SampleSpec
from billiard_lens.rng import Xoshiro256StarStar

from conftest import A_BALL, entry_through, seed_pair_frames


def _report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] {name}" + (f": {detail}" if detail else "")
    print(line)
    assert ok, line


def test_criterion_1_free_ray_chord(empty2, empty3):
    worst = 0.0
    for scene, dim, seed in ((empty2, 2, 101), (empty3, 3, 102)):
        entries = lens.sample_phase_sphere(SampleSpec("mc", n_total=1000, seed=seed),
                                           A_BALL, dim)
        for e in entries:
            traj = flow.trace(scene, PhasePoint(e.q, e.v))
            chord = 2.0 * A_BALL * float(e.v @ (-e.q / A_BALL))
            worst = max(worst, abs(traj.total_time - chord))
    _report("1 free-ray chord t = 2a<v,nu> (2x1000 entries)", worst <= 1e-9 * A_BALL,
            f"max |dt| = {worst:.3g}")


def test_criterion_2_sphere_backscatter(sphere_scene, tmp_path):
    gen = Xoshiro256StarStar(7)
    worst_t, worst_s = 0.0, 0.0
    for _ in range(10):
        z = 2.0 * gen.uniform() - 1.0
        phi = gen.unit_angle()
        rho = math.sqrt(1.0 - z * z)
        omega = np.array([rho * math.cos(phi), rho * math.sin(phi), z])
        entry = PhasePoint(-A_BALL * omega, omega.copy())
        traj = flow.trace(sphere_scene, entry)
        worst_t = max(worst_t, abs(traj.total_time - 2.0 * (A_BALL - 1.0)))
        worst_s = max(worst_s, abs(flow.sojourn_time(traj) + 2.0))
    ok_t = worst_t <= 1e-9 * A_BALL
    ok_s = worst_s <= 1e-6

    scene_path = tmp_path / "sphere.json"
    scene_path.write_text(geometry.scene_to_json(sphere_scene) + "\n")
    out = tmp_path / "sls.json"
    code = cli.main(["sls", "--scene", str(scene_path), "--omega", "1,0,0",
                     "--theta=-1,0,0", "--spec", "grid:9x9", "--tol", "1e-3",
                     "--out", str(out)])
    doc = json.loads(out.read_text())
    bins = doc["bins"]
    ok_bin = code == 0 and len(bins) == 1 and abs(bins[0]["sojourn"] + 2.0) <= 1e-4
    _report("2 sphere backscatter (travelling, sojourn, sls bin)",
            ok_t and ok_s and ok_bin,
            f"|dt|={worst_t:.2g} |dsojourn|={worst_s:.2g} bins={[(b['sojourn'], b['count']) for b in bins]}")


def _collect_orbits(scene, dim, seed, want, max_events=2):
    gen = Xoshiro256StarStar(seed)
    out = []
    attempts = 0
    while len(out) < want and attempts < 20000:
        attempts += 1
        if dim == 2:
            alpha = gen.unit_angle()
            beta = -0.5 * math.pi + math.pi * gen.uniform()
            q = A_BALL * np.array([math.cos(alpha), math.sin(alpha)])
            nu = -q / A_BALL
            t = np.array([-nu[1], nu[0]])
            entry = PhasePoint(q, math.cos(beta) * nu + math.sin(beta) * t)
        else:
            z = 2.0 * gen.uniform() - 1.0
            phi = gen.unit_angle()
            rho = math.sqrt(max(0.0, 1.0 - z * z))
            q = A_BALL * np.array([rho * math.cos(phi), rho * math.sin(phi), z])
            nu = -q / A_BALL
            T = geometry.tangent_basis(nu)
            mu = gen.uniform()
            psi = gen.unit_angle()
            st = math.sqrt(1.0 - mu * mu)
            entry = PhasePoint(q, st * (math.cos(psi) * T[:, 0] + math.sin(psi) * T[:, 1]) + mu * nu)
        traj = flow.trace(scene, entry)
        if traj.status != "exited" or not (1 <= len(traj.events) <= max_events):
            continue
        if any(ev.type != "transversal" for ev in traj.events):
            continue
        out.append((entry, traj))
    return out


def test_criterion_3_jacobi_vs_fd(disc_ellipse_scene, sphere_ellipsoid_scene):
    orbits = (_collect_orbits(disc_ellipse_scene, 2, 301, 25)
              + _collect_orbits(sphere_ellipsoid_scene, 3, 302, 25))
    assert len(orbits) == 50
    worst_rel = 0.0
    worst_sympl = 0.0
    checked = 0
    for entry, traj in orbits:
        scene = disc_ellipse_scene if entry.q.shape[0] == 2 else sphere_ellipsoid_scene
        t = traj.events[-1].t + 0.5 * (traj.total_time - traj.events[-1].t)
        jac = variation.flow_differentials(scene, entry, t)
        try:
            fd = variation.fd_flow_jacobian(scene, entry, t, 1e-6 * A_BALL)
        except variation.ItineraryChanged:
            continue
        for a_blk, b_blk in zip(jac, fd):
            err = np.abs(a_blk - b_blk) - 1e-4 * np.abs(b_blk) - 1e-8
            worst_rel = max(worst_rel, float(np.max(err)))
        frames = seed_pair_frames(scene, traj, t)
        m = entry.q.shape[0] - 1
        drift = np.max(np.abs(variation.symplectic_pairing(frames[0], frames[1]) + np.eye(m)))
        worst_sympl = max(worst_sympl, float(drift))
        checked += 1
    ok = checked >= 45 and worst_rel <= 0.0 and worst_sympl <= 1e-9
    _report("3 Jacobi vs finite differences on 50 orbits",
            ok, f"checked={checked} tolerance margin={worst_rel:.3g} symplectic drift={worst_sympl:.3g}")


def test_criterion_4_mirror_equation(crescent_focus_scene, conjugate_fixture_scene,
                                     disc_ellipse_scene, sphere_ellipsoid_scene):
    # concave arc of radius 3 with its centre of curvature on the sphere:
    # the frame A + tB seeded by a direction fan refocuses at t = r
    r_mirror = 3.0
    entry = PhasePoint(np.array([-A_BALL, 0.0]), np.array([1.0, 0.0]))
    traj = flow.trace(crescent_focus_scene, entry)
    ev = traj.events[0]
    frame = variation.propagate_free(variation.seed_frame(entry.v, 0.0, 1.0), ev.t)
    sf = geometry.surface_frame(crescent_focus_scene.obstacles[ev.obstacle], ev.x)
    frame = variation.propagate_reflection(
        frame, variation.Incidence(ev.v_in, sf.normal, sf.shape_ambient())
    )
    t_singular = -frame.A[0, 0] / frame.B[0, 0]
    ok_mirror = abs(t_singular - r_mirror) <= 1e-3 * r_mirror

    x1 = np.array([0.0, 1.0])
    v1 = np.array([2**-0.5, -(2**-0.5)])
    fixture_traj = flow.trace(conjugate_fixture_scene, entry_through(x1, v1))
    res = variation.conjugate_test(conjugate_fixture_scene, fixture_traj, 0, 2)
    ok_conj = res.conjugate

    ok_convex = True
    for scene, dim, seed in ((disc_ellipse_scene, 2, 401), (sphere_ellipsoid_scene, 3, 402)):
        for entry2, traj2 in _collect_orbits(scene, dim, seed, 10, max_events=4):
            for i in range(len(traj2.events)):
                for j in range(i + 1, len(traj2.events)):
                    if variation.conjugate_test(scene, traj2, i, j).conjugate:
                        ok_convex = False
    _report("4 mirror-equation conjugacy",
            ok_mirror and ok_conj and ok_convex,
            f"singular t={t_singular:.6f} (predicted {r_mirror}), fixture conjugate={res.conjugate}, "
            f"convex scenes defocus={ok_convex}")


def test_criterion_5_regularity(disc_scene, sphere_scene, two_disc_scene):
    total, regular = 0, 0
    for scene, dim, seed in ((disc_scene, 2, 501), (two_disc_scene, 2, 502), (sphere_scene, 3, 503)):
        for entry, traj in _collect_orbits(scene, dim, seed, 40, max_events=6):
            result = variation.regularity_test(scene, entry)
            total += 1
            if result.regular:
                regular += 1
    frac = regular / total
    _report("5 regularity ranks n-1 on scattering entries",
            total >= 100 and frac >= 0.99, f"{regular}/{total} regular ({frac:.4f})")


def test_criterion_6_trapped_scaling(two_disc_scene, disc_scene):
    ladder = [SampleSpec("grid", 4, 25), SampleSpec("grid", 8, 125), SampleSpec("grid", 16, 625)]
    est = lens.estimate_trapped(two_disc_scene, ladder)
    monotone = all(f1 >= f2 for f1, f2 in zip(est.fractions, est.fractions[1:]))
    ok_two = monotone and est.fractions[-1] <= 1e-3

    # the trapped object on the axis: the periodic orbit between the inner
    # poles, trapped in both time directions (entries aimed down the axis hit
    # the outer pole and leave, so the orbit is probed from the inside)
    fwd = flow.trace_phase(two_disc_scene, np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                           Limits(n_max=400))
    bwd = flow.trace_phase(two_disc_scene, np.array([0.0, 0.0]), np.array([-1.0, 0.0]),
                           Limits(n_max=400))
    ok_axis = fwd.status == "trapped" and bwd.status == "trapped"

    est1 = lens.estimate_trapped(disc_scene, ladder)
    table = lens.build_lens_table(disc_scene, ladder[-1])
    ok_single = (est1.fractions == [0.0, 0.0, 0.0]
                 and all(s.reflections <= 1 for s in table.samples))
    _report("6 trapped-set scaling",
            ok_two and ok_axis and ok_single,
            f"two-disc fractions={est.fractions}, axis orbit trapped={ok_axis}, "
            f"single-disc fractions={est1.fractions}")


def test_criterion_7_livshits(livshits_pair):
    base, deformed, foci = livshits_pair
    c = foci[1][0]
    semi_major = 2.1 * 2.0  # default scene semi-axes (4.2, 2.7)

    # (a) focal-chord property on 1000 rays through the open focal segment
    gen = Xoshiro256StarStar(71)
    obstacle = base.obstacles[0]
    worst_over = -np.inf
    bad = 0
    for _ in range(1000):
        x0 = -c + 2.0 * c * (0.001 + 0.998 * gen.uniform())
        ang = math.pi * (0.1 + 0.8 * gen.uniform())
        v = np.array([math.cos(ang), math.sin(ang)])
        res = flow.first_hit(base, PhasePoint(np.array([x0, 0.0]), v), 10.0 * A_BALL)
        t, idx, x = res
        # every upward ray from the gap lands on the exact half-ellipse mirror
        r1 = np.linalg.norm(x - foci[0])
        r2 = np.linalg.norm(x - foci[1])
        assert abs(r1 + r2 - 2.0 * semi_major) < 1e-6
        sf = geometry.surface_frame(obstacle, x)
        vr = flow.reflect(v, sf.normal)
        x_cross = x[0] - x[1] / vr[1] * vr[0]
        if not (-c - 1e-7 <= x_cross <= c + 1e-7):
            bad += 1
        worst_over = max(worst_over, abs(x_cross) - c)
    ok_focal = bad == 0

    # (b) invisible pocket: deformed wall, identical lens data
    spec = SampleSpec("grid", 36, 24, n_max=600)
    table_base = lens.build_lens_table(base, spec)
    table_def = lens.build_lens_table(deformed, spec)
    report = lens.compare_lens(table_base, table_def, 1e-6 * A_BALL)
    scattered = table_base.summary["counts"]["scattered"]
    ok_compare = report.verdict == "indistinguishable" and scattered > 100
    dist = lens.boundary_distance(base, deformed, density=100.0)
    ok_dist = abs(dist - 0.5) <= 0.2 * 0.5
    _report("7 Livshits demonstration",
            ok_focal and ok_compare and ok_dist,
            f"focal violations={bad}/1000 (worst overshoot {worst_over:.2e}), "
            f"verdict={report.verdict}, max|dt|={report.max_dt:.3g}, "
            f"boundary distance={dist:.4f} (deformation 0.5)")


def test_criterion_8_radius_perturbation_distinguishable():
    spec = SampleSpec("grid", 40, 40)
    s1 = bl.make_scene(2, A_BALL, [bl.SphereObstacle([0.0, 0.0], 1.0)], "r1")
    s1_again = bl.make_scene(2, A_BALL, [bl.SphereObstacle([0.0, 0.0], 1.0)], "r1-again")
    s2 = bl.make_scene(2, A_BALL, [bl.SphereObstacle([0.0, 0.0], 1.01)], "r101")
    t1 = lens.build_lens_table(s1, spec)
    t1b = lens.build_lens_table(s1_again, spec)
    t2 = lens.build_lens_table(s2, spec)
    diff = lens.compare_lens(t1, t2, 1e-6 * A_BALL)
    same = lens.compare_lens(t1, t1b, 1e-6 * A_BALL)
    ok = (diff.verdict == "distinguishable" and diff.max_dt >= 0.019
          and same.verdict == "indistinguishable" and same.max_dt == 0.0
          and same.status_mismatches == 0 and same.reflection_mismatches == 0)
    _report("8 radius perturbation r=1 vs r=1.01 distinguishable, identical scenes equal",
            ok, f"max|dt|={diff.max_dt:.5f} (>= 0.019), identical scenes max|dt|={same.max_dt}")


def test_criterion_9_determinism(tmp_path):
    scene = bl.make_scene(2, A_BALL, [bl.SphereObstacle([0.3, -0.2], 1.0)], "det")
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(geometry.scene_to_json(scene) + "\n")
    out = tmp_path / "out.bin"

    invocations = [
        ["lens", "--scene", str(scene_path), "--spec", "mc:150", "--seed", "9",
         "--out", str(out)],
        ["lens", "--scene", str(scene_path), "--spec", "grid:14x10", "--out", str(out)],
        ["trace", "--scene", str(scene_path), "--entry=-10,0,1,0", "--out", str(out)],
        ["sls", "--scene", str(scene_path), "--omega", "0,1", "--theta", "0,-1",
         "--spec", "grid:5x5", "--out", str(out)],
        ["render", "--scene", str(scene_path), "--svg", str(out)],
    ]
    ok = True
    for argv in invocations:
        assert cli.main(list(argv)) == 0
        first = out.read_bytes()
        assert cli.main(list(argv)) == 0
        if out.read_bytes() != first:
            ok = False
    _report("9 determinism: identical invocations, identical bytes", ok,
            f"{len(invocations)} commands re-run byte-identically")
