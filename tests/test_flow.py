import math

import numpy as np
import pytest

import billiard_lens as bl
from billiard_lens import flow, geometry
from billiard_lens.flow import Limits, NotScattered, PhasePoint
from billiard_lens.rng import Xoshiro256StarStar

from conftest import A_BALL, entry_through


def test_first_hit_diametric(sphere_scene):
    res = flow.first_hit(sphere_scene, PhasePoint(np.array([-10.0, 0, 0]), np.array([1.0, 0, 0])), 100.0)
    t, idx, x = res
    assert t == pytest.approx(9.0, abs=1e-10)
    assert idx == 0
    assert np.allclose(x, [-1.0, 0.0, 0.0], atol=1e-10)


def test_first_hit_miss(sphere_scene):
    res = flow.first_hit(sphere_scene, PhasePoint(np.array([-10.0, 5.0, 0]), np.array([1.0, 0, 0])), 100.0)
    assert res is None


def test_first_hit_grazing_impact_parameter(sphere_scene):
    # analytic impact-parameter geometry: |<v, normal>| = sqrt(1 - b^2/r^2)
    b = 1.0 - 1e-9
    q = np.array([-10.0, b, 0.0])
    q = q * (A_BALL / np.linalg.norm(q))
    # keep the impact parameter exactly b: shift along x only
    q[0] = -math.sqrt(A_BALL**2 - b**2)
    q[1] = b
    res = flow.first_hit(sphere_scene, PhasePoint(q, np.array([1.0, 0.0, 0.0])), 100.0)
    assert res is not None
    t, idx, x = res
    normal = sphere_scene.obstacles[0].gradient(x)
    normal = normal / np.linalg.norm(normal)
    cos_in = abs(float(np.array([1.0, 0, 0]) @ normal))
    assert cos_in == pytest.approx(math.sqrt(1.0 - b * b), rel=1e-3)
    assert cos_in < 1e-4


def test_reflect_examples():
    assert np.allclose(flow.reflect([1.0, 0.0], [-1.0, 0.0]), [-1.0, 0.0])
    s = math.sqrt(2) / 2
    assert np.allclose(flow.reflect([s, -s], [0.0, 1.0]), [s, s], atol=1e-15)
    with pytest.raises(ValueError):
        flow.reflect([1.0, 0.0], [0.0, 1.0])  # tangential incidence


def test_trace_free_diametric(empty3):
    traj = flow.trace(empty3, PhasePoint(np.array([-10.0, 0, 0]), np.array([1.0, 0, 0])))
    assert traj.status == "exited"
    assert len(traj.events) == 0
    assert traj.total_time == pytest.approx(20.0, abs=1e-12)


def test_trace_sphere_diametric(sphere_scene):
    entry = PhasePoint(np.array([-10.0, 0, 0]), np.array([1.0, 0, 0]))
    traj = flow.trace(sphere_scene, entry)
    assert traj.status == "exited"
    assert len(traj.events) == 1
    assert np.allclose(traj.events[0].x, [-1.0, 0, 0], atol=1e-10)
    assert traj.total_time == pytest.approx(18.0, abs=1e-9)
    assert np.allclose(traj.exit_state.q, entry.q, atol=1e-9)
    assert np.allclose(traj.exit_state.v, -entry.v, atol=1e-12)


def test_two_disc_corridor_orbit_trapped(two_disc_scene):
    # the periodic orbit between the inner poles never leaves
    fwd = flow.trace_phase(two_disc_scene, np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                           Limits(n_max=300))
    bwd = flow.trace_phase(two_disc_scene, np.array([0.0, 0.0]), np.array([-1.0, 0.0]),
                           Limits(n_max=300))
    assert fwd.status == "trapped" and fwd.cutoff_reason == "max_reflections"
    assert bwd.status == "trapped"
    # an entry aimed down the axis from the sphere bounces off the outer pole instead
    axis_entry = flow.trace(two_disc_scene, PhasePoint(np.array([-10.0, 0.0]), np.array([1.0, 0.0])))
    assert axis_entry.status == "exited" and len(axis_entry.events) == 1


def test_travelling_time_examples(empty3, two_disc_scene):
    status, t = flow.travelling_time(empty3, PhasePoint(np.array([-10.0, 0, 0]), np.array([1.0, 0, 0])))
    assert status == "exited" and t == pytest.approx(20.0, abs=1e-12)
    # tangential entry reports zero immediately
    q = np.array([0.0, 10.0, 0.0])
    v = np.array([1.0, 0.0, 0.0])
    status, t = flow.travelling_time(empty3, PhasePoint(q, v))
    assert status == "exited" and t == 0.0
    # reflection cutoff reports trapped, never a number
    corridor = entry_through([2.0, 0.35], [-1.0, 0.02], a=A_BALL)
    status, t = flow.travelling_time(two_disc_scene, corridor, Limits(n_max=1))
    assert status == "trapped" and t is None


def test_omega_theta(empty3, sphere_scene, two_disc_scene):
    free = flow.trace(empty3, PhasePoint(np.array([-10.0, 0, 0]), np.array([1.0, 0, 0])))
    om, th = flow.omega_theta(free)
    assert np.allclose(om, th)
    back = flow.trace(sphere_scene, PhasePoint(np.array([-10.0, 0, 0]), np.array([1.0, 0, 0])))
    om, th = flow.omega_theta(back)
    assert np.allclose(th, -om)
    trapped = flow.trace(two_disc_scene, entry_through([2.0, 0.35], [-1.0, 0.02]), Limits(n_max=1))
    with pytest.raises(NotScattered):
        flow.omega_theta(trapped)


def _single_bounce_disc_oracle(q0, v, r):
    """Closed-form single-bounce scattering off the disc |x| = r in 2D."""
    q0 = np.asarray(q0, dtype=float)
    v = np.asarray(v, dtype=float)
    b = float(q0 @ v)
    t1 = -b - math.sqrt(b * b - (float(q0 @ q0) - r * r))
    x1 = q0 + t1 * v
    n = x1 / np.linalg.norm(x1)
    v1 = v - 2.0 * float(v @ n) * n
    return t1, x1, v1


def test_sojourn_time_examples(empty3, sphere_scene, disc_scene):
    free = flow.trace(empty3, PhasePoint(np.array([-10.0, 0, 0]), np.array([1.0, 0, 0])))
    assert flow.sojourn_time(empty3, free) == pytest.approx(0.0, abs=1e-12)
    back = flow.trace(sphere_scene, PhasePoint(np.array([-10.0, 0, 0]), np.array([1.0, 0, 0])))
    assert flow.sojourn_time(sphere_scene, back) == pytest.approx(-2.0, abs=1e-10)
    # off-axis single bounce vs the independent plane-geometry oracle
    entry = entry_through([-0.4, -2.0], [0.05, 1.0])
    traj = flow.trace(disc_scene, entry)
    assert traj.status == "exited" and len(traj.events) == 1
    t1, x1, v1 = _single_bounce_disc_oracle(entry.q, entry.v, 1.0)
    bq = float(x1 @ v1)
    t2 = -bq + math.sqrt(bq * bq - (float(x1 @ x1) - A_BALL**2))
    q_exit = x1 + t2 * v1
    oracle = (t1 + t2) + float(entry.q @ entry.v) - float(q_exit @ v1)
    assert flow.sojourn_time(disc_scene, traj) == pytest.approx(oracle, abs=1e-9)


def test_reflection_count_corridor_oracle(two_disc_scene):
    # two-bounce zig-zag: inner face of the right disc, through the centre,
    # inner face of the left disc (point symmetry keeps both on-boundary)
    ang = math.radians(170.0)
    p1 = np.array([3.0 + math.cos(ang), math.sin(ang)])
    n1 = np.array([math.cos(ang), math.sin(ang)])
    d1 = -p1 / np.linalg.norm(p1)
    d_in = d1 - 2.0 * float(d1 @ n1) * n1
    entry = entry_through(p1, d_in)
    traj = flow.trace(two_disc_scene, entry)
    assert traj.status == "exited"
    # brute-force recomputation with analytic disc intersections
    q, v = entry.q.copy(), entry.v.copy()
    count = 0
    centers = [np.array([-3.0, 0.0]), np.array([3.0, 0.0])]
    for _ in range(1000):
        best = None
        for c in centers:
            d = q - c
            b = float(d @ v)
            disc = b * b - (float(d @ d) - 1.0)
            if disc <= 0:
                continue
            t = -b - math.sqrt(disc)
            if t > 1e-9 and (best is None or t < best[0]):
                best = (t, c)
        if best is None:
            break
        t, c = best
        q = q + t * v
        n = (q - c) / np.linalg.norm(q - c)
        v = v - 2.0 * float(v @ n) * n
        count += 1
    assert count >= 2
    assert flow.reflection_count(traj) == count


def test_speed_and_specular_invariants(disc_ellipse_scene):
    gen = Xoshiro256StarStar(5)
    checked = 0
    for _ in range(500):
        alpha = gen.unit_angle()
        beta = -0.5 * math.pi + math.pi * gen.uniform()
        q = A_BALL * np.array([math.cos(alpha), math.sin(alpha)])
        nu = -q / A_BALL
        tangent = np.array([-nu[1], nu[0]])
        v = math.cos(beta) * nu + math.sin(beta) * tangent
        traj = flow.trace(disc_ellipse_scene, PhasePoint(q, v))
        for ev in traj.events:
            assert abs(np.linalg.norm(ev.v_out) - 1.0) < 1e-12
            if ev.type == "transversal":
                frame = geometry.surface_frame(disc_ellipse_scene.obstacles[ev.obstacle], ev.x)
                n = frame.normal
                assert abs(float(ev.v_out @ n) + float(ev.v_in @ n)) < 1e-10
                diff = ev.v_out - ev.v_in
                residual = diff - float(diff @ n) * n
                assert np.linalg.norm(residual) < 1e-10
                checked += 1
        if traj.status == "exited":
            assert traj.total_time == pytest.approx(sum(traj.segment_lengths), abs=1e-10 * A_BALL)
            times = [ev.t for ev in traj.events]
            assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
    assert checked > 50


def test_time_reversibility(disc_ellipse_scene, sphere_ellipsoid_scene):
    # rays aimed through jittered points near the obstacles so most entries scatter
    for scene, dim, seed in ((disc_ellipse_scene, 2, 9), (sphere_ellipsoid_scene, 3, 10)):
        gen = Xoshiro256StarStar(seed)
        done = 0
        for k in range(400):
            if done >= 20:
                break
            obs = scene.obstacles[k % len(scene.obstacles)]
            target = obs.bounding_center() + np.array(
                [obs.bounding_radius() * (2.0 * gen.uniform() - 1.0) for _ in range(dim)]
            )
            direction = np.array([2.0 * gen.uniform() - 1.0 for _ in range(dim)])
            if np.linalg.norm(direction) < 1e-6:
                continue
            entry = entry_through(target, direction)
            traj = flow.trace(scene, entry)
            if traj.status != "exited" or not traj.events:
                continue
            if any(ev.type != "transversal" for ev in traj.events):
                continue
            rev = flow.trace(scene, PhasePoint(traj.exit_state.q, -traj.exit_state.v))
            assert rev.status == "exited"
            assert len(rev.events) == len(traj.events)
            assert rev.total_time == pytest.approx(traj.total_time, abs=1e-9 * A_BALL)
            for ev_f, ev_b in zip(traj.events, reversed(rev.events)):
                assert np.linalg.norm(ev_f.x - ev_b.x) < 1e-7 * A_BALL
            done += 1
        assert done >= 20


def test_single_convex_obstacle_at_most_one_bounce(disc_scene):
    gen = Xoshiro256StarStar(13)
    for _ in range(300):
        alpha = gen.unit_angle()
        beta = -0.5 * math.pi + math.pi * gen.uniform()
        q = A_BALL * np.array([math.cos(alpha), math.sin(alpha)])
        nu = -q / A_BALL
        tangent = np.array([-nu[1], nu[0]])
        v = math.cos(beta) * nu + math.sin(beta) * tangent
        traj = flow.trace(disc_scene, PhasePoint(q, v))
        assert traj.status == "exited"
        assert len(traj.events) <= 1


def test_superellipsoid_marching_face_hit():
    # the superellipsoid's Newton-on-gauge roots: diametric ray meets the
    # flat-ish face centre at x = semi-axis
    for dim in (2, 3):
        axes = [1.5, 1.0] if dim == 2 else [1.5, 1.0, 0.8]
        scene = bl.make_scene(
            dim, A_BALL, [bl.SuperellipsoidObstacle([0.0] * dim, axes, 8.0)], "boxy"
        )
        q = np.zeros(dim)
        q[0] = -A_BALL
        v = np.zeros(dim)
        v[0] = 1.0
        traj = flow.trace(scene, PhasePoint(q, v))
        assert traj.status == "exited"
        assert len(traj.events) == 1
        ev = traj.events[0]
        assert ev.x[0] == pytest.approx(-1.5, abs=1e-9)
        assert abs(scene.obstacles[0].implicit(ev.x)) < 1e-10
        assert traj.total_time == pytest.approx(2.0 * (A_BALL - 1.5), abs=1e-8)


def test_not_scattered_errors(two_disc_scene):
    ang = math.radians(170.0)
    p1 = np.array([3.0 + math.cos(ang), math.sin(ang)])
    n1 = np.array([math.cos(ang), math.sin(ang)])
    d1 = -p1 / np.linalg.norm(p1)
    d_in = d1 - 2.0 * float(d1 @ n1) * n1
    trapped = flow.trace(two_disc_scene, entry_through(p1, d_in), Limits(n_max=1))
    assert trapped.status == "trapped"
    with pytest.raises(NotScattered):
        flow.sojourn_time(two_disc_scene, trapped)
    with pytest.raises(NotScattered):
        flow.reflection_count(trapped)


def test_tangent_event_continues_straight(disc_scene):
    # grazing chord with |<v,n>| below the tangency threshold
    b = 1.0 - 5e-16
    q = np.array([-math.sqrt(A_BALL**2 - b * b), b])
    traj = flow.trace(disc_scene, PhasePoint(q, np.array([1.0, 0.0])))
    assert traj.status == "exited"
    tangent_events = [ev for ev in traj.events if ev.type == "tangent"]
    assert len(tangent_events) == 1
    ev = tangent_events[0]
    assert np.allclose(ev.v_out, ev.v_in)
    # straight continuation never dips into the obstacle
    for eps in (1e-6, 1e-4, 1e-2):
        assert disc_scene.obstacles[0].implicit(ev.x + eps * ev.v_out) >= -1e-12


def test_gliding_rejected_on_concave_tangency():
    mirror = geometry.concave_mirror_obstacle([0.0, 0.0], 3.0, 0.5, 0.6, [1.0, 0.0])
    scene = bl.make_scene(2, 10.0, [mirror], "bowl")
    # phase point on the concave face moving along its tangent: the straight
    # continuation immediately runs inside the crescent body (a gliding
    # initial condition, which is detected and rejected, never integrated)
    ang = 0.1
    q = 3.0 * np.array([math.cos(ang), math.sin(ang)])
    tangent = np.array([-math.sin(ang), math.cos(ang)])
    traj = flow.trace_phase(scene, q, tangent)
    assert traj.status == "gliding_rejected"
    assert traj.cutoff_reason == "boundary_penetration"


@pytest.mark.parametrize("thickness", [0.005, 0.002, 1e-4])
def test_thin_mirror_is_not_tunnelled(thickness):
    # head-on rays through the centre of curvature across the whole aperture,
    # the joins with the end caps included: every one reflects straight back
    mirror = geometry.concave_mirror_obstacle([0.0, 0.0], 3.0, 0.6, thickness, [1.0, 0.0])
    scene = bl.make_scene(2, A_BALL, [mirror], "thin-mirror")
    geometry.validate_scene(scene)
    for phi in np.linspace(-0.6, 0.6, 201):
        v = np.array([math.cos(phi), math.sin(phi)])
        traj = flow.trace(scene, PhasePoint(-A_BALL * v, v))
        assert traj.status == "exited" and len(traj.events) == 1
        ev = traj.events[0]
        assert ev.type == "transversal"
        assert abs(np.linalg.norm(ev.x) - 3.0) <= 1e-12 * A_BALL
        assert np.allclose(ev.v_out, -v, atol=1e-9)


def test_first_hit_raises_on_inside_start(sphere_scene):
    boxy = bl.make_scene(3, A_BALL, [bl.SuperellipsoidObstacle([0.0] * 3, [1.5, 1.0, 0.8], 8.0)],
                         "boxy")
    for scene in (sphere_scene, boxy):
        with pytest.raises(flow.RootPolishFailed):
            flow.first_hit(scene, PhasePoint(np.array([0.2, 0.1, 0.0]), np.array([1.0, 0, 0])), 100.0)


def test_trajectory_jsonl_format(sphere_scene):
    traj = flow.trace(sphere_scene, PhasePoint(np.array([-10.0, 0, 0]), np.array([1.0, 0, 0])))
    text = flow.trajectory_jsonl(traj)
    lines = text.strip().split("\n")
    assert len(lines) == 2
    import json

    header = json.loads(lines[0])
    assert header["status"] == "exited"
    assert header["total_time"] == pytest.approx(18.0)
    ev = json.loads(lines[1])
    assert ev["type"] == "transversal"
    assert ev["obstacle"] == 0


def test_state_at(sphere_scene):
    traj = flow.trace(sphere_scene, PhasePoint(np.array([-10.0, 0, 0]), np.array([1.0, 0, 0])))
    q, v = flow.state_at(traj, 4.5)
    assert np.allclose(q, [-5.5, 0, 0])
    q, v = flow.state_at(traj, 10.0)
    assert np.allclose(q, [-2.0, 0, 0])
    assert np.allclose(v, [-1.0, 0, 0])
    q, v = flow.state_at(traj, 20.0)  # straight continuation past exit
    assert np.allclose(q, [-12.0, 0, 0])
