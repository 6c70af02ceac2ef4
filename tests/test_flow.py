import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import billiard_lens as bl
from billiard_lens import flow, geometry, lens, variation
from billiard_lens.flow import Limits, NotScattered, PhasePoint
from billiard_lens.lens import SampleSpec
from billiard_lens.rng import Xoshiro256StarStar

from conftest import A_BALL, FaintSphere, _all_pieces_curve, _drawn_pair, entry_through, walk_to


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


def test_two_disc_corridor_orbit_meets_the_time_cutoff(two_disc_scene):
    # the corridor orbit reflects at t = 2, 6, 10, ...; each segment's search
    # stops at t_max, so the orbit ends with its events up to t_max
    traj = flow.trace_phase(two_disc_scene, [0.0, 0.0], [1.0, 0.0], Limits(t_max=25.0))
    assert traj.status == "trapped" and traj.cutoff_reason == "max_time"
    assert traj.total_time is None and traj.exit_state is None
    assert [ev.t for ev in traj.events] == pytest.approx([2.0, 6.0, 10.0, 14.0, 18.0, 22.0])


def test_free_chord_longer_than_the_time_cutoff_is_cut(empty2):
    # a diameter of the empty ball is a free chord of length 20: it exits
    # within a cutoff of 20, and is cut as trapped under a cutoff of 5
    entry = PhasePoint(np.array([-10.0, 0.0]), np.array([1.0, 0.0]))
    traj = flow.trace(empty2, entry, Limits(t_max=20.0))
    assert traj.status == "exited" and traj.total_time == 20.0
    traj = flow.trace(empty2, entry, Limits(t_max=5.0))
    assert traj.status == "trapped" and traj.cutoff_reason == "max_time"
    assert traj.events == [] and traj.total_time is None and traj.exit_state is None


class TwoTouches(bl.SphereObstacle):
    """A unit disc whose boundary, as the tracer sees it, is the two points
    (-gap/2, 1) and (gap/2, 1) with the normal (0, 1): a ray along the line
    y = 1 touches it twice, gap apart, as it would two bumps of one wavy
    boundary."""

    def __init__(self, gap):
        super().__init__([0.0, 0.0], 1.0)
        self.touches = [[-0.5 * gap, 1.0], [0.5 * gap, 1.0]]

    def ray_roots(self, q, v):
        roots = []
        for p in self.touches:
            d = [p[0] - q[0], p[1] - q[1]]
            if abs(d[0] * v[1] - d[1] * v[0]) < 1e-9:  # p is on the ray's line
                roots.append(d[0] * v[0] + d[1] * v[1])
        return sorted(roots)

    def _gradient(self, x):
        return [0.0, 2.0]


@pytest.mark.parametrize("gap, status, reason", [
    (0.05, "gliding_rejected", "tangency_chain"),
    (0.5, "exited", None),
], ids=["inside-gliding-arc", "beyond-gliding-arc"])
def test_two_tangencies_closer_than_the_gliding_arc_reject_the_orbit(gap, status, reason):
    # the gliding arc is GLIDING_ARC_FACTOR a = 0.1, the tangent dead zone 1e-4
    scene = bl.make_scene(2, A_BALL, [TwoTouches(gap)], "two-touches")
    traj = flow.trace(scene, PhasePoint([-math.sqrt(A_BALL**2 - 1.0), 1.0], [1.0, 0.0]))
    assert traj.status == status and traj.cutoff_reason == reason
    assert [(ev.obstacle, ev.type) for ev in traj.events] == [(0, "tangent"), (0, "tangent")]
    assert np.allclose([ev.x for ev in traj.events], scene.obstacles[0].touches, atol=1e-12)


@pytest.mark.parametrize("depth, status", [(1e-6, "exited"), (1e-3, "gliding_rejected")],
                         ids=["inside-dead-zone", "beyond-dead-zone"])
def test_a_departure_inside_the_tangent_dead_zone_is_skipped(two_disc_scene, depth, status):
    # a ray that starts `depth` inside the right disc and leaves it: its exit
    # root is a departure, skipped within the dead zone 1e-5 a = 1e-4, where
    # it stands for a rounding of a boundary point; beyond it the ray ran
    # inside the solid
    q, v = [2.0 + depth, 0.0], [-0.6, 0.08]
    traj = flow.trace_phase(two_disc_scene, q, v)
    assert traj.status == status
    if status == "exited":
        # the left disc is met next, as `first_hit` finds it
        assert [(ev.obstacle, ev.type) for ev in traj.events] == [(0, "transversal")]
        t, idx, x = flow.first_hit(two_disc_scene, PhasePoint(q, v), math.inf)
        assert idx == 0 and np.allclose(x, traj.events[0].x, atol=1e-12)
    else:
        assert traj.cutoff_reason == "boundary_penetration" and not traj.events
        with pytest.raises(flow.RootPolishFailed):
            flow.first_hit(two_disc_scene, PhasePoint(q, v), math.inf)


def test_travelling_time_examples(empty3, two_disc_scene):
    # the travelling time is the total time of an exited trajectory
    traj = flow.trace(empty3, PhasePoint(np.array([-10.0, 0, 0]), np.array([1.0, 0, 0])))
    assert traj.status == "exited" and traj.total_time == pytest.approx(20.0, abs=1e-12)
    # a tangential entry leaves at once
    traj = flow.trace(empty3, PhasePoint(np.array([0.0, 10.0, 0.0]), np.array([1.0, 0.0, 0.0])))
    assert traj.status == "exited" and traj.total_time == 0.0
    # the reflection cutoff makes a trapped trajectory, with no time and no exit
    corridor = entry_through([2.0, 0.35], [-1.0, 0.02], a=A_BALL)
    traj = flow.trace(two_disc_scene, corridor, Limits(n_max=1))
    assert traj.status == "trapped" and traj.total_time is None and traj.exit_state is None


def test_omega_theta(empty3, sphere_scene, two_disc_scene):
    # omega is the entry direction, theta the exit direction of an exited trajectory
    free = flow.trace(empty3, PhasePoint(np.array([-10.0, 0, 0]), np.array([1.0, 0, 0])))
    assert np.allclose(free.entry.v, free.exit_state.v)
    back = flow.trace(sphere_scene, PhasePoint(np.array([-10.0, 0, 0]), np.array([1.0, 0, 0])))
    assert np.allclose(back.exit_state.v, -back.entry.v)
    trapped = flow.trace(two_disc_scene, entry_through([2.0, 0.35], [-1.0, 0.02]), Limits(n_max=1))
    assert trapped.status == "trapped" and trapped.exit_state is None
    # a lens table row holds the same theta, and none for a ray that did not exit
    for scene, spec in ((sphere_scene, SampleSpec("grid", 6, 4)),
                        (two_disc_scene, SampleSpec("grid", 6, 4, n_max=1))):
        for row in lens.build_lens_table(scene, spec).samples:
            traj = flow.trace(scene, PhasePoint(row.q, row.v), spec.limits())
            if traj.status == "exited":
                assert np.array_equal(row.theta, traj.exit_state.v)
            else:
                assert row.theta is None


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
    assert flow.sojourn_time(free) == pytest.approx(0.0, abs=1e-12)
    back = flow.trace(sphere_scene, PhasePoint(np.array([-10.0, 0, 0]), np.array([1.0, 0, 0])))
    assert flow.sojourn_time(back) == pytest.approx(-2.0, abs=1e-10)
    # off-axis single bounce vs the independent plane-geometry oracle
    entry = entry_through([-0.4, -2.0], [0.05, 1.0])
    traj = flow.trace(disc_scene, entry)
    assert traj.status == "exited" and len(traj.events) == 1
    t1, x1, v1 = _single_bounce_disc_oracle(entry.q, entry.v, 1.0)
    bq = float(x1 @ v1)
    t2 = -bq + math.sqrt(bq * bq - (float(x1 @ x1) - A_BALL**2))
    q_exit = x1 + t2 * v1
    oracle = (t1 + t2) + float(entry.q @ entry.v) - float(q_exit @ v1)
    assert flow.sojourn_time(traj) == pytest.approx(oracle, abs=1e-9)


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
    assert len(traj.events) == count


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
                diff = np.array(ev.v_out) - ev.v_in
                residual = diff - float(diff @ n) * n
                assert np.linalg.norm(residual) < 1e-10
                checked += 1
        if traj.status == "exited":
            # the last straight segment ends at the exit point at total_time
            last = traj.events[-1] if traj.events else None
            x0, v0, t0 = (np.array(last.x), np.array(last.v_out), last.t) if last else (q, v, 0.0)
            exit_q = x0 + (traj.total_time - t0) * v0
            assert np.linalg.norm(traj.exit_state.q - exit_q) <= 1e-10 * A_BALL
            times = [ev.t for ev in traj.events]
            assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
    assert checked > 50


def _line_into_an_obstacle(draw, scene):
    """A drawn line that meets an obstacle of a two-obstacle scene: a point
    of the segment from either obstacle's centre to a boundary sample (inside
    the body, which is convex), and a drawn unit direction."""
    dim = scene.dimension
    obs = scene.obstacles[draw(st.integers(0, 1))]
    cloud = obs.boundary_points(64)
    target = obs.center + draw(st.floats(0.0, 0.99)) * (
        cloud[draw(st.integers(0, len(cloud) - 1))] - obs.center)
    phi = draw(st.floats(-math.pi, math.pi))
    mu = draw(st.floats(-1.0, 1.0)) if dim == 3 else 0.0
    rho = math.sqrt(1.0 - mu * mu)
    return target, [rho * math.cos(phi), rho * math.sin(phi), mu][:dim]


@pytest.mark.parametrize("kind", ["sphere", "ellipsoid", "superellipsoid"])
@pytest.mark.parametrize("dim", [2, 3])
@given(data=st.data())
def test_time_reversibility_on_every_obstacle_kind(kind, dim, data):
    # rays through drawn points inside either obstacle, so that each ray meets
    # an obstacle; an orbit that exits with transversal reflections only,
    # traced back from its exit, retraces its reflections in reverse order (an
    # orbit that grazes an obstacle may meet it tangentially on the way back,
    # or miss it: it is on the measure-zero tangent strata and is not compared)
    scene = _drawn_pair(data.draw, kind, dim)
    checked = 0
    for _ in range(8):
        target, direction = _line_into_an_obstacle(data.draw, scene)
        traj = flow.trace(scene, entry_through(target, direction))
        if traj.status != "exited" or any(ev.type != "transversal" for ev in traj.events):
            continue
        rev = flow.trace(scene, PhasePoint(traj.exit_state.q, -traj.exit_state.v))
        assert rev.status == "exited"
        if any(ev.type != "transversal" for ev in rev.events):
            continue
        assert [ev.obstacle for ev in rev.events] == [ev.obstacle for ev in reversed(traj.events)]
        assert rev.total_time == pytest.approx(traj.total_time, abs=1e-9 * A_BALL)
        for ev_f, ev_b in zip(traj.events, reversed(rev.events)):
            assert np.linalg.norm(np.subtract(ev_f.x, ev_b.x)) < 1e-7 * A_BALL
        checked += bool(traj.events)
    assert checked >= 1


@given(data=st.data())
def test_time_reversibility_on_every_curve_piece_kind(data):
    # rays through points of random pieces of a chain with every piece kind
    obs = _all_pieces_curve(data.draw)
    scene = bl.make_scene(2, A_BALL, [obs], "all-pieces")
    pieces = obs.chain.pieces
    checked = 0
    for _ in range(8):
        piece = pieces[data.draw(st.integers(0, len(pieces) - 1))]
        point = piece.point(np.array(data.draw(st.floats(0.0, 1.0))))
        ang = data.draw(st.floats(-math.pi, math.pi))
        traj = flow.trace(scene, entry_through(point, [math.cos(ang), math.sin(ang)]))
        if traj.status != "exited" or any(ev.type != "transversal" for ev in traj.events):
            continue
        rev = flow.trace(scene, PhasePoint(traj.exit_state.q, -traj.exit_state.v))
        assert rev.status == "exited"
        assert [ev.type for ev in rev.events] == [ev.type for ev in traj.events]
        assert rev.total_time == pytest.approx(traj.total_time, abs=1e-9 * A_BALL)
        for ev_f, ev_b in zip(traj.events, reversed(rev.events)):
            assert np.linalg.norm(np.subtract(ev_f.x, ev_b.x)) < 1e-7 * A_BALL
        checked += 1
    assert checked >= 4


@given(data=st.data())
def test_growing_the_ball_leaves_the_sojourn_time(data):
    # the sojourn time is measured between support planes of the ball, so it
    # does not depend on the ball's radius: a line through a drawn point
    # inside an obstacle, traced from its entry on the sphere of radius a and
    # again on a' > a, has the same status and reflections, and a sojourn
    # within 4 ulp(a') max(1, G), G the largest entry of the flow's
    # differential blocks at the exit. The two entries are roundings of one
    # line, and the flow amplifies their difference by about G. Over 1,500
    # draws of 8 lines the difference reached 1,370 ulp(a') (a three-reflection
    # orbit), and at most 0.37 ulp(a') G. Lines with a tangent event, or that
    # do not exit, are skipped (none of those 12,000). 40 draws take 0.4 s.
    dim, kind = data.draw(st.sampled_from([2, 3])), data.draw(st.sampled_from(["sphere", "ellipsoid"]))
    scene = _drawn_pair(data.draw, kind, dim, rotated=data.draw(st.booleans()))
    a2 = data.draw(st.floats(1.05 * A_BALL, 4.0 * A_BALL))
    grown = bl.make_scene(dim, a2, scene.obstacles, "grown")
    checked = 0
    for _ in range(8):
        target, direction = _line_into_an_obstacle(data.draw, scene)
        traj = flow.trace(scene, entry_through(target, direction))
        if traj.status != "exited" or any(ev.type != "transversal" for ev in traj.events):
            continue
        other = flow.trace(grown, entry_through(target, direction, a2))
        assert (other.status, len(other.events)) == (traj.status, len(traj.events))
        gain = max(1.0, *(float(np.abs(block).max())
                          for block in variation.flow_differentials(scene, None, traj.total_time, traj)))
        assert abs(flow.sojourn_time(other) - flow.sojourn_time(traj)) <= 4 * math.ulp(a2) * gain
        checked += 1
    assert checked >= 1


def _drawn_entry(draw, scene, grazing):
    """Entry of a ray through a drawn point of either obstacle's bounding box,
    or, if `grazing`, of a ray that meets a boundary sample at a drawn angle
    down to 1e-6 rad."""
    dim = scene.dimension
    obs = scene.obstacles[draw(st.integers(0, len(scene.obstacles) - 1))]
    phi = draw(st.floats(-math.pi, math.pi))
    if not grazing:
        target = obs.center + obs.bounding_radius() * np.array(
            [draw(st.floats(-1.0, 1.0)) for _ in range(dim)])
        mu = draw(st.floats(-1.0, 1.0)) if dim == 3 else 0.0
        rho = math.sqrt(1.0 - mu * mu)
        return entry_through(target, [rho * math.cos(phi), rho * math.sin(phi), mu][:dim])
    cloud = obs.boundary_points(64)
    target = cloud[draw(st.integers(0, len(cloud) - 1))]
    nu = geometry.surface_frame(obs, target).normal
    along = geometry.tangent_basis(nu) @ [math.cos(phi), math.sin(phi)][:dim - 1]
    sin_in = 10.0 ** draw(st.floats(-6.0, 0.0))
    return entry_through(target,
                         math.sqrt(1.0 - sin_in**2) * along / np.linalg.norm(along) - sin_in * nu)


def _first_hit_chain(scene, traj):
    """Check a trajectory of transversal events against `first_hit` from each
    of its states, which asks every obstacle: the same obstacle and point at
    each event, and no hit after the last."""
    q, v = traj.entry.q, traj.entry.v
    for ev in traj.events:
        _, idx, x = flow.first_hit(scene, PhasePoint(q, v), math.inf)
        assert idx == ev.obstacle and x.tobytes() == np.array(ev.x).tobytes()
        q, v = ev.x, ev.v_out
    assert flow.first_hit(scene, PhasePoint(q, v), math.inf) is None


@pytest.mark.parametrize("kind", ["sphere", "ellipsoid", "superellipsoid"])
@pytest.mark.parametrize("dim", [2, 3])
@given(data=st.data())
def test_a_convex_obstacle_is_not_met_again_after_a_reflection(kind, dim, data):
    # the premise of the tracer's skip of the obstacle a ray reflected off:
    # a convex kind has no root beyond the re-hit guard along the outgoing
    # ray. Rays through drawn points of either obstacle's bounding box, and
    # rays that meet a boundary sample at a drawn angle down to 1e-6 rad
    scene = _drawn_pair(data.draw, kind, dim, rotated=data.draw(st.booleans(), label="rotated"))
    assert all(obs.convex for obs in scene.obstacles)
    guard = flow.REHIT_FACTOR * scene.ball_radius
    reflections = 0
    for k in range(16):
        traj = flow.trace(scene, _drawn_entry(data.draw, scene, grazing=k % 2 == 0))
        for ev in traj.events:
            if ev.type == "transversal":
                roots = scene.obstacles[ev.obstacle].ray_roots(ev.x, ev.v_out)
                assert all(r <= guard for r in roots)
                reflections += 1
        if traj.status == "exited" and all(ev.type == "transversal" for ev in traj.events):
            _first_hit_chain(scene, traj)
    assert reflections >= 4


@pytest.mark.parametrize("dim, kind", [(dim, kind) for dim in (2, 3)
                                       for kind in ("sphere", "ellipsoid", "superellipsoid")]
                         + [(2, "livshits"), (2, "crescent")])
@given(data=st.data())
def test_the_jacobi_layer_takes_each_reflection_from_the_tracer(dim, kind, data):
    # at every transversal event the Jacobi incidence, read at the event's
    # root, has the normal the tracer reflected by, bit for bit on every
    # kind. `surface_frame` at the event's point agrees with it bit for bit
    # on the implicit kinds, and within 1e-13 on a curve2d, where it takes
    # the normal at the closest-point foot (over 6,000 drawn rays each, the
    # Livshits cavity reaches 2.2e-14 and the crescent mirror 3.4e-14). The
    # basis the Jacobi walk carries past the last event is orthogonal to the
    # traced outgoing direction
    if kind == "livshits":
        scene, bound = geometry.livshits_scene()[0], 1e-13
    elif kind == "crescent":
        mirror = geometry.concave_mirror_obstacle([-A_BALL, 0.0], 3.0, 0.5, 0.6, [1.0, 0.0])
        scene, bound = bl.make_scene(2, A_BALL, [mirror], "crescent-focus"), 1e-13
    else:
        scene, bound = _drawn_pair(data.draw, kind, dim, rotated=data.draw(st.booleans(), label="rotated")), 0.0
    walked = 0
    for k in range(16):
        traj = flow.trace(scene, _drawn_entry(data.draw, scene, grazing=k % 2 == 0))
        transversal = [ev for ev in traj.events if ev.type == "transversal"]
        for ev in transversal:
            obs = scene.obstacles[ev.obstacle]
            incidence = variation._incidence(obs, ev)
            assert ev.v_out == flow.reflect(ev.v_in, incidence.normal)
            normal = geometry.surface_frame(obs, ev.x).normal
            assert float(np.max(np.abs(np.subtract(ev.v_out, flow.reflect(ev.v_in, normal))))) <= bound
            assert bound or normal.tolist() == incidence.normal
        if transversal and len(transversal) == len(traj.events):
            last = traj.events[-1]
            frame = walk_to(scene, traj, variation.seed_frame(traj.entry.v, 0.0, 1.0),
                            0.0, math.nextafter(last.t, math.inf))
            assert float(np.max(np.abs(frame.basis.T @ last.v_out))) <= 1e-12
            walked += 1
    assert walked >= 2


def test_curve_orbit_meets_the_same_curve_again(livshits_pair):
    # a curve2d is not convex, so the tracer asks it again after a reflection
    # off it: this orbit enters the Livshits cavity and reflects six times on
    # its one obstacle, each event where `first_hit` finds it
    base, _, _ = livshits_pair
    traj = flow.trace(base, entry_through([1.0, 0.0], [-0.5, 1.0]))
    assert traj.status == "exited"
    assert [(ev.obstacle, ev.type) for ev in traj.events] == [(0, "transversal")] * 6
    _first_hit_chain(base, traj)


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
        flow.sojourn_time(trapped)


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
        assert disc_scene.obstacles[0].implicit(np.array(ev.x) + eps * np.array(ev.v_out)) >= -1e-12


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


def test_lens_rows_of_grazing_orbits(disc_scene):
    """lens._trace_rows on the grazing entries above: a tangent event flags
    the row and a tangency chain rejects it; neither row has a time or a
    sojourn, and theta is recorded only for a ray that left the ball."""
    b = 1.0 - 5e-16
    touches = [bl.make_scene(2, A_BALL, [TwoTouches(gap)], "two-touches") for gap in (0.05, 0.5)]
    cases = [(disc_scene, b, "tangent_flagged", 1, True),
             (touches[0], 1.0, "gliding_rejected", 2, False),
             (touches[1], 1.0, "tangent_flagged", 2, True)]
    for scene, y, status, reflections, left in cases:
        Q, V = np.array([[-math.sqrt(A_BALL**2 - y * y), y]]), np.array([[1.0, 0.0]])
        got, refl, t, theta, sojourn, error = lens._trace_rows(scene, Q, V, Limits())
        assert got.tolist() == [status] and refl.tolist() == [reflections]
        assert np.isnan(t).all() and np.isnan(sojourn).all() and error.tolist() == [None]
        # a tangent event continues straight, so a ray that left exits along V
        assert np.array_equal(theta, V) if left else np.isnan(theta).all()


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


def test_tracer_normal_has_the_obstacle_gradient_floor():
    # |grad F| = 2e-12 on the unit circle, under the floor 1e-10 max(1, R)
    # that the tracer's normal shares with the local query
    entry = PhasePoint(np.array([-A_BALL, 0.0]), np.array([1.0, 0.0]))
    faint = FaintSphere([0.0, 0.0], 1.0, 1e-12)
    assert faint.gradient_floor() == geometry._GRAD_FLOOR
    with pytest.raises(geometry.SingularGradient):
        geometry.surface_frame(faint, [-1.0, 0.0])
    with pytest.raises(geometry.SingularGradient):
        flow.trace(bl.make_scene(2, A_BALL, [faint], "faint"), entry)
    # 2e-9 is above the floor, and the orbit is the plain disc's
    traj = flow.trace(bl.make_scene(2, A_BALL, [FaintSphere([0.0, 0.0], 1.0, 1e-9)], "weak"), entry)
    assert traj.status == "exited" and len(traj.events) == 1
    assert np.allclose(traj.events[0].v_out, [-1.0, 0.0], atol=1e-15)


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


def _floats_only(x) -> bool:
    return type(x) is list and all(type(xi) is float for xi in x)


@pytest.mark.parametrize("dim, kind", [(dim, kind) for dim in (2, 3)
                                       for kind in ("sphere", "ellipsoid", "superellipsoid")]
                         + [(2, "curve2d")])
def test_a_traced_ray_is_recorded_in_python_floats(dim, kind, livshits_pair):
    # the record of a ray is the tracer's own lists of floats: each event's
    # point and directions, the trajectory's ends and the states read from it
    if kind == "curve2d":
        scene, entry = livshits_pair[0], entry_through([1.0, 0.0], [-0.5, 1.0])
    else:
        centre, axes = [0.5, -0.25, 0.0][:dim], [1.5, 1.0, 1.25][:dim]
        obstacle = {"sphere": bl.SphereObstacle(centre, 1.0), "ellipsoid": bl.EllipsoidObstacle(centre, axes),
                    "superellipsoid": bl.SuperellipsoidObstacle(centre, axes, 4.0)}[kind]
        scene = bl.make_scene(dim, A_BALL, [obstacle], kind)
        entry = entry_through([0.7, 0.0, 0.2][:dim], [1.0, 0.3, -0.1][:dim])
    traj = flow.trace(scene, entry)
    assert traj.status == "exited" and traj.events
    for ev in traj.events:
        assert _floats_only(ev.x) and _floats_only(ev.v_in) and _floats_only(ev.v_out)
    assert len(traj.ends) == 4 and all(map(_floats_only, traj.ends))
    first, last = traj.events[0].t, traj.events[-1].t
    for t in (0.5 * first, 0.5 * (last + traj.total_time), traj.total_time + 1.0):
        q, v = flow.state_at(traj, t)
        assert _floats_only(q) and _floats_only(v)


@pytest.mark.parametrize("form", [list, tuple])
def test_the_entry_is_the_rays_own_list(form, disc_scene):
    # a list or tuple entry point is copied into a fresh list of floats: the
    # record does not change when the caller's list does, and keeps the bits
    # of the array entry's record
    q, v = [-10.0, 0.5], [1.0, 0.0]
    given_q = form(q)
    traj = flow.trace_phase(disc_scene, given_q, v)
    assert traj.events and traj.ends[0] is not given_q and _floats_only(traj.ends[0])
    if form is list:
        given_q[1] = 7.0
    reference = flow.trace_phase(disc_scene, np.array(q), np.array(v))
    assert traj.ends == reference.ends and traj.total_time == reference.total_time
    assert [(ev.x, ev.v_in, ev.v_out) for ev in traj.events] == [(ev.x, ev.v_in, ev.v_out)
                                                                for ev in reference.events]


def test_state_at(sphere_scene):
    traj = flow.trace(sphere_scene, PhasePoint(np.array([-10.0, 0, 0]), np.array([1.0, 0, 0])))
    q, v = flow.state_at(traj, 4.5)
    assert np.allclose(q, [-5.5, 0, 0])
    q, v = flow.state_at(traj, 10.0)
    assert np.allclose(q, [-2.0, 0, 0])
    assert np.allclose(v, [-1.0, 0, 0])
    q, v = flow.state_at(traj, 20.0)  # straight continuation past exit
    assert np.allclose(q, [-12.0, 0, 0])
