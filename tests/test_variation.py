import math
import sys

import numpy as np
import pytest

import billiard_lens as bl
from billiard_lens import flow, geometry, variation
from billiard_lens.flow import PhasePoint
from billiard_lens.rng import Xoshiro256StarStar
from billiard_lens.variation import (
    Incidence,
    IndexOutOfRange,
    ItineraryChanged,
    JacobiFrame,
    TangentIncidence,
    conjugate_test,
    fd_flow_jacobian,
    flow_differentials,
    propagate_free,
    propagate_reflection,
    rank_report,
    regularity_test,
    seed_frame,
    symplectic_pairing,
)

from conftest import A_BALL, _rotation, entry_through, seed_pair_frames

EPS = sys.float_info.epsilon


def test_propagate_free_examples():
    v = np.array([0.0, 0.0, 1.0])
    parallel = propagate_free(seed_frame(v, 1.0, 0.0), 5.0)
    assert np.allclose(parallel.A, np.eye(2))
    assert np.allclose(parallel.B, 0.0)
    source = propagate_free(seed_frame(v, 0.0, 1.0), 3.0)
    assert np.allclose(source.A, 3.0 * np.eye(2))
    assert np.allclose(source.B, np.eye(2))


def test_free_flight_is_symplectic():
    v = np.array([1.0, 0.0, 0.0])
    gen = Xoshiro256StarStar(21)
    f1 = seed_frame(v, np.array([[gen.uniform(), gen.uniform()], [gen.uniform(), gen.uniform()]]),
                    np.array([[gen.uniform(), gen.uniform()], [gen.uniform(), gen.uniform()]]))
    f2 = seed_frame(v, np.array([[gen.uniform(), gen.uniform()], [gen.uniform(), gen.uniform()]]),
                    np.array([[gen.uniform(), gen.uniform()], [gen.uniform(), gen.uniform()]]))
    w0 = symplectic_pairing(f1, f2)
    w1 = symplectic_pairing(propagate_free(f1, 7.3), propagate_free(f2, 7.3))
    assert np.allclose(w0, w1, atol=1e-12)


def test_flat_mirror_preserves_beam():
    v = np.array([1.0, 0.0])
    inc = Incidence(v, np.array([-1.0, 0.0]), np.zeros((2, 2)))
    out = propagate_reflection(seed_frame(v, 1.0, 0.0), inc)
    assert np.allclose(np.abs(out.A), np.eye(1))
    assert np.allclose(out.B, 0.0)
    assert np.allclose(out.basis.T @ np.array(flow.reflect(v, inc.normal)), 0.0)


def test_mirror_equation_conjugate_distance():
    # concave mirror radius 1, point source at distance 2: refocus at 2/3
    v = np.array([1.0, 0.0])
    frame = propagate_free(seed_frame(v, 0.0, 1.0), 2.0)
    shape = np.array([[0.0, 0.0], [0.0, -1.0]])  # curvature -1 on the tangent line
    out = propagate_reflection(frame, Incidence(v, np.array([-1.0, 0.0]), shape))
    t_conj = -out.A[0, 0] / out.B[0, 0]
    assert t_conj == pytest.approx(1.0 / (2.0 / 1.0 - 1.0 / 2.0), rel=1e-12)


def test_grazing_incidence_rejected():
    v = np.array([1.0, 0.0])
    inc = Incidence(v, np.array([0.0, 1.0]), np.zeros((2, 2)))
    with pytest.raises(TangentIncidence):
        propagate_reflection(seed_frame(v, 0.0, 1.0), inc)


def test_flow_differentials_free_flight(empty3):
    entry = PhasePoint(np.array([-10.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    pos, dirn = flow_differentials(empty3, entry, 7.0)
    assert np.allclose(pos, 7.0 * np.eye(2), atol=1e-12)
    assert np.allclose(dirn, 0.0, atol=1e-12)
    pos0, dir0 = flow_differentials(empty3, entry, 0.0)
    assert np.allclose(pos0, 0.0)
    assert np.allclose(dir0, 0.0)


def _random_entry(gen, dim):
    if dim == 2:
        alpha = gen.unit_angle()
        beta = -0.5 * math.pi + math.pi * gen.uniform()
        q = A_BALL * np.array([math.cos(alpha), math.sin(alpha)])
        nu = -q / A_BALL
        t = np.array([-nu[1], nu[0]])
        return PhasePoint(q, math.cos(beta) * nu + math.sin(beta) * t)
    z = 2.0 * gen.uniform() - 1.0
    phi = gen.unit_angle()
    rho = math.sqrt(max(0.0, 1.0 - z * z))
    q = A_BALL * np.array([rho * math.cos(phi), rho * math.sin(phi), z])
    nu = -q / A_BALL
    from billiard_lens.geometry import tangent_basis

    T = tangent_basis(nu)
    mu = gen.uniform()
    psi = gen.unit_angle()
    st = math.sqrt(1.0 - mu * mu)
    return PhasePoint(q, st * (math.cos(psi) * T[:, 0] + math.sin(psi) * T[:, 1]) + mu * nu)


def _matches_fd(scene, entry, times):
    """flow_differentials within 1e-4 relative + 1e-8 of fd_flow_jacobian at
    each of the times; False when a probe changes the itinerary."""
    try:
        fds = [fd_flow_jacobian(scene, entry, t, 1e-6 * A_BALL) for t in times]
    except ItineraryChanged:
        return False
    for t, fd in zip(times, fds):
        for a_blk, b_blk in zip(flow_differentials(scene, entry, t), fd):
            assert np.all(np.abs(a_blk - b_blk) <= 1e-4 * np.abs(b_blk) + 1e-8)
    return True


def test_one_bounce_matches_fd(sphere_ellipsoid_scene, disc_ellipse_scene):
    for scene, dim, seed in ((sphere_ellipsoid_scene, 3, 31), (disc_ellipse_scene, 2, 32)):
        gen = Xoshiro256StarStar(seed)
        done = between = 0
        while done < 6 or between < 3:
            # random entries first, then entries aimed between the obstacles,
            # which more often reflect twice
            entry = _random_entry(gen, dim) if done < 6 else _aimed_entry(gen, scene)
            traj = flow.trace(scene, entry)
            if traj.status != "exited" or not (1 <= len(traj.events) <= 2):
                continue
            if any(ev.type != "transversal" for ev in traj.events):
                continue
            last = traj.events[-1].t
            times = [last + 0.5 * (traj.total_time - last)]
            if len(traj.events) == 2:
                # between the two reflections: the walk stops before event 1
                times.append(0.5 * (traj.events[0].t + last))
            if _matches_fd(scene, entry, times):
                done += 1
                between += len(times) - 1


def test_orbit_differentials_build_no_phase_point_of_a_trajectory(disc_ellipse_scene, monkeypatch):
    # `flow_differentials` and `fd_flow_jacobian`, with `state_at` at every
    # probe, read the trajectories' floats (`ends`, the events' points), so
    # none of the trajectories traced for them builds its `entry` or
    # `exit_state`, and the orbit the caller passes in builds neither either
    traced, trace_phase = [], flow.trace_phase

    def recording(*args):
        traced.append(trace_phase(*args))
        return traced[-1]

    monkeypatch.setattr(flow, "trace_phase", recording)
    entry = entry_through([0.0, 0.0], [1.0, -0.15])
    traj = flow.trace(disc_ellipse_scene, entry)
    assert traj.status == "exited" and traj.events
    t = traj.events[-1].t + 0.5 * (traj.total_time - traj.events[-1].t)
    flow_differentials(disc_ellipse_scene, entry, t, traj)
    fd_flow_jacobian(disc_ellipse_scene, entry, t, 1e-6 * A_BALL)
    assert len(traced) == 2 + 4 * (len(entry.v) - 1)  # this trace, the central orbit, the probes
    assert not any({"entry", "exit_state"} & set(tr.__dict__) for tr in traced)


def test_fd_itinerary_changed(disc_scene):
    # near-grazing entry: a large probe step knocks the bounce off the disc
    b = 0.999
    q = np.array([-math.sqrt(A_BALL**2 - b * b), b])
    entry = PhasePoint(q, np.array([1.0, 0.0]))
    traj = flow.trace(disc_scene, entry)
    assert len(traj.events) == 1
    with pytest.raises(ItineraryChanged):
        fd_flow_jacobian(disc_scene, entry, 0.9 * traj.total_time, 0.05)


def test_regularity_free_ray(empty3):
    entry = PhasePoint(np.array([-10.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    result = regularity_test(empty3, entry)
    assert result.regular  # vacuous: the ray never meets a boundary
    assert result.position_by_direction.rank == 2


def test_regularity_one_bounce(sphere_scene):
    entry = entry_through([0.4, 0.3, -0.8], [0.25, 0.1, 1.0])
    traj = flow.trace(sphere_scene, entry)
    assert traj.status == "exited" and len(traj.events) == 1
    result = regularity_test(sphere_scene, entry)
    assert result.regular
    assert result.position_by_direction.rank == 2
    assert result.direction_by_position.rank == 2


def test_regularity_deficiency_at_focus(crescent_focus_scene):
    # beam focused exactly onto the exit sphere: the direction-seeded position
    # block collapses at the exit time (and only there)
    entry = PhasePoint(np.array([-10.0, 0.0]), np.array([1.0, 0.0]))
    traj = flow.trace(crescent_focus_scene, entry)
    assert traj.status == "exited" and len(traj.events) == 1
    at_exit = regularity_test(crescent_focus_scene, entry, t=traj.total_time)
    assert at_exit.position_by_direction.rank == 0
    assert not at_exit.regular
    later = regularity_test(crescent_focus_scene, entry)
    assert later.position_by_direction.rank == 1


def test_conjugate_two_far_spheres(sphere_ellipsoid_scene):
    gen = Xoshiro256StarStar(77)
    done = 0
    while done < 4:
        entry = _random_entry(gen, 3)
        traj = flow.trace(sphere_ellipsoid_scene, entry)
        if traj.status != "exited" or len(traj.events) != 2:
            continue
        if any(ev.type != "transversal" for ev in traj.events):
            continue
        res = conjugate_test(sphere_ellipsoid_scene, traj, 0, 1)
        assert not res.conjugate
        assert res.smallest_singular_value > 1e-3
        done += 1


def test_conjugate_on_refocusing_fixture(conjugate_fixture_scene):
    x1 = np.array([0.0, 1.0])
    v1 = np.array([2**-0.5, -(2**-0.5)])
    entry = entry_through(x1, v1)
    traj = flow.trace(conjugate_fixture_scene, entry)
    assert traj.status == "exited"
    assert [ev.obstacle for ev in traj.events] == [0, 1, 0]
    res = conjugate_test(conjugate_fixture_scene, traj, 0, 2)
    assert res.conjugate
    assert res.smallest_singular_value < 1e-8
    mid = conjugate_test(conjugate_fixture_scene, traj, 0, 1)
    assert not mid.conjugate
    with pytest.raises(IndexOutOfRange):
        conjugate_test(conjugate_fixture_scene, traj, 1, 1)


def test_symplectic_through_reflections(sphere_ellipsoid_scene):
    gen = Xoshiro256StarStar(99)
    done = 0
    while done < 5:
        entry = _random_entry(gen, 3)
        traj = flow.trace(sphere_ellipsoid_scene, entry)
        if traj.status != "exited" or not traj.events:
            continue
        if any(ev.type != "transversal" for ev in traj.events):
            continue
        t = traj.total_time
        frames = seed_pair_frames(sphere_ellipsoid_scene, traj, t)
        w = symplectic_pairing(frames[0], frames[1])
        assert np.allclose(w, -np.eye(2), atol=1e-9)
        done += 1


def test_2d_transfer_determinant(disc_ellipse_scene):
    gen = Xoshiro256StarStar(123)
    done = 0
    while done < 5:
        entry = _random_entry(gen, 2)
        traj = flow.trace(disc_ellipse_scene, entry)
        if traj.status != "exited" or not traj.events:
            continue
        if any(ev.type != "transversal" for ev in traj.events):
            continue
        f_dir, f_pos = seed_pair_frames(disc_ellipse_scene, traj, traj.total_time)
        transfer = np.array(
            [
                [f_pos.A[0, 0], f_dir.A[0, 0]],
                [f_pos.B[0, 0], f_dir.B[0, 0]],
            ]
        )
        assert abs(abs(np.linalg.det(transfer)) - 1.0) < 1e-12
        done += 1


def _frames_one_seed_at_a_time(scene, traj, t, seeds):
    """The reference: each seed propagated on its own through the walk's incidences."""
    frames = [seed_frame(traj.entry.v, A0, B0) for A0, B0 in seeds]
    t_prev = 0.0
    for ev in traj.events:
        if ev.t >= t:
            break
        inc = variation._incidence(scene.obstacles[ev.obstacle], ev)
        frames = [propagate_reflection(propagate_free(f, ev.t - t_prev), inc) for f in frames]
        t_prev = ev.t
    return [propagate_free(f, t - t_prev) for f in frames]


@pytest.mark.parametrize("name", ["disc_ellipse_scene", "sphere_ellipsoid_scene", "livshits_pair"])
def test_frames_along_match_one_seed_at_a_time(name, request):
    scene = request.getfixturevalue(name)
    scene = scene[0] if name == "livshits_pair" else scene
    gen = Xoshiro256StarStar(7)
    done = 0
    while done < 8:
        entry = _random_entry(gen, scene.dimension)
        traj = flow.trace(scene, entry)
        if traj.status != "exited" or not traj.events:
            continue
        if any(ev.type != "transversal" for ev in traj.events):
            continue
        t = traj.events[-1].t + 0.5 * (traj.total_time - traj.events[-1].t)
        seeds = [(0.0, 1.0), (1.0, 0.0)]
        frames = seed_pair_frames(scene, traj, t)
        want = _frames_one_seed_at_a_time(scene, traj, t, seeds)
        for got, one in zip(frames, want):
            for attr in ("A", "B", "basis"):
                assert np.array_equal(getattr(got, attr), getattr(one, attr))
        pos, dirn = flow_differentials(scene, entry, t, traj)
        assert np.array_equal(pos, want[0].A) and np.array_equal(dirn, want[1].B)
        # each incidence has the normal the tracer reflected by
        for ev in traj.events:
            normal = variation._incidence(scene.obstacles[ev.obstacle], ev).normal
            assert flow.reflect(ev.v_in, normal) == ev.v_out
        done += 1


def _tangent_plane_reflection(frame, inc):
    """The reflection before the ambient route, kept as the reference: the
    mirrored basis re-orthonormalised by QR with a sign fix, and the blocks
    carried into it by M = Q^T H E."""
    v, n = inc.v_in, inc.normal
    E = frame.basis
    dy = E - np.outer(v, (n @ E) / float(v @ n))
    C = -2.0 * float(v @ n) * (dy.T @ inc.shape_ambient @ dy)
    C = 0.5 * (C + C.T)
    mirrored = E - 2.0 * np.outer(n, n @ E)
    Q, R = np.linalg.qr(mirrored)
    fresh = Q * np.where(np.diag(R) < 0.0, -1.0, 1.0)
    M = fresh.T @ mirrored
    return JacobiFrame((M @ frame.A).tolist(), (M @ (frame.B + C @ frame.A)).tolist(), fresh.T.tolist())


def _tangent_plane_frame(scene, events, frame, t_prev, t):
    """Propagate `frame` from time t_prev to t through `events`, with the
    surface_frame shape and the QR reflection."""
    for ev in events:
        if ev.t >= t:
            break
        sf = geometry.surface_frame(scene.obstacles[ev.obstacle], ev.x)
        inc = Incidence(ev.v_in, sf.normal, sf.shape_ambient())
        frame = _tangent_plane_reflection(propagate_free(frame, ev.t - t_prev), inc)
        t_prev = ev.t
    return propagate_free(frame, t - t_prev)


def _tangent_plane_blocks(scene, traj, t):
    v = traj.entry.v
    f_dir = _tangent_plane_frame(scene, traj.events, seed_frame(v, 0.0, 1.0), 0.0, t)
    f_pos = _tangent_plane_frame(scene, traj.events, seed_frame(v, 1.0, 0.0), 0.0, t)
    return f_dir.A, f_pos.B


def _tangent_plane_conjugate(scene, traj, i, j, tolerance=1e-4):
    """(singular values, verdict) of conjugate_test on the old route: the
    arrival map projected onto tangent_basis(normal) before its SVD."""
    events = traj.events
    frame = _tangent_plane_frame(scene, events[i + 1:j], seed_frame(events[i].v_out, 0.0, 1.0),
                                 events[i].t, events[j].t)
    normal = geometry.surface_frame(scene.obstacles[events[j].obstacle], events[j].x).normal
    v = events[j].v_in
    ambient = frame.basis @ frame.A
    onto = ambient - np.outer(v, (normal @ ambient) / float(v @ normal))
    sv = np.sort(np.linalg.svd(geometry.tangent_basis(normal).T @ onto, compute_uv=False))[::-1]
    return sv, bool(sv[-1] <= tolerance * max(sv[0], events[j].t - events[i].t))


def _relative_gap(got, want, scale=0.0):
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), scale)


def _aimed_entry(gen, scene):
    """Entry whose ray passes a point between the two obstacles on its way
    into one of them, so the reversed ray from that point usually meets the
    other one first and the orbit reflects twice or more."""
    centers = [obs.center for obs in scene.obstacles]
    target = centers[int(2.0 * gen.uniform())]
    p, aim = (0.5 * (centers[0] + centers[1]) + np.array([gen.uniform() - 0.5 for _ in target]),
              target + np.array([gen.uniform() - 0.5 for _ in target]))
    v = (aim - p) / np.linalg.norm(aim - p)
    back = flow.trace_phase(scene, p, -v)
    return PhasePoint(back.exit_state.q, -back.exit_state.v)


@pytest.fixture(scope="module")
def superellipsoid_scene():
    return bl.make_scene(3, A_BALL, [
        bl.SuperellipsoidObstacle([-3.0, 0.4, 0.0], [1.5, 1.2, 1.0], 6.0),
        bl.SuperellipsoidObstacle([3.0, -0.4, 0.2], [1.4, 1.1, 0.9], 8.0,
                                  _rotation(3, [0.3, 0.7, -0.4])),
    ], "two-superellipsoids")


@pytest.mark.parametrize("name", ["disc_ellipse_scene", "sphere_ellipsoid_scene",
                                  "superellipsoid_scene", "livshits_pair",
                                  "conjugate_fixture_scene"])
def test_ambient_route_matches_tangent_plane_route(name, request):
    """Mirrored basis and event-built ambient shape against the QR and
    surface_frame route: flow differentials, regularity blocks and conjugate
    singular values within 1e-13 relative, with equal ranks and verdicts."""
    scene = request.getfixturevalue(name)
    scene = scene[0] if name == "livshits_pair" else scene
    # the refocusing orbit of the fixture has a conjugate pair
    entries = [entry_through([0.0, 1.0], [2**-0.5, -(2**-0.5)])] if name.startswith("conj") else []
    aimed = name in ("disc_ellipse_scene", "sphere_ellipsoid_scene", "superellipsoid_scene")
    gen = Xoshiro256StarStar(11)
    done = pairs = 0
    while done < 10:
        if entries:
            entry = entries.pop()
        else:
            entry = _aimed_entry(gen, scene) if aimed else _random_entry(gen, scene.dimension)
        traj = flow.trace(scene, entry)
        if traj.status != "exited" or not traj.events:
            continue
        if any(ev.type != "transversal" for ev in traj.events):
            continue
        t = traj.events[-1].t + 0.5 * (traj.total_time - traj.events[-1].t)
        for got, want in zip(flow_differentials(scene, entry, t, traj),
                             _tangent_plane_blocks(scene, traj, t)):
            assert _relative_gap(got, want) <= 1e-13
        reg = regularity_test(scene, entry)
        for rep, got, want in zip((reg.position_by_direction, reg.direction_by_position),
                                  flow_differentials(scene, entry, reg.t, traj),
                                  _tangent_plane_blocks(scene, traj, reg.t)):
            # closed-form singular values against LAPACK's
            lapack = np.linalg.svd(got, compute_uv=False)
            assert np.max(np.abs(rep.singular_values - lapack)) <= 4.0 * EPS * lapack[0]
            assert _relative_gap(got, want) <= 1e-13
            assert rep.rank == rank_report(want, 1e-6, floor=reg.t).rank
        n = len(traj.events)
        for i in range(n):
            for j in range(i + 1, n):
                got = conjugate_test(scene, traj, i, j)
                sv, verdict = _tangent_plane_conjugate(scene, traj, i, j)
                assert got.singular_values.shape == sv.shape
                # relative to the scale of the verdict: a collapsed map has
                # only rounding noise for its singular value
                span = traj.events[j].t - traj.events[i].t
                assert _relative_gap(got.singular_values, sv, span) <= 1e-13
                assert got.conjugate == verdict
                pairs += 1
        done += 1
    assert pairs >= 3


@pytest.mark.parametrize("dim", [2, 3])
def test_mirrored_basis_drift_over_a_long_chain(dim):
    """The basis is never re-orthonormalised: through 10 000 seeded mirrors
    of the production reflection step it stays orthonormal and orthogonal to
    the direction the tracer's `reflect` gives within 1e-12."""
    gen = Xoshiro256StarStar(1000 + dim)
    v = np.eye(dim)[0]
    frame = seed_frame(v, 1.0, 0.0)
    flat = np.zeros((dim, dim))
    mirrors = 0
    while mirrors < 10000:
        if dim == 2:
            phi = gen.unit_angle()
            n = np.array([math.cos(phi), math.sin(phi)])
        else:
            z, phi = 2.0 * gen.uniform() - 1.0, gen.unit_angle()
            rho = math.sqrt(1.0 - z * z)
            n = np.array([rho * math.cos(phi), rho * math.sin(phi), z])
        if abs(float(v @ n)) <= 1e-3:  # keep clear of tangent incidence
            continue
        n = -n if float(v @ n) > 0.0 else n  # the normal faces the ray
        frame = propagate_reflection(frame, Incidence(v, n, flat))
        v = np.array(flow.reflect(v, n))
        mirrors += 1
    E = frame.basis
    assert float(np.max(np.abs(E.T @ E - np.eye(dim - 1)))) <= 1e-12
    assert float(np.max(np.abs(E.T @ v))) <= 1e-12


def test_rank_report_structure():
    rep = rank_report(np.diag([3.0, 1e-9]), 1e-6)
    assert rep.rank == 1
    assert rep.singular_values[0] == pytest.approx(3.0)
    assert rank_report(np.zeros((2, 2)), 1e-6).rank == 0
    d = rep.to_dict()
    assert set(d) == {"singular_values", "rank", "tolerance"}


def test_tangent_on_path_rejected(disc_scene):
    b = 1.0 - 5e-16
    q = np.array([-math.sqrt(A_BALL**2 - b * b), b])
    entry = PhasePoint(q, np.array([1.0, 0.0]))
    traj = flow.trace(disc_scene, entry)
    assert any(ev.type == "tangent" for ev in traj.events)
    with pytest.raises(variation.TangentOnPath):
        flow_differentials(disc_scene, entry, 0.9 * traj.total_time)


def test_tangent_event_between_conjugate_endpoints_rejected():
    # the transversal, tangent, transversal orbit of the CLI's exit-3 test: the
    # pair (0, 2) is refused as a tangent incidence before any propagation
    b, s = 1.0 - 2e-15, 2**-0.5
    scene = bl.make_scene(2, A_BALL, [bl.SphereObstacle([-4.0 - s, b - s], 1.0),
                                      bl.SphereObstacle([0.0, 0.0], 1.0),
                                      bl.SphereObstacle([4.0, b + 0.6], 1.0)], "graze")
    traj = flow.trace(scene, PhasePoint([-4.0, math.sqrt(84.0)], [0.0, -1.0]))
    assert [ev.type for ev in traj.events] == ["transversal", "tangent", "transversal"]
    with pytest.raises(TangentIncidence, match="between indices 0 and 2"):
        conjugate_test(scene, traj, 0, 2)
