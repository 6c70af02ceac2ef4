"""Exact laws of the Jacobi layer, checked over drawn scenes: the safety net
of any rewrite of its transfer maps.

- Symplecticity: the transfer J of (position, direction) offsets from the
  entry to a time past the last reflection keeps the form
  Omega = [[0, I], [-I, 0]], J^T Omega J = Omega, on every obstacle kind,
  rotated or not.
- The mirror equation: at a reflection off a disc or sphere of radius r at
  incidence angle phi, the walk adds C A to B with C = 2 / (r cos phi) in
  2D, and the eigenvalues of C are the tangential and sagittal powers
  2 / (r cos phi) and 2 cos phi / r in 3D. Off a curve2d, C = 2 kappa /
  cos phi with kappa the signed curvature, seen from the free side, of the
  piece the root lies on: a concave arc focuses.
- Linearized time reversal: the orbit traced back from its exit state
  under (q, v) -> (q, -v) transfers offsets by the symplectic inverse of
  the forward transfer, on every obstacle kind.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import billiard_lens as bl
from billiard_lens import flow, geometry
from billiard_lens.variation import seed_frame

from conftest import A_BALL, _all_pieces_curve, _drawn_pair, entry_through, walk_to

EPS = sys.float_info.epsilon
# |omega(J x, J y) - omega(x, y)| <= SYMPLECTIC_C eps s^2, s the largest entry
# of the seeds and the walked frames; over 300 drawn examples of each case
# below the worst is 1.6 eps s^2 (curve2d), 0.5 eps s^2 on the other kinds
SYMPLECTIC_C = 16.0
# the worst over 300 drawn examples in each dimension is 3.7e-15
MIRROR_REL = 1e-13
# |K' - J^-1| <= REVERSAL_C eps s^2 for the reversed orbit's transfer K' read
# in the forward bases, s the largest entry of J and K or the orbit's time
# (a flight of time t adds t times a direction offset to a position offset);
# over 600 drawn examples of each case below the worst is 19.6 eps s^2 on a
# curve2d (a bump, whose curvature moves with the root), 4.1 on the other kinds
REVERSAL_C = 64.0
# the mirror equation is checked where the reference's own cos(phi) is good
# to 1e-14 relative; below this the rounding of v . n over cos(phi) is larger
MIRROR_MIN_COS = 0.01


def _drawn_scene(draw, dim, kind):
    if kind == "curve2d":
        return bl.make_scene(2, A_BALL, [_all_pieces_curve(draw)], "all-pieces")
    return _drawn_pair(draw, kind, dim, rotated=draw(st.booleans(), label="rotated"))


def _drawn_orbits(draw, scene, tries, at=st.floats(0.0, 1.0)):
    """Orbits that exit after transversal reflections only, of rays through
    drawn points inside a convex obstacle or on a curve piece, at a parameter
    drawn from `at`, each with a drawn direction."""
    dim = scene.dimension
    for _ in range(tries):
        obs = scene.obstacles[draw(st.integers(0, len(scene.obstacles) - 1))]
        if obs.kind == "curve2d":
            piece = obs.chain.pieces[draw(st.integers(0, len(obs.chain.pieces) - 1))]
            target = piece.point(np.array(draw(at)))
        else:
            cloud = obs.boundary_points(64)
            target = obs.center + draw(st.floats(0.0, 0.99)) * (
                cloud[draw(st.integers(0, len(cloud) - 1))] - obs.center)
        phi = draw(st.floats(-math.pi, math.pi))
        mu = draw(st.floats(-1.0, 1.0)) if dim == 3 else 0.0
        rho = math.sqrt(1.0 - mu * mu)
        traj = flow.trace(scene, entry_through(target, [rho * math.cos(phi), rho * math.sin(phi), mu][:dim]))
        if traj.status == "exited" and traj.events and all(ev.type == "transversal" for ev in traj.events):
            yield traj


def _pairing(f1, f2):
    """omega(f1, f2) = A1^T B2 - B1^T A2 of two frames, or of two (A, B) seeds."""
    (a1, b1), (a2, b2) = f1, f2
    return a1.T @ b2 - b1.T @ a2


@pytest.mark.parametrize("dim, kind", [(dim, kind) for dim in (2, 3)
                                       for kind in ("sphere", "ellipsoid", "superellipsoid")]
                         + [(2, "curve2d")])
@given(data=st.data())
def test_the_transfer_is_symplectic(dim, kind, data):
    # J^T Omega J = Omega is omega(J x, J y) = omega(x, y) for all seeds x, y
    # = (A0, B0): here two drawn seeds, each walked on its own, so that a
    # transposed block or a product taken in the wrong order breaks the law
    # in 3D from the first reflection on
    scene = _drawn_scene(data.draw, dim, kind)
    m = dim - 1
    entries = st.lists(st.integers(-1000, 1000).map(lambda k: k / 1000), min_size=m * m, max_size=m * m)
    seeds = [tuple(np.reshape(data.draw(entries), (m, m)) for _ in "AB") for _ in "xy"]
    checked = 0
    for traj in _drawn_orbits(data.draw, scene, 4):
        last = traj.events[-1].t
        t = last + 0.5 * (traj.total_time - last)
        x, y = ((f.A, f.B) for f in (walk_to(scene, traj, seed_frame(traj.entry.v, a0, b0), 0.0, t)
                                     for a0, b0 in seeds))
        size = float(np.max(np.abs([*x, *y, *seeds[0], *seeds[1]])))
        assert float(np.max(np.abs(_pairing(x, y) - _pairing(*seeds)))) <= SYMPLECTIC_C * EPS * size * size
        checked += 1
    assert checked >= 1


@pytest.mark.parametrize("dim", [2, 3])
@given(data=st.data())
def test_each_reflection_off_a_sphere_obeys_the_mirror_equation(dim, data):
    # a frame seeded (A, B) = (I, 0) on arrival at an event and walked through
    # it carries B = C, whatever the free flight after it
    scene = _drawn_scene(data.draw, dim, "sphere")
    checked = 0
    for traj in _drawn_orbits(data.draw, scene, 4):
        events = traj.events
        for k, ev in enumerate(events):
            obs = scene.obstacles[ev.obstacle]
            d = ev.x - obs.center
            cos_phi = -float(ev.v_in @ (d / np.sqrt(d @ d)))
            if cos_phi < MIRROR_MIN_COS:
                continue
            t_next = events[k + 1].t if k + 1 < len(events) else traj.total_time
            frame = walk_to(scene, traj, seed_frame(ev.v_in, 1.0, 0.0), ev.t, t_next, first=k)
            C = frame.B
            tangential = 2.0 / (obs.radius * cos_phi)
            if dim == 2:
                powers, got = [tangential], C[0]
            else:
                powers, got = [2.0 * cos_phi / obs.radius, tangential], np.linalg.eigvalsh(0.5 * (C + C.T))
            assert np.max(np.abs(got - powers)) <= MIRROR_REL * tangential
            checked += 1
    assert checked >= 1


def _curvature_at_root(chain, root, n_free):
    """Signed curvature of the piece a chain root lies on, at the root, seen
    from the side of the unit normal n_free: |g' x g''| / |g'|^3, negative
    where the centre of curvature lies on that side. A root past an end of
    its piece (in the join overlap) lies on the neighbour, taken at its end:
    each piece of these chains has constant curvature, or curvature
    stationary at its ends (the Livshits ellipse at its vertices)."""
    n = len(chain.pieces)
    piece, s = chain.pieces[root.piece], root.s
    if s > 1.0:
        piece, s = chain.pieces[(root.piece + 1) % n], 0.0
    elif s < 0.0:
        piece, s = chain.pieces[(root.piece - 1) % n], 1.0
    g1, g2 = piece.deriv(np.array(s)), piece.deriv2(np.array(s))
    speed = math.sqrt(float(g1 @ g1))
    toward_centre = g2 - (float(g2 @ g1) / (speed * speed)) * g1
    kappa = abs(float(g1[0] * g2[1] - g1[1] * g2[0])) / speed**3
    return -kappa if float(toward_centre @ n_free) > 0.0 else kappa


@pytest.mark.parametrize("name", ["livshits", "crescent"])
@given(data=st.data())
def test_each_reflection_off_a_curve_obeys_the_mirror_equation(name, data):
    # a frame seeded (A, B) = (1, 0) on arrival at an event and walked through
    # it carries B = C = 2 kappa / cos(phi); the free-side normal and cos(phi)
    # are read off the traced reflection, v_out - v_in = 2 cos(phi) n. Half
    # the rays pass a join, where a root may lie past the end of its piece
    if name == "livshits":
        scene = geometry.livshits_scene()[0]
    else:
        mirror = geometry.concave_mirror_obstacle([-A_BALL, 0.0], 3.0, 0.5, 0.6, [1.0, 0.0])
        scene = bl.make_scene(2, A_BALL, [mirror], "crescent-focus")
    chain = scene.obstacles[0].chain
    checked = 0
    for traj in _drawn_orbits(data.draw, scene, 4, at=st.one_of(st.just(0.0), st.floats(0.0, 1.0))):
        events = traj.events
        for k, ev in enumerate(events):
            turn = np.subtract(ev.v_out, ev.v_in)
            cos_phi = 0.5 * math.sqrt(float(turn @ turn))
            if cos_phi < MIRROR_MIN_COS:
                continue
            want = 2.0 * _curvature_at_root(chain, ev.root, turn / (2.0 * cos_phi)) / cos_phi
            t_next = events[k + 1].t if k + 1 < len(events) else traj.total_time
            frame = walk_to(scene, traj, seed_frame(ev.v_in, 1.0, 0.0), ev.t, t_next, first=k)
            assert abs(frame.B[0, 0] - want) <= MIRROR_REL * abs(want)
            checked += 1
    assert checked >= 1


def _transfer(scene, traj, t):
    """The transfer J = [[dq/dq0, dq/dv0], [dv/dq0, dv/dv0]] of transverse
    (position, direction) offsets from the entry to time t, and the basis
    columns (n, m) it ends in: each of the seeds (I, 0) and (0, I) walked
    on its own."""
    frames = [walk_to(scene, traj, seed_frame(traj.entry.v, a0, b0), 0.0, t)
              for a0, b0 in ((1.0, 0.0), (0.0, 1.0))]
    return np.block([[f.A for f in frames], [f.B for f in frames]]), frames[0].basis


@pytest.mark.parametrize("dim, kind", [(dim, kind) for dim in (2, 3)
                                       for kind in ("sphere", "ellipsoid", "superellipsoid")]
                         + [(2, "curve2d")])
@given(data=st.data())
def test_the_reversed_orbit_transfers_by_the_symplectic_inverse(dim, kind, data):
    # the flow reversed, (q, v) -> (q, -v), retraces an orbit: the transfer
    # K of the reversed orbit over the same time, read in the forward bases
    # with the direction offsets negated at both ends, is the forward
    # transfer's inverse, which for J = [[A, B], [C, D]] is the symplectic
    # [[D^T, -B^T], [-C^T, A^T]]. Orbits as test_flow's time-reversal
    # properties retrace them: exited, transversal both ways, the same
    # obstacles in reverse
    scene = _drawn_scene(data.draw, dim, kind)
    m = dim - 1
    checked = 0
    for traj in _drawn_orbits(data.draw, scene, 4):
        rev = flow.trace(scene, bl.PhasePoint(traj.exit_state.q, -traj.exit_state.v))
        if (rev.status != "exited" or any(ev.type != "transversal" for ev in rev.events)
                or [ev.obstacle for ev in rev.events] != [ev.obstacle for ev in reversed(traj.events)]):
            continue
        # the curvature term 2 kappa / cos(phi) moves with the root by about
        # 1 / cos(phi)^2: near grazing, the rounding of the two traced roots
        # apart outweighs the law
        if any(0.5 * float(np.linalg.norm(np.subtract(ev.v_out, ev.v_in))) < MIRROR_MIN_COS for ev in traj.events):
            continue
        if kind == "curve2d":
            # a root at a join lies on one of its pieces (`_on_piece`), whose
            # curvature it takes: a reversed root on the other side of the
            # join takes the other one, and the flow is not differentiable there
            chain = scene.obstacles[0].chain
            sides = [[chain._on_piece(ev.root.piece, ev.root.s)[0] for ev in events]
                     for events in (traj.events, list(reversed(rev.events)))]
            if sides[0] != sides[1]:
                continue
        J, exit_basis = _transfer(scene, traj, traj.total_time)
        K, back_basis = _transfer(scene, rev, traj.total_time)
        # offsets at the forward exit in the reversed entry basis, and at the
        # reversed exit in the forward entry basis
        into = geometry.tangent_basis(rev.entry.v).T @ exit_basis
        back = geometry.tangent_basis(traj.entry.v).T @ back_basis
        flip = np.diag([1.0] * m + [-1.0] * m)
        got = flip @ np.kron(np.eye(2), back) @ K @ np.kron(np.eye(2), into) @ flip
        A, B, C, D = J[:m, :m], J[:m, m:], J[m:, :m], J[m:, m:]
        inverse = np.block([[D.T, -B.T], [-C.T, A.T]])
        size = max(float(np.max(np.abs(J))), float(np.max(np.abs(K))), traj.total_time)
        assert float(np.max(np.abs(got - inverse))) <= REVERSAL_C * EPS * size * size
        checked += 1
    assert checked >= 1
