import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import billiard_lens as bl
from billiard_lens import flow, geometry, variation
from billiard_lens.curves import (
    _JOIN_OVERLAP,
    _line_misses_ball,
    ArcPiece,
    BumpLinePiece,
    CurveChain,
    piece_from_dict,
)
from billiard_lens.geometry import (
    InvalidParameters,
    SchemaError,
    SingularGradient,
    ValidationFailed,
    canonical_json,
    fnv1a64,
    scene_from_json,
    scene_hash,
    scene_to_json,
    surface_frame,
    validate_scene,
)
from billiard_lens.rng import Xoshiro256StarStar

from conftest import (A_BALL, _all_pieces_chain, _all_pieces_curve, _rotation, cross_basis, entry_through,
                      plugged_crescent_scene, run_python)


def test_implicit_value_sphere_examples():
    s = bl.SphereObstacle([0.0, 0.0, 0.0], 1.0)
    assert s.implicit([2.0, 0.0, 0.0]) == pytest.approx(3.0)
    assert s.implicit([1.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert s.implicit([0.0, 0.0, 0.0]) == pytest.approx(-1.0)


def test_surface_frame_sphere():
    s = bl.SphereObstacle([0.0, 0.0, 0.0], 2.0)
    frame = surface_frame(s, [2.0, 0.0, 0.0])
    assert np.allclose(frame.normal, [1.0, 0.0, 0.0], atol=1e-14)
    assert np.allclose(frame.shape, 0.5 * np.eye(2), atol=1e-12)


def test_surface_frame_ellipse_vertex_curvature():
    # closed-form ellipse curvature kappa(t) = ab / (a^2 sin^2 t + b^2 cos^2 t)^(3/2);
    # at the major vertex (a, 0) this is a/b^2
    a_ax, b_ax = 2.0, 1.0
    ell = bl.EllipsoidObstacle([0.0, 0.0], [a_ax, b_ax])
    frame = surface_frame(ell, [a_ax, 0.0])
    kappa_oracle = a_ax * b_ax / (b_ax**2) ** 1.5
    assert np.allclose(frame.normal, [1.0, 0.0], atol=1e-14)
    assert frame.shape[0, 0] == pytest.approx(kappa_oracle, rel=1e-12)


def test_surface_frame_interior_point_rejected():
    s = bl.SphereObstacle([0.0, 0.0, 0.0], 1.0)
    with pytest.raises((SingularGradient, ValueError)):
        surface_frame(s, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        surface_frame(s, [0.5, 0.0, 0.0])


def _event_at(x, root, v_in):
    """An event on obstacle 0 at the point x of the ray root `root`, entered
    along v_in: what the Jacobi layer reads of a traced one."""
    x, v_in = np.asarray(x, dtype=float), np.asarray(v_in, dtype=float)
    return flow.Event(0.0, x, 0, "transversal", v_in, v_in, root)


def test_singular_gradient_raised_by_every_view():
    # the gradient floor is checked in the one unit-normal step, before its
    # division: by the local query and by the incidence at a root
    s = bl.SphereObstacle([0.0, 0.0, 0.0], 1.0)
    for view in (lambda x: surface_frame(s, x),
                 lambda x: variation._incidence(s, _event_at(x, 1.0, [1.0, 0.0, 0.0]))):
        with pytest.raises(SingularGradient):
            view([0.0, 0.0, 0.0])


@pytest.mark.parametrize("view", ["surface_frame", "validate"])
def test_each_local_view_of_a_curve_makes_one_closest_point_query(monkeypatch, view):
    obs = _all_pieces_chain(2.5, 1.5, 1.2, 0.4, 0.5, 0.7, [0.3, -0.2])
    x = obs.chain.pieces[3].point(np.array(0.3))
    foot = obs.chain.closest_batch(x[None, :])
    normal, t, kappa = foot.normal[0], foot.tangent[0], foot.shape[0]
    calls = []
    closest = CurveChain.closest_batch
    monkeypatch.setattr(CurveChain, "closest_batch", lambda self, X: calls.append(X) or closest(self, X))
    if view == "validate":
        validate_scene(bl.make_scene(2, A_BALL, [obs], "one-curve"))
        # one per curve obstacle for the whole boundary cloud, then one for
        # the connectivity check's grid-line runs
        assert len(calls) == 2
        assert np.array_equal(calls[0], obs.boundary_points(geometry._VALIDATION_SAMPLES[2]))
        return
    frame = surface_frame(obs, x)
    assert np.array_equal(frame.point, x)
    assert np.array_equal(frame.normal, normal)
    # the chain runs counter-clockwise, so the basis (-n_y, n_x) of the
    # outward normal is the traversal tangent itself
    assert np.array_equal(frame.tangent[:, 0], t)
    # the shape operator of a curve2d is its foot's kappa, as the query gives it
    assert frame.shape[0, 0] == kappa
    assert len(calls) == 1
    with pytest.raises(ValueError):
        surface_frame(obs, x + 1e-3 * normal)
    assert len(calls) == 2


@pytest.mark.parametrize("kind", ["sphere2d", "sphere3d", "ellipsoid2d", "ellipsoid3d",
                                  "superellipsoid2d", "superellipsoid3d", "curve2d"])
@given(data=st.data())
def test_local_views_agree_at_boundary_points(kind, data):
    # surface_frame, the local query's view at a point, and the Jacobi
    # layer's incidence at a ray root agree on an implicit kind, where the
    # root changes nothing: the same normal bit for bit, and the same shape
    # operator on the tangent plane up to rounding. On a curve2d
    # surface_frame's normal is `gradient`'s, the closest-point foot's; the
    # incidence there is the root's (test_curve_hit_normals_are_closed_form)
    obs = _obstacle(data.draw, kind)
    v = np.array([data.draw(_unit) for _ in range(obs.dim)])
    assume(np.linalg.norm(v) > 1e-3)
    v /= np.linalg.norm(v)
    roots = obs.ray_roots(obs.center, v)
    assume(roots)
    root = roots[data.draw(st.integers(0, len(roots) - 1))]
    x = obs.center + root * v
    frame = surface_frame(obs, x)
    if kind == "curve2d":
        assert np.array_equal(obs.gradient(x), frame.normal)
        return
    incidence = variation._incidence(obs, _event_at(x, root, -frame.normal))
    assert frame.normal.tolist() == incidence.normal
    # the incidence's form is Hess F / |grad F| unprojected: on the tangent
    # plane it is the shape operator; rounding scales with it, which at a
    # flat point of a superellipsoid is much larger than the shape
    form = np.array(incidence.shape_ambient)
    on_plane = frame.tangent.T @ form @ frame.tangent
    scale = max(float(np.max(np.abs(frame.shape))), float(np.max(np.abs(form))))
    assert np.max(np.abs(on_plane - frame.shape)) <= 1e-13 * scale


@pytest.mark.parametrize("kind", ["sphere2d", "sphere3d", "ellipsoid2d", "ellipsoid3d",
                                  "superellipsoid2d", "superellipsoid3d", "curve2d"])
@given(data=st.data())
def test_local_geometry_of_a_stack_is_its_rows(kind, data):
    # each quantity has one formula over a batch of points: a stack of
    # boundary points, ray roots and `boundary_points` samples, gets the bits
    # of its rows queried one at a time
    obs = _obstacle(data.draw, kind)
    dirs = data.draw(hnp.arrays(float, (data.draw(st.integers(2, 6)), obs.dim), elements=_unit))
    c = obs.center
    rows = []
    for v in dirs:
        if np.linalg.norm(v) > 1e-3:
            v = v / np.linalg.norm(v)
            rows += [c + t * v for t in obs.ray_roots(c, v)]
    assume(len(rows) > 1)
    samples = obs.boundary_points(data.draw(st.integers(1, 64)))
    X = np.vstack([rows, samples])
    # every sample of the one sampler lies on the drawn (rotated) body, to rounding
    assert np.max(np.abs(obs.local_geometry(samples)[0])) <= 1e-13 * max(1.0, obs.bounding_radius())
    one_row = [obs.local_geometry(x[None, :]) for x in X]
    for k, stacked in enumerate(obs.local_geometry(X)):
        assert stacked.tobytes() == np.concatenate([q[k] for q in one_row]).tobytes()
    G = obs.gradient(X)
    for g, x in zip(G, X):
        assert g.tobytes() == obs.gradient(x).tobytes()


def _builtin_obstacles():
    rot = [math.cos(0.4), -math.sin(0.4), math.sin(0.4), math.cos(0.4)]
    return [
        bl.SphereObstacle([0.3, -0.2], 1.3),
        bl.EllipsoidObstacle([0.1, 0.4], [1.8, 0.9], rot),
        bl.SuperellipsoidObstacle([0.0, 0.0], [1.5, 1.0], 6.0),
        bl.SphereObstacle([0.1, 0.0, -0.2], 1.1),
        bl.EllipsoidObstacle([0.0, 0.0, 0.0], [1.6, 1.1, 0.7]),
        bl.SuperellipsoidObstacle([0.0, 0.0, 0.0], [1.2, 1.0, 0.8], 8.0),
        geometry.CurveObstacle(CurveChain([ArcPiece([0.0, 0.0], 1.4, 0.0, 2.0 * math.pi)])),
    ]


def test_normal_unit_and_outward():
    for obs in _builtin_obstacles():
        pts = obs.boundary_points(64)
        for p in pts[:: max(1, len(pts) // 16)]:
            frame = surface_frame(obs, p)
            g = obs.gradient(p)
            assert abs(np.linalg.norm(frame.normal) - 1.0) < 1e-12
            assert float(frame.normal @ g) > 0.0
            # every builtin in this list is strictly convex (flat-ish faces of
            # the superellipsoid still have non-negative curvature)
            assert np.min(np.linalg.eigvalsh(frame.shape)) > -1e-12


def test_validate_scene_passes_on_acceptance_scenes(
    disc_scene, sphere_scene, two_disc_scene, disc_ellipse_scene,
    sphere_ellipsoid_scene, livshits_pair, crescent_focus_scene,
    conjugate_fixture_scene,
):
    base, deformed, _ = livshits_pair
    scenes = [disc_scene, sphere_scene, two_disc_scene, disc_ellipse_scene,
              sphere_ellipsoid_scene, base, deformed, crescent_focus_scene,
              conjugate_fixture_scene]
    for scene in scenes:
        report = validate_scene(scene)
        assert report.exterior_connected is True
        assert report.containment_margin > 0


def _project_to_boundary(obs, x):
    # walk along the gradient until F = 0
    x = np.array(x, dtype=float)
    for _ in range(60):
        f = obs.implicit(x)
        g = obs.gradient(x)
        gn = float(g @ g)
        if abs(f) < 1e-14 or gn == 0.0:
            break
        x = x - g * (f / gn)
    return x


def test_shape_operator_matches_fd_normal_map():
    gen = Xoshiro256StarStar(42)
    for obs in _builtin_obstacles():
        pts = obs.boundary_points(200)
        for _ in range(4):
            p = pts[int(gen.uniform() * len(pts))]
            p = _project_to_boundary(obs, p)
            frame = surface_frame(obs, p)
            h = 1e-5 * max(1.0, obs.bounding_radius())
            for col in range(frame.tangent.shape[1]):
                t_dir = frame.tangent[:, col]
                xp = _project_to_boundary(obs, p + h * t_dir)
                xm = _project_to_boundary(obs, p - h * t_dir)
                dn = (surface_frame(obs, xp).normal - surface_frame(obs, xm).normal) / (2.0 * h)
                expected = frame.tangent @ frame.shape[:, col]
                scale = max(np.linalg.norm(expected), 1e-6)
                assert np.linalg.norm(dn - expected) / scale < 1e-4


def test_validate_scene_two_spheres_gap():
    scene = bl.make_scene(
        3, 10.0,
        [bl.SphereObstacle([-3.0, 0, 0], 1.0), bl.SphereObstacle([3.0, 0, 0], 1.0)],
        "gap",
    )
    report = validate_scene(scene)
    assert report.pairwise_gap_min == pytest.approx(4.0, abs=0.02)


def test_validate_scene_containment_failure():
    scene = bl.make_scene(3, 10.0, [bl.SphereObstacle([0, 0, 0], 11.0)], "too-big")
    with pytest.raises(ValidationFailed) as err:
        validate_scene(scene)
    assert err.value.reason == "containment"


def test_validate_scene_overlap_failure():
    scene = bl.make_scene(
        2, 10.0,
        [bl.SphereObstacle([0.0, 0.0], 1.0), bl.SphereObstacle([1.5, 0.0], 1.0)],
        "overlap",
    )
    with pytest.raises(ValidationFailed) as err:
        validate_scene(scene)
    assert err.value.reason == "overlap"


@pytest.mark.parametrize("build", [
    lambda: bl.SphereObstacle([0.0, 0.0], 0.0),
    lambda: bl.SphereObstacle([0.0, 0.0, 0.0], -1.0),
    lambda: bl.EllipsoidObstacle([0.0, 0.0], [1.0, 0.0]),
    lambda: bl.EllipsoidObstacle([0.0, 0.0, 0.0], [1.0, -2.0, 1.0]),
    lambda: bl.SuperellipsoidObstacle([0.0, 0.0], [0.0, 1.0], 6.0),
], ids=["sphere-zero", "sphere-negative", "ellipsoid-zero", "ellipsoid-negative",
        "superellipsoid-zero"])
def test_non_positive_size_rejected_when_built(build):
    # sizes are checked where obstacles are built, so no command reads such a scene
    with pytest.raises(InvalidParameters, match="must be positive"):
        build()


@pytest.mark.parametrize("dim", [1, 4])
def test_obstacles_outside_2d_and_3d_rejected_when_built(dim):
    # the ray solvers work on float pairs and triples
    with pytest.raises(InvalidParameters, match="2D or 3D"):
        bl.SphereObstacle([0.0] * dim, 1.0)


def _symmetric_forms(draw, count):
    """A stack of `count` symmetric 2x2 forms R diag(k1, k2) R^T, each of a
    drawn turn R and eigenvalues k1 and k2 = k1, 0, -k1 or drawn, each drawn
    value 0 or of magnitude 1e-9 to 1e5 (where no square underflows)."""
    def curvature():
        k = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)))
        return k * draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.integers(-6, 2))

    forms = []
    for _ in range(count):
        k1 = curvature()
        k2 = draw(st.sampled_from([k1, 0.0, -k1, None]))
        k2 = curvature() if k2 is None else k2
        angle = draw(_angle)
        c, s = math.cos(angle), math.sin(angle)
        off = c * s * (k1 - k2)
        forms.append([[c * c * k1 + s * s * k2, off], [off, s * s * k1 + c * c * k2]])
    return np.array(forms)


@given(data=st.data())
def test_principal_curvatures_are_the_eigenvalues(data):
    # the closed form, elementwise over a stack, against LAPACK's eigvalsh
    # (the reference here): the worst over 10^6 forms is 2.7 eps max|kappa|
    shapes = _symmetric_forms(data.draw, data.draw(st.integers(1, 8)))
    got, want = geometry._principal_curvatures(shapes), np.linalg.eigvalsh(shapes)
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 4.0 * np.finfo(float).eps * scale)
    # a 1x1 shape operator (2D) is its own curvature
    assert np.array_equal(geometry._principal_curvatures(shapes[:, :1, :1]), shapes[:, 0, :1])


def test_validate_scene_superellipsoid_flatness_flag():
    scene = bl.make_scene(
        3, 10.0, [bl.SuperellipsoidObstacle([0, 0, 0], [1.5, 1.2, 1.0], 8.0)], "boxy"
    )
    report = validate_scene(scene)
    assert report.flatness_flag
    assert not report.flagged_nonconvex


def test_validate_scene_flags_flat_walls_beside_concave_arcs(livshits_pair):
    # the Livshits cavity's straight walls meet its concave smoothing arcs
    base, _, _ = livshits_pair
    report = validate_scene(base)
    assert report.flatness_flag
    assert report.flagged_nonconvex


def test_validate_scene_connectivity_builtin():
    scene = bl.make_scene(
        2, 10.0,
        [bl.SphereObstacle([-3.0, 0.0], 1.0), bl.SphereObstacle([3.0, 0.0], 1.0)],
        "two",
    )
    report = validate_scene(scene)
    assert report.exterior_connected is True


def test_livshits_foci_identity():
    scene, foci = geometry.livshits_scene(semi_axes=(2.0, 1.0), wall_thickness=0.9,
                                          smoothing_radius=0.08, ball_radius=6.0)
    c = math.sqrt(2.0**2 - 1.0**2)
    assert np.allclose(foci, [[-c, 0.0], [c, 0.0]], atol=1e-14)
    # the mirror arc is an exact piece of the defining ellipse
    mirror = scene.obstacles[0].chain.pieces[0]
    s = np.linspace(0.0, 1.0, 113)
    pts = mirror.point(s)
    r1 = np.linalg.norm(pts - foci[0], axis=1)
    r2 = np.linalg.norm(pts - foci[1], axis=1)
    assert np.max(np.abs(r1 + r2 - 2.0 * 2.0)) < 1e-9


def test_livshits_scene_validates():
    scene, _ = geometry.livshits_scene()
    report = validate_scene(scene)
    assert report.exterior_connected is True
    assert report.containment_margin > 0


def test_livshits_invalid_parameters():
    with pytest.raises(InvalidParameters):
        geometry.livshits_scene(semi_axes=(1.0, 2.0))  # minor > major
    with pytest.raises(InvalidParameters):
        # smoothing radius at the focal gap scale
        geometry.livshits_scene(semi_axes=(2.0, 1.9), smoothing_radius=2.0)
    with pytest.raises(InvalidParameters):
        geometry.livshits_scene(ball_radius=4.0)  # does not fit the ball


def test_livshits_deformation_localized_to_pocket():
    base, foci = geometry.livshits_scene()
    deformed, _ = geometry.livshits_scene(deformation=0.5)
    pieces_b = base.obstacles[0].chain.pieces
    pieces_d = deformed.obstacles[0].chain.pieces
    assert len(pieces_b) == len(pieces_d)
    s = np.linspace(0.0, 1.0, 41)
    c = foci[1][0]
    moved = []
    for k, (pb, pd) in enumerate(zip(pieces_b, pieces_d)):
        delta = float(np.max(np.linalg.norm(pb.point(s) - pd.point(s), axis=1)))
        if delta > 1e-12:
            moved.append((k, delta))
            pts = pd.point(s)
            # the moved boundary stays inside the shadow pocket behind the focus
            assert np.all(pts[:, 0] >= c - 1e-9)
            assert np.all(pts[:, 1] <= 1e-9)
    assert len(moved) == 1
    assert moved[0][1] == pytest.approx(0.5, rel=1e-9)


def test_scene_json_round_trip_and_hash(livshits_pair):
    base, _, _ = livshits_pair
    scenes = [
        bl.make_scene(3, 10.0, [bl.SphereObstacle([0, 0, 0], 1.0)], "s"),
        bl.make_scene(2, 8.0, [bl.EllipsoidObstacle([0.5, 0.0], [2.0, 1.0])], "e"),
        base,
    ]
    for scene in scenes:
        text = scene_to_json(scene)
        again = scene_to_json(scene_from_json(text))
        assert text == again
        assert scene_hash(scene) == scene_hash(scene_from_json(text))


def test_scene_hash_distinguishes():
    s1 = bl.make_scene(3, 10.0, [bl.SphereObstacle([0, 0, 0], 1.0)], "s")
    s2 = bl.make_scene(3, 10.0, [bl.SphereObstacle([0, 0, 0], 1.01)], "s")
    assert scene_hash(s1) != scene_hash(s2)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, np.float64("nan")],
                         ids=["nan", "inf", "-inf", "numpy-nan"])
def test_canonical_json_rejects_non_finite(x):
    with pytest.raises(ValueError):
        canonical_json(x)
    with pytest.raises(ValueError):
        canonical_json({"a": [1.0, x]})


def test_scene_json_rejects_unknown_keys():
    s = bl.make_scene(2, 10.0, [bl.SphereObstacle([0.0, 0.0], 1.0)], "s")
    d = json.loads(json.dumps(eval_scene_dict(s)))
    d["surprise"] = 1
    with pytest.raises(SchemaError):
        geometry.scene_from_dict(d)
    d = eval_scene_dict(s)
    d["obstacles"][0]["colour"] = "red"
    with pytest.raises(SchemaError):
        geometry.scene_from_dict(d)
    d = eval_scene_dict(s)
    d["obstacles"][0]["params"]["spin"] = 2
    with pytest.raises(SchemaError):
        geometry.scene_from_dict(d)
    d = eval_scene_dict(s)
    del d["name"]
    with pytest.raises(SchemaError):
        geometry.scene_from_dict(d)


@pytest.mark.parametrize("piece", [
    {"type": "arc", "center": [0.0, 0.0], "radius": 1.0, "theta0": 0.5, "theta1": 0.5},
    {"type": "ellipse_arc", "center": [0.0, 0.0], "semi_axes": [1.0, 2.0], "theta0": 0.5,
     "theta1": 0.5},
], ids=["arc", "ellipse_arc"])
def test_zero_sweep_arc_rejected(piece):
    # a root's arc parameter is its angle over the sweep
    with pytest.raises(ValueError, match="sweep"):
        piece_from_dict(piece)


@pytest.mark.parametrize("piece", [
    {"type": "line", "p0": [1.0, 0.0], "p1": [1.0, 0.0]},
    {"type": "bump_line", "p0": [1.0, 0.0], "p1": [1.0, 0.0], "amplitude": 0.1,
     "direction": [1.0, 0.0]},
], ids=["line", "bump_line"])
def test_zero_length_segment_rejected(piece):
    # at the join of two half circles it closes the chain, with no tangent there
    halves = [ArcPiece([0.0, 0.0], 1.0, 0.0, math.pi), ArcPiece([0.0, 0.0], 1.0, math.pi, 2.0 * math.pi)]
    with pytest.raises(ValueError, match="endpoints"):
        CurveChain([*halves, piece_from_dict(piece)])


def test_bump_direction_must_be_nonzero():
    with pytest.raises(ValueError, match="direction"):
        BumpLinePiece([0.0, 0.0], [1.0, 0.0], 0.1, [0.0, 0.0])


@pytest.mark.parametrize("kind", ["sphere2d", "sphere3d", "ellipsoid2d", "ellipsoid3d",
                                  "superellipsoid2d", "superellipsoid3d", "curve2d"])
@given(data=st.data())
def test_scene_file_round_trip_is_exact(kind, data):
    # the file a scene writes reads back to a scene that writes the same file,
    # so a scene and its reloaded file hash the same; the curve's bump
    # direction is not a unit vector
    if kind == "curve2d":
        bump_direction = (data.draw(st.floats(-3.0, 3.0)), data.draw(st.floats(0.1, 3.0)))
        obs = _all_pieces_curve(data.draw, bump_direction)
    else:
        obs = _obstacle(data.draw, kind)
    scene = bl.make_scene(obs.dim, A_BALL, [obs], kind)
    text = scene_to_json(scene)
    again = scene_from_json(text)
    assert scene_to_json(again) == text
    assert scene_hash(again) == scene_hash(scene)


def eval_scene_dict(scene):
    return json.loads(scene_to_json(scene))


def test_canonical_json_floats():
    assert canonical_json({"a": 0.1}) == '"a":0.10000000000000001'.join(["{", "}"])
    assert canonical_json([1, True, None]) == "[1,true,null]"


# -- tangent_basis: a batch against single calls and an np.cross oracle ---------


def _check_bases(N):
    N = np.asarray(N, dtype=float)
    dim = N.shape[1]
    B = geometry.tangent_basis(N)
    assert B.shape == (N.shape[0], dim, dim - 1)
    for n, b in zip(N, B):
        single, oracle = geometry.tangent_basis(n), cross_basis(n)
        assert single.shape == oracle.shape == b.shape
        assert single.tobytes() == b.tobytes() == oracle.tobytes()  # bit for bit, signed zeros too
        np.testing.assert_allclose(b.T @ b, np.eye(dim - 1), rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(n @ b, 0.0, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("dim", [2, 3])
@given(data=st.data())
def test_tangent_basis_batch_matches_single_calls_and_cross_oracle(dim, data):
    N = data.draw(hnp.arrays(float, (data.draw(st.integers(1, 8)), dim),
                             elements=st.floats(-1.0, 1.0)))
    norms = np.linalg.norm(N, axis=1)
    assume(np.all(norms > 1e-3))
    _check_bases(N / norms[:, None])


def test_tangent_basis_axes_and_ties():
    r2, r3 = 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(3.0)
    axes3 = np.vstack([np.eye(3), -np.eye(3)])
    ties3 = [[r2, r2, 0.0], [r2, 0.0, r2], [0.0, r2, r2], [-r2, r2, 0.0], [r3, r3, r3], [-r3, r3, -r3]]
    _check_bases(np.vstack([axes3, ties3]))
    _check_bases(np.vstack([np.eye(2), -np.eye(2), [[r2, r2], [r2, -r2]]]))


def test_fnv1a64_known_values():
    # standard FNV-1a 64-bit test vectors
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


def test_rotation_matrix_validation():
    with pytest.raises(InvalidParameters):
        bl.EllipsoidObstacle([0.0, 0.0], [2.0, 1.0], [1.0, 1.0, 0.0, 1.0])


def test_superellipsoid_exponent_validation():
    with pytest.raises(InvalidParameters):
        bl.SuperellipsoidObstacle([0.0, 0.0], [1.0, 1.0], 2.5)


def test_curve_gradient_is_foot_normal_off_the_curve():
    # points a few 1e-12 off the outer arc (concentric with the ball) on either side
    scene, _ = geometry.livshits_scene()
    obstacle = scene.obstacles[0]
    r_out = obstacle.chain.pieces[9].radius
    for ang in np.linspace(0.3 * math.pi, 0.7 * math.pi, 11):
        radial = np.array([math.cos(ang), math.sin(ang)])
        for off in (3e-12, -5e-12, 8e-12, -8e-12):
            g = obstacle.gradient((r_out + off) * radial)
            assert np.linalg.norm(g - radial) <= 1e-12


# -- ray_roots against a dense sign-scan oracle ---------------------------------

_unit = st.floats(-1.0, 1.0)
_angle = st.floats(-math.pi, math.pi)


def _obstacle(draw, kind):
    dim = 2 if "2d" in kind else 3
    center = [draw(_unit) for _ in range(dim)]
    axes = [draw(st.floats(0.3, 3.0)) for _ in range(dim)]
    rotation = _rotation(dim, [draw(_angle) for _ in range(1 if dim == 2 else 3)])
    if kind.startswith("sphere"):
        return bl.SphereObstacle(center, axes[0])
    if kind.startswith("ellipsoid"):
        return bl.EllipsoidObstacle(center, axes, rotation)
    if kind.startswith("superellipsoid"):
        return bl.SuperellipsoidObstacle(center, axes, draw(st.floats(4.0, 12.0)), rotation)
    return _all_pieces_curve(draw)


def _ray_along_bump(draw, bump):
    """Ray inside the bump's amplitude band, nearly parallel to its chord, so
    that it often crosses the bump twice."""
    q = (bump.p0 + draw(st.floats(0.2, 0.8)) * (bump.p1 - bump.p0)
         + draw(st.floats(0.05, 0.95)) * bump.amplitude * bump.direction)
    ang = math.atan2(*(bump.p1 - bump.p0)[::-1]) + draw(st.floats(-0.2, 0.2))
    return q, np.array([math.cos(ang), math.sin(ang)])


@pytest.mark.parametrize("kind", ["sphere2d", "sphere3d", "ellipsoid3d", "superellipsoid2d",
                                  "superellipsoid3d", "curve2d", "curve2d-bump"])
@given(data=st.data())
def test_ray_roots_match_sign_scan(kind, data):
    obs = _obstacle(data.draw, kind)
    dim = obs.dim
    r = obs.bounding_radius()
    if kind == "curve2d-bump":
        q, v = _ray_along_bump(data.draw, obs.chain.pieces[3])
    else:
        v = np.array([data.draw(_unit) for _ in range(dim)])
        if np.linalg.norm(v) < 1e-3:
            v[0] = 1.0
        v /= np.linalg.norm(v)
        q = obs.center + np.array([1.2 * r * data.draw(_unit) for _ in range(dim)])
    roots = obs.ray_roots(q, v)
    assert roots == sorted(roots)
    for t in roots:
        x = q + t * v
        assert abs(obs.implicit(x)) / np.linalg.norm(obs.gradient(x)) <= 1e-12 * A_BALL
    # every sign change on a dense grid over the bounding chord is bracketed by a root
    b = float((q - obs.center) @ v)
    ts = np.linspace(-b - 1.1 * r, -b + 1.1 * r, 4001)
    inside = obs.implicit_batch(q[None, :] + ts[:, None] * v[None, :]) <= 0.0
    slack = 1e-9 * A_BALL
    for k in np.where(inside[:-1] != inside[1:])[0]:
        assert any(ts[k] - slack <= t <= ts[k + 1] + slack for t in roots)


def test_curve_bounding_circle_holds_the_farthest_arc():
    # a dome on a flat base with quarter-arc corners: each corner reaches
    # sqrt(7.8125) + 0.5 from the box centre (0, 1.25), 2.2e-5 beyond 1.0001
    # times the farthest of the chain's dense samples. Lines in that band cross
    # a corner twice, along a direction of any length, and a ray along one
    # reflects there.
    obs = bl.CurveObstacle([ArcPiece((0.0, 0.0), 3.0, 0.0, math.pi),
                            ArcPiece((-2.5, 0.0), 0.5, math.pi, 1.5 * math.pi),
                            BumpLinePiece((-2.5, -0.5), (2.5, -0.5), 0.0, (0.0, -1.0)),
                            ArcPiece((2.5, 0.0), 0.5, 1.5 * math.pi, 2.0 * math.pi)])
    scene = bl.make_scene(2, A_BALL, [obs], "dome")
    c, r = obs.chain.bounding_circle()
    reach = math.sqrt(7.8125) + 0.5
    assert c.tolist() == [0.0, 1.25] and r >= reach
    u = np.array([-2.5, -1.25]) / math.sqrt(7.8125)
    v = np.array([u[1], -u[0]])
    for k in range(10):
        point = c + (reach - 2e-6 * (k + 0.5)) * u
        assert len(obs.ray_roots(point - v, v)) == len(obs.ray_roots(point - v, 0.5 * v)) == 2
        traj = flow.trace(scene, entry_through(point, v))
        assert [(ev.obstacle, ev.type) for ev in traj.events] == [(0, "transversal")]


def _unit_vector(draw, dim):
    """A unit vector of a drawn angle (2D) or height and azimuth (3D)."""
    phi = draw(_angle)
    if dim == 2:
        return np.array([math.cos(phi), math.sin(phi)])
    z = draw(_unit)
    rho = math.sqrt(1.0 - z * z)
    return np.array([rho * math.cos(phi), rho * math.sin(phi), z])


def _farthest_direction(points):
    """The unit vector of the longest row of `points`."""
    far = points[int(np.argmax(np.sum(points * points, axis=1)))]
    return far / np.linalg.norm(far)


def _line_near_ball(draw, c, radius, normal):
    """(q, v, delta): a line, as lists of floats, at squared distance
    radius^2 (1 + delta) from c, delta of either sign down to tangency, its
    foot along `normal` from c, along a direction of any length."""
    dim = len(c)
    u = cross_basis(normal) @ _unit_vector(draw, dim - 1) if dim == 3 else cross_basis(normal)[:, 0]
    delta = draw(st.one_of(st.floats(-0.5, 0.5), st.floats(-1e-9, 1e-9), st.floats(-1e-14, 1e-14)))
    q = c + math.sqrt(radius**2 * (1.0 + delta)) * normal + draw(st.floats(-3.0, 3.0)) * radius * u
    v = draw(st.floats(1e-2, 1e2)) * u
    return q.tolist(), v.tolist(), delta


@pytest.mark.parametrize("kind, dim", [("sphere", 2), ("sphere", 3), ("ellipsoid", 2), ("ellipsoid", 3),
                                       ("superellipsoid", 2), ("superellipsoid", 3), ("curve2d", 2)])
@given(data=st.data())
def test_a_line_that_misses_the_bounding_ball_has_no_roots(kind, dim, data):
    # the tracer's bounding-ball reject (`flow._first_root`), on lines at
    # squared distance R^2 (1 + delta) from the centre, delta of either sign
    # down to tangency, along a direction of any length. Their normal is
    # drawn, or points at the boundary point farthest out where the ball
    # touches it (any of a sphere's, an end of an ellipsoid's longest axis, a
    # curve's farthest sample), so that near-tangent lines graze the body.
    # Where the reject fires, so that the obstacle is not asked, its
    # `ray_roots` finds no root; a line well outside the ball is rejected and
    # one well inside is not
    draw = data.draw
    if kind == "curve2d":
        obs = _all_pieces_curve(draw)
    else:
        center = [draw(_unit) for _ in range(dim)]
        axes = [draw(st.floats(0.3, 3.0)) for _ in range(dim)]
        rotation = (_rotation(dim, [draw(_angle) for _ in range(1 if dim == 2 else 3)])
                    if draw(st.booleans()) else None)
        obs = (bl.SphereObstacle(center, axes[0]) if kind == "sphere"
               else bl.EllipsoidObstacle(center, axes, rotation) if kind == "ellipsoid"
               else bl.SuperellipsoidObstacle(center, axes, draw(st.floats(4.0, 12.0)), rotation))
    c, radius = obs.center, obs.bounding_radius()
    normal = _unit_vector(draw, dim)
    if draw(st.booleans()):
        if kind == "ellipsoid":
            normal = obs.rotation[:, int(np.argmax(obs.semi_axes))] * draw(st.sampled_from([-1.0, 1.0]))
        elif kind == "curve2d":
            normal = _farthest_direction(obs.boundary_points(4096) - c)
    q, v, delta = _line_near_ball(draw, c, radius, normal)
    asked, ray_roots = [], obs.ray_roots
    obs.ray_roots = lambda q, v: asked.append(q) or ray_roots(q, v)
    flow._first_root(bl.make_scene(dim, A_BALL, [obs], kind), q, v, -math.inf, math.inf, None)
    if not asked:
        assert ray_roots(q, v) == []
    if abs(delta) >= 1e-10:
        assert (not asked) == (delta > 0.0)


@given(data=st.data())
def test_curve_bounding_circle_holds_every_piece_point(data):
    # the chain's circle holds every piece, and each piece's ball for
    # `ray_roots` holds it and the join overlap past its ends
    chain = _all_pieces_curve(data.draw).chain
    c, r = chain.bounding_circle()
    for piece in chain.pieces:
        points = piece.point(np.linspace(0.0, 1.0, 4097))
        assert np.max(np.sqrt(np.sum((points - c) ** 2, axis=1))) <= r
    for _, piece, center, reach2 in chain._piece_balls:
        # the ends of the overlap lie on the ball: up to the points' rounding,
        # a few ulps of their coordinates
        points = piece.point(np.linspace(-_JOIN_OVERLAP, 1.0 + _JOIN_OVERLAP, 4097))
        slack = 2.0**-50 * np.max(np.abs(points))
        assert np.max(np.sqrt(np.sum((points - center) ** 2, axis=1))) <= math.sqrt(reach2) + slack


@given(data=st.data())
def test_a_chain_solves_only_the_pieces_whose_ball_its_line_meets(data):
    # `CurveChain.ray_roots` against the roots of every piece, unfiltered, on
    # lines near the ball of a drawn piece: at squared distance R^2 (1 + delta)
    # from its centre (`_line_near_ball`, the normal drawn or pointing at the
    # piece's farthest point), or through a point of the piece within the join
    # overlap of an end, along a drawn direction or tangent to the ball there,
    # where a segment's end lies on it. Where a ball rejects the line, its
    # piece has no root; a line well outside the ball is rejected and one well
    # inside is not
    draw = data.draw
    chain = _all_pieces_curve(draw).chain
    _, piece, c, reach2 = chain._piece_balls[draw(st.integers(0, len(chain.pieces) - 1))]
    c = np.array(c)
    if draw(st.booleans()):
        normal = _unit_vector(draw, 2)
        if draw(st.booleans()):
            normal = _farthest_direction(piece.point(np.linspace(0.0, 1.0, 4097)) - c)
        q, v, delta = _line_near_ball(draw, c, math.sqrt(reach2), normal)
    else:
        s0 = draw(st.sampled_from([0.0, 1.0])) + draw(st.floats(-1.0, 1.0)) * _JOIN_OVERLAP
        x = piece.point(np.array(s0))
        u = (_unit_vector(draw, 2) if draw(st.booleans())
             else cross_basis(_farthest_direction((x - c)[None, :]))[:, 0])
        q, v = (x - 2.0 * chain.bounding_circle()[1] * u).tolist(), (draw(st.floats(1e-2, 1e2)) * u).tolist()
        delta = 0.0
    unfiltered = sorted(((t, k, s) for k, p in enumerate(chain.pieces) for t, s in p.ray_roots(q, v)),
                        key=lambda root: root[0])
    assert [(float(t), t.piece, t.s) for t in chain.ray_roots(q, v)] == unfiltered
    vv = v[0] * v[0] + v[1] * v[1]
    for _, p, center, r2 in chain._piece_balls:
        if _line_misses_ball(q, v, vv, center, r2):
            assert p.ray_roots(q, v) == []
    if abs(delta) >= 1e-10:
        assert _line_misses_ball(q, v, vv, c.tolist(), reach2) == (delta > 0.0)


@given(data=st.data())
def test_curve_hit_normals_are_closed_form(data):
    # rays through a point of a random piece: inside it, at its start, or up to
    # the join overlap to either side of its start, where one of the two roots
    # lies past the end of its piece, on the curved neighbour
    obs = _all_pieces_curve(data.draw)
    chain = obs.chain
    k = data.draw(st.integers(0, len(chain.pieces) - 1))
    near_join = st.floats(0.25, 1.0).map(lambda u: u * _JOIN_OVERLAP)
    s0 = data.draw(st.one_of(st.floats(0.0, 1.0), st.just(0.0), near_join,
                             near_join.map(lambda s: -s)))
    ang = data.draw(_angle)
    v = np.array([math.cos(ang), math.sin(ang)])
    q = chain.pieces[k].point(np.array(s0)) - 2.0 * obs.bounding_radius() * v
    roots = obs.ray_roots(q, v)
    assert roots
    # the roots are the per-piece crossings, each carrying its piece and parameter
    assert [(float(t), t.piece, t.s) for t in roots] == sorted(
        (t, k, s) for k, piece in enumerate(chain.pieces) for t, s in piece.ray_roots(q, v))
    copied = pickle.loads(pickle.dumps(roots))
    assert [(float(t), t.piece, t.s) for t in copied] == [(float(t), t.piece, t.s) for t in roots]
    for t in roots:
        x = q + t * v
        normal = obs.root_gradient(x, t)
        foot = chain.closest_batch(x[None, :])
        assert abs(np.linalg.norm(normal) - 1.0) <= 1e-15
        assert np.max(np.abs(normal - foot.normal[0])) <= 1e-12
        # and the shape form kappa t t^T, where the foot lies on the piece the
        # root is taken on: the curvature jumps at a join, where both are right
        if chain._on_piece(t.piece, t.s)[0] == foot.piece[0]:
            tangent = foot.tangent[0]
            form = foot.shape[0] * np.outer(tangent, tangent)
            assert np.max(np.abs(obs.root_hessian(x, t) - form)) <= 1e-12 * max(1.0, abs(foot.shape[0]))


@given(data=st.data())
def test_piece_ray_roots_are_the_same_for_arrays_and_tuples(data):
    # the chain hands its pieces lists of floats; validate's scanline and the
    # tests hand them arrays: every piece gives the same bits for either, on
    # rays through a piece point or up to the join overlap to either side of
    # its start
    chain = _all_pieces_curve(data.draw).chain
    k = data.draw(st.integers(0, len(chain.pieces) - 1))
    near_join = st.floats(0.25, 1.0).map(lambda u: u * _JOIN_OVERLAP)
    s0 = data.draw(st.one_of(st.floats(0.0, 1.0), st.just(0.0), near_join,
                             near_join.map(lambda s: -s)))
    ang = data.draw(_angle)
    v = np.array([math.cos(ang), math.sin(ang)])
    q = chain.pieces[k].point(np.array(s0)) - 2.0 * chain.bounding_circle()[1] * v
    hits = 0
    for piece in chain.pieces:
        ref = [(float(t).hex(), float(s).hex()) for t, s in piece.ray_roots(q, v)]
        for pair in ((tuple(q.tolist()), tuple(v.tolist())), (q.tolist(), v.tolist())):
            assert [(t.hex(), s.hex()) for t, s in piece.ray_roots(*pair)] == ref
        hits += len(ref)
    assert hits


def _probe_points(chain, rng, n):
    """n points of the chain's bounding box, eight on each piece and eight
    just off it, and every piece end."""
    c, r = chain.bounding_circle()
    on = np.vstack([piece.point(rng.uniform(0.0, 1.0, 8)) for piece in chain.pieces])
    ends = [np.array([piece.start(), piece.end()]) for piece in chain.pieces]
    return np.vstack([c + rng.uniform(-1.2 * r, 1.2 * r, (n, 2)), on,
                      on + rng.normal(0.0, 0.02 * r, on.shape), *ends])


def _assert_feet_are_nearest(chain, X):
    # closest_batch against its own foot, and the chain's and each
    # closed-form piece's nearest point against a dense sample: no sample is
    # nearer (up to the k-d tree's rounding), and the nearest is at most half
    # the longest arc between two samples farther, which exceeds their
    # longest chord by under 1e-6 here
    fd = chain.closest_batch(X)
    c, r = chain.bounding_circle()
    scale = float(np.linalg.norm(c)) + r
    assert np.array_equal(fd.dist, np.linalg.norm(X - fd.foot, axis=1))
    for k, piece in enumerate(chain.pieces):
        rows = fd.piece == k
        assert np.max(np.abs(piece.point(fd.s[rows]) - fd.foot[rows]), initial=0.0) <= 1e-15 * scale
    # each foot's normal and kappa t t^T are the root formulas' at its piece and parameter
    for k, s, normal, kappa, (t0, t1) in zip(fd.piece.tolist(), fd.s.tolist(), fd.normal.tolist(),
                                             fd.shape.tolist(), fd.tangent.tolist()):
        assert chain.piece_normal(k, s) == normal
        assert chain.piece_shape(k, s) == [[kappa * (t0 * t0), kappa * (t0 * t1)],
                                           [kappa * (t0 * t1), kappa * (t1 * t1)]]
    dense = [piece.point(np.linspace(0.0, 1.0, 2049)) for piece in chain.pieces]
    spacing = max(float(np.max(np.linalg.norm(np.diff(d, axis=0), axis=1))) for d in dense)
    nearest = [(np.vstack(dense), fd.dist)]
    nearest += [(d, np.linalg.norm(X - piece.point(piece.project(X)), axis=1))
                for piece, d in zip(chain.pieces, dense) if piece.closed_form_projection]
    for samples, dist in nearest:
        gap = geometry.nearest_distances(X, samples) - dist
        assert np.min(gap) >= -1e-12
        assert np.max(gap) <= 0.5 * spacing * (1.0 + 1e-6) + 1e-12


@settings(max_examples=20)
@given(data=st.data())
def test_closest_batch_finds_the_nearest_point_of_drawn_chains(data):
    chain = _all_pieces_curve(data.draw).chain
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    _assert_feet_are_nearest(chain, _probe_points(chain, rng, 200))


def test_closest_batch_finds_the_nearest_point_of_fixed_chains(livshits_pair, crescent_focus_scene):
    base, deformed, _ = livshits_pair
    rng = np.random.default_rng(11)
    for scene in (base, deformed, crescent_focus_scene):
        chain = scene.obstacles[0].chain
        _assert_feet_are_nearest(chain, _probe_points(chain, rng, 400))


@pytest.mark.parametrize("kind", ["sphere2d", "sphere3d", "ellipsoid2d", "ellipsoid3d",
                                  "superellipsoid2d", "superellipsoid3d", "curve2d"])
@given(data=st.data())
def test_ray_roots_are_the_same_for_arrays_tuples_and_lists(kind, data):
    # every kind solves in floats: an array, a tuple or a list of the same
    # numbers gives the same bits, on a ray through a drawn point of the
    # bounding box, and on the parallel ray through the bounding centre,
    # which crosses every kind's (rotated) body
    obs = _obstacle(data.draw, kind)
    dim = obs.dim
    phi = data.draw(_angle)
    mu = data.draw(_unit) if dim == 3 else 0.0
    v = np.array([math.sqrt(1.0 - mu * mu) * math.cos(phi), math.sqrt(1.0 - mu * mu) * math.sin(phi),
                  mu][:dim])
    c, r = obs.center, obs.bounding_radius()
    offset = r * np.array([data.draw(_unit) for _ in range(dim)])
    hits = 0
    for q in (c + offset - 2.0 * r * v, c - 2.0 * r * v):
        ref = [float(t).hex() for t in obs.ray_roots(q, v)]
        for pair in ((tuple(q.tolist()), tuple(v.tolist())), (q.tolist(), v.tolist())):
            assert [float(t).hex() for t in obs.ray_roots(*pair)] == ref
        hits += len(ref)
    assert hits >= 2


def test_superellipsoid_ray_roots_miss_inside_the_bounding_sphere():
    # the line misses the body (|x| > 2) inside the bounding sphere but
    # crosses its box |u_i| <= 1, where the gauge is nearly flat along it: a
    # Newton step leaves the box's chord, which means a miss (from the
    # bounding sphere's chord, at p = 40, the next |y|^p once overflowed)
    obs = bl.SuperellipsoidObstacle([0.0, 0.0, 0.0], [2.0, 1.5, 1.0], 40.0)
    assert obs.ray_roots(np.array([-2.578125, -0.703125, 0.0]), np.array([0.0, 0.0, 1.0])) == []
    assert len(obs.ray_roots(np.array([-1.9, -0.703125, 0.0]), np.array([0.0, 0.0, 1.0]))) == 2


# -- the connectivity mask against the per-cell sign oracle -----------------------


def test_validate_scene_plugged_crescent():
    with pytest.raises(ValidationFailed) as excinfo:
        validate_scene(plugged_crescent_scene(0.01))
    assert excinfo.value.reason == "exterior_disconnected"
    assert validate_scene(plugged_crescent_scene(0.2)).exterior_connected is True


def _cell_centres(dim, a):
    """Cell-centre coordinates of the validation grid, (cells,), and the step."""
    cells = 400 if dim == 2 else 128
    step = 2.0 * a / cells
    return -a + (np.arange(cells) + 0.5) * step, step


def _per_cell_free(scene):
    """Reference mask: F > 0 at every cell centre inside the ball, one
    implicit value per cell."""
    axis, step = _cell_centres(scene.dimension, scene.ball_radius)
    grids = np.meshgrid(*[axis] * scene.dimension, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    free = np.sum(pts * pts, axis=1) < (scene.ball_radius - 0.5 * step) ** 2
    for obs in scene.obstacles:
        idx = np.flatnonzero(free)
        free[idx[~(obs.implicit_batch(pts[idx]) > 0.0)]] = False
    return free.reshape(grids[0].shape)


def _mask_scenes():
    base, _ = geometry.livshits_scene()
    deformed, _ = geometry.livshits_scene(deformation=0.5)
    rot2, rot3 = _rotation(2, [0.5]), _rotation(3, [0.3, 0.5, 0.7])
    return {
        "livshits-base": base,
        "livshits-deformed": deformed,
        "curve2d-all-pieces": bl.make_scene(
            2, A_BALL, [_all_pieces_chain(2.5, 1.5, 1.2, 0.4, 0.5, 0.7, [0.3, -0.2])], "all"),
        "plugged-0.01": plugged_crescent_scene(0.01),
        "plugged-0.2": plugged_crescent_scene(0.2),
        "two-disc": bl.make_scene(2, A_BALL, [bl.SphereObstacle([-3.0, 0.0], 1.0),
                                              bl.SphereObstacle([3.0, 0.0], 1.0)], "two-disc"),
        # the scan line x = 0.025 grazes the disc between two cell centres
        "grazed-disc": bl.make_scene(2, A_BALL, [bl.SphereObstacle([0.025 - 1.3, 0.0], 1.3)],
                                     "grazed"),
        "superellipse-ellipse": bl.make_scene(2, A_BALL, [
            bl.SuperellipsoidObstacle([-3.0, 1.0], [2.0, 1.2], 6.0, rot2),
            bl.EllipsoidObstacle([3.5, -1.0], [1.5, 0.8])], "super-2d"),
        "sphere": bl.make_scene(3, A_BALL, [bl.SphereObstacle([0.0, 0.0, 0.0], 1.0)], "sphere"),
        "sphere-ellipsoid": bl.make_scene(3, A_BALL, [
            bl.SphereObstacle([-3.0, 0.4, 0.0], 1.0),
            bl.EllipsoidObstacle([3.0, -0.4, 0.2], [1.5, 1.0, 0.8])], "sphere-ellipsoid"),
        "superellipsoid-3d": bl.make_scene(3, A_BALL, [
            bl.SuperellipsoidObstacle([0.2, -0.1, 0.3], [3.0, 2.5, 2.0], 6.0, rot3)], "super-3d"),
        "superellipsoid-3d-p40": bl.make_scene(3, A_BALL, [
            bl.SuperellipsoidObstacle([0.0, 0.0, 0.0], [2.0, 1.5, 1.0], 40.0)], "super-3d-p40"),
    }


@pytest.mark.parametrize("name", sorted(_mask_scenes()))
def test_free_cells_match_per_cell_signs(name):
    scene = _mask_scenes()[name]
    assert np.array_equal(geometry._free_cells(scene), _per_cell_free(scene))


@pytest.mark.parametrize("radius", [0.25, 0.5, 1.25, 2.5])
def test_free_cells_differ_from_per_cell_signs_only_on_the_boundary(radius):
    # a disc about a cell centre passes exactly through other cell centres (at
    # offsets such as (3, 4) cells), where a run's first cell can sit on its cut
    # and the sign of F there is rounding; only such cells may differ
    axis, _ = _cell_centres(2, A_BALL)
    disc = bl.SphereObstacle([axis[201], axis[190]], radius)
    scene = bl.make_scene(2, A_BALL, [disc], "grid-aligned")
    pts = np.column_stack([g.ravel() for g in np.meshgrid(axis, axis, indexing="ij")])
    F = disc.implicit_batch(pts).reshape(axis.size, axis.size)
    assert np.count_nonzero(np.abs(F) <= 1e-12) > 0  # the disc does hit cell centres
    differ = geometry._free_cells(scene) != _per_cell_free(scene)
    assert np.all(np.abs(F[differ]) <= 1e-12)


# -- face components on runs against scipy.ndimage.label -----------------------


@pytest.mark.parametrize("name", sorted(_mask_scenes()))
def test_face_components_match_ndimage_on_mask_scenes(name):
    from scipy import ndimage

    free = geometry._free_cells(_mask_scenes()[name])
    assert geometry._face_components(free) == ndimage.label(free)[1]


def _cells(shape, *cells):
    grid = np.zeros(shape, dtype=bool)
    for cell in cells:
        grid[cell] = True
    return grid


@pytest.mark.parametrize("grid, count", [
    (_cells((5, 7)), 0),
    (np.ones((5, 7), dtype=bool), 1),
    (np.ones((4, 3, 5), dtype=bool), 1),
    (np.indices((6, 5)).sum(axis=0) % 2 == 0, 15),  # a checkerboard: corners only
    (_cells((3, 3, 3), (0, 0, 0), (1, 1, 1)), 2),  # a shared corner
    (_cells((3, 3, 3), (0, 0, 0), (0, 1, 1)), 2),  # a shared edge
    (_cells((3, 3, 3), (0, 0, 0), (1, 0, 0)), 1),  # a shared face
    (_cells((3, 6), (0, 0), (0, 1), (0, 3), (0, 4), (1, 1), (1, 2), (1, 3)), 1),  # a bridge below
    (_cells((3, 6), (1, 0), (1, 1), (1, 3), (1, 4), (0, 1), (0, 2), (0, 3)), 1),  # a bridge above
], ids=["empty", "full-2d", "full-3d", "checkerboard", "corner-3d", "edge-3d", "face-3d",
        "bridge-below", "bridge-above"])
def test_face_components_examples(grid, count):
    from scipy import ndimage

    assert ndimage.label(grid)[1] == count
    assert geometry._face_components(grid) == count


@given(data=st.data())
def test_face_components_match_ndimage_on_drawn_grids(data):
    from scipy import ndimage

    shape = data.draw(st.one_of(st.tuples(st.integers(1, 12), st.integers(1, 12)),
                                st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))))
    grid = data.draw(hnp.arrays(bool, shape))
    assert geometry._face_components(grid) == ndimage.label(grid)[1]


# -- nearest_distances against a brute-force oracle ----------------------------


@pytest.mark.parametrize("single_target", [True, False], ids=["one-target", "many-targets"])
@given(data=st.data())
def test_nearest_distances_match_brute_force(single_target, data):
    dim = data.draw(st.integers(2, 6))
    scale = np.array([10.0 ** data.draw(st.integers(-6, 3)) for _ in range(dim)])

    def cloud(rows):
        return data.draw(hnp.arrays(float, (rows, dim), elements=st.floats(-1.0, 1.0))) * scale

    P = cloud(data.draw(st.integers(1, 30)))
    Q = cloud(1 if single_target else data.draw(st.integers(2, 30)))
    # duplicates: rows of Q repeated in P (zero distances), and repeated rows within Q
    P = np.vstack([P, Q[: data.draw(st.integers(0, Q.shape[0]))]])
    if not single_target:
        Q = np.vstack([Q, P[: data.draw(st.integers(0, 3))], Q[:1]])
        if data.draw(st.booleans(), label="pairs about 2^20"):
            # seeded rows: P gets one row fewer than, as many as or one more than
            # 2^20 pairs with Q allow, many blocks of BLOCK_PAIRS pairs
            rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
            Q = np.vstack([Q, rng.uniform(-1.0, 1.0, (1024, dim)) * scale])
            rows = (1 << 20) // len(Q) + data.draw(st.integers(-1, 1)) - len(P)
            P = np.vstack([P, rng.uniform(-1.0, 1.0, (rows, dim)) * scale])
    brute = np.concatenate([np.sqrt(np.min(np.sum((block[:, None, :] - Q[None, :, :]) ** 2,
                                                  axis=2), axis=1))
                            for block in np.array_split(P, -(-len(P) // 64))])
    np.testing.assert_array_equal(geometry.nearest_distances(P, Q), brute)


def test_import_loads_no_scipy():
    # scipy costs startup time and memory; only the helpers that need it import it
    proc = run_python("-c", "import sys, billiard_lens; "
                            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
