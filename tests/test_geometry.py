import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import billiard_lens as bl
from billiard_lens import geometry
from billiard_lens.curves import ArcPiece, BumpLinePiece, CurveChain, EllipseArcPiece, LinePiece
from billiard_lens.geometry import (
    InvalidParameters,
    SchemaError,
    SingularGradient,
    ValidationFailed,
    canonical_json,
    fnv1a64,
    implicit_value,
    scene_from_json,
    scene_hash,
    scene_to_json,
    surface_frame,
    validate_scene,
)
from billiard_lens.rng import Xoshiro256StarStar

from conftest import A_BALL


def test_implicit_value_sphere_examples():
    s = bl.SphereObstacle([0.0, 0.0, 0.0], 1.0)
    assert implicit_value(s, [2.0, 0.0, 0.0]) == pytest.approx(3.0)
    assert implicit_value(s, [1.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert implicit_value(s, [0.0, 0.0, 0.0]) == pytest.approx(-1.0)


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
            frame = obs.frame_at(p)
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
            frame = obs.frame_at(p)
            h = 1e-5 * max(1.0, obs.bounding_radius())
            for col in range(frame.tangent.shape[1]):
                t_dir = frame.tangent[:, col]
                xp = _project_to_boundary(obs, p + h * t_dir)
                xm = _project_to_boundary(obs, p - h * t_dir)
                dn = (obs.frame_at(xp).normal - obs.frame_at(xm).normal) / (2.0 * h)
                expected = frame.tangent @ frame.shape[:, col]
                scale = max(np.linalg.norm(expected), 1e-6)
                assert np.linalg.norm(dn - expected) / scale < 1e-4


def test_validate_scene_two_spheres_gap():
    scene = bl.make_scene(
        3, 10.0,
        [bl.SphereObstacle([-3.0, 0, 0], 1.0), bl.SphereObstacle([3.0, 0, 0], 1.0)],
        "gap",
    )
    report = validate_scene(scene, connectivity=False)
    assert report.pairwise_gap_min == pytest.approx(4.0, abs=0.02)


def test_validate_scene_containment_failure():
    scene = bl.make_scene(3, 10.0, [bl.SphereObstacle([0, 0, 0], 11.0)], "too-big")
    with pytest.raises(ValidationFailed) as err:
        validate_scene(scene, connectivity=False)
    assert err.value.reason == "containment"


def test_validate_scene_overlap_failure():
    scene = bl.make_scene(
        2, 10.0,
        [bl.SphereObstacle([0.0, 0.0], 1.0), bl.SphereObstacle([1.5, 0.0], 1.0)],
        "overlap",
    )
    with pytest.raises(ValidationFailed) as err:
        validate_scene(scene, connectivity=False)
    assert err.value.reason == "overlap"


def test_validate_scene_zero_radius_failure():
    scene = bl.make_scene(2, 10.0, [bl.SphereObstacle([0.0, 0.0], 0.0)], "degenerate")
    with pytest.raises(ValidationFailed):
        validate_scene(scene, connectivity=False)


def test_validate_scene_superellipsoid_flatness_flag():
    scene = bl.make_scene(
        3, 10.0, [bl.SuperellipsoidObstacle([0, 0, 0], [1.5, 1.2, 1.0], 8.0)], "boxy"
    )
    report = validate_scene(scene, connectivity=False)
    assert report.flatness_flag
    assert not report.flagged_nonconvex


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


def eval_scene_dict(scene):
    return json.loads(scene_to_json(scene))


def test_canonical_json_floats():
    assert canonical_json({"a": 0.1}) == '"a":0.10000000000000001'.join(["{", "}"])
    assert canonical_json([1, True, None]) == "[1,true,null]"


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


def _rotation(dim, angles):
    c = [math.cos(x) for x in angles]
    s = [math.sin(x) for x in angles]
    if dim == 2:
        return [c[0], -s[0], s[0], c[0]]
    rz0 = np.array([[c[0], -s[0], 0.0], [s[0], c[0], 0.0], [0.0, 0.0, 1.0]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, c[1], -s[1]], [0.0, s[1], c[1]]])
    rz2 = np.array([[c[2], -s[2], 0.0], [s[2], c[2], 0.0], [0.0, 0.0, 1.0]])
    return list((rz0 @ rx @ rz2).ravel())


def _all_pieces_curve(draw):
    """Rotated closed chain using every piece kind: an upper half-ellipse, two
    straight sides, two rounded corners and a bumped bottom edge."""
    a, b, h = draw(st.floats(1.0, 3.0)), draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    r = draw(st.floats(0.1, 0.45)) * min(a, h)
    amp = draw(st.floats(0.05, 0.8)) * h * draw(st.sampled_from([-1.0, 1.0]))
    rho = draw(_angle)
    c = np.array([draw(_unit), draw(_unit)])
    rot = np.array(_rotation(2, [rho])).reshape(2, 2)

    def at(x, y):
        return c + rot @ np.array([x, y])

    return bl.CurveObstacle([
        EllipseArcPiece(c, (a, b), 0.0, math.pi, rotation=rho),
        LinePiece(at(-a, 0.0), at(-a, -h)),
        ArcPiece(at(-a + r, -h), r, math.pi + rho, 1.5 * math.pi + rho),
        BumpLinePiece(at(-a + r, -h - r), at(a - r, -h - r), amp, rot @ np.array([0.0, 1.0])),
        ArcPiece(at(a - r, -h), r, -0.5 * math.pi + rho, rho),
        LinePiece(at(a, -h), at(a, 0.0)),
    ])


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
        q = obs.bounding_center() + np.array([1.2 * r * data.draw(_unit) for _ in range(dim)])
    roots = obs.ray_roots(q, v)
    assert roots == sorted(roots)
    for t in roots:
        f, grad = obs.implicit_grad(q + t * v)
        assert abs(f) / np.linalg.norm(grad) <= 1e-12 * A_BALL
    # every sign change on a dense grid over the bounding chord is bracketed by a root
    b = float((q - obs.bounding_center()) @ v)
    ts = np.linspace(-b - 1.1 * r, -b + 1.1 * r, 4001)
    inside = obs.implicit_batch(q[None, :] + ts[:, None] * v[None, :]) <= 0.0
    slack = 1e-9 * A_BALL
    for k in np.where(inside[:-1] != inside[1:])[0]:
        assert any(ts[k] - slack <= t <= ts[k + 1] + slack for t in roots)
