import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import billiard_lens as bl
from billiard_lens import flow, geometry, variation
from billiard_lens.curves import ArcPiece, BumpLinePiece, EllipseArcPiece, LinePiece

A_BALL = 10.0

# the same examples on every run, no flaky deadlines, bounded time
settings.register_profile("billiard-lens", derandomize=True, deadline=None, max_examples=40,
                          database=None)
settings.load_profile("billiard-lens")


@pytest.fixture(scope="session")
def empty2():
    return bl.make_scene(2, A_BALL, [], "empty-2d")


@pytest.fixture(scope="session")
def empty3():
    return bl.make_scene(3, A_BALL, [], "empty-3d")


@pytest.fixture(scope="session")
def disc_scene():
    return bl.make_scene(2, A_BALL, [bl.SphereObstacle([0.0, 0.0], 1.0)], "one-disc")


@pytest.fixture(scope="session")
def sphere_scene():
    return bl.make_scene(3, A_BALL, [bl.SphereObstacle([0.0, 0.0, 0.0], 1.0)], "one-sphere")


@pytest.fixture(scope="session")
def two_disc_scene():
    return bl.make_scene(
        2,
        A_BALL,
        [bl.SphereObstacle([-3.0, 0.0], 1.0), bl.SphereObstacle([3.0, 0.0], 1.0)],
        "two-disc",
    )


@pytest.fixture(scope="session")
def disc_ellipse_scene():
    return bl.make_scene(
        2,
        A_BALL,
        [bl.SphereObstacle([-3.0, 0.5], 1.0), bl.EllipsoidObstacle([3.0, -0.5], [1.6, 0.9])],
        "disc-ellipse",
    )


@pytest.fixture(scope="session")
def sphere_ellipsoid_scene():
    return bl.make_scene(
        3,
        A_BALL,
        [
            bl.SphereObstacle([-3.0, 0.4, 0.0], 1.0),
            bl.EllipsoidObstacle([3.0, -0.4, 0.2], [1.5, 1.0, 0.8]),
        ],
        "sphere-ellipsoid",
    )


@pytest.fixture(scope="session")
def livshits_pair():
    base, foci = geometry.livshits_scene()
    deformed, _ = geometry.livshits_scene(deformation=0.5)
    return base, deformed, foci


@pytest.fixture(scope="session")
def crescent_focus_scene():
    # concave arc whose centre of curvature sits exactly on the boundary sphere
    mirror = geometry.concave_mirror_obstacle([-A_BALL, 0.0], 3.0, 0.5, 0.6, [1.0, 0.0])
    return bl.make_scene(2, A_BALL, [mirror], "crescent-focus")


@pytest.fixture(scope="session")
def conjugate_fixture_scene():
    # disc reflection point doubling as the centre of curvature of the mirror
    disc = bl.SphereObstacle([0.0, 0.0], 1.0)
    x1 = np.array([0.0, 1.0])
    v2 = np.array([2**-0.5, 2**-0.5])
    mirror = geometry.concave_mirror_obstacle(x1, 4.0, 0.45, 0.6, v2)
    return bl.make_scene(2, A_BALL, [disc, mirror], "conjugate-fixture")


def plugged_crescent_scene(gap):
    """A crescent mirror opening towards -x and a disc about (-1, 0) whose edge
    passes `gap` from both end caps of the mirror (caps of radius 0.25 about
    2.25 (cos 1.5, +-sin 1.5)): below one grid cell the cavity is closed."""
    mirror = geometry.concave_mirror_obstacle([0.0, 0.0], 2.0, 1.5, 0.5, [1.0, 0.0])
    cap = 2.25 * np.array([np.cos(1.5), np.sin(1.5)])
    radius = float(np.linalg.norm(cap - [-1.0, 0.0])) - 0.25 - gap
    disc = bl.SphereObstacle([-1.0, 0.0], radius)
    return bl.make_scene(2, A_BALL, [mirror, disc], f"plugged-crescent-{gap:g}")


def _rotation(dim, angles):
    """Row-major entries of the rotation by one angle (2D) or by z-x-z Euler
    angles (3D)."""
    c = [math.cos(x) for x in angles]
    s = [math.sin(x) for x in angles]
    if dim == 2:
        return [c[0], -s[0], s[0], c[0]]
    rz0 = np.array([[c[0], -s[0], 0.0], [s[0], c[0], 0.0], [0.0, 0.0, 1.0]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, c[1], -s[1]], [0.0, s[1], c[1]]])
    rz2 = np.array([[c[2], -s[2], 0.0], [s[2], c[2], 0.0], [0.0, 0.0, 1.0]])
    return list((rz0 @ rx @ rz2).ravel())


def _all_pieces_chain(a, b, h, r, amp, rho, c, bump_direction=(0.0, 1.0)):
    """Rotated closed chain using every piece kind: an upper half-ellipse of
    semi-axes (a, b) about c, straight sides of height h, corners of radius r
    and a bottom edge with a bump of amplitude amp along bump_direction, all
    turned by rho."""
    c = np.asarray(c, dtype=float)
    rot = np.array(_rotation(2, [rho])).reshape(2, 2)

    def at(x, y):
        return c + rot @ np.array([x, y])

    return bl.CurveObstacle([
        EllipseArcPiece(c, (a, b), 0.0, math.pi, rotation=rho),
        LinePiece(at(-a, 0.0), at(-a, -h)),
        ArcPiece(at(-a + r, -h), r, math.pi + rho, 1.5 * math.pi + rho),
        BumpLinePiece(at(-a + r, -h - r), at(a - r, -h - r), amp, rot @ np.asarray(bump_direction)),
        ArcPiece(at(a - r, -h), r, -0.5 * math.pi + rho, rho),
        LinePiece(at(a, -h), at(a, 0.0)),
    ])


def _all_pieces_curve(draw, bump_direction=(0.0, 1.0)):
    """`_all_pieces_chain` with drawn proportions, turn and centre (within the
    unit square), for a hypothesis `data.draw`."""
    a, b, h = draw(st.floats(1.0, 3.0)), draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    r = draw(st.floats(0.1, 0.45)) * min(a, h)
    amp = draw(st.floats(0.05, 0.8)) * h * draw(st.sampled_from([-1.0, 1.0]))
    rho = draw(st.floats(-math.pi, math.pi))
    c = [draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))]
    return _all_pieces_chain(a, b, h, r, amp, rho, c, bump_direction)


def _drawn_pair(draw, kind, dim, rotated=True):
    """Two obstacles of one kind, left and right of the ball centre, with
    drawn sizes, turns (none unless `rotated`), exponent and jittered
    centres."""
    obstacles = []
    for side in (-1.0, 1.0):
        center = [side * 3.0 + draw(st.floats(-0.5, 0.5))] + [draw(st.floats(-1.0, 1.0))
                                                              for _ in range(dim - 1)]
        axes = [draw(st.floats(0.5, 2.0)) for _ in range(dim)]
        rotation = _rotation(dim, [draw(st.floats(-math.pi, math.pi))
                                   for _ in range(1 if dim == 2 else 3)]) if rotated else None
        if kind == "sphere":
            obstacles.append(bl.SphereObstacle(center, axes[0]))
        elif kind == "ellipsoid":
            obstacles.append(bl.EllipsoidObstacle(center, axes, rotation))
        else:
            obstacles.append(bl.SuperellipsoidObstacle(center, axes, draw(st.floats(4.0, 10.0)),
                                                       rotation))
    return bl.make_scene(dim, A_BALL, obstacles, f"{kind}-pair")


class FaintSphere(bl.SphereObstacle):
    """A sphere whose gradient is scaled by `scale`: the same boundary, a
    weaker |grad F|. Its per-point gradient is scaled, so every view sees
    it: the tracer's normal, the local query and `gradient`."""

    def __init__(self, center, radius, scale):
        super().__init__(center, radius)
        self.scale = scale

    def _gradient(self, x):
        return [self.scale * g for g in super()._gradient(x)]


def _subclasses(cls):
    return [c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))]


# a class of each kind of numeric failure: every NumericFailure, and an ArithmeticError
NUMERIC_FAILURES = [*_subclasses(geometry.NumericFailure), OverflowError]


def fail_rays_that_reflect(monkeypatch, failure):
    """Stub `flow.trace_phase` so that every ray that meets an obstacle raises
    `failure("stub failure")` and every other ray is traced as before: a source
    of per-ray numeric failures on any scene (the real tracer reads a
    RootPolishFailed in its loop as a boundary penetration)."""
    trace_phase = flow.trace_phase

    def failing(scene, q, v, limits=None):
        traj = trace_phase(scene, q, v, limits)
        if traj.events:
            raise failure("stub failure")
        return traj

    monkeypatch.setattr(flow, "trace_phase", failing)


def entry_through(point, direction, a=A_BALL):
    """Entry phase point on the sphere whose ray passes through `point` with
    the given direction."""
    v = np.asarray(direction, dtype=float)
    v = v / np.linalg.norm(v)
    p = np.asarray(point, dtype=float)
    b = float(p @ v)
    t_back = b + np.sqrt(b * b - (float(p @ p) - a * a))
    q = p - t_back * v
    return bl.PhasePoint(q, v)


def walk_to(scene, trajectory, frame, t_prev, t, first=0):
    """`frame`, at time t_prev on the ray into event `first`, carried by the
    Jacobi walk through that event and the later ones before time t."""
    events = trajectory.events
    *_, last = variation._walk(events, variation._incidences(scene, events), frame, first, t_prev, t)
    return last


def seed_pair_frames(scene, trajectory, t):
    """The frames of `flow_differentials`' two seeds, (A, B) = (0, I) and
    (I, 0), walked to time t side by side as it walks them, then split."""
    m = trajectory.entry.v.shape[0] - 1
    eye, zero = np.eye(m), np.zeros((m, m))
    seeds = variation.seed_frame(trajectory.entry.v, np.hstack([zero, eye]), np.hstack([eye, zero]))
    frame = walk_to(scene, trajectory, seeds, 0.0, t)
    return [variation.JacobiFrame([row[k:k + m] for row in frame.a], [row[k:k + m] for row in frame.b],
                                  frame.e) for k in (0, m)]


def cross_basis(n):
    """Tangent basis of one normal by np.cross and a norm whose squares are
    added left to right: the reference for `geometry.tangent_basis`."""
    if n.shape[0] == 2:
        return np.array([[-n[1]], [n[0]]])
    h = np.zeros(3)
    h[int(np.argmin(np.abs(n)))] = 1.0
    e1 = np.cross(h, n)
    e1 = e1 / math.sqrt(e1[0] * e1[0] + e1[1] * e1[1] + e1[2] * e1[2])
    return np.column_stack([e1, np.cross(n, e1)])


def _python_env() -> dict:
    """The environment of a fresh interpreter that imports this source tree
    and, as the tests themselves do, turns a RuntimeWarning into an error."""
    src = str(Path(bl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error::RuntimeWarning"}


def run_python(*args, text=True):
    """Run a fresh interpreter on this source tree; returns the CompletedProcess,
    whose output is text, or bytes if not `text`."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=text,
                          env=_python_env())


def popen_python(*args, cwd=None, env=None):
    """Start a fresh interpreter on this source tree in the directory `cwd`,
    with the variables `env` added to its environment, its stdout and stderr
    piped (bytes); returns the Popen."""
    return subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=cwd, env={**_python_env(), **(env or {})})
