import numpy as np
import pytest
from hypothesis import settings

import billiard_lens as bl
from billiard_lens import geometry

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
