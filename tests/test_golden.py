"""Golden digests: the bits of the Jacobi layer's outputs, pinned.

Each case is computed from inputs built with +, -, *, / and sqrt only, or
from a scene file written in the run's own directory and named by a relative
path, so that a file's bytes (its header holds the invocation) do not depend
on where the test runs.

- The block digests of the sphere-ellipsoid and disc-ellipse fixtures are
  platform-exact: the tracer and the Jacobi layer add in a fixed order on
  floats, and on bodies without a rotation the local query's matrix
  products only add exact zeros, so neither a BLAS nor a math library
  enters their bits.
- The `regularity` and `conjugate` files of the refocusing fixture are
  host-exact: its mirror is built with the math library's atan2, cos and
  sin, and its curve's closest-point query uses numpy's cos, sin and
  arctan2, whose last bits may differ between platforms.

The CI matrix runs these on two Python versions on either side of 3.12's
change to the builtin `sum`.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

import billiard_lens as bl
from billiard_lens import cli, flow, geometry, variation
from billiard_lens.rng import Xoshiro256StarStar

from conftest import A_BALL, entry_through

REFOCUSING = {
    "regularity": "dd4159eb46e2091374f841f50e71307d55c2578ef17c90674c6677e1aa44f864",
    "conjugate": "1e6b8caf864dbdf684f71facbee351a84cc637f130a0bd96c0165de2b4e15b11",
}
BLOCKS = {
    "sphere_ellipsoid_scene": "b8165c52ae890b6e68f0febed4bc70af643a3f3c40ecc279c82feacd3d86a88c",
    "disc_ellipse_scene": "bf2ef254e23a48c4efc8fd32c5761a3af63ca1f4a255d5647a068009c0826d1d",
}


def _dot(x, y):
    total = 0.0
    for xi, yi in zip(x, y):
        total += xi * yi
    return total


def _entry(point, direction, a=A_BALL):
    """The entry whose ray passes `point` along `direction`, by +, -, *, /
    and sqrt on floats, each sum left to right."""
    norm = math.sqrt(_dot(direction, direction))
    v = [d / norm for d in direction]
    b = _dot(point, v)
    t_back = b + math.sqrt(b * b - (_dot(point, point) - a * a))
    return bl.PhasePoint([p - t_back * vi for p, vi in zip(point, v)], v)


def _outside(obs, point):
    """Whether `point` lies outside a sphere or an ellipsoid without a
    rotation, on floats."""
    axes = obs.semi_axes.tolist() if obs.kind == "ellipsoid" else [obs.radius] * len(point)
    scaled = [(p - c) / a for p, c, a in zip(point, obs.center.tolist(), axes)]
    return _dot(scaled, scaled) > 1.0


def _block_digest(scene, orbits=30):
    """sha256 of the flow differentials at a time past the last reflection,
    and the regularity singular values, of the first `orbits` seeded rays
    through points near an obstacle that reflect transversally and exit."""
    gen = Xoshiro256StarStar(2024)
    h = hashlib.sha256()
    done = 0
    while done < orbits:
        obs = scene.obstacles[int(2.0 * gen.uniform())]
        point = [c + 2.0 * gen.uniform() - 1.0 for c in obs.center.tolist()]
        direction = [2.0 * gen.uniform() - 1.0 for _ in point]
        if _dot(direction, direction) < 1e-2 or not all(_outside(o, point) for o in scene.obstacles):
            continue
        entry = _entry(point, direction)
        traj = flow.trace(scene, entry)
        if traj.status != "exited" or not traj.events or any(ev.type != "transversal" for ev in traj.events):
            continue
        last = traj.events[-1].t
        t = last + 0.5 * (traj.total_time - last)
        reg = variation.regularity_test(scene, entry)
        for arr in (*variation.flow_differentials(scene, entry, t, traj),
                    reg.position_by_direction.singular_values, reg.direction_by_position.singular_values,
                    np.array([traj.total_time, t])):
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        done += 1
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_jacobi_blocks_are_pinned(name, request):
    assert _block_digest(request.getfixturevalue(name)) == BLOCKS[name]


def test_regularity_and_conjugate_files_are_pinned(conjugate_fixture_scene, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("refocus.json").write_text(geometry.scene_to_json(conjugate_fixture_scene) + "\n")
    entry = entry_through([0.0, 1.0], [2**-0.5, -(2**-0.5)])
    entry = ",".join(repr(float(x)) for x in [*entry.q, *entry.v])
    for command, pin in REFOCUSING.items():
        out = f"{command}.json"
        assert cli.main([command, "--scene", "refocus.json", f"--entry={entry}", "--out", out]) == 0
        assert hashlib.sha256(Path(out).read_bytes()).hexdigest() == pin, command
