"""Golden digests: the bits of lens, trapped, compare and Jacobi outputs, pinned.

Each case is computed from inputs built with +, -, *, / and sqrt only, or
from a scene file written in the run's own directory and named by a relative
path, so that a file's bytes (its header holds the invocation) do not depend
on where the test runs.

- The block digests of the sphere-ellipsoid and disc-ellipse fixtures are
  platform-exact: the tracer and the Jacobi layer add in a fixed order on
  floats, with +, -, *, / and sqrt only on spheres and ellipsoids, so
  neither a BLAS nor a math library enters their bits. The block digest of
  the rotated superellipsoid of `_scenes` takes the math library's pow as
  well, as the CLI outputs below do.
- The `regularity` and `conjugate` files of the refocusing fixture are
  host-exact: its mirror is built with the math library's atan2, cos and
  sin, and the normal and curvature at each root on it come from its arc
  pieces' formulas, which call numpy's cos and sin on one parameter, whose
  last bits may differ between platforms.
- The CLI outputs of `CLI_PINS` are platform-exact: their bits do not
  depend on the BLAS kernel or the numpy SIMD target the CPU selects
  (`test_kernels.py` builds them under two of each), `validate`'s reports
  included. They do take the math library's cos, sin, atan2 and pow (the
  sampler, the curve solvers, the superellipsoid, `validate`'s boundary
  samples, whose cos and sin are numpy's float64 loops), so a math library
  that rounds those differently moves them.

The CI matrix runs these on Python 3.10, 3.11 (where the pins were taken)
and 3.12, on either side of 3.12's change to the builtin `sum`.
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
# the rotation of the unit quaternion (1, 2, 3, 4) / sqrt(30): entries k / 30,
# built without the math library
ROTATION = [k / 30 for k in (-20, 4, 22, 20, -10, 20, 10, 28, 4)]
# the intrinsic entry of a 58-event orbit of the Livshits base scene, from grid:90x60
LIVSHITS_ENTRY = "4.677482395344803,-0.49741883681838406"
# output file: (invocation, sha256), each run in the directory of the scene
# files of `write_scenes`
CLI_PINS = {
    "two.jsonl": (
        "lens --scene two-disc.json --spec grid:32x32 --out two.jsonl",
        "eb26fd9e3f0c38ab08f075e3b82e1621660b6cb2c72b61c4fbb9a731ca5acbc6"),
    "trapped.json": (
        "trapped --scene two-disc.json --spec grid:4x4,grid:8x8,grid:16x16 --out trapped.json",
        "f9bc8c35987615443c2ccee2b4a05b186df246c1dda3698e33b804697314f781"),
    "compare.json": (
        "compare --scene two.jsonl --scene-b two.jsonl --out compare.json",
        "d1e6cef3a77f1451ebe8868acb34a14e6ac5d52ffb19efcdaca3192d295cdd86"),
    "se.jsonl": (
        "lens --scene sphere-ellipsoid.json --spec mc:500 --seed 7 --out se.jsonl",
        "91be375afb45d9ad3645860b0be2e170bbede4cf3aa39587aa131149c1cf65d6"),
    "sup.csv": (
        "lens --scene superellipsoid.json --spec mc:500 --seed 7 --out sup.csv",
        "91a821278b2e628b1eb74450425409ce86ba49143b8d67290c29e475c956c18f"),
    "upright.csv": (
        "lens --scene upright.json --spec mc:500 --seed 7 --out upright.csv",
        "a78a23eada97fdb69a04cffa3b9cec73f11687f888eb68b576244e646bd46601"),
    "livshits.jsonl": (
        "lens --scene livshits.json --spec grid:16x12 --out livshits.jsonl",
        "14330fb6a393ab7d1ec37e723b3fcb986e328895587627ebc120600c95183b16"),
    "se-regularity.json": (
        "regularity --scene sphere-ellipsoid.json --entry=0,-10,0,3,9.6,0.2 --out se-regularity.json",
        "8cbfc4150c76a2ad5fe60771127d93834c6c3cefca7060ea1807066a111c9744"),
    "sup-regularity.json": (
        "regularity --scene superellipsoid.json --entry=-10,0,0,1,0.05,0.03 --out sup-regularity.json",
        "72f86839de954d9499e2c1a0cd7df99ebac30dabe49d6be92c2769ef03d676cb"),
    # an event keeps its root, which a trace file leaves out
    "livshits-trace.jsonl": (
        f"trace --scene livshits.json --entry={LIVSHITS_ENTRY} --out livshits-trace.jsonl",
        "639fa7d370ca9f51fecdd458125470ffc86978b23ac5764e22a254370e874d40"),
    "sup-trace.jsonl": (
        "trace --scene superellipsoid.json --entry=-10,0,0,1,0.05,0.03 --out sup-trace.jsonl",
        "24562b68d867caaa0661972a58b76b8eaa250800884ddcf5747c3c497c171267"),
    "livshits-sls.json": (
        "sls --scene livshits.json --omega 0,1 --theta=0,-1 --spec grid:128x1 --tol 0.3 "
        "--out livshits-sls.json",
        "efd395bdf112002b9b4089bd9dd50f723fab792474c8e12c296cdf75aecfc56a"),
    "two-disc-validate.json": (
        "validate --scene two-disc.json --out two-disc-validate.json",
        "a0506944d80f6cb5a26ccb57308e3622d600ab23c7c501df0e787db51f6563cf"),
    "sphere-ellipsoid-validate.json": (
        "validate --scene sphere-ellipsoid.json --out sphere-ellipsoid-validate.json",
        "157cdc8793410b9d31f4b02de2b3851da9a0435cb1450a6394310837fa613fcd"),
    "superellipsoid-validate.json": (
        "validate --scene superellipsoid.json --out superellipsoid-validate.json",
        "71e02264987487224d1b9710c92861ed71084bbb8267a6abbcf53ddca5400df1"),
    "upright-validate.json": (
        "validate --scene upright.json --out upright-validate.json",
        "889c9351fdecbb6efed19af7c7a848a912b383523b7fe6a46a64879fbfa13325"),
    "livshits-validate.json": (
        "validate --scene livshits.json --out livshits-validate.json",
        "01cf8d7cc7517633f934b57754c6e6af1dd862b83d928a996d4bec0c9a8dbbfe"),
    "livshits-regularity.json": (
        f"regularity --scene livshits.json --entry={LIVSHITS_ENTRY} --out livshits-regularity.json",
        "effdea7c775166bc1c037494e843f6452c9b2c017ac3170b3f0da1693c652723"),
    "livshits-conjugate.json": (
        f"conjugate --scene livshits.json --entry={LIVSHITS_ENTRY} --out livshits-conjugate.json",
        "de90d6e003f625a0196d0d50809c0e157bfa0344ae8e48d91b8c2150d88b900d"),
}
# scene fixture: (reach, sha256) of `_block_digest`
BLOCKS = {
    "sphere_ellipsoid_scene": (1.0, "b8165c52ae890b6e68f0febed4bc70af643a3f3c40ecc279c82feacd3d86a88c"),
    "disc_ellipse_scene": (1.0, "bf2ef254e23a48c4efc8fd32c5761a3af63ca1f4a255d5647a068009c0826d1d"),
    "superellipsoid_scene": (4.0, "92ff1052e78cafb4dce8006746a307019b9152b48fc3eae5c278771eb4949b56"),
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
    """Whether `point` lies outside an implicit obstacle: F > 0, on floats."""
    return obs._value([p - c for p, c in zip(point, obs.center.tolist())]) > 0.0


def _block_digest(scene, reach, orbits=30):
    """sha256 of the flow differentials at a time past the last reflection,
    and the regularity singular values, of the first `orbits` seeded rays
    through points within `reach` of an obstacle's centre in each coordinate
    that reflect transversally and exit."""
    gen = Xoshiro256StarStar(2024)
    h = hashlib.sha256()
    done = 0
    while done < orbits:
        obs = scene.obstacles[int(len(scene.obstacles) * gen.uniform())]
        point = [c + 2.0 * reach * gen.uniform() - reach for c in obs.center.tolist()]
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


@pytest.fixture(scope="module")
def superellipsoid_scene():
    """The rotated superellipsoid of `_scenes`."""
    return _scenes()["superellipsoid"]


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_jacobi_blocks_are_pinned(name, request):
    reach, pin = BLOCKS[name]
    assert _block_digest(request.getfixturevalue(name), reach) == pin


def test_regularity_and_conjugate_files_are_pinned(conjugate_fixture_scene, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("refocus.json").write_text(geometry.scene_to_json(conjugate_fixture_scene) + "\n")
    entry = entry_through([0.0, 1.0], [2**-0.5, -(2**-0.5)])
    entry = ",".join(repr(float(x)) for x in [*entry.q, *entry.v])
    for command, pin in REFOCUSING.items():
        out = f"{command}.json"
        assert cli.main([command, "--scene", "refocus.json", f"--entry={entry}", "--out", out]) == 0
        assert hashlib.sha256(Path(out).read_bytes()).hexdigest() == pin, command


def _scenes():
    """{name: scene} of two discs, a sphere and a rotated ellipsoid, a
    superellipsoid rotated and upright, and the Livshits base scene."""
    superellipsoid = lambda rotation: bl.SuperellipsoidObstacle([0.1, -0.2, 0.1], [3.0, 2.5, 2.0],
                                                                 6.0, rotation)
    return {
        "two-disc": bl.make_scene(2, A_BALL, [bl.SphereObstacle([-3.0, 0.0], 1.0),
                                              bl.SphereObstacle([3.0, 0.5], 1.2)], "two-disc"),
        "sphere-ellipsoid": bl.make_scene(3, A_BALL, [
            bl.SphereObstacle([-3.0, 0.4, 0.0], 1.0),
            bl.EllipsoidObstacle([3.0, -0.4, 0.2], [1.5, 1.0, 0.8], ROTATION)], "sphere-ellipsoid"),
        "superellipsoid": bl.make_scene(3, A_BALL, [superellipsoid(ROTATION)], "superellipsoid"),
        "upright": bl.make_scene(3, A_BALL, [superellipsoid(None)], "upright"),
        "livshits": geometry.livshits_scene()[0],
    }


def write_scenes(directory):
    """The scene files the invocations of `CLI_PINS` name, `_scenes`, in `directory`."""
    for name, scene in _scenes().items():
        (Path(directory) / f"{name}.json").write_text(geometry.scene_to_json(scene) + "\n")


def test_cli_outputs_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_scenes(tmp_path)
    digests = {}
    for out, (invocation, _) in CLI_PINS.items():
        assert cli.main(invocation.split()) == 0, invocation
        digests[out] = hashlib.sha256(Path(out).read_bytes()).hexdigest()
    assert digests == {out: pin for out, (_, pin) in CLI_PINS.items()}
