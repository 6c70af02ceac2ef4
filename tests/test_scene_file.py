"""The scene file: what the reader refuses (exit 2 with a message, never a
traceback), what it accepts, and the format itself, pinned by hash."""

import inspect
import json
import math

import pytest

import billiard_lens as bl
from billiard_lens import cli, curves, geometry
from billiard_lens.curves import EllipseArcPiece, piece_from_dict
from billiard_lens.geometry import scene_from_json, scene_hash

from conftest import _all_pieces_chain, _rotation

SPHERE = {"kind": "sphere", "center": [0.0, 0.0], "params": {"radius": 1.0}}
ELLIPSE = {"kind": "ellipsoid", "center": [1.0, 0.5], "params": {"semi_axes": [2.0, 1.0]}}
SUPER = {"kind": "superellipsoid", "center": [0.0, 0.0, 0.0],
         "params": {"semi_axes": [2.0, 1.5, 1.0], "exponent": 6.0}}
HALVES = [{"type": "arc", "center": [0.0, 0.0], "radius": 1.0, "theta0": t, "theta1": t + math.pi}
          for t in (0.0, math.pi)]
# a unit half disc on a square: a line, an arc, and a bump line closing it
ROUND_SQUARE = [{"type": "arc", "center": [0.0, 0.0], "radius": 1.0, "theta0": 0.0,
                 "theta1": math.pi},
                {"type": "line", "p0": [-1.0, 0.0], "p1": [-1.0, -1.0]},
                {"type": "arc", "center": [0.0, -1.0], "radius": 1.0, "theta0": math.pi,
                 "theta1": 2.0 * math.pi},
                {"type": "bump_line", "p0": [1.0, -1.0], "p1": [1.0, 0.0], "amplitude": 0.2,
                 "direction": [3.0, 0.5]}]


def _ellipse_halves(rotation):
    pieces = [{"type": "ellipse_arc", "center": [0.0, 0.0], "semi_axes": [2.0, 1.0], "theta0": t,
               "theta1": t + math.pi} for t in (0.0, math.pi)]
    return pieces if rotation is None else [{**p, "rotation": rotation} for p in pieces]


def _scene(obstacles, dimension=2, ball_radius=10.0, **extra):
    return {"dimension": dimension, "ball_radius": ball_radius, "obstacles": obstacles,
            "name": "s", **extra}


def _curve(pieces, **extra):
    return {"kind": "curve2d", "center": [0.0, 0.0], "params": {"pieces": pieces}, **extra}


def _replace(items, k, **changes):
    """`items` with entry k updated by `changes`, a key given None removed."""
    entry = {key: value for key, value in {**items[k], **changes}.items() if value is not None}
    return [*items[:k], entry, *items[k + 1:]]


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


# (id, scene, text the message must contain); json.dumps writes nan and inf
# as the NaN and Infinity that Python's JSON reader accepts
REFUSED = [
    # the wrong JSON shape or type
    ("piece-missing-key", _scene([_curve(_replace(HALVES, 1, radius=None))]),
     "lacks keys ['radius']"),
    ("piece-5", _scene([_curve([HALVES[0], 5])]), "curve piece must be an object"),
    ("obstacles-5", _scene(5), "obstacles must be a list"),
    ("pieces-5", _scene([_curve(5)]), "pieces must be a list"),
    ("center-5", _scene([{**SPHERE, "center": 5}]), "center"),
    ("center-null", _scene([{**SPHERE, "center": None}]), "center"),
    ("curve-center-5", _scene([{**_curve(HALVES), "center": 5}]),
     "obstacle 0: center must be a list, not int"),
    ("params-list", _scene([{**SPHERE, "params": ["radius"]}]), "params must be an object"),
    ("radius-null", _scene([{**SPHERE, "params": {"radius": None}}]), "radius must be a number"),
    ("arc-radius-null", _scene([_curve([HALVES[0], {**HALVES[1], "radius": None}])]),
     "obstacle 0: arc radius must be a number, not None"),
    ("ball-radius-null", _scene([SPHERE], ball_radius=None), "ball_radius must be a number"),
    ("kind-list", _scene([{**SPHERE, "kind": ["sphere"]}]), "unknown obstacle kind ['sphere']"),
    ("type-list", _scene([_curve(_replace(HALVES, 1, type=["line"]))]),
     "unknown curve piece type ['line']"),
    ("exponent-null", _scene([{**SUPER, "params": {**SUPER["params"], "exponent": None}}], 3),
     "exponent must be a number"),
    ("radius-text", _scene([{**SPHERE, "params": {"radius": "abc"}}]), "radius must be a number"),
    # strings and booleans where numbers are read, which a float conversion would take
    ("radius-string", _scene([{**SPHERE, "params": {"radius": "2"}}]),
     "obstacle 0: sphere radius must be a number, not '2'"),
    ("radius-true", _scene([{**SPHERE, "params": {"radius": True}}]),
     "sphere radius must be a number, not True"),
    ("ball-radius-string", _scene([SPHERE], ball_radius="10"),
     "ball_radius must be a number, not '10'"),
    ("name-5", {**_scene([SPHERE]), "name": 5}, "name must be a string, not 5"),
    ("center-true", _scene([{**SPHERE, "center": [0, True]}]),
     "obstacle 0: center must be a number, not True"),
    ("curve-center-true", _scene([{**_curve(HALVES), "center": [0, True]}]),
     "obstacle 0: center must be a number, not True"),
    ("semi-axis-string", _scene([{**ELLIPSE, "params": {"semi_axes": [2.0, "1"]}}]),
     "semi_axes must be a number, not '1'"),
    ("exponent-true", _scene([{**SUPER, "params": {**SUPER["params"], "exponent": True}}], 3),
     "superellipsoid exponent must be a number, not True"),
    ("rotation-false", _scene([{**ELLIPSE, "rotation": [1, False, 0, 1]}]),
     "rotation must be a number, not False"),
    ("arc-theta0-false", _scene([_curve(_replace(HALVES, 0, theta0=False))]),
     "obstacle 0: arc theta0 must be a number, not False"),
    ("line-point-string", _scene([_curve(_replace(ROUND_SQUARE, 1, p0=["-1", 0.0]))]),
     "line p0 must be a list of 2 numbers, not ['-1', 0.0]"),
    ("every-string-and-boolean", {**_scene([{**SPHERE, "center": [0, True],
                                             "params": {"radius": "2"}}], ball_radius="10"),
                                  "name": 5}, "error:"),
    # non-finite numbers
    ("radius-nan", _scene([{**SPHERE, "params": {"radius": math.nan}}]),
     "radius must be positive and finite"),
    ("radius-inf", _scene([{**SPHERE, "params": {"radius": math.inf}}]),
     "radius must be positive and finite"),
    ("center-nan", _scene([{**SPHERE, "center": [math.nan, 0.0]}]), "center must be finite"),
    ("center-inf", _scene([{**SPHERE, "center": [0.0, -math.inf]}]), "center must be finite"),
    ("semi-axis-null", _scene([{**ELLIPSE, "params": {"semi_axes": [1, None]}}]),
     "semi_axes must be positive and finite"),
    ("semi-axis-inf", _scene([{**ELLIPSE, "params": {"semi_axes": [1, math.inf]}}]),
     "semi_axes must be positive and finite"),
    ("exponent-nan", _scene([{**SUPER, "params": {**SUPER["params"], "exponent": math.nan}}], 3),
     "exponent must be positive and finite"),
    ("exponent-inf", _scene([{**SUPER, "params": {**SUPER["params"], "exponent": math.inf}}], 3),
     "exponent must be positive and finite"),
    ("ball-radius-inf", _scene([SPHERE], ball_radius=math.inf),
     "ball_radius must be positive and finite"),
    ("ball-radius-nan", _scene([SPHERE], ball_radius=math.nan),
     "ball_radius must be positive and finite"),
    ("rotation-nan", _scene([{**ELLIPSE, "rotation": [math.nan, 0.0, 0.0, 1.0]}]), "rotation"),
    ("arc-radius-nan", _scene([_curve(_replace(HALVES, 1, radius=math.nan))]),
     "curve piece 1 has a non-finite number"),
    ("arc-angle-inf", _scene([_curve(_replace(HALVES, 1, theta1=math.inf))]),
     "curve piece 1 has a non-finite number"),
    ("line-nan", _scene([_curve(_replace(ROUND_SQUARE, 1, p1=[math.nan, -1.0]))]),
     "curve piece 1 has a non-finite number"),
    ("bump-amplitude-inf", _scene([_curve(_replace(ROUND_SQUARE, 3, amplitude=math.inf))]),
     "curve piece 3 has a non-finite number"),
    ("bump-direction-nan", _scene([_curve(_replace(ROUND_SQUARE, 3, direction=[math.nan, 0.0]))]),
     "bump direction must be nonzero and finite"),
    ("ellipse-arc-rotation-nan", _scene([_curve(_ellipse_halves(math.nan))]),
     "curve piece 0 has a non-finite number"),
    ("ellipse-arc-rotation-inf", _scene([_curve(_ellipse_halves(math.inf))]),
     "obstacle 0: curve piece 0 has a non-finite number: ellipse_arc rotation = inf"),
    ("ellipse-arc-semi-axis-inf",
     _scene([_curve(_replace(_ellipse_halves(None), 0, semi_axes=[2.0, math.inf]))]),
     "curve piece 0 has a non-finite number"),
    # missing or unknown keys, and numbers out of range
    ("scene-unknown-key", _scene([SPHERE], oops=1), "scene has unknown keys ['oops']"),
    ("scene-missing-key", _without(_scene([SPHERE]), "name"), "scene lacks keys ['name']"),
    ("scene-list", [1, 2], "scene must be an object"),
    ("obstacle-5", _scene([5]), "obstacle must be an object"),
    ("obstacle-unknown-key", _scene([{**SPHERE, "colour": "red"}]),
     "obstacle has unknown keys ['colour']"),
    ("obstacle-missing-key", _scene([_without(SPHERE, "params")]),
     "obstacle lacks keys ['params']"),
    ("params-unknown-key", _scene([{**SPHERE, "params": {"radius": 1.0, "spin": 2}}]),
     "sphere params has unknown keys ['spin']"),
    ("params-missing-key", _scene([{**SUPER, "params": {"semi_axes": [1, 1, 1]}}], 3),
     "superellipsoid params lacks keys ['exponent']"),
    ("unknown-kind", _scene([{**SPHERE, "kind": "cube"}]), "unknown obstacle kind 'cube'"),
    ("dimension-4", _scene([], 4), "dimension must be 2 or 3"),
    ("sphere-rotation", _scene([{**SPHERE, "rotation": [1, 0, 0, 1]}]),
     "rotation is not supported for sphere"),
    ("curve-rotation", _scene([_curve(HALVES, rotation=[1, 0, 0, 1])]),
     "rotation is not supported for curve2d"),
    ("center-length", _scene([{**SPHERE, "center": [0, 0, 0]}]), "dimension"),
    ("curve-center-length", _scene([{**_curve(HALVES), "center": [0, 0, 0]}]),
     "center has wrong dimension"),
    ("curve-in-3d", _scene([_curve(HALVES)], 3), "dimension"),
    ("unknown-piece-type", _scene([_curve(_replace(HALVES, 1, type="spline"))]),
     "unknown curve piece type 'spline'"),
    ("piece-unknown-key", _scene([_curve(_replace(HALVES, 1, colour=1))]),
     "arc piece has unknown keys ['colour']"),
    ("radius-negative", _scene([{**SPHERE, "params": {"radius": -1.0}}]),
     "radius must be positive"),
    ("semi-axis-negative", _scene([{**ELLIPSE, "params": {"semi_axes": [2.0, -0.5]}}]),
     "semi_axes must be positive"),
    ("exponent-below-4", _scene([{**SUPER, "params": {**SUPER["params"], "exponent": 2.0}}], 3),
     "exponent must be >= 4"),
    ("rotation-not-orthonormal", _scene([{**ELLIPSE, "rotation": [1, 1, 0, 1]}]),
     "not orthonormal"),
    ("ball-radius-negative", _scene([SPHERE], ball_radius=-1.0), "ball_radius must be positive"),
    ("empty-chain", _scene([_curve([])]), "empty curve chain"),
    ("open-chain", _scene([_curve(HALVES[:1])]), "chain not closed"),
]


@pytest.mark.filterwarnings("error")  # a warning on the way would print before the message
@pytest.mark.parametrize("scene, message", [case[1:] for case in REFUSED],
                         ids=[case[0] for case in REFUSED])
def test_malformed_scene_exits_2(scene, message, tmp_path, capsys):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    assert cli.main(["validate", "--scene", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert message in err, err


# files the reader accepts, with the hash each loads to: null rotations, an
# ellipse arc's zero rotation, and integers where floats are meant
ACCEPTED = [
    ("sphere-rotation-null", _scene([{**SPHERE, "rotation": None}]), "ac988d7447497e9b"),
    ("sphere", _scene([SPHERE]), "ac988d7447497e9b"),
    ("curve-rotation-null", _scene([_curve(HALVES, rotation=None)]), "7f387942b37efa56"),
    ("ellipse-arc-rotation-0", _scene([_curve(_ellipse_halves(0))]), "5b4dc42bb20d5f6e"),
    ("ellipse-arc-rotation-absent", _scene([_curve(_ellipse_halves(None))]), "5b4dc42bb20d5f6e"),
    ("ellipse-arc-rotated", _scene([_curve(_ellipse_halves(0.3))]), "8c37fcc8c225f11c"),
    ("ellipsoid-rotation-null", _scene([{**ELLIPSE, "rotation": None}]), "06053597659114e7"),
    ("integers", _scene([{**SPHERE, "center": [1, -2], "params": {"radius": 1}}], ball_radius=10),
     "22f6fedebd91606f"),
    ("superellipsoid-integers", _scene([{"kind": "superellipsoid", "center": [0, 1],
                                         "params": {"semi_axes": [2, 1], "exponent": 4},
                                         "rotation": _rotation(2, [0.3])}]), "5de28ba58b5d564d"),
]


@pytest.mark.parametrize("scene, expected", [case[1:] for case in ACCEPTED],
                         ids=[case[0] for case in ACCEPTED])
def test_accepted_scene_files_keep_their_hash(scene, expected):
    assert scene_hash(scene_from_json(json.dumps(scene))) == expected


def test_negative_zero_keeps_its_sign_and_hash():
    text = ('{"dimension": 2, "ball_radius": 10, "name": "i", "obstacles": [{"kind": "sphere", '
            '"center": [-0, -0.0], "params": {"radius": 1}}]}')
    scene = scene_from_json(text)
    assert math.copysign(1.0, scene.obstacles[0].center[0]) == -1.0
    assert scene_hash(scene) == "10c54cf2d4d1f02b"
    # an ellipse arc's rotation of -0 is left out, as 0 is
    text = json.dumps(_scene([_curve(_ellipse_halves(0))]))
    assert scene_hash(scene_from_json(text.replace('"rotation": 0', '"rotation": -0'))) \
        == "5b4dc42bb20d5f6e"


def _pinned_scenes():
    """One fixed scene per obstacle kind (rotated where it can be) and one with
    every piece type; the curve's ellipse arc is rotated and its bump runs
    along a non-unit direction."""
    def one(obstacle, name):
        return bl.make_scene(obstacle.dim, 10.0, [obstacle], name)

    crescent = geometry.concave_mirror_obstacle([-1.0, 0.5], 3.0, 0.5, 0.6, [1.0, 0.2])
    return {
        "sphere-2d": one(bl.SphereObstacle([0.3, -0.2], 1.0), "sphere-2d"),
        "sphere-3d": one(bl.SphereObstacle([0.3, -0.2, 1.7], 2.5), "sphere-3d"),
        "ellipsoid-2d": one(bl.EllipsoidObstacle([1.0, 0.5], [2.0, 1.1]), "ellipsoid-2d"),
        "ellipsoid-2d-rotated": one(bl.EllipsoidObstacle([1.0, 0.5], [2.0, 1.1],
                                                         _rotation(2, [0.3])),
                                    "ellipsoid-2d-rotated"),
        "ellipsoid-3d-rotated": one(bl.EllipsoidObstacle([0.1, 0.2, -0.3], [1.5, 1.0, 0.8],
                                                         _rotation(3, [0.3, 0.7, -1.1])),
                                    "ellipsoid-3d-rotated"),
        "superellipsoid-3d": one(bl.SuperellipsoidObstacle([0.1, 0.0, -0.1], [3.0, 2.5, 2.0], 6.0),
                                 "superellipsoid-3d"),
        "superellipsoid-2d-rotated": one(bl.SuperellipsoidObstacle([0.5, -0.5], [2.0, 1.2], 4.5,
                                                                   _rotation(2, [-0.4])),
                                         "superellipsoid-2d-rotated"),
        "superellipsoid-3d-rotated": one(bl.SuperellipsoidObstacle([0.1, 0.0, -0.1],
                                                                   [3.0, 2.5, 2.0], 8.0,
                                                                   _rotation(3, [1.1, -0.2, 0.4])),
                                         "superellipsoid-3d-rotated"),
        "curve2d-every-piece": one(_all_pieces_chain(2.0, 1.0, 1.5, 0.3, 0.4, 0.25, [0.1, -0.2],
                                                     bump_direction=(0.5, 2.0)),
                                   "curve2d-every-piece"),
        "curve2d-crescent": one(crescent, "curve2d-crescent"),
    }


# scene_hash of each pinned scene: a change here is a change of the file format
PINNED = {
    "livshits": "6f519769e0eabfad",
    "livshits-deformed": "7b9e5b75a3b15a35",
    "sphere-2d": "0cbb3115602ae544",
    "sphere-3d": "4fa46b1d5628a6c6",
    "ellipsoid-2d": "5fb084c0dcbc57fc",
    "ellipsoid-2d-rotated": "5b15461b9b28ba2d",
    "ellipsoid-3d-rotated": "5d47febd734cf7b4",
    "superellipsoid-3d": "339beac4ce9676e7",
    "superellipsoid-2d-rotated": "ceacf2800927cfaa",
    "superellipsoid-3d-rotated": "f8a244ee619a0b78",
    "curve2d-every-piece": "daee08f152122a09",
    "curve2d-crescent": "bde988a64f0a689e",
}


def test_scene_file_format_is_pinned(tmp_path, capsys):
    # the round-trip property compares the writer only with itself; these
    # hashes hold the format itself, and each file reads back to its hash
    assert cli.main(["livshits", "--out", str(tmp_path / "liv")]) == 0
    meta = json.loads((tmp_path / "liv.meta.json").read_text())
    hashes = {"livshits": meta["base_hash"], "livshits-deformed": meta["deformed_hash"]}
    for kind in ("base", "deformed"):
        reread = scene_from_json((tmp_path / f"liv.{kind}.json").read_text())
        assert scene_hash(reread) == meta[f"{kind}_hash"]
    for name, scene in _pinned_scenes().items():
        hashes[name] = scene_hash(scene)
        assert scene_hash(scene_from_json(geometry.scene_to_json(scene))) == hashes[name]
    assert hashes == PINNED


def test_declared_keys_are_the_constructor_parameters():
    # each class declares its file keys once, and the reader calls the
    # constructor with them: they must be its parameters, in order
    for cls in geometry._OBSTACLE_KINDS.values():
        names = [n for n in inspect.signature(cls).parameters if n not in ("center", "rotation")]
        assert list(cls.params) == names, cls
    for cls in curves._PIECE_KINDS.values():
        assert list(cls.keys) == list(inspect.signature(cls).parameters), cls
    # a key with a constructor default is written only away from it
    arc = EllipseArcPiece([0.0, 0.0], [2.0, 1.0], 0.0, math.pi)
    assert "rotation" not in arc.to_dict()
    turned = EllipseArcPiece([0.0, 0.0], [2.0, 1.0], 0.0, math.pi, rotation=0.5)
    assert turned.to_dict() == {**arc.to_dict(), "rotation": 0.5}
    assert piece_from_dict(turned.to_dict()).to_dict() == turned.to_dict()
