"""Piecewise analytic closed curves in the plane.

A CurveChain is an ordered list of C^1-joined parametric pieces forming one
simple closed boundary. It answers closest-point queries (vectorised over the
query points), from which the owning obstacle derives a signed distance
field, boundary normals and the signed curvature seen from the free side.
Each piece projects points onto itself: segments, flat bumps and circular
arcs in closed form, ellipse arcs and curved bumps by safeguarded Newton, and
the chain keeps the nearest foot over its pieces. Its ray roots come from
the exact solvers of the pieces whose ball the line meets: each piece has a
ball about the box centre of its coarse samples, of its closed-form reach
plus its `overhang` past the ends, and a line that misses it by
`_line_misses_ball` is not solved against the piece. The roots carry the
piece and parameter of the crossing, so the normal and curvature there
need no closest-point query. The ray solvers work in plain float
arithmetic on (x, y) pairs: segments and arcs in closed form, a bump by
Newton's method safeguarded by the brackets between its closed-form
turning points (`_bracketed_root`). A piece writes its point and two
derivatives once each: at one parameter they run on floats by the math
library, as `piece_normal` and `piece_shape` take them, and at an array
of parameters on numpy, with the same bits. A closest point takes no
numpy kernel that the CPU picks: an arc maps the angle, by libm's atan2,
to its parameter as the ray solver does, and a foot's normal and
curvature are `piece_normal`'s and `piece_shape`'s formulas, bit for bit
(`_curve_frame`, `_free_curvature`).

The scene file's shape checks live here too, shared with `geometry`.
"""

from __future__ import annotations

import functools
import inspect
import math
import operator
from dataclasses import dataclass

import numpy as np

_COARSE = 33  # samples per piece for the coarse closest-point pass
_JOIN_OVERLAP = 1e-12  # pieces overlap by this much parameter at joins, so rounding drops no root


def _floats(x):
    """A point or direction as a sequence of Python floats: an array is
    converted once by `tolist`, a list or tuple is used as it is."""
    return x.tolist() if isinstance(x, np.ndarray) else x


def _dot(a, b):
    """<a, b> of two float pairs or triples, summed left to right."""
    if len(a) == 2:
        return a[0] * b[0] + a[1] * b[1]
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _inner(x, y):
    """<x, y> of two float sequences of any equal length, summed left to
    right; `_dot` is the same sum unrolled for pairs and triples."""
    return functools.reduce(operator.add, map(operator.mul, x, y))


def _sub(a, b):
    """a - b of two float pairs or triples, as a list."""
    if len(a) == 2:
        return [a[0] - b[0], a[1] - b[1]]
    return [a[0] - b[0], a[1] - b[1], a[2] - b[2]]


def _axpy(q, t, v):
    """q + t v of two float pairs or triples, as a list."""
    if len(q) == 2:
        return [q[0] + t * v[0], q[1] + t * v[1]]
    return [q[0] + t * v[0], q[1] + t * v[1], q[2] + t * v[2]]


def _line_misses_ball(q, v, vv, c, reach2):
    """Whether the line q + t v misses the ball of squared radius reach2
    about c (float pairs or triples; vv = <v, v>, v need not be a unit
    vector): with d = q - c, the line's squared distance from c,
    dd - b^2 / vv (b = <d, v>, dd = <d, d>), is at least reach2 + 2^-48 dd.
    The two sides carry rounding of under 20 * 2^-53 dd together: the
    margin (16 to 32 ulps of dd) keeps every line that meets the ball. The
    sums are `_sub` and `_dot`'s, written out: the test runs once per
    obstacle and curve piece a segment could meet, or on q's columns."""
    if len(q) == 2:
        dx, dy = q[0] - c[0], q[1] - c[1]
        b, dd = dx * v[0] + dy * v[1], dx * dx + dy * dy
    else:
        dx, dy, dz = q[0] - c[0], q[1] - c[1], q[2] - c[2]
        b, dd = dx * v[0] + dy * v[1] + dz * v[2], dx * dx + dy * dy + dz * dz
    return dd - b * b / vv >= reach2 + dd * 2.0**-48


def _stable_quadratic(a: float, b: float, c: float):
    """Real roots of a t^2 + b t + c, numerically stable; [] if none."""
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    if b >= 0.0:
        qq = -0.5 * (b + sq)
    else:
        qq = -0.5 * (b - sq)
    roots = []
    if a != 0.0:
        roots.append(qq / a)
    if qq != 0.0:
        roots.append(c / qq)
    elif a != 0.0:
        roots.append(0.0)
    return sorted(roots)


def _bracketed_root(g, slope, a, b, g_a, g_b):
    """The root in [a, b] of g, monotone there, given g_a = g(a) and
    g_b = g(b) of opposite signs or one of them 0, and g's derivative
    `slope`. Newton's method from the chord's root, safeguarded by the
    bracket (rtsafe; Press et al., Numerical Recipes, 3rd ed., 9.4): a step
    that would leave the bracket, or that is more than half the step before
    last, bisects it instead. It stops at a Newton step of at most 1e-15,
    which a Newton fixed point is, or, as bisection does, at a bracket of at
    most 1e-15; a linear g takes one step. A NaN ends it."""
    if g_a == 0.0 or g_b == 0.0:
        return a if g_a == 0.0 else b
    neg, pos = (a, b) if g_a < 0.0 else (b, a)  # the bracket's ends where g < 0 and g > 0
    s = a + (b - a) * (g_a / (g_a - g_b))
    step = last = abs(b - a)
    while abs(pos - neg) > 1e-15:
        f, df = g(s), slope(s)
        if f == 0.0:
            break
        if f < 0.0:
            neg = s
        else:
            pos = s
        newton = f / df if df else math.inf  # no slope: a bisection
        if abs(2.0 * newton) > abs(last) or not min(neg, pos) <= s - newton <= max(neg, pos):
            last, step = step, 0.5 * (pos - neg)
            s = neg + step
        else:
            last, step = step, newton
            s -= step
            if abs(step) <= 1e-15:
                break
    return s


def _circle_roots(px, py, wx, wy, radius, theta0, sweep):
    """(t, s) pairs where (px, py) + t (wx, wy) meets the arc of the circle of
    given radius about the origin from angle theta0 through sweep: the ray
    parameter and the arc parameter, the angle's fraction of the sweep. The
    quadratic is solved about the ray point nearest the centre, so a small arc
    far from p keeps its precision."""
    ww = wx * wx + wy * wy
    t0 = -(px * wx + py * wy) / ww
    px, py = px + t0 * wx, py + t0 * wy
    mid, half = theta0 + 0.5 * sweep, 0.5 * abs(sweep) + _JOIN_OVERLAP
    roots = []
    for t in _stable_quadratic(ww, 2.0 * (px * wx + py * wy), px * px + py * py - radius * radius):
        off = _angle_offset(math.atan2(py + t * wy, px + t * wx), mid)
        if abs(off) <= half:
            roots.append((t0 + t, 0.5 + off / sweep))
    return roots


def _angle_offset(angle, mid):
    # angle - mid reduced to [-pi, pi), on floats or elementwise on an array
    return (angle - mid + math.pi) % (2.0 * math.pi) - math.pi


def _sin(x):
    # sin of a float by libm, or of an array elementwise by numpy, whose float64
    # loop test_curves finds bit-equal to libm on its draws (on the build it runs)
    return np.sin(x) if isinstance(x, np.ndarray) else math.sin(x)


def _cos(x):
    # cos, as `_sin`
    return np.cos(x) if isinstance(x, np.ndarray) else math.cos(x)


def _curve_frame(orientation, g):
    """(|g|^2, |g|, the unit tangent t = g / |g|, the normal into the free side
    orientation * rot90(t)) of a piece's derivative g = (gx, gy), floats or
    arrays alike."""
    gx, gy = g
    gg = gx * gx + gy * gy
    speed = np.sqrt(gg) if isinstance(gg, np.ndarray) else math.sqrt(gg)
    tx, ty = gx / speed, gy / speed
    return gg, speed, (tx, ty), [-orientation * ty, orientation * tx]


def _free_curvature(orientation, g1, g2, gg, speed):
    """-orientation (g1 x g2) / |g1|^3, the curvature seen from the free side,
    of a piece's derivatives g1 and g2 (gg, speed: `_curve_frame`'s of g1)."""
    return -orientation * (g1[0] * g2[1] - g1[1] * g2[0]) / (gg * speed)


def _vector(s, x, y):
    """The vector of components x and y that a piece gives at parameter s:
    a list of two floats at a float s, and at an array s an array of shape
    s.shape + (2,), each component broadcast to s's shape."""
    if not isinstance(s, np.ndarray):
        return [x, y]
    out = np.empty(s.shape + (2,))
    out[..., 0], out[..., 1] = x, y
    return out


def _speed(piece, s):
    g = piece.deriv(s)  # |g'(s)| at a float s, its squares added left to right
    return math.sqrt(_dot(g, g))


def _nonzero_chord(p0, p1):
    # a zero-length segment has no tangent to join or project onto
    if np.array_equal(p0, p1):
        raise ValueError("segment endpoints must differ")
    return p1 - p0


def _segment_parameter(X, p0, d, dd):
    """Parameter of the point of the segment p0 + s d, s in [0, 1], nearest
    each row of X, where dd = <d, d>."""
    return np.clip(np.sum((X - p0) * d, axis=-1) / dd, 0.0, 1.0)


class SchemaError(ValueError):
    """Scene JSON does not match the expected schema."""


def check_object(value, what: str, required=None, optional=()) -> dict:
    """`value` if it is a JSON object and, unless `required` is None, its keys
    are all of `required` and any of `optional`; SchemaError otherwise."""
    if not isinstance(value, dict):
        raise SchemaError(f"{what} must be an object, not {type(value).__name__}")
    if required is None:
        return value
    missing, unknown = set(required) - set(value), set(value) - set(required) - set(optional)
    problems = [f"{verb} keys {sorted(keys)}"
                for verb, keys in (("lacks", missing), ("has unknown", unknown)) if keys]
    if problems:
        raise SchemaError(f"{what} " + " and ".join(problems))
    return value


def check_list(value, what: str) -> list:
    """`value` if it is a JSON list; SchemaError otherwise."""
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a list, not {type(value).__name__}")
    return value


def check_numeric(value, what: str):
    """`value` unless it is, or a list, tuple or array holds, a string or a
    boolean, which float() reads as a number; SchemaError naming `what`."""
    x = value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value
    if isinstance(x, (list, tuple)):
        for item in x:
            check_numeric(item, what)
    elif isinstance(x, (str, bool)):
        raise SchemaError(f"{what} must be a number, not {x!r}")
    return value


def class_of_kind(table: dict, kind, what: str):
    """The class that `table` maps the name `kind` to; SchemaError if none."""
    cls = table.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SchemaError(f"unknown {what} {kind!r}")
    return cls


@functools.cache  # per class: a scene file reads and writes many pieces
def _defaults(cls) -> dict:
    """The constructor parameters of `cls` that have a default, with it."""
    return {name: p.default for name, p in inspect.signature(cls).parameters.items()
            if p.default is not p.empty}


def _number(name: str, value) -> float:
    """A piece's number as a float; ValueError naming it otherwise. A
    non-finite number is refused by CurveChain, with the others."""
    try:
        return float(check_numeric(value, name))
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a number, not {value!r}") from None


def _pair(name: str, value) -> np.ndarray:
    """A piece's point or vector as two floats; ValueError naming it otherwise."""
    try:
        x = np.asarray(check_numeric(value, name), dtype=float)
    except (TypeError, ValueError, OverflowError):
        x = None
    if x is None or x.shape != (2,):
        raise ValueError(f"{name} must be a list of 2 numbers, not {value!r}")
    return x


def _nonzero_sweep(theta0, theta1):
    # a root's arc parameter is its angle over the sweep
    if theta1 == theta0:
        raise ValueError("arc sweep must be nonzero")
    return theta1 - theta0


class Root(float):
    """Ray parameter t of a crossing with a chain (a float), carrying the
    index `piece` and the parameter `s` on that piece of the crossing."""

    __slots__ = ("piece", "s")

    def __new__(cls, t, piece, s):
        root = super().__new__(cls, t)
        root.piece, root.s = piece, s
        return root

    def __reduce__(self):  # copy and pickle keep the piece and parameter
        return Root, (float(self), self.piece, self.s)


class CurvePiece:
    """Base class: parametric map [0,1] -> R^2 with two derivatives. `keys`
    names the piece's scene-file keys besides "type": its constructor's
    parameters, in order, each kept under the attribute of the same name.
    `point`, `deriv` and `deriv2` write each formula once, on components
    (`_vector`): at a float s they give a list of two floats by the math
    library, and at an array s an array, whose rows have the same bits."""

    kind = "piece"
    keys = ()
    closed_form_projection = False  # whether `project` needs no start parameters

    def point(self, s):
        raise NotImplementedError

    def deriv(self, s):
        raise NotImplementedError

    def deriv2(self, s):
        raise NotImplementedError

    def start(self):
        return self.point(0.0)

    def end(self):
        return self.point(1.0)

    def reach(self, c):
        """The largest distance from the point c (a float pair) to the piece,
        or a bound above it, in closed form. Here the farther end: a
        segment's reach, which the other kinds extend."""
        ends = [_sub(p, c) for p in (self.start(), self.end())]
        return math.sqrt(max(_dot(d, d) for d in ends))

    def overhang(self):
        """How far beyond `reach(c)`, for any c, a root of `ray_roots` may
        lie: the solver takes roots up to `_JOIN_OVERLAP` of parameter past
        an end, which moves a segment by that times its chord |end - start|.
        The same bound serves a bump, whose reach adds its |amplitude| to the
        segment's everywhere, and an ellipse arc, whose reach holds the whole
        ellipse."""
        d = _sub(self.end(), self.start())
        return _JOIN_OVERLAP * math.sqrt(_dot(d, d))

    def to_dict(self) -> dict:
        """The piece's scene-file object: its type and the value of each of
        `keys`, less those left at their constructor default."""
        defaults = _defaults(type(self))
        values = {key: getattr(self, key) for key in self.keys}
        return {"type": self.kind, **{key: _floats(value) for key, value in values.items()
                                      if key not in defaults or value != defaults[key]}}

    def ray_roots(self, q, v):
        """(t, s) pairs where the line q + t v crosses the piece: the ray
        parameter and the piece parameter of each crossing. q and v are any
        (x, y) pairs (arrays, tuples or lists); the same pairs give the same
        roots whatever their type."""
        raise NotImplementedError

    def project(self, X, s0=None):
        """Parameter of the point of the piece nearest each row of X (N, 2).
        Pieces with `closed_form_projection` give it exactly and ignore s0.
        The default is safeguarded Newton from the start parameters s0 (N,),
        each row stopping at its own first step below 1e-12: a local minimum,
        so s0 must lie in the basin of the nearest point."""
        s = np.clip(np.asarray(s0, dtype=float), 0.0, 1.0)
        active = np.ones(s.shape, dtype=bool)
        for _ in range(14):
            g = self.point(s)
            g1 = self.deriv(s)
            g2 = self.deriv2(s)
            r = X - g
            f = np.sum(r * g1, axis=-1)
            fp = -np.sum(g1 * g1, axis=-1) + np.sum(r * g2, axis=-1)
            step = np.where(np.abs(fp) > 1e-300, f / fp, 0.0)
            step = np.clip(step, -0.25, 0.25)
            s = np.where(active, np.clip(s - step, 0.0, 1.0), s)
            active &= np.abs(step) >= 1e-12
            if not np.any(active):
                break
        return s


class LinePiece(CurvePiece):
    kind = "line"
    keys = ("p0", "p1")
    closed_form_projection = True

    def __init__(self, p0, p1):
        self.p0 = _pair("line p0", p0)
        self.p1 = _pair("line p1", p1)
        self._d = _nonzero_chord(self.p0, self.p1)
        self._dd = np.sum(self._d * self._d)
        self._floats = (*self.p0.tolist(), *self._d.tolist())  # p0 and d, for the ray solver

    def point(self, s):
        x0, y0, dx, dy = self._floats
        return _vector(s, x0 + s * dx, y0 + s * dy)

    def deriv(self, s):
        return _vector(s, *self._floats[2:])

    def deriv2(self, s):
        return _vector(s, 0.0, 0.0)

    def project(self, X, s0=None):
        return _segment_parameter(X, self.p0, self._d, self._dd)

    def ray_roots(self, q, v):
        # q + t v = p0 + s d, solved by 2D cross products
        (qx, qy), (vx, vy) = q, v
        x0, y0, dx, dy = self._floats
        wx, wy = x0 - qx, y0 - qy
        det = vx * dy - vy * dx
        if det == 0.0:
            return []
        s = (wx * vy - wy * vx) / det
        if not -_JOIN_OVERLAP <= s <= 1.0 + _JOIN_OVERLAP:
            return []
        return [((wx * dy - wy * dx) / det, s)]


class BumpLinePiece(CurvePiece):
    """Line segment with a smooth sin^2 bump of given amplitude along a fixed direction.

    Amplitude 0 degenerates to the plain segment; the bump and its first
    derivative vanish at both endpoints, so C^1 joins are preserved. The bump
    runs along the unit vector of `direction`, which is kept and written as
    given, so a scene and its reloaded file describe the same piece.
    """

    kind = "bump_line"
    keys = ("p0", "p1", "amplitude", "direction")

    def __init__(self, p0, p1, amplitude, direction):
        self.p0 = _pair("bump_line p0", p0)
        self.p1 = _pair("bump_line p1", p1)
        self.amplitude = _number("bump_line amplitude", amplitude)
        self.direction = _pair("bump_line direction", direction)
        norm = math.sqrt(_dot(self.direction, self.direction))
        if not 0.0 < norm < math.inf:
            raise ValueError("bump direction must be nonzero and finite")
        self._d = _nonzero_chord(self.p0, self.p1)
        self._dd = np.sum(self._d * self._d)
        # p0, d and the bump's unit vector, for the ray solver and the formulas
        self._floats = (*self.p0.tolist(), *self._d.tolist(), *(self.direction / norm).tolist())

    def point(self, s):
        x0, y0, dx, dy, ux, uy = self._floats
        sin = _sin(math.pi * s)
        k = self.amplitude * (sin * sin)
        return _vector(s, x0 + s * dx + k * ux, y0 + s * dy + k * uy)

    def deriv(self, s):
        _, _, dx, dy, ux, uy = self._floats
        k = self.amplitude * math.pi * _sin(2.0 * math.pi * s)
        return _vector(s, dx + k * ux, dy + k * uy)

    def deriv2(self, s):
        _, _, _, _, ux, uy = self._floats
        k = self.amplitude * 2.0 * math.pi * math.pi * _cos(2.0 * math.pi * s)
        return _vector(s, k * ux, k * uy)

    @property
    def closed_form_projection(self):
        return self.amplitude == 0.0

    def reach(self, c):
        return super().reach(c) + abs(self.amplitude)

    def project(self, X, s0=None):
        if self.closed_form_projection:  # flat: the segment's closed form
            return _segment_parameter(X, self.p0, self._d, self._dd)
        return super().project(X, s0)

    def ray_roots(self, q, v):
        # the offset across the ray, g(s) = alpha + beta s + gamma sin^2(pi s), is
        # monotone between the zeros of g'(s) = beta + gamma pi sin(2 pi s)
        (qx, qy), (vx, vy) = q, v
        x0, y0, dx, dy, ux, uy = self._floats
        alpha, beta = -vy * (x0 - qx) + vx * (y0 - qy), -vy * dx + vx * dy
        gamma = self.amplitude * (-vy * ux + vx * uy)
        if beta == 0.0 and gamma == 0.0:
            return []
        knots = [-_JOIN_OVERLAP, 1.0 + _JOIN_OVERLAP]
        if abs(beta) <= abs(gamma) * math.pi:
            phi = math.asin(-beta / (gamma * math.pi))
            knots += [s for s in ((0.5 * phi / math.pi) % 1.0, (0.5 - 0.5 * phi / math.pi) % 1.0)
                      if 0.0 < s < 1.0]
        knots.sort()

        def g(s):
            return alpha + beta * s + gamma * math.sin(math.pi * s) ** 2

        def slope(s):
            return beta + gamma * math.pi * math.sin(2.0 * math.pi * s)

        roots = []
        at_knots = list(map(g, knots))
        for lo, hi, g_lo, g_hi in zip(knots, knots[1:], at_knots, at_knots[1:]):
            if (g_lo > 0.0 and g_hi > 0.0) or (g_lo < 0.0 and g_hi < 0.0):  # not g_lo * g_hi: it can underflow
                continue
            s = _bracketed_root(g, slope, lo, hi, g_lo, g_hi)
            k = self.amplitude * math.sin(math.pi * s) ** 2
            roots.append((vx * (x0 + s * dx + k * ux - qx) + vy * (y0 + s * dy + k * uy - qy), s))
        return roots


class ArcPiece(CurvePiece):
    kind = "arc"
    keys = ("center", "radius", "theta0", "theta1")
    closed_form_projection = True

    def __init__(self, center, radius, theta0, theta1):
        self.center = _pair("arc center", center)
        self.radius = _number("arc radius", radius)
        if self.radius <= 0:
            raise ValueError("arc radius must be positive")
        self.theta0 = _number("arc theta0", theta0)
        self.theta1 = _number("arc theta1", theta1)
        self._sweep = _nonzero_sweep(self.theta0, self.theta1)
        self._floats = tuple(self.center.tolist())  # centre, for the ray solver

    def _theta(self, s):
        return self.theta0 + s * self._sweep

    def point(self, s):
        cx, cy = self._floats
        th = self._theta(s)
        return _vector(s, cx + self.radius * _cos(th), cy + self.radius * _sin(th))

    def reach(self, c):
        # the circle's farthest point from c lies on the ray from c through the centre
        d = _sub(self._floats, c)
        off = _angle_offset(math.atan2(d[1], d[0]), self.theta0 + 0.5 * self._sweep)
        return math.sqrt(_dot(d, d)) + self.radius if abs(off) <= 0.5 * abs(self._sweep) else super().reach(c)

    def overhang(self):
        # the ray solver takes up to `_JOIN_OVERLAP` of angle past an end, and
        # that much parameter is |sweep| times as much angle: the larger arc
        return _JOIN_OVERLAP * self.radius * max(1.0, abs(self._sweep))

    def deriv(self, s):
        th = self._theta(s)
        k = self.radius * self._sweep
        return _vector(s, k * -_sin(th), k * _cos(th))

    def deriv2(self, s):
        th = self._theta(s)
        k = -self.radius * self._sweep**2
        return _vector(s, k * _cos(th), k * _sin(th))

    def project(self, X, s0=None):
        # the ray roots' parameter of the angle (by libm's atan2), clamped: on a
        # circle the end nearer in angle is the nearer end
        x, y = (X - self.center).T.tolist()
        off = _angle_offset(np.array(list(map(math.atan2, y, x))), self.theta0 + 0.5 * self._sweep)
        return np.clip(0.5 + off / self._sweep, 0.0, 1.0)

    def ray_roots(self, q, v):
        (qx, qy), (vx, vy) = q, v
        cx, cy = self._floats
        return _circle_roots(qx - cx, qy - cy, vx, vy, self.radius, self.theta0, self._sweep)


class EllipseArcPiece(CurvePiece):
    kind = "ellipse_arc"
    keys = ("center", "semi_axes", "theta0", "theta1", "rotation")

    def __init__(self, center, semi_axes, theta0, theta1, rotation=0.0):
        self.center = _pair("ellipse_arc center", center)
        self.semi_axes = _pair("ellipse_arc semi_axes", semi_axes)
        if np.any(self.semi_axes <= 0):
            raise ValueError("ellipse semi-axes must be positive")
        self.theta0 = _number("ellipse_arc theta0", theta0)
        self.theta1 = _number("ellipse_arc theta1", theta1)
        self.rotation = _number("ellipse_arc rotation", rotation)
        # a non-finite rotation gives NaN points, which CurveChain refuses by name
        c, s = ((math.cos(self.rotation), math.sin(self.rotation)) if math.isfinite(self.rotation)
                else (math.nan, math.nan))
        self._sweep = _nonzero_sweep(self.theta0, self.theta1)
        self._floats = (*self.center.tolist(), c, s, *self.semi_axes.tolist())  # for the ray solver

    def _theta(self, s):
        return self.theta0 + s * self._sweep

    def reach(self, c):
        d = _sub(self.center.tolist(), c)
        return math.sqrt(_dot(d, d)) + float(max(self.semi_axes))

    def _rotate(self, x, y):
        # the body vector (x, y) turned by the rotation: two products per
        # component, so a point rounds alike in any batch
        _, _, c, s, _, _ = self._floats
        return c * x - s * y, s * x + c * y

    def point(self, s):
        cx, cy, _, _, a, b = self._floats
        th = self._theta(s)
        x, y = self._rotate(a * _cos(th), b * _sin(th))
        return _vector(s, cx + x, cy + y)

    def deriv(self, s):
        _, _, _, _, a, b = self._floats
        th = self._theta(s)
        return _vector(s, *self._rotate(self._sweep * (-a * _sin(th)), self._sweep * (b * _cos(th))))

    def deriv2(self, s):
        _, _, _, _, a, b = self._floats
        th = self._theta(s)
        k = -self._sweep**2
        return _vector(s, *self._rotate(k * (a * _cos(th)), k * (b * _sin(th))))

    def ray_roots(self, q, v):
        # a unit-circle arc in scaled body coordinates; t is unchanged by the map
        (qx, qy), (vx, vy) = q, v
        cx, cy, c, s, a, b = self._floats
        dx, dy = qx - cx, qy - cy
        return _circle_roots((c * dx + s * dy) / a, (-s * dx + c * dy) / b,
                             (c * vx + s * vy) / a, (-s * vx + c * vy) / b,
                             1.0, self.theta0, self._sweep)


_PIECE_KINDS = {cls.kind: cls for cls in (LinePiece, BumpLinePiece, ArcPiece, EllipseArcPiece)}


def piece_from_dict(d) -> CurvePiece:
    """A piece from its scene-file object: the constructor of its type called
    on the object's keys, which are the type's `keys` (those with a
    constructor default may be left out)."""
    check_object(d, "curve piece")
    cls = class_of_kind(_PIECE_KINDS, d.get("type"), "curve piece type")
    optional = _defaults(cls)
    check_object(d, f"{cls.kind} piece", {"type", *cls.keys} - set(optional), optional)
    return cls(**{key: d[key] for key in cls.keys if key in d})


@dataclass
class FootData:
    """Nearest-boundary data for a batch of query points."""

    foot: np.ndarray       # (N, 2)
    dist: np.ndarray       # (N,) unsigned
    signed: np.ndarray     # (N,) signed distance, negative inside the obstacle
    piece: np.ndarray      # (N,) index of nearest piece
    s: np.ndarray          # (N,) piece parameter of the foot
    tangent: np.ndarray    # (N, 2) unit tangent (traversal direction)
    normal: np.ndarray     # (N, 2) unit normal into the free side
    shape: np.ndarray      # (N,) boundary curvature w.r.t. the free normal


class CurveChain:
    """Closed C^1 chain of pieces with closest-point and orientation machinery."""

    def __init__(self, pieces):
        if not pieces:
            raise ValueError("empty curve chain")
        self.pieces = list(pieces)
        self._coarse_s = np.linspace(0.0, 1.0, _COARSE)
        self._coarse_pts = [p.point(self._coarse_s) for p in self.pieces]
        finite = np.isfinite(self._coarse_pts).all(axis=(1, 2))
        if not finite.all():  # one check for every number a piece is given
            k = int(np.argmin(finite))
            piece = self.pieces[k]
            named = next((f": {piece.kind} {key} = {_floats(getattr(piece, key))}"
                          for key in piece.keys if not np.isfinite(getattr(piece, key)).all()), "")
            raise ValueError(f"curve piece {k} has a non-finite number{named}")
        steps = [np.diff(pts, axis=0) for pts in self._coarse_pts]
        steps = [np.sqrt(np.sum(d * d, axis=1)) for d in steps]  # chord lengths
        self.lengths = [float(np.sum(step)) for step in steps]
        self.total_length = math.fsum(self.lengths)
        dense = self.sample_points(max(256, 48 * len(self.pieces)))
        self._bbox_center = 0.5 * (dense.min(axis=0) + dense.max(axis=0))
        self._bbox_xy = tuple(self._bbox_center.tolist())
        self._bound_radius = max(piece.reach(self._bbox_xy) for piece in self.pieces)
        # (index, piece, centre, squared radius) of each piece's ball for
        # `ray_roots`: about the box centre of its coarse samples, holding the
        # piece and the join overlap past its ends
        coarse = np.array(self._coarse_pts)
        centres = (0.5 * (coarse.min(axis=1) + coarse.max(axis=1))).tolist()
        self._piece_balls = [(k, piece, c, (piece.reach(c) + piece.overhang()) ** 2)
                             for k, (piece, c) in enumerate(zip(self.pieces, centres))]
        # shoelace area decides which side of the traversal is free space
        x, y = dense[:, 0], dense[:, 1]
        area = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        self.orientation = -1.0 if area > 0 else 1.0  # normal = orientation * rot90(tangent)
        # closed-form projections first, in chain order, so that the Newton
        # pieces after them run only where their coarse bound can still win
        self._projection_order = sorted(range(len(self.pieces)),
                                        key=lambda k: not self.pieces[k].closed_form_projection)
        # coarse-sampling slack: true distance >= coarse distance - slack
        self._coarse_slack = [0.55 * float(np.max(step)) for step in steps]
        self._check_chain()

    def _check_chain(self):
        scale = max(self.total_length, 1e-12)
        for i, piece in enumerate(self.pieces):
            nxt = self.pieces[(i + 1) % len(self.pieces)]
            gap = _sub(piece.end(), nxt.start())
            if math.sqrt(_dot(gap, gap)) > 1e-9 * scale:
                raise ValueError(f"chain not closed between pieces {i} and {(i + 1) % len(self.pieces)}")
            turn = _dot(piece.deriv(1.0), nxt.deriv(0.0))
            if turn / (_speed(piece, 1.0) * _speed(nxt, 0.0)) < 1.0 - 1e-6:
                raise ValueError(f"chain not C1 between pieces {i} and {(i + 1) % len(self.pieces)}")

    def sample_points(self, n_total: int) -> np.ndarray:
        """Roughly arclength-balanced boundary samples over all pieces."""
        chunks = []
        for piece, w in zip(self.pieces, self.lengths):
            k = max(8, int(round(n_total * w / self.total_length)))
            s = (np.arange(k) + 0.5) / k
            chunks.append(piece.point(s))
        return np.vstack(chunks)

    def bounding_circle(self):
        return self._bbox_center, self._bound_radius

    def ray_roots(self, q, v):
        """Sorted parameters t of every crossing of the line q + t v (arrays,
        tuples or lists) with the chain, as `Root`s that carry the piece and
        piece parameter. A piece whose ball the line misses
        (`_line_misses_ball`) has no crossing and is not solved."""
        q, v = _floats(q), _floats(v)
        vv = _dot(v, v)
        return sorted(Root(t, k, s) for k, piece, c, reach2 in self._piece_balls
                      if not _line_misses_ball(q, v, vv, c, reach2) for t, s in piece.ray_roots(q, v))

    def _on_piece(self, k, s):
        """(piece, parameter) of parameter s of piece k: a root past an end of its piece
        (in the join overlap) lies on the neighbour, the same arc length past the join."""
        nxt, prv = (k + 1) % len(self.pieces), (k - 1) % len(self.pieces)
        if s > 1.0:
            return nxt, (s - 1.0) * _speed(self.pieces[k], 1.0) / _speed(self.pieces[nxt], 0.0)
        if s < 0.0:
            return prv, 1.0 + s * _speed(self.pieces[k], 0.0) / _speed(self.pieces[prv], 1.0)
        return k, s

    def piece_normal(self, k, s):
        """Unit normal into the free side at parameter s of piece k (`_on_piece`),
        by the formula `closest_batch` applies at a foot."""
        k, s = self._on_piece(k, s)
        return _curve_frame(self.orientation, self.pieces[k].deriv(s))[3]

    def piece_shape(self, k, s):
        """kappa t t^T at parameter s of piece k (`_on_piece`) by `closest_batch`'s formulas:
        t the unit tangent, kappa the curvature seen from the free side, negative where concave."""
        k, s = self._on_piece(k, s)
        g1, g2 = self.pieces[k].deriv(s), self.pieces[k].deriv2(s)
        gg, speed, (t0, t1), _ = _curve_frame(self.orientation, g1)
        kappa = _free_curvature(self.orientation, g1, g2, gg, speed)
        off = kappa * (t0 * t1)
        return [[kappa * (t0 * t0), off], [off, kappa * (t1 * t1)]]

    def closest_batch(self, X: np.ndarray) -> FootData:
        """Nearest point of the chain to each row of X (N, 2). Of two feet at
        the same distance, a closed-form piece wins over a Newton piece, and
        otherwise the first in chain order."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n = X.shape[0]
        every = np.arange(n)
        foot = np.zeros_like(X)
        dist2 = np.full(n, np.inf)
        piece_idx = np.zeros(n, dtype=int)
        s_out = np.zeros(n)
        for k in self._projection_order:
            piece = self.pieces[k]
            if piece.closed_form_projection:
                rows, s = every, piece.project(X)
            else:
                # Newton only on the rows where the coarse samples' lower bound
                # can still beat the nearest foot so far
                d2c = np.sum((X[:, None, :] - self._coarse_pts[k][None, :, :]) ** 2, axis=2)
                kc = np.argmin(d2c, axis=1)
                lower = np.sqrt(d2c[every, kc]) - self._coarse_slack[k]
                rows = np.flatnonzero((lower * lower < dist2) | (lower <= 0.0))
                if not rows.size:
                    continue
                s = piece.project(X[rows], self._coarse_s[kc[rows]])
            f = piece.point(s)
            d2 = np.sum((X[rows] - f) ** 2, axis=1)
            take = d2 < dist2[rows]
            won = rows[take]
            foot[won] = f[take]
            dist2[won] = d2[take]
            piece_idx[won] = k
            s_out[won] = s[take]

        dist = np.sqrt(dist2)
        tang, normal, shape = np.zeros_like(X), np.zeros_like(X), np.zeros(n)
        for idx in np.flatnonzero(np.bincount(piece_idx)).tolist():  # np.unique imports numpy.ma
            mask = piece_idx == idx
            piece = self.pieces[idx]
            g1, g2 = piece.deriv(s_out[mask]).T, piece.deriv2(s_out[mask]).T
            gg, speed, t, nu = _curve_frame(self.orientation, g1)
            tang[mask], normal[mask] = np.column_stack(t), np.column_stack(nu)
            shape[mask] = _free_curvature(self.orientation, g1, g2, gg, speed)

        rel = X - foot
        sgn = np.where(np.sum(rel * normal, axis=1) >= 0.0, 1.0, -1.0)
        signed = np.where(dist < 1e-14, 0.0, sgn * dist)
        return FootData(foot, dist, signed, piece_idx, s_out, tang, normal, shape)
