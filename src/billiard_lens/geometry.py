"""Obstacle and scene geometry.

Obstacles are implicit level sets F(x) = 0 with analytic first and second
derivatives: F < 0 strictly inside, F > 0 outside, so the gradient points
from the obstacle into the free region. Scenes collect disjoint obstacles
inside a reference ball of radius `ball_radius` whose boundary sphere is the
measurement surface for all lens data.

An implicit kind writes F once, `_value(d)` at the offset d = x - c on a
point's floats or a batch's coordinate rows (whose `**` is numpy's power,
for a sign), and grad F and Hess F at one point on floats (`_gradient`,
`_hessian`), each sum left to right over the rows of its one matrix, with
libm's pow and no matrix product: the tracer's normals, the Jacobi layer's
incidences and `validate`'s figures do not depend on the CPU's BLAS or SIMD
kernels, on these kinds or on a curve2d (see `curves`). Only `implicit_batch`
takes numpy's power, for a sign.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from functools import cached_property, reduce
from operator import add

import numpy as np

from .curves import (
    ArcPiece,
    BumpLinePiece,
    CurveChain,
    EllipseArcPiece,
    LinePiece,
    SchemaError,
    _axpy,
    _dot,
    _floats,
    _inner,
    _line_misses_ball,
    _stable_quadratic,
    _sub,
    check_list,
    check_numeric,
    check_object,
    class_of_kind,
    piece_from_dict,
)


class InvalidParameters(ValueError):
    """Constructor arguments outside the supported family."""


class NumericFailure(RuntimeError):
    """A computation failed on valid input: a gradient under the floor, a
    failed root polish, a Jacobi transfer that meets a tangent event."""


# the numeric failures: an `error` row of lens data, exit 3 if one ends a command
NUMERIC_FAILURES = (NumericFailure, ArithmeticError)


class SingularGradient(NumericFailure):
    """Implicit gradient below the validated floor at a boundary point."""


class ValidationFailed(RuntimeError):
    def __init__(self, reason: str, message: str):
        super().__init__(f"{reason}: {message}")
        self.reason = reason


_GRAD_FLOOR = 1e-10
_BOUNDARY_TOL = 1e-6  # relative to the obstacle bounding radius
_VALIDATION_SAMPLES = {2: 512, 3: 900}  # boundary samples per obstacle, by dimension
# nearest_distances takes BLOCK_PAIRS pairs of rows at a time (256 KB of
# squared distances)
BLOCK_PAIRS = 1 << 15


# ---------------------------------------------------------------------------
# canonical serialization + hashing


def format_float(x) -> str:
    """A float (or int) with 17 significant digits, enough to read back the
    same double; every output file prints its numbers this way."""
    return format(x, ".17g")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats by `format_float`. A NaN or
    infinity raises ValueError: JSON has no spelling for it."""
    if isinstance(obj, dict):
        items = ",".join(
            f"{json.dumps(str(k))}:{canonical_json(v)}" for k, v in sorted(obj.items())
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"cannot write the non-finite number {float(obj)!r} as JSON")
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


class _Record:
    """Base of the dataclasses whose documents are `dataclasses.asdict`'s."""

    def to_dict(self) -> dict:
        return asdict(self)


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


# ---------------------------------------------------------------------------
# frames


def _tangent_columns(n) -> list:
    """`tangent_basis` of one normal's floats, or of a stack's coordinate
    columns (a list of arrays): its n-1 columns as lists of the same kind."""
    if len(n) == 2:
        return [[-n[1], n[0]]]
    n0, n1, n2 = n
    a0, a1, a2 = abs(n0), abs(n1), abs(n2)
    if isinstance(n0, np.ndarray):
        h0, h1, h2 = np.eye(3)[np.argmin([a0, a1, a2], axis=0)].T
        sqrt = np.sqrt
    else:
        h0, h1, h2 = ((1.0, 0.0, 0.0) if a0 <= a1 and a0 <= a2
                      else (0.0, 1.0, 0.0) if a1 <= a2 else (0.0, 0.0, 1.0))
        sqrt = math.sqrt
    x, y, z = h1 * n2 - h2 * n1, h2 * n0 - h0 * n2, h0 * n1 - h1 * n0
    norm = sqrt(x * x + y * y + z * z)
    x, y, z = x / norm, y / norm, z / norm
    return [[x, y, z], [n1 * z - n2 * y, n2 * x - n0 * z, n0 * y - n1 * x]]


def tangent_basis(normal: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the plane orthogonal to `normal`,
    returned as an (n, n-1) matrix of columns; a stack of normals (N, n)
    gives (N, n, n-1), each row equal bit for bit to its single call.

    In 2D the basis is (-n1, n0). In 3D, e1 = h x n / |h x n| with h the axis
    of the smallest |n_k| (the first on ties) and e2 = n x e1, the norm's
    squares added left to right. One normal takes these steps on floats, a
    stack on its coordinate columns (`_tangent_columns`), elementwise with no
    matrix product, which rounds alike on every platform."""
    columns = _tangent_columns(list(np.moveaxis(np.asarray(normal, dtype=float), -1, 0)))
    return np.stack([np.stack(col, axis=-1) for col in columns], axis=-1)


@dataclass
class SurfaceFrame:
    """Boundary point with inward (into the free region) unit normal and the
    shape operator on the tangent plane, units 1/length. Positive definite
    shape means the obstacle is strictly convex at the point."""

    point: np.ndarray
    normal: np.ndarray
    shape: np.ndarray    # (n-1, n-1), symmetric
    tangent: np.ndarray  # (n, n-1) orthonormal columns

    def shape_ambient(self) -> np.ndarray:
        """T S T^T: the rows of T S, then their products with the rows of T, left to right."""
        rows, shape = self.tangent.tolist(), self.shape.tolist()
        ts = [[_inner(r, col) for col in zip(*shape)] for r in rows]
        return np.array([[_inner(a, r) for r in rows] for a in ts])


# ---------------------------------------------------------------------------
# obstacles


def _positive(name: str, value) -> float:
    """`value` as a float in (0, inf); InvalidParameters naming it otherwise."""
    try:
        x = float(check_numeric(value, name))
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameters(f"{name} must be a number, not {value!r}") from None
    if not 0.0 < x < math.inf:
        raise InvalidParameters(f"{name} must be positive and finite, not {x!r}")
    return x


class Obstacle:
    """Base class. `params` names the keys of the obstacle's scene-file
    "params": its constructor's parameters after the centre, in order, each
    kept under the attribute of the same name."""

    kind = "obstacle"
    params = ()
    # true when every body of the kind is convex: it lies behind the tangent
    # plane at each boundary point, so a ray reflected transversally off it
    # cannot meet it again (the tracer skips that query)
    convex = False

    def __init__(self, center):
        self.center = np.asarray(check_numeric(center, "center"), dtype=float)
        if self.center.shape not in ((2,), (3,)):
            raise InvalidParameters("obstacles are 2D or 3D: the center needs 2 or 3 numbers")
        if not np.isfinite(self.center).all():
            raise InvalidParameters(f"center must be finite, not {self.center.tolist()}")
        self.dim = len(self.center)
        self._c = tuple(self.center.tolist())  # the centre in floats

    # -- implicit data -----------------------------------------------------
    def implicit(self, x) -> float:
        """F at the point x: `implicit_batch` on a batch of one."""
        return float(self.implicit_batch(np.asarray(x, dtype=float)[None, :])[0])

    def implicit_batch(self, X) -> np.ndarray:
        """F at the rows of X (N, n): `_value` on the coordinate rows, whose
        `**` is numpy's power; it serves sign tests only, so a power past the
        float range reads +inf, and F with it, without a warning."""
        with np.errstate(over="ignore"):
            return self._value((np.asarray(X, dtype=float) - self.center).T)

    def gradient(self, x) -> np.ndarray:
        """grad F at the point x (n,), or at each row of X (N, n), by `_gradient`."""
        x = np.asarray(x, dtype=float)
        return np.array([self._gradient(r) for r in x.reshape(-1, self.dim).tolist()]).reshape(x.shape)

    def local_geometry(self, X):
        """`_local` at each row of X (N, n), stacked: F (N,), unit normals (N, n),
        |grad F| (N,), shape operators (N, n-1, n-1). SingularGradient below the floor."""
        local = [self._local(x) for x in np.asarray(X, dtype=float).tolist()]
        return tuple(np.array([q[k] for q in local]).reshape(len(local), *tail)
                     for k, tail in enumerate([(), (self.dim,), (), (self.dim - 1,) * 2]))

    def _local(self, x):
        """(F, unit normal into the free region, |grad F|, the rows of the shape
        operator on the columns of `_tangent_columns(normal)`) at the point x,
        all floats, summed left to right. SingularGradient below the floor."""
        normal, norm = self._unit_normal(self._gradient(x), self.kind)
        return (self._value(_sub(x, self._c)), normal, norm,
                _shape_operator(self._hessian(x), _tangent_columns(normal), norm))

    def _unit_normal(self, g, label):
        """(g / |g|, |g|) of a gradient g of floats, |g| summed left to right:
        the one unit-normal step of the tracer, its incidences and the local
        query. SingularGradient, naming obstacle `label`, below the floor."""
        norm = math.sqrt(_dot(g, g))
        if norm < self.gradient_floor():
            raise SingularGradient(f"singular normal on obstacle {label}: |grad F| = {norm:g}")
        return [gi / norm for gi in g], norm

    def gradient_floor(self) -> float:
        """|grad F| under which a boundary normal is singular: 1e-10 max(1, R)
        for the bounding radius R."""
        return _GRAD_FLOOR * max(1.0, self.bounding_radius())

    # -- extents -----------------------------------------------------------
    def bounding_radius(self) -> float:
        raise NotImplementedError

    def boundary_points(self, target: int) -> np.ndarray:
        raise NotImplementedError

    # -- ray intersection --------------------------------------------------
    def ray_roots(self, q, v):
        """Sorted parameters t of every crossing of the line q + t v with the
        boundary, exact up to rounding: no step size, so no feature is too
        thin to be seen. q and v are arrays, tuples or lists; each kind
        solves in plain float arithmetic, so the same points give the same
        roots whatever their type."""
        raise NotImplementedError

    @cached_property
    def _reach2(self) -> float:
        """R^2 of the bounding radius R, taken once: the tracer asks no
        obstacle for the roots of a line outside that ball (`flow._first_root`)."""
        return self.bounding_radius() ** 2

    def root_gradient(self, x, root):
        """grad F, as floats, at the point x (floats) of a root of `ray_roots`."""
        return self._gradient(x)

    def root_hessian(self, x, root):
        """The rows of Hess F, as floats, at the point x of a root of `ray_roots`."""
        return self._hessian(x)

    def params_dict(self) -> dict:
        """The scene file's "params": the value of each of `params`."""
        return {key: _floats(getattr(self, key)) for key in self.params}

    def rotation_list(self):
        """Row-major entries of the rotation the obstacle was built with, or None."""
        return None


def _apply(rows, d):
    """The matrix of the rows (of floats) times d, each row's products summed
    left to right; d is a point's floats or a batch's coordinate rows."""
    return [_dot(row, d) for row in rows]


def _gram(w, rows):
    """Rows of sum_i w_i r_i r_i^T: entry (j, k) = (k, j) is sum_i w_i (r_ij r_ik), left to right."""
    n = len(rows[0])
    out = [[0.0] * n for _ in range(n)]
    for j in range(n):
        for k in range(j, n):
            out[j][k] = out[k][j] = _dot(w, [r[j] * r[k] for r in rows])
    return out


class SphereObstacle(Obstacle):
    """Ball in dimension n with F(x) = |x - c|^2 - r^2."""

    kind = "sphere"
    convex = True
    params = ("radius",)

    def __init__(self, center, radius):
        super().__init__(center)
        self.radius = _positive("sphere radius", radius)
        self._r2 = self.radius**2

    def _value(self, d):
        return _dot(d, d) - self._r2

    def _gradient(self, x):
        return [2.0 * di for di in _sub(x, self._c)]

    def _hessian(self, x):
        return [[2.0 * (j == k) for k in range(self.dim)] for j in range(self.dim)]

    def bounding_radius(self):
        return self.radius

    def ray_roots(self, q, v):
        # solved about the point p of the line nearest the centre, so that a
        # small ball far from q keeps its precision
        d, v = _sub(_floats(q), self._c), _floats(v)
        vv = _dot(v, v)
        t0 = -_dot(d, v) / vv
        p = _axpy(d, t0, v)
        return [t0 + t for t in _stable_quadratic(vv, 2.0 * _dot(p, v), _dot(p, p) - self._r2)]

    def boundary_points(self, target):
        return _boundary_points(self.center, [self.radius] * self.dim, 2.0, None, target)


def _boundary_points(center, axes, exponent, rows, target) -> np.ndarray:
    """`target` samples (N, n) of the surface sum |y_i / a_i|^p = 1, y = R^T (x
    - c), R the matrix of `rows` (None: I): each unit direction u (equally
    spaced on a circle; in 3D the golden-angle lattice at heights 1 - 2k/(N-1),
    both poles included) maps to y = a sign(u) |u|^(2/p) by libm's pow, which
    is u itself at p = 2, and x = c + R y, summed left to right."""
    if len(axes) == 2:
        t = 2.0 * np.pi * np.arange(target) / max(1, target)
        u = [np.cos(t).tolist(), np.sin(t).tolist()]
    else:
        k = np.arange(target)
        z, phi = 1.0 - 2.0 * k / max(1, target - 1), golden_angle(k)
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        u = [(rho * np.cos(phi)).tolist(), (rho * np.sin(phi)).tolist(), z.tolist()]
    e = 2.0 / exponent
    y = [a * np.array([math.copysign(math.pow(abs(ui), e), ui) for ui in col]) for a, col in zip(axes, u)]
    if rows is not None:
        y = _apply(rows, y)
    return center + np.column_stack(y)


def golden_angle(k):
    """k pi (3 - sqrt 5) mod 2 pi, the azimuth of the k-th point of the
    golden-angle spiral of a spherical Fibonacci lattice (González 2010); of
    each element of an integer array alike, bit for bit."""
    return math.pi * (3.0 - math.sqrt(5.0)) * k % (2.0 * math.pi)


class AxesObstacle(Obstacle):
    """Base class of the obstacles with positive semi-axes a along the
    columns of a rotation R (the identity when none is given) about the
    centre c, in the body coordinates y = R^T (x - c)."""

    def __init__(self, center, semi_axes, rotation=None):
        super().__init__(center)
        self.semi_axes = np.asarray(check_numeric(semi_axes, "semi_axes"), dtype=float)
        if self.semi_axes.shape != (self.dim,):
            raise InvalidParameters("semi_axes has wrong dimension")
        if not np.all((self.semi_axes > 0.0) & (self.semi_axes < math.inf)):
            raise InvalidParameters(f"{self.kind} semi_axes must be positive and finite, "
                                    f"not {self.semi_axes.tolist()}")
        self._has_rotation = rotation is not None
        R = (np.asarray(check_numeric(rotation, "rotation"), dtype=float) if self._has_rotation
             else np.eye(self.dim))
        if R.size != self.dim**2:
            raise InvalidParameters(f"rotation must have {self.dim**2} entries")
        self.rotation = R.reshape(self.dim, self.dim)
        # R R^T = I as `np.allclose` judges it, each product of rows on floats
        rows = self.rotation.tolist()
        if not all(abs(_dot(ri, rj) - (i == j)) <= 1e-9 + 1e-5 * (i == j)
                   for i, ri in enumerate(rows) for j, rj in enumerate(rows)):
            raise InvalidParameters("rotation matrix is not orthonormal")

    def rotation_list(self):
        return self.rotation.reshape(-1).tolist() if self._has_rotation else None


class EllipsoidObstacle(AxesObstacle):
    """Ellipsoid with F(x) = (x-c)^T M (x-c) - 1, M = R diag(1/a_i^2) R^T."""

    kind = "ellipsoid"
    convex = True
    params = ("semi_axes",)

    def __init__(self, center, semi_axes, rotation=None):
        super().__init__(center, semi_axes, rotation)
        self._m_rows = _gram((1.0 / self.semi_axes**2).tolist(), self.rotation.T.tolist())  # M
        self._bounding_radius = float(np.max(self.semi_axes))

    def _value(self, d):
        return _dot(d, _apply(self._m_rows, d)) - 1.0

    def _gradient(self, x):
        return [2.0 * g for g in _apply(self._m_rows, _sub(x, self._c))]

    def _hessian(self, x):
        return [[2.0 * m for m in row] for row in self._m_rows]

    def bounding_radius(self):
        return self._bounding_radius

    def ray_roots(self, q, v):
        # as the sphere's, about the ray point p nearest the centre in the metric M
        v = _floats(v)
        d = _sub(_floats(q), self._c)
        mv = _apply(self._m_rows, v)
        vmv = _dot(v, mv)
        t0 = -_dot(d, mv) / vmv
        p = _axpy(d, t0, v)
        mp = _apply(self._m_rows, p)
        return [t0 + t for t in _stable_quadratic(vmv, 2.0 * _dot(p, mv), _dot(p, mp) - 1.0)]

    def boundary_points(self, target):
        return _boundary_points(self.center, self.semi_axes.tolist(), 2.0, self.rotation.tolist(), target)


class SuperellipsoidObstacle(AxesObstacle):
    """Superellipsoid F = sum |y_i/a_i|^p - 1 in body coordinates y = R^T (x-c).

    Exponent p >= 4 keeps the boundary C^3; nearly flat faces appear for large p.
    """

    kind = "superellipsoid"
    convex = True
    params = ("semi_axes", "exponent")

    def __init__(self, center, semi_axes, exponent, rotation=None):
        super().__init__(center, semi_axes, rotation)
        self.exponent = _positive("superellipsoid exponent", exponent)
        if self.exponent < 4.0:
            raise InvalidParameters("superellipsoid exponent must be >= 4 (use ellipsoid below)")
        self._bounding_radius = math.sqrt(_dot(self.semi_axes, self.semi_axes))
        # the rows b_i of R^T / a, which map x - c to the body coordinates u = y / a
        self._body_rows = (self.rotation.T / self.semi_axes[:, None]).tolist()

    def _value(self, d):
        # `**`: libm's pow on a point, numpy's power (overflow: infinity) on a batch
        return reduce(add, (abs(u) ** self.exponent for u in _apply(self._body_rows, d))) - 1.0

    def _gradient(self, x):
        # sum_i p sign(u_i) |u_i|^(p-1) b_i
        p = self.exponent
        w = [p * math.copysign(abs(u) ** (p - 1.0), u) for u in _apply(self._body_rows, _sub(x, self._c))]
        return [_dot(w, col) for col in zip(*self._body_rows)]

    def _hessian(self, x):
        # sum_i p (p-1) |u_i|^(p-2) b_i b_i^T
        p = self.exponent
        u = _apply(self._body_rows, _sub(x, self._c))
        return _gram([p * (p - 1.0) * abs(ui) ** (p - 2.0) for ui in u], self._body_rows)

    def bounding_radius(self):
        return self._bounding_radius

    def ray_roots(self, q, v):
        # the gauge |R^T(x-c)/a|_p - 1 is convex along the ray, so Newton from
        # either end of the line's chord of the box |u_i| <= 1, which holds
        # the body, converges monotonically to the entry or exit root; a slope
        # turning away first, or a step that leaves the chord (where a
        # near-tangent miss sends it), means a miss. In the box no |u_i|^(p-1)
        # exceeds 1, so no power overflows.
        y = _apply(self._body_rows, _sub(_floats(q), self._c))
        w = _apply(self._body_rows, _floats(v))
        lo, hi = -math.inf, math.inf
        for yi, wi in zip(y, w):
            if wi != 0.0:
                near, far = (-1.0 - yi) / wi, (1.0 - yi) / wi
                if wi < 0.0:
                    near, far = far, near
                lo, hi = max(lo, near), min(hi, far)
            elif abs(yi) > 1.0:
                return []
        if lo > hi:
            return []
        p = self.exponent
        pm1, inv_p = p - 1.0, 1.0 / p
        roots = []
        for t, toward in ((lo, 1.0), (hi, -1.0)):
            for _ in range(100):
                # with s = sum |u_i|^p at u = y + t w, the gauge is s^(1/p) and its
                # slope s^(1/p - 1) sum sign(u_i) |u_i|^(p-1) w_i: one pass gives both
                s = ds = 0.0
                for yi, wi in zip(y, w):
                    ui = yi + t * wi
                    power = abs(ui) ** pm1
                    s += power * abs(ui)
                    ds += math.copysign(power, ui) * wi
                gauge = s ** inv_p
                if gauge <= 1.0:
                    break
                slope = gauge / s * ds
                if slope * toward >= 0.0:
                    return []
                t_next = t - (gauge - 1.0) / slope
                if not lo <= t_next <= hi:
                    return []
                if t_next == t:
                    break
                t = t_next
            roots.append(t)
        return sorted(roots)

    def boundary_points(self, target):
        return _boundary_points(self.center, self.semi_axes.tolist(), self.exponent,
                                self.rotation.tolist(), target)


class CurveObstacle(Obstacle):
    """2D obstacle bounded by a closed C^1 chain of analytic curve pieces.

    The implicit value is the signed distance to the chain (negative inside),
    so the gradient has unit length and the shape operator is the signed
    boundary curvature seen from the free side.
    """

    kind = "curve2d"
    params = ("pieces",)  # kept as `chain`: its own `params_dict` writes them

    def __init__(self, pieces):
        self.chain = pieces if isinstance(pieces, CurveChain) else CurveChain(pieces)
        super().__init__(self.chain.bounding_circle()[0])

    def implicit_batch(self, X):
        return self.chain.closest_batch(np.atleast_2d(np.asarray(X, dtype=float))).signed

    def gradient(self, x):
        # the signed-distance gradient of a C^1 chain is the foot normal on both sides
        x = np.asarray(x, dtype=float)
        return self.chain.closest_batch(x.reshape(-1, 2)).normal.reshape(x.shape)

    def implicit_grad(self, x):
        """(F, grad F) at the point x, from one closest-point query."""
        fd = self.chain.closest_batch(np.asarray(x, dtype=float)[None, :])
        return float(fd.signed[0]), fd.normal[0].copy()

    def local_geometry(self, X):
        # signed distance, foot normal and the foot's kappa, the shape operator,
        # from one closest-point query; the signed-distance gradient has unit length
        fd = self.chain.closest_batch(X)
        return fd.signed, fd.normal, np.ones(len(fd.signed)), fd.shape[:, None, None]

    def _local(self, x):
        return tuple(q[0].tolist() for q in self.local_geometry(np.array([x], dtype=float)))

    def bounding_radius(self):
        return self.chain.bounding_circle()[1]

    def ray_roots(self, q, v):
        return self.chain.ray_roots(q, v)

    def root_gradient(self, x, root):
        # on the boundary the signed-distance gradient is the unit normal at the
        # root's piece and parameter, in closed form
        return self.chain.piece_normal(root.piece, root.s)

    def root_hessian(self, x, root):
        # the signed-distance Hessian there, kappa t t^T at the root's piece and parameter
        return self.chain.piece_shape(root.piece, root.s)

    def boundary_points(self, target):
        return self.chain.sample_points(target)

    def params_dict(self):
        return {"pieces": [piece.to_dict() for piece in self.chain.pieces]}


# ---------------------------------------------------------------------------
# the [OP] surface: the views of an obstacle's one local query, `_local`
# (`local_geometry` on a batch): `surface_frame` at a given point and
# validate's curvatures


def _shape_operator(hessian, columns, norm):
    """The rows of T^T H T / |grad F| for the rows of H = Hess F and the tangent
    columns T: entry (a, b) = (b, a) is t_a . (H t_b) / |grad F| for a <= b."""
    h = [_apply(hessian, t) for t in columns]
    m = len(columns)
    return [[_dot(columns[min(a, b)], h[max(a, b)]) / norm for b in range(m)] for a in range(m)]


def _principal_curvatures(shapes) -> np.ndarray:
    """The eigenvalues, ascending, of each shape operator of a stack (N, m, m),
    as (N, m), elementwise in closed form: S itself for m = 1, and for
    [[a, b], [b, c]] the mean (a + c) / 2 -+ sqrt(((a - c) / 2)^2 + b^2)."""
    if shapes.shape[1] == 1:
        return shapes[:, 0]
    a, b, c = shapes[:, 0, 0], shapes[:, 0, 1], shapes[:, 1, 1]
    mean, half = 0.5 * (a + c), 0.5 * (a - c)
    radius = np.sqrt(half * half + b * b)
    return np.column_stack([mean - radius, mean + radius])


def surface_frame(obstacle: Obstacle, point) -> SurfaceFrame:
    """Unit normal into the free region and shape operator at a boundary
    point, as the local query gives them, on `_tangent_columns(normal)`.

    Raises SingularGradient below the gradient floor and ValueError when the
    point is not on the boundary (within 1e-6 of the obstacle scale).
    """
    x = _floats(point)
    value, normal, norm, shape = obstacle._local(x)
    dist_est = abs(value) / max(norm, _GRAD_FLOOR)
    if dist_est > _BOUNDARY_TOL * max(1.0, obstacle.bounding_radius()):
        raise ValueError(f"point {x} is not on the obstacle boundary (distance ~ {dist_est:g})")
    return SurfaceFrame(np.array(x, dtype=float), np.array(normal), np.array(shape),
                        np.array(_tangent_columns(normal)).T)


# ---------------------------------------------------------------------------
# scene


@dataclass(frozen=True)
class Scene:
    dimension: int
    ball_radius: float
    obstacles: tuple
    name: str = "scene"

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise InvalidParameters("dimension must be 2 or 3")
        _positive("ball_radius", self.ball_radius)
        for obs in self.obstacles:
            if obs.dim != self.dimension:
                raise InvalidParameters("obstacle dimension does not match scene")


def make_scene(dimension, ball_radius, obstacles, name="scene") -> Scene:
    return Scene(int(dimension), float(ball_radius), tuple(obstacles), str(name))


_OBSTACLE_KINDS = {cls.kind: cls for cls in (SphereObstacle, EllipsoidObstacle,
                                              SuperellipsoidObstacle, CurveObstacle)}


def obstacle_to_dict(obs: Obstacle) -> dict:
    out = {"kind": obs.kind, "center": [float(c) for c in obs.center], "params": obs.params_dict()}
    rot = obs.rotation_list()
    if rot is not None:
        out["rotation"] = rot
    return out


def obstacle_from_dict(d) -> Obstacle:
    """An obstacle from its scene-file object, by the constructor of its kind.
    Any kind may have a null rotation, but only an `AxesObstacle` a given one;
    a curve2d is built from its pieces, and its centre checked for length."""
    check_object(d, "obstacle", {"kind", "center", "params"}, {"rotation"})
    check_numeric(check_list(d["center"], "center"), "center")
    cls = class_of_kind(_OBSTACLE_KINDS, d["kind"], "obstacle kind")
    params = check_object(d["params"], f"{cls.kind} params", cls.params)
    values = [params[key] for key in cls.params]
    if d.get("rotation") is not None:
        if not issubclass(cls, AxesObstacle):
            raise SchemaError(f"rotation is not supported for {cls.kind}")
        values.append(d["rotation"])
    if cls is CurveObstacle:
        obstacle = CurveObstacle([piece_from_dict(p) for p in check_list(values[0], "pieces")])
    else:
        obstacle = cls(d["center"], *values)
    if len(d["center"]) != obstacle.dim:
        raise SchemaError("center has wrong dimension")
    return obstacle


def scene_to_dict(scene: Scene) -> dict:
    return {
        "dimension": scene.dimension,
        "ball_radius": scene.ball_radius,
        "obstacles": [obstacle_to_dict(o) for o in scene.obstacles],
        "name": scene.name,
    }


def scene_from_dict(d) -> Scene:
    check_object(d, "scene", {"dimension", "ball_radius", "obstacles", "name"})
    dim = d["dimension"]
    if dim not in (2, 3):
        raise SchemaError("dimension must be 2 or 3")
    if not isinstance(d["name"], str):
        raise SchemaError(f"name must be a string, not {d['name']!r}")
    obstacles = []
    for k, entry in enumerate(check_list(d["obstacles"], "obstacles")):
        try:
            # a non-finite number is refused by a check, not warned about on the way there
            with np.errstate(all="ignore"):
                obstacles.append(obstacle_from_dict(entry))
        except (TypeError, ValueError, OverflowError) as exc:
            # a constructor given a JSON value of the wrong type raises TypeError
            raise SchemaError(f"obstacle {k}: {exc}") from exc
    try:
        return Scene(int(dim), _positive("ball_radius", d["ball_radius"]), tuple(obstacles),
                     d["name"])
    except InvalidParameters as exc:
        raise SchemaError(str(exc)) from exc


def scene_to_json(scene: Scene) -> str:
    return canonical_json(scene_to_dict(scene))


def _json_int(text: str):
    # format_float writes -0.0 as "-0"; read back as the integer 0 it would
    # lose its sign, and a reloaded scene would write and hash differently
    return -0.0 if text == "-0" else int(text)


def scene_from_json(text: str) -> Scene:
    try:
        data = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return scene_from_dict(data)


def scene_hash(scene: Scene) -> str:
    """64-bit FNV-1a of the canonical scene JSON, as 16 hex digits."""
    return format(fnv1a64(scene_to_json(scene).encode("utf-8")), "016x")


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport(_Record):
    obstacle_count: int
    pairwise_gap_min: float | None
    containment_margin: float
    min_gradient_norm: float | None  # None (null) without boundary samples
    curvature_min: float | None
    curvature_max: float | None
    flatness_flag: bool
    flagged_nonconvex: bool
    exterior_connected: bool
    notes: list = field(default_factory=list)


def _free_cells(scene: Scene) -> np.ndarray:
    """Boolean grid of the cells whose centres lie inside the ball (by half a
    cell) and outside every obstacle: 400^2 cells in 2D, 128^3 in 3D.

    Scanline classification: each grid line along the last axis that meets an
    obstacle's bounding sphere (`curves._line_misses_ball` on the lines'
    columns) is cut at the exact crossings `ray_roots` gives (parameter =
    last coordinate). F has no zero strictly between two crossings, so each
    run of cells takes the sign of F at one cell, all of an obstacle's runs
    in one `implicit_batch` call. That cell is the run's middle one: a first
    cell can sit exactly on a crossing, where the sign of F is rounding, but
    from three cells on the middle one is a whole cell from both cuts. Lines
    that miss the bounding sphere stay free.
    """
    a, n = scene.ball_radius, scene.dimension
    cells = 400 if n == 2 else 128  # resolution a/200 in 2D, a/64 in 3D
    step = 2.0 * a / cells
    axis = -a + (np.arange(cells) + 0.5) * step
    r2 = axis * axis
    for _ in range(n - 1):
        r2 = np.add.outer(r2, axis * axis)
    free = r2 < (a - 0.5 * step) ** 2
    lines = free.reshape(-1, cells)  # a view; row i is the line through heads[i]
    heads = np.stack(np.meshgrid(*[axis] * (n - 1), indexing="ij"), axis=-1).reshape(-1, n - 1)
    heads_f, axis_f = heads.tolist(), axis.tolist()  # in floats, for `ray_roots` and bisect
    e = [0.0] * (n - 1) + [1.0]
    starts_at = [*heads.T, 0.0]  # the lines' points at height 0, as coordinate columns
    for obs in scene.obstacles:
        hit = np.flatnonzero(~_line_misses_ball(starts_at, e, 1.0, obs._c, obs._reach2))
        if not hit.size:
            continue
        # run starts as flat indices into lines[hit]; every line has a run at 0,
        # so the next start is also the end of a line's last run. A line's
        # starts are a sorted set of a few cells: no `np.unique`, which would
        # import numpy.ma
        starts = []
        for k, i in enumerate(hit.tolist()):
            cuts = {bisect_left(axis_f, r) for r in obs.ray_roots(heads_f[i] + [0.0], e)}
            starts += [k * cells + cut for cut in sorted(cuts | {0}) if cut < cells]
        starts = np.array(starts)
        ends = np.append(starts[1:], hit.size * cells)
        rows, cols = np.divmod((starts + ends - 1) // 2, cells)
        outside = obs.implicit_batch(np.column_stack([heads[hit[rows]], axis[cols]])) > 0.0
        lines[hit] &= np.repeat(outside, ends - starts).reshape(-1, cells)
    return free


def _face_components(grid: np.ndarray) -> int:
    """The number of face-connected components of the true cells of a boolean
    grid, as `scipy.ndimage.label` counts them by default: cells that touch
    only along an edge or at a corner stay apart.

    Components are counted on runs, not cells: each line of the grid along
    its last axis is cut into runs of true cells, and two runs on
    face-adjacent lines join when their cell ranges overlap."""
    cells = grid.shape[-1]
    width = cells + 1  # a run key is line * width + cell; a run can end at `cells`
    # the cell boundaries where true and false cells alternate: starts and ends in turn
    flips = np.flatnonzero(np.diff(grid.reshape(-1, cells), axis=1, prepend=False, append=False))
    starts, ends = flips[0::2], flips[1::2]
    line, first = np.divmod(starts, width)
    last = ends - line * width
    u, v = [], []
    for axis, size in enumerate(grid.shape[:-1]):
        stride = math.prod(grid.shape[axis + 1:-1])  # from a line to the next along `axis`
        has = (line // stride) % size < size - 1
        base = (line[has] + stride) * width
        # the runs of the next line that overlap a run are a range [lo, hi)
        lo = np.searchsorted(ends, base + first[has], side="right")
        hi = np.searchsorted(starts, base + last[has], side="left")
        meets = lo < hi
        u.append(np.flatnonzero(has)[meets])
        v.append(lo[meets])
        # through that run, each run of the range joins the next one of it
        chained = np.cumsum(np.bincount(lo[meets], minlength=starts.size)
                            - np.bincount(hi[meets] - 1, minlength=starts.size)) > 0
        u.append(np.flatnonzero(chained))
        v.append(u[-1] + 1)
    return _component_count(starts.size, np.concatenate(u), np.concatenate(v))


def _component_count(nodes: int, u: np.ndarray, v: np.ndarray) -> int:
    """The number of connected components of the graph on `nodes` nodes with
    the edges (u[i], v[i]): every root hooks to the least root it shares an
    edge with, then every node jumps to its root, until no edge joins two
    roots."""
    root = np.arange(nodes)
    while True:
        ru, rv = root[u], root[v]
        split = ru != rv
        if not split.any():
            return int(np.count_nonzero(root == np.arange(nodes)))
        np.minimum.at(root, np.maximum(ru, rv)[split], np.minimum(ru, rv)[split])
        while not np.array_equal(up := root[root], root):
            root = up


def validate_scene(scene: Scene) -> ValidationReport:
    """Numerical scene validation.

    Raises ValidationFailed (with the first violated invariant) for hard
    failures: obstacle outside the ball, overlapping obstacles, a singular
    boundary gradient, or a disconnected exterior (obstacle sizes are checked
    when the obstacles are built). The flatness flag and the class-convexity
    diagnostic are reported, not raised. Connectivity is judged on a grid of
    resolution a/200 in 2D and a/64 in 3D whose lines are classified from
    their exact `ray_roots` crossings (see `_free_cells`), so a gap narrower
    than one cell counts as closed; its components are counted on runs of
    cells (`_face_components`). The overlap and flat-patch checks take exact
    nearest distances (`nearest_distances`), so validation never imports
    scipy.
    """
    a = scene.ball_radius
    samples = _VALIDATION_SAMPLES[scene.dimension]
    clouds = [obs.boundary_points(samples) for obs in scene.obstacles]

    containment_margin = a
    for obs, cloud in zip(scene.obstacles, clouds):
        max_norm = math.sqrt(float(np.max(squared_distances(cloud.T, [0.0] * obs.dim), initial=0.0)))
        containment_margin = min(containment_margin, a - max_norm)
        if max_norm >= a * (1.0 - 1e-9):
            raise ValidationFailed(
                "containment", f"obstacle {obs.kind} reaches {max_norm:g} >= ball radius {a:g}"
            )

    gap_min = None
    for i in range(len(clouds)):
        for j in range(i + 1, len(clouds)):
            # a boundary sample of one obstacle inside the other is an overlap,
            # whatever the distance between the two clouds
            for inner, outer in ((j, i), (i, j)):
                if np.min(scene.obstacles[outer].implicit_batch(clouds[inner])) < 0.0:
                    raise ValidationFailed(
                        "overlap", f"a boundary sample of obstacle {inner} lies inside obstacle {outer}"
                    )
            d = float(np.min(nearest_distances(clouds[i], clouds[j])))
            gap_min = d if gap_min is None else min(gap_min, d)
            if d <= 1e-6 * a:
                raise ValidationFailed(
                    "overlap", f"obstacles {i} and {j} are not disjoint (gap ~ {d:g})"
                )

    flat_thr = 1e-6 / a
    min_grad = np.inf
    curv_min, curv_max = np.inf, -np.inf
    flat_flag = False
    flagged_nonconvex = False
    notes = []
    for obs, cloud in zip(scene.obstacles, clouds):
        _, _, grad_norms, shapes = obs.local_geometry(cloud)
        curv = _principal_curvatures(shapes)
        min_grad = min(min_grad, float(np.min(grad_norms)))
        curv_min = min(curv_min, float(np.min(curv)))
        curv_max = max(curv_max, float(np.max(curv)))
        flagged = np.max(np.abs(curv), axis=1) < flat_thr
        if np.any(flagged):
            flat_flag = True
            notes.append(f"{obs.kind}: {int(np.count_nonzero(flagged))} flat boundary samples")
            # class proxy: flat patches must sit in convex neighbourhoods
            # (a flagged sample is never concave itself, so test flagged against concave)
            radius = 0.05 * max(obs.bounding_radius(), 1e-12)
            concave = np.min(curv, axis=1) < -flat_thr
            if np.any(concave):
                if np.min(nearest_distances(cloud[flagged], cloud[concave])) < radius:
                    flagged_nonconvex = True
    if min_grad < _GRAD_FLOOR * max(1.0, a):
        raise ValidationFailed("gradient_floor", f"boundary gradient norm {min_grad:g} too small")

    if _face_components(_free_cells(scene)) > 1:
        raise ValidationFailed("exterior_disconnected", "free region splits into components")

    if flagged_nonconvex:
        notes.append("flat patches adjoin concave boundary (fails the generic-obstacle proxy)")

    return ValidationReport(
        obstacle_count=len(scene.obstacles),
        pairwise_gap_min=gap_min,
        containment_margin=containment_margin,
        min_gradient_norm=float(min_grad) if np.isfinite(min_grad) else None,
        curvature_min=float(curv_min) if np.isfinite(curv_min) else None,
        curvature_max=float(curv_max) if np.isfinite(curv_max) else None,
        flatness_flag=flat_flag,
        flagged_nonconvex=flagged_nonconvex,
        exterior_connected=True,
        notes=notes,
    )


def nearest_distances(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of P to the nearest row of Q: the
    exact minimum over all pairs, taken over blocks of about BLOCK_PAIRS
    pairs, in numpy alone. Squared differences are summed one axis at a time
    from the first, as `np.sum` over the last axis and scipy's cKDTree sum
    them, so all three give the same bits."""
    rows = max(1, BLOCK_PAIRS // max(1, len(Q)))
    Pt, Qt = P.T, np.ascontiguousarray(Q.T)
    nearest = np.empty(len(P))
    for lo in range(0, len(P), rows):
        nearest[lo:lo + rows] = squared_distances(Pt[:, lo:lo + rows, None], Qt).min(axis=1)
    return np.sqrt(nearest)


def squared_distances(X, Y) -> np.ndarray:
    """|x - y|^2 of points given as arrays of their coordinates, X[k] and Y[k]
    for axis k, broadcast together: the squared differences summed one axis
    at a time from the first."""
    diff = X[0] - Y[0]
    total = diff * diff
    for x, y in zip(X[1:], Y[1:]):
        np.subtract(x, y, out=diff)
        total += np.multiply(diff, diff, out=diff)
    return total


# ---------------------------------------------------------------------------
# scene builders


def livshits_scene(
    semi_axes=(4.2, 2.7),
    wall_thickness=2.2,
    smoothing_radius=0.2,
    ball_radius=10.0,
    deformation=0.0,
    name=None,
):
    """Two-dimensional cavity scene with a half-ellipse mirror.

    The obstacle boundary contains the exact upper half of the ellipse with
    the given semi-axes; straight walls drop from its endpoints, and smooth
    humps rise to touch the major axis exactly at the two foci. Rays entering
    the cavity through the open focal gap reflect on the mirror and leave
    through the gap again, so the wall pockets behind the foci are invisible
    to every scattering ray. `deformation` bulges the right wall into the
    obstacle body by that amount, entirely inside the invisible pocket;
    a deformed scene has identical lens data but a different boundary.

    Returns (scene, foci) with foci of shape (2, 2).
    """
    A, B = float(semi_axes[0]), float(semi_axes[1])
    tau = float(wall_thickness)
    rho = float(smoothing_radius)
    a = float(ball_radius)
    delta = float(deformation)
    if not (A > B > 0):
        raise InvalidParameters("need semi-major > semi-minor > 0")
    if rho <= 0:
        raise InvalidParameters("smoothing radius must be positive")
    c = math.sqrt(A * A - B * B)
    if rho >= 2.0 * c:
        raise InvalidParameters("smoothing radius must be smaller than the focal gap")
    D = A - c
    if D <= 3.0 * rho:
        raise InvalidParameters("focal offset A - c too small for the smoothing radius")
    if tau <= 3.0 * rho:
        raise InvalidParameters("wall thickness too small for the smoothing radius")
    if delta < 0:
        raise InvalidParameters("deformation must be non-negative")

    r_out = 1.35 * max(A, B, tau)
    if r_out > 0.85 * a:
        raise InvalidParameters("obstacle does not fit strictly inside the ball")
    if A + delta > math.sqrt(max(r_out**2 - (0.5 * tau) ** 2, 0.0)) - 2.0 * rho:
        raise InvalidParameters("deformation would reach the outer boundary")

    r_flare = 2.0 * rho
    x_f = c - rho + r_flare
    if r_out - r_flare <= x_f:
        raise InvalidParameters("outer radius too small for the channel flare")
    y_f = -math.sqrt((r_out - r_flare) ** 2 - x_f**2)
    if y_f > -rho - 0.05 * tau:
        raise InvalidParameters("channel too short; increase the outer radius or reduce walls")

    u = np.array([x_f, y_f]) / (r_out - r_flare)
    theta_r = math.atan2(u[1], u[0])            # right outer tangency angle
    theta_l = math.pi - theta_r                 # left outer tangency angle

    right = [
        BumpLinePiece((A, 0.0), (A, -(tau - rho)), delta, (1.0, 0.0)),
        ArcPiece((A - rho, -(tau - rho)), rho, 0.0, -0.5 * math.pi),
        LinePiece((A - rho, -tau), (c + 2.0 * rho, -tau)),
        ArcPiece((c + 2.0 * rho, -(tau - rho)), rho, -0.5 * math.pi, -math.pi),
        LinePiece((c + rho, -(tau - rho)), (c + rho, -rho)),
        ArcPiece((c, -rho), rho, 0.0, math.pi),
        LinePiece((c - rho, -rho), (c - rho, y_f)),
        ArcPiece((x_f, y_f), r_flare, math.pi, theta_r + 2.0 * math.pi),
    ]
    outer = ArcPiece((0.0, 0.0), r_out, theta_r, theta_l)

    def mirror_reversed(piece):
        if isinstance(piece, LinePiece):
            return LinePiece(piece.p1 * np.array([-1.0, 1.0]), piece.p0 * np.array([-1.0, 1.0]))
        if isinstance(piece, BumpLinePiece):
            return BumpLinePiece(
                piece.p1 * np.array([-1.0, 1.0]),
                piece.p0 * np.array([-1.0, 1.0]),
                0.0,
                piece.direction * np.array([-1.0, 1.0]),
            )
        assert isinstance(piece, ArcPiece)
        return ArcPiece(
            piece.center * np.array([-1.0, 1.0]),
            piece.radius,
            math.pi - piece.theta1,
            math.pi - piece.theta0,
        )

    left = [mirror_reversed(p) for p in reversed(right)]
    mirror_arc = EllipseArcPiece((0.0, 0.0), (A, B), math.pi, 0.0)
    chain = CurveChain([mirror_arc, *right, outer, *left])
    obstacle = CurveObstacle(chain)
    if name is None:
        name = "livshits" if delta == 0.0 else f"livshits-deformed-{delta:g}"
    scene = Scene(2, a, (obstacle,), name)
    foci = np.array([[-c, 0.0], [c, 0.0]])
    return scene, foci


def concave_mirror_obstacle(focus_point, radius, half_angle, thickness, axis_direction):
    """Crescent obstacle whose concave inner arc has its centre of curvature
    at `focus_point`: every ray from that point hits the mirror normally."""
    C = np.asarray(focus_point, dtype=float)
    r = float(radius)
    beta = float(half_angle)
    w = float(thickness)
    if r <= 0 or w <= 0 or not (0 < beta < math.pi / 2):
        raise InvalidParameters("need radius > 0, thickness > 0, 0 < half_angle < pi/2")
    d = np.asarray(axis_direction, dtype=float)
    d = d / math.sqrt(_dot(d, d))
    phi = math.atan2(d[1], d[0])
    phi0, phi1 = phi - beta, phi + beta
    m0 = C + (r + 0.5 * w) * np.array([math.cos(phi0), math.sin(phi0)])
    m1 = C + (r + 0.5 * w) * np.array([math.cos(phi1), math.sin(phi1)])
    pieces = [
        ArcPiece(C, r, phi0, phi1),
        ArcPiece(m1, 0.5 * w, phi1 + math.pi, phi1),
        ArcPiece(C, r + w, phi1, phi0),
        ArcPiece(m0, 0.5 * w, phi0, phi0 - math.pi),
    ]
    return CurveObstacle(CurveChain(pieces))
