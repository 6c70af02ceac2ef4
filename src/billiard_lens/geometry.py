"""Obstacle and scene geometry.

Obstacles are implicit level sets F(x) = 0 with analytic first and second
derivatives: F < 0 strictly inside, F > 0 outside, so the gradient points
from the obstacle into the free region. Scenes collect disjoint obstacles
inside a reference ball of radius `ball_radius` whose boundary sphere is the
measurement surface for all lens data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .curves import (
    ArcPiece,
    BumpLinePiece,
    CurveChain,
    EllipseArcPiece,
    LinePiece,
    _stable_quadratic,
    piece_from_dict,
)


class InvalidParameters(ValueError):
    """Constructor arguments outside the supported family."""


class SchemaError(ValueError):
    """Scene JSON does not match the expected schema."""


class SingularGradient(RuntimeError):
    """Implicit gradient below the validated floor at a boundary point."""


class ValidationFailed(RuntimeError):
    def __init__(self, reason: str, message: str):
        super().__init__(f"{reason}: {message}")
        self.reason = reason


_GRAD_FLOOR = 1e-10
_BOUNDARY_TOL = 1e-6  # relative to the obstacle bounding radius


# ---------------------------------------------------------------------------
# canonical serialization + hashing


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats with 17 significant digits."""
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
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


# ---------------------------------------------------------------------------
# frames


def tangent_basis(normal: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the plane orthogonal to `normal`,
    returned as an (n, n-1) matrix of columns."""
    n = np.asarray(normal, dtype=float)
    if n.shape[0] == 2:
        return np.array([[-n[1]], [n[0]]])
    k = int(np.argmin(np.abs(n)))
    h = np.zeros(3)
    h[k] = 1.0
    e1 = np.cross(h, n)
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    return np.column_stack([e1, e2])


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
        return self.tangent @ self.shape @ self.tangent.T


# ---------------------------------------------------------------------------
# obstacles


def _rotation_matrix(dim: int, rotation) -> np.ndarray:
    if rotation is None:
        return np.eye(dim)
    R = np.asarray(rotation, dtype=float)
    if R.size != dim * dim:
        raise InvalidParameters(f"rotation must have {dim * dim} entries")
    R = R.reshape(dim, dim)
    if not np.allclose(R @ R.T, np.eye(dim), atol=1e-9):
        raise InvalidParameters("rotation matrix is not orthonormal")
    return R


class Obstacle:
    kind = "obstacle"

    def __init__(self, center, dim):
        self.center = np.asarray(center, dtype=float)
        self.dim = int(dim)
        if self.center.shape != (self.dim,):
            raise InvalidParameters("center has wrong dimension")

    # -- implicit data -----------------------------------------------------
    def implicit(self, x) -> float:
        raise NotImplementedError

    def implicit_batch(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.array([self.implicit(x) for x in X])

    def gradient(self, x) -> np.ndarray:
        raise NotImplementedError

    def implicit_grad(self, x):
        """(F, grad F) in one query; overridden where a fused query is cheaper."""
        return self.implicit(x), self.gradient(x)

    def hessian(self, x) -> np.ndarray:
        raise NotImplementedError

    def frame_at(self, x) -> SurfaceFrame:
        x = np.asarray(x, dtype=float)
        g = self.gradient(x)
        gn = float(np.linalg.norm(g))
        if gn < _GRAD_FLOOR * max(1.0, self.bounding_radius()):
            raise SingularGradient(f"|grad F| = {gn:g} at {x}")
        normal = g / gn
        T = tangent_basis(normal)
        S = T.T @ self.hessian(x) @ T / gn
        return SurfaceFrame(x, normal, 0.5 * (S + S.T), T)

    # -- extents -----------------------------------------------------------
    def bounding_radius(self) -> float:
        raise NotImplementedError

    def bounding_center(self) -> np.ndarray:
        return self.center

    def boundary_points(self, target: int) -> np.ndarray:
        raise NotImplementedError

    # -- ray intersection --------------------------------------------------
    def ray_roots(self, q, v):
        """Sorted parameters t of every crossing of the line q + t v with the
        boundary, exact up to rounding: no step size, so no feature is too
        thin to be seen."""
        raise NotImplementedError

    def params_dict(self) -> dict:
        raise NotImplementedError

    def rotation_list(self):
        return None


class SphereObstacle(Obstacle):
    """Ball in dimension n with F(x) = |x - c|^2 - r^2."""

    kind = "sphere"

    def __init__(self, center, radius):
        center = np.atleast_1d(np.asarray(center, dtype=float))
        super().__init__(center, center.shape[0])
        self.radius = float(radius)

    def implicit(self, x):
        d = np.asarray(x, dtype=float) - self.center
        return float(d @ d - self.radius**2)

    def implicit_batch(self, X):
        d = np.atleast_2d(np.asarray(X, dtype=float)) - self.center
        return np.sum(d * d, axis=1) - self.radius**2

    def gradient(self, x):
        return 2.0 * (np.asarray(x, dtype=float) - self.center)

    def hessian(self, x):
        return 2.0 * np.eye(self.dim)

    def bounding_radius(self):
        return self.radius

    def ray_roots(self, q, v):
        d = q - self.center
        b = 2.0 * float(d @ v)
        c = float(d @ d) - self.radius**2
        return _stable_quadratic(1.0, b, c)

    def boundary_points(self, target):
        if self.radius <= 0:
            return np.tile(self.center, (max(1, target), 1))
        if self.dim == 2:
            t = 2.0 * np.pi * np.arange(target) / max(1, target)
            return self.center + self.radius * np.column_stack([np.cos(t), np.sin(t)])
        return self.center + self.radius * _lat_band_sphere(target)

    def params_dict(self):
        return {"radius": self.radius}


def _lat_band_sphere(target: int) -> np.ndarray:
    """Roughly equal-area unit-sphere points on latitude bands (pole rows included)."""
    n_bands = max(2, int(round(math.sqrt(target))))
    pts = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]
    for k in range(n_bands):
        z = 1.0 - 2.0 * (k + 0.5) / n_bands
        rho = math.sqrt(max(0.0, 1.0 - z * z))
        m = max(4, int(round(target * rho / n_bands)))
        phi = 2.0 * np.pi * np.arange(m) / m
        pts.append(np.column_stack([rho * np.cos(phi), rho * np.sin(phi), np.full(m, z)]))
    return np.vstack([np.atleast_2d(p) for p in pts])


class EllipsoidObstacle(Obstacle):
    """Ellipsoid with F(x) = (x-c)^T M (x-c) - 1, M = R diag(1/a_i^2) R^T."""

    kind = "ellipsoid"

    def __init__(self, center, semi_axes, rotation=None):
        center = np.atleast_1d(np.asarray(center, dtype=float))
        super().__init__(center, center.shape[0])
        self.semi_axes = np.atleast_1d(np.asarray(semi_axes, dtype=float))
        if self.semi_axes.shape != (self.dim,):
            raise InvalidParameters("semi_axes has wrong dimension")
        self.rotation = _rotation_matrix(self.dim, rotation)
        self._has_rotation = rotation is not None
        with np.errstate(divide="ignore"):
            diag = np.where(self.semi_axes > 0, 1.0 / self.semi_axes**2, np.inf)
        diag = np.where(np.isfinite(diag), diag, 1e300)
        self._M = self.rotation @ np.diag(diag) @ self.rotation.T

    def implicit(self, x):
        d = np.asarray(x, dtype=float) - self.center
        return float(d @ self._M @ d - 1.0)

    def implicit_batch(self, X):
        d = np.atleast_2d(np.asarray(X, dtype=float)) - self.center
        return np.einsum("ni,ij,nj->n", d, self._M, d) - 1.0

    def gradient(self, x):
        d = np.asarray(x, dtype=float) - self.center
        return 2.0 * (self._M @ d)

    def hessian(self, x):
        return 2.0 * self._M

    def bounding_radius(self):
        return float(np.max(self.semi_axes))

    def ray_roots(self, q, v):
        d = q - self.center
        a = float(v @ self._M @ v)
        b = 2.0 * float(d @ self._M @ v)
        c = float(d @ self._M @ d) - 1.0
        return _stable_quadratic(a, b, c)

    def boundary_points(self, target):
        if self.dim == 2:
            t = 2.0 * np.pi * np.arange(target) / max(1, target)
            body = np.column_stack([self.semi_axes[0] * np.cos(t), self.semi_axes[1] * np.sin(t)])
        else:
            u = _lat_band_sphere(target)
            body = u * self.semi_axes
        return self.center + body @ self.rotation.T

    def params_dict(self):
        return {"semi_axes": list(self.semi_axes)}

    def rotation_list(self):
        return list(self.rotation.reshape(-1)) if self._has_rotation else None


class SuperellipsoidObstacle(Obstacle):
    """Superellipsoid F = sum |y_i/a_i|^p - 1 in body coordinates y = R^T (x-c).

    Exponent p >= 4 keeps the boundary C^3; nearly flat faces appear for large p.
    """

    kind = "superellipsoid"

    def __init__(self, center, semi_axes, exponent, rotation=None):
        center = np.atleast_1d(np.asarray(center, dtype=float))
        super().__init__(center, center.shape[0])
        self.semi_axes = np.atleast_1d(np.asarray(semi_axes, dtype=float))
        if self.semi_axes.shape != (self.dim,):
            raise InvalidParameters("semi_axes has wrong dimension")
        if np.any(self.semi_axes <= 0):
            raise InvalidParameters("semi_axes must be positive")
        self.exponent = float(exponent)
        if self.exponent < 4.0:
            raise InvalidParameters("superellipsoid exponent must be >= 4 (use ellipsoid below)")
        self.rotation = _rotation_matrix(self.dim, rotation)
        self._has_rotation = rotation is not None

    def _body(self, x):
        return self.rotation.T @ (np.asarray(x, dtype=float) - self.center)

    def implicit(self, x):
        y = self._body(x)
        return float(np.sum(np.abs(y / self.semi_axes) ** self.exponent) - 1.0)

    def implicit_batch(self, X):
        d = np.atleast_2d(np.asarray(X, dtype=float)) - self.center
        y = d @ self.rotation
        return np.sum(np.abs(y / self.semi_axes) ** self.exponent, axis=1) - 1.0

    def gradient(self, x):
        y = self._body(x)
        p = self.exponent
        gy = (p / self.semi_axes) * np.abs(y / self.semi_axes) ** (p - 1.0) * np.sign(y)
        return self.rotation @ gy

    def hessian(self, x):
        y = self._body(x)
        p = self.exponent
        hy = (p * (p - 1.0) / self.semi_axes**2) * np.abs(y / self.semi_axes) ** (p - 2.0)
        return self.rotation @ np.diag(hy) @ self.rotation.T

    def bounding_radius(self):
        return float(np.linalg.norm(self.semi_axes))

    def ray_roots(self, q, v):
        # the gauge |R^T(x-c)/a|_p - 1 is convex along the ray, so Newton from
        # either end of the bounding-sphere chord converges monotonically to
        # the entry or exit root; a slope turning away first means a miss
        d = q - self.center
        ends = _stable_quadratic(1.0, 2.0 * float(d @ v), float(d @ d) - self.bounding_radius()**2)
        if not ends:
            return []
        y = (d @ self.rotation / self.semi_axes).tolist()
        w = (v @ self.rotation / self.semi_axes).tolist()
        p = self.exponent
        roots = []
        for t, toward in ((ends[0], 1.0), (ends[1], -1.0)):
            for _ in range(100):
                u = [yi + t * wi for yi, wi in zip(y, w)]
                s = sum(abs(ui) ** p for ui in u)
                gauge = s ** (1.0 / p)
                if gauge <= 1.0:
                    break
                slope = gauge / s * sum(math.copysign(abs(ui) ** (p - 1.0), ui) * wi
                                        for ui, wi in zip(u, w))
                if slope * toward >= 0.0:
                    return []
                t_next = t - (gauge - 1.0) / slope
                if t_next == t:
                    break
                t = t_next
            roots.append(t)
        return sorted(roots)

    def boundary_points(self, target):
        e = 2.0 / self.exponent

        def spow(t, ex):
            return np.sign(t) * np.abs(t) ** ex

        if self.dim == 2:
            k = max(8, target // 4 * 4)
            t = 2.0 * np.pi * np.arange(k) / k
            body = np.column_stack(
                [self.semi_axes[0] * spow(np.cos(t), e), self.semi_axes[1] * spow(np.sin(t), e)]
            )
        else:
            nu = max(5, int(round(math.sqrt(target / 2))) | 1)
            nv = max(8, (target // nu) // 4 * 4)
            u = np.linspace(-np.pi / 2, np.pi / 2, nu)
            v = 2.0 * np.pi * np.arange(nv) / nv
            uu, vv = np.meshgrid(u, v, indexing="ij")
            cu, su = spow(np.cos(uu), e), spow(np.sin(uu), e)
            body = np.column_stack(
                [
                    (self.semi_axes[0] * cu * spow(np.cos(vv), e)).ravel(),
                    (self.semi_axes[1] * cu * spow(np.sin(vv), e)).ravel(),
                    (self.semi_axes[2] * su * np.ones_like(vv)).ravel(),
                ]
            )
        return self.center + body @ self.rotation.T

    def params_dict(self):
        return {"semi_axes": list(self.semi_axes), "exponent": self.exponent}

    def rotation_list(self):
        return list(self.rotation.reshape(-1)) if self._has_rotation else None


class CurveObstacle(Obstacle):
    """2D obstacle bounded by a closed C^1 chain of analytic curve pieces.

    The implicit value is the signed distance to the chain (negative inside),
    so the gradient has unit length and the shape operator is the signed
    boundary curvature seen from the free side.
    """

    kind = "curve2d"

    def __init__(self, pieces, check=True):
        self.chain = pieces if isinstance(pieces, CurveChain) else CurveChain(pieces, check=check)
        center, _ = self.chain.bounding_circle()
        super().__init__(center, 2)

    def implicit(self, x):
        return float(self.chain.closest_batch(np.asarray(x, dtype=float)[None, :]).signed[0])

    def implicit_batch(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty(X.shape[0])
        for lo in range(0, X.shape[0], 4096):
            out[lo : lo + 4096] = self.chain.closest_batch(X[lo : lo + 4096]).signed
        return out

    def gradient(self, x):
        return self.implicit_grad(x)[1]

    def implicit_grad(self, x):
        # the signed-distance gradient of a C^1 chain is the foot normal on both sides
        fd = self.chain.closest_batch(np.asarray(x, dtype=float)[None, :])
        return float(fd.signed[0]), fd.normal[0].copy()

    def hessian(self, x):
        fd = self.chain.closest_batch(np.asarray(x, dtype=float)[None, :])
        t = fd.tangent[0]
        return fd.shape[0] * np.outer(t, t)

    def frame_at(self, x):
        x = np.asarray(x, dtype=float)
        fd = self.chain.closest_batch(x[None, :])
        t = fd.tangent[0]
        return SurfaceFrame(x, fd.normal[0].copy(), np.array([[fd.shape[0]]]), t[:, None])

    def frames_batch(self, X):
        """Vectorised (normals, shape values) for validation sampling."""
        fd = self.chain.closest_batch(np.atleast_2d(np.asarray(X, dtype=float)))
        return fd.normal, fd.shape

    def bounding_radius(self):
        return self.chain.bounding_circle()[1]

    def bounding_center(self):
        return self.chain.bounding_circle()[0]

    def ray_roots(self, q, v):
        return self.chain.ray_roots(q, v)

    def boundary_points(self, target):
        return self.chain.sample_points(target)

    def params_dict(self):
        return {"pieces": self.chain.to_dicts()}


# ---------------------------------------------------------------------------
# the [OP] surface: implicit_value / surface_frame


def implicit_value(obstacle: Obstacle, point) -> float:
    """Signed implicit value: negative inside, zero on the boundary, positive outside."""
    return obstacle.implicit(np.asarray(point, dtype=float))


def surface_frame(obstacle: Obstacle, point) -> SurfaceFrame:
    """Unit normal into the free region and shape operator at a boundary point.

    Raises SingularGradient below the gradient floor and ValueError when the
    point is not on the boundary (within 1e-6 of the obstacle scale).
    """
    x = np.asarray(point, dtype=float)
    frame = obstacle.frame_at(x)
    dist_est = abs(obstacle.implicit(x)) / max(
        float(np.linalg.norm(obstacle.gradient(x))), _GRAD_FLOOR
    )
    if dist_est > _BOUNDARY_TOL * max(1.0, obstacle.bounding_radius()):
        raise ValueError(f"point {x} is not on the obstacle boundary (distance ~ {dist_est:g})")
    return frame


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
        if self.ball_radius <= 0:
            raise InvalidParameters("ball_radius must be positive")
        for obs in self.obstacles:
            if obs.dim != self.dimension:
                raise InvalidParameters("obstacle dimension does not match scene")


def make_scene(dimension, ball_radius, obstacles, name="scene") -> Scene:
    return Scene(int(dimension), float(ball_radius), tuple(obstacles), str(name))


_OBSTACLE_PARAM_KEYS = {
    "sphere": {"radius"},
    "ellipsoid": {"semi_axes"},
    "superellipsoid": {"semi_axes", "exponent"},
    "curve2d": {"pieces"},
}


def obstacle_to_dict(obs: Obstacle) -> dict:
    out = {"kind": obs.kind, "center": [float(c) for c in obs.center], "params": obs.params_dict()}
    rot = obs.rotation_list()
    if rot is not None:
        out["rotation"] = rot
    return out


def obstacle_from_dict(d: dict, dimension: int) -> Obstacle:
    if not isinstance(d, dict):
        raise SchemaError("obstacle entry must be an object")
    keys = set(d)
    if not {"kind", "center", "params"} <= keys:
        raise SchemaError("obstacle requires kind, center and params")
    extra = keys - {"kind", "center", "params", "rotation"}
    if extra:
        raise SchemaError(f"unknown obstacle keys {sorted(extra)}")
    kind = d["kind"]
    if kind not in _OBSTACLE_PARAM_KEYS:
        raise SchemaError(f"unknown obstacle kind {kind!r}")
    params = d["params"]
    if set(params) != _OBSTACLE_PARAM_KEYS[kind]:
        raise SchemaError(
            f"params for {kind} must be exactly {sorted(_OBSTACLE_PARAM_KEYS[kind])}"
        )
    rotation = d.get("rotation")
    center = d["center"]
    if len(center) != dimension:
        raise SchemaError("obstacle center dimension mismatch")
    try:
        if kind == "sphere":
            if rotation is not None:
                raise SchemaError("rotation is meaningless for a sphere")
            return SphereObstacle(center, params["radius"])
        if kind == "ellipsoid":
            return EllipsoidObstacle(center, params["semi_axes"], rotation)
        if kind == "superellipsoid":
            return SuperellipsoidObstacle(center, params["semi_axes"], params["exponent"], rotation)
        if rotation is not None:
            raise SchemaError("rotation is not supported for curve2d (bake it into the pieces)")
        if dimension != 2:
            raise SchemaError("curve2d obstacles require a 2D scene")
        return CurveObstacle([piece_from_dict(p) for p in params["pieces"]])
    except InvalidParameters as exc:
        raise SchemaError(str(exc)) from exc


def scene_to_dict(scene: Scene) -> dict:
    return {
        "dimension": scene.dimension,
        "ball_radius": scene.ball_radius,
        "obstacles": [obstacle_to_dict(o) for o in scene.obstacles],
        "name": scene.name,
    }


def scene_from_dict(d: dict) -> Scene:
    if not isinstance(d, dict):
        raise SchemaError("scene must be a JSON object")
    required = {"dimension", "ball_radius", "obstacles", "name"}
    if set(d) != required:
        missing = required - set(d)
        extra = set(d) - required
        parts = []
        if missing:
            parts.append(f"missing keys {sorted(missing)}")
        if extra:
            parts.append(f"unknown keys {sorted(extra)}")
        raise SchemaError("; ".join(parts))
    dim = d["dimension"]
    if dim not in (2, 3):
        raise SchemaError("dimension must be 2 or 3")
    obstacles = [obstacle_from_dict(o, dim) for o in d["obstacles"]]
    try:
        return Scene(int(dim), float(d["ball_radius"]), tuple(obstacles), str(d["name"]))
    except InvalidParameters as exc:
        raise SchemaError(str(exc)) from exc


def scene_to_json(scene: Scene) -> str:
    return canonical_json(scene_to_dict(scene))


def scene_from_json(text: str) -> Scene:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return scene_from_dict(data)


def scene_hash(scene: Scene) -> str:
    """64-bit FNV-1a of the canonical scene JSON, as 16 hex digits."""
    return format(fnv1a64(scene_to_json(scene).encode("utf-8")), "016x")


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    obstacle_count: int
    pairwise_gap_min: float | None
    containment_margin: float
    min_gradient_norm: float
    curvature_min: float
    curvature_max: float
    flatness_flag: bool
    flagged_nonconvex: bool
    exterior_connected: bool | None
    notes: list = field(default_factory=list)

    def to_dict(self):
        return {
            "obstacle_count": self.obstacle_count,
            "pairwise_gap_min": self.pairwise_gap_min,
            "containment_margin": self.containment_margin,
            "min_gradient_norm": self.min_gradient_norm,
            "curvature_min": self.curvature_min,
            "curvature_max": self.curvature_max,
            "flatness_flag": self.flatness_flag,
            "flagged_nonconvex": self.flagged_nonconvex,
            "exterior_connected": self.exterior_connected,
            "notes": list(self.notes),
        }


def _check_obstacle_parameters(obs: Obstacle):
    if isinstance(obs, SphereObstacle) and obs.radius <= 0:
        raise ValidationFailed("obstacle_parameters", "sphere radius must be positive")
    if isinstance(obs, EllipsoidObstacle) and np.any(obs.semi_axes <= 0):
        raise ValidationFailed("obstacle_parameters", "ellipsoid semi-axes must be positive")


def _sample_frames(obs: Obstacle, pts: np.ndarray):
    """(min gradient norm, principal curvature array (N, n-1)) over sample points."""
    if isinstance(obs, CurveObstacle):
        _, shape = obs.frames_batch(pts)
        return 1.0, shape[:, None]
    grads = np.array([np.linalg.norm(obs.gradient(p)) for p in pts])
    curv = []
    for p in pts:
        frame = obs.frame_at(p)
        curv.append(np.linalg.eigvalsh(frame.shape))
    return float(np.min(grads)), np.array(curv)


def _exterior_connected(scene: Scene) -> bool:
    from scipy import ndimage

    a = scene.ball_radius
    cells = 400 if scene.dimension == 2 else 128  # resolution a/200 in 2D, a/64 in 3D
    step = 2.0 * a / cells
    axes = [(-a + (np.arange(cells) + 0.5) * step) for _ in range(scene.dimension)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    inside_ball = np.sum(pts * pts, axis=1) < (a - 0.5 * step) ** 2
    free = inside_ball.copy()
    for obs in scene.obstacles:
        mask = free.copy()
        vals = np.empty(np.count_nonzero(mask))
        sel = pts[mask]
        for lo in range(0, sel.shape[0], 262144):
            vals[lo : lo + 262144] = obs.implicit_batch(sel[lo : lo + 262144])
        keep = vals > 0.0
        idx = np.where(mask)[0]
        free[idx[~keep]] = False
    shape = (cells,) * scene.dimension
    labels, count = ndimage.label(free.reshape(shape))
    return int(count) <= 1


def validate_scene(scene: Scene, samples_per_obstacle: int | None = None,
                   connectivity: bool = True) -> ValidationReport:
    """Numerical scene validation.

    Raises ValidationFailed (with the first violated invariant) for hard
    failures: bad obstacle parameters, obstacle outside the ball, overlapping
    obstacles, a singular boundary gradient, or a disconnected exterior. The
    flatness flag and the class-convexity diagnostic are reported, not raised.
    """
    a = scene.ball_radius
    if samples_per_obstacle is None:
        samples_per_obstacle = 512 if scene.dimension == 2 else 900

    for obs in scene.obstacles:
        _check_obstacle_parameters(obs)

    clouds = [obs.boundary_points(samples_per_obstacle) for obs in scene.obstacles]

    containment_margin = a
    for obs, cloud in zip(scene.obstacles, clouds):
        max_norm = float(np.max(np.linalg.norm(cloud, axis=1))) if cloud.size else 0.0
        containment_margin = min(containment_margin, a - max_norm)
        if max_norm >= a * (1.0 - 1e-9):
            raise ValidationFailed(
                "containment", f"obstacle {obs.kind} reaches {max_norm:g} >= ball radius {a:g}"
            )

    gap_min = None
    for i in range(len(clouds)):
        for j in range(i + 1, len(clouds)):
            # a boundary sample of one obstacle inside the other is an overlap
            cross = min(
                float(np.min(scene.obstacles[i].implicit_batch(clouds[j]))),
                float(np.min(scene.obstacles[j].implicit_batch(clouds[i]))),
            )
            d = _min_cloud_distance(clouds[i], clouds[j])
            gap_min = d if gap_min is None else min(gap_min, d)
            if cross < 0.0 or d <= 1e-6 * a:
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
        g_min, curv = _sample_frames(obs, cloud)
        min_grad = min(min_grad, g_min)
        curv_min = min(curv_min, float(np.min(curv)))
        curv_max = max(curv_max, float(np.max(curv)))
        flagged = np.max(np.abs(curv), axis=1) < flat_thr
        if np.any(flagged):
            flat_flag = True
            notes.append(f"{obs.kind}: {int(np.count_nonzero(flagged))} flat boundary samples")
            # class proxy: flat patches must sit in convex neighbourhoods
            radius = 0.05 * max(obs.bounding_radius(), 1e-12)
            kmin = np.min(curv, axis=1)
            for k in np.where(flagged)[0]:
                near = np.linalg.norm(cloud - cloud[k], axis=1) < radius
                if np.any(kmin[near] < -flat_thr):
                    flagged_nonconvex = True
                    break
    if min_grad < _GRAD_FLOOR * max(1.0, a):
        raise ValidationFailed("gradient_floor", f"boundary gradient norm {min_grad:g} too small")

    connected = None
    if connectivity:
        connected = _exterior_connected(scene)
        if not connected:
            raise ValidationFailed("exterior_disconnected", "free region splits into components")

    if flagged_nonconvex:
        notes.append("flat patches adjoin concave boundary (fails the generic-obstacle proxy)")

    return ValidationReport(
        obstacle_count=len(scene.obstacles),
        pairwise_gap_min=gap_min,
        containment_margin=containment_margin,
        min_gradient_norm=float(min_grad) if np.isfinite(min_grad) else float("nan"),
        curvature_min=float(curv_min) if np.isfinite(curv_min) else float("nan"),
        curvature_max=float(curv_max) if np.isfinite(curv_max) else float("nan"),
        flatness_flag=flat_flag,
        flagged_nonconvex=flagged_nonconvex,
        exterior_connected=connected,
        notes=notes,
    )


def _min_cloud_distance(A: np.ndarray, B: np.ndarray) -> float:
    best = np.inf
    for lo in range(0, A.shape[0], 2048):
        chunk = A[lo : lo + 2048]
        d2 = np.sum((chunk[:, None, :] - B[None, :, :]) ** 2, axis=2)
        best = min(best, float(np.sqrt(np.min(d2))))
    return best


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
    d = d / np.linalg.norm(d)
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
