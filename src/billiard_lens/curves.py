"""Piecewise analytic closed curves in the plane.

A CurveChain is an ordered list of C^1-joined parametric pieces forming one
simple closed boundary. It answers closest-point queries (vectorised), from
which the owning obstacle derives a signed distance field, boundary normals
and the signed curvature seen from the free side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_COARSE = 33  # samples per piece for the coarse closest-point pass
_JOIN_OVERLAP = 1e-12  # pieces overlap by this much parameter at joins, so rounding drops no root


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


def _circle_roots(p, w, radius, theta0, sweep):
    """Ray parameters t where p + t w meets the arc of the circle of given radius
    about the origin from angle theta0 through sweep. The quadratic is solved
    about the ray point nearest the centre, so a small arc far from p keeps
    its precision."""
    ww = float(w @ w)
    t0 = -float(p @ w) / ww
    p = p + t0 * w
    mid, half = theta0 + 0.5 * sweep, 0.5 * abs(sweep) + _JOIN_OVERLAP
    roots = []
    for s in _stable_quadratic(ww, 2.0 * float(p @ w), float(p @ p) - radius * radius):
        x = p + s * w
        if abs((math.atan2(x[1], x[0]) - mid + math.pi) % (2.0 * math.pi) - math.pi) <= half:
            roots.append(t0 + s)
    return roots


def _rot90(v):
    # (x, y) -> (-y, x)
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


class CurvePiece:
    """Base class: parametric map [0,1] -> R^2 with two derivatives."""

    kind = "piece"

    def point(self, s):
        raise NotImplementedError

    def deriv(self, s):
        raise NotImplementedError

    def deriv2(self, s):
        raise NotImplementedError

    def start(self):
        return self.point(np.array(0.0))

    def end(self):
        return self.point(np.array(1.0))

    def to_dict(self) -> dict:
        raise NotImplementedError

    def ray_roots(self, q, v):
        """Parameters t where the line q + t v crosses the piece."""
        raise NotImplementedError

    def project(self, X, s0):
        """Per-piece parameter of the nearest point; default is safeguarded Newton."""
        s = np.clip(np.asarray(s0, dtype=float), 0.0, 1.0)
        for _ in range(14):
            g = self.point(s)
            g1 = self.deriv(s)
            g2 = self.deriv2(s)
            r = X - g
            f = np.sum(r * g1, axis=-1)
            fp = -np.sum(g1 * g1, axis=-1) + np.sum(r * g2, axis=-1)
            step = np.where(np.abs(fp) > 1e-300, f / fp, 0.0)
            step = np.clip(step, -0.25, 0.25)
            s = np.clip(s - step, 0.0, 1.0)
            if np.max(np.abs(step)) < 1e-12:
                break
        return s


class LinePiece(CurvePiece):
    kind = "line"

    def __init__(self, p0, p1):
        self.p0 = np.asarray(p0, dtype=float)
        self.p1 = np.asarray(p1, dtype=float)
        self._d = self.p1 - self.p0

    def point(self, s):
        return self.p0 + np.multiply.outer(s, self._d)

    def deriv(self, s):
        return np.broadcast_to(self._d, np.shape(s) + (2,)).copy()

    def deriv2(self, s):
        return np.zeros(np.shape(s) + (2,))

    def ray_roots(self, q, v):
        # q + t v = p0 + s d, solved by 2D cross products
        w, d = self.p0 - q, self._d
        det = float(v[0] * d[1] - v[1] * d[0])
        if det == 0.0:
            return []
        s = float(w[0] * v[1] - w[1] * v[0]) / det
        if not -_JOIN_OVERLAP <= s <= 1.0 + _JOIN_OVERLAP:
            return []
        return [float(w[0] * d[1] - w[1] * d[0]) / det]

    def to_dict(self):
        return {"type": "line", "p0": list(self.p0), "p1": list(self.p1)}


class BumpLinePiece(CurvePiece):
    """Line segment with a smooth sin^2 bump of given amplitude along a fixed direction.

    Amplitude 0 degenerates to the plain segment; the bump and its first
    derivative vanish at both endpoints, so C^1 joins are preserved.
    """

    kind = "bump_line"

    def __init__(self, p0, p1, amplitude, direction):
        self.p0 = np.asarray(p0, dtype=float)
        self.p1 = np.asarray(p1, dtype=float)
        self.amplitude = float(amplitude)
        d = np.asarray(direction, dtype=float)
        self.direction = d / np.linalg.norm(d)
        self._d = self.p1 - self.p0

    def point(self, s):
        s = np.asarray(s, dtype=float)
        base = self.p0 + np.multiply.outer(s, self._d)
        return base + np.multiply.outer(self.amplitude * np.sin(np.pi * s) ** 2, self.direction)

    def deriv(self, s):
        s = np.asarray(s, dtype=float)
        out = np.broadcast_to(self._d, np.shape(s) + (2,)).copy()
        out += np.multiply.outer(self.amplitude * np.pi * np.sin(2.0 * np.pi * s), self.direction)
        return out

    def deriv2(self, s):
        s = np.asarray(s, dtype=float)
        return np.multiply.outer(
            self.amplitude * 2.0 * np.pi * np.pi * np.cos(2.0 * np.pi * s), self.direction
        )

    def ray_roots(self, q, v):
        # the offset across the ray, g(s) = alpha + beta s + gamma sin^2(pi s), is
        # monotone between the zeros of g'(s) = beta + gamma pi sin(2 pi s)
        n = np.array([-v[1], v[0]])
        alpha, beta = float(n @ (self.p0 - q)), float(n @ self._d)
        gamma = self.amplitude * float(n @ self.direction)
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

        roots = []
        for lo, hi in zip(knots, knots[1:]):
            g_lo, g_hi = g(lo), g(hi)
            if g_lo * g_hi > 0.0:
                continue
            rising = g_hi > g_lo
            while hi - lo > 1e-15:  # bisection: g is monotone on the bracket
                mid = 0.5 * (lo + hi)
                if (g(mid) > 0.0) == rising:
                    hi = mid
                else:
                    lo = mid
            roots.append(float(v @ (self.point(0.5 * (lo + hi)) - q)))
        return roots

    def to_dict(self):
        return {
            "type": "bump_line",
            "p0": list(self.p0),
            "p1": list(self.p1),
            "amplitude": self.amplitude,
            "direction": list(self.direction),
        }


class ArcPiece(CurvePiece):
    kind = "arc"

    def __init__(self, center, radius, theta0, theta1):
        if radius <= 0:
            raise ValueError("arc radius must be positive")
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.theta0 = float(theta0)
        self.theta1 = float(theta1)
        self._sweep = self.theta1 - self.theta0

    def _theta(self, s):
        return self.theta0 + np.asarray(s, dtype=float) * self._sweep

    def point(self, s):
        th = self._theta(s)
        return self.center + self.radius * np.stack([np.cos(th), np.sin(th)], axis=-1)

    def deriv(self, s):
        th = self._theta(s)
        return self.radius * self._sweep * np.stack([-np.sin(th), np.cos(th)], axis=-1)

    def deriv2(self, s):
        th = self._theta(s)
        return -self.radius * self._sweep**2 * np.stack([np.cos(th), np.sin(th)], axis=-1)

    def ray_roots(self, q, v):
        return _circle_roots(q - self.center, v, self.radius, self.theta0, self._sweep)

    def to_dict(self):
        return {
            "type": "arc",
            "center": list(self.center),
            "radius": self.radius,
            "theta0": self.theta0,
            "theta1": self.theta1,
        }


class EllipseArcPiece(CurvePiece):
    kind = "ellipse_arc"

    def __init__(self, center, semi_axes, theta0, theta1, rotation=0.0):
        self.center = np.asarray(center, dtype=float)
        self.semi_axes = np.asarray(semi_axes, dtype=float)
        if np.any(self.semi_axes <= 0):
            raise ValueError("ellipse semi-axes must be positive")
        self.theta0 = float(theta0)
        self.theta1 = float(theta1)
        self.rotation = float(rotation)
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        self._R = np.array([[c, -s], [s, c]])
        self._sweep = self.theta1 - self.theta0

    def _theta(self, s):
        return self.theta0 + np.asarray(s, dtype=float) * self._sweep

    def point(self, s):
        th = self._theta(s)
        body = np.stack([self.semi_axes[0] * np.cos(th), self.semi_axes[1] * np.sin(th)], axis=-1)
        return self.center + body @ self._R.T

    def deriv(self, s):
        th = self._theta(s)
        body = self._sweep * np.stack(
            [-self.semi_axes[0] * np.sin(th), self.semi_axes[1] * np.cos(th)], axis=-1
        )
        return body @ self._R.T

    def deriv2(self, s):
        th = self._theta(s)
        body = -self._sweep**2 * np.stack(
            [self.semi_axes[0] * np.cos(th), self.semi_axes[1] * np.sin(th)], axis=-1
        )
        return body @ self._R.T

    def ray_roots(self, q, v):
        # a unit-circle arc in scaled body coordinates; t is unchanged by the map
        return _circle_roots((q - self.center) @ self._R / self.semi_axes,
                             v @ self._R / self.semi_axes, 1.0, self.theta0, self._sweep)

    def to_dict(self):
        out = {
            "type": "ellipse_arc",
            "center": list(self.center),
            "semi_axes": list(self.semi_axes),
            "theta0": self.theta0,
            "theta1": self.theta1,
        }
        if self.rotation != 0.0:
            out["rotation"] = self.rotation
        return out


_PIECE_TYPES = {
    "line": lambda d: LinePiece(d["p0"], d["p1"]),
    "bump_line": lambda d: BumpLinePiece(d["p0"], d["p1"], d["amplitude"], d["direction"]),
    "arc": lambda d: ArcPiece(d["center"], d["radius"], d["theta0"], d["theta1"]),
    "ellipse_arc": lambda d: EllipseArcPiece(
        d["center"], d["semi_axes"], d["theta0"], d["theta1"], d.get("rotation", 0.0)
    ),
}

_PIECE_KEYS = {
    "line": {"type", "p0", "p1"},
    "bump_line": {"type", "p0", "p1", "amplitude", "direction"},
    "arc": {"type", "center", "radius", "theta0", "theta1"},
    "ellipse_arc": {"type", "center", "semi_axes", "theta0", "theta1", "rotation"},
}


def piece_from_dict(d: dict) -> CurvePiece:
    kind = d.get("type")
    if kind not in _PIECE_TYPES:
        raise ValueError(f"unknown curve piece type {kind!r}")
    extra = set(d) - _PIECE_KEYS[kind]
    if extra:
        raise ValueError(f"unknown keys {sorted(extra)} in {kind} piece")
    return _PIECE_TYPES[kind](d)


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

    def __init__(self, pieces, check=True):
        if not pieces:
            raise ValueError("empty curve chain")
        self.pieces = list(pieces)
        self._coarse_s = np.linspace(0.0, 1.0, _COARSE)
        self._coarse_pts = [p.point(self._coarse_s) for p in self.pieces]
        self.lengths = [
            float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1))) for pts in self._coarse_pts
        ]
        self.total_length = float(sum(self.lengths))
        dense = self.sample_points(max(256, 48 * len(self.pieces)))
        self._bbox_center = 0.5 * (dense.min(axis=0) + dense.max(axis=0))
        self._bound_radius = float(np.max(np.linalg.norm(dense - self._bbox_center, axis=1))) * 1.0001
        # shoelace area decides which side of the traversal is free space
        x, y = dense[:, 0], dense[:, 1]
        area = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        self.orientation = -1.0 if area > 0 else 1.0  # normal = orientation * rot90(tangent)
        self._build_groups()
        if check:
            self._check_chain()

    def _build_groups(self):
        # pieces with closed-form projections are batched across the chain
        line_idx, arc_idx, newton_idx = [], [], []
        for k, p in enumerate(self.pieces):
            if isinstance(p, LinePiece) or (isinstance(p, BumpLinePiece) and p.amplitude == 0.0):
                line_idx.append(k)
            elif isinstance(p, ArcPiece):
                arc_idx.append(k)
            else:
                newton_idx.append(k)
        self._line_idx = np.array(line_idx, dtype=int)
        if line_idx:
            self._line_p0 = np.array([self.pieces[k].p0 for k in line_idx])
            d = np.array([self.pieces[k].p1 - self.pieces[k].p0 for k in line_idx])
            self._line_d = d
            self._line_dd = np.sum(d * d, axis=1)
        self._arc_idx = np.array(arc_idx, dtype=int)
        if arc_idx:
            arcs = [self.pieces[k] for k in arc_idx]
            self._arc_c = np.array([a.center for a in arcs])
            self._arc_r = np.array([a.radius for a in arcs])
            self._arc_t0 = np.array([a.theta0 for a in arcs])
            self._arc_sweep = np.array([a._sweep for a in arcs])
            self._arc_e0 = np.array([a.start() for a in arcs])
            self._arc_e1 = np.array([a.end() for a in arcs])
        self._newton_idx = newton_idx
        # coarse-sampling slack: true distance >= coarse distance - slack
        self._newton_slack = {}
        for k in newton_idx:
            pts = self._coarse_pts[k]
            gap = float(np.max(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
            self._newton_slack[k] = 0.55 * gap

    def _check_chain(self):
        scale = max(self.total_length, 1e-12)
        for i, piece in enumerate(self.pieces):
            nxt = self.pieces[(i + 1) % len(self.pieces)]
            gap = np.linalg.norm(piece.end() - nxt.start())
            if gap > 1e-9 * scale:
                raise ValueError(f"chain not closed between pieces {i} and {(i + 1) % len(self.pieces)}")
            t0 = piece.deriv(np.array(1.0))
            t1 = nxt.deriv(np.array(0.0))
            t0 = t0 / np.linalg.norm(t0)
            t1 = t1 / np.linalg.norm(t1)
            if float(t0 @ t1) < 1.0 - 1e-6:
                raise ValueError(f"chain not C1 between pieces {i} and {(i + 1) % len(self.pieces)}")

    def sample_points(self, n_total: int) -> np.ndarray:
        """Roughly arclength-balanced boundary samples over all pieces."""
        weights = getattr(self, "lengths", None)
        if weights is None:
            weights = [1.0] * len(self.pieces)
        total = sum(weights)
        chunks = []
        for piece, w in zip(self.pieces, weights):
            k = max(8, int(round(n_total * w / total)))
            s = (np.arange(k) + 0.5) / k
            chunks.append(piece.point(s))
        return np.vstack(chunks)

    def bounding_circle(self):
        return self._bbox_center, self._bound_radius

    def ray_roots(self, q, v):
        """Sorted parameters t of every crossing of the line q + t v with the chain."""
        d = q - self._bbox_center
        b = float(d @ v)
        if float(d @ d) - b * b >= self._bound_radius**2:
            return []
        return sorted(t for piece in self.pieces for t in piece.ray_roots(q, v))

    def closest_batch(self, X: np.ndarray) -> FootData:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n = X.shape[0]
        foot = np.zeros_like(X)
        dist2 = np.full(n, np.inf)
        piece_idx = np.zeros(n, dtype=int)
        s_out = np.zeros(n)

        def absorb(f, d2, s, pidx):
            nonlocal foot, dist2, piece_idx, s_out
            take = d2 < dist2
            foot[take] = f[take]
            dist2[take] = d2[take]
            piece_idx[take] = pidx if np.isscalar(pidx) else pidx[take]
            s_out[take] = s[take]

        if self._line_idx.size:
            diff = X[:, None, :] - self._line_p0[None, :, :]
            s = np.clip(np.sum(diff * self._line_d[None], axis=2) / self._line_dd[None], 0.0, 1.0)
            f = self._line_p0[None] + s[:, :, None] * self._line_d[None]
            d2 = np.sum((X[:, None, :] - f) ** 2, axis=2)
            k = np.argmin(d2, axis=1)
            rows = np.arange(n)
            absorb(f[rows, k], d2[rows, k], s[rows, k], self._line_idx[k])

        if self._arc_idx.size:
            rel = X[:, None, :] - self._arc_c[None, :, :]
            ang = np.arctan2(rel[:, :, 1], rel[:, :, 0])
            fwd = self._arc_sweep >= 0.0
            u = np.where(fwd[None, :],
                         np.mod(ang - self._arc_t0[None, :], 2.0 * math.pi),
                         -np.mod(self._arc_t0[None, :] - ang, 2.0 * math.pi))
            with np.errstate(divide="ignore", invalid="ignore"):
                s = u / self._arc_sweep[None, :]
            inside = (s >= 0.0) & (s <= 1.0)
            s_in = np.clip(np.where(inside, s, 0.0), 0.0, 1.0)
            th = self._arc_t0[None, :] + s_in * self._arc_sweep[None, :]
            f_in = self._arc_c[None] + self._arc_r[None, :, None] * np.stack(
                [np.cos(th), np.sin(th)], axis=2
            )
            d0 = np.sum((X[:, None, :] - self._arc_e0[None]) ** 2, axis=2)
            d1 = np.sum((X[:, None, :] - self._arc_e1[None]) ** 2, axis=2)
            s_end = np.where(d0 <= d1, 0.0, 1.0)
            f_end = np.where((d0 <= d1)[:, :, None], self._arc_e0[None], self._arc_e1[None])
            d_in = np.sum((X[:, None, :] - f_in) ** 2, axis=2)
            f_all = np.where(inside[:, :, None], f_in, f_end)
            d_all = np.where(inside, d_in, np.minimum(d0, d1))
            s_all = np.where(inside, s_in, s_end)
            k = np.argmin(d_all, axis=1)
            rows = np.arange(n)
            absorb(f_all[rows, k], d_all[rows, k], s_all[rows, k], self._arc_idx[k])

        for idx in self._newton_idx:
            piece = self.pieces[idx]
            pts = self._coarse_pts[idx]
            d2c = np.sum((X[:, None, :] - pts[None, :, :]) ** 2, axis=2)
            kc = np.argmin(d2c, axis=1)
            rows = np.arange(n)
            lower = np.sqrt(d2c[rows, kc]) - self._newton_slack[idx]
            need = (lower * lower < dist2) | (lower <= 0.0)
            if not np.any(need):
                continue
            s_sub = piece.project(X[need], self._coarse_s[kc[need]])
            f_sub = piece.point(s_sub)
            d2_sub = np.sum((X[need] - f_sub) ** 2, axis=1)
            f = np.zeros_like(X)
            d2 = np.full(n, np.inf)
            s = np.zeros(n)
            f[need] = f_sub
            d2[need] = d2_sub
            s[need] = s_sub
            absorb(f, d2, s, idx)

        dist = np.sqrt(dist2)
        tang = np.zeros_like(X)
        curv = np.zeros(n)
        for idx in np.unique(piece_idx):
            mask = piece_idx == idx
            piece = self.pieces[idx]
            g1 = piece.deriv(s_out[mask])
            g2 = piece.deriv2(s_out[mask])
            speed = np.linalg.norm(g1, axis=1)
            tang[mask] = g1 / speed[:, None]
            cross = g1[:, 0] * g2[:, 1] - g1[:, 1] * g2[:, 0]
            curv[mask] = cross / speed**3

        normal = self.orientation * _rot90(tang)
        shape = -self.orientation * curv
        rel = X - foot
        sgn = np.where(np.sum(rel * normal, axis=1) >= 0.0, 1.0, -1.0)
        signed = np.where(dist < 1e-14, 0.0, sgn * dist)
        return FootData(foot, dist, signed, piece_idx, s_out, tang, normal, shape)

    def to_dicts(self):
        return [p.to_dict() for p in self.pieces]
