"""Billiard flow in the exterior of the obstacles, restricted to simply
reflecting rays.

Rays move at unit speed inside the reference ball, reflect specularly at
obstacle boundaries, continue straight through diffractive tangencies, and
finish when they cross the boundary sphere outward. Every obstacle kind
intersects rays exactly through `ray_roots`, with no step size, so no
validated feature is too thin to hit; an obstacle whose bounding ball a
segment's line misses is not asked for them (`_first_root`), by the test
`curves._line_misses_ball` that a `curve2d` also applies to each piece,
with a margin of 2^-48 times the squared distance of the line's point from
the centre, which exceeds the test's own rounding. The normal at a root,
`_root_normal`, is `root_gradient` through the obstacle's one unit-normal
step (`_unit_normal`, which its local query takes too): the implicit gradient
for quadrics and superellipsoids, and for a `curve2d` the closed-form
normal at the piece and parameter its root carries, taken on floats, so the
tracer makes no closest-point query and calls no numpy function.
Orbits that graze into the boundary (gliding) are detected and rejected.

Each segment is one search (`_first_crossing`) up to the ball exit or the
time cutoff; it skips a departure inside the tangent dead zone and the
residue of the grazing chord that ended at the last tangent point.

After a transversal reflection off an obstacle whose kind is `convex`
(sphere, ellipsoid, superellipsoid), the next segment does not ask that
obstacle for its roots: the body lies behind the tangent plane at the hit,
so the reflected ray cannot meet it again, and its roots there are the hit
itself and the chord behind it, none beyond the re-hit guard. A `curve2d`
may be concave and is asked again, and after a tangent event every obstacle
is asked.

The per-ray path runs on Python floats, as lists of two or three: the entry
check (`check_entry`; a lens block's, on its columns), the normalisation
and event loop of `trace_phase`, the ball chord, `ray_roots`, the unit
normal, `reflect` and `sojourn_time`, with no matrix product or numpy
kernel, so a trajectory has the same bits whatever BLAS or SIMD kernels the
CPU selects. Those floats are the one record of a traced ray: `Event`s hold
the loop's lists, a `Trajectory` its entry (a list of its own, whatever
sequence the caller passed) and exit (`ends`), and `state_at` answers in
lists. Only the lazy `PhasePoint`s `Trajectory.entry` and `exit_state`,
`first_hit` and the Jacobi layer's results give arrays.

A `Trajectory` holds each datum of its ray once: `status`, `total_time` (the
travelling time t), the exit direction theta (`ends[3]`, read as
`exit_state.v`) and `len(events)` (the reflection count). `lens` records
them per ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import geometry
from .curves import _axpy, _dot, _floats, _line_misses_ball, _sub
from .geometry import canonical_json

TANGENCY_THRESHOLD = 1e-7   # |<v, normal>| at or below this is a tangent encounter
REHIT_FACTOR = 1e-9         # advance after an event, in units of the ball radius
GLIDING_ARC_FACTOR = 0.01   # same-obstacle tangencies closer than this * a reject the orbit
_TANGENT_DEAD_ZONE = 1e-5   # * a; grazing residues and departures inside it are skipped
# `check_entry`'s sqrt and failure test: math's on floats, numpy's on columns (or ints)
_ON_FLOATS, _ON_COLUMNS = (math.sqrt, bool), (np.sqrt, np.any)


class RootPolishFailed(geometry.NumericFailure):
    """The ray starts or runs inside an obstacle (`_first_crossing`, `first_hit`)."""


class NotScattered(RuntimeError):
    """Operation requires an exited trajectory."""


@dataclass
class PhasePoint:
    q: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.v = np.asarray(self.v, dtype=float)


@dataclass
class Event:
    """`x`, `v_in` and `v_out` are the tracer's lists of floats, shared and
    never written into: an event's `v_out` is the next one's `v_in`, and a
    tangent event's `v_out` is its `v_in`."""

    t: float
    x: list
    obstacle: int
    type: str            # "transversal" | "tangent"
    v_in: list
    v_out: list
    root: float          # the segment's `ray_roots` root (on a curve2d a `Root`), for the Jacobi layer


@dataclass
class Trajectory:
    """A traced ray. `entry` and `exit_state` (None unless exited) read as
    PhasePoints of arrays, built on first access from `ends`."""

    ends: tuple          # entry q, v, then exit q, v if exited: the loop's lists of floats
    events: list
    status: str          # "exited" | "trapped" | "gliding_rejected"
    total_time: float | None
    cutoff_reason: str | None = None

    @cached_property
    def entry(self) -> PhasePoint:
        return PhasePoint(*self.ends[:2])

    @cached_property
    def exit_state(self) -> PhasePoint | None:
        return PhasePoint(*self.ends[2:]) if len(self.ends) == 4 else None


@dataclass
class Limits:
    n_max: int = 10000
    t_max: float | None = None  # defaults to 1000 * ball radius

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"reflection cutoff must be at least 1, got {self.n_max}")
        if self.t_max is not None and not 0.0 < self.t_max < math.inf:
            raise ValueError(f"time cutoff must be a positive finite number, got {self.t_max}")


def reflect(v, normal):
    """Specular reflection v' = v - 2 <v,n> n of a direction and a unit normal
    (arrays, tuples or lists), as a list of floats; requires an approaching
    ray."""
    v, n = _floats(v), _floats(normal)
    c = _dot(v, n)
    if c >= 0.0:
        raise ValueError("reflect requires <v, normal> < 0 (approaching ray)")
    return _axpy(v, -2.0 * c, n)


def _ball_chord(q, v, a):
    """(entry, exit) times of the line q + t v (|v| = 1) on the sphere |x| = a,
    -<q, v> -/+ sqrt(<q, v>^2 - |q|^2 + a^2); (0.0, 0.0) if it misses or touches."""
    b = _dot(q, v)
    c0 = _dot(q, q) - a * a
    disc = b * b - c0
    if disc <= 0.0:
        return 0.0, 0.0
    root = math.sqrt(disc)
    return -b - root, -b + root


def _first_root(scene, q, v, t_min, cap, left):
    """Smallest boundary root over all obstacles but the one of index `left`
    (None: all of them) in (t_min, cap]: (t, obstacle index), or None; on a
    tie, the first obstacle's. A numeric failure of an obstacle's roots is
    raised again, of its type, naming the obstacle.

    An obstacle is not asked for its roots when the line misses its bounding
    ball of radius R about its centre: `curves._line_misses_ball`, the one
    rule for obstacles and curve pieces, whose margin of 2^-48 dd (dd the
    squared distance of q from the centre) exceeds the rounding of both of
    its sides, so no line that meets the ball is skipped. v need not be a
    unit vector."""
    best = None
    vv = _dot(v, v)
    try:
        for idx, obs in enumerate(scene.obstacles):
            if idx == left or _line_misses_ball(q, v, vv, obs._c, obs._reach2):
                continue
            for r in obs.ray_roots(q, v):  # sorted: only the first beyond t_min counts
                if r > t_min:
                    if r <= cap and (best is None or r < best[0]):
                        best = (r, idx)
                    break
    except geometry.NUMERIC_FAILURES as exc:  # of `ray_roots`: nothing else here can fail
        raise type(exc)(f"obstacle {idx} ray roots: {exc}") from exc
    return best


def _first_crossing(scene, q, v, cap, left, last_tangent):
    """First boundary root in (REHIT_FACTOR a, cap] that the ray meets from
    outside or tangentially: (t, obstacle index, point, unit normal,
    <v, normal>), or None; the obstacle of index `left` is not asked. Two
    roots are skipped: a departure from an obstacle inside the tangent dead
    zone (one beyond it means the segment ran inside the solid, and raises
    RootPolishFailed), and a tangency within the dead zone of `last_tangent`
    on the same obstacle, the residue of the grazing chord it ended."""
    a = scene.ball_radius
    dead_zone, guard = _TANGENT_DEAD_ZONE * a, REHIT_FACTOR * a
    t_min = guard
    while (found := _first_root(scene, q, v, t_min, cap, left)) is not None:
        t, idx = found
        x = _axpy(q, t, v)
        normal = _root_normal(scene.obstacles[idx], x, t, idx)[0]
        cos_in = _dot(v, normal)
        if cos_in > TANGENCY_THRESHOLD:
            if t > dead_zone:
                raise RootPolishFailed("ray runs inside an obstacle")
        elif cos_in < -TANGENCY_THRESHOLD or not _near(last_tangent, idx, x, dead_zone):
            return t, idx, x, normal, cos_in
        t_min = t + guard
    return None


def _root_normal(obstacle, x, root, label):
    """(unit normal, |grad F|) at the point x (floats) of a root of the
    obstacle's `ray_roots`: its unit-normal step on `root_gradient`, taken
    by the tracer and by the Jacobi layer at an event. SingularGradient,
    naming obstacle `label`, below the floor."""
    return obstacle._unit_normal(obstacle.root_gradient(x, root), label)


def _near(tangent, idx, x, radius) -> bool:
    """Whether x, on obstacle idx, lies closer than `radius` to the tangent
    point `tangent` (obstacle index, point) on that obstacle."""
    if tangent is None or tangent[0] != idx:
        return False
    d = _sub(x, tangent[1])
    return math.sqrt(_dot(d, d)) < radius


def first_hit(scene, phase_point: PhasePoint, max_advance: float):
    """First obstacle intersection of the ray, or None if the ray leaves the
    ball (or reaches max_advance) first. Returns (t, obstacle index, point).
    Roots are exact for every obstacle kind.

    Raises RootPolishFailed if the ray starts inside an obstacle (the
    precondition requires a free or outgoing phase point)."""
    q, v = phase_point.q.tolist(), phase_point.v.tolist()
    a = scene.ball_radius
    cap = min(max_advance, _ball_chord(q, v, a)[1])
    hit = _first_crossing(scene, q, v, cap, None, None)
    return None if hit is None else (hit[0], hit[1], np.array(hit[2]))


def trace_phase(scene, q, v, limits: Limits | None = None) -> Trajectory:
    """Trace from an arbitrary phase point inside the ball (no entry check);
    q and v are arrays, tuples or lists, and v is normalised. A ray whose
    next event or exit lies past t_max ends `trapped` (max_time)."""
    limits = limits or Limits()
    a = scene.ball_radius
    t_max = limits.t_max if limits.t_max is not None else 1000.0 * a

    q, v = list(map(float, q)), _floats(v)  # a fresh list: the entry is the ray's own, not the caller's
    speed = math.sqrt(_dot(v, v))
    v = [vi / speed for vi in v]
    entry = (q, v)

    events: list[Event] = []
    total = 0.0
    last_tangent = None  # (obstacle index, point)
    left = None  # the convex obstacle the ray just reflected off, which it cannot meet again

    while True:
        if len(events) >= limits.n_max:
            return Trajectory(entry, events, "trapped", None, "max_reflections")

        t_ball, t_left = _ball_chord(q, v, a)[1], t_max - total
        try:
            hit = _first_crossing(scene, q, v, min(t_ball, t_left), left, last_tangent)
        except RootPolishFailed:
            return Trajectory(entry, events, "gliding_rejected", None, "boundary_penetration")

        # the loop's points and directions are lists of floats, never changed
        # in place: the events and the trajectory's ends keep them as they are
        if hit is None:
            if t_ball > t_left:
                return Trajectory(entry, events, "trapped", None, "max_time")
            total += t_ball
            return Trajectory(entry + (_axpy(q, t_ball, v), v), events, "exited", total)

        t_hit, idx, x_hit, normal, cos_in = hit
        if abs(cos_in) > TANGENCY_THRESHOLD:
            etype, v_out = "transversal", reflect(v, normal)
            left = idx if scene.obstacles[idx].convex else None
        else:
            etype, v_out = "tangent", v
            left = None
        events.append(Event(total + t_hit, x_hit, idx, etype, v, v_out, t_hit))
        total += t_hit

        if etype == "tangent":
            if _near(last_tangent, idx, x_hit, GLIDING_ARC_FACTOR * a):
                return Trajectory(entry, events, "gliding_rejected", None, "tangency_chain")
            last_tangent = (idx, x_hit)

        q, v = x_hit, v_out


def check_entry(scene, q, v):
    """ValueError unless (q, v), a point's lists of floats or a block's
    coordinate columns, is an entry phase point: q on the boundary sphere, v
    a unit vector with non-negative inward component; a block fails on the
    first test that any of its rows fails."""
    sqrt, fails = _ON_FLOATS if q[0].__class__ is float else _ON_COLUMNS
    if fails(abs(_dot(v, v) - 1.0) > 1e-9):
        raise ValueError("direction must be a unit vector")
    a = scene.ball_radius
    if fails(abs(sqrt(_dot(q, q)) - a) > 1e-6 * a):
        raise ValueError("entry point must lie on the boundary sphere")
    if fails(-_dot(q, v) / a < -1e-9):
        raise ValueError("entry direction points outward")


def trace(scene, entry: PhasePoint, limits: Limits | None = None) -> Trajectory:
    """Trace an entry phase point (`check_entry`): position on the boundary
    sphere, direction with non-negative inward component."""
    q, v = entry.q.tolist(), entry.v.tolist()
    check_entry(scene, q, v)
    return trace_phase(scene, q, v, limits)


def sojourn_time(trajectory: Trajectory) -> float:
    """Sojourn time: length between the support planes tangent to the sphere
    and orthogonal to the incoming/outgoing directions, minus one diameter."""
    if trajectory.status != "exited":
        raise NotScattered(f"trajectory status is {trajectory.status}")
    q0, v0, q1, v1 = trajectory.ends
    return trajectory.total_time + _dot(q0, v0) - _dot(q1, v1)


def state_at(trajectory: Trajectory, t: float):
    """Phase state (position, direction) at time t along the trajectory, as
    two lists of floats; continues straight past the exit. The direction is
    the traced list itself, shared with the trajectory."""
    if t < 0:
        raise ValueError("time must be non-negative")
    q, v, t0 = *trajectory.ends[:2], 0.0
    for ev in trajectory.events:
        if t <= ev.t:
            break
        q, v, t0 = ev.x, ev.v_out, ev.t
    else:
        if trajectory.status != "exited" and t > t0:
            raise ValueError(f"time {t} beyond the truncated trajectory")
    return [qi + (t - t0) * vi for qi, vi in zip(q, v)], v


def trajectory_jsonl(trajectory: Trajectory, header_extra: dict | None = None) -> str:
    """JSONL dump: one header line, then one line per event, less its root."""
    header = {
        "entry_q": trajectory.ends[0],
        "entry_v": trajectory.ends[1],
        "status": trajectory.status,
        "total_time": trajectory.total_time,
        "cutoff_reason": trajectory.cutoff_reason,
        "n_events": len(trajectory.events),
    }
    if header_extra:
        header.update(header_extra)
    events = [{k: v for k, v in vars(ev).items() if k != "root"} for ev in trajectory.events]
    lines = [canonical_json(header)] + [canonical_json(ev) for ev in events]
    return "\n".join(lines) + "\n"
