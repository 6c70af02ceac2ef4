"""Billiard flow in the exterior of the obstacles, restricted to simply
reflecting rays.

Rays move at unit speed inside the reference ball, reflect specularly at
obstacle boundaries, continue straight through diffractive tangencies, and
finish when they cross the boundary sphere outward. Every obstacle kind
intersects rays exactly through `ray_roots`, with no step size, so no
validated feature is too thin to hit. Orbits that graze into the boundary
(gliding) are detected and rejected, never integrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .geometry import canonical_json

TANGENCY_THRESHOLD = 1e-7   # |<v, normal>| at or below this is a tangent encounter
REHIT_FACTOR = 1e-9         # advance after an event, in units of the ball radius
GLIDING_ARC_FACTOR = 0.01   # same-obstacle tangencies closer than this * a reject the orbit
_TANGENT_DEAD_ZONE = 1e-5   # * a; grazing residues and departures inside it are skipped


class RootPolishFailed(RuntimeError):
    """Boundary root bracketing did not converge."""


class NotScattered(RuntimeError):
    """Operation requires an exited trajectory."""


@dataclass
class PhasePoint:
    q: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.v = np.asarray(self.v, dtype=float)

    def unit_check(self):
        if abs(float(self.v @ self.v) - 1.0) > 1e-9:
            raise ValueError("direction must be a unit vector")


@dataclass
class Event:
    t: float
    x: np.ndarray
    obstacle: int
    type: str            # "transversal" | "tangent"
    v_in: np.ndarray
    v_out: np.ndarray


@dataclass
class Trajectory:
    entry: PhasePoint
    events: list
    status: str          # "exited" | "trapped" | "gliding_rejected"
    exit_state: PhasePoint | None
    total_time: float | None
    cutoff_reason: str | None = None
    segment_lengths: list = field(default_factory=list)


@dataclass
class Limits:
    n_max: int = 10000
    t_max: float | None = None       # defaults to 1000 * ball radius
    gliding_arc: float | None = None  # defaults to GLIDING_ARC_FACTOR * ball radius


def reflect(v, normal):
    """Specular reflection v' = v - 2 <v,n> n; requires an approaching ray."""
    v = np.asarray(v, dtype=float)
    n = np.asarray(normal, dtype=float)
    c = float(v @ n)
    if c >= 0.0:
        raise ValueError("reflect requires <v, normal> < 0 (approaching ray)")
    return v - 2.0 * c * n


def _ball_exit_time(q, v, a):
    b = float(q @ v)
    c0 = float(q @ q) - a * a
    disc = b * b - c0
    if disc <= 0.0:
        return 0.0
    return -b + math.sqrt(disc)


def _first_root(scene, q, v, t_min, cap):
    """Smallest boundary root over all obstacles in (t_min, cap]:
    (t, obstacle index), or None."""
    best = None
    for idx, obs in enumerate(scene.obstacles):
        limit = cap if best is None else best[0]
        t = next((r for r in obs.ray_roots(q, v) if t_min < r <= limit), None)
        if t is not None and (best is None or t < best[0]):
            best = (t, idx)
    return best


def _first_crossing(scene, q, v, t_min, cap):
    """First boundary root in (t_min, cap] that the ray meets from outside or
    tangentially: (t, obstacle index, point, unit normal, <v, normal>), or
    None. A departure from an obstacle inside the tangent dead zone is
    skipped; one beyond it means the segment ran inside the solid, and
    raises RootPolishFailed."""
    a = scene.ball_radius
    while (found := _first_root(scene, q, v, t_min, cap)) is not None:
        t, idx = found
        x = q + t * v
        normal = _normal_at(scene, idx, x)
        cos_in = float(v @ normal)
        if cos_in <= TANGENCY_THRESHOLD:
            return t, idx, x, normal, cos_in
        if t > _TANGENT_DEAD_ZONE * a:
            raise RootPolishFailed("ray runs inside an obstacle")
        t_min = t + REHIT_FACTOR * a
    return None


def first_hit(scene, phase_point: PhasePoint, max_advance: float):
    """First obstacle intersection of the ray, or None if the ray leaves the
    ball (or reaches max_advance) first. Returns (t, obstacle index, point).
    Roots are exact for every obstacle kind.

    Raises RootPolishFailed if the ray starts inside an obstacle (the
    precondition requires a free or outgoing phase point)."""
    q, v = phase_point.q, phase_point.v
    a = scene.ball_radius
    cap = min(max_advance, _ball_exit_time(q, v, a))
    hit = _first_crossing(scene, q, v, REHIT_FACTOR * a, cap)
    return None if hit is None else hit[:3]


def _normal_at(scene, idx, x):
    obs = scene.obstacles[idx]
    g = obs.gradient(x)
    gn = float(np.linalg.norm(g))
    if gn < 1e-14:
        raise geometry.SingularGradient(f"singular normal on obstacle {idx}")
    return g / gn


def trace_phase(scene, q, v, limits: Limits | None = None) -> Trajectory:
    """Trace from an arbitrary phase point inside the ball (no entry check)."""
    limits = limits or Limits()
    a = scene.ball_radius
    t_max = limits.t_max if limits.t_max is not None else 1000.0 * a
    gliding_arc = limits.gliding_arc if limits.gliding_arc is not None else GLIDING_ARC_FACTOR * a
    guard = REHIT_FACTOR * a
    dead_zone = _TANGENT_DEAD_ZONE * a

    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    entry = PhasePoint(q.copy(), v.copy())

    events: list[Event] = []
    seg_lengths: list[float] = []
    total = 0.0
    last_tangent = None  # (obstacle index, point)

    def near_last_tangent(hit, radius):
        return (last_tangent is not None and last_tangent[0] == hit[1]
                and float(np.linalg.norm(hit[2] - last_tangent[1])) < radius)

    while True:
        if len(events) >= limits.n_max:
            return Trajectory(entry, events, "trapped", None, None, "max_reflections", seg_lengths)
        if total > t_max:
            return Trajectory(entry, events, "trapped", None, None, "max_time", seg_lengths)

        t_ball = _ball_exit_time(q, v, a)
        t_min = guard
        try:
            while (hit := _first_crossing(scene, q, v, t_min, t_ball)) is not None:
                if abs(hit[4]) > TANGENCY_THRESHOLD or not near_last_tangent(hit, dead_zone):
                    break
                t_min = hit[0] + guard  # residue of the same grazing chord
        except RootPolishFailed:
            return Trajectory(entry, events, "gliding_rejected", None, None,
                              "boundary_penetration", seg_lengths)

        if hit is None:
            seg_lengths.append(t_ball)
            total += t_ball
            exit_q = q + t_ball * v
            return Trajectory(entry, events, "exited", PhasePoint(exit_q, v.copy()), total,
                              None, seg_lengths)

        t_hit, idx, x_hit, normal, cos_in = hit
        if abs(cos_in) > TANGENCY_THRESHOLD:
            etype, v_out = "transversal", reflect(v, normal)
        else:
            etype, v_out = "tangent", v.copy()
        events.append(Event(total + t_hit, x_hit, idx, etype, v.copy(), v_out.copy()))
        seg_lengths.append(t_hit)
        total += t_hit

        if etype == "tangent":
            if near_last_tangent(hit, gliding_arc):
                return Trajectory(entry, events, "gliding_rejected", None, None,
                                  "tangency_chain", seg_lengths)
            last_tangent = (idx, x_hit.copy())

        q, v = x_hit, v_out


def trace(scene, entry: PhasePoint, limits: Limits | None = None) -> Trajectory:
    """Trace an entry phase point: position on the boundary sphere, direction
    with non-negative inward component."""
    entry.unit_check()
    a = scene.ball_radius
    if abs(float(np.linalg.norm(entry.q)) - a) > 1e-6 * a:
        raise ValueError("entry point must lie on the boundary sphere")
    inward = -float(entry.q @ entry.v) / a
    if inward < -1e-9:
        raise ValueError("entry direction points outward")
    return trace_phase(scene, entry.q, entry.v, limits)


def travelling_time(scene, entry: PhasePoint, limits: Limits | None = None):
    """Travelling time of an entry: ("exited", t) with the time to leave the
    ball, or ("trapped", None) / ("gliding_rejected", None).

    Entries tangent to the boundary sphere report time zero immediately."""
    inward = -float(entry.q @ entry.v) / scene.ball_radius
    if abs(inward) <= 1e-12:
        return "exited", 0.0
    traj = trace(scene, entry, limits)
    if traj.status == "exited":
        return "exited", traj.total_time
    return traj.status, None


def omega_theta(trajectory: Trajectory):
    """(incoming direction, outgoing direction) of an exited trajectory."""
    if trajectory.status != "exited":
        raise NotScattered(f"trajectory status is {trajectory.status}")
    return trajectory.entry.v.copy(), trajectory.exit_state.v.copy()


def sojourn_time(scene, trajectory: Trajectory) -> float:
    """Sojourn time: length between the support planes tangent to the sphere
    and orthogonal to the incoming/outgoing directions, minus one diameter."""
    if trajectory.status != "exited":
        raise NotScattered(f"trajectory status is {trajectory.status}")
    omega, theta = omega_theta(trajectory)
    q0 = trajectory.entry.q
    q1 = trajectory.exit_state.q
    return trajectory.total_time + float(q0 @ omega) - float(q1 @ theta)


def reflection_count(trajectory: Trajectory) -> int:
    if trajectory.status != "exited":
        raise NotScattered(f"trajectory status is {trajectory.status}")
    return len(trajectory.events)


def state_at(trajectory: Trajectory, t: float):
    """Phase state (position, direction) at time t along the trajectory;
    continues straight past the exit."""
    if t < 0:
        raise ValueError("time must be non-negative")
    q, v, t0 = trajectory.entry.q, trajectory.entry.v, 0.0
    for ev in trajectory.events:
        if t <= ev.t:
            return q + (t - t0) * v, v.copy()
        q, v, t0 = ev.x, ev.v_out, ev.t
    if trajectory.status != "exited" and t > t0:
        raise ValueError(f"time {t} beyond the truncated trajectory")
    return q + (t - t0) * v, v.copy()


def trajectory_jsonl(trajectory: Trajectory, header_extra: dict | None = None) -> str:
    """JSONL dump: one header line, then one line per event."""
    header = {
        "entry_q": list(trajectory.entry.q),
        "entry_v": list(trajectory.entry.v),
        "status": trajectory.status,
        "total_time": trajectory.total_time,
        "cutoff_reason": trajectory.cutoff_reason,
        "n_events": len(trajectory.events),
    }
    if header_extra:
        header.update(header_extra)
    lines = [canonical_json(header)]
    for ev in trajectory.events:
        lines.append(
            canonical_json(
                {
                    "t": ev.t,
                    "x": list(ev.x),
                    "obstacle": ev.obstacle,
                    "type": ev.type,
                    "v_in": list(ev.v_in),
                    "v_out": list(ev.v_out),
                }
            )
        )
    return "\n".join(lines) + "\n"
