"""Linearized dynamics along trajectories.

A JacobiFrame carries the transverse position block A and direction block B
of a family of variations, expressed in a basis orthogonal to the ray
direction, which is the traced one: the frame holds no direction, and each
reflected direction is the event's `v_out`. Free flight maps (A, B) to
(A + tB, B); a transversal reflection maps the basis E to H E with the
mirror H = I - 2 n n^T, keeps A and adds C A to B, with the curvature term
C = 2 cos(phi) * dy^T S dy built from the ambient shape operator S at the
event, where dy projects transverse offsets onto the tangent plane along the
ray. Both maps are linear symplectic. The normal n is the tracer's bit for
bit (`ambient_shape`), and H is orthogonal, so the mirrored basis stays
orthonormal and orthogonal to `v_out` = H v_in up to rounding; it is not
re-orthonormalised: its columns drift by about one rounding per reflection.

A new frame shares every array it does not change with the old one (free
flight builds only A + tB, a reflection keeps A), so no code writes into
the arrays of a frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flow
from .flow import TANGENCY_THRESHOLD
from .geometry import NumericFailure, ambient_shape, tangent_basis


class TangentIncidence(NumericFailure):
    """Reflection transfer is undefined at (near-)tangent incidence."""


class TangentOnPath(NumericFailure):
    """Differentials are only propagated across transversal events."""


class ItineraryChanged(NumericFailure):
    """A finite-difference probe changed the event sequence."""


class IndexOutOfRange(IndexError):
    pass


@dataclass
class JacobiFrame:
    A: np.ndarray      # (n-1, k) transverse position variation of k variations
    B: np.ndarray      # (n-1, k) transverse direction variation
    basis: np.ndarray  # (n, n-1) columns orthogonal to the ray direction, orthonormal up to rounding


@dataclass
class Incidence:
    v_in: np.ndarray
    normal: np.ndarray
    # (n, n) P Hess F P / |grad F| with P = I - n n^T (geometry.ambient_shape):
    # symmetric, annihilates the normal
    shape_ambient: np.ndarray

    @property
    def cos_incidence(self) -> float:
        return -float(self.v_in @ self.normal)


def seed_frame(direction, A0, B0) -> JacobiFrame:
    v = np.asarray(direction, dtype=float)
    m = v.shape[0] - 1
    A = np.asarray(A0, dtype=float) * np.eye(m) if np.isscalar(A0) else np.array(A0, dtype=float)
    B = np.asarray(B0, dtype=float) * np.eye(m) if np.isscalar(B0) else np.array(B0, dtype=float)
    return JacobiFrame(A, B, tangent_basis(v))


def propagate_free(frame: JacobiFrame, t: float) -> JacobiFrame:
    """Flat free flight for time t >= 0: positions pick up t * direction
    variation; B and the basis are the old frame's arrays."""
    if t < 0:
        raise ValueError("free flight time must be non-negative")
    return JacobiFrame(frame.A + t * frame.B, frame.B, frame.basis)


def _reflect_basis(basis: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """The mirrored basis H E, H = I - 2 n n^T. H is orthogonal, so the
    coordinates of a variation in the basis pass the mirror unchanged."""
    return basis - 2.0 * np.outer(normal, normal @ basis)


def propagate_reflection(frame: JacobiFrame, incidence: Incidence) -> JacobiFrame:
    """Reflection transfer of the transverse variations at a transversal event."""
    v = incidence.v_in
    n = incidence.normal
    cos_phi = incidence.cos_incidence
    if cos_phi <= TANGENCY_THRESHOLD:
        raise TangentIncidence(f"cos(incidence) = {cos_phi:g}")
    E = frame.basis
    dy = E - np.outer(v, (n @ E) / -cos_phi)
    C = 2.0 * cos_phi * (dy.T @ incidence.shape_ambient @ dy)
    C = 0.5 * (C + C.T)
    return JacobiFrame(frame.A, frame.B + C @ frame.A, _reflect_basis(E, n))


def symplectic_pairing(f1: JacobiFrame, f2: JacobiFrame) -> np.ndarray:
    """A1^T B2 - B1^T A2; conserved by free flight and reflection."""
    return f1.A.T @ f2.B - f1.B.T @ f2.A


def _incidence_at(scene, event) -> Incidence:
    return Incidence(event.v_in, *ambient_shape(scene.obstacles[event.obstacle], event.x))


def _walk(scene, events, frame: JacobiFrame, t_prev: float, t: float) -> JacobiFrame:
    """Propagate `frame` from time t_prev to t through the events before t.
    Raises TangentOnPath on a tangent one."""
    for ev in events:
        if ev.t >= t:
            break
        if ev.type != "transversal":
            raise TangentOnPath(f"tangent event at t = {ev.t:g}")
        frame = propagate_reflection(propagate_free(frame, ev.t - t_prev), _incidence_at(scene, ev))
        t_prev = ev.t
    return propagate_free(frame, t - t_prev)


def flow_differentials(scene, entry: flow.PhasePoint, t: float, trajectory=None):
    """Transverse blocks of the flow differential at time t.

    Returns (position-by-direction, direction-by-position): the position
    response to a unit direction perturbation (seed A=0, B=I) and the
    direction response to a unit transverse position perturbation (seed
    A=I, B=0), both (n-1) x (n-1) in the propagated transverse basis.
    """
    if trajectory is None:
        trajectory = flow.trace(scene, entry)
    if trajectory.status != "exited" and trajectory.events and t > trajectory.events[-1].t:
        raise ValueError("time t beyond a truncated trajectory")
    # the seeds (A, B) = (0, I) and (I, 0) side by side: each event mirrors one basis
    m = trajectory.entry.v.shape[0] - 1
    eye, zero = np.eye(m), np.zeros((m, m))
    seeds = seed_frame(trajectory.entry.v, np.hstack([zero, eye]), np.hstack([eye, zero]))
    frame = _walk(scene, trajectory.events, seeds, 0.0, t)
    return frame.A[:, :m].copy(), frame.B[:, m:].copy()


def transport_basis(scene, trajectory, t: float, basis: np.ndarray) -> np.ndarray:
    """The transverse basis `basis` at the entry, mirrored at every event
    before time t by the normals of `Obstacle.normal_at`: the oracle's own
    copy of the chain the frame propagation mirrors through."""
    for ev in trajectory.events:
        if ev.t >= t:
            break
        if ev.type != "transversal":
            raise TangentOnPath(f"tangent event at t = {ev.t:g}")
        basis = _reflect_basis(basis, scene.obstacles[ev.obstacle].normal_at(ev.x))
    return basis


def _itinerary(trajectory, t: float):
    return tuple((ev.obstacle, ev.type) for ev in trajectory.events if ev.t < t)


def fd_flow_jacobian(scene, entry: flow.PhasePoint, t: float, h: float):
    """Central finite differences of the traced flow: the independent oracle
    for flow_differentials. Raises ItineraryChanged if a probe orbit gains or
    loses an event before time t."""
    central = flow.trace(scene, entry)
    signature = _itinerary(central, t)
    # the traced entry direction, as the frames are seeded: entry.v may differ
    # from it by a rounding of the tracer's normalisation
    basis_0 = tangent_basis(central.entry.v)
    basis_t = transport_basis(scene, central, t, basis_0)
    cos_h, sin_h, two_h = np.cos(h), np.sin(h), 2.0 * h

    def difference(probe, k, what):
        """Central difference in basis_t of part k (0: q, 1: v) of the
        states at time t of the orbits from probe(+1) and probe(-1)."""
        ends = []
        for sign in (+1.0, -1.0):
            traj = flow.trace_phase(scene, *probe(sign))
            if _itinerary(traj, t) != signature:
                raise ItineraryChanged(f"{what} changed the event list")
            ends.append(flow.state_at(traj, t)[k])
        return basis_t.T @ (ends[0] - ends[1]) / two_h

    # direction probes answer in position, position probes in direction
    pos_block, dir_block = [], []
    for i, e in enumerate(basis_0.T):
        pos_block.append(difference(lambda s: (entry.q, cos_h * entry.v + sin_h * s * e), 0,
                                    f"direction probe {i}"))
        dir_block.append(difference(lambda s: (entry.q + s * h * e, entry.v), 1,
                                    f"position probe {i}"))
    return np.column_stack(pos_block), np.column_stack(dir_block)


@dataclass
class RankReport:
    matrix: np.ndarray
    singular_values: np.ndarray  # descending
    rank: int
    tolerance: float

    def to_dict(self):
        return {
            "singular_values": [float(s) for s in self.singular_values],
            "rank": self.rank,
            "tolerance": self.tolerance,
        }


def rank_report(matrix: np.ndarray, tolerance: float, floor: float = 0.0) -> RankReport:
    """Singular values and rank at tolerance * max(largest value, floor).

    The floor supplies an absolute scale so that a numerically-zero block
    still reads as rank deficient; with floor 0 the test is purely relative.
    """
    sv = np.linalg.svd(matrix, compute_uv=False)
    smax = float(sv[0]) if sv.size else 0.0
    threshold = tolerance * max(smax, floor)
    rank = int(np.count_nonzero(sv > threshold)) if threshold > 0 else int(np.count_nonzero(sv > 0))
    return RankReport(np.array(matrix), sv, rank, tolerance)


@dataclass
class RegularityResult:
    position_by_direction: RankReport
    direction_by_position: RankReport
    regular: bool
    t: float

    def to_dict(self):
        return {
            "position_by_direction": self.position_by_direction.to_dict(),
            "direction_by_position": self.direction_by_position.to_dict(),
            "regular": self.regular,
            "t": self.t,
        }


def regularity_test(scene, entry: flow.PhasePoint, t: float | None = None,
                    tolerance: float = 1e-6) -> RegularityResult:
    """Rank reports of both flow differentials at time t (default: exit time
    plus one ball radius). A trajectory that meets the boundary is regular
    when both ranks equal the transverse dimension n-1; a free ray never
    reflects, its direction response to position offsets is identically
    zero, and it counts as regular vacuously."""
    trajectory = flow.trace(scene, entry)
    if t is None:
        if trajectory.status != "exited":
            raise ValueError(f"cannot pick default t: trajectory is {trajectory.status}")
        t = trajectory.total_time + scene.ball_radius
    pos_block, dir_block = flow_differentials(scene, entry, t, trajectory)
    m = entry.q.shape[0] - 1
    rep_pos = rank_report(pos_block, tolerance, floor=abs(t))
    rep_dir = rank_report(dir_block, tolerance, floor=abs(t))
    free = not any(ev.t < t for ev in trajectory.events)
    regular = True if free else (rep_pos.rank == m and rep_dir.rank == m)
    return RegularityResult(rep_pos, rep_dir, regular, t)


@dataclass
class ConjugateResult:
    conjugate: bool
    smallest_singular_value: float
    singular_values: np.ndarray
    tolerance: float

    def to_dict(self):
        return {
            "conjugate": self.conjugate,
            "smallest_singular_value": self.smallest_singular_value,
            "singular_values": [float(s) for s in self.singular_values],
            "tolerance": self.tolerance,
        }


def conjugate_test(scene, trajectory, i: int, j: int, tolerance: float = 1e-4) -> ConjugateResult:
    """Conjugacy of two boundary reflection points along a trajectory.

    Builds the differential of the map sending a direction perturbation just
    after event i to the boundary arrival point near event j (projected onto
    the tangent plane along the ray) and declares the pair conjugate when the
    smallest singular value drops below tolerance times the larger of the
    largest singular value and the flight span between the events (the span
    is the natural magnitude of the map, so a fully collapsed 1x1 block in
    the plane still registers)."""
    events = trajectory.events
    if not (0 <= i < j < len(events)):
        raise IndexOutOfRange(f"need 0 <= i < j < {len(events)}, got ({i}, {j})")
    if events[i].type != "transversal" or events[j].type != "transversal":
        raise TangentIncidence("conjugate_test endpoints must be transversal events")
    if any(ev.type != "transversal" for ev in events[i + 1:j]):
        raise TangentIncidence(f"tangent event between indices {i} and {j}")
    frame = _walk(scene, events[i + 1:j], seed_frame(events[i].v_out, 0.0, 1.0), events[i].t,
                  events[j].t)

    arrival = events[j]
    normal = scene.obstacles[arrival.obstacle].normal_at(arrival.x)
    v = arrival.v_in
    cos_j = -float(v @ normal)
    if cos_j <= TANGENCY_THRESHOLD:
        raise TangentIncidence("tangent incidence at the arrival event")
    ambient = frame.basis @ frame.A
    coef = (normal @ ambient) / float(v @ normal)
    # columns in the tangent plane at the arrival, so their singular values
    # are those of the map onto it
    onto_boundary = ambient - np.outer(v, coef)
    sv = np.linalg.svd(onto_boundary, compute_uv=False)
    smax = float(sv[0]) if sv.size else 0.0
    smin = float(sv[-1]) if sv.size else 0.0
    span = events[j].t - events[i].t
    conjugate = smin <= tolerance * max(smax, span)
    return ConjugateResult(conjugate, smin, sv, tolerance)
