"""Linearized dynamics along trajectories.

A JacobiFrame carries the transverse position block A and direction block B
of a family of variations, expressed in a basis orthogonal to the ray
direction, which is the traced one: the frame holds no direction, and each
reflected direction is the event's `v_out`. Free flight maps (A, B) to
(A + tB, B); a transversal reflection maps the basis E to H E with the
mirror H = I - 2 n n^T, keeps A and adds C A to B, with the curvature term
C = 2 cos(phi) * dy^T S dy built from the ambient shape operator S at the
event, where dy projects transverse offsets onto the tangent plane along the
ray (`_onto_tangent_plane`). Both maps are linear symplectic. The normal n
is `ambient_shape`'s: the tracer's bit for bit on spheres, ellipsoids and
superellipsoids; on a curve2d the tracer reflects by the piece normal at
the root's parameter and n is the closest-point foot's, the same to a few
1e-14. H is orthogonal, so the mirrored basis stays orthonormal and
orthogonal to `v_out` up to rounding; it is not re-orthonormalised: its
columns drift by about one rounding per reflection.

A new frame shares every array it does not change with the old one (free
flight builds only A + tB, a reflection keeps A), so no code writes into
the arrays of a frame. One walk, `_walk`, serves `flow_differentials` (at
time t), `conjugate_test` (on arrival at event j) and the `conjugate`
command (once per start event, read at every later one).

Both verdicts are one rank rule, `rank_report`'s: a singular value counts
toward the rank when it exceeds tolerance * max(largest singular value,
floor). `regularity_test` applies it to the two flow differentials at time t
with floor t; `conjugate_test` to the map from a direction offset after one
event onto the tangent plane at a later one, by the reflection transfer's
projection, with the flight span between the events as floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import flow
from .flow import TANGENCY_THRESHOLD
from .geometry import NumericFailure, _Record, ambient_shape, tangent_basis

REGULARITY_TOL = 1e-6  # regularity_test's default rank tolerance (`regularity --tol`)
CONJUGATE_TOL = 1e-4   # conjugate_test's default rank tolerance (`conjugate --tol`)


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


def _onto_tangent_plane(X: np.ndarray, v: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The columns of X moved along the ray direction v onto the tangent
    plane of the unit normal n, X - v (n^T X) / (v . n): where a ray offset
    by a column of X meets the boundary, to first order. Raises
    TangentIncidence at (near-)tangent incidence, where it is undefined."""
    cos_phi = -float(v @ n)
    if cos_phi <= TANGENCY_THRESHOLD:
        raise TangentIncidence(f"cos(incidence) = {cos_phi:g}")
    return X - np.outer(v, (n @ X) / -cos_phi)


def propagate_reflection(frame: JacobiFrame, incidence: Incidence) -> JacobiFrame:
    """Reflection transfer of the transverse variations at a transversal event."""
    v, n = incidence.v_in, incidence.normal
    dy = _onto_tangent_plane(frame.basis, v, n)
    C = -2.0 * float(v @ n) * (dy.T @ incidence.shape_ambient @ dy)
    C = 0.5 * (C + C.T)
    return JacobiFrame(frame.A, frame.B + C @ frame.A, _reflect_basis(frame.basis, n))


def symplectic_pairing(f1: JacobiFrame, f2: JacobiFrame) -> np.ndarray:
    """A1^T B2 - B1^T A2; conserved by free flight and reflection."""
    return f1.A.T @ f2.B - f1.B.T @ f2.A


def _walk(scene, events, frame: JacobiFrame, t_prev: float, t: float):
    """Carry `frame` from time t_prev through the events before time t:
    yield it on arrival at each, and last at t. It is reflected at an event
    only when the next frame is asked for; a tangent event then raises
    TangentOnPath."""
    for ev in events:
        if ev.t >= t:
            break
        frame = propagate_free(frame, ev.t - t_prev)
        yield frame
        if ev.type != "transversal":
            raise TangentOnPath(f"tangent event at t = {ev.t:g}")
        incidence = Incidence(ev.v_in, *ambient_shape(scene.obstacles[ev.obstacle], ev.x))
        frame, t_prev = propagate_reflection(frame, incidence), ev.t
    yield propagate_free(frame, t - t_prev)


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
    *_, frame = _walk(scene, trajectory.events, seeds, 0.0, t)
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
class RankReport(_Record):
    singular_values: np.ndarray  # descending
    rank: int
    tolerance: float


def rank_report(matrix: np.ndarray, tolerance: float, floor: float = 0.0) -> RankReport:
    """Singular values and rank at tolerance * max(largest value, floor).

    The floor supplies an absolute scale so that a numerically-zero block
    still reads as rank deficient; with floor 0 the test is purely relative.
    """
    sv = np.linalg.svd(matrix, compute_uv=False)
    smax = float(sv[0]) if sv.size else 0.0
    threshold = tolerance * max(smax, floor)
    rank = int(np.count_nonzero(sv > threshold)) if threshold > 0 else int(np.count_nonzero(sv > 0))
    return RankReport(sv, rank, tolerance)


@dataclass
class RegularityResult(_Record):
    position_by_direction: RankReport
    direction_by_position: RankReport
    regular: bool
    t: float


def regularity_test(scene, entry: flow.PhasePoint, t: float | None = None,
                    tolerance: float = REGULARITY_TOL) -> RegularityResult:
    """Rank reports of both flow differentials at time t (default: exit time
    plus one ball radius), each by rank_report with floor |t|. A trajectory
    that meets the boundary is regular when both ranks equal the transverse
    dimension n-1; a free ray never reflects, its direction response to
    position offsets is identically zero, and it counts as regular
    vacuously."""
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
class ConjugateResult(_Record):
    conjugate: bool
    smallest_singular_value: float
    singular_values: np.ndarray  # descending
    tolerance: float


def conjugate_test(scene, trajectory, i: int, j: int,
                   tolerance: float = CONJUGATE_TOL) -> ConjugateResult:
    """Conjugacy of two boundary reflection points along a trajectory.

    Builds the differential of the map sending a direction perturbation just
    after event i to the boundary arrival point near event j (the reflection
    transfer's projection onto the tangent plane there, along the ray), and
    declares the pair conjugate when its rank by rank_report falls below n-1,
    with the flight span between the events as the floor: the span is the
    natural magnitude of the map, so a fully collapsed 1x1 block in the
    plane still registers."""
    events = trajectory.events
    if not (0 <= i < j < len(events)):
        raise IndexOutOfRange(f"need 0 <= i < j < {len(events)}, got ({i}, {j})")
    if events[i].type != "transversal" or events[j].type != "transversal":
        raise TangentIncidence("conjugate_test endpoints must be transversal events")
    return next(_conjugacies(scene, events, i, [j], tolerance))[1]


def _conjugacies(scene, events, i: int, later, tolerance: float):
    """(j, conjugate_test(i, j)) for each j of the ascending `later` in
    turn, from one walk of the frame seeded after event i, read on arrival
    at each j, so nothing past the last j is reflected. Raises
    TangentIncidence at the first j past a tangent event."""
    start, reached = events[i], i
    walk = _walk(scene, events[i + 1:], seed_frame(start.v_out, 0.0, 1.0), start.t, np.inf)
    for j in later:
        if any(ev.type != "transversal" for ev in events[reached + 1:j]):
            raise TangentIncidence(f"tangent event between indices {i} and {j}")
        frame, arrival, reached = next(islice(walk, j - reached - 1, None)), events[j], j
        normal = scene.obstacles[arrival.obstacle].normal_at(arrival.x)
        onto = _onto_tangent_plane(frame.basis @ frame.A, arrival.v_in, normal)
        report = rank_report(onto, tolerance, floor=arrival.t - start.t)
        sv = report.singular_values
        yield j, ConjugateResult(report.rank < onto.shape[1], float(sv[-1]), sv, tolerance)
