"""Linearized dynamics along trajectories.

A JacobiFrame carries the transverse position block A and direction block B
of k variations, each (m, k) with m = n - 1, in a basis of m columns
orthogonal to the ray direction, which is the traced one: the frame holds no
direction, and each reflected direction is the event's `v_out`. Free flight
maps (A, B) to (A + tB, B); a transversal reflection maps the basis E to H E
with the mirror H = I - 2 n n^T, keeps A and adds C A to B, with the
curvature term C = 2 cos(phi) * dy^T S dy, where dy moves the basis along the
ray onto the tangent plane (`_onto_tangent_plane`) and S is the obstacle's
shape form there, Hess F / |grad F|. Only its restriction to the tangent
plane matters, which holds dy, so S need not be projected. Both maps are
linear symplectic. H is orthogonal, so the mirrored basis stays orthonormal
and orthogonal to `v_out` up to rounding; it is not re-orthonormalised: its
columns drift by about one rounding per reflection.

The layer runs on Python floats, as the tracer does. A frame holds A and B
row by row and the basis column by column, as lists of floats; `A`, `B` and
`basis` read them as float64 arrays. Each map is written out for m = 1 and
m = 2 with every sum taken left to right, and a rank test takes its singular
values in closed form. An `Incidence` holds arrays, tuples or lists.

Each incidence is the obstacle's figure at the tracer's root, which the
event keeps: the tracer's unit normal (`flow._root_normal`), so the layer
transfers the traced reflection bit for bit, and the form `root_hessian` /
|grad F| (on a curve2d kappa t t^T at the root's piece and parameter). It is
made on first use and kept (`_incidences`): the `conjugate` command shares
it between every walk that reflects there and every arrival there. No
incidence makes a closest-point query, and on spheres, ellipsoids and
superellipsoids none depends on the CPU's BLAS or SIMD kernels.

A new frame shares every row it does not change with the old one (free
flight builds only A + tB, a reflection keeps A), so no code writes into a
frame. One walk, `_walk`, serves `flow_differentials` (at time t),
`conjugate_test` (on arrival at event j) and the `conjugate` command (once
per start event, read at every later one).

Both verdicts are one rank rule, `rank_report`'s: a singular value counts
toward the rank when it exceeds tolerance * max(largest singular value,
floor). `regularity_test` applies it to the two flow differentials at time t
with floor t; `conjugate_test` to the map from a direction offset after one
event onto the tangent plane at a later one, by the reflection transfer's
projection, with the flight span between the events as floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import flow
from .curves import _axpy, _dot, _floats, _inner
from .flow import TANGENCY_THRESHOLD
from .geometry import NumericFailure, _Record, _tangent_columns

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
    a: list  # the m rows of A, (n-1, k): transverse position variation of k variations
    b: list  # the m rows of B, (n-1, k): transverse direction variation
    e: list  # the m basis columns, each of n floats, orthogonal to the ray direction

    @property
    def A(self) -> np.ndarray:
        return np.array(self.a)

    @property
    def B(self) -> np.ndarray:
        return np.array(self.b)

    @property
    def basis(self) -> np.ndarray:
        """(n, n-1): the columns, orthonormal up to rounding."""
        return np.array(self.e).T


@dataclass
class Incidence:
    v_in: object  # (n,) the incoming direction
    normal: object  # (n,) the unit normal into the free region
    # (n, n) the shape form: symmetric, Hess F / |grad F| on the tangent plane,
    # such as `SurfaceFrame.shape_ambient()` or Hess F / |grad F| itself
    shape_ambient: object


def _seed_rows(X, m: int) -> list:
    """A seed block as m rows of floats: X times the identity for a scalar X,
    else the (m, k) matrix X."""
    if np.isscalar(X):
        return [[X * float(r == c) for c in range(m)] for r in range(m)]
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != m:
        raise ValueError(f"a seed block has {m} rows, not shape {X.shape}")
    return X.tolist()


def seed_frame(direction, A0, B0) -> JacobiFrame:
    """The frame (A0, B0) in `tangent_basis(direction)`; a scalar seed block
    is that multiple of the identity."""
    v = _floats(direction)
    m = len(v) - 1
    a, b = _seed_rows(A0, m), _seed_rows(B0, m)
    if len(a[0]) != len(b[0]):
        raise ValueError("seed blocks A0 and B0 differ in width")
    return JacobiFrame(a, b, _tangent_columns(v))


def propagate_free(frame: JacobiFrame, t: float) -> JacobiFrame:
    """Flat free flight for time t >= 0: positions pick up t * direction
    variation; B and the basis are the old frame's rows."""
    if t < 0:
        raise ValueError("free flight time must be non-negative")
    a = [[x + t * y for x, y in zip(ra, rb)] for ra, rb in zip(frame.a, frame.b)]
    return JacobiFrame(a, frame.b, frame.e)


def _reflect_basis(columns: list, n) -> list:
    """The mirrored basis H E, H = I - 2 n n^T, column by column. H is
    orthogonal, so the coordinates of a variation in the basis pass the
    mirror unchanged."""
    return [_axpy(e, -2.0 * _dot(e, n), n) for e in columns]


def _onto_tangent_plane(columns: list, v, n) -> list:
    """The columns moved along the ray direction v onto the tangent plane of
    the unit normal n, x - v (n . x) / (v . n): where a ray offset by a
    column meets the boundary, to first order. Raises TangentIncidence at
    (near-)tangent incidence, where it is undefined."""
    vn = _dot(v, n)
    if -vn <= TANGENCY_THRESHOLD:
        raise TangentIncidence(f"cos(incidence) = {-vn:g}")
    out = []
    for x in columns:
        r = _dot(n, x) / vn
        out.append([xi - vi * r for xi, vi in zip(x, v)])
    return out


def propagate_reflection(frame: JacobiFrame, incidence: Incidence) -> JacobiFrame:
    """Reflection transfer of the transverse variations at a transversal event."""
    v, n = _floats(incidence.v_in), _floats(incidence.normal)
    shape = _floats(incidence.shape_ambient)
    dy = _onto_tangent_plane(frame.e, v, n)
    w = -2.0 * _dot(v, n)  # 2 cos(phi)
    s_dy = [[_dot(row, d) for row in shape] for d in dy]
    a, b = frame.a, frame.b
    if len(dy) == 1:
        c = w * _dot(dy[0], s_dy[0])
        b = [[y + c * x for x, y in zip(a[0], b[0])]]
    else:
        # C symmetrised, as the form is symmetric
        c00, c11 = w * _dot(dy[0], s_dy[0]), w * _dot(dy[1], s_dy[1])
        c01 = 0.5 * (w * _dot(dy[0], s_dy[1]) + w * _dot(dy[1], s_dy[0]))
        a0, a1 = a
        b = [[y + (c00 * x0 + c01 * x1) for x0, x1, y in zip(a0, a1, b[0])],
             [y + (c01 * x0 + c11 * x1) for x0, x1, y in zip(a0, a1, b[1])]]
    return JacobiFrame(a, b, _reflect_basis(frame.e, n))


def _transpose(rows) -> list:
    """The columns of a matrix given by its rows, or the rows of one given by
    its columns, as lists."""
    return [list(col) for col in zip(*rows)]


def symplectic_pairing(f1: JacobiFrame, f2: JacobiFrame) -> np.ndarray:
    """A1^T B2 - B1^T A2; conserved by free flight and reflection."""
    a2, b2 = _transpose(f2.a), _transpose(f2.b)
    return np.array([[_inner(p, q) - _inner(r, s) for q, s in zip(b2, a2)]
                     for p, r in zip(_transpose(f1.a), _transpose(f1.b))])


def _incidence(obstacle, event) -> Incidence:
    """The Incidence of an event at its root, on floats: the tracer's unit
    normal (`flow._root_normal`), and `root_hessian` / |grad F|."""
    normal, norm = flow._root_normal(obstacle, event.x, event.root, event.obstacle)
    hessian = obstacle.root_hessian(event.x, event.root)
    return Incidence(event.v_in, normal, [[h / norm for h in row] for row in hessian])


def _incidences(scene, events):
    """incidence(k): the Incidence at events[k], made on first use and kept."""
    made = {}

    def incidence(k: int) -> Incidence:
        if k not in made:
            ev = events[k]
            made[k] = _incidence(scene.obstacles[ev.obstacle], ev)
        return made[k]

    return incidence


def _walk(events, incidence, frame: JacobiFrame, first: int, t_prev: float, t: float):
    """Carry `frame` from time t_prev through events[first:] before time t:
    yield it on arrival at each, and last at t. It is reflected at an event
    only when the next frame is asked for; a tangent event then raises
    TangentOnPath."""
    for k in range(first, len(events)):
        ev = events[k]
        if ev.t >= t:
            break
        frame = propagate_free(frame, ev.t - t_prev)
        yield frame
        if ev.type != "transversal":
            raise TangentOnPath(f"tangent event at t = {ev.t:g}")
        frame, t_prev = propagate_reflection(frame, incidence(k)), ev.t
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
    events = trajectory.events
    if trajectory.status != "exited" and events and t > events[-1].t:
        raise ValueError("time t beyond a truncated trajectory")
    # the seeds (A, B) = (0, I) and (I, 0) side by side, in the basis of the
    # traced entry direction (`ends[1]`): each event mirrors one basis
    v0 = trajectory.ends[1]
    m = len(v0) - 1
    eye = _seed_rows(1.0, m)
    seeds = seed_frame(v0, [[0.0] * m + r for r in eye], [r + [0.0] * m for r in eye])
    *_, frame = _walk(events, _incidences(scene, events), seeds, 0, 0.0, t)
    return np.array([row[:m] for row in frame.a]), np.array([row[m:] for row in frame.b])


def transport_basis(scene, trajectory, t: float, columns: list) -> list:
    """The transverse basis at the entry, its columns as lists of floats,
    mirrored at every event before time t by the normal at its root
    (`flow._root_normal`, with no shape form): the oracle's own copy of the
    chain the frame propagation mirrors through."""
    for ev in trajectory.events:
        if ev.t >= t:
            break
        if ev.type != "transversal":
            raise TangentOnPath(f"tangent event at t = {ev.t:g}")
        normal = flow._root_normal(scene.obstacles[ev.obstacle], ev.x, ev.root, ev.obstacle)[0]
        columns = _reflect_basis(columns, normal)
    return columns


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
    basis_0 = _tangent_columns(central.ends[1])
    basis_t = transport_basis(scene, central, t, basis_0)
    q, v = entry.q.tolist(), entry.v.tolist()
    cos_h, sin_h, two_h = math.cos(h), math.sin(h), 2.0 * h

    def difference(probe, k, what):
        """Central difference in basis_t of part k (0: q, 1: v) of the
        states at time t of the orbits from probe(+1) and probe(-1)."""
        ends = []
        for sign in (+1.0, -1.0):
            traj = flow.trace_phase(scene, *probe(sign))
            if _itinerary(traj, t) != signature:
                raise ItineraryChanged(f"{what} changed the event list")
            ends.append(flow.state_at(traj, t)[k])
        step = [x - y for x, y in zip(*ends)]
        return [_dot(e, step) / two_h for e in basis_t]

    # direction probes answer in position, position probes in direction
    pos_block, dir_block = [], []
    for i, e in enumerate(basis_0):
        pos_block.append(difference(lambda s: (q, [cos_h * vj + sin_h * s * ej for vj, ej in zip(v, e)]),
                                    0, f"direction probe {i}"))
        dir_block.append(difference(lambda s: ([qj + s * h * ej for qj, ej in zip(q, e)], v),
                                    1, f"position probe {i}"))
    return np.array(_transpose(pos_block)), np.array(_transpose(dir_block))


@dataclass
class RankReport(_Record):
    singular_values: np.ndarray  # descending
    rank: int
    tolerance: float


def _singular_values(columns) -> list:
    """Singular values, descending, of a map of one column, or of two
    columns of two or three rows, in closed form. One column x: |x|. Two
    columns p, q: with c = sigma_1 sigma_2 the area |p x q| (|det| for two
    rows) and F^2 the sum of the squares, (sigma_1 + sigma_2)^2 = F^2 + 2c
    and (sigma_1 - sigma_2)^2 = F^2 - 2c, here written as
    (|p| - |q|)^2 + 2 (p . q)^2 / (|p| |q| + c), a sum of squares that keeps
    every digit when the two values are close (Blinn, "Consider the lowly
    2x2 matrix", IEEE CG&A 1996). Then sigma_1 is the mean of the two roots
    and sigma_2 = c / sigma_1, never taken from the Gram determinant."""
    if len(columns) == 1:
        return [math.sqrt(_inner(columns[0], columns[0]))]
    p, q = columns
    pp, qq = _inner(p, p), _inner(q, q)
    if len(p) == 2:
        area = abs(p[0] * q[1] - p[1] * q[0])
    else:
        cross = [p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0]]
        area = math.sqrt(_dot(cross, cross))
    norm_p, norm_q = math.sqrt(pp), math.sqrt(qq)
    pq, span = _dot(p, q), norm_p * norm_q + area
    gap = norm_p - norm_q
    spread = gap * gap + (2.0 * pq * pq / span if span > 0.0 else 0.0)
    largest = 0.5 * (math.sqrt(pp + qq + 2.0 * area) + math.sqrt(spread))
    return [largest, area / largest if largest > 0.0 else 0.0]


def rank_report(matrix, tolerance: float, floor: float = 0.0) -> RankReport:
    """Singular values and rank at tolerance * max(largest value, floor) of
    a map of one column, or of two columns of two or three rows (an array,
    or its rows as lists of floats).

    The floor supplies an absolute scale so that a numerically-zero block
    still reads as rank deficient; with floor 0 the test is purely relative.
    """
    sv = _singular_values(_transpose(_floats(matrix)))
    threshold = tolerance * max(sv[0], floor)
    rank = sum(s > threshold for s in sv) if threshold > 0 else sum(s > 0 for s in sv)
    return RankReport(np.array(sv), rank, tolerance)


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
    return next(_conjugacies(events, _incidences(scene, events), i, [j], tolerance))[1]


def _conjugacies(events, incidence, i: int, later, tolerance: float):
    """(j, conjugate_test(i, j)) for each j of the ascending `later` in
    turn, from one walk of the frame seeded after event i, read on arrival
    at each j, so nothing past the last j is reflected. `incidence` is
    `_incidences` of the events, which a caller may share between starts.
    Raises TangentIncidence at the first j past a tangent event."""
    start, reached = events[i], i
    walk = _walk(events, incidence, seed_frame(start.v_out, 0.0, 1.0), i + 1, start.t, math.inf)
    for j in later:
        if any(ev.type != "transversal" for ev in events[reached + 1:j]):
            raise TangentIncidence(f"tangent event between indices {i} and {j}")
        frame, arrival, reached = next(islice(walk, j - reached - 1, None)), incidence(j), j
        # the arrival map E A, column by column, onto the tangent plane at j
        if len(frame.a) == 1:
            ambient = [[x * a0 for x in frame.e[0]] for a0 in frame.a[0]]
        else:
            ambient = [[x * a0 + y * a1 for x, y in zip(*frame.e)] for a0, a1 in zip(*frame.a)]
        onto = _onto_tangent_plane(ambient, arrival.v_in, arrival.normal)
        report = rank_report(_transpose(onto), tolerance, floor=events[j].t - start.t)
        sv = report.singular_values
        yield j, ConjugateResult(report.rank < len(onto), float(sv[-1]), sv, tolerance)
