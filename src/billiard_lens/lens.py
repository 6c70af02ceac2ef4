"""Lens data over the entry phase set of the boundary sphere.

Entries are pairs (q, v) with q on the sphere and v pointing inward. Grid
mode enumerates a deterministic equal-area product grid of positions and
inward directions; Monte Carlo mode draws from the seeded xoshiro256**
stream, so identical specs give bitwise identical tables on any platform.

A lens table is held in columns, one array per field with one row per
entry: params (N, k), q and v (N, n), status, reflections, t, theta (N, n),
sojourn and error. A null t, sojourn or theta is NaN in its column (a table
holds no NaN otherwise), a null error is None. The table, like the entry set
of the sampler, reads as a sequence of row views built on access.

Lens data moves one block of BLOCK_ROWS rows at a time, as a `_Block` of
the table's columns. One generator (`_lens_blocks`) samples a block of
entries, grid rows as functions of their index and mc rows from the
generator's next draws, and traces them (`_trace_rows`): `build_lens_table`
concatenates its blocks, `estimate_trapped` keeps what it counts of each,
and `write_lens_rows` formats each block into an open text stream as it
comes, keeping the header's summary as the rows stream (`_Summary`, whose
mean is exact). `table_to_jsonl` and `table_to_csv` format a whole table
with the same row formatter (`_lines`) and head. One reader
(`_table_reader`) turns each block of lines of an open file into columns:
`read_jsonl` concatenates them, and `compare_jsonl` reads two files in
lockstep and feeds each pair of blocks to the join (`_Join`) that
`compare_lens` runs on two whole tables. So writing a table
that is traced, and comparing two files, hold one block, not the table. The
reader checks each column of a block once, by the converter that makes its
array (`_column`): on a bad column the converter, run on each row alone,
names the line of the first bad row.

Lens tables, the trapped ladder and the scattering spectrum record their
rays through one recorder (`_trace_rows`): one trace per entry, and a
numeric failure of one ray is an "error" row, not the end of the batch.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import __version__ as VERSION
from . import flow, geometry
from .curves import _dot
from .flow import Limits
from .geometry import _Record, canonical_json, tangent_basis
from .rng import Xoshiro256StarStar

STATUSES = ("free", "scattered", "trapped", "gliding_rejected", "tangent_flagged", "error")
SPECTRUM_GAP_FACTOR = 5e-3  # * a; sojourn times closer than this share a spectrum bin
ANGULAR_TOL = 1e-2  # rad; `sls`'s default exit-direction tolerance (`sls --tol`)
TIME_TOL_FACTOR = 1e-6  # * a; `compare`'s default time tolerance (`compare --tol`)
BLOCK_ROWS = 1024  # rows that are sampled, traced, formatted, decoded and joined at a time
# boundary_distance: the neighbours in each axis order that bound a point's
# distance, and the points whose exact distance is taken at a time
HAUSDORFF_WINDOW = 8
HAUSDORFF_CHUNK = 16
TREE_PAIRS = 1 << 20  # estimate_trapped: a k-d tree above this many trapped x free pairs


class SpecMismatch(ValueError):
    """Two tables were not generated from the identical sample spec."""


@dataclass(frozen=True)
class SampleSpec(_Record):
    mode: str                    # "grid" | "mc"
    n_positions: int = 0
    n_directions: int = 0
    n_total: int = 0
    seed: int = 0
    n_max: int = 10000
    t_max: float | None = None

    def __post_init__(self):
        if self.mode not in ("grid", "mc"):
            raise ValueError("mode must be 'grid' or 'mc'")
        if self.mode == "grid" and (self.n_positions < 1 or self.n_directions < 1):
            raise ValueError("grid mode needs n_positions >= 1 and n_directions >= 1")
        if self.mode == "mc" and self.n_total < 1:
            raise ValueError("mc mode needs n_total >= 1")
        if not 0 <= self.seed < 2**64:  # the generator would take it mod 2^64
            raise ValueError(f"seed must be an integer in [0, 2^64), not {self.seed}")
        self.limits()  # range checks of n_max and t_max

    def count(self) -> int:
        return self.n_positions * self.n_directions if self.mode == "grid" else self.n_total

    def limits(self) -> Limits:
        return Limits(n_max=self.n_max, t_max=self.t_max)

    def spec_string(self) -> str:
        if self.mode == "grid":
            return f"grid:{self.n_positions}x{self.n_directions}"
        return f"mc:{self.n_total}"

    @staticmethod
    def from_dict(d: dict) -> "SampleSpec":
        return SampleSpec(
            d["mode"], d["n_positions"], d["n_directions"], d["n_total"],
            d["seed"], d["n_max"], d["t_max"],
        )


def parse_spec(text: str, seed: int = 0, n_max: int = 10000, t_max: float | None = None) -> SampleSpec:
    """Parse 'grid:POSxDIR' or 'mc:N'; ValueError naming the spec and these
    forms if it is neither."""
    kind, _, rest = text.partition(":")
    fields = {"grid": rest.split("x") + ["0"], "mc": ["0", "0", rest]}.get(kind, [])
    try:
        counts = [int(field) for field in fields]  # n_positions, n_directions, n_total
    except ValueError:
        counts = []
    if len(counts) != 3:
        raise ValueError(f"bad sample spec {text!r}: expected grid:POSxDIR or mc:N, "
                         "with POS, DIR and N whole numbers")
    return SampleSpec(kind, *counts, seed, n_max, t_max)


class _RowViews(Sequence):
    """Column data read one row at a time: self[k] is the view of row k,
    built on access from the k-th entry of each column."""

    def __len__(self):
        return len(self.q)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self._row(i) for i in range(len(self))[k]]
        return self._row(range(len(self))[k])


class Entry(NamedTuple):
    params: tuple
    q: np.ndarray
    v: np.ndarray


@dataclass(frozen=True, eq=False)
class Entries(_RowViews):
    """Entry states in columns: parameters (N, k), positions and directions (N, n)."""
    params: np.ndarray
    q: np.ndarray
    v: np.ndarray

    def _row(self, k: int) -> Entry:
        return Entry(tuple(self.params[k].tolist()), self.q[k], self.v[k])


def _cos_sin(x: np.ndarray):
    """cos and sin of each element by `math`, as one entry takes them, so a batch
    has their bits on any numpy build (test_curves finds numpy's float64 sin
    and cos bit-equal to libm's on its draws, on the build it runs on)."""
    x = x.tolist()
    return np.array(list(map(math.cos, x))), np.array(list(map(math.sin, x)))


def _entries(a: float, dim: int, P: np.ndarray) -> Entries:
    """Entries for the rows of the parameter matrix P: (alpha, beta) in 2D,
    position angle and angle of v from the inward normal; (z, phi, mu, psi)
    in 3D, position height and azimuth, mu = <v, nu> and the azimuth of v in
    the tangent frame."""
    if dim == 2:
        cos_a, sin_a = _cos_sin(P[:, 0])
        cos_b, sin_b = _cos_sin(P[:, 1])
        q = a * np.stack([cos_a, sin_a], axis=-1)
        nu = -q / a
        v = cos_b[:, None] * nu + sin_b[:, None] * tangent_basis(nu)[..., 0]
    else:
        z, mu = P[:, 0], P[:, 2]
        cos_phi, sin_phi = _cos_sin(P[:, 1])
        cos_psi, sin_psi = _cos_sin(P[:, 3])
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        q = a * np.stack([rho * cos_phi, rho * sin_phi, z], axis=-1)
        nu = -q / a
        T = tangent_basis(nu)
        sin_theta = np.sqrt(np.maximum(0.0, 1.0 - mu * mu))
        v = (sin_theta[:, None] * (cos_psi[:, None] * T[..., 0] + sin_psi[:, None] * T[..., 1])
             + mu[:, None] * nu)
    return Entries(P, q, v)


def _param_blocks(spec: SampleSpec, dimension: int):
    """The parameter rows of the spec's entries, BLOCK_ROWS at a time (see
    sample_phase_sphere). Grid row r crosses position r // m with direction
    r % m, each a function of its index; mc rows take the generator's next
    draws, so the blocks hold the rows of one stream of draws."""
    n, m = spec.count(), spec.n_directions
    gen = Xoshiro256StarStar(spec.seed)
    draws = 2 * (dimension - 1)  # per entry, in the order of its parameters
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        if spec.mode == "grid":
            i, j = np.divmod(np.arange(lo, hi), m)
            columns = ([2.0 * math.pi * i / spec.n_positions, -0.5 * math.pi + math.pi * (j + 0.5) / m]
                       if dimension == 2 else
                       [1.0 - (2.0 * i + 1.0) / spec.n_positions, geometry.golden_angle(i),
                        1.0 - j / m, geometry.golden_angle(j)])
        else:
            U = np.array(gen.uniforms(draws * (hi - lo))).reshape(-1, draws)
            columns = ([2.0 * math.pi * U[:, 0], -0.5 * math.pi + math.pi * U[:, 1]] if dimension == 2
                       else [2.0 * U[:, 0] - 1.0, 2.0 * math.pi * U[:, 1], U[:, 2], 2.0 * math.pi * U[:, 3]])
        yield np.column_stack(columns)


def sample_phase_sphere(spec: SampleSpec, ball_radius: float, dimension: int) -> Entries:
    """Entry samples covering the inward phase set of the boundary sphere,
    as columns; entries[k] is the Entry of row k.

    Grid mode: positions crossed with inward directions in the local tangent
    frame, equally spaced in 2D; in 3D each is a golden-angle lattice
    (`geometry.golden_angle`), positions at the n midpoint heights
    z = 1 - (2k + 1)/n and directions at mu = 1 - k/m, from normal incidence
    (impact parameter 0) to just short of grazing.
    MC mode: uniform draws from the seeded generator. Every entry satisfies
    <v, inward normal> >= 0. The rows are those of `_param_blocks`, whose
    blocks `_lens_blocks` traces one at a time.
    """
    return _entries(float(ball_radius), dimension, np.concatenate(list(_param_blocks(spec, dimension))))


class LensRow(NamedTuple):
    """One row of a LensTable, as its columns hold it, with None for null."""
    params: tuple
    q: np.ndarray
    v: np.ndarray
    status: str
    t: float | None
    reflections: int
    theta: np.ndarray | None
    sojourn: float | None
    error: str | None


def _or_none(x: float):
    return None if math.isnan(x) else x


def _status_column(status) -> np.ndarray:
    """Strings of STATUSES, in an array wide enough for any of them."""
    return np.array(status, dtype=(str, max(map(len, STATUSES))))


@dataclass(eq=False)
class LensTable(_RowViews):
    """Lens data of every entry of a spec, one column per field (see the
    module docstring); `status` holds strings of STATUSES."""
    scene_hash: str
    spec: SampleSpec
    params: np.ndarray       # (N, k)
    q: np.ndarray            # (N, n)
    v: np.ndarray            # (N, n)
    status: np.ndarray       # (N,) str
    reflections: np.ndarray  # (N,) int
    t: np.ndarray            # (N,), NaN for null
    theta: np.ndarray        # (N, n), NaN rows for null
    sojourn: np.ndarray      # (N,), NaN for null
    error: np.ndarray        # (N,) object: str or None
    summary: dict

    @property
    def samples(self) -> "LensTable":
        """The rows, as a read-only sequence of LensRow views."""
        return self

    def _row(self, k: int) -> LensRow:
        theta = self.theta[k]
        return LensRow(tuple(self.params[k].tolist()), self.q[k], self.v[k], str(self.status[k]),
                       _or_none(float(self.t[k])), int(self.reflections[k]),
                       None if np.isnan(theta).any() else theta, _or_none(float(self.sojourn[k])),
                       self.error[k])


def _mean(xs) -> float:
    """Mean of a non-empty list of floats by the correctly rounded `math.fsum`:
    the builtin `sum` of floats rounds differently from Python 3.12 on."""
    return math.fsum(xs) / len(xs)


class _ExactSum:
    """The exact sum of the floats added so far, held in a few floats
    (`parts`, non-overlapping partials as Shewchuk's): the first is fsum of
    them all, and each next one is what the parts before it leave, rounded
    once. Each add takes fsum of the parts and the new floats, and fsum is
    correctly rounded, so mean() has the bits of `_mean` of every float added."""

    def __init__(self):
        self.parts, self.count = [], 0

    def add(self, xs: list):
        self.count += len(xs)
        xs = self.parts + xs
        part = math.fsum(xs)
        self.parts = [part]  # fsum of them all, a zero with fsum's sign included
        while part and math.isfinite(part):
            xs.append(-part)
            part = math.fsum(xs)
            if part:
                self.parts.append(part)

    def mean(self) -> float:
        return self.parts[0] / self.count


def classify_trajectory(traj) -> str:
    if traj.status == "gliding_rejected":
        return "gliding_rejected"
    if any(ev.type == "tangent" for ev in traj.events):
        return "tangent_flagged"
    if traj.status == "trapped":
        return "trapped"
    return "free" if not traj.events else "scattered"


def _counts(status: np.ndarray) -> dict:
    """The number of rows of each of STATUSES in a status column."""
    return {s: int(np.count_nonzero(status == s)) for s in STATUSES}


class _Summary:
    """A lens table's summary, kept as its blocks stream: the rows of each
    of STATUSES, and the least, the greatest and the exact sum of the
    non-null t, so that to_dict() is the summary of the whole table."""

    def __init__(self):
        self.counts = dict.fromkeys(STATUSES, 0)
        self.t_min = self.t_max = None
        self.times = _ExactSum()

    def tally(self, blocks):
        """Each of the blocks, added to the summary as it passes."""
        for block in blocks:
            for status, count in _counts(block.status).items():
                self.counts[status] += count
            times = block.t[~np.isnan(block.t)].tolist()
            if times:  # min and max keep the first of equal values, as on one list
                self.t_min = min(times) if self.t_min is None else min(self.t_min, min(times))
                self.t_max = max(times) if self.t_max is None else max(self.t_max, max(times))
                self.times.add(times)
            yield block

    def to_dict(self) -> dict:
        return {"counts": dict(self.counts), "t_min": self.t_min, "t_max": self.t_max,
                "t_mean": self.times.mean() if self.times.count else None}


def _trace_rows(scene, Q, V, limits: Limits) -> tuple:
    """The LensTable columns from status to error of the entries (Q[k], V[k]),
    checked on the block's columns before its first ray (`flow.check_entry`)
    and each traced once by `flow.trace_phase` on the rows' floats: the
    status by classify_trajectory, the reflection count, theta of an exited
    ray, t and sojourn of a free or scattered one. A ray reads only the floats
    of its trajectory, so it makes no numpy object; lens tables pass one
    block of rows at a time (`_lens_blocks`). A numeric failure of one ray
    (geometry.NUMERIC_FAILURES) is recorded in its row, status "error" with
    the exception's name and message, rather than aborting the batch."""
    n, dim = V.shape
    flow.check_entry(scene, list(Q.T), list(V.T))
    status, error, reflections = ["error"] * n, [None] * n, [0] * n
    t, sojourn = [math.nan] * n, [math.nan] * n
    theta = [[math.nan] * dim] * n  # rows replaced, never changed in place
    for k, q, v in zip(range(n), Q.tolist(), V.tolist()):
        try:
            traj = flow.trace_phase(scene, q, v, limits)
        except geometry.NUMERIC_FAILURES as exc:
            error[k] = f"{type(exc).__name__}: {exc}"
            continue
        status[k] = classify_trajectory(traj)
        reflections[k] = len(traj.events)
        if traj.status == "exited":
            theta[k] = traj.ends[3]
        if status[k] in ("free", "scattered"):
            t[k] = traj.total_time
            sojourn[k] = flow.sojourn_time(traj)
    return (_status_column(status), np.array(reflections, dtype=np.int64), np.array(t),
            np.array(theta).reshape(n, dim), np.array(sojourn), np.array(error, dtype=object))


class _Block(NamedTuple):
    """The columns of a block of rows of a lens table, in LensTable order."""
    params: np.ndarray
    q: np.ndarray
    v: np.ndarray
    status: np.ndarray
    reflections: np.ndarray
    t: np.ndarray
    theta: np.ndarray
    sojourn: np.ndarray
    error: np.ndarray


def _lens_blocks(scene, spec: SampleSpec):
    """The lens data of the spec's entries, one _Block of BLOCK_ROWS rows at
    a time: a block of parameters (`_param_blocks`), its entries and one
    trace of each (`_trace_rows`). Each block is made when it is asked for,
    so a caller that keeps none holds one block of entries and rows."""
    a, dim, limits = float(scene.ball_radius), scene.dimension, spec.limits()
    for P in _param_blocks(spec, dim):
        entries = _entries(a, dim, P)
        yield _Block(P, entries.q, entries.v, *_trace_rows(scene, entries.q, entries.v, limits))


def _concatenated(blocks) -> list:
    """The nine columns of a stream of _Blocks: one field at a time, each
    freeing its blocks, so that the columns are held once."""
    fields = [[] for _ in _Block._fields]
    for block in blocks:
        for parts, col in zip(fields, block):
            parts.append(col)
    return [np.concatenate(fields.pop(0)) for _ in range(len(fields))]


def build_lens_table(scene, spec: SampleSpec) -> LensTable:
    """Trace every entry of the spec once and record its lens data: the
    blocks of `_lens_blocks`, concatenated, with their summary. Tangent-flagged
    samples (an orbit with any tangent event) carry no travelling time: they
    sit on the measure-zero strata excluded from the comparison harness."""
    summary = _Summary()
    columns = _concatenated(summary.tally(_lens_blocks(scene, spec)))
    return LensTable(geometry.scene_hash(scene), spec, *columns, summary.to_dict())


def write_lens_rows(scene, spec: SampleSpec, out, csv: bool = False,
                    header_extra: dict | None = None) -> str:
    """Trace every entry of the spec a block at a time (`_lens_blocks`) and
    write each block's JSONL rows, or CSV rows, to the open text stream out
    as it comes; return the head that precedes the rows in a file: the CSV
    head, or the JSONL header, whose summary is kept as the rows stream. The
    head and the rows are table_to_jsonl or table_to_csv of
    build_lens_table(scene, spec), byte for byte."""
    summary = _Summary()
    lines = _csv_lines if csv else _jsonl_lines
    for block in summary.tally(_lens_blocks(scene, spec)):
        out.writelines(lines(block))
    if csv:
        return _csv_head(geometry.scene_hash(scene), spec, scene.dimension)
    return _jsonl_head(geometry.scene_hash(scene), spec, summary.to_dict(), header_extra)


# ---------------------------------------------------------------------------
# trapped-set estimation


@dataclass
class TrappedEstimate(_Record):
    resolutions: list
    fractions: list       # of the rays that are not errors; None if every ray is one
    cluster_radii: list   # None likewise
    trapped_counts: list
    error_counts: list


def _phase_coords(block: _Block, rows: np.ndarray, a: float) -> np.ndarray:
    return np.hstack([block.q[rows] / a, block.v[rows]])


def estimate_trapped(scene, specs) -> TrappedEstimate:
    """Trapped fraction over a ladder of at least 3 increasing resolutions,
    with the largest-trapped-ball cluster diagnostic per rung.

    The cluster radius is the largest distance (in normalized phase space)
    from a trapped sample to its nearest non-trapped sample: a radius that
    stays put under refinement indicates an open trapped pocket, a shrinking
    radius is consistent with a null trapped set. Heuristic only. Above
    TREE_PAIRS trapped x non-trapped pairs a cKDTree takes the distances (the
    bits of `geometry.nearest_distances`), and only then is scipy imported.

    Error rows (a numeric failure of the ray) are counted per rung and left
    out of both: the fraction is of the other rays, and the radius is taken
    to the non-trapped rays that are not errors.

    Each rung drains the blocks of `_lens_blocks` and keeps of them only the
    counts and the phase coordinates of the trapped and of the judged
    non-trapped rows. The radius needs every non-trapped coordinate, so a
    rung holds O(rows) floats, 2n of them a row, not one block.
    """
    specs = list(specs)
    if len(specs) < 3:
        raise ValueError("need a ladder of at least 3 sample specs")
    counts = [s.count() for s in specs]
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ValueError("ladder resolutions must be strictly increasing")
    a = scene.ball_radius
    fractions, radii, trapped_counts, error_counts = [], [], [], []
    for spec in specs:
        inside, outside = [], []  # phase coordinates of the trapped and the judged non-trapped rows
        for block in _lens_blocks(scene, spec):
            trapped, judged = block.status == "trapped", block.status != "error"
            inside.append(_phase_coords(block, trapped, a))
            outside.append(_phase_coords(block, judged & ~trapped, a))
        P, Q = np.concatenate(inside), np.concatenate(outside)
        count, rays = len(P), len(P) + len(Q)
        if rays == 0:
            radius = None
        elif count == 0:
            radius = 0.0
        elif count == rays:
            radius = 2.0 * math.sqrt(2.0)  # diameter bound of the normalized phase space
        elif len(P) * len(Q) > TREE_PAIRS:
            from scipy.spatial import cKDTree

            radius = float(np.max(cKDTree(Q).query(P)[0]))
        else:
            radius = float(np.max(geometry.nearest_distances(P, Q)))
        fractions.append(count / rays if rays else None)
        radii.append(radius)
        trapped_counts.append(count)
        error_counts.append(spec.count() - rays)
    return TrappedEstimate(counts, fractions, radii, trapped_counts, error_counts)


# ---------------------------------------------------------------------------
# scattering length spectrum


@dataclass
class SpectrumBin(_Record):
    sojourn: float
    count: int
    lo: float
    hi: float


class Spectrum(list):
    """The SpectrumBins of a scattering spectrum, by increasing sojourn, with
    `counts`: the rays traced, by status, as a lens table's summary has them."""

    def __init__(self, bins, counts: dict):
        super().__init__(bins)
        self.counts = counts


def _impact_offsets(scene, omega, spec: SampleSpec):
    """Sample points of the impact plane tangent to the sphere at -a*omega,
    offsets orthogonal to omega of length at most 0.999 a, so that the line
    along omega through each one crosses the ball. A 3D grid is the
    golden-angle lattice (`geometry.golden_angle`) at radii shadow sqrt(k/n),
    whose first, k = 0, is the centre ray."""
    a = scene.ball_radius
    shadow = 0.1 * a
    for obs in scene.obstacles:
        c = obs.center
        perp = c - _dot(c, omega) * omega
        shadow = max(shadow, math.sqrt(_dot(perp, perp)) + obs.bounding_radius())
    shadow = min(1.02 * shadow, 0.999 * a)
    n, T = spec.count(), tangent_basis(omega)
    if scene.dimension == 2:
        if spec.mode == "grid":
            ss = [0.0] if n == 1 else [shadow * (2.0 * i / (n - 1) - 1.0) for i in range(n)]
        else:
            ss = [shadow * (2.0 * u - 1.0) for u in Xoshiro256StarStar(spec.seed).uniforms(n)]
        return [s * T[:, 0] for s in ss]
    if spec.mode == "grid":
        polar = [(shadow * math.sqrt(k / n), geometry.golden_angle(k)) for k in range(n)]
    else:
        U = Xoshiro256StarStar(spec.seed).uniforms(2 * n)  # radius, then angle, per point
        polar = [(shadow * math.sqrt(u), 2.0 * math.pi * w) for u, w in zip(U[::2], U[1::2])]
    return [r * (math.cos(ang) * T[:, 0] + math.sin(ang) * T[:, 1]) for r, ang in polar]


def scattering_spectrum(scene, omega, theta, angular_tol: float, spec: SampleSpec) -> Spectrum:
    """Sojourn-time bins of rays entering with direction omega and leaving
    within angular_tol of theta. Rays are launched from the support plane of
    the sphere across the obstacle shadow, recorded (_trace_rows), filtered
    by exit direction, and their sojourn times clustered with the gap
    threshold SPECTRUM_GAP_FACTOR * a."""
    omega, theta = (x / math.sqrt(_dot(x, x)) for x in (np.asarray(omega, float), np.asarray(theta, float)))
    a = scene.ball_radius
    gap = SPECTRUM_GAP_FACTOR * a
    kept, entries = [], []
    for offset in _impact_offsets(scene, omega, spec):
        origin = -a * omega + offset
        entries.append(origin + flow._ball_chord(origin.tolist(), omega.tolist(), a)[0] * omega)
    Q = np.array(entries).reshape(-1, len(omega))
    status, _, _, exits, sojourns, _ = _trace_rows(scene, Q, np.tile(omega, (len(Q), 1)),
                                                   spec.limits())
    for ray, theta_exit, sojourn in zip(status.tolist(), exits, sojourns.tolist()):
        if (ray in ("free", "scattered")
                and math.acos(min(1.0, max(-1.0, _dot(theta_exit, theta)))) <= angular_tol):
            kept.append(sojourn)
    kept.sort()
    bins = []
    start = 0
    for k in range(1, len(kept) + 1):
        if k == len(kept) or kept[k] - kept[k - 1] > gap:
            group = kept[start:k]
            bins.append(SpectrumBin(_mean(group), len(group), group[0], group[-1]))
            start = k
    return Spectrum(bins, _counts(status))


# ---------------------------------------------------------------------------
# comparison harness


@dataclass
class ComparisonReport(_Record):
    matched: int
    compared: int
    excluded_tangent: int
    both_trapped: int
    status_mismatches: int
    reflection_mismatches: int
    max_dt: float
    mean_dt: float
    exceed_fraction: float
    time_tolerance: float
    verdict: str


class _Join:
    """The per-sample join of two tables generated from the identical spec,
    fed their aligned blocks a pair at a time (add): report() is the
    ComparisonReport of the whole tables. The join keeps counts, the largest
    |dt| and the exact sum of |dt| (`_ExactSum`), so its mean has the bits of
    `_mean` over every compared row. A time_tolerance of None is
    TIME_TOL_FACTOR times |q| of table k's first row: entry points sit on the
    sphere of radius a."""

    def __init__(self, spec_k: SampleSpec, spec_l: SampleSpec, time_tolerance: float | None):
        if spec_k != spec_l:
            raise SpecMismatch("lens tables were generated from different sample specs")
        self.time_tolerance = time_tolerance
        self.matched = self.excluded = self.both_trapped = 0
        self.status_mismatches = self.reflection_mismatches = self.exceed = 0
        self.max_dt = 0.0
        self.dts = _ExactSum()

    def add(self, k, l):
        """Join the rows of k and l, two blocks (or tables) of equal length."""
        if not np.array_equal(k.params, l.params):
            raise SpecMismatch("sample entry parameters do not align")
        if self.time_tolerance is None:
            self.time_tolerance = TIME_TOL_FACTOR * math.sqrt(_dot(k.q[0], k.q[0]))
        sk, sl = k.status, l.status
        excluded = (sk == "tangent_flagged") | (sl == "tangent_flagged")
        both_trapped = ~excluded & (sk == "trapped") & (sl == "trapped")
        joined = ~excluded & ~both_trapped
        status_mm = joined & (sk != sl)
        timed = joined & ~status_mm & ((sk == "free") | (sk == "scattered"))
        dts = np.abs(k.t[timed] - l.t[timed])
        self.matched += len(sk)
        self.excluded += int(np.count_nonzero(excluded))
        self.both_trapped += int(np.count_nonzero(both_trapped))
        self.status_mismatches += int(np.count_nonzero(status_mm))
        self.reflection_mismatches += int(np.count_nonzero(k.reflections[timed] != l.reflections[timed]))
        self.exceed += int(np.count_nonzero(dts > self.time_tolerance))
        if len(dts):
            self.max_dt = float(np.max([self.max_dt, dts.max()]))  # a NaN stays, as in one max
            self.dts.add(dts.tolist())

    def report(self) -> ComparisonReport:
        compared = self.dts.count
        verdict = ("indistinguishable" if self.exceed == 0 and self.status_mismatches == 0
                   and self.reflection_mismatches == 0 else "distinguishable")
        return ComparisonReport(self.matched, compared, self.excluded, self.both_trapped,
                                self.status_mismatches, self.reflection_mismatches, self.max_dt,
                                self.dts.mean() if compared else 0.0,
                                self.exceed / compared if compared else 0.0, self.time_tolerance,
                                verdict)


def compare_lens(table_k: LensTable, table_l: LensTable, time_tolerance: float) -> ComparisonReport:
    """Per-sample join of two lens tables generated from the identical spec,
    by the join (`_Join`) that `compare_jsonl` feeds block by block.

    Tangent-flagged samples are excluded (measure-zero strata); trapped
    samples compare by status only. The verdict is 'indistinguishable' iff
    no status or reflection-count mismatches and no time differences above
    tolerance remain."""
    join = _Join(table_k.spec, table_l.spec, time_tolerance)
    if len(table_k) != len(table_l):
        raise SpecMismatch("lens tables have different sample counts")
    join.add(table_k, table_l)
    return join.report()


def compare_jsonl(lines_k, lines_l, time_tolerance: float | None = None) -> tuple:
    """(scene hash of k, scene hash of l, compare_lens of the two tables that
    read_jsonl reads from the text lines lines_k and lines_l), read block by
    block in lockstep by the reader of read_jsonl (`_table_reader`): so one
    block of each is held, not the tables. Both headers are read first; then
    block i of k, block i of l, and their join, so a fault in an early block
    of l is reported before one in a later block of k. None takes the
    tolerance of `_Join`."""
    head_k, spec_k, blocks_k = _table_reader(lines_k)
    head_l, spec_l, blocks_l = _table_reader(lines_l)
    join = _Join(spec_k, spec_l, time_tolerance)
    # the reader yields only blocks that agree with its spec's count, so two
    # readers of one spec end together, and strict only runs l's last check
    for block_k, block_l in zip(blocks_k, blocks_l, strict=True):
        join.add(block_k, block_l)
    return head_k["scene_hash"], head_l["scene_hash"], join.report()


def boundary_distance(scene_k, scene_l, density: float) -> float:
    """Symmetric Hausdorff distance between sampled boundary clouds, exact:
    the pruned search of `_farthest_nearest`, whose exact passes take
    HAUSDORFF_CHUNK points at a time through `geometry.nearest_distances`,
    numpy alone, so scipy is never imported, at any density.

    An obstacle of bounding radius R takes n = max(64, int(2 pi R density))
    points in 2D, about `density` per unit length of its bounding circle,
    and max(256, 8 n) in 3D: linear in `density` there too, so a 3D cloud's
    spacing is not 1/density and shrinks only as 1/sqrt(density)."""
    if scene_k.dimension != scene_l.dimension:
        raise ValueError("scenes must have equal dimension")

    def cloud(scene):
        pts = []
        for obs in scene.obstacles:
            perimeter = 2.0 * math.pi * obs.bounding_radius()
            target = max(64, int(perimeter * density))
            if scene.dimension == 3:
                target = max(256, target * 8)
            pts.append(obs.boundary_points(target))
        return np.vstack(pts)

    A, B = cloud(scene_k), cloud(scene_l)
    return _farthest_nearest(B, A, _farthest_nearest(A, B, 0.0))


def _farthest_nearest(A: np.ndarray, B: np.ndarray, floor: float) -> float:
    """max(floor, the largest distance from a row of A to its nearest row of
    B), exact (Taha and Hanbury, IEEE TPAMI 37(11), 2015).

    Each row's distance to the nearest of its HAUSDORFF_WINDOW neighbours in
    each axis order of B bounds its distance to B from above, in the same
    arithmetic as `geometry.nearest_distances`. Rows are visited by
    decreasing bound, HAUSDORFF_CHUNK at a time, for their exact distance,
    until no bound left exceeds the largest distance found."""
    w = min(HAUSDORFF_WINDOW, len(B))
    At = np.ascontiguousarray(A.T)
    nearest = np.full(len(A), np.inf)
    for k in range(len(At)):
        Bt = np.ascontiguousarray(B[np.argsort(B[:, k])].T)
        first = np.clip(np.searchsorted(Bt[k], At[k]) - w // 2, 0, len(B) - w)
        for j in range(w):
            np.minimum(nearest, geometry.squared_distances(At, Bt[:, first + j]), out=nearest)
    bound = np.sqrt(nearest)
    visit = np.argsort(-bound)
    for lo in range(0, len(A), HAUSDORFF_CHUNK):
        if bound[visit[lo]] <= floor:
            break
        rows = A[visit[lo:lo + HAUSDORFF_CHUNK]]
        floor = max(floor, float(np.max(geometry.nearest_distances(rows, B))))
    return floor


# ---------------------------------------------------------------------------
# serialization


def _numbers(width: int) -> str:
    """A %-template of `width` numbers: '%.17g' % x is format_float(x)."""
    return ",".join(["%.17g"] * width)


def _lines(block, template) -> list:
    """One text line for each row of a block (a _Block or a LensTable),
    ending in a newline. Rows that share a status and a pattern of null t,
    sojourn and theta share one %-template: template(block, status, t_null,
    sojourn_null, theta_null) returns it and the columns whose numbers it
    takes, in order."""
    groups = (np.isnan(block.t) + 2 * np.isnan(block.sojourn)
              + 4 * np.isnan(block.theta[:, 0]))  # + 8 * the status's index in STATUSES
    for k, name in enumerate(STATUSES):
        groups[block.status == name] += 8 * k
    out = np.empty(len(groups), dtype=object)
    for group in np.flatnonzero(np.bincount(groups)).tolist():
        rows = np.flatnonzero(groups == group)
        k, null = divmod(group, 8)
        tpl, cols = template(block, STATUSES[k], null & 1, null & 2, null & 4)
        tpl += "\n"
        out[rows] = [tpl % tuple(r) for r in np.column_stack([c[rows] for c in cols]).tolist()]
    return out.tolist()


def _jsonl_head(scene_hash: str, spec: SampleSpec, summary: dict,
                header_extra: dict | None = None) -> str:
    """The header line of a JSONL table, without its newline."""
    header = {"scene_hash": scene_hash, "spec": spec.to_dict(), "version": VERSION,
              "summary": summary}
    if header_extra:
        header = {**header_extra, **header}  # core table keys win on collision
    return canonical_json(header)


def _jsonl_template(block, status, t_null, sojourn_null, theta_null):
    """A JSONL row's %-template (see _lines), the keys in canonical_json's
    sorted order, and its columns."""
    vector = "[" + _numbers(block.q.shape[1]) + "]"
    cols = [block.params, block.q, block.reflections] + [
        col for col, null in ((block.sojourn, sojourn_null), (block.t, t_null),
                              (block.theta, theta_null)) if not null] + [block.v]
    return ('{"error":null,"params":[' + _numbers(block.params.shape[1]) + '],"q":' + vector
            + ',"reflections":%d,"sojourn":' + ("null" if sojourn_null else "%.17g")
            + ',"status":' + json.dumps(status) + ',"t":' + ("null" if t_null else "%.17g")
            + ',"theta":' + ("null" if theta_null else vector) + ',"v":' + vector + "}"), cols


def _jsonl_lines(block) -> list:
    """The JSONL rows of a block, each equal to canonical_json of its row's
    fields."""
    rows = _lines(block, _jsonl_template)
    for k, error in enumerate(block.error.tolist()):
        if error is not None:
            rows[k] = '{"error":' + json.dumps(error) + rows[k][len('{"error":null'):]
    return rows


def table_to_jsonl(table: LensTable, header_extra: dict | None = None) -> str:
    """The table's JSONL text: the header line, then one row per sample,
    formatted by the block row formatter (`_jsonl_lines`) on the whole table."""
    return (_jsonl_head(table.scene_hash, table.spec, table.summary, header_extra) + "\n"
            + "".join(_jsonl_lines(table)))


_HEADER_KEYS = frozenset(("scene_hash", "spec"))
_ROW_KEYS = ("params", "q", "v", "status", "t", "reflections", "theta", "sojourn")
_NUMBER_TYPES = frozenset((int, float))  # exact types: JSON true/false load as bool, rejected


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


# one decoder for every line: json.loads with keyword arguments builds one per
# call; "-0" reads as the float -0.0, so a table rewrites it with its sign
_DECODER = json.JSONDecoder(parse_constant=_no_constant, parse_int=geometry._json_int)


def _decode(line: str, lineno: int):
    try:
        return _DECODER.decode(line)
    except ValueError as exc:  # malformed JSON, or NaN / Infinity
        raise geometry.SchemaError(f"lens table line {lineno}: invalid JSON: {exc}") from exc


def _json_object(line: str, lineno: int, keys) -> dict:
    d = _decode(line, lineno)
    if not isinstance(d, dict):
        raise geometry.SchemaError(f"lens table line {lineno}: not a JSON object")
    if not d.keys() >= keys:
        missing = sorted(keys - d.keys())
        raise geometry.SchemaError(f"lens table line {lineno}: missing keys {missing}")
    return d


def _column(col, convert, linenos, message: str):
    """convert(col), a column's array, or None if a row of col is bad; then
    SchemaError naming the line of the first row x for which convert([x])
    is None, and the message, which may name x as {!r}."""
    out = convert(col)
    if out is None:
        k = next(k for k, x in enumerate(col) if convert([x]) is None)
        raise geometry.SchemaError(f"lens table line {linenos[k]}: " + message.format(col[k]))
    return out


def _statuses(col):
    if set(map(type, col)) <= {str} and set(col) <= set(STATUSES):
        return _status_column(col)


def _reflection_counts(col):
    # a count that the writers, which format it from a float, keep exactly
    if set(map(type, col)) <= {int} and 0 <= min(col) and max(col) <= 2**53:
        return np.array(col, dtype=np.int64)


def _errors(col):
    if set(map(type, col)) <= {str, type(None)}:
        return np.array(col, dtype=object)


def _float_array(numbers, count: int):
    """The count numbers (None gives NaN) as floats; None if one is infinite
    or an integer beyond the float range."""
    try:
        x = np.fromiter(numbers, dtype=float, count=count)
    except OverflowError:
        return None
    return None if np.isinf(x).any() else x


def _nullable_numbers(col):
    if set(map(type, col)) <= _NUMBER_TYPES | {type(None)}:
        return _float_array(col, len(col))


def _vectors(col, width: int, linenos, key: str, nullable: bool = False) -> np.ndarray:
    """(N, width) floats of a column of lists of numbers; NaN rows for null."""
    def convert(col):
        rows = [[math.nan] * width if x is None else x for x in col] if nullable else col
        if (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}
                and set(map(type, chain.from_iterable(rows))) <= _NUMBER_TYPES):
            x = _float_array(chain.from_iterable(rows), width * len(col))
            return None if x is None else x.reshape(-1, width)

    message = f"{key} must be a list of {width} numbers" + (" or null" if nullable else "")
    return _column(col, convert, linenos, message)


def _columns(lines: list, n: int | None) -> tuple:
    """The columns of a block of (line number, line) pairs, in LensTable
    order: each row decoded once, each column checked in one pass, and the
    first bad row of a bad column named. n is the dimension, None to take
    it from the first row."""
    linenos = [k for k, _ in lines]
    raw_decode = _DECODER.raw_decode
    rows = []
    for lineno, ln in lines:
        try:
            row, end = raw_decode(ln)
        except ValueError:
            end = None
        # whitespace around the value, or an error: the full decoder reads it or names it
        rows.append(row if end == len(ln) else _decode(ln, lineno))
    try:
        params, q, v, status, t, reflections, theta, sojourn = (
            list(map(itemgetter(key), rows)) for key in _ROW_KEYS)
    except (KeyError, TypeError):  # a row that is no object, or lacks a key: find it
        for lineno, ln in lines:
            _json_object(ln, lineno, frozenset(_ROW_KEYS))
        raise
    status = _column(status, _statuses, linenos, "unknown status {!r}")
    reflections = _column(reflections, _reflection_counts, linenos,
                          "reflections must be an integer from 0 to 2**53")
    error = _column([d.get("error") for d in rows], _errors, linenos, "error must be a string or null")
    t = _column(t, _nullable_numbers, linenos, "t must be a number or null")
    untimed = np.flatnonzero(((status == "free") | (status == "scattered")) & np.isnan(t))
    if untimed.size:
        raise geometry.SchemaError(f"lens table line {linenos[untimed[0]]}: "
                                   "a free or scattered row must have a number t")
    if n is None:
        n = len(q[0]) if type(q[0]) is list and len(q[0]) in (2, 3) else 2
    return (_vectors(params, 2 * (n - 1), linenos, "params"), _vectors(q, n, linenos, "q"),
            _vectors(v, n, linenos, "v"), status, reflections, t,
            _vectors(theta, n, linenos, "theta", nullable=True),
            _column(sojourn, _nullable_numbers, linenos, "sojourn must be a number or null"), error)


def _table_reader(lines) -> tuple:
    """(header, spec, blocks) of a lens table from an iterable of text lines
    (an open file): the header line is read and checked now, and blocks is a
    generator of the rows' _Blocks (`_columns`), BLOCK_ROWS lines at a time.
    It raises SchemaError naming the line on malformed input, and one naming
    both counts when the rows are fewer or more than the spec's, after a bad
    row of any block read. It yields a block only while the rows read agree
    with the spec's count, so two readers of one spec yield blocks of equal
    lengths."""
    numbered = ((k, ln.rstrip("\n")) for k, ln in enumerate(lines, 1) if ln.strip())
    lineno, first = next(numbered, (None, None))
    if first is None:
        raise ValueError("empty lens table file")
    header = _json_object(first, lineno, _HEADER_KEYS)
    try:
        spec = SampleSpec.from_dict(header["spec"])
    except (KeyError, TypeError, ValueError) as exc:
        raise geometry.SchemaError(f"lens table line {lineno}: bad spec: {exc!r}") from exc
    return header, spec, _row_blocks(numbered, spec)


def _row_blocks(numbered, spec: SampleSpec):
    """The _Blocks of the (line number, line) pairs of a table's rows (see
    _table_reader): a block that leaves fewer rows than the spec's at the end
    of the file, or passes its count, is not yielded, and the rest is read
    before the count's SchemaError."""
    n, rows, count = None, 0, spec.count()
    for lines in iter(lambda: list(islice(numbered, BLOCK_ROWS)), []):
        block = _Block(*_columns(lines, n))
        n, rows, full = block.q.shape[1], rows + len(lines), len(lines) == BLOCK_ROWS
        del lines  # the text is not held beside the block
        if rows == count or (rows < count and full):
            yield block
    if rows != count:
        raise geometry.SchemaError(f"lens table has {rows} rows, but its spec "
                                   f"{spec.spec_string()} has {count}")


def read_jsonl(lines) -> LensTable:
    """Parse a lens table from an iterable of text lines (an open file), by
    the block reader `_table_reader`, whose errors it raises: SchemaError
    naming the line on malformed input, a bad row before a wrong row count.
    The columns are the blocks', concatenated, so that besides them only one
    block of text and of decoded rows is held."""
    header, spec, blocks = _table_reader(lines)
    return LensTable(header["scene_hash"], spec, *_concatenated(blocks), header.get("summary", {}))


def table_from_jsonl(text: str) -> LensTable:
    """The table that read_jsonl reads from the lines of text. (An
    io.StringIO of the text would hold four bytes per character.)"""
    return read_jsonl(text.splitlines())


def _csv_head(scene_hash: str, spec: SampleSpec, dimension: int) -> str:
    """The `#` line with the version, scene hash, spec and seed, and the
    column line, of a CSV table."""
    param_names = ["alpha", "beta"] if dimension == 2 else ["pos_z", "pos_phi", "dir_mu", "dir_psi"]
    theta_names = [f"theta_{ax}" for ax in "xyz"[:dimension]]
    cols = param_names + ["status", "t", "reflections"] + theta_names + ["sojourn"]
    return ("# billiard-lens " + VERSION + " scene=" + scene_hash + " spec=" + spec.spec_string()
            + " seed=" + str(spec.seed) + "\n" + ",".join(cols))


def _csv_template(block, status, t_null, sojourn_null, theta_null):
    """A CSV row's %-template (see _lines), empty fields for nulls, and its
    columns."""
    dimension = block.q.shape[1]
    cols = [block.params] + [col for col, null in ((block.t, t_null), (block.reflections, False),
                                                   (block.theta, theta_null),
                                                   (block.sojourn, sojourn_null)) if not null]
    return (_numbers(block.params.shape[1]) + "," + status + "," + ("" if t_null else "%.17g")
            + ",%d," + ("," * (dimension - 1) if theta_null else _numbers(dimension)) + ","
            + ("" if sojourn_null else "%.17g")), cols


def _csv_lines(block) -> list:
    return _lines(block, _csv_template)


def table_to_csv(table: LensTable) -> str:
    """The table's CSV text: the head (`_csv_head`), then one row per
    sample, formatted by the block row formatter (`_csv_lines`) on the whole
    table."""
    return (_csv_head(table.scene_hash, table.spec, table.q.shape[1]) + "\n"
            + "".join(_csv_lines(table)))
