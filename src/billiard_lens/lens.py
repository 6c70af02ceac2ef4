"""Lens data over the entry phase set of the boundary sphere.

Entries are pairs (q, v) with q on the sphere and v pointing inward. Grid
mode enumerates a deterministic equal-area product grid of positions and
inward directions; Monte Carlo mode draws from the seeded xoshiro256**
stream, so identical specs give bitwise identical tables on any platform.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__ as VERSION
from . import flow, geometry
from .flow import Limits, PhasePoint
from .geometry import canonical_json, format_float, tangent_basis
from .rng import Xoshiro256StarStar

STATUSES = ("free", "scattered", "trapped", "gliding_rejected", "tangent_flagged", "error")
SPECTRUM_GAP_FACTOR = 5e-3  # * a; sojourn times closer than this share a spectrum bin


class SpecMismatch(ValueError):
    """Two tables were not generated from the identical sample spec."""


@dataclass(frozen=True)
class SampleSpec:
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
        self.limits()  # range checks of n_max and t_max

    def count(self) -> int:
        return self.n_positions * self.n_directions if self.mode == "grid" else self.n_total

    def limits(self) -> Limits:
        return Limits(n_max=self.n_max, t_max=self.t_max)

    def spec_string(self) -> str:
        if self.mode == "grid":
            return f"grid:{self.n_positions}x{self.n_directions}"
        return f"mc:{self.n_total}"

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n_positions": self.n_positions,
            "n_directions": self.n_directions,
            "n_total": self.n_total,
            "seed": self.seed,
            "n_max": self.n_max,
            "t_max": self.t_max,
        }

    @staticmethod
    def from_dict(d: dict) -> "SampleSpec":
        return SampleSpec(
            d["mode"], d["n_positions"], d["n_directions"], d["n_total"],
            d["seed"], d["n_max"], d["t_max"],
        )


def parse_spec(text: str, seed: int = 0, n_max: int = 10000, t_max: float | None = None) -> SampleSpec:
    """Parse 'grid:POSxDIR' or 'mc:N'."""
    kind, _, rest = text.partition(":")
    if kind == "grid":
        pos, _, dirs = rest.partition("x")
        return SampleSpec("grid", int(pos), int(dirs), 0, seed, n_max, t_max)
    if kind == "mc":
        return SampleSpec("mc", 0, 0, int(rest), seed, n_max, t_max)
    raise ValueError(f"bad sample spec {text!r}")


@dataclass
class Entry:
    params: tuple
    q: np.ndarray
    v: np.ndarray


def _rounded_partition(total: int, bands: int):
    edges = [round(total * k / bands) for k in range(bands + 1)]
    return [edges[k + 1] - edges[k] for k in range(bands)]


def _cos_sin(x: np.ndarray):
    """cos and sin of each element by `math`, so that a batch rounds like the
    one-entry formulas on every platform (numpy's own may differ by an ulp)."""
    x = x.tolist()
    return np.array(list(map(math.cos, x))), np.array(list(map(math.sin, x)))


def _entries(a: float, dim: int, P: np.ndarray) -> list[Entry]:
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
    return [Entry(p, qk, vk) for p, qk, vk in zip(map(tuple, P.tolist()), q, v)]


def _band_grid(total: int, heights: list) -> np.ndarray:
    """(height, azimuth) rows: the total split between bands at the given
    heights, each band at equally spaced azimuths."""
    return np.array([(h, 2.0 * math.pi * i / max(1, m))
                     for h, m in zip(heights, _rounded_partition(total, len(heights)))
                     for i in range(m)])


def sample_phase_sphere(spec: SampleSpec, ball_radius: float, dimension: int):
    """Entry samples covering the inward phase set of the boundary sphere.

    Grid mode: positions on an equal-area grid of the sphere crossed with an
    equal-area grid of the inward hemisphere in the local tangent frame.
    MC mode: uniform draws from the seeded generator. Every entry satisfies
    <v, inward normal> >= 0.
    """
    a = float(ball_radius)
    if spec.mode == "grid":
        if dimension == 2:
            alpha = 2.0 * math.pi * np.arange(spec.n_positions) / spec.n_positions
            beta = -0.5 * math.pi + math.pi * (np.arange(spec.n_directions) + 0.5) / spec.n_directions
            positions, directions = alpha[:, None], beta[:, None]
        else:
            nb = max(2, int(round(math.sqrt(spec.n_positions))))
            db = max(1, int(round(math.sqrt(spec.n_directions / 2.0))))
            positions = _band_grid(spec.n_positions, [1.0 - (2.0 * k + 1.0) / nb for k in range(nb)])
            directions = _band_grid(spec.n_directions, [1.0 - (k + 0.5) / db for k in range(db)])
        P = np.hstack([np.repeat(positions, len(directions), axis=0),
                       np.tile(directions, (len(positions), 1))])
    else:
        gen = Xoshiro256StarStar(spec.seed)
        draws = 2 * (dimension - 1)  # per entry, in the order of its parameters
        U = np.array([gen.uniform() for _ in range(draws * spec.n_total)]).reshape(-1, draws)
        if dimension == 2:
            P = np.column_stack([2.0 * math.pi * U[:, 0], -0.5 * math.pi + math.pi * U[:, 1]])
        else:
            P = np.column_stack([2.0 * U[:, 0] - 1.0, 2.0 * math.pi * U[:, 1], U[:, 2],
                                 2.0 * math.pi * U[:, 3]])
    return _entries(a, dimension, P)


@dataclass
class LensSample:
    params: tuple
    q: np.ndarray
    v: np.ndarray
    status: str
    t: float | None
    reflections: int
    theta: np.ndarray | None
    sojourn: float | None
    error: str | None = None


@dataclass
class LensTable:
    scene_hash: str
    spec: SampleSpec
    samples: list
    summary: dict


def _mean(xs) -> float:
    """Mean of a non-empty list of floats by the correctly rounded `math.fsum`:
    the builtin `sum` of floats rounds differently from Python 3.12 on."""
    return math.fsum(xs) / len(xs)


def classify_trajectory(traj) -> str:
    if traj.status == "gliding_rejected":
        return "gliding_rejected"
    if any(ev.type == "tangent" for ev in traj.events):
        return "tangent_flagged"
    if traj.status == "trapped":
        return "trapped"
    return "free" if not traj.events else "scattered"


def build_lens_table(scene, spec: SampleSpec) -> LensTable:
    """Trace every entry of the spec and collect per-entry lens data.

    Tangent-flagged samples (an orbit with any tangent event) carry no
    travelling time: they sit on the measure-zero strata excluded from the
    comparison harness. Per-sample numeric failures are recorded in the
    sample rather than aborting the batch.
    """
    entries = sample_phase_sphere(spec, scene.ball_radius, scene.dimension)
    limits = spec.limits()
    samples = []
    for entry in entries:
        try:
            traj = flow.trace(scene, PhasePoint(entry.q, entry.v), limits)
        except flow.RootPolishFailed as exc:
            samples.append(LensSample(entry.params, entry.q, entry.v, "error", None, 0,
                                      None, None, str(exc)))
            continue
        status = classify_trajectory(traj)
        refl = len(traj.events)
        theta = traj.exit_state.v.copy() if traj.status == "exited" else None
        if status in ("free", "scattered"):
            t = traj.total_time
            sojourn = flow.sojourn_time(scene, traj)
        else:
            t = None
            sojourn = None
        samples.append(LensSample(entry.params, entry.q, entry.v, status, t, refl, theta, sojourn))
    counts = {s: 0 for s in STATUSES}
    for s in samples:
        counts[s.status] += 1
    times = [s.t for s in samples if s.t is not None]
    summary = {
        "counts": counts,
        "t_min": min(times) if times else None,
        "t_max": max(times) if times else None,
        "t_mean": _mean(times) if times else None,
    }
    return LensTable(geometry.scene_hash(scene), spec, samples, summary)


# ---------------------------------------------------------------------------
# trapped-set estimation


@dataclass
class TrappedEstimate:
    resolutions: list
    fractions: list
    cluster_radii: list
    trapped_counts: list

    def to_dict(self):
        return {
            "resolutions": self.resolutions,
            "fractions": self.fractions,
            "cluster_radii": self.cluster_radii,
            "trapped_counts": self.trapped_counts,
        }


def _phase_coords(samples, a: float) -> np.ndarray:
    return np.array([np.concatenate([s.q / a, s.v]) for s in samples])


def estimate_trapped(scene, specs) -> TrappedEstimate:
    """Trapped fraction over a ladder of at least 3 increasing resolutions,
    with the largest-trapped-ball cluster diagnostic per rung.

    The cluster radius is the largest distance (in normalized phase space)
    from a trapped sample to its nearest non-trapped sample: a radius that
    stays put under refinement indicates an open trapped pocket, a shrinking
    radius is consistent with a null trapped set. Heuristic only.
    """
    specs = list(specs)
    if len(specs) < 3:
        raise ValueError("need a ladder of at least 3 sample specs")
    counts = [s.count() for s in specs]
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ValueError("ladder resolutions must be strictly increasing")
    a = scene.ball_radius
    fractions, radii, trapped_counts = [], [], []
    for spec in specs:
        table = build_lens_table(scene, spec)
        trapped = [s for s in table.samples if s.status == "trapped"]
        others = [s for s in table.samples if s.status != "trapped"]
        frac = len(trapped) / len(table.samples)
        if not trapped:
            radius = 0.0
        elif not others:
            radius = 2.0 * math.sqrt(2.0)  # diameter bound of the normalized phase space
        else:
            radius = float(np.max(geometry.nearest_distances(_phase_coords(trapped, a),
                                                             _phase_coords(others, a))))
        fractions.append(frac)
        radii.append(radius)
        trapped_counts.append(len(trapped))
    return TrappedEstimate(counts, fractions, radii, trapped_counts)


# ---------------------------------------------------------------------------
# scattering length spectrum


@dataclass
class SpectrumBin:
    sojourn: float
    count: int
    lo: float
    hi: float

    def to_dict(self):
        return {"sojourn": self.sojourn, "count": self.count, "lo": self.lo, "hi": self.hi}


def _impact_offsets(scene, omega, spec: SampleSpec):
    """Sample points of the impact plane tangent to the sphere at -a*omega."""
    a = scene.ball_radius
    shadow = 0.1 * a
    for obs in scene.obstacles:
        c = obs.bounding_center()
        perp = c - float(c @ omega) * omega
        shadow = max(shadow, float(np.linalg.norm(perp)) + obs.bounding_radius())
    shadow = min(1.02 * shadow, 0.999 * a)
    n = spec.count()
    offsets = []
    if scene.dimension == 2:
        t_hat = np.array([-omega[1], omega[0]])
        if spec.mode == "grid":
            ss = [0.0] if n == 1 else [shadow * (2.0 * i / (n - 1) - 1.0) for i in range(n)]
        else:
            gen = Xoshiro256StarStar(spec.seed)
            ss = [shadow * (2.0 * gen.uniform() - 1.0) for _ in range(n)]
        offsets = [s * t_hat for s in ss]
    else:
        T = tangent_basis(omega)
        if spec.mode == "grid":
            offsets = [np.zeros(3)]
            golden = math.pi * (3.0 - math.sqrt(5.0))
            for j in range(n - 1):
                r = shadow * math.sqrt((j + 0.5) / max(1, n - 1))
                ang = golden * j
                offsets.append(r * (math.cos(ang) * T[:, 0] + math.sin(ang) * T[:, 1]))
        else:
            gen = Xoshiro256StarStar(spec.seed)
            for _ in range(n):
                r = shadow * math.sqrt(gen.uniform())
                ang = gen.unit_angle()
                offsets.append(r * (math.cos(ang) * T[:, 0] + math.sin(ang) * T[:, 1]))
    return offsets


def scattering_spectrum(scene, omega, theta, angular_tol: float, spec: SampleSpec):
    """Sojourn-time bins of rays entering with direction omega and leaving
    within angular_tol of theta. Rays are launched from the support plane of
    the sphere across the obstacle shadow, traced, filtered by exit
    direction, and their sojourn times clustered with the gap threshold
    SPECTRUM_GAP_FACTOR * a."""
    omega = np.asarray(omega, dtype=float)
    omega = omega / np.linalg.norm(omega)
    theta = np.asarray(theta, dtype=float)
    theta = theta / np.linalg.norm(theta)
    a = scene.ball_radius
    gap = SPECTRUM_GAP_FACTOR * a
    limits = spec.limits()
    kept = []
    for offset in _impact_offsets(scene, omega, spec):
        origin = -a * omega + offset
        b = float(origin @ omega)
        disc = b * b - (float(origin @ origin) - a * a)
        if disc <= 0.0:
            if float(np.arccos(np.clip(theta @ omega, -1.0, 1.0))) <= angular_tol:
                kept.append(0.0)  # misses the ball: a straight line with zero sojourn
            continue
        t_enter = -b - math.sqrt(disc)
        q0 = origin + t_enter * omega
        traj = flow.trace(scene, PhasePoint(q0, omega.copy()), limits)
        if traj.status != "exited" or any(ev.type == "tangent" for ev in traj.events):
            continue
        theta_exit = traj.exit_state.v
        if float(np.arccos(np.clip(theta_exit @ theta, -1.0, 1.0))) > angular_tol:
            continue
        kept.append(flow.sojourn_time(scene, traj))
    if not kept:
        return []
    kept.sort()
    bins = []
    start = 0
    for k in range(1, len(kept) + 1):
        if k == len(kept) or kept[k] - kept[k - 1] > gap:
            group = kept[start:k]
            bins.append(SpectrumBin(_mean(group), len(group), group[0], group[-1]))
            start = k
    return bins


# ---------------------------------------------------------------------------
# comparison harness


@dataclass
class ComparisonReport:
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

    def to_dict(self):
        return {
            "matched": self.matched,
            "compared": self.compared,
            "excluded_tangent": self.excluded_tangent,
            "both_trapped": self.both_trapped,
            "status_mismatches": self.status_mismatches,
            "reflection_mismatches": self.reflection_mismatches,
            "max_dt": self.max_dt,
            "mean_dt": self.mean_dt,
            "exceed_fraction": self.exceed_fraction,
            "time_tolerance": self.time_tolerance,
            "verdict": self.verdict,
        }


def compare_lens(table_k: LensTable, table_l: LensTable, time_tolerance: float) -> ComparisonReport:
    """Per-sample join of two lens tables generated from the identical spec.

    Tangent-flagged samples are excluded (measure-zero strata); trapped
    samples compare by status only. The verdict is 'indistinguishable' iff
    no status or reflection-count mismatches and no time differences above
    tolerance remain."""
    if table_k.spec != table_l.spec:
        raise SpecMismatch("lens tables were generated from different sample specs")
    if len(table_k.samples) != len(table_l.samples):
        raise SpecMismatch("lens tables have different sample counts")
    matched = len(table_k.samples)
    excluded = both_trapped = status_mm = refl_mm = 0
    dts = []
    exceed = 0
    for sk, sl in zip(table_k.samples, table_l.samples):
        if sk.params != sl.params:
            raise SpecMismatch("sample entry parameters do not align")
        if sk.status == "tangent_flagged" or sl.status == "tangent_flagged":
            excluded += 1
            continue
        if sk.status == "trapped" and sl.status == "trapped":
            both_trapped += 1
            continue
        if sk.status != sl.status:
            status_mm += 1
            continue
        if sk.status in ("free", "scattered"):
            if sk.reflections != sl.reflections:
                refl_mm += 1
            dt = abs(sk.t - sl.t)
            dts.append(dt)
            if dt > time_tolerance:
                exceed += 1
    compared = len(dts)
    max_dt = max(dts) if dts else 0.0
    mean_dt = _mean(dts) if compared else 0.0
    exceed_fraction = exceed / compared if compared else 0.0
    verdict = ("indistinguishable" if exceed == 0 and status_mm == 0 and refl_mm == 0
               else "distinguishable")
    return ComparisonReport(matched, compared, excluded, both_trapped, status_mm, refl_mm,
                            max_dt, mean_dt, exceed_fraction, time_tolerance, verdict)


def boundary_distance(scene_k, scene_l, density: float) -> float:
    """Symmetric Hausdorff distance between sampled boundary clouds.

    `density` is the target number of boundary samples per unit length."""
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
    return float(max(np.max(geometry.nearest_distances(A, B)),
                     np.max(geometry.nearest_distances(B, A))))


# ---------------------------------------------------------------------------
# serialization


def _floats(xs) -> str:
    return ",".join(map(format_float, xs))


def _json_vectors(vectors) -> list[str]:
    """JSON arrays of a column of vectors (None for null)."""
    return ["null" if x is None else "[" + _floats(x.tolist()) + "]" for x in vectors]


def _nullable(xs, none: str) -> list[str]:
    return [none if x is None else format_float(x) for x in xs]


# one row in canonical_json's sorted-key order
_JSONL_ROW = ('{"error":%s,"params":[%s],"q":%s,"reflections":%d,"sojourn":%s,"status":%s,'
              '"t":%s,"theta":%s,"v":%s}')


def table_to_jsonl(table: LensTable, header_extra: dict | None = None) -> str:
    """Header line, then one row per sample, each equal to canonical_json of
    the sample's fields; the rows are written a column at a time."""
    header = {"scene_hash": table.scene_hash, "spec": table.spec.to_dict(),
              "version": VERSION, "summary": table.summary}
    if header_extra:
        header = {**header_extra, **header}  # core table keys win on collision
    S = table.samples
    statuses = [s.status for s in S]
    quoted = {st: json.dumps(st) for st in set(statuses)}
    rows = zip(
        ["null" if s.error is None else json.dumps(s.error) for s in S],
        [_floats(s.params) for s in S],
        _json_vectors([s.q for s in S]),
        [s.reflections for s in S],
        _nullable([s.sojourn for s in S], "null"),
        [quoted[st] for st in statuses],
        _nullable([s.t for s in S], "null"),
        _json_vectors([s.theta for s in S]),
        _json_vectors([s.v for s in S]),
    )
    return "\n".join([canonical_json(header), *(_JSONL_ROW % r for r in rows)]) + "\n"


_HEADER_KEYS = frozenset(("scene_hash", "spec"))
_ROW_KEYS = frozenset(("params", "q", "v", "status", "t", "reflections", "theta", "sojourn"))
_NUMBER_TYPES = frozenset((int, float))  # exact types: JSON true/false load as bool, rejected


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


# one decoder for every line: json.loads with keyword arguments builds one per call
_DECODER = json.JSONDecoder(parse_constant=_no_constant)


def _json_object(line: str, lineno: int, keys) -> dict:
    try:
        d = _DECODER.decode(line)
    except ValueError as exc:  # malformed JSON, or NaN / Infinity
        raise geometry.SchemaError(f"lens table line {lineno}: invalid JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise geometry.SchemaError(f"lens table line {lineno}: not a JSON object")
    if not d.keys() >= keys:
        missing = sorted(keys - d.keys())
        raise geometry.SchemaError(f"lens table line {lineno}: missing keys {missing}")
    return d


def _numbers(d: dict, key: str, lineno: int) -> list:
    x = d[key]
    if type(x) is not list or not set(map(type, x)) <= _NUMBER_TYPES:
        raise geometry.SchemaError(f"lens table line {lineno}: {key} must be a list of numbers")
    return x


def table_from_jsonl(text: str) -> LensTable:
    """Parse a lens table; raises SchemaError naming the line on malformed input."""
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("empty lens table file")
    lineno, first = lines[0]
    header = _json_object(first, lineno, _HEADER_KEYS)
    try:
        spec = SampleSpec.from_dict(header["spec"])
    except (KeyError, TypeError, ValueError) as exc:
        raise geometry.SchemaError(f"lens table line {lineno}: bad spec: {exc!r}") from exc
    if len(lines) - 1 != spec.count():
        raise geometry.SchemaError(f"lens table has {len(lines) - 1} rows, but its spec "
                                   f"{spec.spec_string()} has {spec.count()}")
    samples = []
    for lineno, ln in lines[1:]:
        d = _json_object(ln, lineno, _ROW_KEYS)
        if d["status"] not in STATUSES:
            raise geometry.SchemaError(f"lens table line {lineno}: unknown status {d['status']!r}")
        if type(d["reflections"]) is not int:
            raise geometry.SchemaError(f"lens table line {lineno}: reflections must be an integer")
        for key in ("t", "sojourn"):
            if d[key] is not None and type(d[key]) not in _NUMBER_TYPES:
                raise geometry.SchemaError(f"lens table line {lineno}: {key} must be a number "
                                           "or null")
        theta = None if d["theta"] is None else np.array(_numbers(d, "theta", lineno), dtype=float)
        samples.append(
            LensSample(
                tuple(_numbers(d, "params", lineno)),
                np.array(_numbers(d, "q", lineno), dtype=float),
                np.array(_numbers(d, "v", lineno), dtype=float),
                d["status"],
                d["t"],
                d["reflections"],
                theta,
                d["sojourn"],
                d.get("error"),
            )
        )
    return LensTable(header["scene_hash"], spec, samples, header.get("summary", {}))


def table_to_csv(table: LensTable, dimension: int) -> str:
    """A `#` line with the version, scene hash, spec and seed, a column line,
    then one row per sample; the rows are written a column at a time."""
    param_names = ["alpha", "beta"] if dimension == 2 else ["pos_z", "pos_phi", "dir_mu", "dir_psi"]
    theta_names = [f"theta_{ax}" for ax in "xyz"[:dimension]]
    cols = param_names + ["status", "t", "reflections"] + theta_names + ["sojourn"]
    out = ["# billiard-lens " + VERSION + " scene=" + table.scene_hash
           + " spec=" + table.spec.spec_string() + " seed=" + str(table.spec.seed)]
    out.append(",".join(cols))
    S = table.samples
    no_theta = "," * (dimension - 1)
    rows = zip(
        [_floats(s.params) for s in S],
        [s.status for s in S],
        _nullable([s.t for s in S], ""),
        [s.reflections for s in S],
        [no_theta if s.theta is None else _floats(s.theta.tolist()) for s in S],
        _nullable([s.sojourn for s in S], ""),
    )
    out.extend("%s,%s,%s,%d,%s,%s" % r for r in rows)
    return "\n".join(out) + "\n"
