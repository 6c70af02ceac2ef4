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
from .geometry import canonical_json, tangent_basis
from .rng import Xoshiro256StarStar

STATUSES = ("free", "scattered", "trapped", "gliding_rejected", "tangent_flagged", "error")


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


def _entry_2d(a: float, alpha: float, beta: float) -> Entry:
    q = a * np.array([math.cos(alpha), math.sin(alpha)])
    nu = -q / a
    tangent = np.array([-nu[1], nu[0]])
    v = math.cos(beta) * nu + math.sin(beta) * tangent
    return Entry((alpha, beta), q, v)


def _entry_3d(a: float, z: float, phi: float, mu: float, psi: float) -> Entry:
    rho = math.sqrt(max(0.0, 1.0 - z * z))
    q = a * np.array([rho * math.cos(phi), rho * math.sin(phi), z])
    nu = -q / a
    T = tangent_basis(nu)
    sin_theta = math.sqrt(max(0.0, 1.0 - mu * mu))
    v = sin_theta * (math.cos(psi) * T[:, 0] + math.sin(psi) * T[:, 1]) + mu * nu
    return Entry((z, phi, mu, psi), q, v)


def sample_phase_sphere(spec: SampleSpec, ball_radius: float, dimension: int):
    """Entry samples covering the inward phase set of the boundary sphere.

    Grid mode: positions on an equal-area grid of the sphere crossed with an
    equal-area grid of the inward hemisphere in the local tangent frame.
    MC mode: uniform draws from the seeded generator. Every entry satisfies
    <v, inward normal> >= 0.
    """
    a = float(ball_radius)
    entries: list[Entry] = []
    if spec.mode == "grid":
        if dimension == 2:
            for i in range(spec.n_positions):
                alpha = 2.0 * math.pi * i / spec.n_positions
                for j in range(spec.n_directions):
                    beta = -0.5 * math.pi + math.pi * (j + 0.5) / spec.n_directions
                    entries.append(_entry_2d(a, alpha, beta))
        else:
            nb = max(2, int(round(math.sqrt(spec.n_positions))))
            counts = _rounded_partition(spec.n_positions, nb)
            positions = []
            for k, m in enumerate(counts):
                z = 1.0 - (2.0 * k + 1.0) / nb
                for i in range(m):
                    positions.append((z, 2.0 * math.pi * i / max(1, m)))
            db = max(1, int(round(math.sqrt(spec.n_directions / 2.0))))
            dcounts = _rounded_partition(spec.n_directions, db)
            directions = []
            for k, m in enumerate(dcounts):
                mu = 1.0 - (k + 0.5) / db
                for i in range(m):
                    directions.append((mu, 2.0 * math.pi * i / max(1, m)))
            for z, phi in positions:
                for mu, psi in directions:
                    entries.append(_entry_3d(a, z, phi, mu, psi))
    else:
        gen = Xoshiro256StarStar(spec.seed)
        for _ in range(spec.n_total):
            if dimension == 2:
                alpha = gen.unit_angle()
                beta = -0.5 * math.pi + math.pi * gen.uniform()
                entries.append(_entry_2d(a, alpha, beta))
            else:
                z = 2.0 * gen.uniform() - 1.0
                phi = gen.unit_angle()
                mu = gen.uniform()
                psi = gen.unit_angle()
                entries.append(_entry_3d(a, z, phi, mu, psi))
    return entries


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
        "t_mean": (sum(times) / len(times)) if times else None,
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
            T = _phase_coords(trapped, a)
            O = _phase_coords(others, a)
            radius = 0.0
            for lo in range(0, T.shape[0], 512):
                chunk = T[lo : lo + 512]
                d2 = np.sum((chunk[:, None, :] - O[None, :, :]) ** 2, axis=2)
                radius = max(radius, float(np.sqrt(np.max(np.min(d2, axis=1)))))
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


def scattering_spectrum(scene, omega, theta, angular_tol: float, spec: SampleSpec,
                        gap: float | None = None):
    """Sojourn-time bins of rays entering with direction omega and leaving
    within angular_tol of theta. Rays are launched from the support plane of
    the sphere across the obstacle shadow, traced, filtered by exit
    direction, and their sojourn times clustered with the gap threshold."""
    omega = np.asarray(omega, dtype=float)
    omega = omega / np.linalg.norm(omega)
    theta = np.asarray(theta, dtype=float)
    theta = theta / np.linalg.norm(theta)
    a = scene.ball_radius
    if gap is None:
        gap = 5e-3 * a
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
            bins.append(SpectrumBin(sum(group) / len(group), len(group), group[0], group[-1]))
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
    no status mismatches and no time differences above tolerance remain."""
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
    mean_dt = sum(dts) / compared if compared else 0.0
    exceed_fraction = exceed / compared if compared else 0.0
    verdict = "indistinguishable" if (exceed == 0 and status_mm == 0) else "distinguishable"
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

    def directed(P, Q):
        worst = 0.0
        for lo in range(0, P.shape[0], 1024):
            chunk = P[lo : lo + 1024]
            d2 = np.sum((chunk[:, None, :] - Q[None, :, :]) ** 2, axis=2)
            worst = max(worst, float(np.sqrt(np.max(np.min(d2, axis=1)))))
        return worst

    return max(directed(A, B), directed(B, A))


# ---------------------------------------------------------------------------
# serialization


def _sample_to_dict(s: LensSample) -> dict:
    return {
        "params": list(s.params),
        "q": list(s.q),
        "v": list(s.v),
        "status": s.status,
        "t": s.t,
        "reflections": s.reflections,
        "theta": list(s.theta) if s.theta is not None else None,
        "sojourn": s.sojourn,
        "error": s.error,
    }


def table_to_jsonl(table: LensTable, header_extra: dict | None = None) -> str:
    header = {"scene_hash": table.scene_hash, "spec": table.spec.to_dict(),
              "version": VERSION, "summary": table.summary}
    if header_extra:
        header = {**header_extra, **header}  # core table keys win on collision
    lines = [canonical_json(header)]
    lines.extend(canonical_json(_sample_to_dict(s)) for s in table.samples)
    return "\n".join(lines) + "\n"


def table_from_jsonl(text: str) -> LensTable:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty lens table file")
    header = json.loads(lines[0])
    spec = SampleSpec.from_dict(header["spec"])
    samples = []
    for ln in lines[1:]:
        d = json.loads(ln)
        samples.append(
            LensSample(
                tuple(d["params"]),
                np.array(d["q"], dtype=float),
                np.array(d["v"], dtype=float),
                d["status"],
                d["t"],
                d["reflections"],
                np.array(d["theta"], dtype=float) if d["theta"] is not None else None,
                d["sojourn"],
                d.get("error"),
            )
        )
    return LensTable(header["scene_hash"], spec, samples, header.get("summary", {}))


def table_to_csv(table: LensTable, dimension: int) -> str:
    param_names = ["alpha", "beta"] if dimension == 2 else ["pos_z", "pos_phi", "dir_mu", "dir_psi"]
    theta_names = [f"theta_{ax}" for ax in "xyz"[:dimension]]
    cols = param_names + ["status", "t", "reflections"] + theta_names + ["sojourn"]
    out = ["# billiard-lens " + VERSION + " scene=" + table.scene_hash
           + " spec=" + table.spec.spec_string() + " seed=" + str(table.spec.seed)]
    out.append(",".join(cols))

    def fmt(x):
        return "" if x is None else format(float(x), ".17g")

    for s in table.samples:
        row = [fmt(p) for p in s.params]
        row.append(s.status)
        row.append(fmt(s.t))
        row.append(str(s.reflections))
        if s.theta is None:
            row.extend([""] * dimension)
        else:
            row.extend(fmt(c) for c in s.theta)
        row.append(fmt(s.sojourn))
        out.append(",".join(row))
    return "\n".join(out) + "\n"
