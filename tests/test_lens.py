import dataclasses
import functools
import io
import json
import math
import operator
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import billiard_lens as bl
from billiard_lens import cli, flow, geometry, lens
from billiard_lens.curves import _PIECE_KINDS, CurveChain, _axpy, _dot
from billiard_lens.flow import PhasePoint
from billiard_lens.lens import LensTable, SampleSpec, SpecMismatch
from billiard_lens.rng import Xoshiro256StarStar

from conftest import (A_BALL, NUMERIC_FAILURES, FaintSphere, _all_pieces_curve, _drawn_pair, _rotation,
                      cross_basis, fail_rays_that_reflect, run_python)


def test_parse_spec_round_trip():
    spec = lens.parse_spec("grid:12x8", seed=3)
    assert spec.mode == "grid" and spec.n_positions == 12 and spec.n_directions == 8
    assert spec.spec_string() == "grid:12x8"
    spec = lens.parse_spec("mc:500", seed=9)
    assert spec.mode == "mc" and spec.n_total == 500
    assert SampleSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ValueError):
        lens.parse_spec("hex:3")


def test_grid_counts_and_inwardness():
    entries = lens.sample_phase_sphere(SampleSpec("grid", 4, 3), A_BALL, 2)
    assert len(entries) == 12
    for e in entries:
        nu = -e.q / A_BALL
        assert float(e.v @ nu) >= 0.0
        assert abs(np.linalg.norm(e.v) - 1.0) < 1e-12
        assert abs(np.linalg.norm(e.q) - A_BALL) < 1e-12
    entries3 = lens.sample_phase_sphere(SampleSpec("grid", 20, 16), A_BALL, 3)
    assert len(entries3) == 20 * 16
    for e in entries3[:: 17]:
        assert float(e.v @ (-e.q / A_BALL)) >= 0.0


@given(st.integers(1, 40), st.integers(1, 40))
def test_3d_grid_reaches_normal_incidence_and_stops_short_of_grazing(n_positions, n_directions):
    # each position has a normal-incidence row, whose ray meets the centre
    # of the ball, and no row grazes
    P = lens.sample_phase_sphere(SampleSpec("grid", n_positions, n_directions), A_BALL, 3).params
    z, phi, mu, psi = P.T
    assert np.array_equal(P[mu == 1.0, :2], P[::n_directions, :2])
    assert np.all((-1.0 < z) & (z < 1.0) & (0.0 < mu) & (mu <= 1.0))
    assert np.all((0.0 <= phi) & (phi < 2.0 * math.pi) & (0.0 <= psi) & (psi < 2.0 * math.pi))


def test_sampling_determinism():
    for spec in (SampleSpec("grid", 6, 5), SampleSpec("mc", n_total=64, seed=42)):
        a = lens.sample_phase_sphere(spec, A_BALL, 3)
        b = lens.sample_phase_sphere(spec, A_BALL, 3)
        assert all(np.array_equal(x.q, y.q) and np.array_equal(x.v, y.v) for x, y in zip(a, b))


def test_mc_hemisphere_average():
    # 2D: mean of cos(beta) over the inward half-circle is 2/pi;
    # 3D: mean of <v, nu> over the solid-angle-uniform hemisphere is 1/2
    n = 10000
    entries = lens.sample_phase_sphere(SampleSpec("mc", n_total=n, seed=7), A_BALL, 2)
    vals = [float(e.v @ (-e.q / A_BALL)) for e in entries]
    se = np.std(vals) / math.sqrt(n)
    assert abs(np.mean(vals) - 2.0 / math.pi) < 3.0 * se
    entries = lens.sample_phase_sphere(SampleSpec("mc", n_total=n, seed=8), A_BALL, 3)
    vals = [float(e.v @ (-e.q / A_BALL)) for e in entries]
    se = np.std(vals) / math.sqrt(n)
    assert abs(np.mean(vals) - 0.5) < 3.0 * se


def test_empty_scene_chords(empty2):
    table = lens.build_lens_table(empty2, SampleSpec("grid", 12, 9))
    assert all(s.status == "free" for s in table.samples)
    for s in table.samples:
        chord = 2.0 * A_BALL * float(s.v @ (-s.q / A_BALL))
        assert s.t == pytest.approx(chord, abs=1e-9 * A_BALL)
        assert s.sojourn == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("dim, kind", [(dim, kind) for dim in (2, 3)
                                       for kind in ("sphere", "ellipsoid", "superellipsoid")]
                         + [(2, "curve2d")])
@pytest.mark.parametrize("mode", ["grid", "mc"])
@settings(max_examples=10)
@given(data=st.data())
def test_free_rows_keep_the_chord_law(dim, kind, mode, data):
    # a row whose line misses every bounding sphere (widened by 1e-9 relative)
    # is free, and a free row crosses the ball on its chord: t = 2a <v, nu>,
    # theta = v and a zero sojourn, over 256 rays of a drawn scene
    scene = (bl.make_scene(2, A_BALL, [_all_pieces_curve(data.draw)], "all-pieces") if kind == "curve2d"
             else _drawn_pair(data.draw, kind, dim))
    spec = (SampleSpec("grid", 16, 16) if mode == "grid"
            else SampleSpec("mc", n_total=256, seed=data.draw(st.integers(0, 2**64 - 1))))
    table = lens.build_lens_table(scene, spec)
    missed = np.ones(len(table.q), dtype=bool)
    for obs in scene.obstacles:
        d = table.q - obs.center
        b = np.sum(d * table.v, axis=1)
        missed &= np.sum(d * d, axis=1) - b * b > (obs.bounding_radius() * (1.0 + 1e-9)) ** 2
    free = table.status == "free"
    assert missed.any() and np.all(free[missed])
    chord = 2.0 * A_BALL * np.sum(table.v * (-table.q / A_BALL), axis=1)
    assert np.all(table.reflections[free] == 0)
    assert np.max(np.abs(table.t - chord)[free]) <= 1e-12 * A_BALL
    assert np.max(np.abs(table.theta - table.v)[free]) <= 1e-15
    assert np.max(np.abs(table.sojourn[free])) <= 1e-12 * A_BALL


def test_disc_shadow_fraction(disc_scene):
    n = 4000
    table = lens.build_lens_table(disc_scene, SampleSpec("mc", n_total=n, seed=5))
    p_hat = sum(1 for s in table.samples if s.status == "scattered") / n
    p = 2.0 * math.asin(1.0 / A_BALL) / math.pi
    se = math.sqrt(p * (1 - p) / n)
    assert abs(p_hat - p) < 3.0 * se


def test_sphere_shadow_fraction(sphere_scene):
    # hit iff the impact parameter a*sin(theta) is below r; with mu = cos(theta)
    # uniform on the hemisphere the fraction is 1 - sqrt(1 - (r/a)^2)
    n = 12000
    table = lens.build_lens_table(sphere_scene, SampleSpec("mc", n_total=n, seed=6))
    p_hat = sum(1 for s in table.samples if s.status == "scattered") / n
    p = 1.0 - math.sqrt(1.0 - (1.0 / A_BALL) ** 2)
    se = math.sqrt(p * (1 - p) / n)
    assert abs(p_hat - p) < 3.0 * se


def test_classify_statuses(two_disc_scene):
    table = lens.build_lens_table(two_disc_scene, SampleSpec("grid", 16, 12))
    counts = table.summary["counts"]
    assert counts["free"] + counts["scattered"] > 0
    for s in table.samples:
        if s.status in ("free", "scattered"):
            assert s.t is not None and s.sojourn is not None and s.theta is not None
            assert (s.reflections == 0) == (s.status == "free")
        else:
            assert s.t is None and s.sojourn is None


def test_backscatter_spectrum(sphere_scene, empty3):
    bins = lens.scattering_spectrum(sphere_scene, [1, 0, 0], [-1, 0, 0], 1e-3,
                                    SampleSpec("grid", 9, 9))
    assert len(bins) == 1
    assert bins[0].sojourn == pytest.approx(-2.0, abs=1e-4)
    fwd = lens.scattering_spectrum(empty3, [0, 1, 0], [0, 1, 0], 1e-3, SampleSpec("grid", 5, 5))
    assert len(fwd) == 1
    assert fwd[0].sojourn == pytest.approx(0.0, abs=1e-12)
    nothing = lens.scattering_spectrum(sphere_scene, [1, 0, 0], [0, 1, 0], 1e-4,
                                       SampleSpec("grid", 4, 4))
    assert nothing == []


@pytest.mark.parametrize("dim", [2, 3])
def test_monte_carlo_spectrum(dim):
    # a sphere off the axis widens the shadow 2 % past the 0.999 a cap, so
    # about one draw in fifty would pass the cap without it
    scene = bl.make_scene(dim, A_BALL, [bl.SphereObstacle(np.zeros(dim), 1.0),
                                        bl.SphereObstacle([0.0, 8.0, 0.0][:dim], 1.9)], "wide")
    omega = np.eye(dim)[0]
    spec = SampleSpec("mc", n_total=1000, seed=5)
    offsets = np.array(lens._impact_offsets(scene, omega, spec))
    assert offsets.shape == (1000, dim)
    radii = np.linalg.norm(offsets, axis=1)
    assert np.all(radii <= 0.999 * A_BALL) and np.max(radii) > 0.95 * A_BALL
    assert np.max(np.abs(offsets @ omega)) <= 1e-12 * A_BALL
    assert np.array_equal(np.array(lens._impact_offsets(scene, omega, spec)), offsets)
    other = np.array(lens._impact_offsets(scene, omega, dataclasses.replace(spec, seed=6)))
    assert not np.any(np.all(other == offsets, axis=1))
    # every ray is kept within a half turn of theta
    spectrum = lens.scattering_spectrum(scene, omega, -omega, math.pi, spec)
    again = lens.scattering_spectrum(scene, omega, -omega, math.pi, spec)
    assert spectrum == again and spectrum.counts == again.counts
    assert sum(spectrum.counts.values()) == 1000
    assert sum(b.count for b in spectrum) == spectrum.counts["free"] + spectrum.counts["scattered"]
    assert spectrum.counts["scattered"] > 0


def test_means_are_correctly_rounded(disc_scene, livshits_pair):
    # the builtin sum of floats adds left to right up to Python 3.11 and
    # compensates from 3.12 on; the means and the chain length use the
    # correctly rounded math.fsum, the same bits on every supported version
    assert lens._mean([1e16, 1.0, -1e16]) == 1.0 / 3.0
    table = lens.build_lens_table(disc_scene, SampleSpec("grid", 3, 3))
    times = [s.t for s in table.samples]
    assert table.summary["t_mean"] == math.fsum(times) / 9 == 12.666666666666664
    shifted = dataclasses.replace(table, t=table.t + 3.3)
    dts = [abs(s.t - r.t) for s, r in zip(table.samples, shifted.samples)]
    assert lens.compare_lens(table, shifted, 10.0).mean_dt == math.fsum(dts) / 9
    # one large time difference and eight small ones, whose sum left to
    # right or pairwise (numpy's) rounds off part of the small ones
    far = dataclasses.replace(table, t=table.t + np.array([1e16] + [1.0] * 7 + [3.0]))
    dts = [abs(s.t - r.t) for s, r in zip(table.samples, far.samples)]
    assert functools.reduce(operator.add, dts) != math.fsum(dts) != float(np.sum(dts))
    assert lens.compare_lens(table, far, 10.0).mean_dt == math.fsum(dts) / 9
    chain = livshits_pair[0].obstacles[0].chain
    assert chain.total_length == math.fsum(chain.lengths)


def test_gradient_under_the_floor_is_an_error_row():
    # |grad F| = 2e-12 on the unit circle: every ray that meets the disc
    # fails at its normal; the table records those rows and goes on
    scene = bl.make_scene(2, A_BALL, [FaintSphere([0.0, 0.0], 1.0, 1e-12)], "faint")
    table = lens.build_lens_table(scene, SampleSpec("grid", 16, 16))
    errors = table.status == "error"
    assert table.summary["counts"]["error"] == np.count_nonzero(errors) > 0
    assert set(table.error[errors]) == {
        "SingularGradient: singular normal on obstacle 0: |grad F| = 2e-12"}
    assert all(e is None for e in table.error[~errors])
    assert np.isnan(table.t[errors]).all() and (table.reflections[errors] == 0).all()
    assert table.summary["counts"]["free"] == len(table) - np.count_nonzero(errors)


class OverflowingSphere(bl.SphereObstacle):
    """A sphere whose ray solver overflows on every line: its bounding ball
    holds the reference ball, so no line is rejected before the solver."""

    def bounding_radius(self):
        return 2.0 * A_BALL

    def ray_roots(self, q, v):
        raise OverflowError("math range error")


def test_a_failure_of_the_ray_roots_names_its_obstacle():
    # the second of two discs fails on every line, so every ray does; its
    # row names that disc and keeps the failure's type
    scene = bl.make_scene(2, A_BALL, [bl.SphereObstacle([-4.0, 0.0], 1.0),
                                      OverflowingSphere([4.0, 0.0], 1.0)], "overflowing")
    table = lens.build_lens_table(scene, SampleSpec("grid", 4, 4))
    assert set(table.status.tolist()) == {"error"}
    assert set(table.error.tolist()) == {"OverflowError: obstacle 1 ray roots: math range error"}


@pytest.mark.parametrize("kind", ["sphere", "ellipsoid", "superellipsoid", "curve2d"])
def test_a_lens_ray_is_one_trace_phase_call_that_builds_no_phase_point(
        kind, monkeypatch, two_disc_scene, sphere_ellipsoid_scene, livshits_pair):
    # the benchmark counts the rays of a lens run by its `flow.trace_phase`
    # spans: one call per entry. A ray reads its trajectory's floats, so no
    # PhasePoint is built, and `entry` and `exit_state`, built on access,
    # equal what the tracer built eagerly before: the entry row with v
    # normalised, and the exit by the ball chord from the last event
    scene, spec = {
        "sphere": (two_disc_scene, SampleSpec("grid", 12, 12)),
        "ellipsoid": (sphere_ellipsoid_scene, SampleSpec("grid", 16, 16)),
        "superellipsoid": (bl.make_scene(3, A_BALL, [bl.SuperellipsoidObstacle(
            [0.1, -0.2, 0.3], [3.0, 2.5, 2.0], 6.0, _rotation(3, [0.3, 0.5, 0.7]))], "superellipsoid"),
            SampleSpec("grid", 16, 16)),
        "curve2d": (livshits_pair[0], SampleSpec("grid", 12, 12)),
    }[kind]
    trajectories, built = [], []
    trace_phase, post_init = flow.trace_phase, PhasePoint.__post_init__

    def counting(*args):
        trajectories.append(trace_phase(*args))
        return trajectories[-1]

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(flow, "trace_phase", counting)
    monkeypatch.setattr(PhasePoint, "__post_init__", counting_post_init)
    table = lens.build_lens_table(scene, spec)
    assert len(trajectories) == len(table) and not built
    assert {"scattered", "free"} <= set(table.status.tolist())
    for traj, row in zip(trajectories, table):
        v = row.v.tolist()
        speed = math.sqrt(_dot(v, v))
        assert traj.entry is traj.entry and traj.entry.q.dtype == traj.entry.v.dtype == np.float64
        assert traj.entry.q.tolist() == row.q.tolist()
        assert traj.entry.v.tolist() == [vi / speed for vi in v]
        if traj.status != "exited":
            assert traj.exit_state is None and row.theta is None
            continue
        last = traj.events[-1] if traj.events else None
        q_last = last.x if last else row.q.tolist()
        v_last = last.v_out if last else traj.entry.v.tolist()
        exit_q = _axpy(q_last, flow._ball_chord(q_last, v_last, A_BALL)[1], v_last)
        assert traj.exit_state.q.tolist() == exit_q and traj.exit_state.v.tolist() == v_last
        assert row.theta.tolist() == v_last
        if row.status in ("free", "scattered"):
            entry, out = traj.entry, traj.exit_state
            assert row.sojourn == row.t + _dot(entry.q, entry.v) - _dot(out.q, out.v)


def test_a_livshits_lens_solves_few_curve_pieces(livshits_pair, monkeypatch):
    # the per-piece bounding-ball reject of `CurveChain.ray_roots`: on the
    # base Livshits lens at grid:36x24, the benchmark's, fewer than a third of
    # the (chain call, piece) pairs reach the piece's solver (about a fifth
    # do; every one of them did without the reject)
    base = livshits_pair[0]
    n_pieces = len(base.obstacles[0].chain.pieces)
    calls = {"chain": 0, "piece": 0}

    def counted(method, key):
        def call(self, q, v):
            calls[key] += 1
            return method(self, q, v)
        return call

    monkeypatch.setattr(CurveChain, "ray_roots", counted(CurveChain.ray_roots, "chain"))
    for cls in _PIECE_KINDS.values():
        monkeypatch.setattr(cls, "ray_roots", counted(cls.ray_roots, "piece"))
    lens.build_lens_table(base, SampleSpec("grid", 36, 24, n_max=600))
    assert calls["chain"] > 0 and 0 < calls["piece"] < calls["chain"] * n_pieces / 3


@pytest.mark.parametrize("failure", NUMERIC_FAILURES, ids=lambda cls: cls.__name__)
def test_every_numeric_failure_is_recorded_per_ray(failure, monkeypatch):
    # the stub tracer raises the failure on every ray that meets the disc: the
    # lens table and the spectrum share one recorder, and those rays are error
    # rows of the one and counted errors of the other
    fail_rays_that_reflect(monkeypatch, failure)
    scene = bl.make_scene(2, A_BALL, [bl.SphereObstacle([0.0, 0.0], 3.0)], "disc-3")
    table = lens.build_lens_table(scene, SampleSpec("grid", 8, 8))
    errors = table.status == "error"
    assert 0 < table.summary["counts"]["error"] == np.count_nonzero(errors) < len(table)
    assert set(table.error[errors]) == {f"{failure.__name__}: stub failure"}
    assert set(table.status[~errors]) == {"free"}
    spectrum = lens.scattering_spectrum(scene, [1.0, 0.0], [1.0, 0.0], 1e-2, SampleSpec("grid", 16, 1))
    assert spectrum.counts == {**dict.fromkeys(lens.STATUSES, 0), "free": 2, "error": 14}
    assert len(spectrum) == 1 and spectrum[0].count == 2 and abs(spectrum[0].sojourn) < 1e-9


def test_compare_with_itself(disc_scene):
    spec = SampleSpec("grid", 20, 15)
    table = lens.build_lens_table(disc_scene, spec)
    rep = lens.compare_lens(table, table, 1e-6 * A_BALL)
    assert rep.verdict == "indistinguishable"
    assert rep.max_dt == 0.0
    assert rep.status_mismatches == 0
    assert rep.reflection_mismatches == 0


def test_compare_detects_radius_change():
    spec = SampleSpec("grid", 40, 40)
    s1 = bl.make_scene(2, A_BALL, [bl.SphereObstacle([0.0, 0.0], 1.0)], "r1")
    s2 = bl.make_scene(2, A_BALL, [bl.SphereObstacle([0.0, 0.0], 1.01)], "r2")
    t1 = lens.build_lens_table(s1, spec)
    t2 = lens.build_lens_table(s2, spec)
    rep = lens.compare_lens(t1, t2, 1e-6 * A_BALL)
    assert rep.verdict == "distinguishable"
    assert rep.max_dt >= 2.0 * 0.01 * (1.0 - 1e-6)


def test_compare_sees_the_size_of_a_centred_sphere():
    # every 3D grid position has a ray through the centre of the ball, so
    # the tables see a centred sphere and its size
    spec = SampleSpec("grid", 32, 32)
    s1 = bl.make_scene(3, A_BALL, [bl.SphereObstacle([0.0, 0.0, 0.0], 1.0)], "r1")
    s2 = bl.make_scene(3, A_BALL, [bl.SphereObstacle([0.0, 0.0, 0.0], 1.2)], "r2")
    t1 = lens.build_lens_table(s1, spec)
    t2 = lens.build_lens_table(s2, spec)
    assert t1.summary["counts"]["scattered"] >= 32 and t2.summary["counts"]["scattered"] >= 32
    rep = lens.compare_lens(t1, t2, 1e-6 * A_BALL)
    assert rep.verdict == "distinguishable"
    # the normal-incidence rays turn back 0.2 sooner
    assert rep.max_dt >= 2.0 * 0.2 * (1.0 - 1e-6)


def _with_row(table, index, **fields):
    """A copy of the table with the named fields of one row replaced; None
    is null (NaN) in a float column."""
    columns = {}
    for name, value in fields.items():
        col = getattr(table, name).copy()
        col[index] = math.nan if value is None and col.dtype.kind == "f" else value
        columns[name] = col
    return dataclasses.replace(table, **columns)


def test_compare_excludes_tangent_flagged(disc_scene):
    spec = SampleSpec("grid", 8, 6)
    t1 = lens.build_lens_table(disc_scene, spec)
    t2 = _with_row(t1, 5, status="tangent_flagged", t=None, sojourn=None)
    assert t2.samples[5].status == "tangent_flagged" and t1.samples[5].status != "tangent_flagged"
    rep = lens.compare_lens(t1, t2, 1e-8)
    assert rep.excluded_tangent == 1
    assert rep.verdict == "indistinguishable"
    assert rep.compared == rep.matched - 1


def _with_status(table, index, status):
    return _with_row(table, index, status=status, t=None, theta=None, sojourn=None)


def test_compare_trapped_status_branches(disc_scene):
    spec = SampleSpec("grid", 8, 6)
    base = lens.build_lens_table(disc_scene, spec)
    both = lens.compare_lens(_with_status(base, 3, "trapped"),
                             _with_status(base, 3, "trapped"), 1e-8)
    assert both.both_trapped == 1
    assert both.verdict == "indistinguishable"
    one_side = lens.compare_lens(_with_status(base, 3, "trapped"), base, 1e-8)
    assert one_side.status_mismatches == 1
    assert one_side.verdict == "distinguishable"


def test_compare_spec_mismatch(disc_scene):
    t1 = lens.build_lens_table(disc_scene, SampleSpec("grid", 5, 5))
    t2 = lens.build_lens_table(disc_scene, SampleSpec("grid", 5, 6))
    with pytest.raises(SpecMismatch):
        lens.compare_lens(t1, t2, 1e-5)


def test_table_serialization_determinism(disc_scene):
    spec = SampleSpec("mc", n_total=120, seed=17)
    a = lens.table_to_jsonl(lens.build_lens_table(disc_scene, spec))
    b = lens.table_to_jsonl(lens.build_lens_table(disc_scene, spec))
    assert a == b
    back = lens.table_from_jsonl(a)
    assert lens.table_to_jsonl(back) == a
    rep = lens.compare_lens(lens.table_from_jsonl(a), lens.table_from_jsonl(b), 1e-8)
    assert rep.verdict == "indistinguishable" and rep.max_dt == 0.0


def test_table_csv_export(disc_scene):
    table = lens.build_lens_table(disc_scene, SampleSpec("grid", 6, 4))
    text = lens.table_to_csv(table)
    lines = text.strip().split("\n")
    assert lines[0].startswith("#")
    assert lines[1].split(",")[:2] == ["alpha", "beta"]
    assert len(lines) == 2 + 24


def test_reversibility_of_scattered_samples(disc_ellipse_scene):
    table = lens.build_lens_table(disc_ellipse_scene, SampleSpec("grid", 18, 12))
    scattered = [s for s in table.samples if s.status == "scattered"]
    assert scattered
    for s in scattered[:40]:
        traj = flow.trace(disc_ellipse_scene, PhasePoint(s.q, s.v))
        back = flow.trace(disc_ellipse_scene,
                          PhasePoint(traj.exit_state.q, -traj.exit_state.v))
        assert back.status == "exited"
        assert back.total_time == pytest.approx(s.t, abs=1e-7 * A_BALL)


def test_shadow_monotone_in_radius():
    spec = SampleSpec("grid", 24, 18)
    small = bl.make_scene(2, A_BALL, [bl.SphereObstacle([0.0, 0.0], 1.0)], "small")
    big = bl.make_scene(2, A_BALL, [bl.SphereObstacle([0.0, 0.0], 1.3)], "big")
    c_small = lens.build_lens_table(small, spec).summary["counts"]["scattered"]
    c_big = lens.build_lens_table(big, spec).summary["counts"]["scattered"]
    assert c_big >= c_small


def test_exceed_fraction_monotone_in_tolerance():
    spec = SampleSpec("grid", 24, 24)
    t1 = lens.build_lens_table(
        bl.make_scene(2, A_BALL, [bl.SphereObstacle([0.0, 0.0], 1.0)], "a"), spec
    )
    t2 = lens.build_lens_table(
        bl.make_scene(2, A_BALL, [bl.SphereObstacle([0.0, 0.0], 1.05)], "b"), spec
    )
    fracs = [lens.compare_lens(t1, t2, tol).exceed_fraction
             for tol in (1e-6, 1e-3, 3e-2, 1e-1, 1.0)]
    assert all(f1 >= f2 for f1, f2 in zip(fracs, fracs[1:]))


def test_estimate_trapped_ladder_validation(disc_scene):
    with pytest.raises(ValueError):
        lens.estimate_trapped(disc_scene, [SampleSpec("grid", 4, 4), SampleSpec("grid", 8, 8)])
    with pytest.raises(ValueError):
        lens.estimate_trapped(
            disc_scene,
            [SampleSpec("grid", 8, 8), SampleSpec("grid", 4, 4), SampleSpec("grid", 16, 16)],
        )


def test_estimate_trapped_single_disc(disc_scene):
    ladder = [SampleSpec("grid", 6, 6), SampleSpec("grid", 10, 10), SampleSpec("grid", 16, 16)]
    est = lens.estimate_trapped(disc_scene, ladder)
    assert est.fractions == [0.0, 0.0, 0.0]
    assert est.cluster_radii == [0.0, 0.0, 0.0]


def test_estimate_trapped_cutoff_cluster(two_disc_scene):
    # with a tiny reflection cutoff the multi-bounce set is open: the
    # diagnostic reports a positive trapped fraction and cluster radius
    ladder = [SampleSpec("grid", 8, 50, n_max=2), SampleSpec("grid", 16, 100, n_max=2),
              SampleSpec("grid", 24, 160, n_max=2)]
    est = lens.estimate_trapped(two_disc_scene, ladder)
    assert est.trapped_counts[-1] > 0
    assert est.cluster_radii[-1] > 0.0
    assert all(0.0 <= f <= 1.0 for f in est.fractions)


def test_estimate_trapped_cluster_radius_above_tree_pairs(two_disc_scene):
    # under a reflection cutoff of 1 every ray that meets a disc is trapped:
    # the last rung has more than TREE_PAIRS trapped x free pairs, so its
    # radius comes from the k-d tree, and equals the all-pairs one bit for bit
    ladder = [SampleSpec("grid", 8, 20, n_max=1), SampleSpec("grid", 16, 40, n_max=1),
              SampleSpec("grid", 64, 80, n_max=1)]
    est = lens.estimate_trapped(two_disc_scene, ladder)
    table = lens.build_lens_table(two_disc_scene, ladder[-1])
    trapped = table.status == "trapped"
    P, Q = (np.hstack([table.q[rows] / A_BALL, table.v[rows]]) for rows in (trapped, ~trapped))
    assert len(P) * len(Q) > lens.TREE_PAIRS
    brute = max(float(np.sqrt(np.min(np.sum((p - Q) ** 2, axis=1)))) for p in P)
    assert est.trapped_counts[-1] == len(P)
    assert est.cluster_radii[-1] == brute > 0.0


def test_estimate_trapped_leaves_error_rows_out(two_disc_scene, monkeypatch):
    # under a time cutoff of 1.8 a, a ray that meets no disc before it is
    # trapped, and the stub fails every ray that meets a disc: each rung
    # counts its errors, and its fraction and radius are of the other rays
    fail_rays_that_reflect(monkeypatch, OverflowError)
    ladder = [SampleSpec("grid", n, n, t_max=1.8 * A_BALL) for n in (8, 12, 16)]
    est = lens.estimate_trapped(two_disc_scene, ladder)
    for k, spec in enumerate(ladder):
        table = lens.build_lens_table(two_disc_scene, spec)
        trapped, free = table.status == "trapped", table.status == "free"
        errors = int(np.count_nonzero(table.status == "error"))
        assert est.error_counts[k] == errors > 0 and est.trapped_counts[k] == np.count_nonzero(trapped) > 0
        assert (est.trapped_counts[k] + est.error_counts[k] + np.count_nonzero(free)
                == est.resolutions[k] == len(table))
        assert est.fractions[k] == est.trapped_counts[k] / (len(table) - errors)
        P, Q = (np.hstack([table.q[rows] / A_BALL, table.v[rows]]) for rows in (trapped, free))
        assert est.cluster_radii[k] == max(float(np.sqrt(np.min(np.sum((p - Q) ** 2, axis=1)))) for p in P)


def test_estimate_trapped_rungs_of_one_kind(two_disc_scene):
    # a time cutoff below every chord traps every ray: the radius is the
    # diameter bound of the phase space; a disc whose roots overflow on every
    # line makes every ray an error: no fraction and no radius
    ladder = [SampleSpec("grid", n, n, t_max=1e-3 * A_BALL) for n in (4, 8, 16)]
    est = lens.estimate_trapped(two_disc_scene, ladder)
    assert est.fractions == [1.0] * 3 and est.cluster_radii == [2.0 * math.sqrt(2.0)] * 3
    assert est.error_counts == [0] * 3
    scene = bl.make_scene(2, A_BALL, [OverflowingSphere([0.0, 0.0], 1.0)], "overflowing")
    est = lens.estimate_trapped(scene, ladder)
    assert est.fractions == est.cluster_radii == [None] * 3
    assert est.error_counts == est.resolutions and est.trapped_counts == [0] * 3


def test_boundary_distance_examples(livshits_pair):
    s1 = bl.make_scene(2, A_BALL, [bl.SphereObstacle([0.0, 0.0], 1.0)], "x")
    s1b = bl.make_scene(2, A_BALL, [bl.SphereObstacle([0.0, 0.0], 1.0)], "y")
    assert lens.boundary_distance(s1, s1b, density=50.0) < 2e-3
    s2 = bl.make_scene(2, A_BALL, [bl.SphereObstacle([0.0, 0.0], 1.01)], "z")
    assert lens.boundary_distance(s1, s2, density=300.0) == pytest.approx(0.01, abs=1e-3)
    # in 3D at density 10 both spheres take 512 points of the golden-angle
    # lattice, one cloud the other's scaled by 1.01
    t1, t1b, t2 = (bl.make_scene(3, A_BALL, [bl.SphereObstacle([0.0, 0.0, 0.0], r)], name)
                   for r, name in ((1.0, "x"), (1.0, "y"), (1.01, "z")))
    assert lens.boundary_distance(t1, t1b, density=50.0) < 2e-3
    assert lens.boundary_distance(t1, t2, density=10.0) == pytest.approx(0.01, abs=1e-3)
    base, deformed, _ = livshits_pair
    assert lens.boundary_distance(base, deformed, density=40.0) == pytest.approx(0.5, rel=0.1)


def test_boundary_distance_at_high_density_is_exact_without_scipy(livshits_pair):
    # at density 2000 each cloud has more than 65,536 points, so each exact
    # pass of HAUSDORFF_CHUNK points meets more than 2^20 pairs: in a fresh
    # process the distance loads no scipy, and it is the symmetric Hausdorff
    # distance of a k-d tree's nearest distances both ways
    code = ("import sys\nfrom billiard_lens import geometry, lens\n"
            "base, _ = geometry.livshits_scene()\n"
            "deformed, _ = geometry.livshits_scene(deformation=0.5)\n"
            "print(repr(lens.boundary_distance(base, deformed, 2000.0)),"
            " sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    distance, modules = proc.stdout.split(" ", 1)
    assert modules.strip() == "[]"
    from scipy.spatial import cKDTree

    A, B = (np.vstack([obs.boundary_points(max(64, int(2.0 * math.pi * obs.bounding_radius() * 2000.0)))
                       for obs in scene.obstacles]) for scene in livshits_pair[:2])
    assert min(len(A), len(B)) > 65536
    assert float(distance) == max(float(np.max(cKDTree(B).query(A)[0])),
                                  float(np.max(cKDTree(A).query(B)[0])))


def _directed_brute(A, B):
    """The largest distance from a row of A to its nearest row of B, over all pairs."""
    return float(np.max(np.sqrt(np.min(np.sum((A[:, None, :] - B[None, :, :]) ** 2, axis=2),
                                       axis=1))))


@given(data=st.data())
def test_pruned_hausdorff_matches_all_pairs(data):
    dim = data.draw(st.sampled_from([2, 3]))

    def cloud(rows):
        return data.draw(hnp.arrays(float, (rows, dim), elements=st.floats(-1.0, 1.0)))

    A = cloud(data.draw(st.integers(1, 40)))
    kind = data.draw(st.sampled_from(["drawn", "identical", "near-copy"]))
    if kind == "drawn":
        B = cloud(data.draw(st.integers(1, 40)))
    elif kind == "identical":
        B = A[data.draw(st.permutations(range(len(A))))]
    else:
        # many rows a little apart, the case the bounds prune: seeded, then a few drawn outliers
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        A = np.vstack([A, rng.uniform(-1.0, 1.0, (data.draw(st.integers(0, 400)), dim))])
        B = np.vstack([A + rng.normal(0.0, 1e-3, A.shape), cloud(data.draw(st.integers(0, 3)))])
    # duplicate rows within a cloud, and rows shared by both
    A = np.vstack([A, A[: data.draw(st.integers(0, 3))], B[: data.draw(st.integers(0, 3))]])
    ab, ba = _directed_brute(A, B), _directed_brute(B, A)
    assert lens._farthest_nearest(A, B, 0.0) == ab
    assert lens._farthest_nearest(B, A, 0.0) == ba
    assert lens._farthest_nearest(B, A, lens._farthest_nearest(A, B, 0.0)) == max(ab, ba)
    assert lens._farthest_nearest(A, B, 2.0 * ab + 1.0) == 2.0 * ab + 1.0


def test_livshits_pocket_is_open_trapped_set(livshits_pair):
    # phase points in the wall pocket are trapped in both time directions:
    # the mirror sends axis crossings outside the focal segment back outside,
    # so pocket orbits never reach the cavity mouth
    base, _, foci = livshits_pair
    c = foci[1][0]
    from billiard_lens.rng import Xoshiro256StarStar

    gen = Xoshiro256StarStar(29)
    for _ in range(8):
        x = np.array([
            c + (4.2 - c) * (0.3 + 0.4 * gen.uniform()),
            -2.2 * (0.3 + 0.4 * gen.uniform()),
        ])
        ang = gen.unit_angle()
        v = np.array([math.cos(ang), math.sin(ang)])
        for w in (v, -v):
            traj = flow.trace_phase(base, x, w, flow.Limits(n_max=90))
            assert traj.status == "trapped"


@pytest.mark.parametrize("base_kw, deformation", [
    ({}, 0.3),
    ({"wall_thickness": 2.3}, 0.5),
    ({"semi_axes": (4.3, 2.65)}, 0.5),
])
def test_livshits_pocket_invisible_across_variants(base_kw, deformation):
    # the deformed wall sits in the invisible pocket: not a single travelling time moves
    base, _ = geometry.livshits_scene(**base_kw)
    deformed, _ = geometry.livshits_scene(deformation=deformation, **base_kw)
    spec = SampleSpec("grid", 36, 24, n_max=600)
    table_base = lens.build_lens_table(base, spec)
    report = lens.compare_lens(table_base, lens.build_lens_table(deformed, spec), 1e-6 * A_BALL)
    assert report.verdict == "indistinguishable"
    assert report.max_dt == 0.0
    assert table_base.summary["counts"]["scattered"] > 100


def test_livshits_verdict_tells_a_moved_mirror_apart(livshits_pair):
    # the comparison that finds the deformed pair indistinguishable has power:
    # a mirror whose minor semi-axis moved by 1e-3 moves travelling times by
    # up to 0.277 and reads distinguishable, on the same grid and cutoff
    base, deformed, _ = livshits_pair
    moved, _ = geometry.livshits_scene(semi_axes=(4.2, 2.701))
    spec = SampleSpec("grid", 36, 24, n_max=600)
    table = lens.build_lens_table(base, spec)
    tol = 1e-6 * A_BALL
    power = lens.compare_lens(table, lens.build_lens_table(moved, spec), tol)
    assert power.verdict == "distinguishable"
    assert (power.compared, power.status_mismatches, power.reflection_mismatches) == (864, 0, 0)
    assert power.max_dt == pytest.approx(0.277, abs=1e-3)
    same = lens.compare_lens(table, lens.build_lens_table(deformed, spec), tol)
    assert same.verdict == "indistinguishable" and same.compared == 864 and same.max_dt == 0.0


@pytest.mark.parametrize("row", [0, 4, 9])
@pytest.mark.parametrize("fault, message", [
    ("long_v", "direction must be a unit vector"),
    ("off_sphere", "entry point must lie on the boundary sphere"),
    ("outward", "entry direction points outward"),
])
@pytest.mark.parametrize("dim", [2, 3])
def test_a_bad_entry_ends_the_block_before_its_first_ray(dim, fault, message, row, monkeypatch):
    # the block's entries are checked on its columns at once: one bad row, of
    # each of the three tests, raises that test's ValueError, not an error
    # row, and no ray of the block is traced
    scene = bl.make_scene(dim, A_BALL, [bl.SphereObstacle([0.0] * dim, 1.0)], "one-body")
    entries = lens.sample_phase_sphere(SampleSpec("grid", 5, 2), A_BALL, dim)
    Q, V = entries.q.copy(), entries.v.copy()
    if fault == "long_v":
        V[row] *= 1.001
    elif fault == "off_sphere":
        Q[row] *= 1.001
    else:
        V[row] = -V[row]
    calls = []
    monkeypatch.setattr(flow, "trace_phase", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=f"^{message}$"):
        lens._trace_rows(scene, Q, V, flow.Limits())
    assert calls == []


def test_livshits_lens_build_makes_no_closest_point_query(livshits_pair, monkeypatch):
    # reflection normals on curve2d come from the piece and parameter of each root
    base, deformed, _ = livshits_pair
    calls = []
    closest = CurveChain.closest_batch
    monkeypatch.setattr(CurveChain, "closest_batch", lambda self, X: calls.append(1) or closest(self, X))
    spec = SampleSpec("grid", 16, 12, n_max=300)
    table_base = lens.build_lens_table(base, spec)
    table_deformed = lens.build_lens_table(deformed, spec)
    assert calls == []
    assert table_base.summary["counts"]["scattered"] > 0
    report = lens.compare_lens(table_base, table_deformed, 1e-6 * A_BALL)
    assert report.verdict == "indistinguishable"
    assert report.max_dt == 0.0


# -- batched sampler against the one-entry formulas ----------------------------


def _oracle_entry_2d(a, alpha, beta):
    q = a * np.array([math.cos(alpha), math.sin(alpha)])
    nu = -q / a
    tangent = np.array([-nu[1], nu[0]])
    v = math.cos(beta) * nu + math.sin(beta) * tangent
    return (alpha, beta), q, v


def _oracle_entry_3d(a, z, phi, mu, psi):
    rho = math.sqrt(max(0.0, 1.0 - z * z))
    q = a * np.array([rho * math.cos(phi), rho * math.sin(phi), z])
    nu = -q / a
    T = cross_basis(nu)
    sin_theta = math.sqrt(max(0.0, 1.0 - mu * mu))
    v = sin_theta * (math.cos(psi) * T[:, 0] + math.sin(psi) * T[:, 1]) + mu * nu
    return (z, phi, mu, psi), q, v


def _oracle_lattice(heights):
    """The golden-angle lattice, one (height, azimuth) at a time."""
    out = []
    for k, h in enumerate(heights):
        out.append((h, math.fmod(k * (math.pi * (3.0 - math.sqrt(5.0))), 2.0 * math.pi)))
    return out


def _oracle_entries(spec, a, dim):
    """Entries one at a time, in the order and arithmetic of the scalar sampler."""
    if spec.mode == "grid" and dim == 2:
        return [_oracle_entry_2d(a, 2.0 * math.pi * i / spec.n_positions,
                                 -0.5 * math.pi + math.pi * (j + 0.5) / spec.n_directions)
                for i in range(spec.n_positions) for j in range(spec.n_directions)]
    if spec.mode == "grid":
        n, m = spec.n_positions, spec.n_directions
        positions = _oracle_lattice([1.0 - (2.0 * k + 1.0) / n for k in range(n)])
        directions = _oracle_lattice([1.0 - k / m for k in range(m)])
        return [_oracle_entry_3d(a, z, phi, mu, psi) for z, phi in positions for mu, psi in directions]
    gen = Xoshiro256StarStar(spec.seed)
    out = []
    for _ in range(spec.n_total):
        if dim == 2:
            alpha = gen.unit_angle()
            out.append(_oracle_entry_2d(a, alpha, -0.5 * math.pi + math.pi * gen.uniform()))
        else:
            z = 2.0 * gen.uniform() - 1.0
            phi = gen.unit_angle()
            mu = gen.uniform()
            out.append(_oracle_entry_3d(a, z, phi, mu, gen.unit_angle()))
    return out


@pytest.mark.parametrize("dim,spec", [
    (2, "grid:4x25"), (2, "grid:8x125"), (2, "grid:16x625"), (2, "grid:1x7"), (2, "mc:500"),
    (3, "grid:20x16"), (3, "grid:4x25"), (3, "grid:1x3"), (3, "grid:1x1"), (3, "mc:500"),
    # rows by index across blocks: a position split between two blocks, more
    # directions than a block holds, mc draws continued from block to block
    (2, "grid:2x1500"), (3, "grid:37x29"), (3, "grid:2x1500"), (3, "mc:2100"),
])
def test_sampler_matches_one_entry_formulas(dim, spec):
    spec = lens.parse_spec(spec, seed=11)
    entries = lens.sample_phase_sphere(spec, A_BALL, dim)
    oracle = _oracle_entries(spec, A_BALL, dim)
    assert len(entries) == len(oracle) == spec.count()
    for e, (params, q, v) in zip(entries, oracle):
        assert e.params == params and all(type(p) is float for p in e.params)
        assert np.array_equal(e.q, q) and np.array_equal(e.v, v)


def test_cli_intrinsic_entry_is_the_sampler_entry(tmp_path):
    scenes = {2: bl.make_scene(2, A_BALL, [bl.SphereObstacle([0.5, -0.3], 1.0)]),
              3: bl.make_scene(3, A_BALL, [bl.SphereObstacle([0.5, -0.3, 0.2], 1.0)])}
    cases = [(2, (0.7, -0.4)), (2, (3.0, 0.0)), (3, (0.3, 1.1, 0.8, 2.5)), (3, (-1.0, 0.0, 1.0, 0.0))]
    for dim, params in cases:
        scene_path = tmp_path / f"scene{dim}.json"
        scene_path.write_text(geometry.scene_to_json(scenes[dim]) + "\n")
        out = tmp_path / "t.jsonl"
        text = ",".join(repr(p) for p in params)
        assert cli.main(["trace", "--scene", str(scene_path), f"--entry={text}", "--out", str(out)]) == 0
        _, q, v = (_oracle_entry_2d if dim == 2 else _oracle_entry_3d)(A_BALL, *params)
        parsed = cli._parse_entry(text, scenes[dim])
        assert np.array_equal(parsed.q, q) and np.array_equal(parsed.v, v)
        # the tracer stores the entry direction renormalised
        header = json.loads(out.read_text().split("\n")[0])
        assert np.array_equal(header["entry_q"], q)
        assert np.array_equal(header["entry_v"], v / np.linalg.norm(v))


# -- column-wise writers against canonical_json of each row ----------------------


def _oracle_row(s):
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


def _oracle_csv(table, dim):
    names = (["alpha", "beta"] if dim == 2 else ["pos_z", "pos_phi", "dir_mu", "dir_psi"])
    names += ["status", "t", "reflections"] + [f"theta_{ax}" for ax in "xyz"[:dim]] + ["sojourn"]

    def fmt(x):
        return "" if x is None else format(float(x), ".17g")

    lines = [f"# billiard-lens {lens.VERSION} scene={table.scene_hash} "
             f"spec={table.spec.spec_string()} seed={table.spec.seed}", ",".join(names)]
    for s in table.samples:
        theta = [""] * dim if s.theta is None else [fmt(c) for c in s.theta]
        lines.append(",".join([fmt(p) for p in s.params] + [s.status, fmt(s.t), str(s.reflections)]
                              + theta + [fmt(s.sojourn)]))
    return "\n".join(lines) + "\n"


def _table_of_rows(rows, dim, summary=None):
    """A LensTable holding the given LensRow rows in its columns."""
    def vectors(xs, width):
        return np.array([[math.nan] * width if x is None else list(x) for x in xs],
                        dtype=float).reshape(-1, width)

    def scalars(xs):
        return np.array([math.nan if x is None else x for x in xs], dtype=float)

    spec = SampleSpec("mc", n_total=max(1, len(rows)), seed=3)
    return LensTable("00ff00ff00ff00ff", spec, vectors([r.params for r in rows], 2 * (dim - 1)),
                     vectors([r.q for r in rows], dim), vectors([r.v for r in rows], dim),
                     lens._status_column([r.status for r in rows]),
                     np.array([r.reflections for r in rows], dtype=np.int64),
                     scalars([r.t for r in rows]), vectors([r.theta for r in rows], dim),
                     scalars([r.sojourn for r in rows]), np.array([r.error for r in rows], dtype=object),
                     summary if summary is not None else {})


def _every_status_table(dim):
    """Hand-made rows of every status; integer-valued numbers (which are
    written as integers), tiny and huge magnitudes, and an error message with
    quotes and non-ASCII text."""
    rng = np.random.default_rng(dim)

    def unit():
        x = rng.normal(size=dim)
        return x / np.linalg.norm(x)

    def params(first):
        return (first,) + tuple(float(x) for x in rng.uniform(-1.0, 1.0, 2 * dim - 3))

    rows = [
        ("free", 20.0, 0, unit(), 0.0, None),
        ("scattered", 13.141592653589793, 3, unit(), -6.859e-17, None),
        ("trapped", None, 10000, None, None, None),
        ("tangent_flagged", None, 2, unit(), None, None),
        ("gliding_rejected", None, 1, None, None, None),
        ("error", None, 0, None, None, 'ray starts inside "disc 2" — Ω, 1e-300'),
        ("scattered", 1.25e22, 1, unit(), 3.0000000000000004, None),
    ]
    counts = {s: sum(r[0] == s for r in rows) for s in lens.STATUSES}
    return _table_of_rows([lens.LensRow(params(float(k)), A_BALL * unit(), unit(), status, t, refl,
                                        theta, soj, err)
                           for k, (status, t, refl, theta, soj, err) in enumerate(rows)],
                          dim, {"counts": counts, "t_min": 0.5, "t_max": None, "t_mean": 7.0})


@pytest.mark.parametrize("dim", [2, 3])
def test_writers_match_row_oracles(dim):
    table = _every_status_table(dim)
    assert {s.status for s in table.samples} == set(lens.STATUSES)
    header = {"scene_hash": table.scene_hash, "spec": table.spec.to_dict(), "version": lens.VERSION,
              "summary": table.summary}
    extra = {"tool": "x", "invocation": ["lens", "--out", "t \"q\" é.jsonl"], "spec": "ignored"}
    for header_extra in (None, extra):
        text = lens.table_to_jsonl(table, header_extra)
        head = {**(header_extra or {}), **header}
        oracle = [geometry.canonical_json(head)] + [geometry.canonical_json(_oracle_row(s))
                                                    for s in table.samples]
        assert text == "\n".join(oracle) + "\n"
        # integral floats are written as integers, read back as floats and
        # rewritten as the same integers
        assert '"params":[0,' in text and '"t":20,' in text and '"reflections":10000,' in text
        back = lens.table_from_jsonl(text)
        assert back.params[0, 0] == 0.0 and back.t[0] == 20.0 and back.reflections[2] == 10000
        assert lens.table_to_jsonl(back, header_extra) == text
    assert lens.table_to_csv(table) == _oracle_csv(table, dim)
    assert lens.table_to_csv(lens.table_from_jsonl(lens.table_to_jsonl(table))) \
        == _oracle_csv(table, dim)


def test_writers_of_an_empty_table():
    table = _table_of_rows([], 2)
    assert len(table) == 0 and table.samples[:] == []
    assert lens.table_to_jsonl(table).count("\n") == 1
    assert lens.table_to_csv(table) == _oracle_csv(table, 2)


@pytest.mark.parametrize("fixture, spec", [("two_disc_scene", "grid:48x48"),
                                           ("sphere_ellipsoid_scene", "mc:1100")])
def test_streamed_rows_are_the_whole_table_writers(fixture, spec, request):
    # write_lens_rows' head and rows, a block at a time (grid:48x48 is two
    # full blocks and one of 256 rows, mc:1100 a full block and 76 rows), are
    # byte for byte table_to_jsonl and table_to_csv of the whole table
    scene = request.getfixturevalue(fixture)
    spec = lens.parse_spec(spec, seed=7)
    table = lens.build_lens_table(scene, spec)
    assert len(table) % lens.BLOCK_ROWS and len(table) > lens.BLOCK_ROWS
    assert (table.status == "scattered").any()
    extra = {"tool": "x", "invocation": ["lens", "--spec", spec.spec_string()]}
    for csv, whole in ((False, lens.table_to_jsonl(table, extra)), (True, lens.table_to_csv(table))):
        out = io.StringIO()
        head = lens.write_lens_rows(scene, spec, out, csv, extra)
        assert head + "\n" + out.getvalue() == whole


def _oracle_read(text):
    """The rows of a table read one line at a time into Python values, as
    the per-line reader before the column model did, with "-0" read as -0.0."""
    return [json.loads(ln, parse_int=geometry._json_int) for ln in text.splitlines()[1:] if ln.strip()]


def _same_bits(column, values):
    """Column equal to the values bit for bit; None is a NaN row or entry."""
    width = column.shape[1:]
    expected = np.array([np.full(width, math.nan) if x is None else x for x in values],
                        dtype=float).reshape(column.shape)
    return column.tobytes() == expected.tobytes()


_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-2**53, 2**53).map(float),
                    st.sampled_from([-0.0, 0.0, 1e22, -1.25e22, 5e-324, 2.2250738585072009e-308]))


@st.composite
def _rows(draw, dim):
    status = draw(st.sampled_from(lens.STATUSES))
    timed = status in ("free", "scattered")
    vector = st.lists(_FLOATS, min_size=dim, max_size=dim).map(tuple)
    return lens.LensRow(
        tuple(draw(st.lists(_FLOATS, min_size=2 * (dim - 1), max_size=2 * (dim - 1)))),
        draw(vector), draw(vector), status,
        draw(_FLOATS if timed else st.none() | _FLOATS), draw(st.integers(0, 2**53)),
        draw(st.none() | vector), draw(st.none() | _FLOATS), draw(st.none() | st.text(max_size=12)))


@pytest.mark.parametrize("dim", [2, 3])
@given(data=st.data())
def test_tables_round_trip_byte_for_byte(dim, data):
    rows = data.draw(st.lists(_rows(dim), min_size=1, max_size=12))
    table = _table_of_rows(rows, dim, {"counts": {}, "t_min": None, "t_max": None, "t_mean": None})
    text = lens.table_to_jsonl(table)
    back = lens.table_from_jsonl(text)
    assert lens.table_to_jsonl(back) == text
    assert lens.table_to_csv(back) == lens.table_to_csv(table)
    oracle = _oracle_read(text)
    for key in ("params", "q", "v", "t", "theta", "sojourn"):
        assert _same_bits(getattr(back, key), [r[key] for r in oracle]), key
    assert back.status.tolist() == [r["status"] for r in oracle]
    assert back.reflections.tolist() == [r["reflections"] for r in oracle]
    assert back.error.tolist() == [r["error"] for r in oracle]
    assert _same_bits(back.t, [r.t for r in rows]) and _same_bits(back.q, [r.q for r in rows])


def test_tables_of_several_blocks_read_back(disc_scene):
    # the reader turns rows into columns a block of lines at a time
    table = lens.build_lens_table(disc_scene, SampleSpec("grid", 65, 64))
    text = lens.table_to_jsonl(table)
    back = lens.table_from_jsonl(text)
    assert lens.table_to_jsonl(back) == text
    assert np.array_equal(back.params, table.params) and back.status.tolist() == table.status.tolist()
    lines = text.splitlines()
    lines[4149] = lines[4149].replace('"status":"', '"status":"x')
    with pytest.raises(geometry.SchemaError, match="^lens table line 4150: unknown status 'x"):
        lens.table_from_jsonl("\n".join(lines))


_COLUMNS = ("params", "q", "v", "status", "reflections", "t", "theta", "sojourn", "error")


def _block_table(n, dim):
    """n hand-made rows whose null pattern of t, sojourn and theta cycles with
    period 8, each with a status it allows (cycling too), and a message on
    every error row: each block of the writers and the reader has them all."""
    rng = np.random.default_rng(n)
    k = np.arange(n)
    t_null, sojourn_null, theta_null = (k & 1) > 0, (k & 2) > 0, (k & 4) > 0
    untimed = np.array(["trapped", "tangent_flagged", "gliding_rejected", "error"])
    status = np.where(t_null, untimed[(k // 8) % 4], np.array(lens.STATUSES)[(k // 8) % 6])
    theta = rng.normal(size=(n, dim))
    theta[theta_null] = math.nan
    error = np.array([f"RootPolishFailed: row {i}" if s == "error" else None
                      for i, s in enumerate(status.tolist())], dtype=object)
    return LensTable("00ff00ff00ff00ff", SampleSpec("mc", n_total=n, seed=3),
                     rng.uniform(-1.0, 1.0, (n, 2 * (dim - 1))), rng.normal(size=(n, dim)) * A_BALL,
                     rng.normal(size=(n, dim)), lens._status_column(status),
                     rng.integers(0, 50, n), np.where(t_null, math.nan, rng.uniform(0.0, 40.0, n)),
                     theta, np.where(sojourn_null, math.nan, rng.normal(size=n)), error, {})


def _check_rows_and_columns(table, dim):
    """Each written row is canonical_json of its row's fields, the JSONL reads
    back to the same columns, and the CSV matches its row oracle."""
    text = lens.table_to_jsonl(table)
    assert text.splitlines()[1:] == [geometry.canonical_json(_oracle_row(s)) for s in table.samples]
    back = lens.table_from_jsonl(text)
    for key in _COLUMNS:
        a, b = getattr(back, key), getattr(table, key)
        assert a.tolist() == b.tolist() if key == "error" else (
            a.dtype == b.dtype and a.tobytes() == b.tobytes()), key
    assert lens.table_to_csv(table) == _oracle_csv(table, dim)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 4099])
def test_tables_across_block_boundaries(n, dim):
    assert lens.BLOCK_ROWS == 1024
    table = _block_table(n, dim)
    assert set(table.status.tolist()) == set(lens.STATUSES) or n == 1
    _check_rows_and_columns(table, dim)


def test_error_rows_in_several_blocks(monkeypatch):
    # the stub tracer fails every ray that meets the disc: error rows, with
    # their text, fall in every block of a 4096-row table, beside free rows
    fail_rays_that_reflect(monkeypatch, OverflowError)
    scene = bl.make_scene(2, A_BALL, [bl.SphereObstacle([0.0, 0.0], 3.0)], "disc-3")
    table = lens.build_lens_table(scene, SampleSpec("grid", 64, 64))
    errors = np.flatnonzero(table.status == "error")
    assert set((errors // lens.BLOCK_ROWS).tolist()) == {0, 1, 2, 3}
    assert set(table.status.tolist()) == {"free", "error"}
    _check_rows_and_columns(table, 2)


def test_a_bad_row_in_the_third_block_is_named():
    text = lens.table_to_jsonl(_block_table(4099, 2))
    lines = text.splitlines()
    lines[2500] = lines[2500].replace('"status":"', '"status":"x')
    with pytest.raises(geometry.SchemaError, match="^lens table line 2501: unknown status 'x"):
        lens.table_from_jsonl("\n".join(lines))
    # read before the rows are counted: with a row missing too, the bad row is named
    with pytest.raises(geometry.SchemaError, match="^lens table line 2501: unknown status 'x"):
        lens.table_from_jsonl("\n".join(lines[:-1]))
    with pytest.raises(geometry.SchemaError, match="^lens table has 4098 rows, but its spec"):
        lens.table_from_jsonl("\n".join(text.splitlines()[:-1]))


def _vector_texts(width):
    """JSON texts that are no list of `width` numbers: a string, a bool, a
    list holding a number beyond the float range, of the wrong length, of
    lists."""
    return ['"x"', "true", "[" + ",".join(["1e400"] + ["0.5"] * (width - 1)) + "]",
            "[" + ",".join(["0.5"] * (width + 1)) + "]", "[" + ",".join(["[0.5]"] * width) + "]"]


def _bad_fields(dim):
    """(key, JSON text) of each bad kind of value for each row key of a
    table of dimension dim, a negative count, an unknown status and an error
    that is no string among them."""
    scalar = ['"x"', "true", "1e400", "[0.5]"]
    return ([("params", text) for text in _vector_texts(2 * (dim - 1))]
            + [(key, text) for key in ("q", "v", "theta") for text in _vector_texts(dim)]
            + [(key, text) for key in ("t", "sojourn") for text in scalar]
            + [("reflections", text) for text in scalar + ["-1"]]
            + [("status", text) for text in ('"x"', "true", '["free"]')]
            + [("error", text) for text in ("1", "true", '["x"]')])


@pytest.mark.parametrize("dim", [2, 3])
def test_a_bad_field_of_a_later_block_names_its_line(dim):
    # each bad kind of value of each column, in one seeded row past the first
    # block: the reader names that row's line and its column
    lines = lens.table_to_jsonl(_block_table(2 * lens.BLOCK_ROWS + 3, dim)).splitlines()
    rng = np.random.default_rng(dim)
    for key, text in _bad_fields(dim):
        k = int(rng.integers(lens.BLOCK_ROWS + 1, len(lines)))
        row = json.loads(lines[k])
        row[key] = "@"
        bad = lines[:k] + [geometry.canonical_json(row).replace('"@"', text)] + lines[k + 1:]
        named = "unknown status" if key == "status" else f"{key} must be"
        with pytest.raises(geometry.SchemaError, match=f"^lens table line {k + 1}: {named}"):
            lens.table_from_jsonl("\n".join(bad))


def _traced_peak(fn):
    """fn's result and the peak of memory that tracemalloc sees it allocate."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_reader_holds_one_block(tmp_path):
    # the reader's peak, besides the columns it returns, does not grow with
    # the table: it holds one block of rows
    path = tmp_path / "table.jsonl"

    def read():
        with open(path) as fh:
            return lens.read_jsonl(fh)

    path.write_text(lens.table_to_jsonl(_block_table(64, 2)))
    read()  # lazy imports and first-call caches, outside the measurements
    peaks = []
    for n in (4096, 16384):
        path.write_text(lens.table_to_jsonl(_block_table(n, 2)))
        back, peak = _traced_peak(read)
        peaks.append(peak - sum(getattr(back, key).nbytes for key in _COLUMNS))
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_lens_and_compare_hold_one_block(tmp_path, disc_scene):
    # CLI `lens` to JSONL and to CSV, and `compare`, stream their rows one
    # block at a time: at 6,144 rows (six blocks) each peaks within 1.25x of
    # its peak at 2,048 rows (two blocks, where a block and the next are both
    # held). Measured: JSONL 1.007, CSV 1.012, compare 1.016; the whole-table
    # code read 1.57, 2.00 and 1.54. (16,384 rows, 16 blocks, cost 7 s under
    # tracemalloc.)
    scene = tmp_path / "disc.json"
    scene.write_text(geometry.scene_to_json(disc_scene) + "\n")

    def run(argv):
        assert cli.main(argv) == 0

    def commands(spec):
        jsonl, csv = tmp_path / f"{spec}.jsonl", tmp_path / f"{spec}.csv"
        return {"jsonl": ["lens", "--scene", str(scene), "--spec", spec, "--out", str(jsonl)],
                "csv": ["lens", "--scene", str(scene), "--spec", spec, "--out", str(csv)],
                "compare": ["compare", "--scene", str(jsonl), "--scene-b", str(jsonl),
                            "--out", str(tmp_path / "compare.json")]}

    for argv in commands("grid:4x4").values():  # lazy imports and first-call caches
        run(argv)
    peaks = {}
    for spec in ("grid:32x64", "grid:96x64"):
        for name, argv in commands(spec).items():
            peaks.setdefault(name, []).append(_traced_peak(lambda: run(argv))[1])
    assert all(large <= 1.25 * small for small, large in peaks.values()), peaks


_WIDE_FLOATS = st.floats(-1e300, 1e300)  # subnormals and -0.0 included; sums of 300 stay finite


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_streamed_means_are_the_mean_of_the_whole_list(data):
    # the summary's t_mean and the join's mean_dt, kept as blocks stream,
    # are `_mean` of the whole list bit for bit: floats of every exponent,
    # pairs that cancel, split at drawn block boundaries (empty blocks too)
    xs = data.draw(st.lists(_WIDE_FLOATS, min_size=1, max_size=100))
    pairs = data.draw(st.lists(_WIDE_FLOATS, max_size=50))
    xs = data.draw(st.permutations(xs + pairs + [-x for x in pairs]))
    ys = data.draw(st.lists(_WIDE_FLOATS, min_size=len(xs), max_size=len(xs)))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(xs)), max_size=6)))
    bounds = list(zip([0] + cuts, cuts + [len(xs)]))

    def block(t, lo, hi):
        n = hi - lo
        return lens._Block(np.zeros((n, 2)), np.zeros((n, 2)), np.zeros((n, 2)),
                           lens._status_column(["free"] * n), np.zeros(n, dtype=np.int64),
                           np.array(t[lo:hi], dtype=float), np.zeros((n, 2)), np.zeros(n),
                           np.full(n, None, dtype=object))

    summary = lens._Summary()
    for _ in summary.tally(block(xs, lo, hi) for lo, hi in bounds):
        pass
    got = summary.to_dict()
    assert got["t_mean"].hex() == lens._mean(xs).hex()
    assert (got["t_min"].hex(), got["t_max"].hex()) == (min(xs).hex(), max(xs).hex())
    assert got["counts"]["free"] == len(xs)

    join = lens._Join(SampleSpec("mc", n_total=1), SampleSpec("mc", n_total=1), 1.0)
    for lo, hi in bounds:
        join.add(block(xs, lo, hi), block(ys, lo, hi))
    dts = np.abs(np.array(xs) - np.array(ys)).tolist()
    report = join.report()
    assert report.compared == len(dts)
    assert report.mean_dt.hex() == lens._mean(dts).hex() and report.max_dt == max(dts)


def test_negative_zero_survives_a_round_trip():
    row = lens.LensRow((1.0, -0.0), (10.0, -0.0), (-1.0, -0.0), "free", 20.0, 0, (-1.0, -0.0), -0.0,
                       None)
    text = lens.table_to_jsonl(_table_of_rows([row], 2))
    assert '"v":[-1,-0]' in text and '"sojourn":-0,' in text
    back = lens.table_from_jsonl(text)
    assert math.copysign(1.0, back.v[0, 1]) == -1.0 and math.copysign(1.0, back.sojourn[0]) == -1.0
    assert lens.table_to_jsonl(back) == text


@pytest.mark.parametrize("limits", [{"n_max": 0}, {"n_max": -1}, {"t_max": 0.0}, {"t_max": -1.0},
                                    {"t_max": math.nan}, {"t_max": math.inf}],
                         ids=["nmax-0", "nmax-negative", "tmax-0", "tmax-negative", "tmax-nan",
                              "tmax-inf"])
def test_limits_reject_out_of_range(limits):
    with pytest.raises(ValueError):
        flow.Limits(**limits)
    with pytest.raises(ValueError):
        SampleSpec("grid", 2, 2, **limits)


# -- one disc or one sphere: the lens relation in closed form ---------------------


def _one_ball_lens(q, v, center, radius, a):
    """(reflections, t, theta, sojourn, |cos| at the hit) of the entry (q, v)
    in a ball of radius a around one ball obstacle, in 50-digit decimals: the
    entry chord, or the reflection at the first root and the chord from there."""
    with localcontext() as ctx:
        ctx.prec = 50

        def dot(x, y):
            return sum((xi * yi for xi, yi in zip(x, y)), Decimal(0))

        def exit_time(x, w):
            b = dot(x, w)
            return -b + (b * b - dot(x, x) + a * a).sqrt()

        q, c = [Decimal(x) for x in q], [Decimal(x) for x in center]
        v = [Decimal(x) for x in v]
        speed = dot(v, v).sqrt()
        v = [x / speed for x in v]
        a, r = Decimal(a), Decimal(radius)
        d = [x - y for x, y in zip(q, c)]
        b = dot(d, v)
        disc = b * b - dot(d, d) + r * r
        t1 = -b - disc.sqrt() if disc > 0 else Decimal(-1)
        if t1 <= 0:  # a miss: the entry chord
            t1, hit, theta, cos_in = Decimal(0), q, v, None
        else:
            hit = [x + t1 * w for x, w in zip(q, v)]
            n = [(x - y) / r for x, y in zip(hit, c)]
            cos_in = dot(v, n)
            theta = [w - 2 * cos_in * m for w, m in zip(v, n)]
        t2 = exit_time(hit, theta)
        exit_q = [x + t2 * w for x, w in zip(hit, theta)]
        t = t1 + t2
        sojourn = t + dot(q, v) - dot(exit_q, theta)
        return (0 if cos_in is None else 1, float(t), [float(x) for x in theta], float(sojourn),
                None if cos_in is None else abs(float(cos_in)))


def _check_one_ball_table(dim, center, radius, spec):
    """Every row of the lens table of one ball obstacle against the closed
    form: status, reflections, t, theta and sojourn time within 1e-12 a.
    Rows within twice the tangency threshold of grazing may be
    tangent-flagged either way and are skipped. Returns the scattered rows."""
    scene = bl.make_scene(dim, A_BALL, [bl.SphereObstacle(center, radius)], "one-ball")
    tol = 1e-12 * A_BALL
    scattered = 0
    for s in lens.build_lens_table(scene, spec).samples:
        refl, t, theta, sojourn, cos_in = _one_ball_lens(s.q, s.v, center, radius, A_BALL)
        if cos_in is not None and cos_in <= 2.0 * flow.TANGENCY_THRESHOLD:
            continue
        assert (s.status, s.reflections) == (("scattered", 1) if refl else ("free", 0))
        assert abs(s.t - t) <= tol
        assert abs(s.sojourn - sojourn) <= tol
        assert np.max(np.abs(s.theta - theta)) <= tol
        scattered += refl
    return scattered


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("mode", ["grid", "mc"])
@given(data=st.data())
def test_one_ball_lens_table_matches_the_closed_form(dim, mode, data):
    # one disc or one sphere at a drawn centre and radius, in both sample modes
    radius = data.draw(st.floats(0.1, 5.0))
    phi = data.draw(st.floats(-math.pi, math.pi))
    mu = data.draw(st.floats(-1.0, 1.0)) if dim == 3 else 0.0
    offset = data.draw(st.floats(0.0, 0.9 * A_BALL - radius))
    center = offset * np.array([math.sqrt(1.0 - mu * mu) * math.cos(phi),
                                math.sqrt(1.0 - mu * mu) * math.sin(phi), mu][:dim])
    spec = (SampleSpec("grid", 16, 12) if mode == "grid"
            else SampleSpec("mc", n_total=192, seed=data.draw(st.integers(0, 2**32 - 1))))
    _check_one_ball_table(dim, center, radius, spec)


def test_small_disc_far_from_the_entry_keeps_its_precision():
    # written about the entry point, the quadratic loses 1.3e-10 of t on this
    # disc, 13 times the bound; about the ray point nearest the centre, 1e-13
    assert _check_one_ball_table(2, np.array([5.0, 0.0]), 0.03, SampleSpec("grid", 16, 12)) > 0


def _superellipsoid_lens(q, v, axes, p, a):
    """(reflections, t, |cos| at the hit) of the entry (q, v) in a ball of
    radius a around one upright superellipsoid sum |x_i / a_i|^p = 1 about the
    origin (an integer p), in 50-digit decimals: the minimum of F along the
    line's chord of the box |x_i| <= a_i, then, if F < 0 there, the entry root
    bisected before it, the reflection there and the ball's chord from it."""
    with localcontext() as ctx:
        ctx.prec = 50

        def dot(x, y):
            return sum((xi * yi for xi, yi in zip(x, y)), Decimal(0))

        def exit_time(x, w):
            b = dot(x, w)
            return -b + (b * b - dot(x, x) + a * a).sqrt()

        def bisect(lo, hi, below):
            # the last point of [lo, hi] at which `below` holds, to 50 digits
            for _ in range(200):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if below(mid) else (lo, mid)
            return lo

        q, v, s, a = [Decimal(x) for x in q], [Decimal(x) for x in v], [Decimal(x) for x in axes], Decimal(a)
        speed = dot(v, v).sqrt()
        v = [x / speed for x in v]
        y, w = [x / si for x, si in zip(q, s)], [x / si for x, si in zip(v, s)]
        ends = [max((-1 - yi) / wi, (1 - yi) / wi) if wi else Decimal("Infinity") for yi, wi in zip(y, w)]
        starts = [min((-1 - yi) / wi, (1 - yi) / wi) if wi else Decimal("-Infinity") for yi, wi in zip(y, w)]
        lo, hi = max(starts), min(ends)

        def F(t):
            return sum((abs(yi + t * wi) ** p for yi, wi in zip(y, w)), Decimal(0)) - 1

        def slope(t):
            return sum((p * (yi + t * wi) * abs(yi + t * wi) ** (p - 2) * wi for yi, wi in zip(y, w)),
                       Decimal(0))

        t_min = bisect(lo, hi, lambda t: slope(t) < 0) if lo < hi else None
        if t_min is None or F(t_min) >= 0:  # a miss: the entry chord
            return 0, float(exit_time(q, v)), None
        t1 = bisect(lo, t_min, lambda t: F(t) > 0)
        hit = [x + t1 * wi for x, wi in zip(q, v)]
        g = [p * (x / si) * abs(x / si) ** (p - 2) / si for x, si in zip(hit, s)]
        norm = dot(g, g).sqrt()
        n = [gi / norm for gi in g]
        cos_in = dot(v, n)
        theta = [wi - 2 * cos_in * m for wi, m in zip(v, n)]
        return 1, float(t1 + exit_time(hit, theta)), abs(float(cos_in))


def test_thin_superellipsoid_matches_a_decimal_reference():
    # a thin body at p = 200: the grid rows whose line meets its bounding
    # circle, where the ray solver once started Newton from the circle's
    # chord and |u_i|^(p-1) overflowed on 60 of them; each against the
    # 50-digit reference, status and reflections exactly, t within 1e-12 a
    axes, p = [5.0, 0.1], 200
    scene = bl.make_scene(2, A_BALL, [bl.SuperellipsoidObstacle([0.0, 0.0], axes, float(p))], "thin")
    r2 = axes[0] ** 2 + axes[1] ** 2
    checked = scattered = 0
    for s in lens.build_lens_table(scene, SampleSpec("grid", 16, 16)).samples:
        b = float(s.q @ s.v)
        if b * b - float(s.q @ s.q) + r2 <= 0.0:
            continue
        refl, t, cos_in = _superellipsoid_lens(s.q, s.v, axes, p, A_BALL)
        assert cos_in is None or cos_in > 2.0 * flow.TANGENCY_THRESHOLD
        assert (s.status, s.reflections) == (("scattered", 1) if refl else ("free", 0))
        assert abs(s.t - t) <= 1e-12 * A_BALL
        checked += 1
        scattered += refl
    assert (checked, scattered) == (96, 56)
