import math

import numpy as np
import pytest

import billiard_lens as bl
from billiard_lens import flow, geometry, lens
from billiard_lens.flow import PhasePoint
from billiard_lens.lens import SampleSpec, SpecMismatch

from conftest import A_BALL


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


def test_compare_excludes_tangent_flagged(disc_scene):
    import copy

    spec = SampleSpec("grid", 8, 6)
    t1 = lens.build_lens_table(disc_scene, spec)
    t2 = copy.deepcopy(t1)
    flagged = t2.samples[5]
    t2.samples[5] = lens.LensSample(flagged.params, flagged.q, flagged.v,
                                    "tangent_flagged", None, flagged.reflections,
                                    flagged.theta, None)
    rep = lens.compare_lens(t1, t2, 1e-8)
    assert rep.excluded_tangent == 1
    assert rep.verdict == "indistinguishable"
    assert rep.compared == rep.matched - 1


def _with_status(table, index, status):
    import copy

    out = copy.deepcopy(table)
    s = out.samples[index]
    out.samples[index] = lens.LensSample(s.params, s.q, s.v, status, None,
                                         s.reflections, None, None)
    return out


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
    text = lens.table_to_csv(table, 2)
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


def test_boundary_distance_examples(livshits_pair):
    s1 = bl.make_scene(2, A_BALL, [bl.SphereObstacle([0.0, 0.0], 1.0)], "x")
    s1b = bl.make_scene(2, A_BALL, [bl.SphereObstacle([0.0, 0.0], 1.0)], "y")
    assert lens.boundary_distance(s1, s1b, density=50.0) < 2e-3
    s2 = bl.make_scene(2, A_BALL, [bl.SphereObstacle([0.0, 0.0], 1.01)], "z")
    assert lens.boundary_distance(s1, s2, density=300.0) == pytest.approx(0.01, abs=1e-3)
    base, deformed, _ = livshits_pair
    assert lens.boundary_distance(base, deformed, density=40.0) == pytest.approx(0.5, rel=0.1)


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
