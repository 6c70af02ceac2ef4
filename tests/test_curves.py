"""Curve pieces on floats: a bump's ray roots against the bisection that
Newton's method replaced, and each piece's point and derivatives at a float
parameter against the array form, bit for bit."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from billiard_lens.curves import (_JOIN_OVERLAP, ArcPiece, BumpLinePiece, EllipseArcPiece, LinePiece,
                                  _bracketed_root)


def _offset(piece, q, v):
    """(alpha, beta, gamma) of the bump's offset across the line q + t v,
    g(s) = alpha + beta s + gamma sin^2(pi s), as `ray_roots` forms it."""
    (qx, qy), (vx, vy) = q, v
    x0, y0, dx, dy, ux, uy = piece._floats
    return (-vy * (x0 - qx) + vx * (y0 - qy), -vy * dx + vx * dy,
            piece.amplitude * (-vy * ux + vx * uy))


def _bisection_roots(piece, q, v):
    """The parameters of the bump's crossings with the line q + t v by the
    bisection `ray_roots` took before: g's knots, and each bracket with a
    sign change (read from the signs, as `ray_roots` now does) halved until
    it is at most 1e-15 wide."""
    alpha, beta, gamma = _offset(piece, q, v)
    if beta == 0.0 and gamma == 0.0:
        return []
    knots = [-_JOIN_OVERLAP, 1.0 + _JOIN_OVERLAP]
    if abs(beta) <= abs(gamma) * math.pi:
        phi = math.asin(-beta / (gamma * math.pi))
        knots += [s for s in ((0.5 * phi / math.pi) % 1.0, (0.5 - 0.5 * phi / math.pi) % 1.0)
                  if 0.0 < s < 1.0]
    knots.sort()

    def g(s):
        return alpha + beta * s + gamma * math.sin(math.pi * s) ** 2

    roots = []
    for lo, hi in zip(knots, knots[1:]):
        g_lo, g_hi = g(lo), g(hi)
        if (g_lo > 0.0 and g_hi > 0.0) or (g_lo < 0.0 and g_hi < 0.0):
            continue
        rising = g_hi > g_lo
        while hi - lo > 1e-15:
            mid = 0.5 * (lo + hi)
            if (g(mid) > 0.0) == rising:
                hi = mid
            else:
                lo = mid
        roots.append(0.5 * (lo + hi))
    return roots


@st.composite
def _bump_and_line(draw):
    """A bump (flat, slight or tall) and a line through a point of it at a
    drawn parameter: in a drawn direction, or along the tangent there turned
    by a small angle (a crossing near a turning point of g), or along the
    tangent shifted by a small offset across it (a near-tangent line, with
    two close crossings or none)."""
    p0 = [draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))]
    chord, length = draw(st.floats(0.0, 2.0 * math.pi)), draw(st.floats(0.05, 5.0))
    p1 = [p0[0] + length * math.cos(chord), p0[1] + length * math.sin(chord)]
    amplitude = draw(st.sampled_from([0.0, 1e-3, 0.3, 1.0])) * draw(st.floats(-1.0, 1.0))
    lean = draw(st.floats(0.0, 2.0 * math.pi))
    piece = BumpLinePiece(p0, p1, amplitude, [math.cos(lean), math.sin(lean)])
    s0 = draw(st.floats(0.0, 1.0))
    x = piece.point(s0)
    kind = draw(st.sampled_from(["drawn", "turned", "shifted"]))
    if kind == "drawn":
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        v = [math.cos(angle), math.sin(angle)]
    else:
        d = piece.deriv(s0)
        speed = math.hypot(*d)
        tx, ty = d[0] / speed, d[1] / speed
        small = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3])) * draw(st.floats(-1.0, 1.0))
        if kind == "turned":
            v = [tx - small * ty, ty + small * tx]
        else:
            v, x = [tx, ty], [x[0] - small * ty, x[1] + small * tx]
    return piece, [x[0] - 7.0 * v[0], x[1] - 7.0 * v[1]], v


@settings(max_examples=400)
@given(_bump_and_line())
def test_bump_roots_are_the_bisections(case):
    # the same brackets, so the same count; each root the bisection's within
    # 1e-15 (its last bracket) plus twice the width over which the rounding
    # of g hides its sign, (2^-52 (|alpha| + |beta| + |gamma|) + 2^-1070) /
    # |g'(s)|, the last term for offsets below the normal range. That width
    # is about 1e-15 on a line well clear of a turning point of g and far
    # more near one, where the crossing itself is that uncertain: over 20,000
    # random draws the two solvers parted by at most 0.78 of it. Flat bumps
    # on lines in random directions parted by at most 5.6e-16.
    piece, q, v = case
    alpha, beta, gamma = _offset(piece, q, v)
    roots, oracle = piece.ray_roots(q, v), _bisection_roots(piece, q, v)
    assert len(roots) == len(oracle)
    for (t, s), s_bisected in zip(roots, oracle):
        slope = min(abs(beta + gamma * math.pi * math.sin(2.0 * math.pi * x)) for x in (s, s_bisected))
        width = (2.0**-52 * (abs(alpha) + abs(beta) + abs(gamma)) + 2.0**-1070) / slope if slope else math.inf
        assert abs(s - s_bisected) <= 1e-15 + 2.0 * width
        assert -_JOIN_OVERLAP <= s <= 1.0 + _JOIN_OVERLAP


def test_a_line_that_meets_a_bump_only_beyond_it_has_no_root():
    # a line along a flat bump's segment, turned by a subnormal angle, meets
    # it only at s = -7: g is about -1.6e-312 at both ends, and its product
    # there, 0, once passed as a sign change, and the bisection answered a
    # crossing at the end s = -1e-12
    piece = BumpLinePiece([0.0, 1.0], [1.0, 1.0], 0.0, [1.0, 0.0])
    assert piece.ray_roots([-7.0, 1.0], [1.0, 2.2250738585e-313]) == []


def test_a_linear_offset_takes_one_newton_step():
    # a flat bump's g is linear: the chord's root is its root, and the one
    # Newton step from there is below 1e-15
    at = []

    def g(s):
        at.append(s)
        return 0.3 - 0.7 * s

    s = _bracketed_root(g, lambda s: -0.7, -_JOIN_OVERLAP, 1.0 + _JOIN_OVERLAP,
                        g(-_JOIN_OVERLAP), g(1.0 + _JOIN_OVERLAP))
    assert len(at) == 3 and abs(at[2] - 3.0 / 7.0) <= 1e-15 and abs(s - at[2]) <= 1e-15


def test_a_nan_offset_ends_the_solve():
    # a line of NaNs gives NaN offsets; the solve ends rather than loop
    s = _bracketed_root(lambda s: math.nan, lambda s: math.nan, 0.0, 1.0, math.nan, 1.0)
    assert math.isnan(s)
    piece = BumpLinePiece([0.0, 0.0], [1.0, 0.0], 0.2, [0.0, 1.0])
    assert all(math.isnan(t) for t, _ in piece.ray_roots([math.nan, 0.0], [0.0, 1.0]))


_OVERLAP_S = st.floats(-_JOIN_OVERLAP, 1.0 + _JOIN_OVERLAP)
_CORNERS = [-_JOIN_OVERLAP, 0.0, 0.5, 1.0, 1.0 + _JOIN_OVERLAP]


@st.composite
def _piece(draw):
    """A piece of each kind with drawn numbers: a line, a flat and a curved
    bump, an arc and a rotated ellipse arc."""
    xy = st.floats(-3.0, 3.0)
    p0, p1 = [draw(xy), draw(xy)], [draw(xy), draw(xy)]
    if p0 == p1:
        p1[0] += 1.0
    theta0, sweep = draw(st.floats(-4.0, 4.0)), draw(st.floats(0.1, 6.0)) * draw(st.sampled_from([-1, 1]))
    kind = draw(st.sampled_from(["line", "flat bump", "bump", "arc", "ellipse arc"]))
    if kind == "line":
        return LinePiece(p0, p1)
    if kind.endswith("bump"):
        amplitude = 0.0 if kind == "flat bump" else draw(st.floats(-1.0, 1.0).filter(bool))
        return BumpLinePiece(p0, p1, amplitude, [draw(xy), draw(st.floats(0.1, 3.0))])
    if kind == "arc":
        return ArcPiece(p0, draw(st.floats(0.1, 5.0)), theta0, theta0 + sweep)
    return EllipseArcPiece(p0, [draw(st.floats(0.1, 5.0)), draw(st.floats(0.1, 5.0))],
                           theta0, theta0 + sweep, draw(st.floats(-math.pi, math.pi)))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64).tolist()


@settings(max_examples=150)
@given(_piece(), st.lists(_OVERLAP_S, min_size=1, max_size=30))
def test_a_piece_at_a_float_is_its_array_form(piece, drawn):
    # the tracer's normal and curvature (`piece_normal`, `piece_shape`) take
    # the float form, a closest point's (`closest_batch`) the array form
    params = drawn + _CORNERS
    for name in ("point", "deriv", "deriv2"):
        method = getattr(piece, name)
        rows = method(np.array(params))
        assert rows.shape == (len(params), 2)
        for s, row in zip(params, rows):
            at_float = method(s)
            assert type(at_float) is list and all(type(c) is float for c in at_float)
            assert _bits(at_float) == _bits(row)
            assert _bits(method(np.array(s))) == _bits(row)
