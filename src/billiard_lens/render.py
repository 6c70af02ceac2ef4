"""SVG rendering of 2D scenes and trajectories.

One path per obstacle outline, one polyline per trajectory segment, one
small circle per event; nothing numeric is altered by rendering. All
coordinates are written with 17 significant digits so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

from .geometry import format_float as _fmt


def _pt(p) -> str:
    # SVG y axis points down
    return f"{_fmt(p[0])},{_fmt(-p[1])}"


def svg_scene(scene, trajectories=(), comment: str | None = None) -> str:
    if scene.dimension != 2:
        raise ValueError("SVG rendering is available for 2D scenes only")
    a = scene.ball_radius
    m = 1.06 * a
    out = []
    if comment:
        out.append(f"<!-- {comment} -->")
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(-m)} {_fmt(-m)} {_fmt(2 * m)} {_fmt(2 * m)}" '
        f'width="760" height="760">'
    )
    out.append(
        f'<circle cx="0" cy="0" r="{_fmt(a)}" fill="none" stroke="#888888" '
        f'stroke-width="{_fmt(0.004 * a)}" stroke-dasharray="{_fmt(0.02 * a)}"/>'
    )
    for obs in scene.obstacles:
        pts = obs.boundary_points(720)
        path = "M " + " L ".join(_pt(p) for p in pts) + " Z"
        out.append(
            f'<path d="{path}" fill="#d0d7e2" stroke="#30425a" '
            f'stroke-width="{_fmt(0.005 * a)}"/>'
        )
    for traj in trajectories:
        nodes = [traj.ends[0]] + [ev.x for ev in traj.events]
        if traj.status == "exited":
            nodes.append(traj.ends[2])
        for p0, p1 in zip(nodes[:-1], nodes[1:]):
            out.append(
                f'<polyline points="{_pt(p0)} {_pt(p1)}" fill="none" '
                f'stroke="#b03030" stroke-width="{_fmt(0.004 * a)}"/>'
            )
        for ev in traj.events:
            out.append(
                f'<circle cx="{_fmt(ev.x[0])}" cy="{_fmt(-ev.x[1])}" '
                f'r="{_fmt(0.008 * a)}" fill="#b03030"/>'
            )
        out.append(
            f'<circle cx="{_fmt(traj.ends[0][0])}" cy="{_fmt(-traj.ends[0][1])}" '
            f'r="{_fmt(0.008 * a)}" fill="#2a6f2a"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
