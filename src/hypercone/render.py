"""Static SVG circle diagrams of cores, multicones and direction data.

P1 is drawn as a full circle by doubling angles (a direction at angle t maps
to circle position 2t).  Layout is deterministic: fixed radii per layer,
fixed label offsets, floats printed with four decimals.
"""

from __future__ import annotations

import math

from .multicone import CoreSet
from .projgeom import MultiCone

_SIZE = 480.0
_CX = _CY = _SIZE / 2.0
_R_CIRCLE = 170.0
_R_U = 185.0
_R_S = 150.0
_R_CONE = 200.0
_R_LABEL = 215.0


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _xy(angle: float, r: float) -> tuple[float, float]:
    t = 2.0 * angle  # double cover: P1 as a full circle
    return (_CX + r * math.cos(t), _CY - r * math.sin(t))


def _arc_path(start: float, length: float, r: float) -> str:
    x0, y0 = _xy(start, r)
    x1, y1 = _xy(start + length, r)
    large = 1 if 2.0 * length > math.pi else 0
    return (f"M {_fmt(x0)} {_fmt(y0)} "
            f"A {_fmt(r)} {_fmt(r)} 0 {large} 0 {_fmt(x1)} {_fmt(y1)}")


def _chord_arrow(a: float, b: float, r: float) -> str:
    x0, y0 = _xy(a, r)
    x1, y1 = _xy(b, r)
    mx, my = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    # pull the control point toward the center for a readable bow
    cx = _CX + 0.55 * (mx - _CX)
    cy = _CY + 0.55 * (my - _CY)
    return (f"M {_fmt(x0)} {_fmt(y0)} Q {_fmt(cx)} {_fmt(cy)} "
            f"{_fmt(x1)} {_fmt(y1)}")


def svg_diagram(cores: CoreSet | None = None,
                cone: MultiCone | None = None,
                points: dict | None = None,
                arrows: list | None = None,
                title: str = "") -> str:
    """Compose the diagram; ``points`` maps label -> angle, ``arrows`` is a
    list of (from_angle, to_angle, label) action indicators."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_SIZE)}" '
        f'height="{int(_SIZE)}" viewBox="0 0 {int(_SIZE)} {int(_SIZE)}">',
        f'<circle cx="{_fmt(_CX)}" cy="{_fmt(_CY)}" r="{_fmt(_R_CIRCLE)}" '
        'fill="none" stroke="#999" stroke-width="1"/>',
        '<defs><marker id="tip" markerWidth="8" markerHeight="8" refX="6" '
        'refY="3" orient="auto"><path d="M0,0 L6,3 L0,6 z" fill="#444"/>'
        "</marker></defs>",
    ]
    if title:
        parts.append(f'<text x="12" y="20" font-size="13" '
                     f'font-family="monospace">{title}</text>')
    if cone is not None:
        for arc in cone.arcs:
            parts.append(f'<path d="{_arc_path(arc.start.angle, arc.length, _R_CONE)}" '
                         'fill="none" stroke="#7a7" stroke-width="7" '
                         'stroke-linecap="round" opacity="0.8"/>')
    if cores is not None:
        for arc in cores.u_arcs:
            parts.append(f'<path d="{_arc_path(arc.start.angle, arc.length, _R_U)}" '
                         'fill="none" stroke="#c33" stroke-width="5" '
                         'stroke-linecap="round"/>')
        for arc in cores.s_arcs:
            parts.append(f'<path d="{_arc_path(arc.start.angle, arc.length, _R_S)}" '
                         'fill="none" stroke="#36c" stroke-width="5" '
                         'stroke-linecap="round"/>')
    if arrows:
        for a, b, label in arrows:
            parts.append(f'<path d="{_chord_arrow(a, b, _R_CIRCLE)}" fill="none" '
                         'stroke="#444" stroke-width="1.2" marker-end="url(#tip)"/>')
            mx, my = _xy((a + b) / 2.0, 0.42 * _R_CIRCLE)
            parts.append(f'<text x="{_fmt(mx)}" y="{_fmt(my)}" font-size="10" '
                         f'font-family="monospace" text-anchor="middle">{label}</text>')
    if points:
        for label in sorted(points):
            ang = points[label]
            px, py = _xy(ang, _R_CIRCLE)
            lx, ly = _xy(ang, _R_LABEL + 14)
            parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="2.5" '
                         'fill="#222"/>')
            parts.append(f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="9" '
                         f'font-family="monospace" text-anchor="middle">{label}'
                         "</text>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def component_diagram(model, cone: MultiCone | None = None, note: str = "") -> str:
    """Diagram of a fareycomb.ComponentModel: its cores, the labeled U and S
    points, and an arrow for each generator that moves a U point; titled by
    the component's fraction, then the note."""
    points = {f"u({w})": p.angle for w, p in model.u_points.items()}
    points.update({f"s({w})": p.angle for w, p in model.s_points.items()})
    arrows = [(model.u_points[w].angle, model.u_points[target].angle, g)
              for w, row in model.table.items()
              for g, (target, _) in row.items() if w != target]
    frac = model.fraction
    return svg_diagram(cores=model.cores, cone=cone, points=points, arrows=arrows,
                       title=f"component {frac.numerator}/{frac.denominator}{note}")
