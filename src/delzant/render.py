"""Deterministic SVG rendering of polygons, outward normals, and candidate
overlays.  Byte-identical output for identical input."""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import UnsupportedError
from .geometry import Polygon

_CANVAS = 480.0
_MARGIN = 40.0
_OVERLAY_COLORS = ("#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def render_svg(polygon, candidates=None) -> bytes:
    """Render the polygon with vertex labels and outward-normal arrows;
    candidate polygons, when given, are overlaid translucently."""
    if not isinstance(polygon, Polygon):
        raise UnsupportedError("only 2D polygons can be rendered")
    overlays = list(candidates) if candidates is not None else []
    shapes = [polygon] + overlays
    try:
        xs = [float(v.x) for shape in shapes for v in shape.vertices]
        ys = [float(v.y) for shape in shapes for v in shape.vertices]
    except OverflowError as exc:
        raise UnsupportedError("a vertex coordinate is past the float range") from exc
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span = max(max_x - min_x, max_y - min_y, 1e-9)
    if math.isinf(span):
        raise UnsupportedError("the coordinate span is past the float range")
    scale = (_CANVAS - 2 * _MARGIN) / span

    def to_screen(v) -> tuple[float, float]:
        return (
            _MARGIN + (float(v.x) - min_x) * scale,
            _CANVAS - _MARGIN - (float(v.y) - min_y) * scale,
        )

    def path_for(shape: Polygon, style: str) -> str:
        points = " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in map(to_screen, shape.vertices))
        return f'<path d="M {points} Z" {style}/>'

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_CANVAS)}" height="{int(_CANVAS)}" '
        f'viewBox="0 0 {int(_CANVAS)} {int(_CANVAS)}">',
        path_for(polygon, 'fill="#dbe9f6" stroke="#1f4e79" stroke-width="2"'),
    ]
    arrow = max(12.0, 0.08 * (_CANVAS - 2 * _MARGIN))
    for i, edge in enumerate(polygon.edges):
        mid = (polygon.vertices[i] + polygon.vertices[(i + 1) % polygon.edge_count]) * Fraction(1, 2)
        mx, my = to_screen(mid)
        try:
            norm = edge.normal.norm_float()
        except OverflowError as exc:
            raise UnsupportedError(f"the normal of edge {i} is past the float range") from exc
        dx = float(edge.normal.x) / norm * arrow
        dy = -float(edge.normal.y) / norm * arrow
        tip_x, tip_y = mx + dx, my + dy
        lines.append(
            f'<line x1="{_fmt(mx)}" y1="{_fmt(my)}" x2="{_fmt(tip_x)}" y2="{_fmt(tip_y)}" '
            'stroke="#1f4e79" stroke-width="1.5"/>'
        )
        # Arrowhead as a small triangle (a polygon element, not a path).
        hx, hy = dx / arrow * 5.0, dy / arrow * 5.0
        lines.append(
            f'<polygon points="{_fmt(tip_x + hx)},{_fmt(tip_y + hy)} '
            f'{_fmt(tip_x - hy * 0.8)},{_fmt(tip_y + hx * 0.8)} '
            f'{_fmt(tip_x + hy * 0.8)},{_fmt(tip_y - hx * 0.8)}" fill="#1f4e79"/>'
        )
        lines.append(
            f'<text x="{_fmt(tip_x + hx * 2)}" y="{_fmt(tip_y + hy * 2)}" font-size="11" '
            f'text-anchor="middle" fill="#1f4e79">({edge.normal.x}, {edge.normal.y})</text>'
        )
    for v in polygon.vertices:
        x, y = to_screen(v)
        lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="#1f4e79"/>')
        lines.append(
            f'<text x="{_fmt(x + 6)}" y="{_fmt(y - 6)}" font-size="11" fill="#333333">'
            f"({v.x}, {v.y})</text>"
        )
    for k, shape in enumerate(overlays):
        color = _OVERLAY_COLORS[k % len(_OVERLAY_COLORS)]
        lines.append(
            path_for(
                shape,
                f'fill="{color}" fill-opacity="0.25" stroke="{color}" '
                'stroke-width="1.5" stroke-dasharray="6 3"',
            )
        )
    lines.append("</svg>")
    return "\n".join(lines).encode("utf-8")
