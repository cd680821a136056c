"""Slow reference for `knaster.svg.render_svg`: the Fraction arithmetic and
`round()` per coordinate that preceded the integer path, kept to check
that the integer path writes the same bytes."""

from __future__ import annotations

from fractions import Fraction
from xml.sax.saxutils import escape

from knaster.svg import PlotSpec

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_MARGIN = 12
_GAP = 16
_LABEL_H = 18


def _dec(value: Fraction, places: int = 2) -> str:
    """Fixed-point decimal string, exact rounding (ties to even)."""
    scale = 10 ** places
    n = round(Fraction(value) * scale)
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // scale}.{n % scale:0{places}d}"


def render_svg(spec: PlotSpec) -> str:
    """The SVG document as a string."""
    count = len(spec.maps)
    panel_w = Fraction(spec.width - 2 * _MARGIN - _GAP * (count - 1), count)
    panel_h = Fraction(spec.height - 2 * _MARGIN - _LABEL_H)
    if panel_w <= 0 or panel_h <= 0:
        raise ValueError("plot dimensions too small for the panel layout")

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width}" height="{spec.height}" '
        f'viewBox="0 0 {spec.width} {spec.height}">',
        f'<rect x="0" y="0" width="{spec.width}" height="{spec.height}" fill="white"/>',
    ]
    for idx, (f, label) in enumerate(spec.maps):
        x0 = _MARGIN + idx * (panel_w + _GAP)
        y0 = Fraction(_MARGIN)

        def px(x: Fraction) -> str:
            return _dec(x0 + panel_w * x)

        def py(y: Fraction) -> str:
            return _dec(y0 + panel_h * (1 - y))

        lines.append(
            f'<rect x="{_dec(x0)}" y="{_dec(y0)}" width="{_dec(panel_w)}" '
            f'height="{_dec(panel_h)}" fill="none" stroke="#444444" stroke-width="1"/>')
        if spec.grid is not None:
            for k in range(1, spec.grid):
                gx = px(Fraction(k, spec.grid))
                lines.append(
                    f'<line x1="{gx}" y1="{py(Fraction(1))}" x2="{gx}" '
                    f'y2="{py(Fraction(0))}" stroke="#cccccc" stroke-width="0.5"/>')
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{px(x)},{py(y)}" for x, y in f.points)
        lines.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        label_x = _dec(x0 + panel_w / 2)
        label_y = _dec(y0 + panel_h + Fraction(_LABEL_H) - 4)
        lines.append(
            f'<text x="{label_x}" y="{label_y}" font-family="monospace" font-size="12" '
            f'text-anchor="middle">{escape(label)}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
