"""Deterministic SVG rendering of piecewise-linear maps.

Each map gets its own unit-square panel (laid out left to right), one
polyline per map with exactly one point per breakpoint. Each coordinate is
computed from the map's integer triples (X, Y, W) as one exact integer
ratio, with no Fraction built, and quantized to two decimals by integer
rounding (ties to even); identical inputs therefore produce byte-identical
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from xml.sax.saxutils import escape

from .plmap import PLMap

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_MARGIN = 12
_GAP = 16
_LABEL_H = 18


@dataclass(frozen=True)
class PlotSpec:
    """Maps with labels, pixel dimensions, and an optional fold grid at k/grid."""

    maps: tuple[tuple[PLMap, str], ...]
    width: int = 760
    height: int = 280
    grid: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple((f, str(label)) for f, label in self.maps))
        if not self.maps:
            raise ValueError("need at least one map to plot")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("plot dimensions must be positive")
        if self.grid is not None and self.grid < 1:
            raise ValueError("grid fold count must be positive")


def _dec(num: int, den: int) -> str:
    """num/den (den > 0) as a fixed-point string with two decimals, rounding
    ties to even, in integer arithmetic."""
    n, r = divmod(100 * num, den)
    if 2 * r > den or (2 * r == den and n % 2):
        n += 1
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // 100}.{n % 100:02d}"


def render_svg(spec: PlotSpec) -> str:
    """The SVG document as a string."""
    count = len(spec.maps)
    # Panel widths and left edges are kept times count, so they stay integers.
    wc = spec.width - 2 * _MARGIN - _GAP * (count - 1)
    panel_h = spec.height - 2 * _MARGIN - _LABEL_H
    if wc <= 0 or panel_h <= 0:
        raise ValueError("plot dimensions too small for the panel layout")

    bottom = _MARGIN + panel_h  # the pixel row of y = 0

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width}" height="{spec.height}" '
        f'viewBox="0 0 {spec.width} {spec.height}">',
        f'<rect x="0" y="0" width="{spec.width}" height="{spec.height}" fill="white"/>',
    ]
    for idx, (f, label) in enumerate(spec.maps):
        left = _MARGIN * count + idx * (wc + _GAP * count)

        lines.append(
            f'<rect x="{_dec(left, count)}" y="{_dec(_MARGIN, 1)}" width="{_dec(wc, count)}" '
            f'height="{_dec(panel_h, 1)}" fill="none" stroke="#444444" stroke-width="1"/>')
        if spec.grid is not None:
            for k in range(1, spec.grid):
                gx = _dec(left * spec.grid + wc * k, count * spec.grid)
                lines.append(
                    f'<line x1="{gx}" y1="{_dec(_MARGIN, 1)}" x2="{gx}" '
                    f'y2="{_dec(bottom, 1)}" stroke="#cccccc" stroke-width="0.5"/>')
        color = _PALETTE[idx % len(_PALETTE)]
        # the breakpoint (x/w, y/w) is drawn at (left + wc*x/w)/count, bottom - panel_h*y/w
        points = " ".join(
            f"{_dec(left * w + wc * x, count * w)},{_dec(bottom * w - panel_h * y, w)}"
            for x, y, w in f.triples)
        lines.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        label_x = _dec(2 * left + wc, 2 * count)
        label_y = _dec(bottom + _LABEL_H - 4, 1)
        lines.append(
            f'<text x="{label_x}" y="{label_y}" font-family="monospace" font-size="12" '
            f'text-anchor="middle">{escape(label)}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
