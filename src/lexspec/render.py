"""Deterministic 2-D level maps: ASCII on a fixed 60x24 grid, and SVG 1.1.

Both renderers clip to the bounding box of the finite breakpoints padded by
one unit, fill each level set distinctly, draw block boundaries, and mark
characteristic points (with coordinates, in the SVG).  Identical input yields
byte-identical output.
"""

from __future__ import annotations

from fractions import Fraction
from xml.sax.saxutils import escape

from .boxgeom import format_rational, is_finite
from .charpoints import all_blocks, format_ext_point
from .spectral import StepResolution, eval_F


class RenderError(ValueError):
    pass


ASCII_WIDTH = 60
ASCII_HEIGHT = 24


def _bbox(F: StepResolution) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    xs, ys = F.breakpoints
    return xs[0] - 1, xs[-1] + 1, ys[0] - 1, ys[-1] + 1


def _level_glyph(level: int) -> str:
    if level == 0:
        return "."
    if level < 10:
        return str(level)
    return chr(ord("a") + level - 10)


def render_ascii(F: StepResolution) -> str:
    """Level map on a fixed 60x24 character grid; characteristic points are '*'."""
    if F.n != 2:
        raise RenderError("rendering needs a two-dimensional resolution")
    report = all_blocks(F)
    xmin, xmax, ymin, ymax = _bbox(F)
    dx = (xmax - xmin) / ASCII_WIDTH
    dy = (ymax - ymin) / ASCII_HEIGHT
    rows: list[list[str]] = []
    for r in range(ASCII_HEIGHT):
        y = ymax - dy * r - dy / 2
        row = []
        for c in range(ASCII_WIDTH):
            x = xmin + dx * c + dx / 2
            row.append(_level_glyph(eval_F(F, (x, y)).h))
        rows.append(row)
    for p in report.char_points():
        if not all(is_finite(coord) for coord in p):
            continue
        px, py = p
        if not (xmin <= px <= xmax and ymin <= py <= ymax):
            continue
        c = min(ASCII_WIDTH - 1, max(0, int((px - xmin) / dx)))
        r = min(ASCII_HEIGHT - 1, max(0, int((ymax - py) / dy)))
        rows[r][c] = "*"
    lines = ["+" + "-" * ASCII_WIDTH + "+"]
    lines += ["|" + "".join(row) + "|" for row in rows]
    lines.append("+" + "-" * ASCII_WIDTH + "+")
    lines.append(
        f"x: [{format_rational(xmin)}, {format_rational(xmax)}]   "
        f"y: [{format_rational(ymin)}, {format_rational(ymax)}]   * char point"
    )
    counts = report.level_counts()
    present = sorted({t[0] for t in F.table.values()})
    legend = []
    for lv in present:
        entry = f"T_{lv}='{_level_glyph(lv)}'"
        if counts.get(lv):
            entry += f" ({counts[lv]} block{'s' if counts[lv] != 1 else ''})"
        legend.append(entry)
    lines.append("levels: " + "  ".join(legend))
    return "\n".join(lines) + "\n"


def _shade(level: int, k: int) -> str:
    """Hex fill for a level: light grey at 0, light-to-dark blue above."""
    if level == 0:
        return "#f5f5f5"
    lo = (0xDE, 0xEB, 0xF7)
    hi = (0x08, 0x30, 0x6B)
    t_num, t_den = (level - 1, k - 1) if k > 1 else (1, 2)
    rgb = tuple(a + (b - a) * t_num // max(1, t_den) for a, b in zip(lo, hi))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


_SVG_W, _SVG_H, _MARGIN, _LEGEND_H = 480, 360, 42, 26


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_svg(F: StepResolution) -> str:
    """SVG 1.1 level map with block outlines and labelled characteristic points."""
    if F.n != 2:
        raise RenderError("rendering needs a two-dimensional resolution")
    report = all_blocks(F)
    xmin, xmax, ymin, ymax = _bbox(F)
    k = F.signature.k
    plot_h = _SVG_H - _LEGEND_H
    sx = (_SVG_W - 2 * _MARGIN) / float(xmax - xmin)
    sy = (plot_h - 2 * _MARGIN) / float(ymax - ymin)
    fxmin, fymin = float(xmin), float(ymin)

    def px(x: Fraction) -> float:
        return _MARGIN + (float(x) - fxmin) * sx

    def py(y: Fraction) -> float:
        return plot_h - _MARGIN - (float(y) - fymin) * sy

    def clip(v, lo, hi):
        return min(max(v, lo), hi)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_W}" height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="{_fmt(px(xmin))}" y="{_fmt(py(ymax))}" '
        f'width="{_fmt(px(xmax) - px(xmin))}" height="{_fmt(py(ymin) - py(ymax))}" '
        f'fill="{_shade(0, k)}" stroke="#444444" stroke-width="1"/>',
    ]
    # blocks, one rectangle per region box, clipped to the padded bounding box
    for block in report.all_blocks():
        for box in block.region.boxes:
            (ix, iy) = box.dims
            x0 = clip(ix.lo if is_finite(ix.lo) else xmin, xmin, xmax)
            x1 = clip(ix.hi if is_finite(ix.hi) else xmax, xmin, xmax)
            y0 = clip(iy.lo if is_finite(iy.lo) else ymin, ymin, ymax)
            y1 = clip(iy.hi if is_finite(iy.hi) else ymax, ymin, ymax)
            if x0 == x1 or y0 == y1:
                continue
            out.append(
                f'<rect x="{_fmt(px(x0))}" y="{_fmt(py(y1))}" '
                f'width="{_fmt(px(x1) - px(x0))}" height="{_fmt(py(y0) - py(y1))}" '
                f'fill="{_shade(block.level, k)}" stroke="#333333" stroke-width="1"/>'
            )
    for p in report.char_points():
        if not all(is_finite(coord) for coord in p):
            continue
        cx, cy = clip(p[0], xmin, xmax), clip(p[1], ymin, ymax)
        out.append(
            f'<circle cx="{_fmt(px(cx))}" cy="{_fmt(py(cy))}" r="3.5" '
            f'fill="#b2182b" stroke="#ffffff" stroke-width="1"/>'
        )
        label = escape(format_ext_point(p))
        out.append(
            f'<text x="{_fmt(px(cx) + 6)}" y="{_fmt(py(cy) - 6)}" '
            f'font-family="monospace" font-size="11" fill="#111111">{label}</text>'
        )
    # legend: nonempty levels only
    present = sorted({t[0] for t in F.table.values()})
    lx = float(_MARGIN)
    ly = float(plot_h - _MARGIN + 30)
    for lv in present:
        out.append(
            f'<rect x="{_fmt(lx)}" y="{_fmt(ly)}" width="14" height="14" '
            f'fill="{_shade(lv, k)}" stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(lx + 18)}" y="{_fmt(ly + 11)}" '
            f'font-family="monospace" font-size="12" fill="#111111">T_{lv}</text>'
        )
        lx += 70.0
    out.append("</svg>")
    return "\n".join(out) + "\n"
