"""Deterministic 2-D level maps: ASCII on a fixed 60x24 grid, and SVG 1.1.

Both renderers draw the bounding box of the finite breakpoints padded by one
unit, fill each level set distinctly, draw block boundaries, and mark
characteristic points (with coordinates, in the SVG).  They read the cell
grid directly: an ASCII column or row is a cell index, and an SVG coordinate
is looked up by value.  Nothing is clipped, because nothing can leave the
box: every region end is a breakpoint or an infinity (drawn at the padded
edge), and every finite characteristic point is a vector of breakpoints.
Identical input yields byte-identical output.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from xml.sax.saxutils import escape

from .boxgeom import NEG_INF, POS_INF, format_rational
from .charpoints import Block, ExtPoint, _blocks, _point, format_ext_point
from .spectral import StepResolution


class RenderError(ValueError):
    pass


ASCII_WIDTH = 60
ASCII_HEIGHT = 24
_GLYPHS = ".123456789abcdefghijklmnopqrstuvwxyz"


def _frame(F: StepResolution) -> tuple[list[Block], list[ExtPoint], tuple[Fraction, ...]]:
    """Blocks, finite characteristic points in sorted order, and the padded box."""
    if F.n != 2:
        raise RenderError("rendering needs a two-dimensional resolution")
    found = _blocks(F)
    starts = sorted({b.starts for b in found if 0 not in b.starts})
    xs, ys = F.breakpoints
    bbox = (xs[0] - 1, xs[-1] + 1, ys[0] - 1, ys[-1] + 1)
    return found, [_point(F.breakpoints, r) for r in starts], bbox


def render_ascii(F: StepResolution) -> str:
    """Level map on a fixed 60x24 character grid; characteristic points are '*'."""
    found, points, (xmin, xmax, ymin, ymax) = _frame(F)
    present = sorted({t[0] for t in F.table.values()})
    if present[-1] >= len(_GLYPHS):
        raise RenderError(f"level {present[-1]} has no ASCII glyph; use --format svg")
    xs, ys = F.breakpoints
    dx = (xmax - xmin) / ASCII_WIDTH
    dy = (ymax - ymin) / ASCII_HEIGHT
    cols = [bisect_left(xs, xmin + dx * c + dx / 2) for c in range(ASCII_WIDTH)]
    rows = [bisect_left(ys, ymax - dy * r - dy / 2) for r in range(ASCII_HEIGHT)]
    grid = [[_GLYPHS[F.table[(c, r)][0]] for c in cols] for r in rows]
    for px, py in points:
        grid[int((ymax - py) / dy)][int((px - xmin) / dx)] = "*"
    lines = ["+" + "-" * ASCII_WIDTH + "+"]
    lines += ["|" + "".join(row) + "|" for row in grid]
    lines.append("+" + "-" * ASCII_WIDTH + "+")
    lines.append(
        f"x: [{format_rational(xmin)}, {format_rational(xmax)}]   "
        f"y: [{format_rational(ymin)}, {format_rational(ymax)}]   * char point"
    )
    counts = Counter(b.level for b in found)
    legend = []
    for lv in present:
        entry = f"T_{lv}='{_GLYPHS[lv]}'"
        if counts[lv]:
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
    found, points, (xmin, xmax, ymin, ymax) = _frame(F)
    xs, ys = F.breakpoints
    k = F.signature.k
    plot_h = _SVG_H - _LEGEND_H
    # Screen coordinate of every breakpoint and padded end; -inf and +inf
    # are drawn at the padded ends.
    try:
        sx = (_SVG_W - 2 * _MARGIN) / float(xmax - xmin)
        sy = (plot_h - 2 * _MARGIN) / float(ymax - ymin)
        fxmin, fymin = float(xmin), float(ymin)
        X = {x: _MARGIN + (float(x) - fxmin) * sx for x in (xmin, *xs, xmax)}
        Y = {y: plot_h - _MARGIN - (float(y) - fymin) * sy for y in (ymin, *ys, ymax)}
    except OverflowError:
        raise RenderError("coordinates beyond float range; use --format ascii") from None
    X[NEG_INF], X[POS_INF] = X[xmin], X[xmax]
    Y[NEG_INF], Y[POS_INF] = Y[ymin], Y[ymax]

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_W}" height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="{_fmt(X[xmin])}" y="{_fmt(Y[ymax])}" '
        f'width="{_fmt(X[xmax] - X[xmin])}" height="{_fmt(Y[ymin] - Y[ymax])}" '
        f'fill="{_shade(0, k)}" stroke="#444444" stroke-width="1"/>',
    ]
    # blocks, one rectangle per region box
    for block in found:
        for box in block.region.boxes:
            (ix, iy) = box.dims
            x0, x1, y0, y1 = X[ix.lo], X[ix.hi], Y[iy.lo], Y[iy.hi]
            out.append(
                f'<rect x="{_fmt(x0)}" y="{_fmt(y1)}" '
                f'width="{_fmt(x1 - x0)}" height="{_fmt(y0 - y1)}" '
                f'fill="{_shade(block.level, k)}" stroke="#333333" stroke-width="1"/>'
            )
    for p in points:
        cx, cy = X[p[0]], Y[p[1]]
        out.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3.5" '
            f'fill="#b2182b" stroke="#ffffff" stroke-width="1"/>'
        )
        label = escape(format_ext_point(p))
        out.append(
            f'<text x="{_fmt(cx + 6)}" y="{_fmt(cy - 6)}" '
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
