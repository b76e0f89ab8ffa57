"""Deterministic 2-D level maps: ASCII on a fixed 60x24 grid, and SVG 1.1.

Both renderers draw the bounding box of the input's breakpoints padded by one
unit, fill each level set distinctly, draw block boundaries, and mark
characteristic points (with coordinates, in the SVG).  They read the grid
the blocks index directly: an ASCII column or row is a cell index, an SVG
coordinate is read by cell index from a per-axis list, and a block's SVG
rectangles are its merged cell runs, with no region built.  Nothing is
clipped, because nothing can leave the box: every region end is a breakpoint
or an infinity (drawn at the padded edge), and every finite characteristic
point is a vector of breakpoints.  That grid keeps every level set, and the
box is the input's own, so identical input yields byte-identical output.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction

from .boxgeom import _merged_runs, format_rational
from .charpoints import Block, _blocks, _point, format_ext_point
from .spectral import StepResolution


class RenderError(ValueError):
    pass


ASCII_WIDTH = 60
ASCII_HEIGHT = 24
_GLYPHS = ".123456789abcdefghijklmnopqrstuvwxyz"


def _frame(
    F: StepResolution,
) -> tuple[StepResolution, list[Block], list[tuple[int, ...]], tuple[Fraction, ...]]:
    """The grid that the blocks of ``F`` index, those blocks, the run starts of
    the finite characteristic points in order, and ``F``'s own padded box."""
    if F.n != 2:
        raise RenderError("rendering needs a two-dimensional resolution")
    xs, ys = F.breakpoints
    bbox = (xs[0] - 1, xs[-1] + 1, ys[0] - 1, ys[-1] + 1)
    F, found = _blocks(F)
    starts = sorted({b.starts for b in found if 0 not in b.starts})
    return F, found, starts, bbox


def render_ascii(F: StepResolution) -> str:
    """Level map on a fixed 60x24 character grid; characteristic points are '*'."""
    F, found, starts, (xmin, xmax, ymin, ymax) = _frame(F)
    present = sorted({t[0] for t in F.table.values()})
    if present[-1] >= len(_GLYPHS):
        raise RenderError(f"level {present[-1]} has no ASCII glyph; use --format svg")
    xs, ys = F.breakpoints
    dx = (xmax - xmin) / ASCII_WIDTH
    dy = (ymax - ymin) / ASCII_HEIGHT
    cols = [bisect_left(xs, xmin + dx * c + dx / 2) for c in range(ASCII_WIDTH)]
    rows = [bisect_left(ys, ymax - dy * r - dy / 2) for r in range(ASCII_HEIGHT)]
    grid = [[_GLYPHS[F.table[(c, r)][0]] for c in cols] for r in rows]
    for px, py in (_point(F.breakpoints, r) for r in starts):
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


def _escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` as XML entities, the replacements
    of ``xml.sax.saxutils.escape``, whose import pulls ``urllib`` and ``ssl``
    into every process that imports this module."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _rect(x: str, y: str, w, h, fill: str, stroke: str = "#333333") -> str:
    return (f'<rect x="{x}" y="{y}" width="{w}" height="{h}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="1"/>')


def render_svg(F: StepResolution) -> str:
    """SVG 1.1 level map with block outlines and labelled characteristic points."""
    F, found, starts, (xmin, xmax, ymin, ymax) = _frame(F)
    xs, ys = F.breakpoints
    k = F.signature.k
    present = sorted({t[0] for t in F.table.values()})
    shade = {lv: _shade(lv, k) for lv in present}
    plot_h = _SVG_H - _LEGEND_H
    # Screen coordinate of each padded end and breakpoint, in order: cells
    # r0 .. r1 span X[r0] .. X[r1 + 1], and a point's run start r is at X[r].
    try:
        sx = (_SVG_W - 2 * _MARGIN) / float(xmax - xmin)
        sy = (plot_h - 2 * _MARGIN) / float(ymax - ymin)
        fxmin, fymin = float(xmin), float(ymin)
        X = [_MARGIN + (float(x) - fxmin) * sx for x in (xmin, *xs, xmax)]
        Y = [plot_h - _MARGIN - (float(y) - fymin) * sy for y in (ymin, *ys, ymax)]
    except OverflowError:
        raise RenderError("coordinates beyond float range; use --format ascii") from None
    x_text, y_text = [_fmt(v) for v in X], [_fmt(v) for v in Y]

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_W}" height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        _rect(x_text[0], y_text[-1], _fmt(X[-1] - X[0]), _fmt(Y[0] - Y[-1]), _shade(0, k),
              "#444444"),
    ]
    # blocks, one rectangle per merged run of cells (the region's boxes)
    for block in found:
        fill = shade[block.level]
        for x0, x1, y0, y1 in _merged_runs(2, block.cells):
            out.append(_rect(x_text[x0], y_text[y1 + 1], _fmt(X[x1 + 1] - X[x0]),
                             _fmt(Y[y0] - Y[y1 + 1]), fill))
    for rx, ry in starts:
        cx, cy = X[rx], Y[ry]
        out.append(
            f'<circle cx="{x_text[rx]}" cy="{y_text[ry]}" r="3.5" '
            f'fill="#b2182b" stroke="#ffffff" stroke-width="1"/>'
        )
        label = _escape(format_ext_point(_point(F.breakpoints, (rx, ry))))
        out.append(
            f'<text x="{_fmt(cx + 6)}" y="{_fmt(cy - 6)}" '
            f'font-family="monospace" font-size="11" fill="#111111">{label}</text>'
        )
    # legend: nonempty levels only
    lx, ly = float(_MARGIN), float(plot_h - _MARGIN + 30)
    for lv in present:
        out.append(_rect(_fmt(lx), _fmt(ly), 14, 14, shade[lv]))
        out.append(
            f'<text x="{_fmt(lx + 18)}" y="{_fmt(ly + 11)}" '
            f'font-family="monospace" font-size="12" fill="#111111">T_{lv}</text>'
        )
        lx += 70.0
    out.append("</svg>")
    return "\n".join(out) + "\n"
