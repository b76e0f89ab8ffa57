"""Shared test oracles, independent of the routines they check.

Imported by tests/test_acceptance.py and tests/test_charpoints.py so that the
gallery's characteristic-point table and its brute-force oracle exist once,
by tests/test_spectral.py for the corner-sum references of the grid kernel
and the neighbour loop of the monotone status,
by tests/test_spectral.py and tests/test_boxgeom.py for the cell box read off
the breakpoints,
by tests/test_boxgeom.py for canonical boxes on the value-piece grid,
by tests/test_render.py for the sampled ASCII level map,
by tests/test_verify.py for the chained-union random suite region and the
``Fraction``-drawing random observable,
by tests/test_charpoints.py and tests/test_verify.py for the walking
projections, the antichain length and the tuple-keyed block pass,
by tests/test_charpoints.py for the planar ray scan and the most closed
joins per level of k unit atoms,
by tests/test_charpoints.py and tests/test_cli.py for the closed-join
characteristic points of an observable and its orthant blocks,
by tests/test_charpoints.py and tests/test_cli.py for a resolution whose
adjoined blocks share a characteristic point,
by tests/test_verify.py for the staircase family's closed-form table,
by tests/test_spectral.py and tests/test_charpoints.py for the random
resolutions, the masses by corner sums and the cell-by-cell reconstruction
witness,
by tests/test_spectral.py for the line-by-line grid sweep,
by tests/test_render.py for the SVG drawn from region boxes,
by tests/test_observable.py and tests/test_cli.py for the nesting depth of a
JSON value,
and by tests/test_lexalg.py and tests/test_boxgeom.py for small helpers that
only tests use.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction as Q
from itertools import accumulate, combinations, combinations_with_replacement, product
from operator import sub
from xml.sax.saxutils import escape

from hypothesis import strategies as st

from lexspec.boxgeom import (
    NEG_INF,
    POS_INF,
    Box,
    GeometryError,
    Interval,
    Region,
    _merged_runs,
    halfopen_box,
    is_finite,
    union,
)
from lexspec.charpoints import (
    Block,
    CharPointError,
    MismatchReport,
    RaysResult,
    _blocks,
    _point,
    all_blocks,
    format_ext_point,
)
from lexspec.lexalg import (
    AlgebraSignature,
    LexElement,
    group_add,
    group_sub,
    in_unit_interval,
    mv_neg,
    mv_oplus,
)
from lexspec.observable import make_observable
from lexspec.render import _LEGEND_H, _MARGIN, _SVG_H, _SVG_W, _fmt, _shade
from lexspec.spectral import (
    StepResolution,
    eval_F,
    from_cells,
    from_observable,
    partial_delta,
    volume,
)
from lexspec.verify import _G_SPAN, trial_rng


def height_class(a: LexElement) -> int:
    """Stratum index of ``a``: the height coordinate."""
    return a.h


def mv_odot(a: LexElement, b: LexElement) -> LexElement:
    """MV product: (a' oplus b')'."""
    return mv_neg(mv_oplus(mv_neg(a), mv_neg(b)))


def region_equal(r1: Region, r2: Region) -> bool:
    if r1.n != r2.n:
        raise GeometryError(f"dimension mismatch: {r1.n} vs {r2.n}")
    return r1 == r2


# Characteristic points per gallery case.  Every nonempty level set T_i,
# i >= 1, contributes its points, the top level T_k included; that is why
# 3.7/4 lists (4,3) = (3,3) v (4,2) and 3.7/6 lists (2,2) = (1,2) v (2,1),
# the forced joins of lower points.  ``oracle_char_points`` reproduces every
# entry.
GALLERY_CHAR_POINTS = {
    "3.7/1": {(2, 2), (3, 3)},
    "3.7/2": {(2, 2), (3, 2)},
    "3.7/3": {(2, 2), (2, 3)},
    "3.7/4": {(3, 3), (4, 2), (4, 3)},
    "3.7/5": {(2, 2)},
    "3.7/6": {(1, 2), (2, 1), (2, 2), (3, 3)},
    "3.7/7": {(1, 3), (2, 2), (3, 1), (2, 3), (3, 2), (3, 3)},
    "3.7/8": {(1, 2), (2, 1), (2, 2)},
}


def oracle_char_points(x) -> set[tuple[Q, Q]]:
    """Characteristic points of a 2D finite-support observable by probing.

    Scans a half-unit probe lattice.  The level of a probe point counts atom
    heights strictly dominated; the projection walks the probe lattice down
    one axis while the level is unchanged.  All gallery data live on integer
    coordinates inside the probe range, so half-unit probing is exact for
    them.
    """
    lo, hi, step = Q(-2), Q(9), Q(1, 2)
    probes = []
    v = lo
    while v <= hi:
        probes.append(v)
        v += step

    def level(s, t):
        return sum(
            a.weight.h for a in x.atoms if a.point[0] < s and a.point[1] < t
        )

    found = set()
    for s in probes:
        for t in probes:
            i = level(s, t)
            if i == 0:
                continue
            a = s
            while a - step >= lo and level(a - step, t) == i:
                a -= step
            b = t
            while b - step >= lo and level(s, b - step) == i:
                b -= step
            found.add((a - step, b - step))
    return found


def closed_join_char_points(x) -> set[tuple[Q, ...]]:
    """Characteristic points of an observable, read off its positive-height
    atoms alone: the points, each coordinate some such atom's, that equal the
    join (componentwise maximum) of the positive-height atoms they dominate.

    Just above such a point the level counts exactly those atoms, and every
    run of that level ends at it; no other point ends every run of a level.
    """
    tall = [a.point for a in x.atoms if a.weight.h > 0]
    found = set()
    for p in product(*[sorted({a[j] for a in tall}) for j in range(x.n)]):
        below = [a for a in tall if all(c <= q for c, q in zip(a, p))]
        if below and tuple(map(max, zip(*below))) == p:
            found.add(p)
    return found


def orthant_blocks(x) -> dict[tuple[Q, ...], tuple[int, LexElement]]:
    """Every block of an observable's resolution as ``{characteristic point:
    (level, infimum)}``, read off its atoms with no grid.

    The characteristic points are the closed joins of the positive-height
    atoms: those atoms closed under componentwise joins (their lcm lattice).
    At a closed join c the level is the sum of the heights of the atoms at or
    below c, and the infimum the sum of the weights of all atoms at or below
    c, height-0 atoms included.
    """
    tall = {a.point for a in x.atoms if a.weight.h > 0}
    joins, new = set(tall), set(tall)
    while new:
        new = {tuple(map(max, p, a)) for p in new for a in tall} - joins
        joins |= new
    found = {}
    for c in joins:
        below = [a.weight for a in x.atoms if all(p <= q for p, q in zip(a.point, c))]
        infimum = x.signature.zero
        for w in below:
            infimum = group_add(infimum, w)
        found[c] = (sum(w.h for w in below), infimum)
    return found


def shared_point_resolution():
    """k = 3, d = 1, breakpoints (1, 2) and (1, 2, 3), every g = 0: the
    levels by cell row are 0 0 0 0, 0 1 1 2 and 0 2 2 2.  Its adjoined
    level-1 and level-2 blocks both start at (1, 1), and their infima sum to
    the unit."""
    sig = AlgebraSignature(3, 1)
    rows = [(0, 0, 0, 0), (0, 1, 1, 2), (0, 2, 2, 2)]
    values = {(r, c): LexElement(sig, h, (0,)) for r, row in enumerate(rows)
              for c, h in enumerate(row)}
    return from_cells(sig, 2, [(Q(1), Q(2)), (Q(1), Q(2), Q(3))], values)


def max_closed_joins_per_level(n: int, k: int) -> list[int]:
    """The most characteristic points at each level 1..k over every multiset
    of k unit atoms on {0..k-1}^n, counted as closed joins: the distinct joins
    J of nonempty atom sets S with exactly |S| atoms at or below J.

    Every observable's positive-height atoms are such a multiset (an atom of
    height h is h coinciding unit atoms), and only the coordinate order on
    each axis matters, which k values per axis realize.
    """
    best = [0] * k
    for atoms in combinations_with_replacement(list(product(range(k), repeat=n)), k):
        joins: list[set] = [set() for _ in range(k)]
        for size in range(1, k + 1):
            for subset in combinations(atoms, size):
                join = tuple(map(max, zip(*subset)))
                if sum(all(c <= q for c, q in zip(a, join)) for a in atoms) == size:
                    joins[size - 1].add(join)
        best = [max(b, len(js)) for b, js in zip(best, joins)]
    return best


def reference_pathological_family(m: int, k: int, style: str) -> dict:
    """The flat value table of ``pathological_family(m, k, style)`` in closed
    form: the capped count of staircase corners at or below each cell for
    ``antichain`` (a difference of prefix counts of corner heights), the
    capped min(r, c) ring for ``chain``, saturated at k on the top cell."""
    table = {}
    prefix = [0, *accumulate([1] * (m - 1) + [max(1, k - m + 1)])]
    for r, c in product(range(m + 1), repeat=2):
        if style == "antichain":
            jlo, jhi = max(1, m + 1 - c), min(r, m)
            count = prefix[jhi] - prefix[jlo - 1] if jlo <= jhi else 0
        else:
            count = k if min(r, c) >= m else min(r, c)
        table[(r, c)] = (min(k, count), 0)
    return table


# Reference canonical boxes on the value-piece grid: the sorted finite ends
# v_0 < ... < v_{m-1} of an axis split it into 2m + 1 pieces, piece 2r + 1 the
# point v_r and piece 2r the open gap below it.  Every cut grid that resolves
# a set gives the same merged boxes, so ``boxgeom`` must match these.


def _value_piece_interval(vals, lo: int, hi: int) -> Interval:
    return Interval(NEG_INF if lo == 0 else vals[(lo - 1) // 2], lo % 2 == 1,
                    POS_INF if hi == 2 * len(vals) else vals[hi // 2], hi % 2 == 1)


def reference_canonical_boxes(n: int, box_lists, keep) -> tuple[Box, ...]:
    """Canonical boxes of the cells ``keep(everything, *cell_sets)`` picks on
    the common value-piece grid of ``box_lists``: ``cell_sets`` holds the
    cells each list covers, ``everything`` every cell of the grid."""
    values = [sorted({end for boxes in box_lists for b in boxes
                      for end in (b.dims[j].lo, b.dims[j].hi) if is_finite(end)})
              for j in range(n)]
    ranks = [{v: r for r, v in enumerate(vals)} for vals in values]
    cell_sets = []
    for boxes in box_lists:
        cells = set()
        for b in boxes:
            ranges = []
            for vals, rank, iv in zip(values, ranks, b.dims):
                lo = 0 if iv.lo is NEG_INF else 2 * rank[iv.lo] + (1 if iv.lo_closed else 2)
                hi = 2 * len(vals) if iv.hi is POS_INF else (
                    2 * rank[iv.hi] + (1 if iv.hi_closed else 0))
                ranges.append(range(lo, hi + 1))
            cells.update(product(*ranges))
        cell_sets.append(cells)
    everything = set(product(*(range(2 * len(vals) + 1) for vals in values)))
    return tuple(
        Box(tuple(_value_piece_interval(vals, *run[2 * j:2 * j + 2])
                  for j, vals in enumerate(values)))
        for run in _merged_runs(n, keep(everything, *cell_sets))
    )


def reference_cell_box(F, idx) -> Box:
    """The cell ``idx`` of ``F``'s grid, one interval per axis: (b_{r-1}, b_r],
    with -inf below the first breakpoint and an open +inf above the last."""
    dims = []
    for breaks, r in zip(F.breakpoints, idx):
        lo = NEG_INF if r == 0 else breaks[r - 1]
        if r == len(breaks):
            dims.append(Interval(lo, False, POS_INF, False))
        else:
            dims.append(Interval(lo, False, breaks[r], True))
    return Box(tuple(dims))


def oracle_difference_statuses(F) -> dict[str, tuple[bool, dict | None]]:
    """(ok, witness) of ``monotone``, ``volume_nonneg`` and ``partial_delta_nonneg``.

    ``monotone`` compares each cell with its lower neighbour along every
    axis, cells in ``F.cells()`` order and axes in order within a cell: the
    first pair out of order is the witness.  The other two walk the cells in
    the order ``check_axioms`` reports them and evaluate each difference with
    the public ``volume`` and ``partial_delta`` at real coordinates: from the
    breakpoint below the cell to ``F.cell_rep`` on the differenced axes,
    ``F.cell_rep`` on the fixed ones.  The first negative value is the witness.
    """

    def bounds(idx, axes):
        return {j: (F.breakpoints[j][idx[j] - 1], F.cell_rep(idx)[j]) for j in axes}

    values = F.values

    def cell_doc(idx):
        return {
            "index": list(idx), "cell": str(reference_cell_box(F, idx)), "value": str(values[idx])
        }

    out = {
        "monotone": (True, None),
        "volume_nonneg": (True, None),
        "partial_delta_nonneg": (True, None),
    }
    for idx in F.cells():
        for j in range(F.n):
            if idx[j] == 0:
                continue
            prev = idx[:j] + (idx[j] - 1,) + idx[j + 1:]
            if not values[prev] <= values[idx]:
                witness = {"axis": j, "lower": cell_doc(prev), "upper": cell_doc(idx)}
                out["monotone"] = (False, witness)
                break
        if not out["monotone"][0]:
            break
    zero = F.signature.zero
    for idx in product(*[range(1, m + 1) for m in F.shape]):
        box = bounds(idx, range(F.n))
        v = volume(F, [box[j] for j in range(F.n)])
        if not zero <= v:
            witness = {"box": [[str(a), str(b)] for a, b in box.values()], "volume": str(v)}
            out["volume_nonneg"] = (False, witness)
            break
    for size in range(1, F.n):
        for axes in combinations(range(F.n), size):
            ranges = [range(1 if j in axes else 0, m + 1) for j, m in enumerate(F.shape)]
            for idx in product(*ranges):
                d = partial_delta(F, bounds(idx, axes), F.cell_rep(idx))
                if not zero <= d:
                    witness = {"axes": list(axes), "index": list(idx), "delta": str(d)}
                    out["partial_delta_nonneg"] = (False, witness)
                    return out
    return out


# Reference corner sums: one table read per corner, at the cell found by a
# plain ``bisect_left`` in ``Fraction`` order, summed with ``group_add`` and
# ``group_sub`` on elements, independent of the order-key lookup and the flat
# table arithmetic.


def _table_value(F, point) -> LexElement:
    """F at ``point``: its table at the cell bisected in ``Fraction`` order."""
    t = F.table[tuple(bisect_left(bs, c) for bs, c in zip(F.breakpoints, point))]
    return LexElement(F.signature, t[0], t[1:])


def reference_volume(F, bounds) -> LexElement:
    """Alternating corner sum of F over the half-open box prod [a_j, b_j)."""
    bounds = [(Q(a), Q(b)) for a, b in bounds]
    total = F.signature.zero
    for eps in product((0, 1), repeat=F.n):
        corner = tuple(bounds[j][e] for j, e in enumerate(eps))
        term = _table_value(F, corner)
        if (F.n - sum(eps)) % 2 == 0:
            total = group_add(total, term)
        else:
            total = group_sub(total, term)
    return total


def reference_partial_delta(F, deltas, point) -> LexElement:
    """Alternating corner sum over the axes of ``deltas``, the rest at ``point``."""
    axes = sorted(deltas)
    norm = {j: (Q(a), Q(b)) for j, (a, b) in deltas.items()}
    base = [Q(c) for c in point]
    total = F.signature.zero
    for eps in product((0, 1), repeat=len(axes)):
        corner = list(base)
        for j, e in zip(axes, eps):
            corner[j] = norm[j][e]
        term = _table_value(F, corner)
        if (len(axes) - sum(eps)) % 2 == 0:
            total = group_add(total, term)
        else:
            total = group_sub(total, term)
    return total


def reference_point_mass(F, point) -> LexElement:
    """Volume of [p_j, p_j + delta_j) with p_j + delta_j inside the cell above p_j."""
    bounds = []
    for j, c in enumerate(Q(c) for c in point):
        breaks = F.breakpoints[j]
        pos = bisect_left(breaks, c)
        if pos < len(breaks) and breaks[pos] == c:
            pos += 1
        delta = (breaks[pos] - c) / 2 if pos < len(breaks) else Q(1)
        bounds.append((c, c + delta))
    return reference_volume(F, bounds)


# Reference ASCII level map: the sampling loop ``render_ascii`` once ran, one
# ``eval_F`` at the centre of every character, with bounds tests and clamps on
# the marked points.


def reference_ascii_rows(F, points, width=60, height=24) -> list[str]:
    """Rows of the 2-D level map of ``F`` on its breakpoint box padded by one
    unit; each finite point of ``points`` is marked '*'."""
    xs, ys = F.breakpoints
    xmin, xmax, ymin, ymax = xs[0] - 1, xs[-1] + 1, ys[0] - 1, ys[-1] + 1
    dx = (xmax - xmin) / width
    dy = (ymax - ymin) / height

    def glyph(level: int) -> str:
        return "." if level == 0 else "0123456789abcdefghijklmnopqrstuvwxyz"[level]

    rows = []
    for r in range(height):
        y = ymax - dy * r - dy / 2
        rows.append([glyph(eval_F(F, (xmin + dx * c + dx / 2, y)).h) for c in range(width)])
    for p in points:
        if not all(is_finite(v) for v in p):
            continue
        px, py = p
        if not (xmin <= px <= xmax and ymin <= py <= ymax):
            continue
        c = min(width - 1, max(0, int((px - xmin) / dx)))
        r = min(height - 1, max(0, int((ymax - py) / dy)))
        rows[r][c] = "*"
    return ["".join(row) for row in rows]


# Reference random suite region: one ``halfopen_box`` per draw, degenerate
# draws included, chained with ``union`` on the region built so far.


def reference_random_grid_region(rng, F) -> Region:
    """Union of one to three grid-aligned half-open boxes, drawn from ``rng``
    in the order ``verify`` draws them."""
    coords = []
    for j in range(F.n):
        bs = F.breakpoints[j]
        coords.append([bs[0] - 1] + list(bs) + [bs[-1] + 1])
    region = Region.empty(F.n)
    for _ in range(rng.randint(1, 3)):
        bounds_lo = []
        bounds_hi = []
        for j in range(F.n):
            a = rng.choice(coords[j])
            b = rng.choice(coords[j])
            if a > b:
                a, b = b, a
            bounds_lo.append(a)
            bounds_hi.append(b)
        region = union(region, halfopen_box(bounds_lo, bounds_hi))
    return region


# Reference random observable: points drawn as ``Fraction`` tuples and
# de-duplicated on them.  ``paths``, when given, counts the attempts that ran
# out of retries for a fresh point and the fallbacks to a single unit atom.


def reference_random_observable(config, index, paths=None):
    """Observable for (config.seed, index), drawn as ``verify`` draws it."""
    rng = trial_rng(config.seed, index)
    k = rng.randint(*config.k_range)
    d = rng.randint(*config.d_range)
    n = rng.randint(*config.n_range)
    sig = AlgebraSignature(k, d)
    lo, hi = config.coord_range

    def draw_point():
        coords = []
        for _ in range(n):
            den = rng.randint(1, config.coord_denominator_bound)
            num = rng.randint(lo * den, hi * den)
            coords.append(Q(num, den))
        return tuple(coords)

    for _ in range(200):
        m = rng.randint(1, config.max_atoms)
        points = []
        seen = set()
        ok = True
        for _ in range(m):
            for _ in range(20):
                p = draw_point()
                if p not in seen:
                    seen.add(p)
                    points.append(p)
                    break
            else:
                ok = False
                break
        if not ok:
            if paths is not None:
                paths["retries_exhausted"] += 1
            continue

        heights = []
        rem = k
        for _ in range(m - 1):
            h = rng.randint(0, rem)
            heights.append(h)
            rem -= h
        heights.append(rem)
        rng.shuffle(heights)

        weights = []
        g_total = [0] * d
        for i, h in enumerate(heights):
            if i + 1 < m:
                g = tuple(rng.randint(-_G_SPAN, _G_SPAN) for _ in range(d))
            else:
                g = tuple(-c for c in g_total)
            for c, gc in zip(range(d), g):
                g_total[c] += gc
            weights.append(LexElement(sig, h, g))
        if any(not in_unit_interval(w) for w in weights):
            continue
        if any(w == sig.zero for w in weights):
            continue
        return make_observable(sig, n, list(zip(points, weights)))

    if paths is not None:
        paths["fallback"] += 1
    return make_observable(sig, n, [(draw_point(), sig.unit)])


# Reference characteristic points and blocks: walks along each axis through
# cells of equal level, and the block pass keyed by cell tuples that
# ``charpoints._blocks`` once ran, one dict lookup per cell and axis.


def _run_start(F, idx, axis) -> int:
    """Lowest axis index reachable from ``idx`` through cells of equal level."""
    i = F.table[idx][0]
    r = idx[axis]
    probe = list(idx)
    while r > 0:
        probe[axis] = r - 1
        if F.table[tuple(probe)][0] != i:
            break
        r -= 1
    return r


def char_point(F, point):
    """Vector of per-axis projections of ``point`` within its level set."""
    idx = F.cell_of_point(point)
    if F.table[idx][0] == 0:
        raise CharPointError(f"point {point} lies in the level-0 set; no projection")
    return _point(F.breakpoints, [_run_start(F, idx, j) for j in range(F.n)])


def projection(F, point, axis):
    """Infimum of the axis run of the level set through ``point``."""
    cp = char_point(F, point)
    if not 0 <= axis < F.n:
        raise CharPointError(f"axis {axis} out of range for dimension {F.n}")
    return cp[axis]


def blocks(F, level) -> tuple:
    return all_blocks(F).levels.get(level, ())


def max_antichain(report) -> int | None:
    """Largest pairwise-incomparable set of characteristic points (n = 2 only)."""
    if report.n != 2:
        return None
    pts = report.points
    if not pts:
        return 0
    best = [1] * len(pts)
    for i, (xi, yi) in enumerate(pts):
        for j in range(i):
            xj, yj = pts[j]
            if xj < xi and yj > yi:
                best[i] = max(best[i], best[j] + 1)
    return max(best)


def reference_rays_2d(F, point) -> RaysResult:
    """The planar ray check as two mirrored passes: vertical rays at every
    height from the point's second run start, then horizontal rays at every
    abscissa from its first; the witness names the direction and the line."""

    def split_index(axis, v) -> int:
        if not is_finite(v):
            return 0
        breaks = F.breakpoints[axis]
        try:
            pos = breaks.index(v)
        except ValueError:
            raise CharPointError(f"{v} is not a grid value on axis {axis}") from None
        return pos + 1

    sx = split_index(0, point[0])
    sy = split_index(1, point[1])
    m0, m1 = F.shape
    for t in range(sy, m1 + 1):
        lo = [F.table[(r, t)][0] for r in range(0, sx)]
        hi = [F.table[(r, t)][0] for r in range(sx, m0 + 1)]
        if lo and hi and max(lo) >= min(hi):
            return RaysResult(False, {"direction": "vertical", "t_cell": t,
                                      "max_left_level": max(lo), "min_right_level": min(hi)})
    for s in range(sx, m0 + 1):
        lo = [F.table[(s, c)][0] for c in range(0, sy)]
        hi = [F.table[(s, c)][0] for c in range(sy, m1 + 1)]
        if lo and hi and max(lo) >= min(hi):
            return RaysResult(False, {"direction": "horizontal", "s_cell": s,
                                      "max_below_level": max(lo), "min_above_level": min(hi)})
    return RaysResult(True)


def reference_blocks(F) -> list:
    """Every block, by level and then run starts, keyed by cell tuples: a run
    start is the neighbour's below when it has equal level."""
    level = {idx: t[0] for idx, t in F.table.items()}
    groups = {}
    starts_of = {}
    for idx in F.cells():
        i = level[idx]
        if i == 0:
            continue
        starts = []
        for j, r in enumerate(idx):
            below = idx[:j] + (r - 1,) + idx[j + 1:]
            starts.append(starts_of[below][j] if r and level[below] == i else r)
        starts_of[idx] = starts = tuple(starts)
        groups.setdefault((i, starts), []).append(idx)
    found = []
    for (i, starts), cells in sorted(groups.items()):
        flags = ["minus_infinity_projection"] if 0 in starts else []
        landing = []
        adjoined = 0 not in starts
        for j, r0 in enumerate(starts):
            if r0 == 0:
                landing.append(None)
                continue
            seen = {level[idx[:j] + (r0 - 1,) + idx[j + 1:]] for idx in cells}
            if len(seen) > 1:
                flags.append(f"inconsistent_landing_axis_{j}")
                landing.append(None)
                adjoined = False
            else:
                lv = seen.pop()
                landing.append(lv)
                adjoined = adjoined and lv == 0
                if lv >= i:
                    flags.append(f"landing_not_below_axis_{j}")
        cp_level = None if 0 in starts else level[tuple(r - 1 for r in starts)]
        g = tuple(map(min, zip(*(F.table[idx][1:] for idx in cells))))
        found.append(Block(
            i, starts, tuple(cells), F.breakpoints, tuple(landing), cp_level, adjoined,
            LexElement(F.signature, i, g), tuple(flags),
        ))
    return found


# Random resolutions, and references for the stored masses: inclusion-exclusion
# over the cells at and below each cell, and the cell-by-cell comparison that
# ``reconstruct`` once made to find its mismatch witness.


def members(sig: AlgebraSignature):
    """Members of [0, u]: g >= 0 at height 0, g <= 0 at the unit height."""

    def at_height(h):
        lo = 0 if h == 0 else -3
        hi = 0 if h == sig.k else 3
        g = st.tuples(*[st.integers(lo, hi)] * sig.d)
        return g.map(lambda g: LexElement(sig, h, g))

    return st.integers(0, sig.k).flatmap(at_height)


@st.composite
def resolutions(draw):
    """A resolution in n = 1..4.

    Half are observable resolutions, as built from their masses or with up to
    two cells overwritten; half carry an independent member of [0, u] on
    every cell, so masses turn negative and blocks get flagged.
    """
    n = draw(st.integers(1, 4))
    sig = AlgebraSignature(draw(st.integers(1, 3)), draw(st.integers(1, 2)))
    if draw(st.booleans()):
        points = draw(st.lists(
            st.tuples(*[st.integers(-2, 3)] * n), min_size=sig.k, max_size=sig.k, unique=True
        ))
        gs = [draw(st.tuples(*[st.integers(-3, 3)] * sig.d)) for _ in points[1:]]
        gs.insert(0, tuple(-sum(c) for c in zip(*gs)) if gs else (0,) * sig.d)
        x = make_observable(sig, n, [(p, LexElement(sig, 1, g)) for p, g in zip(points, gs)])
        F = from_observable(x)
        overwrites = draw(st.integers(0, 2))
        if not overwrites:
            return F
        values = F.values
        for _ in range(overwrites):
            values[draw(st.sampled_from(sorted(values)))] = draw(members(sig))
        breakpoints = F.breakpoints
    else:
        axis = st.lists(st.fractions(-3, 3, max_denominator=2), min_size=1,
                        max_size=4 - n // 2, unique=True)
        breakpoints = [sorted(draw(axis)) for _ in range(n)]
        cells = product(*[range(len(bs) + 1) for bs in breakpoints])
        values = {idx: draw(members(sig)) for idx in cells}
    return from_cells(sig, n, breakpoints, values)


def reference_masses(F) -> dict:
    """Nonzero atomic masses as flat tuples: at each cell, the alternating sum
    of the values at the 2^n cells at and below it, read as zero below index 0."""
    values = F.values
    out = {}
    for idx in F.cells():
        total = F.signature.zero
        for eps in product((0, 1), repeat=F.n):
            corner = tuple(r - e for r, e in zip(idx, eps))
            if min(corner) >= 0:
                op = group_sub if sum(eps) % 2 else group_add
                total = op(total, values[corner])
        if total != F.signature.zero:
            out[idx] = (total.h, *total.g)
    return out


def reference_mismatch(F, candidate) -> dict | None:
    """The first cell of ``F``, in cell order, whose value differs from the
    weight of ``candidate``'s atoms strictly below its representative point,
    as the witness fields of a ``MismatchReport``; None if every cell agrees."""
    for idx in F.cells():
        rep = F.cell_rep(idx)
        induced = F.signature.zero
        for a in candidate.atoms:
            if all(c < r for c, r in zip(a.point, rep)):
                induced = group_add(induced, a.weight)
        value = eval_F(F, rep)
        if value != induced:
            return {
                "witness_point": rep, "witness_cell": str(reference_cell_box(F, idx)),
                "value_f": value, "value_candidate": induced,
            }
    return None


def check_masses(F, result) -> None:
    """The mass oracles on ``F``, with ``result`` from ``reconstruct(F)``, or
    None when it raised: the stored masses equal the reference masses, a
    resolution built from them has the table of one built from the cells,
    and a mismatch witness is the first differing cell."""
    assert F.masses == reference_masses(F)
    sig, n, breakpoints = F.signature, F.n, F.breakpoints
    from_masses = StepResolution(sig, n, breakpoints, masses=F.masses)
    from_values = from_cells(sig, n, breakpoints, F.values)
    assert from_masses.table == from_values.table == F.table
    assert from_values.masses == F.masses
    if isinstance(result, MismatchReport):
        fields = ("witness_point", "witness_cell", "value_f", "value_candidate")
        assert reference_mismatch(F, result.candidate) == {f: getattr(result, f) for f in fields}
    elif result is not None:
        assert reference_mismatch(F, result) is None


def reference_sweep(values, shape, axes, diff=False) -> None:
    """The grid sweep one axis line at a time: each line's cell indices are
    built and looked up in the map, then prefix-summed (or differenced,
    reading cells below index 0 as zero) component by component."""
    for axis in axes:
        rest = [range(m + 1) for j, m in enumerate(shape) if j != axis]
        for other in product(*rest):
            line = [other[:axis] + (r,) + other[axis:] for r in range(shape[axis] + 1)]
            comps = zip(*[values[idx] for idx in line])
            if diff:
                comps = [(c[0], *map(sub, c[1:], c)) for c in comps]
            else:
                comps = map(accumulate, comps)
            values.update(zip(line, zip(*comps)))


def reference_render_svg(F) -> str:
    """The SVG level map drawn from each block's region boxes, with screen
    coordinates looked up by end value (-inf and +inf at the padded ends)."""
    F, found = _blocks(F)
    points = [_point(F.breakpoints, r) for r in sorted({b.starts for b in found})
              if 0 not in r]
    xs, ys = F.breakpoints
    xmin, xmax, ymin, ymax = xs[0] - 1, xs[-1] + 1, ys[0] - 1, ys[-1] + 1
    k = F.signature.k
    plot_h = _SVG_H - _LEGEND_H
    sx = (_SVG_W - 2 * _MARGIN) / float(xmax - xmin)
    sy = (plot_h - 2 * _MARGIN) / float(ymax - ymin)
    X = {x: _MARGIN + (float(x) - float(xmin)) * sx for x in (xmin, *xs, xmax)}
    Y = {y: plot_h - _MARGIN - (float(y) - float(ymin)) * sy for y in (ymin, *ys, ymax)}
    X[NEG_INF], X[POS_INF], Y[NEG_INF], Y[POS_INF] = X[xmin], X[xmax], Y[ymin], Y[ymax]

    def rect(x, y, w, h, fill, stroke="#333333"):
        return (f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{w}" height="{h}" '
                f'fill="{fill}" stroke="{stroke}" stroke-width="1"/>')

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_W}" height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        rect(X[xmin], Y[ymax], _fmt(X[xmax] - X[xmin]), _fmt(Y[ymin] - Y[ymax]),
             _shade(0, k), "#444444"),
    ]
    for block in found:
        for box in block.region.boxes:
            ix, iy = box.dims
            out.append(rect(X[ix.lo], Y[iy.hi], _fmt(X[ix.hi] - X[ix.lo]),
                            _fmt(Y[iy.lo] - Y[iy.hi]), _shade(block.level, k)))
    for p in points:
        cx, cy = X[p[0]], Y[p[1]]
        out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3.5" '
                   f'fill="#b2182b" stroke="#ffffff" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(cx + 6)}" y="{_fmt(cy - 6)}" font-family="monospace" '
                   f'font-size="11" fill="#111111">{escape(format_ext_point(p))}</text>')
    lx, ly = float(_MARGIN), float(plot_h - _MARGIN + 30)
    for lv in sorted({v.h for v in F.values.values()}):
        out.append(rect(lx, ly, 14, 14, _shade(lv, k)))
        out.append(f'<text x="{_fmt(lx + 18)}" y="{_fmt(ly + 11)}" font-family="monospace" '
                   f'font-size="12" fill="#111111">T_{lv}</text>')
        lx += 70.0
    out.append("</svg>")
    return "\n".join(out) + "\n"


def json_depth(v) -> int:
    """How deeply lists and dicts nest in ``v``: 0 for a scalar, 1 for a flat container."""
    items = v.values() if isinstance(v, dict) else v if isinstance(v, list) else None
    return 0 if items is None else 1 + max(map(json_depth, items), default=0)
