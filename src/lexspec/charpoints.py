"""Level sets, characteristic points, blocks, and reconstruction.

For a step resolution ``F`` the level set ``T_i`` collects the points where
``F`` has height ``i``.  For a point of ``T_i`` (i >= 1) the projection along
axis ``j`` is the infimum of the contiguous run of axis-``j`` cells around it
that stays in ``T_i``; the vector of projections is the characteristic point,
and cells sharing one characteristic point form a block.  Everything here is
exact cell-index arithmetic: for step functions the infima are breakpoints,
indexed by the run starts (start 0 stands for -inf, which only pathological
resolutions produce and which is flagged).  A block is a cell-index record on
its grid.  Characteristic points stay run starts until printed: every printed
one (JSON, CLI text, SVG labels) is read off the grid's ``cell_ends`` texts by
:func:`point_text`, and ``Fraction`` points are derived on request.  Level and
block text is printed from merged cell runs by
:func:`boxgeom.cell_region_text`; a ``Region`` is parsed back only on request.

Merged cell runs are canonical: a set's text is the same on every grid that
refines it.  So level texts and every block pass are read off
:func:`spectral.height_grid` (at most k breakpoints per axis, every level
set and block infimum kept), and block records index that grid;
``reconstruct`` compares masses on ``F``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb
from typing import NamedTuple, Sequence

from .boxgeom import NEG_INF, ExtRat, Region, format_rational, is_finite, parse_region, rational
from .boxgeom import cell_ends, cell_region_text
from .lexalg import LexElement, format_element
from .observable import DiscreteObservable, ObservableError, make_observable
from .spectral import (
    AxiomReport,
    CellIndex,
    StepResolution,
    _element,
    _placed,
    check_axioms,
    height_grid,
)


class CharPointError(ValueError):
    """A point off the grid, or of the wrong dimension."""


class ReconstructionError(ValueError):
    pass


class NotReconstructibleError(ReconstructionError):
    """Adjoined block infima do not sum to the unit."""


ExtPoint = tuple[ExtRat, ...]


def _point(breakpoints: Sequence[Sequence[Fraction]], starts: Sequence[int]) -> ExtPoint:
    """The breakpoint below each run start; start 0 stands for -inf."""
    return tuple(bs[r - 1] if r else NEG_INF for bs, r in zip(breakpoints, starts))


def format_ext_point(p: ExtPoint) -> str:
    return "(" + ", ".join("-inf" if not is_finite(c) else format_rational(c) for c in p) + ")"


def point_text(ends: list[tuple[list[str], list[str]]], starts: Sequence[int]) -> str:
    """:func:`format_ext_point` at run starts ``starts``, read off ``ends``."""
    return "(" + ", ".join([lo[r][1:] for (lo, _), r in zip(ends, starts)]) + ")"


class Block(NamedTuple):
    """A maximal set of same-level cells sharing one characteristic point.

    A cell-index record on the grid ``breakpoints``, a named tuple (built with
    no setter per field, it equals its fields' tuple): ``starts`` is the
    members' run-start vector and ``cells`` the members in cell order.  The
    region is parsed from the cells' text on each access.
    """

    level: int
    starts: tuple[int, ...]
    cells: tuple[CellIndex, ...]
    breakpoints: tuple[tuple[Fraction, ...], ...]
    landing_levels: tuple[int | None, ...]
    char_point_level: int | None
    t0_adjoined: bool
    infimum: LexElement
    flags: tuple[str, ...]

    @property
    def char_point(self) -> ExtPoint:
        return _point(self.breakpoints, self.starts)

    @property
    def region(self) -> Region:
        return parse_region(self.region_text(cell_ends(self.breakpoints)), len(self.starts))

    def region_text(self, ends: list[tuple[list[str], list[str]]]) -> str:
        """:func:`cell_region_text` of the cells; one cell is its own run."""
        if len(self.cells) == 1:
            return "x".join([lo[r] + "," + hi[r] for (lo, hi), r in zip(ends, self.cells[0])])
        return cell_region_text(ends, self.cells)

    def to_doc(self, ends: list[tuple[list[str], list[str]]]) -> dict:
        """The block's document, its texts read off ``ends = cell_ends(self.breakpoints)``."""
        return {
            "level": self.level,
            "char_point": [lo[r][1:] if r else None for (lo, _), r in zip(ends, self.starts)],
            "region": self.region_text(ends),
            "landing_levels": [*self.landing_levels],
            "char_point_level": self.char_point_level,
            "t0_adjoined": self.t0_adjoined,
            "infimum": format_element(self.infimum),
            "flags": [*self.flags],
        }


@dataclass(frozen=True, slots=True)
class LevelDecomposition:
    """Region text of each level 0..k in R^n, and whether the input is pathological."""

    texts: dict[int, str]
    n: int
    axioms: AxiomReport
    pathological: bool

    @property
    def regions(self) -> dict[int, Region]:
        return {i: parse_region(t, self.n) for i, t in self.texts.items()}

    def to_doc(self) -> dict:
        return {
            "pathological": self.pathological,
            "levels": {str(i): t for i, t in sorted(self.texts.items())},
        }


@dataclass(frozen=True, slots=True)
class BlockReport:
    """All blocks of a resolution on the grid ``breakpoints``, grouped by level.
    ``starts`` are the run starts of the distinct characteristic points,
    sorted; they order exactly like the points, which ``points`` derives."""

    k: int
    n: int
    levels: dict[int, tuple[Block, ...]]
    axioms: AxiomReport
    pathological: bool
    starts: list[tuple[int, ...]]
    breakpoints: tuple[tuple[Fraction, ...], ...]

    @property
    def points(self) -> list[ExtPoint]:
        return [_point(self.breakpoints, r) for r in self.starts]

    def all_blocks(self) -> list[Block]:
        return [b for i in sorted(self.levels) for b in self.levels[i]]

    def char_points(self) -> list[ExtPoint]:
        """Distinct characteristic points across all levels, sorted."""
        return self.points

    def level_counts(self) -> dict[int, int]:
        return {i: len(bs) for i, bs in sorted(self.levels.items())}

    def to_doc(self) -> dict:
        ends = cell_ends(self.breakpoints)
        return {
            "k": self.k,
            "n": self.n,
            "pathological": self.pathological,
            "axioms_ok": self.axioms.ok,
            "levels": {
                str(i): [b.to_doc(ends) for b in bs] for i, bs in sorted(self.levels.items())
            },
            "char_points": [point_text(ends, r) for r in self.starts],
            "counts": {str(i): len(bs) for i, bs in sorted(self.levels.items())},
        }


def level_regions(F: StepResolution) -> LevelDecomposition:
    """Group cells by the height of their value into exact regions."""
    axioms = check_axioms(F)
    return LevelDecomposition(_level_texts(F), F.n, axioms, not axioms.ok)


def _level_texts(F: StepResolution) -> dict[int, str]:
    """The region text of each level 0..k, without an axiom check, read off
    the height grid of ``F``."""
    F = height_grid(F)
    cells: dict[int, list[CellIndex]] = {i: [] for i in range(F.signature.k + 1)}
    for idx, t in F.table.items():
        cells[t[0]].append(idx)
    ends = cell_ends(F.breakpoints)
    return {i: cell_region_text(ends, cs) for i, cs in cells.items()}


def all_blocks(F: StepResolution) -> BlockReport:
    """Compute every block of every nonzero level."""
    axioms = check_axioms(F)
    G, found = _blocks(F)
    levels: dict[int, list[Block]] = {}
    for block in found:
        levels.setdefault(block.level, []).append(block)
    return BlockReport(
        k=F.signature.k,
        n=F.n,
        levels={i: tuple(bs) for i, bs in levels.items()},
        axioms=axioms,
        pathological=(not axioms.ok) or any(b.flags for b in found),
        starts=sorted({b.starts for b in found}),
        breakpoints=G.breakpoints,
    )


def _blocks(F: StepResolution) -> tuple[StepResolution, list[Block]]:
    """The height grid of ``F`` and its blocks, by level, then run starts; no axiom check.

    The grid is read once into lists in ``F.cells()`` order.  One pass per
    axis j walks every axis-j line upward, one stride at a time: a cell of the
    level of the cell below continues its run, any other starts a run at its
    own index and lands on the level below.  Blocks are keyed by level and the
    offset of their run-start cell, which sorts like the characteristic point.
    """
    F = height_grid(F)
    table = F.table  # refuses an oversized grid before its cells are listed
    cells = list(F.cells())
    values = [table[idx] for idx in cells]
    levels = [t[0] for t in values]
    total = len(levels)
    head = list(range(total))  # offset of the cell at each cell's run starts
    landing_by_axis: list[list[int]] = []
    stride, below = total, 0  # below: from a cell to the cell below it on every axis
    for m in F.shape:
        stride //= m + 1
        below += stride
        span = stride * (m + 1)
        first = list(range(total))  # the first cell of each cell's axis run
        land = [0] * total  # read only where the run starts above index 0
        for base in range(0, total, span):
            for p in range(base + stride, base + span):
                q = p - stride
                if levels[q] == levels[p]:
                    first[p] = first[q]
                    land[p] = land[q]
                else:
                    land[p] = levels[q]
        head = [h + f - p for p, (h, f) in enumerate(zip(head, first))]
        landing_by_axis.append(land)

    groups: dict[int, list[int]] = {}
    for p, (i, h) in enumerate(zip(levels, head)):
        if i:
            groups.setdefault(i * total + h, []).append(p)

    found: list[Block] = []
    infima: dict[tuple[int, ...], LexElement] = {}  # one element per distinct value
    cell_lands = list(zip(*landing_by_axis))
    for key, members in sorted(groups.items()):
        i, h = divmod(key, total)
        starts = cells[h]
        # Every member has height i, so the meet is the componentwise minimum;
        # a one-cell block is its own cell's value and lands where its cell does.
        if len(members) == 1:
            p = members[0]
            t, block_cells, lands = values[p], (cells[p],), cell_lands[p]
        else:
            t = (i, *map(min, zip(*(values[p][1:] for p in members))))
            block_cells = tuple(cells[p] for p in members)
            seen = [set(lv) for lv in zip(*(cell_lands[p] for p in members))]
            lands = tuple([s.pop() if len(s) == 1 else None for s in seen])
        infimum = infima.get(t) or infima.setdefault(t, _element(F.signature, t))

        # Landing level per axis: the level at the point with that coordinate
        # replaced by its projection.  Must be consistent across members and
        # strictly below the block level for well-behaved resolutions.  The
        # characteristic point is the upper corner of the cell below the starts.
        if 0 in starts:
            landing = tuple([lv if r else None for r, lv in zip(starts, lands)])
            flags, cp_level = ("minus_infinity_projection",), None
        else:
            landing, flags, cp_level = lands, (), levels[h - below]
        if None in lands or max(lands) >= i:
            flags += tuple(
                f"{'inconsistent_landing' if lv is None else 'landing_not_below'}_axis_{j}"
                for j, (r, lv) in enumerate(zip(starts, lands)) if r and (lv is None or lv >= i)
            )
        found.append(Block(i, starts, block_cells, F.breakpoints, landing, cp_level,
                           landing.count(0) == len(landing), infimum, flags))
    return F, found


# --- reconstruction -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MismatchReport:
    """Adjoined infima summed to the unit, yet the induced observable differs."""

    candidate: DiscreteObservable
    witness_point: tuple[Fraction, ...]
    witness_cell: str
    value_f: LexElement
    value_candidate: LexElement

    def to_doc(self) -> dict:
        return {
            "reconstructible": False,
            "witness_point": [format_rational(c) for c in self.witness_point],
            "witness_cell": self.witness_cell,
            "value": str(self.value_f),
            "candidate_value": str(self.value_candidate),
        }


def reconstruct(F: StepResolution) -> DiscreteObservable | MismatchReport:
    """Invert the resolution from its T_0-adjoined blocks, if possible.

    Places each adjoined block's infimum at its characteristic point; when the
    infima sum to the unit, the induced observable's masses are compared with
    those of ``F``.  A verified match returns the observable; a failed
    verification returns a :class:`MismatchReport` naming the first differing
    cell.  Infima that do not sum to the unit raise
    :class:`NotReconstructibleError`.  Adjoined blocks have every run start
    >= 1, so their characteristic points are finite.

    Exact domain: ``reconstruct(from_observable(x)) == x`` holds iff every
    atom of ``x`` has positive height and no atom point lies at or below
    another componentwise (an antichain).  An antichain atom's block is
    adjoined with its weight as infimum, and a join of two or more atoms is
    not adjoined; a height-0 atom, or an atom above another, is placed at no
    adjoined block with its own weight.  So an observable with, say, two
    atoms on one line is refused although its resolution passes every axiom.
    """
    return _reconstruct(F, _blocks(F)[1])


def _reconstruct(F: StepResolution, blocks: Sequence[Block]) -> DiscreteObservable | MismatchReport:
    """:func:`reconstruct` from ``blocks``, the blocks :func:`_blocks` finds for ``F``."""
    adjoined = [b for b in blocks if b.t0_adjoined]
    weights = [b.infimum for b in adjoined]
    points = [b.char_point for b in adjoined]
    sig = F.signature
    total = tuple(map(sum, zip((0,) * (sig.d + 1), *((w.h, *w.g) for w in weights))))
    if total != (sig.k, *(0,) * sig.d):
        raise NotReconstructibleError(
            f"adjoined block infima sum to {_element(sig, total)}, not the unit {sig.unit}"
        )
    if len(set(points)) != len(points):
        raise NotReconstructibleError("two adjoined blocks share a characteristic point")
    try:
        candidate = make_observable(sig, F.n, list(zip(points, weights)))
    except ObservableError as exc:
        raise NotReconstructibleError(str(exc)) from exc

    # Adjoined characteristic points are breakpoint vectors of F, so the
    # candidate's masses live on F's own grid; equal masses mean equal
    # resolutions, and the induced table only names the first differing cell.
    placed = _placed(candidate, F.breakpoints)
    if placed == F.masses:
        return candidate
    induced = StepResolution(sig, F.n, F.breakpoints, masses=placed).table
    idx = next(idx for idx in F.cells() if induced[idx] != F.table[idx])
    return MismatchReport(
        candidate=candidate,
        witness_point=F.cell_rep(idx),
        witness_cell=cell_region_text(cell_ends(F.breakpoints), [idx]),
        value_f=_element(sig, F.table[idx]),
        value_candidate=_element(sig, induced[idx]),
    )


# --- combinatorial checks ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BoundsCheck:
    """Per-level and total characteristic-point counts against their limits."""

    per_level: tuple[tuple[int, int, int], ...]  # (level, count, limit)
    total: int
    total_limit: int

    @property
    def ok(self) -> bool:
        return self.total <= self.total_limit and all(
            c <= lim for _, c, lim in self.per_level
        )

    def to_doc(self) -> dict:
        return {
            "ok": self.ok,
            "per_level": [
                {"level": i, "count": c, "limit": lim, "margin": lim - c}
                for i, c, lim in self.per_level
            ],
            "total": self.total,
            "total_limit": self.total_limit,
            "total_margin": self.total_limit - self.total,
        }


def bounds_check(report: BlockReport) -> BoundsCheck:
    """Check count <= min(C(k, i), C(k-i+n-1, n-1)) per level i (k-i+1 in the
    plane) and the sum of those limits in total.  C(k, i) is proven.  The
    second term is an upper bound on every searched maximum, unproven in
    general; those maxima meet it except at level 2 in R^3 for k >= 5."""
    k, n = report.k, report.n
    limits = [min(comb(k, i), comb(k - i + n - 1, n - 1)) for i in range(1, k + 1)]
    per_level = tuple(
        (i, len(report.levels.get(i, ())), lim) for i, lim in enumerate(limits, 1)
    )
    return BoundsCheck(per_level, len(report.points), sum(limits))


@dataclass(frozen=True, slots=True)
class RaysResult:
    ok: bool
    witness: dict | None = None


def rays_check(F: StepResolution, point: ExtPoint) -> RaysResult:
    """Strict level increase across a characteristic point along far rays.

    Let s be the point's run starts (0 for a -inf coordinate).  For each axis
    j and each axis-j line of cells whose other indices are at or above s,
    every level below s_j must be strictly smaller than every level at or
    above s_j; a start 0 splits nothing.  Axes are scanned in order (for n = 2
    the vertical rays, then the horizontal ones) and lines in cell order; the
    witness is the first failing line, named by its other cell indices.
    """
    if len(point) != F.n:
        raise CharPointError(f"point dimension {len(point)}, grid has {F.n}")
    starts = []
    for axis, (bs, v) in enumerate(zip(F.breakpoints, point)):
        v = v if v is NEG_INF else rational(v)
        r = -1 if v is NEG_INF else F._axis_cell(axis, v)  # the breakpoints below v
        if r >= 0 and bs[r:r + 1] != (v,):
            raise CharPointError(f"{v} is not a grid value on axis {axis}")
        starts.append(r + 1)
    table, shape = F.table, F.shape
    for j, s in enumerate(starts):
        rest = [range(r, m + 1) for i, (r, m) in enumerate(zip(starts, shape)) if i != j]
        for other in product(*rest) if s else ():
            line = [table[other[:j] + (r,) + other[j:]][0] for r in range(shape[j] + 1)]
            below, above = max(line[:s]), min(line[s:])
            if below >= above:
                witness = {"axis": j, "line": list(other), "max_below_level": below,
                           "min_above_level": above}
                return RaysResult(False, witness)
    return RaysResult(True)


def block_cube_check(F: StepResolution, report: BlockReport) -> tuple[bool, dict | None]:
    """Every grid cell strictly above a block's characteristic point and below
    some member belongs to the block."""
    for block in report.all_blocks():
        members = set(block.cells)
        highs = [max(idx[j] for idx in members) for j in range(F.n)]
        for c in product(*[range(lo, hi + 1) for lo, hi in zip(block.starts, highs)]):
            if c not in members and any(all(mi >= ci for mi, ci in zip(m, c)) for m in members):
                return False, {
                    "block_char_point": format_ext_point(block.char_point),
                    "level": block.level,
                    "cell": list(c),
                }
    return True, None
