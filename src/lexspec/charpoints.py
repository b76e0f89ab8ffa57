"""Level sets, characteristic points, blocks, and reconstruction.

For a step resolution ``F`` the level set ``T_i`` collects the points where
``F`` has height ``i``.  For a point of ``T_i`` (i >= 1) the projection along
axis ``j`` is the infimum of the contiguous run of axis-``j`` cells around it
that stays in ``T_i``; the vector of projections is the characteristic point,
and cells sharing one characteristic point form a block.  Everything here is
exact cell-index arithmetic: for step functions the infima are breakpoints,
indexed by the run starts (start 0 stands for -inf, which only pathological
resolutions produce and which is flagged).  A block is a cell-index record on
its grid; its characteristic point is read off the breakpoints, and its region
is built by :func:`boxgeom.cell_region` on each access, without a box per
cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .boxgeom import NEG_INF, ExtRat, Region, cell_region, format_rational, is_finite
from .lexalg import LexElement, group_add
from .observable import DiscreteObservable, ObservableError, make_observable
from .spectral import (
    AxiomReport,
    CellIndex,
    StepResolution,
    _element,
    _induced_values,
    check_axioms,
)


class CharPointError(ValueError):
    """Projection of a level-0 point, or an unsupported dimension."""


class ReconstructionError(ValueError):
    pass


class NotReconstructibleError(ReconstructionError):
    """Adjoined block infima do not sum to the unit."""


ExtPoint = tuple[ExtRat, ...]


def _level(F: StepResolution, idx: CellIndex) -> int:
    return F.table[idx][0]


def _run_start(F: StepResolution, idx: CellIndex, axis: int) -> int:
    """Lowest axis index reachable from ``idx`` through cells of equal level."""
    i = _level(F, idx)
    r = idx[axis]
    probe = list(idx)
    while r > 0:
        probe[axis] = r - 1
        if _level(F, tuple(probe)) != i:
            break
        r -= 1
    return r


def _point(breakpoints: Sequence[Sequence[Fraction]], starts: Sequence[int]) -> ExtPoint:
    """The breakpoint below each run start; start 0 stands for -inf."""
    return tuple(bs[r - 1] if r else NEG_INF for bs, r in zip(breakpoints, starts))


def projection(F: StepResolution, point: Sequence[Fraction], axis: int) -> ExtRat:
    """Infimum of the axis run of the level set through ``point``."""
    cp = char_point(F, point)
    if not 0 <= axis < F.n:
        raise CharPointError(f"axis {axis} out of range for dimension {F.n}")
    return cp[axis]


def char_point(F: StepResolution, point: Sequence[Fraction]) -> ExtPoint:
    """Vector of per-axis projections of ``point`` within its level set."""
    idx = F.cell_of_point(point)
    if _level(F, idx) == 0:
        raise CharPointError(f"point {point} lies in the level-0 set; no projection")
    return _point(F.breakpoints, [_run_start(F, idx, j) for j in range(F.n)])


def format_ext_point(p: ExtPoint) -> str:
    return "(" + ", ".join("-inf" if not is_finite(c) else format_rational(c) for c in p) + ")"


@dataclass(frozen=True, slots=True)
class Block:
    """A maximal set of same-level cells sharing one characteristic point.

    A cell-index record on the grid ``breakpoints``: ``starts`` is the members'
    run-start vector and ``cells`` the members in cell order.  The
    characteristic point is read off the breakpoints; the region is built from
    the cells on each access, so callers that never read it pay nothing.
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
        return cell_region(self.breakpoints, self.cells)

    def to_doc(self) -> dict:
        return {
            "level": self.level,
            "char_point": [
                None if not is_finite(c) else format_rational(c) for c in self.char_point
            ],
            "region": str(self.region),
            "landing_levels": list(self.landing_levels),
            "char_point_level": self.char_point_level,
            "t0_adjoined": self.t0_adjoined,
            "infimum": str(self.infimum),
            "flags": list(self.flags),
        }


@dataclass(frozen=True, slots=True)
class LevelDecomposition:
    """Exact region of each level 0..k; pathological inputs are flagged."""

    regions: dict[int, Region]
    axioms: AxiomReport
    pathological: bool

    def to_doc(self) -> dict:
        return {
            "pathological": self.pathological,
            "levels": {str(i): str(r) for i, r in sorted(self.regions.items())},
        }


@dataclass(frozen=True, slots=True)
class BlockReport:
    """All blocks of a resolution, grouped by level.

    ``point_starts`` are the blocks' distinct run-start vectors, sorted; they
    order exactly like the characteristic points ``points`` they index.
    """

    k: int
    n: int
    levels: dict[int, tuple[Block, ...]]
    axioms: AxiomReport
    pathological: bool
    point_starts: list[tuple[int, ...]]
    points: list[ExtPoint]

    def all_blocks(self) -> list[Block]:
        return [b for i in sorted(self.levels) for b in self.levels[i]]

    def char_points(self) -> list[ExtPoint]:
        """Distinct characteristic points across all levels, sorted."""
        return self.points

    def level_counts(self) -> dict[int, int]:
        return {i: len(bs) for i, bs in sorted(self.levels.items())}

    def to_doc(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "pathological": self.pathological,
            "axioms_ok": self.axioms.ok,
            "levels": {
                str(i): [b.to_doc() for b in bs] for i, bs in sorted(self.levels.items())
            },
            "char_points": [format_ext_point(p) for p in self.points],
            "counts": {str(i): len(bs) for i, bs in sorted(self.levels.items())},
        }


def level_regions(F: StepResolution) -> LevelDecomposition:
    """Group cells by the height of their value into exact regions."""
    axioms = check_axioms(F)
    return LevelDecomposition(_level_regions(F), axioms, not axioms.ok)


def _level_regions(F: StepResolution) -> dict[int, Region]:
    """The region of each level 0..k, without an axiom check."""
    cells: dict[int, list[CellIndex]] = {i: [] for i in range(F.signature.k + 1)}
    for idx in F.cells():
        cells[_level(F, idx)].append(idx)
    return {i: cell_region(F.breakpoints, cs) for i, cs in cells.items()}


def all_blocks(F: StepResolution) -> BlockReport:
    """Compute every block of every nonzero level."""
    axioms = check_axioms(F)
    found = _blocks(F)
    levels: dict[int, list[Block]] = {}
    for block in found:
        levels.setdefault(block.level, []).append(block)
    point_starts = sorted({b.starts for b in found})
    return BlockReport(
        k=F.signature.k,
        n=F.n,
        levels={i: tuple(bs) for i, bs in levels.items()},
        axioms=axioms,
        pathological=(not axioms.ok) or any(b.flags for b in found),
        point_starts=point_starts,
        points=[_point(F.breakpoints, r) for r in point_starts],
    )


def _blocks(F: StepResolution) -> list[Block]:
    """Every block, by level and then run starts; no axiom check."""
    # Keyed by the run starts, which determine the characteristic point and
    # sort in its order.  In cell order the neighbour below along each axis
    # comes first, so a run start is that neighbour's when it has equal level.
    groups: dict[tuple[int, tuple[int, ...]], list[CellIndex]] = {}
    starts_of: dict[CellIndex, tuple[int, ...]] = {}
    for idx in F.cells():
        i = _level(F, idx)
        if i == 0:
            continue
        starts = []
        for j, r in enumerate(idx):
            below = idx[:j] + (r - 1,) + idx[j + 1 :]
            starts.append(starts_of[below][j] if r and _level(F, below) == i else r)
        starts_of[idx] = starts = tuple(starts)
        groups.setdefault((i, starts), []).append(idx)

    found: list[Block] = []
    for (i, starts), members in sorted(groups.items()):
        cells = tuple(members)  # F.cells() runs in sorted order
        flags: list[str] = []
        if 0 in starts:
            flags.append("minus_infinity_projection")

        # Landing level per axis: the level at the point with that coordinate
        # replaced by its projection.  Must be consistent across members and
        # strictly below the block level for well-behaved resolutions.
        landing: list[int | None] = []
        adjoined = 0 not in starts
        for j, r0 in enumerate(starts):
            if r0 == 0:
                landing.append(None)
                continue
            seen = {_level(F, idx[:j] + (r0 - 1,) + idx[j + 1 :]) for idx in cells}
            if len(seen) > 1:
                flags.append(f"inconsistent_landing_axis_{j}")
                landing.append(None)
                adjoined = False
            else:
                lv = seen.pop()
                landing.append(lv)
                if lv != 0:
                    adjoined = False
                if lv >= i:
                    flags.append(f"landing_not_below_axis_{j}")

        # The characteristic point is the upper corner of the cell below the starts.
        cp_level = None if 0 in starts else _level(F, tuple(r - 1 for r in starts))

        # Every member has height i, so the meet is the componentwise minimum.
        g = tuple(map(min, zip(*(F.table[idx][1:] for idx in cells))))
        infimum = LexElement(F.signature, i, g)
        found.append(Block(
            i, starts, cells, F.breakpoints, tuple(landing), cp_level, adjoined, infimum, tuple(flags)
        ))
    return found


def blocks(F: StepResolution, level: int) -> tuple[Block, ...]:
    return all_blocks(F).levels.get(level, ())


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
    infima sum to the unit, the induced observable is verified cell by cell
    against ``F``.  A verified match returns the observable; a failed
    verification returns a :class:`MismatchReport` naming the first differing
    cell.  Infima that do not sum to the unit raise
    :class:`NotReconstructibleError`.  Adjoined blocks have every run start
    >= 1, so their characteristic points are finite.
    """
    adjoined = [b for b in _blocks(F) if b.t0_adjoined]
    weights = [b.infimum for b in adjoined]
    points = [b.char_point for b in adjoined]
    total = F.signature.zero
    for w in weights:
        total = group_add(total, w)
    if total != F.signature.unit:
        raise NotReconstructibleError(
            f"adjoined block infima sum to {total}, not the unit {F.signature.unit}"
        )
    if len(set(points)) != len(points):
        raise NotReconstructibleError("two adjoined blocks share a characteristic point")
    try:
        candidate = make_observable(F.signature, F.n, list(zip(points, weights)))
    except ObservableError as exc:
        raise NotReconstructibleError(str(exc)) from exc

    # Adjoined characteristic points are breakpoint vectors of F, so the
    # candidate's resolution lives on F's own grid.
    induced = _induced_values(candidate, F.breakpoints)
    for idx in F.cells():
        if induced[idx] != F.table[idx]:
            return MismatchReport(
                candidate=candidate,
                witness_point=F.cell_rep(idx),
                witness_cell=str(F.cell_box(idx)),
                value_f=_element(F.signature, F.table[idx]),
                value_candidate=_element(F.signature, induced[idx]),
            )
    return candidate


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
    """Check count <= min(k, k-i+1) per level and <= k(k+1)/2 in total."""
    k = report.k
    per_level = tuple(
        (i, len(report.levels.get(i, ())), min(k, k - i + 1)) for i in range(1, k + 1)
    )
    return BoundsCheck(per_level, len(report.points), k * (k + 1) // 2)


@dataclass(frozen=True, slots=True)
class RaysResult:
    ok: bool
    witness: dict | None = None


def rays_check(F: StepResolution, point: ExtPoint) -> RaysResult:
    """Strict level increase across a characteristic point along far rays.

    For every grid height t above the point, each location left of (or at)
    the point's first coordinate must have strictly smaller level than each
    location right of it; symmetrically for the second coordinate.  Two
    dimensions only.
    """
    if F.n != 2:
        raise CharPointError("ray checks are defined for two dimensions only")

    def split_index(axis: int, v: ExtRat) -> int:
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

    # vertical rays: heights strictly above point[1]
    for t in range(sy, m1 + 1):
        lo = [F.table[(r, t)][0] for r in range(0, sx)]
        hi = [F.table[(r, t)][0] for r in range(sx, m0 + 1)]
        if lo and hi and max(lo) >= min(hi):
            return RaysResult(
                False,
                {
                    "direction": "vertical",
                    "t_cell": t,
                    "max_left_level": max(lo),
                    "min_right_level": min(hi),
                },
            )
    # horizontal rays: abscissas strictly right of point[0]
    for s in range(sx, m0 + 1):
        lo = [F.table[(s, c)][0] for c in range(0, sy)]
        hi = [F.table[(s, c)][0] for c in range(sy, m1 + 1)]
        if lo and hi and max(lo) >= min(hi):
            return RaysResult(
                False,
                {
                    "direction": "horizontal",
                    "s_cell": s,
                    "max_below_level": max(lo),
                    "min_above_level": min(hi),
                },
            )
    return RaysResult(True)


def max_antichain(report: BlockReport) -> int | None:
    """Largest pairwise-incomparable set of characteristic points (n = 2 only).

    Returns None for other dimensions.
    """
    if report.n != 2:
        return None
    # Run starts order like the points: sorted by (x asc, y asc), an antichain
    # is strictly x-increasing and y-decreasing, so a quadratic pass suffices
    # at these sizes.
    pts = report.point_starts
    if not pts:
        return 0
    best = [1] * len(pts)
    for i, (xi, yi) in enumerate(pts):
        for j in range(i):
            xj, yj = pts[j]
            if xj < xi and yj > yi:
                best[i] = max(best[i], best[j] + 1)
    return max(best)


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
