"""Exact geometry of axis-aligned boxes and finite box unions in R^n.

Coordinates are rationals (``fractions.Fraction``) with explicit +/- infinity
sentinels; every interval endpoint carries its own closure flag.  A
:class:`Region` is a finite union of boxes kept in a canonical disjoint form,
so two regions describe the same point set iff their representations are
identical.

Canonical form: collect all finite endpoint values per axis, refine to the
induced grid of atomic cells (isolated points and open gaps), keep the
occupied cells, then greedily merge adjacent cells along the last axis, then
the one before it, and so on.  The result is deterministic; compactness is
not a goal.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from itertools import product
from typing import Iterable, Sequence, Union


class GeometryError(ValueError):
    """Malformed interval, dimension mismatch, or unparsable text."""


@total_ordering
class _Infinity:
    """Signed infinity sentinel, totally ordered against rationals."""

    __slots__ = ("sign",)

    def __init__(self, sign: int) -> None:
        self.sign = sign

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Infinity) and other.sign == self.sign

    def __lt__(self, other: object) -> bool:
        if isinstance(other, _Infinity):
            return self.sign < other.sign
        return self.sign < 0

    def __hash__(self) -> int:
        return hash(("_Infinity", self.sign))

    def __repr__(self) -> str:
        return "-inf" if self.sign < 0 else "+inf"


NEG_INF = _Infinity(-1)
POS_INF = _Infinity(1)

ExtRat = Union[Fraction, _Infinity]
RatPoint = tuple[Fraction, ...]


def is_finite(v: ExtRat) -> bool:
    return not isinstance(v, _Infinity)


def as_fraction(v) -> Fraction:
    if isinstance(v, _Infinity):
        raise GeometryError("expected a finite coordinate")
    return Fraction(v)


@dataclass(frozen=True, slots=True)
class Interval:
    """Nonempty interval of R with per-endpoint closure; infinite ends are open."""

    lo: ExtRat
    lo_closed: bool
    hi: ExtRat
    hi_closed: bool

    def __post_init__(self) -> None:
        if isinstance(self.lo, _Infinity):
            if self.lo is not NEG_INF or self.lo_closed:
                raise GeometryError("lower end may only be an open -inf")
        if isinstance(self.hi, _Infinity):
            if self.hi is not POS_INF or self.hi_closed:
                raise GeometryError("upper end may only be an open +inf")
        if self.lo == self.hi:
            if not (self.lo_closed and self.hi_closed):
                raise GeometryError(f"empty interval: {self}")
        elif not self.lo < self.hi:
            raise GeometryError(f"empty interval: {self}")

    def contains(self, x: Fraction) -> bool:
        if x < self.lo or (x == self.lo and not self.lo_closed):
            return False
        if x > self.hi or (x == self.hi and not self.hi_closed):
            return False
        return True

    def __str__(self) -> str:
        return format_interval(self)


def closed_open(lo, hi) -> Interval:
    return Interval(Fraction(lo), True, Fraction(hi), False)


def open_closed(lo, hi) -> Interval:
    return Interval(Fraction(lo), False, Fraction(hi), True)


def below(hi, closed: bool = False) -> Interval:
    """(-inf, hi) or (-inf, hi]."""
    return Interval(NEG_INF, False, Fraction(hi), closed)


def above(lo, closed: bool = False) -> Interval:
    """(lo, +inf) or [lo, +inf)."""
    return Interval(Fraction(lo), closed, POS_INF, False)


FULL_LINE = Interval(NEG_INF, False, POS_INF, False)


@dataclass(frozen=True, slots=True)
class Box:
    """Product of one interval per axis."""

    dims: tuple[Interval, ...]

    def __post_init__(self) -> None:
        if not self.dims:
            raise GeometryError("a box needs at least one axis")

    @property
    def n(self) -> int:
        return len(self.dims)

    def contains(self, point: Sequence[Fraction]) -> bool:
        if len(point) != self.n:
            raise GeometryError(f"point has {len(point)} coordinates, box has {self.n}")
        return all(iv.contains(x) for iv, x in zip(self.dims, point))

    def __str__(self) -> str:
        return "x".join(format_interval(iv) for iv in self.dims)


# --- canonicalization -------------------------------------------------------
#
# Atomic pieces of one axis, given sorted finite values v1 < ... < vm:
#   (-inf,v1), [v1,v1], (v1,v2), [v2,v2], ..., (vm,+inf)    (2m+1 pieces)
# With m = 0 the single piece is the full line.  Any interval whose finite
# endpoints are among the values decomposes exactly into a contiguous run of
# pieces; piece index arithmetic below exploits that.


def _pieces(values: Sequence[Fraction]) -> list[Interval]:
    if not values:
        return [FULL_LINE]
    out: list[Interval] = [Interval(NEG_INF, False, values[0], False)]
    for i, v in enumerate(values):
        out.append(Interval(v, True, v, True))
        if i + 1 < len(values):
            out.append(Interval(v, False, values[i + 1], False))
    out.append(Interval(values[-1], False, POS_INF, False))
    return out


def _piece_range(iv: Interval, values: Sequence[Fraction]) -> tuple[int, int]:
    """Inclusive piece-index range covered by ``iv`` (endpoints must be on grid)."""
    if not values:
        return (0, 0)
    if isinstance(iv.lo, _Infinity):
        start = 0
    else:
        pos = bisect_left(values, iv.lo)
        start = 2 * pos + 1 if iv.lo_closed else 2 * pos + 2
    if isinstance(iv.hi, _Infinity):
        end = 2 * len(values)
    else:
        pos = bisect_left(values, iv.hi)
        end = 2 * pos + 1 if iv.hi_closed else 2 * pos
    return (start, end)


def _adjacent(a: Interval, b: Interval) -> bool:
    """Whether ``a`` and ``b`` tile a single interval, ``a`` directly below ``b``."""
    return a.hi == b.lo and (a.hi_closed != b.lo_closed)


def _merge_run(a: Interval, b: Interval) -> Interval:
    return Interval(a.lo, a.lo_closed, b.hi, b.hi_closed)


def _canonical_boxes(n: int, boxes: Sequence[Box]) -> tuple[Box, ...]:
    for b in boxes:
        if b.n != n:
            raise GeometryError(f"box of dimension {b.n} in a {n}-dimensional region")
    if not boxes:
        return ()
    axis_values: list[list[Fraction]] = []
    for j in range(n):
        vals = set()
        for b in boxes:
            iv = b.dims[j]
            if is_finite(iv.lo):
                vals.add(iv.lo)
            if is_finite(iv.hi):
                vals.add(iv.hi)
        axis_values.append(sorted(vals))
    axis_pieces = [_pieces(vals) for vals in axis_values]

    occupied: set[tuple[int, ...]] = set()
    for b in boxes:
        ranges = [_piece_range(iv, axis_values[j]) for j, iv in enumerate(b.dims)]
        occupied.update(product(*[range(lo, hi + 1) for lo, hi in ranges]))

    # Cells as tuples of per-axis components; start from atomic pieces and
    # merge axis n-1 down to axis 0.
    cells: list[tuple[Interval, ...]] = [
        tuple(axis_pieces[j][idx[j]] for j in range(n)) for idx in sorted(occupied)
    ]
    for axis in range(n - 1, -1, -1):
        groups: dict[tuple, list[tuple[Interval, ...]]] = {}
        order: list[tuple] = []
        for cell in cells:
            key = tuple(cell[m] for m in range(n) if m != axis)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(cell)
        merged: list[tuple[Interval, ...]] = []
        for key in order:
            # cells in one group share every component except `axis`
            group = sorted(groups[key], key=lambda c: _sort_key_interval(c[axis]))
            run: Interval | None = None
            for cell in group:
                iv = cell[axis]
                if run is None:
                    run = iv
                elif _adjacent(run, iv):
                    run = _merge_run(run, iv)
                else:
                    merged.append(_rebuild(group[0], axis, run))
                    run = iv
            if run is not None:
                merged.append(_rebuild(group[0], axis, run))
        cells = merged
    out = [Box(c) for c in cells]
    out.sort(key=_sort_key_box)
    return tuple(out)


def _rebuild(cell: tuple[Interval, ...], axis: int, iv: Interval) -> tuple[Interval, ...]:
    parts = list(cell)
    parts[axis] = iv
    return tuple(parts)


def _ext_key(v: ExtRat) -> tuple[int, Fraction]:
    if isinstance(v, _Infinity):
        return (v.sign, Fraction(0))
    return (0, v)


def _sort_key_interval(iv: Interval) -> tuple:
    return (_ext_key(iv.lo), not iv.lo_closed, _ext_key(iv.hi), iv.hi_closed)


def _sort_key_box(b: Box) -> tuple:
    return tuple(_sort_key_interval(iv) for iv in b.dims)


class Region:
    """Finite union of boxes in canonical disjoint form."""

    __slots__ = ("n", "boxes")

    def __init__(self, n: int, boxes: Iterable[Box] = ()) -> None:
        if n < 1:
            raise GeometryError(f"dimension must be >= 1, got {n}")
        self.n = n
        self.boxes = _canonical_boxes(n, tuple(boxes))

    @classmethod
    def empty(cls, n: int) -> Region:
        return cls(n, ())

    @classmethod
    def full(cls, n: int) -> Region:
        return cls(n, (Box((FULL_LINE,) * n),))

    def is_empty(self) -> bool:
        return not self.boxes

    def contains(self, point: Sequence[Fraction]) -> bool:
        if len(point) != self.n:
            raise GeometryError(f"point has {len(point)} coordinates, region has {self.n}")
        return any(b.contains(point) for b in self.boxes)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Region) and self.n == other.n and self.boxes == other.boxes
        )

    def __hash__(self) -> int:
        return hash((self.n, self.boxes))

    def __str__(self) -> str:
        return format_region(self)

    def __repr__(self) -> str:
        return f"Region({self.n}, {format_region(self)!r})"


def _boolean_op(r1: Region, r2: Region, keep) -> Region:
    if r1.n != r2.n:
        raise GeometryError(f"dimension mismatch: {r1.n} vs {r2.n}")
    n = r1.n
    boxes = list(r1.boxes) + list(r2.boxes)
    if not boxes:
        return Region.empty(n)
    axis_values: list[list[Fraction]] = []
    for j in range(n):
        vals = set()
        for b in boxes:
            iv = b.dims[j]
            if is_finite(iv.lo):
                vals.add(iv.lo)
            if is_finite(iv.hi):
                vals.add(iv.hi)
        axis_values.append(sorted(vals))

    def cells_of(region: Region) -> set[tuple[int, ...]]:
        cells: set[tuple[int, ...]] = set()
        for b in region.boxes:
            ranges = [_piece_range(iv, axis_values[j]) for j, iv in enumerate(b.dims)]
            cells.update(product(*[range(lo, hi + 1) for lo, hi in ranges]))
        return cells

    kept = keep(cells_of(r1), cells_of(r2))
    pieces = [_pieces(vals) for vals in axis_values]
    out_boxes = [Box(tuple(pieces[j][idx[j]] for j in range(n))) for idx in kept]
    return Region(n, out_boxes)


def union(r1: Region, r2: Region) -> Region:
    return _boolean_op(r1, r2, lambda a, b: a | b)


def intersect(r1: Region, r2: Region) -> Region:
    return _boolean_op(r1, r2, lambda a, b: a & b)


def difference(r1: Region, r2: Region) -> Region:
    return _boolean_op(r1, r2, lambda a, b: a - b)


def complement(r: Region) -> Region:
    return difference(Region.full(r.n), r)


def region_equal(r1: Region, r2: Region) -> bool:
    if r1.n != r2.n:
        raise GeometryError(f"dimension mismatch: {r1.n} vs {r2.n}")
    return r1 == r2


def lower_orthant(point: Sequence) -> Region:
    """The open lower orthant prod_j (-inf, p_j)."""
    dims = tuple(below(Fraction(p)) for p in point)
    return Region(len(dims), (Box(dims),))


def halfopen_box(a: Sequence, b: Sequence) -> Region:
    """The half-open box prod_j [a_j, b_j); degenerate axes give the empty region."""
    if len(a) != len(b):
        raise GeometryError("corner dimension mismatch")
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    for x, y in zip(a, b):
        if x > y:
            raise GeometryError(f"lower corner exceeds upper corner: {x} > {y}")
    n = len(a)
    if any(x == y for x, y in zip(a, b)):
        return Region.empty(n)
    return Region(n, (Box(tuple(closed_open(x, y) for x, y in zip(a, b))),))


# --- textual form -----------------------------------------------------------


def format_rational(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _format_end(v: ExtRat) -> str:
    if v is NEG_INF:
        return "-inf"
    if v is POS_INF:
        return "+inf"
    return format_rational(v)


def format_interval(iv: Interval) -> str:
    left = "[" if iv.lo_closed else "("
    right = "]" if iv.hi_closed else ")"
    return f"{left}{_format_end(iv.lo)},{_format_end(iv.hi)}{right}"


def format_region(r: Region) -> str:
    if r.is_empty():
        return "empty"
    return " u ".join(str(b) for b in r.boxes)


_INTERVAL_RE = re.compile(
    r"^([\[\(])\s*([^,\]\)]+)\s*,\s*([^,\]\)]+)\s*([\]\)])$"
)


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise GeometryError(f"cannot parse rational: {text!r}") from exc


def _parse_end(text: str) -> ExtRat:
    t = text.strip()
    if t in ("-inf", "-infinity"):
        return NEG_INF
    if t in ("+inf", "inf", "+infinity"):
        return POS_INF
    return parse_rational(t)


def parse_interval(text: str) -> Interval:
    m = _INTERVAL_RE.match(text.strip())
    if m is None:
        raise GeometryError(f"cannot parse interval: {text!r}")
    lo = _parse_end(m.group(2))
    hi = _parse_end(m.group(3))
    return Interval(lo, m.group(1) == "[", hi, m.group(4) == "]")


def parse_box(text: str) -> Box:
    parts = text.strip().split("x")
    return Box(tuple(parse_interval(p) for p in parts))


def parse_region(text: str, n: int) -> Region:
    t = text.strip()
    if t == "empty":
        return Region.empty(n)
    boxes = [parse_box(p) for p in t.split(" u ")]
    return Region(n, boxes)


def parse_point(text: str) -> RatPoint:
    return tuple(parse_rational(p) for p in text.strip().split(","))
