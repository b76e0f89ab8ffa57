"""Exact geometry of axis-aligned boxes and finite box unions in R^n.

Coordinates are exact rationals with explicit +/- infinity sentinels; every
interval endpoint carries its own closure flag.  :func:`rational` is the one
gate for a caller's coordinate, here and in ``observable`` and ``spectral``: it
passes a ``Fraction``, turns an ``int`` into one and refuses anything else.  A
:class:`Region` is a finite union of boxes kept in a canonical disjoint form,
so two regions describe the same point set iff their representations are
identical.

Exact coordinates are sorted by :func:`order_key`, (floor, value): sorts
compare ints and reach a ``Fraction`` comparison only between two values in
one unit interval.  Coordinate lists are sorted that way here and in
``observable`` and ``spectral``, and ranked through maps keyed by
``v.as_integer_ratio()``, which equal values share, not by hashing a
``Fraction``; only a point query that may fall between breakpoints bisects.

Canonical form: rank the finite endpoint values of each axis once, keyed by
their reduced integer pair (numerator, denominator); every interval is then
a run of integer piece indices on the induced grid of atomic cells (isolated
points and open gaps).  Keep the occupied cells, greedily merge adjacent runs
along the last axis, then the one before it, and so on, and build intervals
only for the final runs.  The result is deterministic; compactness is not a
goal.  A lone box is its own canonical form and is kept as given.
:func:`complement` merges the cells of its operand's own grid that it
misses.  The other boolean operations pick atomic cells on the common grid
of both operands.  When those are exactly one operand's cells, that operand
is the result, since canonical text is the same on every grid that refines
its own; otherwise they rank the cells again with ``Region(...)``: the
benchmark's instrumentation test counts that call, so emitting the merged
runs directly waits for a benchmark change (ROADMAP.md, item 5).

Cells of a left-open right-closed breakpoint grid print straight from their
merged cell runs (:func:`cell_region_text`): on an axis with m breakpoints,
cells r0 .. r1 are pieces 2r0 .. min(2r1+1, 2m), a map strictly increasing in
both ends, so the text is canonical; :func:`parse_region` reads the
:class:`Region` back.  Runs are nonempty on sorted distinct values, so their
intervals are valid by construction and skip ``Interval`` validation.
"""

from __future__ import annotations

import re
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


def rational(x) -> Fraction:
    """``x`` as an exact coordinate: a ``Fraction`` as is, an ``int`` (not a
    ``bool``) as a ``Fraction``; anything else raises :class:`GeometryError`."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise GeometryError(f"a coordinate or interval end must be an int or a Fraction, got {x!r}")


def order_key(v: Fraction) -> tuple[int, Fraction]:
    """Sort key of an exact coordinate: ``(floor(v), v)``.  Floor is monotone,
    so the key orders exactly like ``v``, with no float and no overflow."""
    return (v.numerator // v.denominator, v)


@dataclass(frozen=True, slots=True)
class Interval:
    """Nonempty interval of R with per-endpoint closure; infinite ends are open."""

    lo: ExtRat
    lo_closed: bool
    hi: ExtRat
    hi_closed: bool

    def __post_init__(self) -> None:
        for end in (self.lo, self.hi):
            if not isinstance(end, _Infinity):
                rational(end)  # raises for an inexact end
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
    return Interval(rational(lo), True, rational(hi), False)


def open_closed(lo, hi) -> Interval:
    return Interval(rational(lo), False, rational(hi), True)


def below(hi, closed: bool = False) -> Interval:
    """(-inf, hi) or (-inf, hi]."""
    return Interval(NEG_INF, False, rational(hi), closed)


def above(lo, closed: bool = False) -> Interval:
    """(lo, +inf) or [lo, +inf)."""
    return Interval(rational(lo), closed, POS_INF, False)


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
# Atomic pieces of one axis, given sorted finite values v_0 < ... < v_{m-1}:
#   (-inf,v_0), [v_0,v_0], (v_0,v_1), [v_1,v_1], ..., (v_{m-1},+inf)
# are numbered 0 .. 2m: piece 2r+1 is the point v_r and piece 2r the open gap
# below it.  With m = 0 the single piece 0 is the full line.  An interval whose
# finite endpoints are among the values is the contiguous run of pieces
# (lo, hi) with
#   lo = 0 for -inf, 2r+1 for a closed end at v_r, 2r+2 for an open one;
#   hi = 2m for +inf, 2r+1 for a closed end at v_r, 2r for an open one.
# Two runs tile one interval iff the second starts at the first's hi + 1, and
# the order of runs as (lo, hi) pairs is the order of their intervals by
# (lower end, lower end open, upper end, upper end closed).


def _grid(
    n: int, box_lists: Sequence[Sequence[Box]]
) -> tuple[list[list[Fraction]], list[set[tuple[int, ...]]]]:
    """Sorted finite endpoints per axis over all ``box_lists``, and the set of
    atomic cells (tuples of piece indices) each list covers on that grid.
    Endpoints are keyed by ``v.as_integer_ratio()``, which equal values share,
    and sorted by :func:`order_key`."""
    axis_ends: list[dict[tuple[int, int], Fraction]] = [{} for _ in range(n)]
    for boxes in box_lists:
        for b in boxes:
            if b.n != n:
                raise GeometryError(f"box of dimension {b.n} in a {n}-dimensional region")
            for ends, iv in zip(axis_ends, b.dims):
                if iv.lo is not NEG_INF:
                    ends.setdefault(iv.lo.as_integer_ratio(), iv.lo)
                if iv.hi is not POS_INF:
                    ends.setdefault(iv.hi.as_integer_ratio(), iv.hi)
    values = [sorted(ends.values(), key=order_key) for ends in axis_ends]
    ranks = [{v.as_integer_ratio(): r for r, v in enumerate(vals)} for vals in values]
    tops = [2 * len(vals) for vals in values]
    cell_sets = []
    for boxes in box_lists:
        cells: set[tuple[int, ...]] = set()
        for b in boxes:
            ranges = []
            for rank, top, iv in zip(ranks, tops, b.dims):
                lo = 0 if iv.lo is NEG_INF else (
                    2 * rank[iv.lo.as_integer_ratio()] + (1 if iv.lo_closed else 2))
                hi = top if iv.hi is POS_INF else (
                    2 * rank[iv.hi.as_integer_ratio()] + (1 if iv.hi_closed else 0))
                ranges.append(range(lo, hi + 1))
            cells.update(product(*ranges))
        cell_sets.append(cells)
    return values, cell_sets


# Slot setters of the frozen Interval, for intervals valid by construction.
_set_lo, _set_lo_closed = Interval.lo.__set__, Interval.lo_closed.__set__
_set_hi, _set_hi_closed = Interval.hi.__set__, Interval.hi_closed.__set__


def _run_interval(vals: Sequence[Fraction], lo: int, hi: int) -> Interval:
    """The interval covered by the nonempty run of pieces ``lo`` .. ``hi`` of
    ``vals``, built without ``Interval.__post_init__``."""
    iv = object.__new__(Interval)
    _set_lo(iv, NEG_INF if lo == 0 else vals[(lo - 1) // 2])
    _set_lo_closed(iv, lo % 2 == 1)
    _set_hi(iv, POS_INF if hi == 2 * len(vals) else vals[hi // 2])
    _set_hi_closed(iv, hi % 2 == 1)
    return iv


def _merged_runs(n: int, cells: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Sorted canonical runs of a set of integer cells: merge maximal runs of
    adjacent indices along axis n-1, then n-2, and so on down to axis 0.

    Before axis j is merged, a cell is the flat tuple (p_0, ..., p_j, lo_{j+1},
    hi_{j+1}, ..., lo_{n-1}, hi_{n-1}): single indices up to axis j, runs above
    it.  Merging turns p_j into lo_j, hi_j, so at the end every cell is a run
    (lo_0, hi_0, ..., lo_{n-1}, hi_{n-1}) and their integer order is the box
    order.  ``cells`` must hold no duplicates.
    """
    runs = cells
    for axis in range(n - 1, -1, -1):
        groups: dict[tuple[int, ...], list[int]] = {}
        for cell in runs:
            groups.setdefault(cell[:axis] + cell[axis + 1:], []).append(cell[axis])
        runs = []
        for rest, indices in groups.items():
            indices.sort()
            head, tail = rest[:axis], rest[axis:]
            start = prev = indices[0]
            for p in indices[1:]:
                if p != prev + 1:
                    runs.append(head + (start, prev) + tail)
                    start = p
                prev = p
            runs.append(head + (start, prev) + tail)
    return sorted(runs)


def _merged_boxes(
    values: Sequence[Sequence[Fraction]], cells: Iterable[tuple[int, ...]]
) -> tuple[Box, ...]:
    """Canonical boxes of a set of atomic cells (tuples of piece indices)."""
    return tuple(
        Box(tuple(_run_interval(vals, *run[2 * j:2 * j + 2]) for j, vals in enumerate(values)))
        for run in _merged_runs(len(values), cells)
    )


class Region:
    """Finite union of boxes in canonical disjoint form.

    Regions are never mutated, so an operation may return an operand as its
    result and callers may share it."""

    __slots__ = ("n", "boxes")

    def __init__(self, n: int, boxes: Iterable[Box] = ()) -> None:
        if n < 1:
            raise GeometryError(f"dimension must be >= 1, got {n}")
        self.n = n
        boxes = tuple(boxes)
        if len(boxes) <= 1 and all(b.n == n for b in boxes):
            self.boxes = boxes  # a single box is its own canonical form
            return
        values, (cells,) = _grid(n, (boxes,))
        self.boxes = _merged_boxes(values, cells)

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


def cell_ends(breakpoints: Sequence[Sequence[Fraction]]) -> list[tuple[list[str], list[str]]]:
    """Per axis of the grid on ``breakpoints``, the text a cell run prints at
    its lower end, by start index (``(-inf``, ``(b_0``, ...), and at its upper
    end, by end index (``b_0]``, ..., ``+inf)``)."""
    texts = [[format_rational(b) for b in bs] for bs in breakpoints]
    return [(["(-inf", *["(" + t for t in ts]], [*[t + "]" for t in ts], "+inf)"]) for ts in texts]


def cell_region_text(
    ends: Sequence[tuple[Sequence[str], Sequence[str]]], cells: Iterable[tuple[int, ...]]
) -> str:
    """Canonical text of the union of distinct ``cells`` of the grid on
    ``breakpoints``, whose cell r of an axis is (b_{r-1}, b_r] (b_{-1} = -inf,
    b_m = +inf), given ``ends = cell_ends(breakpoints)``: printed from the
    merged cell runs, with no box, interval or formatted rational."""
    return " u ".join(
        "x".join([lo[run[2 * j]] + "," + hi[run[2 * j + 1]] for j, (lo, hi) in enumerate(ends)])
        for run in _merged_runs(len(ends), cells)
    ) or "empty"


def _boolean_op(r1: Region, r2: Region, keep) -> Region:
    """``keep`` picks atomic cells from the two regions' cells on their common
    grid.  An operand that covers exactly the kept cells is the result, as
    canonical text is the same on every grid that refines its own; otherwise
    the result is canonicalized from the kept cells."""
    if r1.n != r2.n:
        raise GeometryError(f"dimension mismatch: {r1.n} vs {r2.n}")
    values, (cells1, cells2) = _grid(r1.n, (r1.boxes, r2.boxes))
    kept = keep(cells1, cells2)
    if kept == cells1:
        return r1
    if kept == cells2:
        return r2
    pieces = [[_run_interval(vals, p, p) for p in range(2 * len(vals) + 1)] for vals in values]
    return Region(r1.n, [Box(tuple(axis[p] for axis, p in zip(pieces, cell))) for cell in kept])


def union(r1: Region, r2: Region) -> Region:
    return _boolean_op(r1, r2, lambda a, b: a | b)


def intersect(r1: Region, r2: Region) -> Region:
    return _boolean_op(r1, r2, lambda a, b: a & b)


def difference(r1: Region, r2: Region) -> Region:
    return _boolean_op(r1, r2, lambda a, b: a - b)


def complement(r: Region) -> Region:
    """The cells of ``r``'s own grid that ``r`` misses, merged once."""
    values, (cells,) = _grid(r.n, (r.boxes,))
    everything = product(*(range(2 * len(vals) + 1) for vals in values))
    region = object.__new__(Region)
    region.n = r.n
    region.boxes = _merged_boxes(values, [cell for cell in everything if cell not in cells])
    return region


def lower_orthant(point: Sequence) -> Region:
    """The open lower orthant prod_j (-inf, p_j)."""
    dims = tuple(below(p) for p in point)
    return Region(len(dims), (Box(dims),))


def halfopen_box(a: Sequence, b: Sequence) -> Region:
    """The half-open box prod_j [a_j, b_j); degenerate axes give the empty region."""
    if len(a) != len(b):
        raise GeometryError("corner dimension mismatch")
    a = [rational(x) for x in a]
    b = [rational(x) for x in b]
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
    return " u ".join(str(b) for b in r.boxes) or "empty"


_INTERVAL_RE = re.compile(
    r"^([\[\(])\s*([^,\]\)]+)\s*,\s*([^,\]\)]+)\s*([\]\)])$"
)
_RATIONAL_RE = re.compile(r"\s*[+-]?(?:[0-9]+(?:/[0-9]+|\.[0-9]*)?|\.[0-9]+)\s*")


def parse_rational(text: str) -> Fraction:
    """An integer, ``p/q`` or decimal in ASCII digits, alike on every Python; no
    exponent notation, as ``Fraction`` would build the power of ten (for seconds).
    Once the grammar matched, an integer or ``p/q`` is read with ``int`` and
    only a decimal is parsed again by ``Fraction``."""
    if _RATIONAL_RE.fullmatch(text) is None:
        raise GeometryError(f"cannot parse rational {text!r}: not digits, p/q or a decimal "
                            "(exponent notation is not accepted)")
    try:
        if "." in text:
            return Fraction(text)
        num, _, den = text.strip().partition("/")  # int() refuses some white space \s allows
        return Fraction(int(num), int(den or 1))
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
