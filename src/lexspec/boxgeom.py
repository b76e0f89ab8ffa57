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
``Fraction``.  A point query that may fall between breakpoints bisects a
list of their order keys (``spectral`` keeps one per axis), and containment
compares a point with interval ends on integer pairs: p/q lies above a/b
iff p * b > a * q, for positive denominators.

Canonical form: each finite interval end cuts its axis just below or just
above its value, and the cuts of each axis are ranked once, keyed by the
value's reduced integer pair (numerator, denominator) and the side.  Every
interval is then a run of integer piece indices on the grid of atomic cells
between cuts, c + 1 pieces per axis for c distinct cuts.  Keep the occupied
cells, greedily merge adjacent runs along the last axis, then the one before
it, and so on, and build intervals only for the final runs.  The result is
deterministic and the same on every grid that resolves the set; compactness
is not a goal.  A lone box is its own canonical form and is kept as given.
:func:`complement` merges the cells of its operand's own grid that it
misses.  The other boolean operations pick atomic cells on the common grid
of both operands.  When those are exactly one operand's cells, that operand
is the result, since canonical text is the same on every grid that refines
its own; otherwise they rank the cells again with ``Region(...)``: the
benchmark's instrumentation test counts that call, so emitting the merged
runs directly waits for a benchmark change (ROADMAP.md, item 5).

Cells of a left-open right-closed breakpoint grid print straight from their
merged cell runs (:func:`cell_region_text`): such cells cut each axis just
above its breakpoints only, so cell r is piece r of their cut grid and the
text is canonical; :func:`parse_region` reads the :class:`Region` back.  Runs
are nonempty on sorted distinct cuts, so their intervals are valid by
construction and skip ``Interval`` validation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from itertools import chain, product
from typing import Collection, Iterable, Sequence, Union


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
        lo, hi = self.lo, self.hi
        if isinstance(lo, _Infinity) and (lo is not NEG_INF or self.lo_closed):
            raise GeometryError("lower end may only be an open -inf")
        if isinstance(hi, _Infinity) and (hi is not POS_INF or self.hi_closed):
            raise GeometryError("upper end may only be an open +inf")
        if lo is not NEG_INF:
            rational(lo)  # raises for an inexact end
        if hi is not POS_INF:
            rational(hi)
        if not (lo is NEG_INF or hi is POS_INF or lo < hi
                or (lo == hi and self.lo_closed and self.hi_closed)):
            raise GeometryError(f"empty interval: {self}")

    def contains(self, x: Fraction) -> bool:
        return _holds(self, *rational(x).as_integer_ratio())

    def __str__(self) -> str:
        return format_interval(self)


def _holds(iv: Interval, p: int, q: int) -> bool:
    """Whether ``iv`` contains p/q (q > 0), on integer cross-products: an end
    a/b (b > 0) lies below p/q iff a * q < p * b."""
    lo, hi = iv.lo, iv.hi
    if lo is not NEG_INF:
        a, b = lo.numerator * q, p * lo.denominator
        if a > b or (a == b and not iv.lo_closed):
            return False
    if hi is POS_INF:
        return True
    a, b = p * hi.denominator, hi.numerator * q
    return a < b or (a == b and iv.hi_closed)


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
# A cut (v, side) splits an axis just below v (side 0: the ends ``[v`` and
# ``v)``) or just above it (side 1: ``(v`` and ``v]``).  Sorted distinct cuts
# c_0 < ... < c_{m-1}, ordered by (value, side), bound the atomic pieces 0 .. m:
# piece i lies between c_{i-1} and c_i (c_{-1} = -inf, c_m = +inf), and is the
# point [v,v] when those are the two cuts of v.  An interval whose finite ends
# are among the cuts is the contiguous run of pieces (lo, hi) with
#   lo = 0 for -inf, i + 1 for an end at cut c_i;
#   hi = m for +inf, i for an end at cut c_i.
# Two runs tile one interval iff the second starts at the first's hi + 1, and
# the order of runs as (lo, hi) pairs is the order of their intervals by
# (lower end, lower end open, upper end, upper end closed).

Cut = tuple[Fraction, int]


def _grid(
    n: int, box_lists: Sequence[Sequence[Box]]
) -> tuple[list[list[Cut]], list[set[tuple[int, ...]]]]:
    """Sorted cuts per axis over all ``box_lists``, and the set of atomic
    cells (tuples of piece indices) each list covers on that grid.  A cut is
    keyed by ``(v.as_integer_ratio(), side)``, which equal values share, and
    sorted by ``(order_key(v), side)``."""
    axis_cuts: list[dict[tuple[tuple[int, int], int], Cut]] = [{} for _ in range(n)]
    for boxes in box_lists:
        for b in boxes:
            if b.n != n:
                raise GeometryError(f"box of dimension {b.n} in a {n}-dimensional region")
            for cuts, iv in zip(axis_cuts, b.dims):
                if iv.lo is not NEG_INF:
                    side = 0 if iv.lo_closed else 1
                    cuts.setdefault((iv.lo.as_integer_ratio(), side), (iv.lo, side))
                if iv.hi is not POS_INF:
                    side = 1 if iv.hi_closed else 0
                    cuts.setdefault((iv.hi.as_integer_ratio(), side), (iv.hi, side))
    cuts = [sorted(c.values(), key=lambda c: (order_key(c[0]), c[1])) for c in axis_cuts]
    ranks = [{(v.as_integer_ratio(), side): r for r, (v, side) in enumerate(cs)} for cs in cuts]
    tops = [len(cs) for cs in cuts]
    cell_sets = []
    for boxes in box_lists:
        cells: set[tuple[int, ...]] = set()
        for b in boxes:
            ranges = []
            for rank, top, iv in zip(ranks, tops, b.dims):
                lo = 0 if iv.lo is NEG_INF else (
                    rank[iv.lo.as_integer_ratio(), 0 if iv.lo_closed else 1] + 1)
                hi = top if iv.hi is POS_INF else (
                    rank[iv.hi.as_integer_ratio(), 1 if iv.hi_closed else 0])
                ranges.append(range(lo, hi + 1))
            cells.update(product(*ranges))
        cell_sets.append(cells)
    return cuts, cell_sets


# Slot setters of the frozen Interval, for intervals valid by construction.
_set_lo, _set_lo_closed = Interval.lo.__set__, Interval.lo_closed.__set__
_set_hi, _set_hi_closed = Interval.hi.__set__, Interval.hi_closed.__set__


def _valid_interval(lo: ExtRat, lo_closed: bool, hi: ExtRat, hi_closed: bool) -> Interval:
    """An interval whose ends the caller has checked, without ``__post_init__``."""
    iv = object.__new__(Interval)
    _set_lo(iv, lo)
    _set_lo_closed(iv, lo_closed)
    _set_hi(iv, hi)
    _set_hi_closed(iv, hi_closed)
    return iv


def _run_interval(cuts: Sequence[Cut], lo: int, hi: int) -> Interval:
    """The interval covered by the nonempty run of pieces ``lo`` .. ``hi``
    between ``cuts``, valid by construction."""
    lo_end, lo_side = cuts[lo - 1] if lo else (NEG_INF, 1)  # infinite ends are open
    hi_end, hi_side = cuts[hi] if hi < len(cuts) else (POS_INF, 0)
    return _valid_interval(lo_end, lo_side == 0, hi_end, hi_side == 1)


def _merged_runs(n: int, cells: Collection[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Sorted canonical runs of a set of integer cells: merge maximal runs of
    adjacent indices along axis n-1, then n-2, and so on down to axis 0.

    Before axis j is merged, a cell is the flat tuple (p_0, ..., p_j, lo_{j+1},
    hi_{j+1}, ..., lo_{n-1}, hi_{n-1}): single indices up to axis j, runs above
    it.  Merging turns p_j into lo_j, hi_j, so at the end every cell is a run
    (lo_0, hi_0, ..., lo_{n-1}, hi_{n-1}) and their integer order is the box
    order.  ``cells`` must hold no duplicates.  One cell is its own run.
    """
    if len(cells) == 1:
        (cell,) = cells
        return [tuple(chain.from_iterable(zip(cell, cell)))]
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
    cuts: Sequence[Sequence[Cut]], cells: Collection[tuple[int, ...]]
) -> tuple[Box, ...]:
    """Canonical boxes of a set of atomic cells (tuples of piece indices)."""
    return tuple(
        Box(tuple(_run_interval(cs, *run[2 * j:2 * j + 2]) for j, cs in enumerate(cuts)))
        for run in _merged_runs(len(cuts), cells)
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
        cuts, (cells,) = _grid(n, (boxes,))
        self.boxes = _merged_boxes(cuts, cells)

    @classmethod
    def empty(cls, n: int) -> Region:
        return cls(n, ())

    @classmethod
    def full(cls, n: int) -> Region:
        return cls(n, (Box((FULL_LINE,) * n),))

    def is_empty(self) -> bool:
        return not self.boxes

    def contains(self, point: Sequence[Fraction]) -> bool:
        """Membership, each coordinate gated once and tested as an integer pair."""
        if len(point) != self.n:
            raise GeometryError(f"point has {len(point)} coordinates, region has {self.n}")
        ps, qs = zip(*(rational(x).as_integer_ratio() for x in point))
        return any(all(map(_holds, b.dims, ps, qs)) for b in self.boxes)

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
    ends: Sequence[tuple[Sequence[str], Sequence[str]]], cells: Collection[tuple[int, ...]]
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
    cuts, (cells1, cells2) = _grid(r1.n, (r1.boxes, r2.boxes))
    kept = keep(cells1, cells2)
    if kept == cells1:
        return r1
    if kept == cells2:
        return r2
    pieces = [[_run_interval(cs, p, p) for p in range(len(cs) + 1)] for cs in cuts]
    return Region(r1.n, [Box(tuple(axis[p] for axis, p in zip(pieces, cell))) for cell in kept])


def union(r1: Region, r2: Region) -> Region:
    return _boolean_op(r1, r2, lambda a, b: a | b)


def intersect(r1: Region, r2: Region) -> Region:
    return _boolean_op(r1, r2, lambda a, b: a & b)


def difference(r1: Region, r2: Region) -> Region:
    return _boolean_op(r1, r2, lambda a, b: a - b)


def complement(r: Region) -> Region:
    """The cells of ``r``'s own grid that ``r`` misses, merged once."""
    cuts, (cells,) = _grid(r.n, (r.boxes,))
    everything = product(*(range(len(cs) + 1) for cs in cuts))
    region = object.__new__(Region)
    region.n = r.n
    region.boxes = _merged_boxes(cuts, [cell for cell in everything if cell not in cells])
    return region


def lower_orthant(point: Sequence) -> Region:
    """The open lower orthant prod_j (-inf, p_j)."""
    dims = tuple(below(p) for p in point)
    return Region(len(dims), (Box(dims),))


def halfopen_box(a: Sequence, b: Sequence) -> Region:
    """The half-open box prod_j [a_j, b_j); degenerate axes give the empty region.
    Every axis's corners are compared, on integer pairs, before either result."""
    if len(a) != len(b):
        raise GeometryError("corner dimension mismatch")
    a = [rational(x) for x in a]
    b = [rational(x) for x in b]
    degenerate = False
    for x, y in zip(a, b):
        (p, q), (r, s) = x.as_integer_ratio(), y.as_integer_ratio()
        if p * s > r * q:
            raise GeometryError(f"lower corner exceeds upper corner: {x} > {y}")
        degenerate = degenerate or p * s == r * q
    n = len(a)
    if degenerate:
        return Region.empty(n)
    return Region(n, (Box(tuple(_valid_interval(x, True, y, False) for x, y in zip(a, b))),))


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
