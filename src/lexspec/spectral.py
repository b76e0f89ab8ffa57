"""Step-function spectral resolutions F: R^n -> [0, u] on a breakpoint grid.

``F`` is piecewise constant on left-open right-closed cells: along axis j with
breakpoints b_1 < ... < b_m the cells are (-inf, b_1], (b_1, b_2], ...,
(b_m, +inf), indexed 0..m.  Left-open right-closed cells make F left
continuous by construction.  Monotonicity, the boundary values, and the
nonnegative-increment (volume) conditions are checkable facts, not type
invariants, so pathological resolutions can be represented and studied.

F at a cell is the sum of the atomic masses at or below it.  A resolution
stores what it was built from, the value table ``F.table`` (from cells) or the
sparse map ``F.masses`` of nonzero masses (from an observable), and derives the
other on first read with one :func:`_sweep`, which reads the grid as one list
in cell order and each axis line as one strided slice of it.  Both hold flat
integer tuples ``(h, g_1, ..., g_d)``; ``LexElement`` objects are built only
for what is returned (``eval_F``, volumes, witnesses, and ``F.values``): an
additive extension sums its boxes' flat corner sums and builds one.

A point query (``eval_F``, corner sums, point masses) bisects one list of
:func:`boxgeom.order_key` keys per axis, derived with the resolution: it
compares ints, and ``Fraction`` values only within one unit interval.

Levels and blocks depend only on the at most k positive-height masses, so
:func:`height_grid` keeps only their breakpoints.
Every level and block analysis in :mod:`charpoints` is read off it.  Only a
table built from masses is capped, at ``MAX_DENSE_CELLS`` cells, when built.
"""

from __future__ import annotations

import json
import reprlib
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, combinations, islice, pairwise, product
from math import prod
from operator import add, sub
from typing import Iterable, Iterator, Mapping, Sequence

from .boxgeom import RatPoint, cell_ends, cell_region_text, order_key, rational
from .lexalg import AlgebraError, AlgebraSignature, LexElement, _in_unit, _nonneg
from .observable import (
    DiscreteObservable,
    ObservableError,
    _decode_cells,
    _decode_int,
    _decode_list,
    _decode_rational,
    _decode_signature,
    _encode_rational,
    json_text,
    make_observable,
)


class ResolutionError(ValueError):
    """Inconsistent grid shape, foreign values, or bad query bounds."""


CellIndex = tuple[int, ...]
Flat = tuple[int, ...]  # an element (h, g) as the flat tuple (h, g_1, ..., g_d)


class StepResolution:
    """A total map from grid cells to algebra elements: every cell's value in
    ``table`` and the nonzero masses in ``masses``, as flat tuples.  One of
    the two is passed in, the other derived on first read.  ``values`` builds
    a new ``{index: LexElement}`` dict on each access.  One list of
    :func:`boxgeom.order_key` keys per axis, derived when the resolution is
    built, is what every point query bisects.  Build with :func:`from_cells`
    or :func:`from_observable`."""

    __slots__ = ("signature", "n", "breakpoints", "_table", "_masses", "_keys")

    def __init__(
        self,
        signature: AlgebraSignature,
        n: int,
        breakpoints: Sequence[Sequence[Fraction]],
        table: Mapping[CellIndex, Flat] | None = None,
        masses: Mapping[CellIndex, Flat] | None = None,
    ) -> None:
        self.signature = signature
        self.n = n
        self.breakpoints = tuple(tuple(map(rational, axis)) for axis in breakpoints)
        self._table = None if table is None else dict(table)
        self._masses = None if masses is None else dict(masses)
        self._keys = [list(map(order_key, bs)) for bs in self.breakpoints]

    @property
    def table(self) -> dict[CellIndex, Flat]:
        """Every cell's value: the masses prefix-summed over all axes, on a capped grid."""
        if self._table is None:
            _check_dense([m + 1 for m in self.shape])
            self._table = dict.fromkeys(self.cells(), (0,) * (self.signature.d + 1))
            self._table.update(self._masses)
            _sweep(self._table, self.shape, range(self.n))
        return self._table

    @property
    def masses(self) -> dict[CellIndex, Flat]:
        """The nonzero atomic masses: ``table`` differenced over all axes."""
        if self._masses is None:
            diffs = dict(self._table)
            _sweep(diffs, self.shape, range(self.n), diff=True)
            self._masses = {idx: t for idx, t in diffs.items() if any(t)}
        return self._masses

    @property
    def values(self) -> dict[CellIndex, LexElement]:
        return {idx: _element(self.signature, t) for idx, t in self.table.items()}

    @property
    def shape(self) -> tuple[int, ...]:
        """Breakpoint count per axis; cell indices run 0..m_j inclusive."""
        return tuple(len(axis) for axis in self.breakpoints)

    def cells(self) -> Iterator[CellIndex]:
        return product(*[range(m + 1) for m in self.shape])

    def cell_of_point(self, point: Sequence[Fraction]) -> CellIndex:
        if len(point) != self.n:
            raise ResolutionError(f"point dimension {len(point)}, grid has {self.n}")
        return tuple(map(self._axis_cell, range(self.n), point))

    def _axis_cell(self, j: int, c) -> int:
        """Index of the axis-``j`` cell holding coordinate ``c``: the count of
        breakpoints below it, bisected in the axis's order keys."""
        return bisect_left(self._keys[j], order_key(rational(c)))

    def cell_rep(self, idx: CellIndex) -> RatPoint:
        """Deterministic representative point: the closed right end of each axis
        interval, or one past the last breakpoint on the top cell."""
        out = []
        for j, r in enumerate(idx):
            breaks = self.breakpoints[j]
            out.append(breaks[r] if r < len(breaks) else breaks[-1] + 1)
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StepResolution)
            and self.signature == other.signature
            and self.n == other.n
            and self.breakpoints == other.breakpoints
            and self.table == other.table
        )

    def __repr__(self) -> str:
        return f"StepResolution(n={self.n}, shape={self.shape}, k={self.signature.k})"


def from_cells(
    signature: AlgebraSignature,
    n: int,
    breakpoints: Sequence[Sequence[Fraction]],
    values: Mapping[CellIndex, LexElement],
) -> StepResolution:
    """Build a resolution without enforcing monotonicity or volume conditions.

    Shapes must be consistent and every value must lie in ``[0, u]``; anything
    beyond that is left to :func:`check_axioms`.
    """
    foreign = next((idx for idx, v in values.items() if v.signature != signature), None)
    if foreign is not None:
        raise ResolutionError(f"cell {foreign} value has a foreign signature")
    table = {idx: (v.h, *v.g) for idx, v in values.items()}
    return _checked_table(signature, n, breakpoints, table)


def _checked_table(
    signature: AlgebraSignature, n: int, breakpoints: Sequence[Sequence[Fraction]], table: dict
) -> StepResolution:
    """The resolution with the flat value table ``table``, once the grid, the
    cell map and every value in ``[0, u]`` pass."""
    if n < 1:
        raise ResolutionError(f"dimension must be >= 1, got {n}")
    if len(breakpoints) != n:
        raise ResolutionError(f"{len(breakpoints)} breakpoint axes for dimension {n}")
    F = StepResolution(signature, n, breakpoints, table=table)
    for j, keys in enumerate(F._keys):
        if not keys:
            raise ResolutionError(f"axis {j} needs at least one breakpoint")
        if any(a >= b for a, b in pairwise(keys)):
            raise ResolutionError(f"axis {j} breakpoints must be strictly increasing")
    # Indices and values are checked by builtins over whole columns; a pass
    # cell by cell runs only to name what is wrong.  Distinct in-shape keys,
    # as many as the grid has cells, are the whole grid; the grid itself is
    # never built, as it may be far larger than the map.  It has at least 2^n
    # cells, so the product is skipped when 2^n > len(table).
    shape = F.shape
    in_shape = set(map(len, table)) <= {n} and all(
        0 <= min(column) and max(column) <= m for column, m in zip(zip(*table), shape)
    )
    extra = [] if in_shape else sorted(
        idx for idx in table
        if len(idx) != n or not all(0 <= r <= m for r, m in zip(idx, shape))
    )
    given = len(table) - len(extra)
    total = None if n >= len(table).bit_length() else prod(m + 1 for m in shape)
    if extra or total != given:
        cells = product(*[range(m + 1) for m in shape])
        missing = list(islice((idx for idx in cells if idx not in table), 3))
        count = f"at least 2^{n} - {given}" if total is None else total - given
        raise ResolutionError(  # at most three indices, each cut to six axes
            f"cell map mismatch: missing {count} cells {reprlib.repr(missing)}, "
            f"extra {len(extra)} {reprlib.repr(extra[:3])}"
        )
    # A value of height <= 0 lies in [0, u] iff no component is negative, one
    # of height >= k iff its height is k and no g component is positive.
    k = signature.k
    low = chain.from_iterable(t for t in table.values() if t[0] <= 0)
    top = list(zip(*(t for t in table.values() if t[0] >= k)))
    if min(low, default=0) < 0 or (top and (max(top[0]) > k or max(map(max, top[1:])) > 0)):
        for idx, t in table.items():
            if not _in_unit(t, k):
                raise ResolutionError(
                    f"cell {idx} value {_element(signature, t)} lies outside [0, u]")
    return F


# Largest value table built from masses: (m+1)^n cells for m atoms in
# general position, so a small document can otherwise ask for billions.
MAX_DENSE_CELLS = 1 << 20


def _check_dense(counts: Sequence[int]) -> None:
    """Refuse a dense grid of more than ``MAX_DENSE_CELLS`` cells, given its
    cell count per axis.  Every axis has at least two cells, so more axes than
    log2(``MAX_DENSE_CELLS``) are refused before the counts are multiplied."""
    many = len(counts) >= MAX_DENSE_CELLS.bit_length()
    cells = f"at least 2^{len(counts)}" if many else prod(counts)
    if many or cells > MAX_DENSE_CELLS:
        raise ResolutionError(f"dense grid of {cells} cells exceeds the limit of {MAX_DENSE_CELLS}")


def from_observable(x: DiscreteObservable) -> StepResolution:
    """The spectral resolution of ``x``: cell value = mass strictly below the cell.

    Breakpoints are the distinct atom coordinates per axis, collected in a
    map keyed by ``as_integer_ratio()`` and sorted by
    :func:`boxgeom.order_key`; the value on a cell is the sum of the weights
    of atoms strictly dominated by any (hence every) point of the cell; the
    placed weights are its masses.  No table is built, so the grid has no
    size cap until ``F.table`` is read.
    """
    breaks = tuple(
        tuple(sorted({c.as_integer_ratio(): c for c in axis}.values(), key=order_key))
        for axis in zip(*(a.point for a in x.atoms))
    )
    return StepResolution(x.signature, x.n, breaks, masses=_placed(x, breaks))


def height_grid(F: StepResolution) -> StepResolution:
    """``F`` on the breakpoints of its positive-height masses, when ``F`` holds
    its masses, all >= 0, some of positive height and none on the border
    (index 0 on some axis); else, or when nothing is dropped, ``F``.

    Each height-0 mass moves up to the next kept breakpoint on every axis,
    summed per cell, or is dropped if above the last one on some axis: it is
    then at or below no kept point.  That keeps every level set and the sum of
    the masses at or below a kept point (a block's infimum).  Its table, at
    most (k + 1)^n cells, is capped like any.  Only :mod:`charpoints` calls it.
    It derives no masses: a table-built ``F`` keeps its grid in ``render`` and
    ``reconstruct``, which check no axioms (deriving them there cost 7-11%).
    """
    masses = F._masses
    if masses is None or not all(_nonneg(t) and 0 not in idx for idx, t in masses.items()):
        return F
    kept = [sorted(set(axis)) for axis in zip(*(idx for idx, t in masses.items() if t[0]))]
    if all(len(ks) == m for ks, m in zip(kept, F.shape)):
        return F
    moved: dict[CellIndex, Flat] = {}
    for idx, t in masses.items():
        cell = tuple(bisect_left(ks, r) + 1 for ks, r in zip(kept, idx))
        if all(r <= len(ks) for r, ks in zip(cell, kept)):
            moved[cell] = tuple(map(add, moved[cell], t)) if cell in moved else t
    breaks = [[bs[r - 1] for r in ks] for bs, ks in zip(F.breakpoints, kept)]
    return StepResolution(F.signature, F.n, breaks, masses=moved)


def _flat(v: LexElement, signature: AlgebraSignature) -> Flat:
    if v.signature != signature:
        raise AlgebraError(f"signature mismatch: {v.signature} vs {signature}")
    return (v.h, *v.g)


def _element(signature: AlgebraSignature, t: Flat) -> LexElement:
    return LexElement(signature, t[0], t[1:])


def _placed(x: DiscreteObservable, breaks: Sequence[Sequence[Fraction]]) -> dict[CellIndex, Flat]:
    """The masses of ``x`` on a grid whose breakpoints include every atom
    coordinate: each weight, nonzero, at the rank vector of its point, read
    from one ``{c.as_integer_ratio(): rank}`` map per axis."""
    sig = x.signature
    ranks = [{c.as_integer_ratio(): r for r, c in enumerate(bs, 1)} for bs in breaks]
    return {
        tuple(rank[c.as_integer_ratio()] for rank, c in zip(ranks, a.point)): _flat(a.weight, sig)
        for a in x.atoms
    }


def _sweep(
    values: dict[CellIndex, Flat],
    shape: Sequence[int],
    axes: Iterable[int],
    diff: bool = False,
) -> None:
    """Prefix-sum a map of flat cell values in place along each of ``axes``;
    with ``diff``, take first differences instead, reading cells below index 0
    as zero.  The map keeps its key order.

    The two undo each other (Moebius inversion on a product of chains): a
    resolution is the prefix sum over all axes of its atomic masses, so every
    volume and partial difference on the grid is a sum of masses.  This is the
    only place the grid is summed or differenced.  The map is read once into a
    list in ``product`` (cell) order, where each axis-j line is one extended
    slice ``flat[first:base + span:stride]`` (``stride`` is the cell count of
    the axes after j), read and written back whole; one update ends the sweep.
    """
    cells = list(product(*[range(m + 1) for m in shape]))
    flat = [values[idx] for idx in cells]
    for axis in axes:
        stride = prod(m + 1 for m in shape[axis + 1:])
        span = stride * (shape[axis] + 1)
        for base in range(0, len(flat), span):
            for first in range(base, base + stride):
                comps = zip(*flat[first:base + span:stride])
                if diff:
                    comps = [(c[0], *map(sub, c[1:], c)) for c in comps]
                else:
                    comps = map(accumulate, comps)
                flat[first:base + span:stride] = zip(*comps)
    values.update(zip(cells, flat))


def to_observable(F: StepResolution) -> DiscreteObservable:
    """The observable whose resolution is ``F``: each nonzero atomic mass
    placed at the lower breakpoint vector of its cell.

    A border cell (index 0 on some axis) with nonzero mass has no lower
    breakpoint vector and raises :class:`ResolutionError`; masses outside
    ``[0, u]`` or not summing to the unit raise :class:`ObservableError`.
    """
    atoms = []
    for idx, t in F.masses.items():
        if 0 in idx:
            raise ResolutionError(
                f"border cell {idx} carries mass {_element(F.signature, t)}, "
                "which no atom at a finite point gives"
            )
        point = tuple(F.breakpoints[j][r - 1] for j, r in enumerate(idx))
        atoms.append((point, _element(F.signature, t)))
    return make_observable(F.signature, F.n, atoms)


def eval_F(F: StepResolution, point: Sequence[Fraction]) -> LexElement:
    """Value of the unique cell containing ``point``."""
    return _element(F.signature, F.table[F.cell_of_point(point)])


def volume(F: StepResolution, bounds: Sequence[tuple[Fraction, Fraction]]) -> LexElement:
    """Alternating corner sum over the half-open box prod [a_j, b_j).

    Computed in the group: for resolutions that fail the volume condition the
    result may lie outside ``[0, u]``.
    """
    return _element(F.signature, _box_sum(F, bounds))


def _box_sum(F: StepResolution, bounds: Sequence[tuple[Fraction, Fraction]]) -> Flat:
    """:func:`volume` as a flat tuple."""
    if len(bounds) != F.n:
        raise ResolutionError(f"{len(bounds)} bounds for dimension {F.n}")
    return _corner_sum(F, dict(enumerate(bounds)), ())


def partial_delta(
    F: StepResolution,
    deltas: Mapping[int, tuple[Fraction, Fraction]],
    point: Sequence[Fraction],
) -> LexElement:
    """Alternating corner sum over a proper subset of axes, the rest fixed.

    ``deltas`` maps axis index to its (a, b) bounds; coordinates of ``point``
    on those axes are ignored.
    """
    if len(point) != F.n:
        raise ResolutionError(f"point dimension {len(point)}, grid has {F.n}")
    axes = sorted(deltas)
    if not 1 <= len(axes) < F.n:
        raise ResolutionError(
            f"need between 1 and {F.n - 1} delta axes in dimension {F.n}, got {len(axes)}"
        )
    if any(a < 0 or a >= F.n for a in axes):
        raise ResolutionError(f"axis out of range in {axes}")
    return _element(F.signature, _corner_sum(F, deltas, point))


def _corner_sum(
    F: StepResolution,
    deltas: Mapping[int, tuple[Fraction, Fraction]],
    point: Sequence[Fraction],
) -> Flat:
    """Sum of F over the corners of the bounds ``deltas`` (axis -> (a, b)), the
    other coordinates at ``point`` (unread when ``deltas`` has every axis); a
    corner has sign (-1)^(number of a's).

    Every corner lies in a grid cell, so the sum runs over ``F.table`` as a
    flat tuple; the bounds are compared on integer pairs.
    """
    ends = []
    for j, (a, b) in deltas.items():
        a, b = rational(a), rational(b)
        if a.numerator * b.denominator > b.numerator * a.denominator:
            raise ResolutionError(f"lower bound exceeds upper bound: {a} > {b}")
        ends.append((j, F._axis_cell(j, a), F._axis_cell(j, b)))
    cell = [0] * F.n if len(ends) == F.n else list(F.cell_of_point(point))
    table = F.table
    total: Flat = (0,) * (F.signature.d + 1)
    for eps in product((0, 1), repeat=len(ends)):
        for (j, lo, hi), e in zip(ends, eps):
            cell[j] = hi if e else lo
        op = sub if (len(ends) - sum(eps)) % 2 else add
        total = tuple(map(op, total, table[tuple(cell)]))
    return total


def point_mass_via_deltas(F: StepResolution, point: Sequence[Fraction]) -> LexElement:
    """Mass at a single point, as the small-box limit of iterated differences.

    For a step function the infimum over shrinking boxes [p_j, p_j + delta_j)
    is attained once p_j + delta_j stays inside the cell above p_j; half the
    gap to the next breakpoint (or 1 beyond the last) does it exactly.
    """
    p = [rational(c) for c in point]
    if len(p) != F.n:
        raise ResolutionError(f"point dimension {len(p)}, grid has {F.n}")
    bounds = []
    for j, c in enumerate(p):
        breaks = F.breakpoints[j]
        pos = F._axis_cell(j, c)
        if pos < len(breaks) and breaks[pos] == c:
            pos += 1
        delta = (breaks[pos] - c) / 2 if pos < len(breaks) else Fraction(1)
        bounds.append((c, c + delta))
    return volume(F, bounds)


def additive_extension(
    F: StepResolution, boxes: Sequence[Sequence[tuple[Fraction, Fraction]]]
) -> LexElement:
    """Sum of box volumes: the finitely additive extension to box unions.

    Callers supply pairwise disjoint half-open boxes; additivity of the corner
    sum makes the result independent of the chosen decomposition.  The flat
    box sums are added up and one element is built at the end.
    """
    total: Flat = (0,) * (F.signature.d + 1)
    for bounds in boxes:
        total = tuple(map(add, total, _box_sum(F, bounds)))
    return _element(F.signature, total)


# --- axiom checking ----------------------------------------------------------


@dataclass(slots=True)
class AxiomStatus:
    ok: bool
    note: str = ""
    witness: dict | None = None


@dataclass(slots=True)
class AxiomReport:
    statuses: dict[str, AxiomStatus] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.statuses.values())

    def to_doc(self) -> dict:
        return {
            name: {
                "ok": s.ok,
                **({"note": s.note} if s.note else {}),
                **({"witness": s.witness} if s.witness else {}),
            }
            for name, s in sorted(self.statuses.items())
        }


def _cell_doc(F: StepResolution, idx: CellIndex, t: Flat) -> dict:
    cell = cell_region_text(cell_ends(F.breakpoints), [idx])
    return {"index": list(idx), "cell": cell, "value": str(_element(F.signature, t))}


def check_axioms(F: StepResolution) -> AxiomReport:
    """Check the spectral-resolution conditions on the whole grid.

    Every value and difference of F is a sum of masses, so the masses settle
    the first four statuses without the value table:

    * top_unit: the all-maximal cell carries the unit (the value at +inf):
      the sum of all masses;
    * bottom_zero: cells minimal along some axis carry 0 (the value of F at
      -inf along each variable).  They sum border masses (index 0 on some
      axis) alone, so the first nonzero one is the least border mass cell;
    * left_continuity: structural, by the left-open right-closed cells;
    * volume_nonneg: every grid-aligned half-open box has nonnegative volume.
      By additivity of the corner sum this holds iff every atomic one-cell
      box does, that is every mass off the border; a failing atomic box is
      itself a witness box.  With bottom_zero and top_unit it also bounds
      every box volume by the unit;
    * monotone: F never decreases from a cell to the next along any axis;
    * partial_delta_nonneg: same reduction for every proper nonempty subset
      of axes with the remaining coordinates fixed anywhere on the grid.

    The last two hold when no mass is negative; otherwise they scan one table
    per axis set S, F differenced along S (single axes for monotone), built
    from ``F.table`` on first use.
    """
    report = AxiomReport()
    sig = F.signature
    shape = F.shape
    masses = F.masses
    all_axes = tuple(range(F.n))
    negative = sorted(idx for idx, t in masses.items() if not _nonneg(t))

    @cache
    def first_negative(axes: tuple[int, ...]) -> tuple[CellIndex, Flat] | None:
        """First negative entry of F differenced along ``axes``, in ``product``
        order, with its index; indices run from 1 on ``axes``, where a
        difference needs the cell below.  A table is dropped after its scan."""
        if axes == all_axes:
            return next(((idx, masses[idx]) for idx in negative if 0 not in idx), None)
        table = dict(F.table)
        _sweep(table, shape, axes, diff=True)
        ranges = [range(1 if j in axes else 0, m + 1) for j, m in enumerate(shape)]
        return next(
            ((idx, table[idx]) for idx in product(*ranges) if not _nonneg(table[idx])), None
        )

    mono = AxiomStatus(True)
    # Each axis's first decrease is its least index, so the least (index,
    # axis) pair is the first decrease in F.cells() order, axes in order.
    drops = sorted(
        (neg[0], j) for j in (all_axes if negative else ())
        if (neg := first_negative((j,)))
    )
    if drops:
        idx, j = drops[0]
        prev = idx[:j] + (idx[j] - 1,) + idx[j + 1 :]
        lower, upper = (_cell_doc(F, c, F.table[c]) for c in (prev, idx))
        mono = AxiomStatus(False, witness={"axis": j, "lower": lower, "upper": upper})
    report.statuses["monotone"] = mono

    border = min((idx for idx in masses if 0 in idx), default=None)
    report.statuses["bottom_zero"] = AxiomStatus(
        border is None,
        witness=None if border is None else _cell_doc(F, border, masses[border]),
    )

    top = tuple(map(sum, zip(*masses.values()))) or _flat(sig.zero, sig)
    top_ok = top == _flat(sig.unit, sig)
    report.statuses["top_unit"] = AxiomStatus(
        top_ok,
        witness=None if top_ok else _cell_doc(F, shape, top),
    )

    report.statuses["left_continuity"] = AxiomStatus(
        True, note="holds by construction: cells are left open, right closed"
    )

    vol = AxiomStatus(True, note="checked on atomic boxes; additivity covers the rest")
    neg = first_negative(all_axes)
    if neg:
        bad, mass = neg
        ends = zip(F.breakpoints, bad, F.cell_rep(bad))
        vol = AxiomStatus(
            False,
            witness={
                "box": [[str(bs[r - 1]), str(hi)] for bs, r, hi in ends],
                "volume": str(_element(sig, mass)),
            },
        )
    report.statuses["volume_nonneg"] = vol

    if F.n == 1:
        report.statuses["partial_delta_nonneg"] = AxiomStatus(
            True, note="vacuous in dimension 1"
        )
    else:
        pd = AxiomStatus(True, note="checked on atomic boxes per axis subset")
        subsets = (axes for size in range(1, F.n) for axes in combinations(all_axes, size))
        for axes in subsets if negative else ():
            neg = first_negative(axes)
            if neg:
                idx, d = neg
                witness = {"axes": list(axes), "index": list(idx), "delta": str(_element(sig, d))}
                pd = AxiomStatus(False, witness=witness)
                break
        report.statuses["partial_delta_nonneg"] = pd

    return report


# --- JSON form ---------------------------------------------------------------


def resolution_to_doc(F: StepResolution) -> dict:
    return {
        "kind": "resolution",
        "k": F.signature.k,
        "d": F.signature.d,
        "n": F.n,
        "breakpoints": [[_encode_rational(b) for b in axis] for axis in F.breakpoints],
        "cells": [
            {"index": list(idx), "value": {"h": t[0], "g": list(t[1:])}}
            for idx, t in sorted(F.table.items())
        ],
    }


def resolution_from_doc(doc: dict) -> StepResolution:
    try:
        signature = _decode_signature(doc)
        n = _decode_int(doc["n"])
        axes = _decode_list(doc["breakpoints"])
        breakpoints = [[_decode_rational(b) for b in _decode_list(axis)] for axis in axes]
        table = _decode_cells(_decode_list(doc["cells"]), signature.d)
    except (KeyError, TypeError, ValueError, ObservableError) as exc:
        raise ResolutionError(f"bad resolution document: {exc}") from exc
    if len(doc["cells"]) != len(table):
        raise ResolutionError("bad resolution document: a cell index is listed twice")
    return _checked_table(signature, n, breakpoints, table)


def resolution_to_json(F: StepResolution) -> str:
    return json_text(resolution_to_doc(F))


def resolution_from_json(text: str) -> StepResolution:
    return resolution_from_doc(json.loads(text))
