"""Step-function spectral resolutions F: R^n -> [0, u] on a breakpoint grid.

``F`` is piecewise constant on left-open right-closed cells: along axis j with
breakpoints b_1 < ... < b_m the cells are (-inf, b_1], (b_1, b_2], ...,
(b_m, +inf), indexed 0..m.  Left-open right-closed cells make F left
continuous by construction.  Monotonicity, the boundary values, and the
nonnegative-increment (volume) conditions are checkable facts, not type
invariants, so pathological resolutions can be represented and studied.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, islice, product
from math import prod
from typing import Iterable, Iterator, Mapping, Sequence

from .boxgeom import (
    NEG_INF,
    POS_INF,
    Box,
    Interval,
    RatPoint,
)
from .lexalg import (
    AlgebraSignature,
    LexElement,
    group_add,
    group_sub,
    in_unit_interval,
)
from .observable import (
    DiscreteObservable,
    ObservableError,
    _decode_element,
    _decode_int,
    _decode_rational,
    _encode_rational,
)


class ResolutionError(ValueError):
    """Inconsistent grid shape, foreign values, or bad query bounds."""


CellIndex = tuple[int, ...]


class StepResolution:
    """A total map from grid cells to algebra elements."""

    __slots__ = ("signature", "n", "breakpoints", "values")

    def __init__(
        self,
        signature: AlgebraSignature,
        n: int,
        breakpoints: Sequence[Sequence[Fraction]],
        values: Mapping[CellIndex, LexElement],
    ) -> None:
        self.signature = signature
        self.n = n
        self.breakpoints = tuple(tuple(Fraction(b) for b in axis) for axis in breakpoints)
        self.values = dict(values)

    @property
    def shape(self) -> tuple[int, ...]:
        """Breakpoint count per axis; cell indices run 0..m_j inclusive."""
        return tuple(len(axis) for axis in self.breakpoints)

    def cells(self) -> Iterator[CellIndex]:
        return product(*[range(m + 1) for m in self.shape])

    def value(self, idx: CellIndex) -> LexElement:
        return self.values[idx]

    def cell_of_point(self, point: Sequence[Fraction]) -> CellIndex:
        if len(point) != self.n:
            raise ResolutionError(f"point dimension {len(point)}, grid has {self.n}")
        return tuple(
            bisect_left(self.breakpoints[j], Fraction(point[j])) for j in range(self.n)
        )

    def cell_interval(self, axis: int, r: int) -> Interval:
        """The axis interval of cell index ``r``: left open, right closed."""
        breaks = self.breakpoints[axis]
        lo = NEG_INF if r == 0 else breaks[r - 1]
        if r == len(breaks):
            return Interval(lo, False, POS_INF, False)
        return Interval(lo, False, breaks[r], True)

    def cell_box(self, idx: CellIndex) -> Box:
        return Box(tuple(self.cell_interval(j, idx[j]) for j in range(self.n)))

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
            and self.values == other.values
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
    if n < 1:
        raise ResolutionError(f"dimension must be >= 1, got {n}")
    if len(breakpoints) != n:
        raise ResolutionError(f"{len(breakpoints)} breakpoint axes for dimension {n}")
    norm_breaks = []
    for j, axis in enumerate(breakpoints):
        bs = [Fraction(b) for b in axis]
        if not bs:
            raise ResolutionError(f"axis {j} needs at least one breakpoint")
        if any(bs[i] >= bs[i + 1] for i in range(len(bs) - 1)):
            raise ResolutionError(f"axis {j} breakpoints must be strictly increasing")
        norm_breaks.append(tuple(bs))
    # Distinct in-shape keys, as many as the grid has cells, are the whole
    # grid; the grid itself is never built, as it may be far larger than the map.
    shape = [len(bs) for bs in norm_breaks]
    extra = sorted(
        idx for idx in values
        if len(idx) != n or not all(0 <= r <= m for r, m in zip(idx, shape))
    )
    if extra or len(values) != prod(m + 1 for m in shape):
        cells = product(*[range(m + 1) for m in shape])
        missing = list(islice((idx for idx in cells if idx not in values), 3))
        raise ResolutionError(f"cell map mismatch: missing {missing}, extra {extra[:3]}")
    for idx, v in values.items():
        if v.signature != signature:
            raise ResolutionError(f"cell {idx} value has a foreign signature")
        if not in_unit_interval(v):
            raise ResolutionError(f"cell {idx} value {v} lies outside [0, u]")
    return StepResolution(signature, n, norm_breaks, values)


# Largest dense grid from_observable builds: (m+1)^n cells for m atoms in
# general position, so a small document can otherwise ask for billions.
MAX_DENSE_CELLS = 1 << 20


def from_observable(x: DiscreteObservable) -> StepResolution:
    """The spectral resolution of ``x``: cell value = mass strictly below the cell.

    Breakpoints are the distinct atom coordinates per axis; the value on a
    cell is the sum of the weights of atoms strictly dominated by any (hence
    every) point of the cell.  Grids above ``MAX_DENSE_CELLS`` cells are
    refused before any cell is built.
    """
    breaks = tuple(
        tuple(sorted({a.point[j] for a in x.atoms})) for j in range(x.n)
    )
    cells = prod(len(bs) + 1 for bs in breaks)
    if cells > MAX_DENSE_CELLS:
        raise ResolutionError(
            f"dense grid of {cells} cells exceeds the limit of {MAX_DENSE_CELLS}"
        )
    return StepResolution(x.signature, x.n, breaks, _induced_values(x, breaks))


def _induced_values(
    x: DiscreteObservable, breaks: Sequence[Sequence[Fraction]]
) -> dict[CellIndex, LexElement]:
    """Cell values of the resolution of ``x`` on a grid whose breakpoints
    include every atom coordinate: each weight is placed at its rank vector,
    then prefix-summed along every axis."""
    shape = tuple(len(bs) for bs in breaks)
    values = {idx: x.signature.zero for idx in product(*[range(m + 1) for m in shape])}
    for atom in x.atoms:
        rank = tuple(bisect_left(breaks[j], atom.point[j]) + 1 for j in range(x.n))
        values[rank] = group_add(values[rank], atom.weight)
    _sweep(values, shape, range(x.n))
    return values


def _sweep(
    values: dict[CellIndex, LexElement],
    shape: Sequence[int],
    axes: Iterable[int],
    diff: bool = False,
) -> None:
    """Prefix-sum a cell map in place along each of ``axes``; with ``diff``,
    take first differences instead, reading cells below index 0 as zero.

    The two undo each other (Moebius inversion on a product of chains): a
    resolution is the prefix sum over all axes of its atomic masses, so every
    volume and partial difference on the grid is a sum of masses.  This is the
    only place the grid is summed or differenced.
    """
    for axis in axes:
        rest = [range(m + 1) for j, m in enumerate(shape) if j != axis]
        for other in product(*rest):
            line = [other[:axis] + (r,) + other[axis:] for r in range(shape[axis] + 1)]
            if diff:
                for r in range(len(line) - 1, 0, -1):
                    values[line[r]] = group_sub(values[line[r]], values[line[r - 1]])
            else:
                for r in range(1, len(line)):
                    values[line[r]] = group_add(values[line[r]], values[line[r - 1]])


def eval_F(F: StepResolution, point: Sequence[Fraction]) -> LexElement:
    """Value of the unique cell containing ``point``."""
    return F.values[F.cell_of_point(point)]


def volume(F: StepResolution, bounds: Sequence[tuple[Fraction, Fraction]]) -> LexElement:
    """Alternating corner sum over the half-open box prod [a_j, b_j).

    Computed in the group: for resolutions that fail the volume condition the
    result may lie outside ``[0, u]``.
    """
    if len(bounds) != F.n:
        raise ResolutionError(f"{len(bounds)} bounds for dimension {F.n}")
    bounds = [(Fraction(a), Fraction(b)) for a, b in bounds]
    for a, b in bounds:
        if a > b:
            raise ResolutionError(f"lower bound exceeds upper bound: {a} > {b}")
    total = F.signature.zero
    for eps in product((0, 1), repeat=F.n):
        corner = tuple(bounds[j][e] for j, e in enumerate(eps))
        term = eval_F(F, corner)
        if (F.n - sum(eps)) % 2 == 0:
            total = group_add(total, term)
        else:
            total = group_sub(total, term)
    return total


def partial_delta(
    F: StepResolution,
    deltas: Mapping[int, tuple[Fraction, Fraction]],
    point: Sequence[Fraction],
) -> LexElement:
    """Alternating corner sum over a proper subset of axes, the rest fixed.

    ``deltas`` maps axis index to its (a, b) bounds; coordinates of ``point``
    on those axes are ignored.
    """
    axes = sorted(deltas)
    if not 1 <= len(axes) < F.n:
        raise ResolutionError(
            f"need between 1 and {F.n - 1} delta axes in dimension {F.n}, got {len(axes)}"
        )
    if any(a < 0 or a >= F.n for a in axes):
        raise ResolutionError(f"axis out of range in {axes}")
    norm = {j: (Fraction(a), Fraction(b)) for j, (a, b) in deltas.items()}
    for a, b in norm.values():
        if a > b:
            raise ResolutionError(f"lower bound exceeds upper bound: {a} > {b}")
    base = [Fraction(c) for c in point]
    total = F.signature.zero
    for eps in product((0, 1), repeat=len(axes)):
        corner = list(base)
        for j, e in zip(axes, eps):
            corner[j] = norm[j][e]
        term = eval_F(F, corner)
        if (len(axes) - sum(eps)) % 2 == 0:
            total = group_add(total, term)
        else:
            total = group_sub(total, term)
    return total


def point_mass_via_deltas(F: StepResolution, point: Sequence[Fraction]) -> LexElement:
    """Mass at a single point, as the small-box limit of iterated differences.

    For a step function the infimum over shrinking boxes [p_j, p_j + delta_j)
    is attained once p_j + delta_j stays inside the cell above p_j; half the
    gap to the next breakpoint (or 1 beyond the last) does it exactly.
    """
    p = [Fraction(c) for c in point]
    if len(p) != F.n:
        raise ResolutionError(f"point dimension {len(p)}, grid has {F.n}")
    bounds = []
    for j, c in enumerate(p):
        breaks = F.breakpoints[j]
        pos = bisect_left(breaks, c)
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
    sum makes the result independent of the chosen decomposition.
    """
    total = F.signature.zero
    for bounds in boxes:
        total = group_add(total, volume(F, bounds))
    return total


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


def _atomic_box(F: StepResolution, idx: CellIndex) -> list[tuple[Fraction, Fraction]]:
    """Half-open box whose volume equals the atomic mass of cell ``idx``."""
    bounds = []
    for j, r in enumerate(idx):
        breaks = F.breakpoints[j]
        lo = breaks[r - 1]
        hi = breaks[r] if r < len(breaks) else breaks[-1] + 1
        bounds.append((lo, hi))
    return bounds


def _cell_doc(F: StepResolution, idx: CellIndex) -> dict:
    return {"index": list(idx), "cell": str(F.cell_box(idx))}


def check_axioms(F: StepResolution) -> AxiomReport:
    """Check the spectral-resolution conditions on the whole grid.

    * monotone: adjacent cell values never decrease along any axis;
    * bottom_zero: cells minimal along some axis carry 0 (the value of F at
      -inf along each variable);
    * top_unit: the all-maximal cell carries the unit (the value at +inf);
    * left_continuity: structural, by the left-open right-closed cells;
    * volume_nonneg: every grid-aligned half-open box has nonnegative volume.
      By additivity of the corner sum this holds iff every atomic one-cell
      box does, so only those are enumerated; a failing atomic box is itself
      a witness box.  Together with bottom_zero and top_unit it also bounds
      every box volume by the unit;
    * partial_delta_nonneg: same reduction for every proper nonempty subset
      of axes with the remaining coordinates fixed anywhere on the grid.
    """
    report = AxiomReport()
    zero = F.signature.zero
    unit = F.signature.unit
    shape = F.shape

    mono = AxiomStatus(True)
    for idx in F.cells():
        v = F.values[idx]
        for j in range(F.n):
            if idx[j] == 0:
                continue
            prev = idx[:j] + (idx[j] - 1,) + idx[j + 1 :]
            if not F.values[prev] <= v:
                mono = AxiomStatus(
                    False,
                    witness={
                        "axis": j,
                        "lower": _cell_doc(F, prev) | {"value": str(F.values[prev])},
                        "upper": _cell_doc(F, idx) | {"value": str(v)},
                    },
                )
                break
        if not mono.ok:
            break
    report.statuses["monotone"] = mono

    bottom = AxiomStatus(True)
    for idx in F.cells():
        if 0 in idx and F.values[idx] != zero:
            bottom = AxiomStatus(
                False, witness=_cell_doc(F, idx) | {"value": str(F.values[idx])}
            )
            break
    report.statuses["bottom_zero"] = bottom

    top_idx = shape
    top_ok = F.values[top_idx] == unit
    report.statuses["top_unit"] = AxiomStatus(
        top_ok,
        witness=None if top_ok else _cell_doc(F, top_idx) | {"value": str(F.values[top_idx])},
    )

    report.statuses["left_continuity"] = AxiomStatus(
        True, note="holds by construction: cells are left open, right closed"
    )

    masses = dict(F.values)
    _sweep(masses, shape, range(F.n), diff=True)

    vol = AxiomStatus(True, note="checked on atomic boxes; additivity covers the rest")
    bad = next(
        (idx for idx in product(*[range(1, m + 1) for m in shape]) if not zero <= masses[idx]),
        None,
    )
    if bad is not None:
        vol = AxiomStatus(
            False,
            witness={
                "box": [[str(a), str(b)] for a, b in _atomic_box(F, bad)],
                "volume": str(masses[bad]),
            },
        )
    report.statuses["volume_nonneg"] = vol

    if F.n == 1:
        report.statuses["partial_delta_nonneg"] = AxiomStatus(
            True, note="vacuous in dimension 1"
        )
    else:
        pd = AxiomStatus(True, note="checked on atomic boxes per axis subset")
        found = next(
            ((axes, idx, d) for axes, idx, d in _partial_deltas(masses, shape) if not zero <= d),
            None,
        )
        if found is not None:
            axes, idx, delta = found
            pd = AxiomStatus(
                False,
                witness={"axes": list(axes), "index": list(idx), "delta": str(delta)},
            )
        report.statuses["partial_delta_nonneg"] = pd

    return report


def _partial_deltas(
    masses: dict[CellIndex, LexElement], shape: tuple[int, ...]
) -> Iterator[tuple[tuple[int, ...], CellIndex, LexElement]]:
    """(axes, index, delta) for every proper nonempty axis subset, by size and
    then in ``combinations`` order: the difference of F along ``axes`` is the
    sum of the masses along the other axes."""
    n = len(shape)
    for size in range(1, n):
        for axes in combinations(range(n), size):
            summed = dict(masses)
            _sweep(summed, shape, [j for j in range(n) if j not in axes])
            for idx in _mixed_indices(shape, axes):
                yield axes, idx, summed[idx]


def _mixed_indices(shape: tuple[int, ...], axes) -> Iterator[CellIndex]:
    """Indices with components >= 1 on ``axes`` (differenced) and free elsewhere."""
    axis_set = set(axes)
    ranges = [
        range(1, m + 1) if j in axis_set else range(m + 1) for j, m in enumerate(shape)
    ]
    return product(*ranges)


# --- JSON form ---------------------------------------------------------------


def resolution_to_doc(F: StepResolution) -> dict:
    return {
        "kind": "resolution",
        "k": F.signature.k,
        "d": F.signature.d,
        "n": F.n,
        "breakpoints": [[_encode_rational(b) for b in axis] for axis in F.breakpoints],
        "cells": [
            {"index": list(idx), "value": {"h": F.values[idx].h, "g": list(F.values[idx].g)}}
            for idx in sorted(F.values)
        ],
    }


def resolution_from_doc(doc: dict) -> StepResolution:
    try:
        signature = AlgebraSignature(_decode_int(doc["k"]), _decode_int(doc["d"]))
        n = _decode_int(doc["n"])
        breakpoints = [[_decode_rational(b) for b in axis] for axis in doc["breakpoints"]]
        values = {
            tuple(_decode_int(i) for i in cell["index"]): _decode_element(cell["value"], signature)
            for cell in doc["cells"]
        }
    except (KeyError, TypeError, ValueError, ObservableError) as exc:
        raise ResolutionError(f"bad resolution document: {exc}") from exc
    return from_cells(signature, n, breakpoints, values)


def resolution_to_json(F: StepResolution) -> str:
    return json.dumps(resolution_to_doc(F), indent=2, sort_keys=True)


def resolution_from_json(text: str) -> StepResolution:
    return resolution_from_doc(json.loads(text))
