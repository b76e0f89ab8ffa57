"""Exact arithmetic in the lexicographic group Z lex Z^d and its unit interval.

The carrier is the MV-algebra / effect algebra obtained as the interval
``[0, u]`` of the lexicographically ordered group ``Z lex Z^d`` with strong
unit ``u = (k, 0, ..., 0)``.  Elements are pairs ``(h, g)`` of an integer
height and an integer vector; the height stratifies the interval into levels
``M_0 .. M_k`` (``M_0`` is the radical, ``M_k`` the co-radical).

All integers are arbitrary precision, all values immutable, all operations
pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum


class AlgebraError(ValueError):
    """Invalid element, operand outside the unit interval, or mixed signatures."""


class Comparison(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True, slots=True)
class AlgebraSignature:
    """Shape of the algebra: unit height ``k`` and infinitesimal rank ``d``."""

    k: int
    d: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise AlgebraError(f"k must be >= 1, got {self.k}")
        if self.d < 1:
            raise AlgebraError(f"d must be >= 1, got {self.d}")

    @property
    def unit(self) -> LexElement:
        return LexElement(self, self.k, (0,) * self.d)

    @property
    def zero(self) -> LexElement:
        return LexElement(self, 0, (0,) * self.d)


@dataclass(frozen=True, slots=True)
class LexElement:
    """A group element ``(h, g)`` of ``Z lex Z^d``.

    Instances may lie outside ``[0, u]`` (group results of subtraction do);
    membership is a checkable predicate, see :func:`in_unit_interval`.
    """

    signature: AlgebraSignature
    h: int
    g: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.g) != self.signature.d:
            raise AlgebraError(
                f"g has {len(self.g)} components, signature expects {self.signature.d}"
            )

    def __str__(self) -> str:
        return format_element(self)

    # Rich comparisons follow the lexicographic partial order; incomparable
    # pairs (possible for d > 1) answer False on all four inequalities.
    def __le__(self, other: LexElement) -> bool:
        return lex_cmp(self, other) in (Comparison.LESS, Comparison.EQUAL)

    def __lt__(self, other: LexElement) -> bool:
        return lex_cmp(self, other) is Comparison.LESS

    def __ge__(self, other: LexElement) -> bool:
        return lex_cmp(self, other) in (Comparison.GREATER, Comparison.EQUAL)

    def __gt__(self, other: LexElement) -> bool:
        return lex_cmp(self, other) is Comparison.GREATER


def _same_signature(a: LexElement, b: LexElement) -> AlgebraSignature:
    if a.signature != b.signature:
        raise AlgebraError(f"signature mismatch: {a.signature} vs {b.signature}")
    return a.signature


def lex_cmp(a: LexElement, b: LexElement) -> Comparison:
    """Compare in the lexicographic order: height first, then componentwise."""
    _same_signature(a, b)
    if a.h != b.h:
        return Comparison.LESS if a.h < b.h else Comparison.GREATER
    if a.g == b.g:
        return Comparison.EQUAL
    if all(x <= y for x, y in zip(a.g, b.g)):
        return Comparison.LESS
    if all(x >= y for x, y in zip(a.g, b.g)):
        return Comparison.GREATER
    return Comparison.INCOMPARABLE


def group_add(a: LexElement, b: LexElement) -> LexElement:
    """Componentwise sum in the group; the result may leave ``[0, u]``."""
    sig = _same_signature(a, b)
    return LexElement(sig, a.h + b.h, tuple(x + y for x, y in zip(a.g, b.g)))


def group_sub(a: LexElement, b: LexElement) -> LexElement:
    sig = _same_signature(a, b)
    return LexElement(sig, a.h - b.h, tuple(x - y for x, y in zip(a.g, b.g)))


def meet(a: LexElement, b: LexElement) -> LexElement:
    """Lattice meet: the lower height wins outright, ties go componentwise."""
    sig = _same_signature(a, b)
    if a.h < b.h:
        return a
    if b.h < a.h:
        return b
    return LexElement(sig, a.h, tuple(min(x, y) for x, y in zip(a.g, b.g)))


def join(a: LexElement, b: LexElement) -> LexElement:
    sig = _same_signature(a, b)
    if a.h < b.h:
        return b
    if b.h < a.h:
        return a
    return LexElement(sig, a.h, tuple(max(x, y) for x, y in zip(a.g, b.g)))


def _nonneg(t: tuple[int, ...]) -> bool:
    """0 <= t in the lexicographic order, for a flat element (h, g_1, ..., g_d)."""
    return t[0] > 0 or (t[0] == 0 and min(t) >= 0)


def _in_unit(t: tuple[int, ...], k: int) -> bool:
    """0 <= t <= u = (k; 0, ..., 0) for a flat element t = (h, g_1, ..., g_d):
    0 <= h <= k, no negative g component at h = 0 and no positive one at h = k."""
    return _nonneg(t) and (t[0] < k or (t[0] == k and max(t[1:]) <= 0))


def in_unit_interval(a: LexElement) -> bool:
    """Membership in ``[0, u]``: 0 <= h <= k, with sign constraints at the ends."""
    return _in_unit((a.h, *a.g), a.signature.k)


def _require_member(a: LexElement) -> None:
    if not in_unit_interval(a):
        raise AlgebraError(f"{a} lies outside [0, u]")


def mv_oplus(a: LexElement, b: LexElement) -> LexElement:
    """MV sum: (a + b) meet u."""
    _same_signature(a, b)
    _require_member(a)
    _require_member(b)
    return meet(group_add(a, b), a.signature.unit)


def mv_neg(a: LexElement) -> LexElement:
    """MV negation: u - a."""
    _require_member(a)
    return group_sub(a.signature.unit, a)


def partial_add(a: LexElement, b: LexElement) -> LexElement | None:
    """Effect-algebra sum: defined (as the group sum) iff a + b <= u."""
    sig = _same_signature(a, b)
    _require_member(a)
    _require_member(b)
    total = group_add(a, b)
    if total <= sig.unit:
        return total
    return None


def sum_finite(items: list[LexElement] | tuple[LexElement, ...]) -> LexElement | None:
    """Sum of a finite family of elements of ``[0, u]``, or None if not summable.

    All items are nonnegative, so every partial sum stays in ``[0, u]``
    exactly when the full group sum does; the result is order independent.
    An empty family sums to 0.
    """
    items = list(items)
    if not items:
        raise AlgebraError("sum_finite of an empty sequence needs a signature; use signature.zero")
    sig = items[0].signature
    total = sig.zero
    for a in items:
        _same_signature(total, a)
        _require_member(a)
        total = group_add(total, a)
    if total <= sig.unit:
        return total
    return None


_ELEMENT_RE = re.compile(r"^\(\s*(-?\d+)\s*;\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\)$")


def format_element(a: LexElement) -> str:
    """Render as ``(h; g1, ..., gd)``, e.g. ``(1; 2)``."""
    return f"({a.h}; {', '.join(map(str, a.g))})"


def parse_element(text: str, signature: AlgebraSignature) -> LexElement:
    """Inverse of :func:`format_element`; round-trips exactly."""
    m = _ELEMENT_RE.match(text.strip())
    if m is None:
        raise AlgebraError(f"cannot parse element: {text!r}")
    h = int(m.group(1))
    g = tuple(int(part) for part in m.group(2).split(","))
    if len(g) != signature.d:
        raise AlgebraError(f"element {text!r} has {len(g)} components, expected {signature.d}")
    return LexElement(signature, h, g)
