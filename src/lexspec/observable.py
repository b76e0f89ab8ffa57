"""Discrete n-dimensional observables: weighted point masses on R^n.

An observable assigns to each region the sum of the weights of the atoms it
contains.  Weights live in the unit interval of the algebra, are nonzero, and
sum to the unit, so evaluation is total and finitely additive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .boxgeom import Region, parse_rational
from .lexalg import (
    AlgebraSignature,
    LexElement,
    group_add,
    in_unit_interval,
    sum_finite,
)


class ObservableError(ValueError):
    """Invalid atom system: duplicate points, bad weights, or wrong total."""


@dataclass(frozen=True, slots=True)
class Atom:
    """A weighted point mass (location, weight)."""

    point: tuple[Fraction, ...]
    weight: LexElement


@dataclass(frozen=True, slots=True)
class DiscreteObservable:
    signature: AlgebraSignature
    n: int
    atoms: tuple[Atom, ...]

    def eval(self, region: Region) -> LexElement:
        """Sum of the weights of the atoms lying in ``region``."""
        if region.n != self.n:
            raise ObservableError(f"region dimension {region.n}, observable has {self.n}")
        total = self.signature.zero
        for atom in self.atoms:
            if region.contains(atom.point):
                total = group_add(total, atom.weight)
        return total

    def point_mass(self, point: Sequence[Fraction]) -> LexElement:
        """Weight of the atom at ``point``, or zero."""
        p = tuple(Fraction(x) for x in point)
        if len(p) != self.n:
            raise ObservableError(f"point dimension {len(p)}, observable has {self.n}")
        for atom in self.atoms:
            if atom.point == p:
                return atom.weight
        return self.signature.zero


def make_observable(
    signature: AlgebraSignature,
    n: int,
    atoms: Sequence[tuple[Sequence, LexElement]],
) -> DiscreteObservable:
    """Validate and build an observable from (point, weight) pairs.

    Points must be pairwise distinct, weights nonzero members of ``[0, u]``,
    and the weights must sum to the unit.
    """
    if n < 1:
        raise ObservableError(f"dimension must be >= 1, got {n}")
    normalized: list[Atom] = []
    for point, weight in atoms:
        p = tuple(Fraction(x) for x in point)
        if len(p) != n:
            raise ObservableError(f"atom point {p} has dimension {len(p)}, expected {n}")
        if weight.signature != signature:
            raise ObservableError(f"weight {weight} has a foreign signature")
        if not in_unit_interval(weight):
            raise ObservableError(f"weight {weight} lies outside [0, u]")
        if weight == signature.zero:
            raise ObservableError(f"zero weight at {p}")
        normalized.append(Atom(p, weight))
    points = [a.point for a in normalized]
    if len(set(points)) != len(points):
        raise ObservableError("atom points must be pairwise distinct")
    total = sum_finite([a.weight for a in normalized]) if normalized else None
    if total != signature.unit:
        raise ObservableError(
            f"weights must sum to the unit {signature.unit}, got {total}"
        )
    normalized.sort(key=lambda a: a.point)
    return DiscreteObservable(signature, n, tuple(normalized))


# --- JSON form ---------------------------------------------------------------


def _encode_rational(v: Fraction):
    return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _decode_int(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ObservableError(f"not an integer: {v!r}")
    return v


def _decode_rational(v) -> Fraction:
    if isinstance(v, bool):
        raise ObservableError(f"not a rational: {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return parse_rational(v)
    raise ObservableError(f"not a rational: {v!r}")


def _encode_element(a: LexElement) -> dict:
    return {"h": a.h, "g": list(a.g)}


def _decode_element(doc, signature: AlgebraSignature) -> LexElement:
    try:
        g = tuple(_decode_int(x) for x in doc["g"])
        return LexElement(signature, _decode_int(doc["h"]), g)
    except (KeyError, TypeError, ValueError) as exc:
        raise ObservableError(f"bad element document: {doc!r}") from exc


def observable_to_doc(x: DiscreteObservable) -> dict:
    return {
        "kind": "observable",
        "k": x.signature.k,
        "d": x.signature.d,
        "n": x.n,
        "atoms": [
            {"point": [_encode_rational(c) for c in a.point], "weight": _encode_element(a.weight)}
            for a in x.atoms
        ],
    }


def observable_from_doc(doc: dict) -> DiscreteObservable:
    try:
        signature = AlgebraSignature(_decode_int(doc["k"]), _decode_int(doc["d"]))
        n = _decode_int(doc["n"])
        atoms = [
            (
                [_decode_rational(c) for c in item["point"]],
                _decode_element(item["weight"], signature),
            )
            for item in doc["atoms"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ObservableError(f"bad observable document: {exc}") from exc
    return make_observable(signature, n, atoms)


def observable_to_json(x: DiscreteObservable) -> str:
    return json.dumps(observable_to_doc(x), indent=2, sort_keys=True)


def observable_from_json(text: str) -> DiscreteObservable:
    return observable_from_doc(json.loads(text))
