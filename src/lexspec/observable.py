"""Discrete n-dimensional observables: weighted point masses on R^n.

An observable assigns to each region the sum of the weights of the atoms it
contains.  Weights live in the unit interval of the algebra, are nonzero, and
sum to the unit, so evaluation is total and finitely additive.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, pairwise
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import Sequence

from .boxgeom import Region, order_key, parse_rational, rational
from .lexalg import AlgebraSignature, LexElement, in_unit_interval


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
        sig = self.signature
        weights = [atom.weight for atom in self.atoms if region.contains(atom.point)]
        g = tuple(map(sum, zip((0,) * sig.d, *(w.g for w in weights))))
        return LexElement(sig, sum(w.h for w in weights), g)

    def point_mass(self, point: Sequence[Fraction]) -> LexElement:
        """Weight of the atom at ``point``, or zero."""
        p = tuple(map(rational, point))
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
    and the weights must sum to the unit.  Atoms are sorted by their points'
    :func:`boxgeom.order_key` vectors, and two equal points are two adjacent
    equal keys.
    """
    if n < 1:
        raise ObservableError(f"dimension must be >= 1, got {n}")
    normalized: list[Atom] = []
    for point, weight in atoms:
        p = tuple(map(rational, point))
        if len(p) != n:
            raise ObservableError(f"atom point {p} has dimension {len(p)}, expected {n}")
        if weight.signature != signature:
            raise ObservableError(f"weight {weight} has a foreign signature")
        if not in_unit_interval(weight):
            raise ObservableError(f"weight {weight} lies outside [0, u]")
        if not weight.h and not any(weight.g):
            raise ObservableError(f"zero weight at {p}")
        normalized.append(Atom(p, weight))
    if not normalized:
        raise ObservableError("an observable needs at least one atom")
    keyed = sorted(((tuple(map(order_key, a.point)), a) for a in normalized), key=itemgetter(0))
    if any(k1 == k2 for (k1, _), (k2, _) in pairwise(keyed)):
        raise ObservableError("atom points must be pairwise distinct")
    # Summed as flat integer tuples, and a wrong total is named as summed.
    total = tuple(map(sum, zip(*((a.weight.h, *a.weight.g) for a in normalized))))
    if total != (signature.k, *(0,) * signature.d):
        raise ObservableError(f"weights must sum to the unit {signature.unit}, "
                              f"got {LexElement(signature, total[0], total[1:])}")
    return DiscreteObservable(signature, n, tuple(a for _, a in keyed))


# --- JSON form ---------------------------------------------------------------


def _encode_rational(v: Fraction):
    return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


# Largest unit height k a document or a CLI option may ask for: level tables
# and bounds have one entry per level, so a tiny input could ask for millions.
MAX_K = 1 << 12

# Most digits a coordinate's numerator or denominator may have: Python prints
# at most 4300, and a coordinate is also printed one past itself (render, witnesses).
MAX_DIGITS = 4000
_TOO_LONG = 10 ** MAX_DIGITS


def _decode_signature(doc: dict) -> AlgebraSignature:
    """A document's ``k`` and ``d``; a k above ``MAX_K`` is refused at once."""
    k = _decode_int(doc["k"])
    if k > MAX_K:
        raise ObservableError(f"k = {k} exceeds the limit of {MAX_K}")
    return AlgebraSignature(k, _decode_int(doc["d"]))


def _decode_int(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ObservableError(f"not an integer: {v!r}")
    return v


def _decode_rational(v) -> Fraction:
    """A JSON coordinate: a ``p/q`` or decimal string, or an integer, with at
    most ``MAX_DIGITS`` digits above and below the line."""
    q = parse_rational(v) if isinstance(v, str) else rational(v)
    if max(abs(q.numerator), q.denominator) >= _TOO_LONG:
        raise ObservableError(f"a coordinate has more than {MAX_DIGITS} digits")
    return q


def _encode_element(a: LexElement) -> dict:
    return {"h": a.h, "g": list(a.g)}


def _decode_list(v) -> list:
    """A JSON array; a string would be read one character at a time."""
    if not isinstance(v, list):
        raise ObservableError(f"not a list: {v!r}")
    return v


def _decode_flat(doc, d: int) -> tuple[int, ...]:
    """An element document as the flat tuple (h, g_1, ..., g_d), each
    component of at most ``MAX_DIGITS`` digits: sums of them stay printable."""
    try:
        t = tuple(map(_decode_int, (doc["h"], *_decode_list(doc["g"]))))
        if len(t) != d + 1:
            raise ObservableError(f"g has {len(t) - 1} components, expected {d}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ObservableError(f"bad element document: {doc!r}") from exc
    if max(t) >= _TOO_LONG or min(t) <= -_TOO_LONG:
        raise ObservableError(f"an element component has more than {MAX_DIGITS} digits")
    return t


def _field(entry, key: str, what: str, i: int):
    """``entry[key]``, ``entry`` being item ``i`` of a document's list of
    ``what`` objects (an atom or a cell); a non-object or a missing key is named."""
    if not isinstance(entry, dict):
        raise ObservableError(f"{what} {i} is not an object: {reprlib.repr(entry)}")
    if key not in entry:
        raise ObservableError(f"{what} {i} has no {key!r}")
    return entry[key]


def _decode_cells(cells: list, d: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """A resolution document's cells as ``{index: flat value}``.  Well-formed
    cells are checked column-wise, by builtins over all their indices and all
    their components; anything else is decoded cell by cell, which raises the
    message naming what is wrong."""
    try:
        keys = [tuple(c["index"]) for c in cells if type(c["index"]) is list]
        flats = [(v["h"], *v["g"]) for v in [c["value"] for c in cells] if type(v["g"]) is list]
    except (KeyError, TypeError):
        keys = flats = []
    comps = list(chain.from_iterable(flats))
    if (len(keys) == len(flats) == len(cells) and set(map(len, flats)) <= {d + 1}
            and set(map(type, chain.from_iterable(keys))) <= {int}
            and set(map(type, comps)) <= {int}
            and -_TOO_LONG < min(comps, default=0) and max(comps, default=0) < _TOO_LONG):
        return dict(zip(keys, flats))
    return {tuple(map(_decode_int, _decode_list(_field(c, "index", "cell", i)))):
            _decode_flat(_field(c, "value", "cell", i), d) for i, c in enumerate(cells)}


def _decode_element(doc, signature: AlgebraSignature) -> LexElement:
    t = _decode_flat(doc, signature.d)
    return LexElement(signature, t[0], t[1:])


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
        signature = _decode_signature(doc)
        n = _decode_int(doc["n"])
        atoms = [
            (
                [_decode_rational(c) for c in _decode_list(_field(item, "point", "atom", i))],
                _decode_element(_field(item, "weight", "atom", i), signature),
            )
            for i, item in enumerate(_decode_list(doc["atoms"]))
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ObservableError(f"bad observable document: {exc}") from exc
    return make_observable(signature, n, atoms)


def json_text(doc, newline: str = "\n") -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, whose encoder takes its
    pure-Python path when it indents, for str-keyed dicts, lists, strs, ints,
    bools and ``None``; anything else raises ``TypeError``.  Dispatch is on
    exact type or identity, as ``1.0 == True``.  ``newline`` is the line
    break and indent of the current depth."""
    kind = type(doc)
    if kind is str:
        return _quote(doc)
    if kind is int:
        return int.__repr__(doc)
    if doc is None or doc is True or doc is False:
        return "null" if doc is None else "true" if doc else "false"
    inner = newline + "  "
    if kind is list:
        items = [json_text(v, inner) for v in doc]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    if kind is dict:  # _quote refuses a key that is not a str
        items = [_quote(k) + ": " + json_text(v, inner) for k, v in sorted(doc.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    raise TypeError(f"not a JSON document value: {reprlib.repr(doc)}")


def observable_to_json(x: DiscreteObservable) -> str:
    return json_text(observable_to_doc(x))


def observable_from_json(text: str) -> DiscreteObservable:
    return observable_from_doc(json.loads(text))
