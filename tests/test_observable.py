from __future__ import annotations

from fractions import Fraction as Q

import pytest

from lexspec.boxgeom import Region, complement, difference, intersect, lower_orthant, union
from lexspec.gallery import build_observable
from lexspec.lexalg import AlgebraSignature, LexElement, group_add, group_sub, mv_neg, partial_add
from lexspec.observable import (
    ObservableError,
    make_observable,
    observable_from_doc,
    observable_from_json,
    observable_to_doc,
    observable_to_json,
)
from lexspec.verify import SplitMix64, TrialConfig, random_observable

SIG = AlgebraSignature(2, 1)


def el(h, g, sig=SIG):
    return LexElement(sig, h, (g,))


class TestMakeObservable:
    def test_three_atom_example(self):
        x = build_observable("3.7/1")
        assert len(x.atoms) == 3
        assert x.signature.k == 2

    def test_two_atom_example(self):
        x = build_observable("3.7/8")
        assert [a.weight.h for a in x.atoms] == [1, 2]

    def test_normalization_enforced(self):
        with pytest.raises(ObservableError, match="sum to the unit"):
            make_observable(SIG, 2, [(((0), (0)), el(1, 0))])

    def test_duplicate_points_rejected(self):
        with pytest.raises(ObservableError, match="distinct"):
            make_observable(SIG, 2, [((0, 0), el(1, 0)), ((0, 0), el(1, 0))])

    def test_zero_weight_rejected(self):
        with pytest.raises(ObservableError, match="zero weight"):
            make_observable(
                SIG, 2, [((0, 0), el(0, 0)), ((1, 1), el(2, 0))]
            )

    def test_weight_outside_interval_rejected(self):
        with pytest.raises(ObservableError, match="outside"):
            make_observable(SIG, 2, [((0, 0), el(3, 0))])


class TestEval:
    def test_full_space_is_unit(self):
        x = build_observable("3.7/1")
        assert x.eval(Region.full(2)) == SIG.unit

    def test_lower_orthant(self):
        x = build_observable("3.7/1")
        assert x.eval(lower_orthant((Q(5, 2), Q(5, 2)))) == el(1, 3)

    def test_empty_region(self):
        x = build_observable("3.7/1")
        assert x.eval(Region.empty(2)) == SIG.zero

    def test_dimension_mismatch(self):
        x = build_observable("3.7/1")
        with pytest.raises(ObservableError):
            x.eval(Region.full(3))


class TestPointMass:
    def test_atom_weight(self):
        x = build_observable("3.7/1")
        assert x.point_mass((3, 3)) == el(1, -3)

    def test_no_atom(self):
        x = build_observable("3.7/1")
        assert x.point_mass((0, 0)) == SIG.zero

    def test_case_seven_atom(self):
        x = build_observable("3.7/7")
        assert x.point_mass((2, 2)) == LexElement(AlgebraSignature(3, 1), 1, (2,))


def _random_grid_region(rng: SplitMix64, n: int) -> Region:
    coords = [Q(v) for v in range(-1, 5)]
    region = Region.empty(n)
    for _ in range(rng.randint(1, 3)):
        lo, hi = [], []
        for _ in range(n):
            a, b = rng.choice(coords), rng.choice(coords)
            if a > b:
                a, b = b, a
            lo.append(a)
            hi.append(b)
        from lexspec.boxgeom import halfopen_box

        region = union(region, halfopen_box(lo, hi))
    return region


class TestObservableLaws:
    """Complement, monotonicity, and modularity over random regions."""

    def _observables(self):
        cfg = TrialConfig(seed=77, trials=0, k_range=(1, 3), n_range=(2, 2), max_atoms=5, coord_range=(0, 4))
        return [random_observable(cfg, i) for i in range(25)]

    def test_complement_law(self):
        rng = SplitMix64(5)
        for x in self._observables():
            a = _random_grid_region(rng, x.n)
            assert x.eval(complement(a)) == mv_neg(x.eval(a))

    def test_monotonicity_and_difference(self):
        rng = SplitMix64(6)
        for x in self._observables():
            a = _random_grid_region(rng, x.n)
            b = _random_grid_region(rng, x.n)
            inner = intersect(a, b)
            va, vi = x.eval(a), x.eval(inner)
            assert vi <= va
            assert x.eval(difference(a, inner)) == group_sub(va, vi)

    def test_modularity_with_matching_definedness(self):
        rng = SplitMix64(7)
        for x in self._observables():
            a = _random_grid_region(rng, x.n)
            b = _random_grid_region(rng, x.n)
            va, vb = x.eval(a), x.eval(b)
            vu, vi = x.eval(union(a, b)), x.eval(intersect(a, b))
            assert group_add(va, vb) == group_add(vu, vi)
            assert (partial_add(va, vb) is None) == (partial_add(vu, vi) is None)

    def test_finite_additivity_over_disjoint_regions(self):
        rng = SplitMix64(8)
        for x in self._observables():
            a = _random_grid_region(rng, x.n)
            b = _random_grid_region(rng, x.n)
            b_only = difference(b, a)
            assert x.eval(union(a, b_only)) == group_add(x.eval(a), x.eval(b_only))


# Each edit turns a field of the 3.7/1 document into a non-integer that int()
# would read back as the original value, so only strict decoding rejects it.
_NON_INTEGER_EDITS = {
    "k-string": lambda doc: doc.update(k="2"),
    "k-float": lambda doc: doc.update(k=2.9),
    "d-bool": lambda doc: doc.update(d=True),
    "n-float": lambda doc: doc.update(n=2.0),
    "h-float": lambda doc: doc["atoms"][1]["weight"].update(h=1.7),
    "h-bool": lambda doc: doc["atoms"][1]["weight"].update(h=True),
    "g-string": lambda doc: doc["atoms"][1]["weight"].update(g=["2"]),
}


class TestJson:
    @pytest.mark.parametrize("edit", list(_NON_INTEGER_EDITS))
    def test_non_integer_field_rejected(self, edit):
        doc = observable_to_doc(build_observable("3.7/1"))
        _NON_INTEGER_EDITS[edit](doc)
        with pytest.raises(ObservableError, match="bad observable document"):
            observable_from_doc(doc)

    def test_round_trip(self):
        x = build_observable("3.7/7")
        assert observable_from_json(observable_to_json(x)) == x

    def test_rational_strings(self):
        sig = AlgebraSignature(1, 1)
        x = make_observable(sig, 1, [((Q(1, 2),), sig.unit)])
        doc = observable_to_doc(x)
        assert doc["atoms"][0]["point"] == ["1/2"]
        assert observable_from_doc(doc) == x

    def test_doc_fields(self):
        doc = observable_to_doc(build_observable("3.7/1"))
        assert doc["kind"] == "observable"
        assert doc["k"] == 2 and doc["d"] == 1 and doc["n"] == 2

    def test_bad_document(self):
        with pytest.raises(ObservableError):
            observable_from_doc({"kind": "observable", "k": 2, "d": 1, "n": 2, "atoms": [{"point": [0.5, 1], "weight": {"h": 2, "g": [0]}}]})
