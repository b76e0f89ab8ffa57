from __future__ import annotations

import json
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from lexspec.boxgeom import Region, complement, difference, intersect, lower_orthant, union
from lexspec.gallery import build_observable
from lexspec.lexalg import AlgebraSignature, LexElement, group_add, group_sub, mv_neg, partial_add
from lexspec.observable import (
    MAX_DIGITS,
    ObservableError,
    _decode_cells,
    _decode_flat,
    _decode_int,
    _decode_list,
    _field,
    json_text,
    make_observable,
    observable_from_doc,
    observable_from_json,
    observable_to_doc,
    observable_to_json,
)
from lexspec.spectral import from_observable, resolution_to_doc
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

    @pytest.mark.parametrize("weights, got", [([el(1, 0)], "(1; 0)"),
                                              ([el(1, 0), el(1, 1)], "None"),
                                              ([el(1, 0), el(1, -1)], "(2; -1)")])
    def test_wrong_total_names_the_sum(self, weights, got):
        """The total is named as ``sum_finite`` gives it: None above the unit."""
        atoms = [((i, i), w) for i, w in enumerate(weights)]
        with pytest.raises(ObservableError) as exc:
            make_observable(SIG, 2, atoms)
        assert str(exc.value) == f"weights must sum to the unit (2; 0), got {got}"

    def test_duplicate_points_rejected(self):
        with pytest.raises(ObservableError, match="distinct"):
            make_observable(SIG, 2, [((0, 0), el(1, 0)), ((0, 0), el(1, 0))])

    def test_zero_weight_rejected(self):
        with pytest.raises(ObservableError, match="zero weight"):
            make_observable(
                SIG, 2, [((0, 0), el(0, 0)), ((1, 1), el(2, 0))]
            )

    def test_zero_weight_is_read_from_components(self, monkeypatch):
        # a nonzero g alone is a nonzero weight; the zero element is never built
        sig = AlgebraSignature(2, 3)
        monkeypatch.setattr(AlgebraSignature, "zero", property(lambda s: pytest.fail("built")))
        x = make_observable(sig, 1, [((0,), LexElement(sig, 0, (0, 1, 0))),
                                     ((1,), LexElement(sig, 2, (0, -1, 0)))])
        assert len(x.atoms) == 2
        with pytest.raises(ObservableError, match="zero weight at"):
            make_observable(sig, 1, [((0,), LexElement(sig, 0, (0, 0, 0))),
                                     ((1,), LexElement(sig, 2, (0, 0, 0)))])

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


def _cell_by_cell(cells, d):
    """Resolution cells decoded one at a time, each integer on its own, each
    cell named by its position when it is no object or lacks a key."""
    return {tuple(map(_decode_int, _decode_list(_field(c, "index", "cell", i)))):
            _decode_flat(_field(c, "value", "cell", i), d) for i, c in enumerate(cells)}


def _outcome(decode, cells, d):
    try:
        return decode(cells, d)
    except Exception as exc:  # the exception type and text are what is compared
        return type(exc), str(exc)


# Each edit damages the second cell of a 3.7/1 resolution document.
_CELL_EDITS = {
    "index-bool": lambda c: c.update(index=[True, 1]),
    "index-float": lambda c: c.update(index=[0.0, 1]),
    "index-string": lambda c: c.update(index="01"),
    "index-missing": lambda c: c.pop("index"),
    "value-list": lambda c: c.update(value=[0, 1]),
    "h-missing": lambda c: c["value"].pop("h"),
    "h-bool": lambda c: c["value"].update(h=False),
    "g-string": lambda c: c["value"].update(g="0"),
    "g-none": lambda c: c["value"].update(g=[None]),
    "g-long": lambda c: c["value"].update(g=[0, 0]),
    "h-digits": lambda c: c["value"].update(h=10 ** MAX_DIGITS),
    "g-digits": lambda c: c["value"].update(g=[-10 ** MAX_DIGITS]),
}


class TestDecodeCells:
    """The one-pass cell decoder gives the cell-by-cell result: the same
    table, or the same exception with the same message."""

    @staticmethod
    def _cells():
        return resolution_to_doc(from_observable(build_observable("3.7/1")))["cells"]

    def test_well_formed(self):
        cells = self._cells()
        assert _decode_cells(cells, 1) == _cell_by_cell(cells, 1)
        assert _decode_cells([], 1) == {}

    @pytest.mark.parametrize("edit", list(_CELL_EDITS))
    def test_damaged_cell(self, edit):
        cells = self._cells()
        _CELL_EDITS[edit](cells[1])
        want = _outcome(_cell_by_cell, cells, 1)
        assert isinstance(want, tuple)
        assert _outcome(_decode_cells, cells, 1) == want

    @pytest.mark.parametrize("cell", [[0, 1], "cell", None])
    def test_cell_not_an_object(self, cell):
        cells = self._cells()
        cells[1] = cell
        assert _outcome(_decode_cells, cells, 1) == _outcome(_cell_by_cell, cells, 1)

    def test_wrong_width(self):
        cells = self._cells()
        assert _outcome(_decode_cells, cells, 2) == _outcome(_cell_by_cell, cells, 2)
        assert _outcome(_decode_cells, cells, 2)[0] is ObservableError


# Strings with JSON escapes, quotes, control characters and non-ASCII text
# (outside the basic plane too), and ints of up to 4,000 digits either side of 0.
_texts = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f ~aZ\u00e9\u2028\ud800\U0001f600'))
_texts |= st.text()
_ints = st.integers() | st.integers(-(10 ** 4000 - 1), 10 ** 4000 - 1)
_documents = st.recursive(
    st.none() | st.booleans() | _ints | _texts,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_texts, inner, max_size=4),
    max_leaves=30,
)


class TestJsonText:
    """``json_text`` prints ``json.dumps(doc, indent=2, sort_keys=True)``."""

    @settings(max_examples=500, deadline=None)
    @given(_documents)
    @example([[], {}, [[]], {"": {}}, {"a": [{}, []]}, [[[{}]]]])
    @example({"\u00e9": ["\"q\"", "\\", "\n"], "A": -(10 ** 4000 - 1), "b": 10 ** 4000 - 1})
    @example([True, False, None, 0, -1, 1])
    def test_same_bytes_as_json_dumps(self, doc):
        assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)

    # 1.0 == True and 0.0 == False: a lookup table of literals would print them
    @pytest.mark.parametrize("doc", [
        1.0, [0.0], {"a": 0.5}, float("nan"), (1, 2), [()], Q(1, 2), {"a": Q(1)},
        {1: "a"}, {True: 1}, {None: 1}, {"a": 1, 2: "b"},
    ])
    def test_refuses_what_is_no_document(self, doc):
        with pytest.raises(TypeError):
            json_text(doc)
