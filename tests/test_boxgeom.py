from __future__ import annotations

import hashlib
import math
from decimal import Decimal
from fractions import Fraction as Q
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from lexspec.boxgeom import (
    FULL_LINE,
    Box,
    GeometryError,
    Interval,
    NEG_INF,
    POS_INF,
    Region,
    _grid,
    _merged_boxes,
    _run_interval,
    above,
    below,
    cell_ends,
    cell_region_text,
    closed_open,
    complement,
    difference,
    format_region,
    halfopen_box,
    intersect,
    is_finite,
    lower_orthant,
    open_closed,
    order_key,
    parse_interval,
    parse_point,
    parse_rational,
    parse_region,
    rational,
    union,
)
from lexspec.charpoints import level_regions, rays_check
from lexspec.lexalg import AlgebraSignature, LexElement
from lexspec.observable import _decode_rational, make_observable, observable_to_json
from lexspec.spectral import (
    StepResolution,
    from_cells,
    from_observable,
    partial_delta,
    point_mass_via_deltas,
    resolution_to_json,
    volume,
)
from lexspec.verify import SplitMix64, TrialConfig, _random_grid_region, random_observable

from oracles import reference_canonical_boxes, reference_cell_box, region_equal


def box(*intervals):
    return Box(tuple(intervals))


class TestInterval:
    def test_closure_respected(self):
        iv = closed_open(1, 2)
        assert iv.contains(Q(1))
        assert not iv.contains(Q(2))

    def test_infinite_ends_must_be_open(self):
        with pytest.raises(GeometryError):
            Interval(NEG_INF, True, Q(0), False)

    def test_empty_interval_rejected(self):
        with pytest.raises(GeometryError):
            Interval(Q(2), True, Q(1), False)
        with pytest.raises(GeometryError):
            Interval(Q(1), True, Q(1), False)

    def test_singleton_allowed(self):
        iv = Interval(Q(1), True, Q(1), True)
        assert iv.contains(Q(1))

    @pytest.mark.parametrize("end", [0.5, Decimal("0.5"), "1/2"])
    def test_inexact_ends_rejected(self, end):
        with pytest.raises(GeometryError, match="end must be an int or a Fraction"):
            Interval(end, True, Q(2), False)
        with pytest.raises(GeometryError, match="end must be an int or a Fraction"):
            Interval(Q(-2), True, end, False)

    def test_float_box_is_refused_before_region(self):
        with pytest.raises(GeometryError):
            Region(1, [Box((Interval(0.5, True, 1.5, False),))])

    def test_int_ends_accepted(self):
        iv = Interval(0, True, 1, False)
        assert str(Region(1, [box(iv)])) == "[0,1)"


_SIG = AlgebraSignature(1, 1)
_X = make_observable(_SIG, 2, [((Q(1), Q(0)), _SIG.unit)])
_F = from_observable(make_observable(_SIG, 2, [((Q(2), Q(3)), _SIG.unit)]))
_LINE = {(r,): _SIG.zero for r in range(2)} | {(2,): _SIG.unit}

# Every public entry of a caller's coordinate, as (build from the coordinate
# c, text of the result).  Each must pass c through ``boxgeom.rational``.
_GATED = {
    "rational": (rational, str),
    "Interval": (lambda c: Interval(c, True, Q(5), False), str),
    "closed_open": (lambda c: closed_open(c, 5), str),
    "open_closed": (lambda c: open_closed(-5, c), str),
    "below": (below, str),
    "above": (lambda c: above(c, closed=True), str),
    "halfopen_box": (lambda c: halfopen_box([c, 0], [5, 5]), str),
    "Interval.contains": (lambda c: closed_open(0, 5).contains(c), str),
    "Region.contains": (lambda c: halfopen_box([0, 0], [5, 5]).contains((c, 0)), str),
    "lower_orthant": (lambda c: lower_orthant([0, c]), str),
    "make_observable": (
        lambda c: make_observable(_SIG, 2, [((c, Q(0)), _SIG.unit)]), observable_to_json),
    "point_mass": (lambda c: _X.point_mass((c, 0)), str),
    "_decode_rational": (_decode_rational, str),
    "StepResolution": (
        lambda c: StepResolution(_SIG, 1, [[c]], masses={(1,): (1, 0)}), resolution_to_json),
    "from_cells": (lambda c: from_cells(_SIG, 1, [[c, 7]], _LINE), resolution_to_json),
    "cell_of_point": (lambda c: _F.cell_of_point((c, 0)), str),
    "volume": (lambda c: volume(_F, [(c, 5), (0, 5)]), str),
    "partial_delta": (lambda c: partial_delta(_F, {0: (0, c)}, (0, 4)), str),
    "point_mass_via_deltas": (lambda c: point_mass_via_deltas(_F, (c, 3)), str),
    "rays_check": (lambda c: rays_check(_F, (c, Q(3))), str),
}


class TestExactGate:
    """One rule for a caller's coordinate: int and Fraction are equal
    inputs, anything else is a :class:`GeometryError`."""

    @pytest.mark.parametrize("entry", list(_GATED))
    def test_int_and_fraction_give_equal_results(self, entry):
        build, text = _GATED[entry]
        a, b = build(2), build(Q(2))
        assert a == b and text(a) == text(b)

    @pytest.mark.parametrize("inexact", [2.0, Decimal(2), "2", True, None],
                             ids=["float", "Decimal", "str", "bool", "None"])
    @pytest.mark.parametrize("entry", list(_GATED))
    def test_inexact_coordinate_refused(self, entry, inexact):
        build, _ = _GATED[entry]
        if entry == "_decode_rational" and isinstance(inexact, str):
            assert build(inexact) == 2  # strings are the JSON form of a rational
            return
        with pytest.raises(GeometryError, match="must be an int or a Fraction"):
            if entry == "Interval" and inexact is True:
                Interval(False, True, True, False)  # bool ends on both sides
            else:
                build(inexact)


def _piece_probe(cuts, i):
    """A point of piece ``i`` between the sorted ``cuts``, read off the cut
    sides: a cut (a, 0) lies just below a, a cut (a, 1) just above it."""
    lower = cuts[i - 1] if i else None
    upper = cuts[i] if i < len(cuts) else None
    if lower is not None and lower[1] == 0:
        return lower[0]
    if lower is None:
        return Q(0) if upper is None else upper[0] - 1
    return lower[0] + 1 if upper is None else (lower[0] + upper[0]) / 2


class TestRunInterval:
    """``_run_interval`` skips validation; it must build the validated interval
    of the run's end cuts, ``[v`` or ``v)`` for a cut (v, 0) just below v and
    ``(v`` or ``v]`` for a cut (v, 1) just above it, covering exactly the
    pieces of the run."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.fractions(-5, 5, max_denominator=3),
                              st.sampled_from([(0,), (1,), (0, 1)])),
                    max_size=5, unique_by=lambda t: t[0]))
    def test_every_run_matches_the_validated_interval(self, drawn):
        cuts = sorted((v, side) for v, sides in drawn for side in sides)
        lower = [(NEG_INF, False)] + [(v, side == 0) for v, side in cuts]
        upper = [(v, side == 1) for v, side in cuts] + [(POS_INF, False)]
        probes = [_piece_probe(cuts, i) for i in range(len(cuts) + 1)]
        for lo in range(len(cuts) + 1):
            for hi in range(lo, len(cuts) + 1):
                want = Interval(*lower[lo], *upper[hi])
                got = _run_interval(cuts, lo, hi)
                assert got == want and hash(got) == hash(want) and str(got) == str(want)
                assert [got.contains(p) for p in probes] == [
                    lo <= i <= hi for i in range(len(probes))]


class TestContains:
    def test_closed_lower_corner(self):
        b = box(closed_open(1, 2), closed_open(1, 2))
        assert b.contains((Q(1), Q(1)))

    def test_open_upper_end(self):
        b = box(closed_open(1, 2), closed_open(1, 2))
        assert not b.contains((Q(2), Q(1)))

    def test_strip_with_infinite_end(self):
        b = box(open_closed(2, 3), above(3))
        assert b.contains((Q(3), Q(4)))

    def test_dimension_mismatch(self):
        r = Region(2, [box(closed_open(0, 1), closed_open(0, 1))])
        with pytest.raises(GeometryError):
            r.contains((Q(0),))


class TestRegionOps:
    def test_difference_canonical_form(self):
        a = Region(2, [box(above(2), above(2))])
        b = Region(2, [box(above(3), above(3))])
        got = difference(a, b)
        want = Region(
            2,
            [
                box(open_closed(2, 3), above(2)),
                box(above(3), open_closed(2, 3)),
            ],
        )
        assert got == want
        assert format_region(got) == "(2,3]x(2,+inf) u (3,+inf)x(2,3]"

    def test_union_idempotent(self):
        r = Region(2, [box(closed_open(0, 1), closed_open(0, 2))])
        assert union(r, r) == r

    def test_self_difference_empty(self):
        r = Region(2, [box(closed_open(0, 1), closed_open(0, 2))])
        assert difference(r, r).is_empty()

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            union(Region.empty(1), Region.empty(2))


class TestConstructors:
    def test_lower_orthant(self):
        r = lower_orthant((Q(5, 2), Q(5, 2)))
        assert r.contains((Q(0), Q(0)))
        assert not r.contains((Q(5, 2), Q(0)))
        assert format_region(r) == "(-inf,5/2)x(-inf,5/2)"

    def test_degenerate_halfopen_box_is_empty(self):
        assert halfopen_box((1, 1), (1, 5)).is_empty()
        assert halfopen_box((0, Q(-2, 6)), (5, Q(-1, 3))).is_empty()
        assert halfopen_box((Q(_BIG, _BIG + 1), 0), (Q(_BIG, _BIG + 1), 1)).is_empty()

    def test_halfopen_box_corners(self):
        r = halfopen_box((2, 2), (3, 3))
        assert r.contains((Q(2), Q(2)))
        assert not r.contains((Q(3), Q(3)))

    def test_bad_corners(self):
        with pytest.raises(GeometryError, match="lower corner exceeds upper corner: 2 > 1"):
            halfopen_box((2,), (1,))
        with pytest.raises(GeometryError, match="lower corner exceeds upper corner: -1/3 > -1/2"):
            halfopen_box((0, Q(-1, 3)), (1, Q(-1, 2)))

    def test_bad_corners_after_a_degenerate_axis(self):
        with pytest.raises(GeometryError, match="lower corner exceeds upper corner: 2 > 1"):
            halfopen_box((1, 2), (1, 1))


# random small boxes on a coarse rational grid, for oracle-style comparisons
_VALUES = [Q(0), Q(1, 2), Q(1), Q(2), Q(3)]


@st.composite
def grid_intervals(draw):
    lo_i = draw(st.integers(0, len(_VALUES) - 1))
    hi_i = draw(st.integers(0, len(_VALUES) - 1))
    lo_inf = draw(st.booleans()) and draw(st.booleans())  # bias to finite
    hi_inf = draw(st.booleans()) and draw(st.booleans())
    if lo_inf and hi_inf:
        return Interval(NEG_INF, False, POS_INF, False)
    if lo_inf:
        return Interval(NEG_INF, False, _VALUES[hi_i], draw(st.booleans()))
    if hi_inf:
        return Interval(_VALUES[lo_i], draw(st.booleans()), POS_INF, False)
    if lo_i > hi_i:
        lo_i, hi_i = hi_i, lo_i
    if lo_i == hi_i:
        return Interval(_VALUES[lo_i], True, _VALUES[hi_i], True)
    return Interval(_VALUES[lo_i], draw(st.booleans()), _VALUES[hi_i], draw(st.booleans()))


@st.composite
def regions(draw, n):
    count = draw(st.integers(0, 3))
    boxes = [
        Box(tuple(draw(grid_intervals()) for _ in range(n))) for _ in range(count)
    ]
    return Region(n, boxes)


def _probe_points(n):
    # one probe inside each atomic piece of the _VALUES grid, so membership on
    # the probes decides equality of grid regions
    probes = [Q(-1), Q(0), Q(1, 4), Q(1, 2), Q(3, 4), Q(1), Q(3, 2), Q(2), Q(5, 2), Q(3), Q(4)]
    return list(product(probes, repeat=n))


def any_region():
    return st.integers(1, 3).flatmap(regions)


def region_pairs():
    return st.integers(1, 3).flatmap(lambda n: st.tuples(regions(n), regions(n)))


# In n = 3 one example probes 11^3 points, so these tests set no deadline.
class TestRegionSemantics:
    @settings(deadline=None)
    @given(region_pairs())
    def test_boolean_ops_match_membership(self, pair):
        r1, r2 = pair
        u = union(r1, r2)
        i = intersect(r1, r2)
        d = difference(r1, r2)
        for p in _probe_points(r1.n):
            m1, m2 = r1.contains(p), r2.contains(p)
            assert u.contains(p) == (m1 or m2)
            assert i.contains(p) == (m1 and m2)
            assert d.contains(p) == (m1 and not m2)

    @settings(deadline=None)
    @given(any_region())
    def test_canonicalization_is_a_projection(self, r):
        again = Region(r.n, r.boxes)
        assert again == r

    @settings(deadline=None)
    @given(region_pairs())
    def test_equality_matches_probe_membership(self, pair):
        r1, r2 = pair
        same_probes = all(r1.contains(p) == r2.contains(p) for p in _probe_points(r1.n))
        assert region_equal(r1, r2) == same_probes

    @settings(deadline=None)
    @given(region_pairs())
    def test_difference_of_union_is_inside_first(self, pair):
        r1, r2 = pair
        d = difference(union(r1, r2), r2)
        for p in _probe_points(r1.n):
            if d.contains(p):
                assert r1.contains(p)

    @settings(deadline=None)
    @given(any_region())
    def test_complement_partitions_space(self, r):
        c = complement(r)
        for p in _probe_points(r.n):
            assert r.contains(p) != c.contains(p)


def _plain_member(iv, x):
    """``x`` in ``iv`` by plain comparisons, infinite ends read as float infinities."""
    lo = -math.inf if iv.lo is NEG_INF else iv.lo
    hi = math.inf if iv.hi is POS_INF else iv.hi
    return (lo < x or (lo == x and iv.lo_closed)) and (x < hi or (x == hi and iv.hi_closed))


_COORDS = st.one_of(st.sampled_from(_VALUES), st.fractions(-2, 5, max_denominator=4))

# Small rationals, negative ones among them, and values of (-1, 0) with
# 31-digit denominators, whose order keys all tie on the floor -1.
_EXACT = st.one_of(
    st.fractions(-3, 3, max_denominator=7),
    st.builds(lambda a, e: Q(a, 10 ** 30 + e) - 1,
              st.integers(1, 10 ** 30 - 1), st.integers(0, 10 ** 6)),
)


@st.composite
def exact_intervals(draw):
    """An interval on two ``_EXACT`` values: each closure, an infinite end on
    either side or both, and equal ends, which are closed."""
    a, b = sorted([draw(_EXACT), draw(_EXACT)])
    lo_closed, hi_closed = draw(st.booleans()), draw(st.booleans())
    shape = draw(st.sampled_from(["finite", "point", "below", "above", "line"]))
    if shape == "point" or (shape == "finite" and a == b):
        return Interval(a, True, a, True)
    lo = NEG_INF if shape in ("below", "line") else a
    hi = POS_INF if shape in ("above", "line") else b
    return Interval(lo, lo_closed and is_finite(lo), hi, hi_closed and is_finite(hi))


class TestContainsPredicate:
    """Containment tests the sentinels by identity and compares each finite
    end once; it must agree with the plain predicate, infinite ends included."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_interval_and_region_agree_with_plain_comparisons(self, data):
        n = data.draw(st.integers(1, 3))
        r = data.draw(regions(n))
        for _ in range(5):
            point = tuple(data.draw(_COORDS) for _ in range(n))
            for b in r.boxes:
                for iv, x in zip(b.dims, point):
                    assert iv.contains(x) == _plain_member(iv, x)
            want = any(all(map(_plain_member, b.dims, point)) for b in r.boxes)
            assert r.contains(point) == want

    @settings(max_examples=300, deadline=None)
    @given(st.lists(exact_intervals(), min_size=1, max_size=3), st.data())
    def test_integer_pairs_agree_with_fraction_order(self, ivs, data):
        """Integer cross-products order each coordinate against each end as
        ``Fraction`` comparisons do: every closure, infinite ends, equal
        closed ends, negative values and ends that tie on their floor."""
        ends = [v for iv in ivs for v in (iv.lo, iv.hi) if is_finite(v)]
        near = st.sampled_from(ends or [Q(0)]).flatmap(
            lambda v: st.sampled_from([v, v - Q(1, 10 ** 31), v + Q(1, 10 ** 31)]))
        r = Region(len(ivs), [Box(tuple(ivs))])
        for _ in range(5):
            point = tuple(data.draw(st.one_of(_EXACT, near)) for _ in ivs)
            member = [_plain_member(iv, x) for iv, x in zip(ivs, point)]
            assert [iv.contains(x) for iv, x in zip(ivs, point)] == member
            assert r.contains(point) == all(member)

    @pytest.mark.parametrize("point", [(Q(0),), (Q(0), Q(0), Q(0))])
    @pytest.mark.parametrize("boxes", [0, 1, 2])
    def test_wrong_dimension_point_is_refused(self, boxes, point):
        r = Region(2, [box(closed_open(i, i + 1), closed_open(0, 1))
                       for i in range(0, 2 * boxes, 2)])
        assert len(r.boxes) == boxes
        with pytest.raises(GeometryError, match="coordinates"):
            r.contains(point)


def box_lists(n):
    """Up to four boxes of ``grid_intervals``, before any canonicalization."""
    return st.lists(st.lists(grid_intervals(), min_size=n, max_size=n).map(
        lambda ivs: Box(tuple(ivs))), max_size=4)


class TestCutGridOracle:
    """The cut grid against the value-piece grid (2c + 1 pieces per axis for c
    distinct ends) it replaced: every operation gives identical boxes and text."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), box_lists(n), box_lists(n))))
    def test_matches_the_value_piece_grid(self, case):
        n, raw_a, raw_b = case
        a, b = Region(n, raw_a), Region(n, raw_b)
        for got, box_lists_, keep in [
            (Region(n, raw_a + raw_b), (raw_a + raw_b,), lambda _, c: c),
            (union(a, b), (a.boxes, b.boxes), lambda _, c1, c2: c1 | c2),
            (intersect(a, b), (a.boxes, b.boxes), lambda _, c1, c2: c1 & c2),
            (difference(a, b), (a.boxes, b.boxes), lambda _, c1, c2: c1 - c2),
            (complement(a), (a.boxes,), lambda everything, c: everything - c),
        ]:
            want = reference_canonical_boxes(n, box_lists_, keep)
            assert got.boxes == want
            assert format_region(got) == (" u ".join(map(str, want)) or "empty")

    def test_one_cut_per_distinct_end(self):
        """Half-open boxes cut each axis once per distinct end: the union of
        [0,2)^2 and [1,3)^2 enumerates 5^2 cells, not the 9^2 of value pieces."""
        a, b = halfopen_box((0, 0), (2, 2)), halfopen_box((1, 1), (3, 3))
        cuts, (cells_a, cells_b) = _grid(2, (a.boxes, b.boxes))
        assert cuts == [[(Q(0), 0), (Q(1), 0), (Q(2), 0), (Q(3), 0)]] * 2
        assert math.prod(len(cs) + 1 for cs in cuts) == 25
        assert cells_a == set(product((1, 2), repeat=2)) and len(cells_a | cells_b) == 7
        assert str(union(a, b)) == "[0,1)x[0,2) u [1,2)x[0,3) u [2,3)x[1,3)"


def _canonical(n, boxes):
    """The canonical boxes of ``boxes`` by the cell merge itself, with no shortcut."""
    cuts, (cells,) = _grid(n, (tuple(boxes),))
    return _merged_boxes(cuts, cells)


def lone_boxes():
    return st.integers(1, 3).flatmap(
        lambda n: st.lists(grid_intervals(), min_size=n, max_size=n).map(lambda ivs: Box(tuple(ivs)))
    )


class TestKeptCanonicalForm:
    """A lone box is stored as given and an operation whose result covers an
    operand's cells returns that operand; both must be what the cell merge
    builds."""

    @settings(deadline=None)
    @given(lone_boxes())
    def test_lone_box_is_canonical(self, b):
        r = Region(b.n, [b])
        twice = Region(b.n, [b, b])
        assert r.boxes == (b,) == _canonical(b.n, [b])
        assert r == twice and format_region(r) == format_region(twice)

    @settings(deadline=None)
    @given(region_pairs())
    def test_results_are_canonical(self, pair):
        a, b = pair
        assert union(a, b).boxes == _canonical(a.n, a.boxes + b.boxes)
        assert union(a, b) == Region(a.n, [*a.boxes, *b.boxes])
        for r in (union(a, b), intersect(a, b), difference(a, b), difference(b, a)):
            assert r.boxes == _canonical(a.n, r.boxes)

    @settings(deadline=None)
    @given(any_region())
    def test_unchanged_operand_is_the_result(self, a):
        empty = Region.empty(a.n)
        for got in (union(a, empty), union(empty, a), difference(a, empty), intersect(a, a)):
            assert got == a and format_region(got) == format_region(a)

    @pytest.mark.parametrize("n, axes", [(2, 3), (2, 1), (1, 2)])
    def test_lone_box_of_wrong_dimension_is_refused(self, n, axes):
        with pytest.raises(GeometryError, match="dimension"):
            Region(n, [Box((FULL_LINE,) * axes)])


class TestComplementOracle:
    """``complement`` merges the cells of its operand's own grid that the
    operand misses; it must give what ``difference`` from the full space
    gives."""

    @settings(deadline=None)
    @given(any_region())
    def test_matches_difference_from_full(self, r):
        got = complement(r)
        want = difference(Region.full(r.n), r)
        assert got == want and str(got) == str(want)

    def test_matches_on_suite_regions(self):
        for n in (1, 2, 3):
            assert complement(Region.empty(n)) == Region.full(n)
            assert complement(Region.full(n)).is_empty()
            cfg = TrialConfig(seed=20 + n, trials=0, n_range=(n, n))
            for i in range(30):
                F = from_observable(random_observable(cfg, i))
                coords = [[bs[0] - 1, *bs, bs[-1] + 1] for bs in F.breakpoints]
                rng = SplitMix64(i)
                for _ in range(5):
                    r = _random_grid_region(rng, coords)
                    got = complement(r)
                    want = difference(Region.full(n), r)
                    assert got == want and str(got) == str(want)


class TestEqualEndsFromDistinctObjects:
    """Endpoints are ranked by their reduced integer pair, so equal values
    held by distinct objects share one rank and their pieces merge."""

    @pytest.mark.parametrize("a, b", [(Q(2, 4), Q(1, 2)), (1, Q(1))])
    def test_same_boxes_as_single_source(self, a, b):
        assert a == b and a is not b

        def operands(left_end, right_end):
            left = Region(2, [box(Interval(Q(0), True, left_end, False), closed_open(0, 1))])
            right = Region(2, [box(Interval(right_end, True, Q(3), True),
                                   Interval(right_end, True, right_end, True))])
            return left, right

        mixed, single = operands(a, b), operands(b, b)
        joined = Region(2, mixed[0].boxes + (box(Interval(b, True, Q(3), False), closed_open(0, 1)),))
        assert str(joined) == "[0,3)x[0,1)"
        for op in (union, intersect, difference, lambda r1, r2: Region(2, r1.boxes + r2.boxes)):
            got, want = op(*mixed), op(*single)
            assert got.boxes == want.boxes and str(got) == str(want)
        for r_mixed, r_single in zip(mixed, single):
            assert complement(r_mixed).boxes == complement(r_single).boxes


# endpoints for the seeded canonical-text digest; unequal gaps and a
# negative value keep the grid irregular
_SEEDED_VALUES = [Q(-1), Q(0), Q(1, 3), Q(1, 2), Q(1), Q(3, 2), Q(2), Q(7, 3)]


def _seeded_interval(rng):
    kind = rng.randint(0, 9)
    if kind == 0:
        return FULL_LINE
    if kind == 1:
        return below(rng.choice(_SEEDED_VALUES), closed=rng.randint(0, 1) == 1)
    if kind == 2:
        return above(rng.choice(_SEEDED_VALUES), closed=rng.randint(0, 1) == 1)
    if kind == 3:
        v = rng.choice(_SEEDED_VALUES)
        return Interval(v, True, v, True)
    i = rng.randint(0, len(_SEEDED_VALUES) - 2)
    j = rng.randint(i + 1, len(_SEEDED_VALUES) - 1)
    return Interval(
        _SEEDED_VALUES[i], rng.randint(0, 1) == 1, _SEEDED_VALUES[j], rng.randint(0, 1) == 1
    )


def _seeded_region(rng, n):
    boxes = [
        Box(tuple(_seeded_interval(rng) for _ in range(n))) for _ in range(rng.randint(1, 4))
    ]
    return Region(n, boxes)


def _seeded_transcript(seed, n, ops):
    """``format_region`` of each random region and of each boolean-op result.

    Results go back into a pool of six regions, so later operands are
    themselves results; an empty or full result is replaced by a fresh region
    so the pool does not collapse.
    """
    rng = SplitMix64(seed)
    full = Region.full(n)
    pool = [_seeded_region(rng, n) for _ in range(6)]
    lines = [format_region(r) for r in pool]
    for _ in range(ops):
        op = rng.randint(0, 3)
        i = rng.randint(0, len(pool) - 1)
        a, b = pool[i], pool[(i + rng.randint(1, len(pool) - 1)) % len(pool)]
        if op == 0:
            got = union(a, b)
        elif op == 1:
            got = intersect(a, b)
        elif op == 2:
            got = difference(a, b)
        else:
            got = complement(a)
        lines.append(format_region(got))
        if got.is_empty() or got == full:
            got = _seeded_region(rng, n)
            lines.append(format_region(got))
        pool[rng.randint(0, len(pool) - 1)] = got
    return lines


class TestCanonicalText:
    def test_seeded_boolean_ops_digest(self):
        # pins the exact canonical text (box order, closure flags, merges) of
        # 450 operations and the regions they draw in n = 1, 2, 3
        lines = []
        for n in (1, 2, 3):
            lines.extend(f"{n} {text}" for text in _seeded_transcript(1000 + n, n, 150))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "8edc5f6a70fe0a1e08f126596f93440abe6f2f3435ee990331823590dcf0d609"


_BIG = 10 ** 3999 + 7  # 4000 digits, the most a document coordinate may have


class TestOrderKey:
    """Sorting by ``order_key`` is sorting the ``Fraction`` values themselves."""

    CASES = {
        "shared floor": [Q(1, 3), Q(1, 2), Q(2, 3), Q(5, 7), Q(3, 7), Q(99, 100), Q(0)],
        "negative non-integers": [Q(-1, 2), Q(-3, 2), Q(-1), Q(-2), Q(-5, 3), Q(-4, 3), Q(0)],
        "integers": [Q(v) for v in (5, -5, 0, 3, -1, 2, -10 ** 40, 10 ** 40)],
        "4000 digits": [Q(_BIG, _BIG + 1), Q(_BIG - 1, _BIG), Q(-_BIG, _BIG + 1),
                        Q(_BIG + 1, _BIG), Q(_BIG), Q(-_BIG), Q(1, _BIG), Q(-1, _BIG),
                        Q(_BIG, 3), Q(_BIG + 1, 3)],
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_sorts_like_the_values(self, case):
        values = self.CASES[case]
        for shift in range(len(values)):
            rotated = values[shift:] + values[:shift]
            assert sorted(rotated, key=order_key) == sorted(rotated)

    @given(st.lists(st.fractions(max_denominator=50), min_size=2, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_sorts_drawn_values_like_the_values(self, values):
        assert sorted(values, key=order_key) == sorted(values)

    @pytest.mark.parametrize("a, b", [(Q(-1, 2), Q(-3, 2)), (Q(1, 2), Q(2, 4)),
                                      (Q(-1), Q(-1, 2)), (Q(0), Q(-1, _BIG))])
    def test_compares_like_the_values(self, a, b):
        assert (order_key(a) < order_key(b)) == (a < b)
        assert (order_key(a) == order_key(b)) == (a == b)


class TestText:
    @pytest.mark.parametrize(
        "text",
        ["[1,2)", "(2,3]", "(-inf,5)", "(7/2,+inf)", "[0,0]", "(-inf,+inf)"],
    )
    def test_interval_round_trip(self, text):
        assert str(parse_interval(text)) == text

    @given(any_region())
    def test_region_round_trip(self, r):
        assert parse_region(format_region(r), r.n) == r

    def test_parse_point(self):
        assert parse_point("4,4") == (Q(4), Q(4))
        assert parse_point("1/2,-3") == (Q(1, 2), Q(-3))

    def test_parse_garbage(self):
        with pytest.raises(GeometryError):
            parse_interval("[1,2,3)")
        with pytest.raises(GeometryError):
            parse_point("a,b")

    @given(st.from_regex(r"\s?[+-]?(?:[0-9]{1,30}(?:/[0-9]{1,30}|\.[0-9]{0,30})?|\.[0-9]{1,30})\s?",
                         fullmatch=True))
    @settings(max_examples=300)
    def test_parse_rational_reads_like_fraction(self, text):
        """Integers and p/q are read with int(); the value is Fraction's."""
        try:
            want = Q(text)
        except ZeroDivisionError:
            with pytest.raises(GeometryError, match="cannot parse rational"):
                parse_rational(text)
            return
        got = parse_rational(text)
        assert type(got) is Q and got == want


@st.composite
def grid_cell_subsets(draw):
    """A breakpoint grid in n = 1, 2, 3 and a random subset of its cells."""
    n = draw(st.integers(1, 3))
    axis = st.lists(st.fractions(-6, 6, max_denominator=3), min_size=1, max_size=4, unique=True)
    breakpoints = [sorted(draw(axis)) for _ in range(n)]
    cells = list(product(*[range(len(bs) + 1) for bs in breakpoints]))
    return breakpoints, draw(st.lists(st.sampled_from(cells), max_size=len(cells)))


@st.composite
def grid_cell_draws(draw):
    """A breakpoint grid in n = 1..4 and cells on it that repeat some cells and
    hit the top cell (index m) of every axis."""
    n = draw(st.integers(1, 4))
    axis = st.lists(st.fractions(-6, 6, max_denominator=3), min_size=1, max_size=5 - n // 2,
                    unique=True)
    breakpoints = [sorted(draw(axis)) for _ in range(n)]
    index = st.tuples(*[st.integers(0, len(bs)) for bs in breakpoints])
    cells = draw(st.lists(index, min_size=1, max_size=12))
    for j, bs in enumerate(breakpoints):
        cell = draw(index)
        cells.append(cell[:j] + (len(bs),) + cell[j + 1:])
    cells += draw(st.lists(st.sampled_from(cells), min_size=1, max_size=4))
    return breakpoints, draw(st.permutations(cells))


@st.composite
def level_tables(draw):
    """A ``from_cells`` resolution with an independent member of [0, u] on every cell."""
    sig = AlgebraSignature(draw(st.integers(1, 4)), 1)
    n = draw(st.integers(1, 4))
    breakpoints = [[Q(b) for b in range(draw(st.integers(1, 4 - n // 2)))] for _ in range(n)]
    values = {}
    for idx in product(*[range(len(bs) + 1) for bs in breakpoints]):
        h = draw(st.integers(0, sig.k))
        g = draw(st.integers(0 if h == 0 else -3, 0 if h == sig.k else 3))
        values[idx] = LexElement(sig, h, (g,))
    return from_cells(sig, n, breakpoints, values)


def _zero_grid(breakpoints):
    sig = AlgebraSignature(1, 1)
    cells = product(*[range(len(bs) + 1) for bs in breakpoints])
    return from_cells(sig, len(breakpoints), breakpoints, {idx: sig.zero for idx in cells})


class TestCellRegion:
    @settings(max_examples=300, deadline=None)
    @given(grid_cell_subsets())
    def test_matches_the_union_of_cell_boxes(self, grid):
        breakpoints, cells = grid
        sig = AlgebraSignature(1, 1)
        grid_F = from_cells(
            sig, len(breakpoints), breakpoints,
            {idx: sig.zero for idx in product(*[range(len(bs) + 1) for bs in breakpoints])},
        )
        want = Region(len(breakpoints), [reference_cell_box(grid_F, idx) for idx in cells])
        got = parse_region(cell_region_text(cell_ends(grid_F.breakpoints), set(cells)), want.n)
        assert got.n == want.n and got.boxes == want.boxes

    @settings(max_examples=300, deadline=None)
    @given(grid_cell_draws())
    def test_duplicates_and_top_cells_in_n_up_to_4(self, grid):
        breakpoints, cells = grid
        grid_F = _zero_grid(breakpoints)
        want = Region(len(breakpoints), [reference_cell_box(grid_F, idx) for idx in cells])
        got = parse_region(cell_region_text(cell_ends(grid_F.breakpoints), set(cells)), want.n)
        assert got.n == want.n and got.boxes == want.boxes

    @settings(max_examples=300, deadline=None)
    @given(grid_cell_subsets(), st.sampled_from(["drawn", "empty", "single", "full"]))
    def test_run_text_matches_the_region_text(self, grid, which):
        breakpoints, cells = grid
        everything = list(product(*[range(len(bs) + 1) for bs in breakpoints]))
        cells = {
            "drawn": set(cells), "empty": set(), "single": set(everything[-1:]),
            "full": set(everything),
        }[which]
        text = cell_region_text(cell_ends(breakpoints), cells)
        grid_F = _zero_grid(breakpoints)
        want = Region(len(breakpoints), [reference_cell_box(grid_F, idx) for idx in cells])
        assert text == str(want) and parse_region(text, want.n) == want

    def _assert_level_partition(self, F):
        decomp = level_regions(F)
        levels = sorted(decomp.regions)
        values = F.values
        for i in levels:
            cells = [idx for idx in F.cells() if values[idx].h == i]
            assert decomp.regions[i] == Region(F.n, [reference_cell_box(F, idx) for idx in cells])
        for a, i in enumerate(levels):
            for j in levels[a + 1:]:
                assert intersect(decomp.regions[i], decomp.regions[j]).is_empty()
        whole = Region.empty(F.n)
        for i in levels:
            whole = union(whole, decomp.regions[i])
        assert whole == Region.full(F.n)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6))
    def test_level_regions_partition_observable_grids(self, index):
        cfg = TrialConfig(seed=7, k_range=(1, 3), n_range=(1, 3), max_atoms=6)
        self._assert_level_partition(from_observable(random_observable(cfg, index)))

    @settings(max_examples=60, deadline=None)
    @given(level_tables())
    def test_level_regions_partition_level_tables(self, F):
        self._assert_level_partition(F)
