from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from lexspec.lexalg import (
    AlgebraError,
    AlgebraSignature,
    Comparison,
    LexElement,
    format_element,
    group_add,
    group_sub,
    in_unit_interval,
    join,
    lex_cmp,
    meet,
    mv_neg,
    mv_oplus,
    parse_element,
    partial_add,
    sum_finite,
)

from oracles import height_class, mv_odot

SIG21 = AlgebraSignature(2, 1)
SIG12 = AlgebraSignature(1, 2)


def el(sig, h, *g):
    return LexElement(sig, h, tuple(g))


@st.composite
def signatures(draw):
    return AlgebraSignature(draw(st.integers(1, 4)), draw(st.integers(1, 2)))


def members(sig: AlgebraSignature):
    def build(h, raw):
        g = list(raw[: sig.d])
        if h == 0:
            g = [abs(c) for c in g]
        elif h == sig.k:
            g = [-abs(c) for c in g]
        return LexElement(sig, h, tuple(g))

    return st.builds(
        build,
        st.integers(0, sig.k),
        st.lists(st.integers(-5, 5), min_size=sig.d, max_size=sig.d),
    )


@st.composite
def member_pairs(draw):
    sig = draw(signatures())
    return draw(members(sig)), draw(members(sig))


@st.composite
def member_triples(draw):
    sig = draw(signatures())
    return draw(members(sig)), draw(members(sig)), draw(members(sig))


class TestComparison:
    def test_equal_height_compares_componentwise(self):
        assert lex_cmp(el(SIG21, 1, 2), el(SIG21, 1, 3)) is Comparison.LESS

    def test_height_dominates(self):
        assert lex_cmp(el(SIG21, 0, 5), el(SIG21, 1, -100)) is Comparison.LESS

    def test_incomparable_needs_rank_two(self):
        assert lex_cmp(el(SIG12, 1, 0, 1), el(SIG12, 1, 1, 0)) is Comparison.INCOMPARABLE

    def test_signature_mismatch_rejected(self):
        with pytest.raises(AlgebraError):
            lex_cmp(el(SIG21, 0, 0), el(SIG12, 0, 0, 0))


class TestGroupOps:
    def test_add(self):
        assert group_add(el(SIG21, 1, 2), el(SIG21, 1, -3)) == el(SIG21, 2, -1)

    def test_sub(self):
        assert group_sub(el(SIG21, 2, 0), el(SIG21, 1, 2)) == el(SIG21, 1, -2)

    def test_self_difference_is_zero(self):
        a = el(SIG21, 1, 7)
        assert group_sub(a, a) == SIG21.zero


class TestLattice:
    def test_meet_equal_height(self):
        assert meet(el(SIG21, 2, 4), el(SIG21, 2, 0)) == el(SIG21, 2, 0)

    def test_meet_lower_height_wins(self):
        assert meet(el(SIG21, 1, 9), el(SIG21, 2, -9)) == el(SIG21, 1, 9)

    def test_join_componentwise(self):
        assert join(el(SIG12, 1, 0, 3), el(SIG12, 1, 2, 1)) == el(SIG12, 1, 2, 3)

    @given(member_pairs())
    def test_lattice_laws(self, pair):
        a, b = pair
        assert meet(a, b) == meet(b, a)
        assert join(a, b) == join(b, a)
        assert meet(a, join(a, b)) == a
        assert join(a, meet(a, b)) == a

    @given(member_pairs())
    def test_meet_join_agree_with_order(self, pair):
        a, b = pair
        assert meet(a, b) <= a
        assert meet(a, b) <= b
        assert a <= join(a, b)
        if a <= b:
            assert meet(a, b) == a and join(a, b) == b


class TestMvOps:
    def test_oplus_below_unit(self):
        # group sum (2; -1) is below u, so the meet leaves it alone
        assert mv_oplus(el(SIG21, 1, 2), el(SIG21, 1, -3)) == el(SIG21, 2, -1)

    def test_oplus_clips_at_unit(self):
        # (2; 4) meet (2; 0) compares componentwise at equal height
        assert mv_oplus(el(SIG21, 1, 2), el(SIG21, 1, 2)) == SIG21.unit

    def test_neg(self):
        assert mv_neg(el(SIG21, 1, 2)) == el(SIG21, 1, -2)

    def test_operand_outside_interval_rejected(self):
        with pytest.raises(AlgebraError):
            mv_oplus(el(SIG21, 3, 0), el(SIG21, 0, 0))

    @given(members(SIG21))
    def test_involution(self, a):
        assert mv_neg(mv_neg(a)) == a

    @given(members(SIG21))
    def test_oplus_with_unit(self, a):
        assert mv_oplus(a, SIG21.unit) == SIG21.unit

    @given(member_pairs())
    def test_lukasiewicz_axiom(self, pair):
        a, b = pair
        lhs = mv_oplus(a, mv_neg(mv_oplus(a, mv_neg(b))))
        rhs = mv_oplus(b, mv_neg(mv_oplus(b, mv_neg(a))))
        assert lhs == rhs

    def test_zero_neg_is_unit(self):
        assert mv_neg(SIG21.zero) == SIG21.unit

    @given(member_pairs())
    def test_oplus_commutative(self, pair):
        a, b = pair
        assert mv_oplus(a, b) == mv_oplus(b, a)

    @given(member_triples())
    def test_oplus_associative(self, triple):
        a, b, c = triple
        assert mv_oplus(mv_oplus(a, b), c) == mv_oplus(a, mv_oplus(b, c))


class TestPartialAdd:
    def test_defined_example(self):
        assert partial_add(el(SIG21, 1, 2), el(SIG21, 1, -3)) == el(SIG21, 2, -1)

    def test_undefined_example(self):
        assert partial_add(el(SIG21, 1, 2), el(SIG21, 1, 2)) is None

    @given(members(SIG21))
    def test_zero_is_neutral(self, a):
        assert partial_add(a, SIG21.zero) == a

    @given(member_pairs())
    def test_defined_iff_odot_zero(self, pair):
        a, b = pair
        sig = a.signature
        summed = partial_add(a, b)
        if mv_odot(a, b) == sig.zero:
            assert summed is not None
            assert summed == mv_oplus(a, b)
        else:
            assert summed is None

    @given(member_pairs())
    def test_agrees_with_group_add_when_defined(self, pair):
        a, b = pair
        summed = partial_add(a, b)
        if summed is not None:
            assert summed == group_add(a, b)


class TestSumFinite:
    def test_three_atom_weights(self):
        items = [el(SIG21, 0, 1), el(SIG21, 1, 2), el(SIG21, 1, -3)]
        assert sum_finite(items) == SIG21.unit

    def test_height_overflow_is_undefined(self):
        items = [el(SIG21, 1, 0)] * 3
        assert sum_finite(items) is None

    def test_empty_needs_signature(self):
        with pytest.raises(AlgebraError):
            sum_finite([])

    @given(st.lists(members(SIG21), min_size=1, max_size=5), st.randoms())
    def test_permutation_invariance(self, items, rnd):
        shuffled = list(items)
        rnd.shuffle(shuffled)
        assert sum_finite(items) == sum_finite(shuffled)


class TestMembership:
    def test_radical_element(self):
        a = el(SIG21, 0, 7)
        assert height_class(a) == 0
        assert in_unit_interval(a)

    def test_coradical_element(self):
        a = el(SIG21, 2, -2)
        assert height_class(a) == 2
        assert in_unit_interval(a)

    def test_negative_infinitesimal_at_zero_height_excluded(self):
        assert not in_unit_interval(el(SIG21, 0, -3))

    @given(member_pairs())
    def test_members_are_between_bounds(self, pair):
        a, _ = pair
        sig = a.signature
        assert sig.zero <= a <= sig.unit


class TestText:
    @pytest.mark.parametrize(
        "element,text",
        [
            (el(SIG21, 1, 2), "(1; 2)"),
            (el(SIG21, 2, 0), "(2; 0)"),
            (el(SIG12, 0, 3, -4), "(0; 3, -4)"),
        ],
    )
    def test_format(self, element, text):
        assert format_element(element) == text

    @given(member_pairs())
    def test_round_trip(self, pair):
        a, _ = pair
        assert parse_element(format_element(a), a.signature) == a

    def test_parse_rejects_wrong_rank(self):
        with pytest.raises(AlgebraError):
            parse_element("(1; 2, 3)", SIG21)
