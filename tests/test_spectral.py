from __future__ import annotations

import time
from fractions import Fraction as Q
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from lexspec import spectral
from lexspec.charpoints import ReconstructionError, reconstruct
from lexspec.gallery import build_observable
from lexspec.lexalg import AlgebraError, AlgebraSignature, LexElement, in_unit_interval
from lexspec.observable import (
    Atom,
    DiscreteObservable,
    ObservableError,
    make_observable,
    observable_from_doc,
)
from lexspec.spectral import (
    MAX_DENSE_CELLS,
    ResolutionError,
    StepResolution,
    _cell_doc,
    _element,
    _sweep,
    additive_extension,
    check_axioms,
    eval_F,
    from_cells,
    from_observable,
    partial_delta,
    point_mass_via_deltas,
    resolution_from_doc,
    resolution_from_json,
    resolution_to_doc,
    resolution_to_json,
    to_observable,
    volume,
)
from lexspec.verify import SplitMix64, TrialConfig, mismatch_resolution, random_observable

from oracles import (
    check_masses,
    oracle_difference_statuses,
    reference_cell_box,
    reference_partial_delta,
    reference_point_mass,
    reference_sweep,
    reference_volume,
    resolutions,
)

SIG = AlgebraSignature(2, 1)


def el(h, g, sig=SIG):
    return LexElement(sig, h, (g,))


@pytest.fixture(scope="module")
def F1():
    return from_observable(build_observable("3.7/1"))


@pytest.fixture(scope="module")
def F7():
    return from_observable(build_observable("3.7/7"))


class TestFromObservable:
    def test_everything_dominated(self, F1):
        assert eval_F(F1, (4, 4)) == SIG.unit

    def test_partial_domination(self, F1):
        assert eval_F(F1, (Q(5, 2), Q(5, 2))) == el(1, 3)

    def test_domination_is_strict(self, F1):
        assert eval_F(F1, (1, 10)) == SIG.zero

    def test_breakpoints_are_atom_coordinates(self, F1):
        assert F1.breakpoints == ((1, 2, 3), (1, 2, 3))

    def test_case_five_value(self):
        F = from_observable(build_observable("3.7/5"))
        assert eval_F(F, (Q(5, 2), Q(5, 2))) == SIG.unit

    def test_huge_dense_grid_rejected_before_building_it(self):
        # 40 atoms on the diagonal of R^6 ask for 41^6 (about 4.7e9) cells;
        # the masses alone settle the axioms, and the table is refused
        doc = {
            "kind": "observable", "k": 40, "d": 1, "n": 6,
            "atoms": [{"point": [i] * 6, "weight": {"h": 1, "g": [0]}} for i in range(40)],
        }
        start = time.perf_counter()
        F = from_observable(observable_from_doc(doc))
        assert F.shape == (40,) * 6
        with pytest.raises(ResolutionError, match=f"exceeds the limit of {MAX_DENSE_CELLS}"):
            F.table
        assert check_axioms(F).ok
        assert time.perf_counter() - start < 1.0


class TestEvalF:
    def test_top_cell_is_unit(self, F1):
        assert eval_F(F1, (100, 100)) == SIG.unit

    def test_bottom_cells_are_zero(self, F1):
        assert eval_F(F1, (1, 100)) == SIG.zero
        assert eval_F(F1, (-50, 2)) == SIG.zero


class TestVolume:
    def test_single_atom_box(self, F1):
        assert volume(F1, [(2, 3), (2, 3)]) == el(1, 2)

    def test_degenerate_box(self, F1):
        assert volume(F1, [(2, 2), (2, 3)]) == SIG.zero

    def test_case_seven_strip(self, F7):
        assert volume(F7, [(2, 3), (1, 4)]) == LexElement(AlgebraSignature(3, 1), 1, (2,))

    def test_bad_bounds(self, F1):
        with pytest.raises(ResolutionError, match="lower bound exceeds upper bound: 3 > 2"):
            volume(F1, [(3, 2), (2, 3)])
        with pytest.raises(ResolutionError, match="lower bound exceeds upper bound: -1/3 > -1/2"):
            volume(F1, [(0, 1), (Q(-1, 3), Q(-1, 2))])

    def test_volume_equals_box_mass(self, F1):
        # the corner sum reproduces the observable's value on the box
        x = build_observable("3.7/1")
        from lexspec.boxgeom import halfopen_box

        for lo1, hi1, lo2, hi2 in [(0, 4, 0, 4), (1, 3, 2, 4), (2, 4, 1, 2)]:
            got = volume(F1, [(lo1, hi1), (lo2, hi2)])
            want = x.eval(halfopen_box((lo1, lo2), (hi1, hi2)))
            assert got == want


class TestPartialDelta:
    def test_one_axis_difference(self, F1):
        got = partial_delta(F1, {0: (2, 3)}, (0, Q(5, 2)))
        assert got == el(1, 2)

    def test_empty_range(self, F1):
        assert partial_delta(F1, {0: (2, 2)}, (0, Q(5, 2))) == SIG.zero

    def test_axis_count_validated(self, F1):
        with pytest.raises(ResolutionError):
            partial_delta(F1, {0: (1, 2), 1: (1, 2)}, (0, 0))

    @pytest.mark.parametrize("point", [[0], [0, 0], [0, 0, 0, 0]])
    def test_point_dimension_validated(self, point):
        F = from_observable(make_observable(SIG, 3, [((1, 1, 1), SIG.unit)]))
        with pytest.raises(ResolutionError, match=f"point dimension {len(point)}, grid has 3"):
            partial_delta(F, {2: (0, 1)}, point)

    def test_iterated_deltas_compose_to_volume_in_either_order(self, F7):
        # composing single-axis differences equals the corner sum over the
        # box, whichever axis is applied first
        from lexspec.lexalg import group_sub

        for (a1, b1, a2, b2) in [(1, 2, 1, 3), (2, 3, 1, 4), (1, 4, 2, 3)]:
            box = volume(F7, [(a1, b1), (a2, b2)])
            d2_then_d1 = group_sub(
                partial_delta(F7, {0: (a1, b1)}, (0, b2)),
                partial_delta(F7, {0: (a1, b1)}, (0, a2)),
            )
            d1_then_d2 = group_sub(
                partial_delta(F7, {1: (a2, b2)}, (b1, 0)),
                partial_delta(F7, {1: (a2, b2)}, (a1, 0)),
            )
            assert d2_then_d1 == box
            assert d1_then_d2 == box


class TestPointMass:
    def test_atom_point(self, F1):
        assert point_mass_via_deltas(F1, (3, 3)) == el(1, -3)

    def test_off_grid_point(self, F1):
        assert point_mass_via_deltas(F1, (Q(7, 2), Q(1, 3))) == SIG.zero

    def test_case_eight(self):
        F = from_observable(build_observable("3.7/8"))
        assert point_mass_via_deltas(F, (2, 1)) == LexElement(AlgebraSignature(3, 1), 2, (-1,))

    def test_agrees_with_observable_everywhere(self):
        cfg = TrialConfig(seed=3, trials=0, k_range=(1, 4), n_range=(1, 3), max_atoms=5)
        for i in range(20):
            x = random_observable(cfg, i)
            F = from_observable(x)
            for atom in x.atoms:
                assert point_mass_via_deltas(F, atom.point) == atom.weight
            off = tuple(Q(9, 2) for _ in range(x.n))
            assert point_mass_via_deltas(F, off) == x.point_mass(off)


class TestFromCells:
    def test_round_trip_identity(self, F1):
        rebuilt = from_cells(F1.signature, F1.n, F1.breakpoints, F1.values)
        assert rebuilt == F1

    def test_single_point_mass_grid(self):
        sig = AlgebraSignature(2, 1)
        values = {
            (0, 0): sig.zero, (0, 1): sig.zero, (1, 0): sig.zero,
            (1, 1): sig.unit,
        }
        F = from_cells(sig, 2, ((Q(1),), (Q(1),)), values)
        assert check_axioms(F).ok
        assert point_mass_via_deltas(F, (1, 1)) == sig.unit

    def test_missing_cell_rejected(self):
        sig = AlgebraSignature(2, 1)
        with pytest.raises(ResolutionError, match="cell map"):
            from_cells(sig, 2, ((Q(1),), (Q(1),)), {(0, 0): sig.zero})

    def test_mismatch_reports_first_missing_and_extra_cells(self):
        sig = AlgebraSignature(2, 1)
        values = {(0, 0): sig.zero, (0, 2): sig.zero, (1, 1, 0): sig.zero}
        with pytest.raises(ResolutionError) as info:
            from_cells(sig, 2, ((Q(1),), (Q(1),)), values)
        assert str(info.value) == (
            "cell map mismatch: missing at least 2^2 - 1 cells [(0, 1), (1, 0), (1, 1)], "
            "extra 2 [(0, 2), (1, 1, 0)]"
        )

    def test_huge_grid_rejected_without_enumerating_it(self):
        # 61^6 (about 5e10) cells are declared and one is given
        sig = AlgebraSignature(1, 1)
        breaks = [tuple(Q(b) for b in range(60))] * 6
        start = time.perf_counter()
        with pytest.raises(ResolutionError, match="cell map mismatch"):
            from_cells(sig, 6, breaks, {(0,) * 6: sig.zero})
        assert time.perf_counter() - start < 1.0

    def test_value_outside_interval_rejected(self):
        sig = AlgebraSignature(2, 1)
        bad = LexElement(sig, 3, (0,))
        values = {
            (0, 0): sig.zero, (0, 1): sig.zero, (1, 0): sig.zero, (1, 1): bad,
        }
        with pytest.raises(ResolutionError, match="outside"):
            from_cells(sig, 2, ((Q(1),), (Q(1),)), values)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 2), st.data())
    def test_first_value_outside_the_interval_is_named(self, k, d, data):
        """The column-wise check refuses exactly the tables with a value
        outside [0, u], and names the first one in cell order."""
        sig = AlgebraSignature(k, d)
        heights = st.integers(0, k) | st.sampled_from([-1, k + 1])
        values = {
            idx: LexElement(sig, data.draw(heights), tuple(data.draw(st.lists(
                st.integers(-2, 2), min_size=d, max_size=d))))
            for idx in product(range(3), range(2))
        }
        bad = next((f"cell {idx} value {v} lies outside [0, u]"
                    for idx, v in values.items() if not in_unit_interval(v)), None)
        if bad is None:
            assert from_cells(sig, 2, ((Q(0), Q(1)), (Q(0),)), values).values == values
        else:
            with pytest.raises(ResolutionError) as info:
                from_cells(sig, 2, ((Q(0), Q(1)), (Q(0),)), values)
            assert str(info.value) == bad

    def test_cell_count_not_multiplied_out_when_2_to_the_n_exceeds_the_map(self, monkeypatch):
        monkeypatch.setattr(spectral, "prod", None)  # any call raises TypeError
        sig = AlgebraSignature(1, 1)
        half = {(r, s, 0): sig.zero for r in range(2) for s in range(2)}  # 4 of the 8 cells
        with pytest.raises(ResolutionError, match="cell map mismatch"):
            from_cells(sig, 3, [[Q(0)]] * 3, half)

    def test_unsorted_breakpoints_rejected(self):
        sig = AlgebraSignature(2, 1)
        with pytest.raises(ResolutionError, match="increasing"):
            from_cells(sig, 2, ((Q(2), Q(1)), (Q(1),)), {})

    def test_cell_boxes_are_the_axis_intervals(self):
        rng = SplitMix64(12)
        sig = AlgebraSignature(1, 1)
        for n in (1, 2, 3):
            for _ in range(60):
                breaks = []
                for _ in range(n):
                    count = rng.randint(1, 4)
                    ends = {Q(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(count)}
                    breaks.append(sorted(ends))
                cells = product(*[range(len(bs) + 1) for bs in breaks])
                F = from_cells(sig, n, breaks, dict.fromkeys(cells, sig.zero))
                for idx, t in F.table.items():
                    assert _cell_doc(F, idx, t)["cell"] == str(reference_cell_box(F, idx))


class TestCheckAxioms:
    def test_observable_derived_passes(self):
        cfg = TrialConfig(seed=11, trials=0, k_range=(1, 5), n_range=(1, 3), max_atoms=6)
        for i in range(25):
            F = from_observable(random_observable(cfg, i))
            assert check_axioms(F).ok

    def test_decreasing_pair_fails_monotony(self):
        sig = AlgebraSignature(2, 1)
        values = {
            (0, 0): sig.zero, (0, 1): sig.zero, (0, 2): sig.zero,
            (1, 0): sig.zero, (2, 0): sig.zero,
            (1, 1): el(1, 5), (1, 2): el(1, 3),  # drops along axis 1
            (2, 1): el(1, 5), (2, 2): sig.unit,
        }
        F = from_cells(sig, 2, ((1, 2), (1, 2)), values)
        report = check_axioms(F)
        assert not report.statuses["monotone"].ok
        assert report.statuses["monotone"].witness is not None

    def test_mismatch_family_passes(self):
        assert check_axioms(mismatch_resolution()).ok

    def test_left_continuity_reported_structural(self, F1):
        status = check_axioms(F1).statuses["left_continuity"]
        assert status.ok and "construction" in status.note

    @pytest.mark.parametrize("idx", [(0, 0), (2, 1), (3, 3)])
    def test_foreign_signature_value_raises(self, F1, idx):
        # a resolution stores flat tuples of its own signature, so the
        # builders refuse a foreign value before any tuple is stored
        values = F1.values
        v = values[idx]
        values[idx] = LexElement(AlgebraSignature(5, 1), v.h, v.g)
        with pytest.raises(ResolutionError, match="foreign signature"):
            from_cells(F1.signature, F1.n, F1.breakpoints, values)

    def test_foreign_signature_weight_raises(self):
        # DiscreteObservable built directly, past make_observable's checks
        x = build_observable("3.7/1")
        atoms = list(x.atoms)
        w = atoms[0].weight
        atoms[0] = Atom(atoms[0].point, LexElement(AlgebraSignature(5, 1), w.h, w.g))
        with pytest.raises(AlgebraError, match="signature mismatch"):
            from_observable(DiscreteObservable(x.signature, x.n, tuple(atoms)))


def _brute_force_box_volumes(F: StepResolution):
    """Oracle: volumes of every grid-aligned half-open box, by direct corner sums.

    Grid coordinates per axis: all breakpoints plus one value past the top,
    so boxes can cover the final cells.
    """
    coords = []
    for j in range(F.n):
        bs = list(F.breakpoints[j])
        coords.append(bs + [bs[-1] + 1])
    vols = []
    for pairs in product(*[list(combinations(c, 2)) for c in coords]):
        vols.append((pairs, volume(F, list(pairs))))
    return vols


def _random_table(rng: SplitMix64, k=2, m=2):
    """Random (often pathological) value table on an m x m breakpoint grid."""
    sig = AlgebraSignature(k, 1)
    values = {}
    for idx in product(range(m + 1), repeat=2):
        if 0 in idx:
            values[idx] = sig.zero
            continue
        h = rng.randint(0, k)
        if h == 0:
            g = rng.randint(0, 4)
        elif h == k:
            g = rng.randint(-4, 0)
        else:
            g = rng.randint(-4, 4)
        values[idx] = LexElement(sig, h, (g,))
    values[(m, m)] = sig.unit
    breaks = tuple(Q(v) for v in range(1, m + 1))
    return from_cells(sig, 2, (breaks, breaks), values)


def _perturbed(rng: SplitMix64, F: StepResolution) -> StepResolution:
    """``F`` with up to two cells overwritten by random members of [0, u].

    The cells are drawn from the top cell, the border cells (some index 0)
    and the whole grid, so borders turn nonzero, the top leaves the unit and
    increments turn negative.
    """
    sig = F.signature
    cells = list(F.cells())
    borders = [idx for idx in cells if 0 in idx]
    values = dict(F.values)
    for _ in range(rng.randint(0, 2)):
        value = LexElement(sig, rng.randint(0, sig.k), (rng.randint(-3, 3),))
        if in_unit_interval(value):
            values[rng.choice([F.shape, rng.choice(borders), rng.choice(cells)])] = value
    return from_cells(sig, F.n, F.breakpoints, values)


def _signed_table(rng: SplitMix64, n: int, k: int = 3) -> StepResolution:
    """Level table on a grid with two breakpoints per axis: the sum of the
    weights at rank vectors at or below each cell, for k weights of height 1
    and one to three pairs of weights -(0, 1) and (0, 1).  Draws with a value
    outside [0, u] are drawn again, so differences along some axis sets go
    negative while the values stay in range."""
    sig = AlgebraSignature(k, 1)
    while True:
        weights = [(1, rng.randint(-1, 1)) for _ in range(k)]
        weights += [(0, g) for g in (-1, 1) * rng.randint(1, 3)]
        ranks = [tuple(rng.randint(1, 2) for _ in range(n)) for _ in weights]
        values = {}
        for idx in product(range(3), repeat=n):
            below = [w for w, r in zip(weights, ranks) if all(a <= b for a, b in zip(r, idx))]
            values[idx] = LexElement(sig, sum(h for h, _ in below), (sum(g for _, g in below),))
        if all(map(in_unit_interval, values.values())):
            return from_cells(sig, n, [(Q(1), Q(2))] * n, values)


class TestVolumeReductionOracle:
    """The atomic-box reduction in check_axioms against brute-force enumeration."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_difference_statuses_match_corner_sums(self, n):
        cfg = TrialConfig(
            seed=n, trials=0, k_range=(1, 3), d_range=(1, 1), n_range=(min(n, 3),) * 2,
            max_atoms=4,
        )
        rng = SplitMix64(40 + n)
        verdicts = {}
        pd_sizes, drop_axes = set(), set()
        for i in range(60):
            # random_observable stops at n = 3; n = 4 takes signed level tables
            F = _perturbed(
                rng, from_observable(random_observable(cfg, i)) if n < 4 else _signed_table(rng, n)
            )
            statuses = check_axioms(F).statuses
            for name, want in oracle_difference_statuses(F).items():
                assert (statuses[name].ok, statuses[name].witness) == want
            for name, status in statuses.items():
                verdicts.setdefault(name, set()).add(status.ok)
            if not statuses["monotone"].ok:
                drop_axes.add(statuses["monotone"].witness["axis"])
            if n > 1 and not statuses["partial_delta_nonneg"].ok:
                pd_sizes.add(len(statuses["partial_delta_nonneg"].witness["axes"]))
            # the masses are the first differences; summing them back gives F
            masses = dict(F.table)
            _sweep(masses, F.shape, range(F.n), diff=True)
            for idx in product(*[range(1, m + 1) for m in F.shape]):
                lower = [F.breakpoints[j][r - 1] for j, r in enumerate(idx)]
                assert _element(F.signature, masses[idx]) == point_mass_via_deltas(F, lower)
            _sweep(masses, F.shape, range(F.n))
            assert masses == dict(F.table)
        checked = ["monotone", "bottom_zero", "top_unit", "volume_nonneg"]
        if n > 1:
            checked.append("partial_delta_nonneg")
        assert all(verdicts[name] == {True, False} for name in checked), verdicts
        # each axis set size, and each axis, gives a first witness somewhere
        assert pd_sizes == set(range(1, n)) and drop_axes == set(range(n))

    def test_nonnegativity_verdicts_agree(self):
        rng = SplitMix64(99)
        zero_ok = 0
        for _ in range(60):
            F = _random_table(rng)
            zero = F.signature.zero
            brute = all(zero <= v for _, v in _brute_force_box_volumes(F))
            assert check_axioms(F).statuses["volume_nonneg"].ok == brute
            zero_ok += brute
        # the sample must exercise both verdicts
        assert 0 < zero_ok < 60

    def test_every_box_volume_is_the_sum_of_atomic_masses(self):
        rng = SplitMix64(17)
        for _ in range(20):
            F = _random_table(rng)
            for pairs, vol in _brute_force_box_volumes(F):
                pieces = []
                for (a1, b1), (a2, b2) in [pairs]:
                    xs = [c for c in list(F.breakpoints[0]) + [F.breakpoints[0][-1] + 1] if a1 <= c <= b1]
                    ys = [c for c in list(F.breakpoints[1]) + [F.breakpoints[1][-1] + 1] if a2 <= c <= b2]
                    for i in range(len(xs) - 1):
                        for j in range(len(ys) - 1):
                            pieces.append([(xs[i], xs[i + 1]), (ys[j], ys[j + 1])])
                assert additive_extension(F, pieces) == vol


@st.composite
def corner_sum_cases(draw):
    """A resolution of ``oracles.resolutions`` with query bounds and a point
    on and off its grid.

    Each axis draws its coordinates from its breakpoints, the midpoints
    between them and one value past either end; in about one case in four
    the bounds of one axis coincide.  In about one case in three the
    breakpoints move, in order, to values of (-1, 0) with 31-digit
    denominators, so every order key ties on its floor.
    """
    F = draw(resolutions())
    n = F.n
    if draw(st.integers(0, 2)) == 0:
        tied = st.builds(lambda a, e: Q(a, 10 ** 30 + e) - 1,
                         st.integers(1, 10 ** 30 - 1), st.integers(0, 10 ** 6))
        breaks = [sorted(draw(st.lists(tied, min_size=len(bs), max_size=len(bs), unique=True)))
                  for bs in F.breakpoints]
        F = from_cells(F.signature, n, breaks, F.values)
    pools = []
    for bs in F.breakpoints:
        mids = [(a + b) / 2 for a, b in zip(bs, bs[1:])]
        pools.append(sorted([bs[0] - 1, *bs, *mids, bs[-1] + 1]))
    bounds = [
        tuple(sorted(draw(st.lists(st.sampled_from(p), min_size=2, max_size=2, unique=True))))
        for p in pools
    ]
    if draw(st.integers(0, 3)) == 3:
        j = draw(st.integers(0, n - 1))
        bounds[j] = (bounds[j][1], bounds[j][1])
    point = [draw(st.sampled_from(p)) for p in pools]
    deltas = None
    if n > 1:
        axes = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True))
        deltas = {j: bounds[j] for j in axes}
    return F, bounds, deltas, point


@st.composite
def sweep_cases(draw):
    """A value map on a grid of n = 1..4 axes with at most 5 cells each, flat
    tuples of length d + 1 (d = 1..2) in a shuffled key order, and an ordered
    subset of the axes."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 2))
    shape = draw(st.tuples(*[st.integers(0, 4)] * n))
    cells = draw(st.permutations(list(product(*[range(m + 1) for m in shape]))))
    flat = st.tuples(*[st.integers(-9, 9)] * (d + 1))
    values = {idx: draw(flat) for idx in cells}
    axes = draw(st.lists(st.integers(0, n - 1), unique=True))
    return values, shape, axes


class TestStridedSweep:
    @settings(max_examples=300, deadline=None)
    @given(sweep_cases(), st.booleans())
    def test_matches_the_line_by_line_sweep(self, case, diff):
        values, shape, axes = case
        want = dict(values)
        reference_sweep(want, shape, axes, diff=diff)
        got = dict(values)
        _sweep(got, shape, axes, diff=diff)
        assert got == want and list(got) == list(values)


class TestCornerSumReference:
    """volume, partial_delta and point_mass_via_deltas against the element
    corner loop of ``oracles``, on tables that fail the volume condition too."""

    @settings(max_examples=300, deadline=None)
    @given(corner_sum_cases())
    def test_matches_the_element_corner_loop(self, case):
        F, bounds, deltas, point = case
        assert volume(F, bounds) == reference_volume(F, bounds)
        assert point_mass_via_deltas(F, point) == reference_point_mass(F, point)
        if deltas is not None:
            assert partial_delta(F, deltas, point) == reference_partial_delta(F, deltas, point)


class TestMassOracle:
    """Stored masses against corner sums, tables built from masses against
    tables built from cells, and reconstruction witnesses against a cell by
    cell comparison, on resolutions that are genuine, overwritten or arbitrary."""

    @settings(max_examples=150, deadline=None)
    @given(resolutions())
    def test_masses_agree(self, F):
        try:
            result = reconstruct(F)
        except ReconstructionError:
            result = None
        check_masses(F, result)


class TestAdditiveExtension:
    def test_matches_observable_on_box_unions(self, F1):
        x = build_observable("3.7/1")
        from lexspec.boxgeom import Region, halfopen_box, union

        boxes = [[(0, 2), (0, 2)], [(2, 4), (0, 2)], [(0, 4), (2, 5)]]
        region = Region.empty(2)
        for lo_hi in boxes:
            region = union(
                region, halfopen_box([p[0] for p in lo_hi], [p[1] for p in lo_hi])
            )
        assert additive_extension(F1, boxes) == x.eval(region)

    def test_bound_property(self, F1):
        # a box union inside a lower orthant never exceeds F at the corner
        boxes = [[(0, 2), (0, 3)], [(2, Q(7, 2)), (0, 3)]]
        corner = (Q(7, 2), Q(3))
        assert additive_extension(F1, boxes) <= eval_F(F1, corner)

    def test_bound_property_randomized(self):
        rng = SplitMix64(23)
        cfg = TrialConfig(seed=23, trials=0, k_range=(1, 4), n_range=(2, 2), max_atoms=6)
        for i in range(25):
            x = random_observable(cfg, i)
            F = from_observable(x)
            coords = [
                [bs[0] - 1] + list(bs) + [bs[-1] + 1] for bs in F.breakpoints
            ]
            corner = tuple(rng.choice(c[1:]) for c in coords)
            boxes = []
            for _ in range(rng.randint(1, 3)):
                bounds = []
                for j in range(2):
                    inside = [c for c in coords[j] if c < corner[j]]
                    a, b = rng.choice(inside), rng.choice(inside)
                    if a > b:
                        a, b = b, a
                    bounds.append((a, b))
                boxes.append(bounds)
            # overlapping draws would break additivity; keep disjoint ones only
            from lexspec.boxgeom import Region, halfopen_box, intersect

            disjoint, covered = [], Region.empty(2)
            for bounds in boxes:
                r = halfopen_box([p[0] for p in bounds], [p[1] for p in bounds])
                if intersect(r, covered).is_empty():
                    disjoint.append(bounds)
                    from lexspec.boxgeom import union

                    covered = union(covered, r)
            assert additive_extension(F, disjoint) <= eval_F(F, corner)


# Each edit turns a field of the 3.7/1 resolution document into a non-integer
# that int() would read back as the original value.
_NON_INTEGER_EDITS = {
    "k-string": lambda doc: doc.update(k="2"),
    "k-float": lambda doc: doc.update(k=2.9),
    "d-bool": lambda doc: doc.update(d=True),
    "n-float": lambda doc: doc.update(n=2.0),
    "index-float": lambda doc: doc["cells"][-1].update(index=[3.0, 3]),
    "index-bool": lambda doc: doc["cells"][1].update(index=[False, True]),
    "h-float": lambda doc: doc["cells"][-1]["value"].update(h=2.5),
    "g-string": lambda doc: doc["cells"][-1]["value"].update(g=["0"]),
}


class TestToObservable:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_inverts_from_observable(self, n):
        cfg = TrialConfig(seed=80 + n, trials=0, k_range=(1, 5), n_range=(n, n), max_atoms=8)
        for i in range(40):
            x = random_observable(cfg, i)
            assert to_observable(from_observable(x)) == x

    def test_border_mass_rejected(self):
        # a nonzero bottom cell puts mass on the border, below every breakpoint
        F = _random_table(SplitMix64(5))
        values = dict(F.values)
        values[(0, 1)] = el(0, 1)
        with pytest.raises(ResolutionError, match=r"border cell \(0, 1\)"):
            to_observable(from_cells(SIG, 2, F.breakpoints, values))

    def test_negative_mass_rejected(self):
        values = {idx: SIG.zero for idx in product(range(3), repeat=2)}
        values[(2, 1)] = values[(1, 2)] = values[(2, 2)] = SIG.unit
        # mass at (2, 2): u - u - u + 0 = -u
        F = from_cells(SIG, 2, ((Q(1), Q(2)), (Q(1), Q(2))), values)
        assert not check_axioms(F).ok
        with pytest.raises(ObservableError, match="outside"):
            to_observable(F)


class TestJson:
    @pytest.mark.parametrize("edit", list(_NON_INTEGER_EDITS))
    def test_non_integer_field_rejected(self, F1, edit):
        doc = resolution_to_doc(F1)
        assert doc["cells"][1]["index"] == [0, 1] and doc["cells"][-1]["index"] == [3, 3]
        _NON_INTEGER_EDITS[edit](doc)
        with pytest.raises(ResolutionError, match="bad resolution document"):
            resolution_from_doc(doc)

    def test_round_trip(self, F7):
        assert resolution_from_json(resolution_to_json(F7)) == F7

    def test_round_trip_pathological(self):
        rng = SplitMix64(4)
        F = _random_table(rng)
        assert resolution_from_json(resolution_to_json(F)) == F
