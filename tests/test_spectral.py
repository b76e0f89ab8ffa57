from __future__ import annotations

import time
from fractions import Fraction as Q
from itertools import combinations, product

import pytest

from lexspec.gallery import build_observable
from lexspec.lexalg import AlgebraSignature, LexElement, in_unit_interval
from lexspec.observable import observable_from_doc
from lexspec.spectral import (
    MAX_DENSE_CELLS,
    ResolutionError,
    StepResolution,
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
    volume,
)
from lexspec.verify import SplitMix64, TrialConfig, mismatch_resolution, random_observable

from oracles import oracle_difference_statuses

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
        # 40 atoms on the diagonal of R^6 ask for 41^6 (about 4.7e9) cells
        doc = {
            "kind": "observable", "k": 40, "d": 1, "n": 6,
            "atoms": [{"point": [i] * 6, "weight": {"h": 1, "g": [0]}} for i in range(40)],
        }
        start = time.perf_counter()
        x = observable_from_doc(doc)
        with pytest.raises(ResolutionError, match=f"exceeds the limit of {MAX_DENSE_CELLS}"):
            from_observable(x)
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
        with pytest.raises(ResolutionError):
            volume(F1, [(3, 2), (2, 3)])

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
            "cell map mismatch: missing [(0, 1), (1, 0), (1, 1)], extra [(0, 2), (1, 1, 0)]"
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

    def test_unsorted_breakpoints_rejected(self):
        sig = AlgebraSignature(2, 1)
        with pytest.raises(ResolutionError, match="increasing"):
            from_cells(sig, 2, ((Q(2), Q(1)), (Q(1),)), {})


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


class TestVolumeReductionOracle:
    """The atomic-box reduction in check_axioms against brute-force enumeration."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_difference_statuses_match_corner_sums(self, n):
        cfg = TrialConfig(
            seed=n, trials=0, k_range=(1, 3), d_range=(1, 1), n_range=(n, n), max_atoms=4
        )
        rng = SplitMix64(40 + n)
        verdicts = {}
        for i in range(60):
            F = _perturbed(rng, from_observable(random_observable(cfg, i)))
            statuses = check_axioms(F).statuses
            for name, want in oracle_difference_statuses(F).items():
                assert (statuses[name].ok, statuses[name].witness) == want
            for name, status in statuses.items():
                verdicts.setdefault(name, set()).add(status.ok)
            # the masses are the first differences; summing them back gives F
            masses = dict(F.values)
            _sweep(masses, F.shape, range(F.n), diff=True)
            for idx in product(*[range(1, m + 1) for m in F.shape]):
                lower = [F.breakpoints[j][r - 1] for j, r in enumerate(idx)]
                assert masses[idx] == point_mass_via_deltas(F, lower)
            _sweep(masses, F.shape, range(F.n))
            assert masses == F.values
        checked = ["monotone", "bottom_zero", "top_unit", "volume_nonneg"]
        if n > 1:
            checked.append("partial_delta_nonneg")
        assert all(verdicts[name] == {True, False} for name in checked), verdicts

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
