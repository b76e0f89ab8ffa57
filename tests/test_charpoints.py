from __future__ import annotations

import hashlib
import json
from fractions import Fraction as Q
from functools import reduce
from itertools import product
from operator import le
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from lexspec import charpoints
from lexspec.boxgeom import NEG_INF, Box, Region, above, is_finite, open_closed
from lexspec.charpoints import (
    CharPointError,
    MismatchReport,
    NotReconstructibleError,
    RaysResult,
    ReconstructionError,
    _blocks,
    _level_texts,
    all_blocks,
    block_cube_check,
    bounds_check,
    level_regions,
    rays_check,
    reconstruct,
)
from lexspec.gallery import build_observable
from lexspec.lexalg import AlgebraSignature, LexElement, in_unit_interval, meet
from lexspec.observable import make_observable, observable_to_doc
from lexspec.render import render_ascii, render_svg
from lexspec.spectral import (
    StepResolution,
    check_axioms,
    from_cells,
    from_observable,
    height_grid,
    resolution_from_doc,
    resolution_to_doc,
)
from lexspec.verify import (
    SplitMix64,
    TrialConfig,
    mismatch_resolution,
    pathological_family,
    random_observable,
    run_suite,
    saturating_family,
)

from oracles import (
    GALLERY_CHAR_POINTS,
    blocks,
    char_point,
    check_masses,
    closed_join_char_points,
    max_antichain,
    max_closed_joins_per_level,
    oracle_char_points,
    projection,
    reference_blocks,
    reference_rays_2d,
    resolutions,
)

SIG3 = AlgebraSignature(3, 1)


def el3(h, g):
    return LexElement(SIG3, h, (g,))


def F_of(name):
    return from_observable(build_observable(name))


class TestLevelRegions:
    def test_case_seven_top_region(self):
        dec = level_regions(F_of("3.7/7"))
        assert dec.regions[3] == Region(2, [Box((above(3), above(3)))])

    def test_case_eight_middle_region(self):
        dec = level_regions(F_of("3.7/8"))
        assert dec.regions[2] == Region(2, [Box((above(2), open_closed(1, 2)))])

    def test_case_five_empty_level(self):
        dec = level_regions(F_of("3.7/5"))
        assert dec.regions[1].is_empty()

    def test_partition_properties(self):
        from lexspec.boxgeom import intersect, union

        dec = level_regions(F_of("3.7/7"))
        total = Region.empty(2)
        regions = list(dec.regions.values())
        for i, r in enumerate(regions):
            for s in regions[i + 1 :]:
                if not r.is_empty() and not s.is_empty():
                    assert intersect(r, s).is_empty()
            total = union(total, r)
        assert total == Region.full(2)
        assert dec.regions[0].contains((Q(-100), Q(-100)))
        assert dec.regions[3].contains((Q(100), Q(100)))

    def test_not_pathological_for_observables(self):
        assert not level_regions(F_of("3.7/1")).pathological


class TestProjection:
    def test_case_seven_axis_one(self):
        assert projection(F_of("3.7/7"), (Q(5, 2), Q(5, 2)), 0) == 2

    def test_case_one_top_block(self):
        F = F_of("3.7/1")
        assert projection(F, (4, 4), 0) == 3
        assert projection(F, (4, 4), 1) == 3

    def test_case_eight(self):
        assert projection(F_of("3.7/8"), (Q(3, 2), 3), 0) == 1

    def test_level_zero_point_has_no_projection(self):
        with pytest.raises(CharPointError, match="level-0"):
            projection(F_of("3.7/1"), (0, 0), 0)

    def test_char_point_vector(self):
        assert char_point(F_of("3.7/7"), (Q(5, 2), Q(5, 2))) == (2, 2)


class TestCharPointsAgainstOracle:
    @pytest.mark.parametrize("name", sorted(GALLERY_CHAR_POINTS))
    def test_gallery_case(self, name):
        x = build_observable(name)
        report = all_blocks(from_observable(x))
        got = {tuple(p) for p in report.char_points()}
        assert got == GALLERY_CHAR_POINTS[name]
        assert got == oracle_char_points(x)

    def test_case_seven_block_counts(self):
        report = all_blocks(F_of("3.7/7"))
        assert report.level_counts() == {1: 3, 2: 2, 3: 1}

    def test_block_region(self):
        report = all_blocks(F_of("3.7/7"))
        middle = [b for b in report.levels[1] if b.char_point == (2, 2)]
        assert len(middle) == 1
        assert middle[0].region == Region(2, [Box((open_closed(2, 3), open_closed(2, 3)))])


class TestBlockInfimum:
    @pytest.mark.parametrize(
        "point,want",
        [((2, 2), el3(1, 2)), ((1, 3), el3(1, 1)), ((3, 1), el3(1, -3))],
    )
    def test_case_seven_level_one(self, point, want):
        F = F_of("3.7/7")
        report = all_blocks(F)
        block = next(b for b in report.levels[1] if b.char_point == point)
        assert block.infimum == want

    def test_infimum_matches_closed_orthant_mass(self):
        # the meet over a block equals the observable's mass weakly below the
        # characteristic point
        from lexspec.boxgeom import Region, below

        x = build_observable("3.7/7")
        F = from_observable(x)
        for block in all_blocks(F).all_blocks():
            region = Region(
                2, [Box(tuple(below(c, closed=True) for c in block.char_point))]
            )
            assert block.infimum == x.eval(region)

    def test_infimum_lies_in_its_level(self):
        for b in all_blocks(F_of("3.7/6")).all_blocks():
            assert b.infimum is not None and b.infimum.h == b.level


class TestT0Adjoined:
    def test_case_seven_level_one_adjoined(self):
        F = F_of("3.7/7")
        for b in all_blocks(F).levels[1]:
            assert b.t0_adjoined

    def test_case_seven_top_not_adjoined(self):
        F = F_of("3.7/7")
        (top,) = all_blocks(F).levels[3]
        assert not top.t0_adjoined

    def test_case_eight_top_not_adjoined(self):
        F = F_of("3.7/8")
        (top,) = all_blocks(F).levels[3]
        assert top.char_point == (2, 2)
        assert not top.t0_adjoined

    def test_landing_levels(self):
        F = F_of("3.7/7")
        report = all_blocks(F)
        # (2, t>3) dominates only the atom at (1,3); (s in (2,3], 3) dominates
        # only the atom at (2,2): both replaced points land at level 1
        b23 = next(b for b in report.levels[2] if b.char_point == (2, 3))
        assert b23.landing_levels == (1, 1)
        for b in report.all_blocks():
            assert b.char_point_level is not None and b.char_point_level < b.level


@st.composite
def domain_cases(draw):
    """An observable in R^1..R^3 with up to four atoms on a small grid of
    halves, k = 1..3: heights are a composition of k that may hold zeros,
    height-0 weights are positive, and the first tall atom takes the balance
    of g, so every draw is a valid observable."""
    n = draw(st.integers(1, 3))
    sig = AlgebraSignature(draw(st.integers(1, 3)), 1)
    coord = st.fractions(-2, 2, max_denominator=2)
    points = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=4, unique=True))
    cuts = sorted(draw(st.lists(st.integers(0, sig.k), min_size=len(points) - 1,
                                max_size=len(points) - 1)))
    heights = [b - a for a, b in zip([0, *cuts], [*cuts, sig.k])]
    gs = [draw(st.integers(-2, 2)) if h else draw(st.integers(1, 2)) for h in heights]
    first = next(i for i, h in enumerate(heights) if h)
    gs[first] -= sum(gs)
    atoms = [(p, LexElement(sig, h, (g,))) for p, h, g in zip(points, heights, gs)]
    return make_observable(sig, n, atoms)


class TestReconstruct:
    def test_case_seven_round_trip(self):
        x = build_observable("3.7/7")
        assert reconstruct(from_observable(x)) == x

    def test_random_adjoined_round_trips(self):
        cfg = TrialConfig(seed=21, trials=0, k_range=(1, 4), n_range=(2, 2), max_atoms=6)
        done = 0
        for i in range(120):
            x = random_observable(cfg, i)
            F = from_observable(x)
            report = all_blocks(F)
            adjoined_points = {b.char_point for b in report.all_blocks() if b.t0_adjoined}
            if not all(a.point in adjoined_points for a in x.atoms):
                continue
            assert reconstruct(F) == x
            done += 1
        assert done >= 20

    def test_mismatch_family(self):
        result = reconstruct(mismatch_resolution())
        assert isinstance(result, MismatchReport)
        assert result.to_doc() == {
            "reconstructible": False,
            "witness_point": ["3", "3"],
            "witness_cell": "(1,3]x(2,3]",
            "value": "(0; 3)",
            "candidate_value": "(0; 0)",
        }
        assert result.value_f.h == 0 and result.value_f != result.value_f.signature.zero

    def test_stacked_chain_not_reconstructible(self):
        sig = AlgebraSignature(2, 1)
        one = LexElement(sig, 1, (0,))
        x = make_observable(sig, 2, [((1, 1), one), ((2, 2), one)])
        with pytest.raises(NotReconstructibleError, match="sum to"):
            reconstruct(from_observable(x))

    def test_two_unit_atoms_on_a_line_are_outside_the_domain(self):
        """k = 2, n = 1, (1; 0) at -7 and at -1: every axiom holds, yet the
        atom at -1 lies above the one at -7, so only -7 is adjoined."""
        sig = AlgebraSignature(2, 1)
        one = LexElement(sig, 1, (0,))
        F = from_observable(make_observable(sig, 1, [((-7,), one), ((-1,), one)]))
        assert check_axioms(F).ok
        with pytest.raises(NotReconstructibleError,
                           match=r"sum to \(1; 0\), not the unit \(2; 0\)"):
            reconstruct(F)

    @settings(max_examples=300, deadline=None)
    @given(domain_cases())
    def test_exact_domain(self, x):
        """``reconstruct(from_observable(x)) == x`` exactly when every atom has
        positive height and no atom point lies at or below another."""
        points = [a.point for a in x.atoms]
        antichain = not any(p != q and all(map(le, p, q)) for p in points for q in points)
        inside = antichain and all(a.weight.h > 0 for a in x.atoms)
        try:
            result = reconstruct(from_observable(x))
        except NotReconstructibleError:
            result = None
        assert (result == x) == inside


class TestBounds:
    def test_case_seven_saturates(self):
        bc = bounds_check(all_blocks(F_of("3.7/7")))
        assert bc.ok
        assert bc.total == bc.total_limit == 6
        assert [c for _, c, _ in bc.per_level] == [3, 2, 1]
        assert all(c == lim for _, c, lim in bc.per_level)

    def test_case_one_has_margin(self):
        bc = bounds_check(all_blocks(F_of("3.7/1")))
        assert bc.ok and bc.total == 2 and bc.total_limit == 3

    def test_overfull_level_fails(self):
        from lexspec.verify import pathological_family

        bc = bounds_check(all_blocks(pathological_family(4, 2)))
        assert not bc.ok


def _limits(n, k):
    bc = bounds_check(SimpleNamespace(k=k, n=n, levels={}, points=[]))
    return [lim for _, _, lim in bc.per_level], bc.total_limit


class TestDimensionBounds:
    """The per-level limit min(C(k, i), C(k-i+n-1, n-1)) against the most
    characteristic points that k unit atoms reach in R^n.  C(k, i) is proven.
    The second term is an upper bound on every searched maximum, and the
    maxima meet it everywhere except level 2 in R^3 for k >= 5."""

    @pytest.mark.parametrize("n, k", [(1, 3), (2, 3), (2, 4), (3, 3)])
    def test_rule_matches_exhaustive_search(self, n, k):
        limits, total = _limits(n, k)
        assert limits == max_closed_joins_per_level(n, k)
        assert total == sum(limits)

    # max_closed_joins_per_level(4, 3) and (3, 4) took 79 s together on a
    # 2-vCPU Xeon VM (Python 3.11), too long for every run, so their results
    # are stored.
    @pytest.mark.parametrize("n, k, most", [(4, 3, [3, 3, 1]), (3, 4, [4, 6, 3, 1])])
    def test_rule_matches_stored_search(self, n, k, most):
        assert _limits(n, k) == (most, sum(most))

    def test_planar_limits_unchanged(self):
        for k in range(1, 13):
            assert _limits(2, k) == ([k - i + 1 for i in range(1, k + 1)], k * (k + 1) // 2)

    def test_unit_atoms_on_the_axes_of_r3(self):
        # three incomparable atoms with three incomparable pairwise joins
        sig = AlgebraSignature(3, 1)
        one = LexElement(sig, 1, (0,))
        x = make_observable(sig, 3, [(p, one) for p in ((1, 0, 0), (0, 1, 0), (0, 0, 1))])
        bc = bounds_check(all_blocks(from_observable(x)))
        assert [c for _, c, _ in bc.per_level] == [3, 3, 1]
        assert bc.ok and bc.total == bc.total_limit == 7

    def test_level_two_in_r3_falls_short_of_the_limit(self):
        # a searched witness that the limit is not always reached: 9 blocks at level 2, not 10
        sig = AlgebraSignature(5, 1)
        one = LexElement(sig, 1, (0,))
        points = ((1, 1, 5), (2, 5, 1), (3, 3, 4), (4, 4, 3), (5, 2, 2))
        report = all_blocks(from_observable(make_observable(sig, 3, [(p, one) for p in points])))
        assert report.axioms.ok
        assert report.level_counts() == {1: 5, 2: 9, 3: 6, 4: 3, 5: 1}
        bc = bounds_check(report)
        assert [lim for _, _, lim in bc.per_level] == [5, 10, 6, 3, 1]
        assert bc.ok

    def test_suite_in_r3_reports_no_bounds_failure(self):
        # trials 27 and 241 exceeded the planar limits
        summary = run_suite(TrialConfig(seed=3, trials=300, n_range=(3, 3)))
        assert summary.runs["bounds"] > 0
        assert summary.failures["bounds"] == 0


class TestRays:
    def test_case_seven_point(self):
        assert rays_check(F_of("3.7/7"), (Q(2), Q(2))).ok

    def test_all_char_points_of_observables(self):
        cfg = TrialConfig(seed=31, trials=0, k_range=(1, 5), n_range=(2, 2), max_atoms=8)
        for i in range(25):
            F = from_observable(random_observable(cfg, i))
            for p in all_blocks(F).char_points():
                assert rays_check(F, p).ok

    def test_monotony_violation_fails_with_witness(self):
        sig = AlgebraSignature(2, 1)

        def e(h):
            return LexElement(sig, h, (0,))

        values = {}
        for r in range(4):
            for c in range(4):
                values[(r, c)] = e(0)
        values[(1, 3)] = e(2)
        values[(2, 3)] = e(1)  # level drops moving right along the top row
        values[(3, 3)] = e(2)
        F = from_cells(sig, 2, ((1, 2, 3), (1, 2, 3)), values)
        result = rays_check(F, (Q(2), Q(3)))
        assert not result.ok
        assert result.witness is not None
        assert result == _planar(reference_rays_2d(F, (Q(2), Q(3))))

    def test_point_off_the_grid_or_of_another_dimension_refused(self):
        F = F_of("3.7/7")
        with pytest.raises(CharPointError, match="not a grid value on axis 1"):
            rays_check(F, (Q(2), Q(1, 3)))
        with pytest.raises(CharPointError, match="point dimension 1, grid has 2"):
            rays_check(F, (Q(2),))

    @pytest.mark.parametrize(
        "family",
        ["random_observables", "random_levels", "pathological_antichain", "pathological_chain"],
    )
    def test_planar_scan_matches_the_mirrored_passes(self, family):
        """Same verdict and first failing line as the two planar passes, on
        every point whose coordinates are breakpoints or -inf."""
        failures = 0
        for F in _planar_resolutions(family):
            for p in product(*[(NEG_INF, *bs) for bs in F.breakpoints]):
                result = rays_check(F, p)
                assert result == _planar(reference_rays_2d(F, p)), (F, p)
                failures += not result.ok
        assert failures  # every family has points whose rays fail

    @pytest.mark.parametrize(
        "config",
        [
            TrialConfig(seed=41, trials=0, k_range=(1, 6), n_range=(1, 1)),
            TrialConfig(seed=42, trials=0, k_range=(1, 6), n_range=(3, 3), max_atoms=8),
            # coordinates collide on every axis
            TrialConfig(seed=43, trials=0, k_range=(2, 6), n_range=(3, 3), max_atoms=8,
                        coord_denominator_bound=1, coord_range=(-1, 1)),
        ],
        ids=["n1", "n3", "n3-collisions"],
    )
    def test_genuine_char_points_pass_in_other_dimensions(self, config):
        for i in range(60):
            F = from_observable(random_observable(config, i))
            for p in all_blocks(F).char_points():
                assert rays_check(F, p).ok, (config.seed, i, p)


def _planar(result):
    """A planar reference result with its witness in the n-dimensional form."""
    w = result.witness
    if w is None:
        return result
    if w["direction"] == "vertical":
        w = {"axis": 0, "line": [w["t_cell"]], "max_below_level": w["max_left_level"],
             "min_above_level": w["min_right_level"]}
    else:
        w = {"axis": 1, "line": [w["s_cell"]], "max_below_level": w["max_below_level"],
             "min_above_level": w["min_above_level"]}
    return RaysResult(False, w)


def _planar_resolutions(family):
    if family == "random_observables":
        cfg = TrialConfig(seed=32, trials=0, k_range=(1, 5), n_range=(2, 2), max_atoms=8)
        yield from (from_observable(random_observable(cfg, i)) for i in range(40))
    elif family == "random_levels":
        rng = SplitMix64(33)
        for _ in range(60):
            sig = AlgebraSignature(rng.randint(1, 4), 1)
            breaks = [range(1, rng.randint(1, 4) + 1) for _ in range(2)]
            cells = product(*[range(len(bs) + 1) for bs in breaks])
            values = {idx: LexElement(sig, rng.randint(0, sig.k), (0,)) for idx in cells}
            yield from_cells(sig, 2, breaks, values)
    else:
        style = family.partition("_")[2]
        for m, k in product(range(1, 7), range(1, 5)):
            yield pathological_family(m, k, style)


class TestMaxAntichain:
    def test_case_seven(self):
        assert max_antichain(all_blocks(F_of("3.7/7"))) == 3

    def test_case_one_chain(self):
        assert max_antichain(all_blocks(F_of("3.7/1"))) == 1

    def test_single_point(self):
        assert max_antichain(all_blocks(F_of("3.7/5"))) == 1

    def test_unsupported_dimension(self):
        sig = AlgebraSignature(1, 1)
        x = make_observable(sig, 1, [((1,), sig.unit)])
        assert max_antichain(all_blocks(from_observable(x))) is None


class TestBlockCube:
    def test_observable_derived(self):
        cfg = TrialConfig(seed=41, trials=0, k_range=(1, 5), n_range=(2, 3), max_atoms=6)
        for i in range(20):
            F = from_observable(random_observable(cfg, i))
            ok, witness = block_cube_check(F, all_blocks(F))
            assert ok, witness


class TestSameLevelBlockOrdering:
    def test_blocks_are_ordered_oppositely_per_coordinate(self):
        # distinct blocks of one level differ in both coordinates, with the
        # first increasing exactly when the second decreases
        cfg = TrialConfig(seed=61, trials=0, k_range=(2, 6), n_range=(2, 2), max_atoms=10)
        for i in range(40):
            F = from_observable(random_observable(cfg, i))
            for level_blocks in all_blocks(F).levels.values():
                pts = sorted(b.char_point for b in level_blocks)
                for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
                    assert x1 < x2 and y1 > y2


class TestPerfectCase:
    def test_level_one_is_open_orthant(self):
        cfg = TrialConfig(seed=51, trials=0, k_range=(1, 1), n_range=(1, 3), max_atoms=5)
        for i in range(30):
            x = random_observable(cfg, i)
            F = from_observable(x)
            report = all_blocks(F)
            assert len(report.levels[1]) == 1
            (block,) = report.levels[1]
            orthant = Region(x.n, [Box(tuple(above(c) for c in block.char_point))])
            assert level_regions(F).regions[1] == orthant
            assert x.point_mass(block.char_point).h == 1

    def test_blocks_helper(self):
        F = F_of("3.7/7")
        assert len(blocks(F, 1)) == 3
        assert blocks(F, 0) == ()


def _overwritten(rng: SplitMix64, F):
    """``F`` with one to three cells overwritten by random members of [0, u]."""
    sig = F.signature
    cells = list(F.cells())
    values = dict(F.values)
    for _ in range(rng.randint(1, 3)):
        g = tuple(rng.randint(-3, 3) for _ in range(sig.d))
        value = LexElement(sig, rng.randint(0, sig.k), g)
        if in_unit_interval(value):
            values[rng.choice(cells)] = value
    return from_cells(sig, F.n, F.breakpoints, values)


def _analysis_doc(F) -> dict:
    try:
        result = reconstruct(F)
    except ReconstructionError as exc:
        rebuilt = {"error": type(exc).__name__, "reason": str(exc)}
    else:
        if isinstance(result, MismatchReport):
            rebuilt = result.to_doc() | {"candidate": observable_to_doc(result.candidate)}
        else:
            rebuilt = observable_to_doc(result)
    return {
        "axioms": check_axioms(F).to_doc(),
        "levels": level_regions(F).to_doc(),
        "blocks": all_blocks(F).to_doc(),
        "reconstruct": rebuilt,
    }


def grid_transcript() -> list[str]:
    """One JSON line per resolution: splitmix64 observables in n = 1, 2, 3,
    the same resolutions with cells overwritten, and the pathological
    families, each with its axioms, level regions, blocks and reconstruction."""
    lines = []
    rng = SplitMix64(2011)
    for n in (1, 2, 3):
        cfg = TrialConfig(seed=70 + n, trials=0, k_range=(1, 4), n_range=(n, n), max_atoms=8)
        for i in range(40):
            F = from_observable(random_observable(cfg, i))
            lines.append(json.dumps(resolution_to_doc(F) | _analysis_doc(F), sort_keys=True))
            lines.append(json.dumps(_analysis_doc(_overwritten(rng, F)), sort_keys=True))
    for m in range(1, 7):
        for k in (2, 3):
            for style in ("antichain", "chain"):
                F = pathological_family(m, k, style)
                lines.append(json.dumps(_analysis_doc(F), sort_keys=True))
    lines.append(json.dumps(_analysis_doc(mismatch_resolution()), sort_keys=True))
    return lines


class TestGridTranscript:
    def test_outputs_are_pinned(self):
        # pins every output of the grid layers (resolutions, axiom reports
        # and witnesses, level regions, blocks, reconstructions) on genuine,
        # overwritten and pathological resolutions
        digest = hashlib.sha256("\n".join(grid_transcript()).encode()).hexdigest()
        assert digest == "1d5370a28f2d8c60e19921b7aff3596d90fceb50050295bdf3d943260f48fd1e"


def _transcript_resolutions(genuine: bool = False):
    """The overwritten and pathological resolutions of ``grid_transcript``,
    with ``genuine`` the observable resolutions too."""
    rng = SplitMix64(2011)
    for n in (1, 2, 3):
        cfg = TrialConfig(seed=70 + n, trials=0, k_range=(1, 4), n_range=(n, n), max_atoms=8)
        for i in range(40):
            F = from_observable(random_observable(cfg, i))
            if genuine:
                yield F
            yield _overwritten(rng, F)
    for m in range(1, 7):
        for k in (2, 3):
            for style in ("antichain", "chain"):
                yield pathological_family(m, k, style)
    yield mismatch_resolution()


def _random_level_tables(count: int):
    """``from_cells`` resolutions with an independent random member of [0, u]
    on every cell: no monotonicity, so -inf starts and every flag occur."""
    rng = SplitMix64(4711)
    for _ in range(count):
        sig = AlgebraSignature(rng.randint(1, 4), rng.randint(1, 2))
        n = rng.randint(1, 3)
        breakpoints = [[Q(b) for b in range(rng.randint(1, 4 - n // 2))] for _ in range(n)]
        values = {}
        for idx in product(*[range(len(bs) + 1) for bs in breakpoints]):
            h = rng.randint(0, sig.k)
            lo, hi = (0 if h == 0 else -3), (0 if h == sig.k else 3)
            values[idx] = LexElement(sig, h, tuple(rng.randint(lo, hi) for _ in range(sig.d)))
        yield from_cells(sig, n, breakpoints, values)


def _cell_starts(F, p):
    """Run-start vector of a characteristic point, read through ``breakpoints.index``."""
    return tuple(
        F.breakpoints[j].index(c) + 1 if is_finite(c) else 0 for j, c in enumerate(p)
    )


def _cube_oracle(F, report):
    for block in report.all_blocks():
        lows = _cell_starts(F, block.char_point)
        highs = [max(idx[j] for idx in block.cells) for j in range(F.n)]
        for c in product(*[range(lo, hi + 1) for lo, hi in zip(lows, highs)]):
            dominated = any(all(m >= x for m, x in zip(idx, c)) for idx in block.cells)
            if dominated and c not in block.cells:
                return False, list(c)
    return True, None


def _antichain_oracle(F, report):
    if F.n != 2:
        return None
    pts = sorted(_cell_starts(F, p) for p in report.char_points())
    best = []
    for i, (x, y) in enumerate(pts):
        below = [best[j] for j, (u, v) in enumerate(pts[:i]) if u < x and v > y]
        best.append(1 + max(below, default=0))
    return max(best, default=0)


def _ext_sort_key(p):
    return tuple((-1, Q(0)) if not is_finite(c) else (0, c) for c in p)


class TestBlockRecords:
    """What the removed pathology branches guarded, on resolutions that are
    overwritten, pathological or arbitrary level tables."""

    @pytest.mark.parametrize("source", ["transcript", "level_tables"])
    def test_blocks_on_synthetic_resolutions(self, source):
        resolutions = (
            _transcript_resolutions() if source == "transcript" else _random_level_tables(150)
        )
        flagged = 0
        for F in resolutions:
            report = all_blocks(F)
            G = height_grid(F)  # the grid the blocks index
            found = report.all_blocks()
            for b in found:
                assert b.infimum.h == b.level
                assert b.infimum == reduce(meet, (G.values[idx] for idx in b.cells))
                if b.t0_adjoined:
                    assert all(is_finite(c) for c in b.char_point)
                flagged += bool(b.flags)
            points = sorted({b.char_point for b in found}, key=_ext_sort_key)
            assert report.char_points() == points
            ok, witness = block_cube_check(F, report)
            assert (ok, witness and witness["cell"]) == _cube_oracle(G, report)
            assert max_antichain(report) == _antichain_oracle(G, report)
        assert flagged > 0


class TestStridedBlockPass:
    """``_blocks`` against the tuple-keyed reference pass, flags included."""

    @pytest.mark.parametrize("source", ["transcript", "level_tables"])
    def test_synthetic_resolutions(self, source):
        resolutions = (
            _transcript_resolutions(genuine=True) if source == "transcript"
            else _random_level_tables(150)
        )
        flags = set()
        for F in resolutions:
            G, found = _blocks(F)
            assert found == reference_blocks(G)
            flags.update(f.rstrip("0123456789") for b in found for f in b.flags)
        assert flags == {
            "minus_infinity_projection", "inconsistent_landing_axis_", "landing_not_below_axis_"
        }

    @settings(max_examples=200, deadline=None)
    @given(resolutions())
    def test_random_resolutions(self, F):
        G, found = _blocks(F)
        want = reference_blocks(G)
        assert found == want and list(map(hash, found)) == list(map(hash, want))

    @pytest.mark.parametrize("family", ["patho-m32-k5", "saturate-K24"])
    def test_one_cell_blocks(self, family):
        """Records built with slot setters, one-cell blocks straight from their
        cell, equal and hash like the checked records of the reference."""
        F = (pathological_family(32, 5) if family == "patho-m32-k5"
             else from_observable(saturating_family(24)))
        G, found = _blocks(F)
        want = reference_blocks(G)
        assert {len(b.cells) for b in found} == {1} and len(found) == len(want) > 250
        assert found == want and list(map(hash, found)) == list(map(hash, want))


class TestMassOracleOnTranscript:
    def test_transcript_resolutions(self):
        outcomes = {"observable": 0, "mismatch": 0, "error": 0}
        for F in _transcript_resolutions(genuine=True):
            try:
                result = reconstruct(F)
            except ReconstructionError:
                result = None
            check_masses(F, result)
            kind = "error" if result is None else (
                "mismatch" if isinstance(result, MismatchReport) else "observable"
            )
            outcomes[kind] += 1
        assert all(outcomes.values()), outcomes


@st.composite
def height_observables(draw):
    """An observable in n = 1..4 with k <= 6 and d <= 2: positive heights
    summing to k, and height-0 atoms of nonnegative g, on few coordinates per
    axis, so that atoms share them."""
    n = draw(st.integers(1, 4))
    sig = AlgebraSignature(draw(st.integers(1, 6)), draw(st.integers(1, 2)))
    cuts = [c for c in range(1, sig.k) if draw(st.booleans())]
    heights = [b - a for a, b in zip([0, *cuts], [*cuts, sig.k])]
    heights += [0] * draw(st.integers(0, max(0, (9, 10, 7, 5)[n - 1] - len(heights))))
    points = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * n),
                           min_size=len(heights), max_size=len(heights), unique=True))
    gs = [draw(st.tuples(*[st.integers(0 if h == 0 else -3, 3)] * sig.d)) for h in heights]
    gs = [(1, *g[1:]) if not any(g) else g for g in gs]
    gs[0] = tuple(-sum(c) for c in zip(*gs[1:])) if gs[1:] else (0,) * sig.d
    weights = [LexElement(sig, h, g) for h, g in zip(heights, gs)]
    return make_observable(sig, n, list(zip(points, weights)))


def _printed(F) -> list:
    """Level texts, reconstruction and (n = 2) both renders of ``F``."""
    try:
        result = reconstruct(F)
        back = result.to_doc() if isinstance(result, MismatchReport) else observable_to_doc(result)
    except ReconstructionError as exc:
        back = str(exc)
    out = [_level_texts(F), back]
    return out + [render_svg(F), render_ascii(F)] if F.n == 2 else out


def _block_docs(F) -> tuple[dict, dict]:
    report = all_blocks(F)
    return report.to_doc(), bounds_check(report).to_doc()


def _analyses(F) -> list:
    """Block documents and :func:`_printed` of ``F``."""
    return [_block_docs(F), *_printed(F)]


def _dense_analyses(F) -> list:
    """:func:`_analyses` read off ``F``'s own grid."""
    with patch.object(charpoints, "height_grid", lambda F: F):
        return _analyses(F)


class TestHeightGrid:
    """The height grid of an observable's resolution against its own grid:
    every printed analysis is byte-identical."""

    @settings(max_examples=200, deadline=None)
    @given(height_observables())
    def test_same_bytes_as_the_dense_grid(self, x):
        F = from_observable(x)
        table = resolution_from_doc(resolution_to_doc(F))
        table.masses  # held masses make a table-built resolution eligible
        for source in (F, table):
            G = height_grid(source)
            assert all(len(bs) <= x.signature.k for bs in G.breakpoints)
            assert _analyses(source) == _dense_analyses(source)
        assert set(all_blocks(F).char_points()) == closed_join_char_points(x)

    def test_grid_shrinks_on_height_zero_atoms(self):
        sig = AlgebraSignature(2, 1)
        atoms = [((i, 3 - i), LexElement(sig, h, (g,)))
                 for i, (h, g) in enumerate([(0, 2), (1, -1), (0, 1), (1, -2)])]
        F = from_observable(make_observable(sig, 2, atoms))
        G = height_grid(F)
        assert G.shape == (2, 2) and F.shape == (4, 4)
        # (0, 3) lies above every positive-height y and is dropped; (2, 1) moves to (3, 2)
        assert G.breakpoints == ((Q(1), Q(3)), (Q(0), Q(2)))
        assert G.masses == {(1, 2): (1, -1), (2, 1): (1, -2), (2, 2): (0, 1)}
        assert _analyses(F) == _dense_analyses(F)
        table = resolution_from_doc(resolution_to_doc(F))  # masses not yet derived
        assert all_blocks(table).breakpoints == height_grid(table).breakpoints == G.breakpoints

    def test_render_frame_is_the_input_box(self):
        """The first and last breakpoint of each axis carry only height-0
        atoms, so the height grid lacks them; both renders still draw the
        input's padded box, as on the dense grid."""
        sig = AlgebraSignature(2, 1)
        atoms = [((0, 0), (0, 1)), ((1, 2), (1, -1)), ((3, 1), (1, -1)), ((5, 5), (0, 1))]
        F = from_observable(make_observable(
            sig, 2, [(p, LexElement(sig, h, (g,))) for p, (h, g) in atoms]))
        assert height_grid(F).breakpoints == ((Q(1), Q(3)), (Q(1), Q(2)))
        with patch.object(charpoints, "height_grid", lambda F: F):
            dense = render_svg(F), render_ascii(F)
        assert (render_svg(F), render_ascii(F)) == dense
        assert "x: [-1, 6]   y: [-1, 6]" in dense[1]

    def test_returns_F_itself(self):
        sig = AlgebraSignature(2, 1)
        bps = [[Q(0), Q(1), Q(2)]]

        def res(masses):
            return StepResolution(sig, 1, bps, masses={(r,): t for r, t in masses.items()})

        shrinks = {1: (1, 0), 2: (0, 1), 3: (1, -1)}  # index 2 has height 0
        assert height_grid(res(shrinks)).shape == (2,)
        negative = {1: (1, 2), 2: (0, -1), 3: (1, -1)}
        border = {0: (0, 1), **shrinks, 3: (1, -2)}
        flat = {1: (0, 1), 3: (0, 2)}  # no positive height
        for masses in (negative, border, flat):
            F = res(masses)
            assert height_grid(F) is F
        # every breakpoint holds a positive-height mass, so every one is kept
        tall = StepResolution(sig, 1, [[Q(0), Q(2)]], masses={(1,): (1, 1), (2,): (1, -1)})
        assert height_grid(tall) is tall
        table_only = resolution_from_doc(resolution_to_doc(res(shrinks)))
        assert height_grid(table_only) is table_only
