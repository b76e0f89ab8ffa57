from __future__ import annotations

import hashlib
import importlib
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st, target

from lexspec import charpoints, cli, verify
from lexspec.charpoints import (
    MismatchReport,
    NotReconstructibleError,
    all_blocks,
    bounds_check,
    reconstruct,
)
from lexspec.lexalg import (
    AlgebraSignature,
    LexElement,
    group_add,
    group_sub,
    in_unit_interval,
    sum_finite,
)
from lexspec.observable import observable_to_json
from lexspec.spectral import check_axioms, eval_F, from_cells, from_observable, to_observable
from lexspec.verify import (
    SplitMix64,
    TrialConfig,
    _random_grid_region,
    mismatch_resolution,
    pathological_family,
    random_observable,
    run_suite,
    saturating_family,
    trial_rng,
)

from oracles import (
    max_antichain,
    reference_pathological_family,
    reference_random_grid_region,
    reference_random_observable,
)


class TestSplitMix64:
    def test_published_vectors_for_seed_zero(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_randint_bounds(self):
        rng = SplitMix64(42)
        draws = [rng.randint(-3, 3) for _ in range(200)]
        assert min(draws) == -3 and max(draws) == 3

    def test_trial_rng_is_stable(self):
        a = trial_rng(9, 5).next_u64()
        b = trial_rng(9, 5).next_u64()
        assert a == b
        assert trial_rng(9, 6).next_u64() != a

    @pytest.mark.parametrize("seed", [0, -5, 2**64 - 1, 2**70 + 3])
    def test_trial_rng_matches_replayed_master_stream(self, seed):
        for index in (0, 1, 17, 999):
            master = SplitMix64(seed)
            for _ in range(index + 1):
                out = master.next_u64()
            want = SplitMix64(out)
            got = trial_rng(seed, index)
            assert got.state == want.state
            assert [got.next_u64() for _ in range(3)] == [want.next_u64() for _ in range(3)]

    def test_trial_rng_rejects_negative_index(self):
        with pytest.raises(ValueError, match="index"):
            trial_rng(0, -1)


class TestRandomObservable:
    CFG = TrialConfig(seed=1, trials=0)

    def test_deterministic(self):
        assert random_observable(self.CFG, 0) == random_observable(self.CFG, 0)

    def test_always_valid(self):
        cfg = TrialConfig(seed=13, trials=0, k_range=(1, 6), d_range=(1, 2), n_range=(1, 3))
        for i in range(60):
            x = random_observable(cfg, i)
            weights = [a.weight for a in x.atoms]
            assert all(in_unit_interval(w) for w in weights)
            assert sum_finite(weights) == x.signature.unit
            assert len({a.point for a in x.atoms}) == len(x.atoms)

    def test_derived_resolutions_pass_axioms(self):
        for i in range(30):
            x = random_observable(self.CFG, i)
            assert check_axioms(from_observable(x)).ok

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(n_range=(1, 4))
        with pytest.raises(ValueError):
            TrialConfig(trials=-1)

    def test_empty_coord_range_rejected(self):
        with pytest.raises(ValueError, match="bad coord_range"):
            TrialConfig(coord_range=(3, 1))
        x = random_observable(TrialConfig(coord_range=(3, 3), coord_denominator_bound=2), 0)
        assert all(c == 3 for a in x.atoms for c in a.point)


# Default configs in n = 1..3, d = 1..2, and collision-heavy ones: few
# coordinate values make the 20 retries for a fresh point run out, and with
# two values and up to 1000 atoms most trials end all 200 attempts that way,
# so the single-atom fallback draws its point; negative ranges with
# denominators exercise the reduction.
_DRAW_CONFIGS = [
    *(TrialConfig(seed=10 * n + d, trials=0, n_range=(n, n), d_range=(d, d))
      for n in (1, 2, 3) for d in (1, 2)),
    TrialConfig(seed=5, trials=0, n_range=(1, 3), coord_range=(0, 1),
                coord_denominator_bound=1, max_atoms=12),
    TrialConfig(seed=6, trials=0, n_range=(1, 1), coord_range=(0, 1),
                coord_denominator_bound=1, max_atoms=1000),
    TrialConfig(seed=8, trials=0, n_range=(1, 2), coord_range=(-2, -1),
                coord_denominator_bound=6, max_atoms=12),
]


class TestRandomObservableOracle:
    def test_integer_draws_match_fraction_draws(self):
        paths = Counter()
        for cfg in _DRAW_CONFIGS:
            for i in range(40):
                got = random_observable(cfg, i)
                want = reference_random_observable(cfg, i, paths)
                assert got == want
                assert observable_to_json(got) == observable_to_json(want)
        assert paths["retries_exhausted"] > 0 and paths["fallback"] > 0


class TestPinnedTrialDraws:
    """sha256 of the JSON of draws 0..299, one line each; the constants were
    taken from the ``Fraction``-drawing generator (``reference_random_observable``)."""

    @pytest.mark.parametrize("cfg, digest", [
        (TrialConfig(seed=1),
         "131a8a3d38f12906b798edeb445ba2445bd362f4c145590321845ccc8a4da53c"),
        (TrialConfig(seed=7, n_range=(1, 3), coord_range=(0, 1), coord_denominator_bound=1),
         "1ec12148f1d65276e9b3ad06986e9d55e3b3fd8de8476563d04a378ba57ddccd"),
    ])
    def test_draw_digest(self, cfg, digest):
        h = hashlib.sha256()
        for i in range(300):
            h.update(observable_to_json(random_observable(cfg, i)).encode() + b"\n")
        assert h.hexdigest() == digest


class TestSaturatingFamily:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_exact_counts(self, k):
        report = all_blocks(from_observable(saturating_family(k)))
        assert report.level_counts() == {i: k - i + 1 for i in range(1, k + 1)}
        assert len(report.char_points()) == k * (k + 1) // 2

    def test_k1_single_point(self):
        report = all_blocks(from_observable(saturating_family(1)))
        assert report.char_points() == [(1, 1)]

    def test_antichain_length_attains_k(self):
        report = all_blocks(from_observable(saturating_family(4)))
        assert max_antichain(report) == 4


class TestPathologicalFamily:
    def test_m1_is_a_point_mass(self):
        F = pathological_family(1, 3)
        assert check_axioms(F).ok
        back = reconstruct(F)
        assert not isinstance(back, MismatchReport)
        assert len(back.atoms) == 1 and back.atoms[0].weight == F.signature.unit

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_within_budget_is_genuine(self, k):
        for m in range(1, k + 1):
            F = pathological_family(m, k)
            assert check_axioms(F).ok
            assert bounds_check(all_blocks(F)).ok
            assert not isinstance(reconstruct(F), MismatchReport)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_over_budget_breaks_bounds_and_reconstruction(self, k):
        m = k * (k + 1) // 2 + 1
        F = pathological_family(m, k)
        report = all_blocks(F)
        bc = bounds_check(report)
        assert not bc.ok
        assert len(report.levels[1]) >= m > k
        with pytest.raises(NotReconstructibleError):
            reconstruct(F)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_over_budget_necessarily_fails_volume(self, k):
        # saturating the height cap forces a negative increment somewhere:
        # the nonnegative-increment condition provably implies the bounds
        m = k * (k + 1) // 2 + 1
        statuses = check_axioms(pathological_family(m, k)).statuses
        assert not statuses["volume_nonneg"].ok
        assert statuses["monotone"].ok
        assert statuses["top_unit"].ok
        assert statuses["bottom_zero"].ok

    def test_antichain_length_scales_with_m(self):
        m = 7
        report = all_blocks(pathological_family(m, 3))
        assert max_antichain(report) >= m

    def test_chain_variant_keeps_axioms_for_all_m(self):
        for m in (1, 2, 5, 8):
            F = pathological_family(m, 2, style="chain")
            assert check_axioms(F).ok
            assert bounds_check(all_blocks(F)).ok

    def test_chain_variant_not_adjoined_reconstructible(self):
        with pytest.raises(NotReconstructibleError):
            reconstruct(pathological_family(3, 3, style="chain"))

    def test_bad_style(self):
        with pytest.raises(ValueError):
            pathological_family(2, 2, style="spiral")

    @pytest.mark.parametrize("style", ["antichain", "chain"])
    def test_table_matches_closed_form(self, style):
        for m in range(1, 31):
            for k in range(1, 12):
                F = pathological_family(m, k, style)
                assert F.breakpoints == (tuple(range(1, m + 1)),) * 2
                assert F.table == reference_pathological_family(m, k, style), (m, k)


@st.composite
def mass_grid_resolutions(draw):
    """2D step resolutions built from integer cell masses, negative ones included.

    A grid of at most 5x5 cells carries masses (h; g) on the cells off the
    lower row and column, which stay zero.  Exactly k unit heights are placed
    on random cells, then up to three +1/-1 height moves and up to four
    infinitesimal vectors g; the top corner takes whatever makes the total
    the unit.  Prefix sums give the cell values, and draws with a value
    outside [0, u] are dropped.
    """
    k = draw(st.integers(1, 5))
    d = draw(st.integers(1, 2))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    sig = AlgebraSignature(k, d)
    cell = st.tuples(st.integers(1, rows), st.integers(1, cols))
    heights = Counter(draw(st.lists(cell, min_size=k, max_size=k)))
    for up, down in draw(st.lists(st.tuples(cell, cell), max_size=3)):
        heights[up] += 1
        heights[down] -= 1
    vector = st.lists(st.integers(-2, 2), min_size=d, max_size=d).map(tuple)
    gs = dict(draw(st.lists(st.tuples(cell, vector), max_size=4)))

    top = (rows, cols)
    masses = {}
    rest = sig.zero
    for r in range(1, rows + 1):
        for c in range(1, cols + 1):
            if (r, c) != top:
                masses[(r, c)] = LexElement(sig, heights[(r, c)], gs.get((r, c), sig.zero.g))
                rest = group_add(rest, masses[(r, c)])
    masses[top] = group_sub(sig.unit, rest)

    values = {}
    for r in range(rows + 1):
        for c in range(cols + 1):
            if r == 0 or c == 0:
                values[(r, c)] = sig.zero
            else:
                v = group_add(masses[(r, c)], values[(r - 1, c)])
                v = group_add(v, values[(r, c - 1)])
                values[(r, c)] = group_sub(v, values[(r - 1, c - 1)])
    assume(all(in_unit_interval(v) for v in values.values()))
    return from_cells(sig, 2, (range(1, rows + 1), range(1, cols + 1)), values)


class TestVolumeImpliesBounds:
    # With bottom_zero and top_unit, volume_nonneg makes every cell mass >= 0,
    # so the mass heights are nonnegative integers summing to k: the levels
    # are those of a genuine observable, and the planar bounds follow.  Only
    # n = 2 is drawn, where those bounds apply.
    @settings(max_examples=200, deadline=None)
    @given(mass_grid_resolutions())
    def test_axioms_imply_bounds(self, F):
        report = all_blocks(F)  # report.axioms is check_axioms(F)
        if report.axioms.ok:
            target(float(len(report.char_points())), label="characteristic points")
            assert bounds_check(report).ok, report.to_doc()

    # The same conditions make the masses an observable whose resolution is F.
    # Its grid keeps only the breakpoints that carry mass, so the round trip is
    # compared as a step function on F's cells, and literally when no
    # breakpoint was dropped.
    @settings(max_examples=200, deadline=None)
    @given(mass_grid_resolutions())
    def test_axioms_make_the_masses_an_observable(self, F):
        if check_axioms(F).ok:
            G = from_observable(to_observable(F))
            assert all(eval_F(G, F.cell_rep(idx)) == v for idx, v in F.values.items())
            if G.breakpoints == F.breakpoints:
                assert G == F


class TestMismatchResolution:
    def test_axioms_hold(self):
        assert check_axioms(mismatch_resolution()).ok

    def test_adjoined_infima_sum_to_unit_yet_mismatch(self):
        F = mismatch_resolution()
        report = all_blocks(F)
        adjoined = [b for b in report.all_blocks() if b.t0_adjoined]
        assert sorted(str(b.infimum) for b in adjoined) == ["(1; -2)", "(1; 2)"]
        result = reconstruct(F)
        assert isinstance(result, MismatchReport)
        assert result.value_f.h == 0 and result.value_f.g == (3,)


def _count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` under every name a lexspec module binds it to."""
    original = getattr(module, name)
    calls = []

    def counted(F):
        calls.append(F)
        return original(F)

    for mod in ("lexspec", "lexspec.spectral", "lexspec.charpoints", "lexspec.verify",
                "lexspec.cli", "lexspec.render"):
        bound = importlib.import_module(mod)
        if getattr(bound, name, None) is original:
            monkeypatch.setattr(bound, name, counted)
    return calls


def _count_axiom_checks(monkeypatch) -> list:
    import lexspec.spectral

    return _count_calls(monkeypatch, lexspec.spectral, "check_axioms")


class TestRandomGridRegion:
    def test_matches_the_chained_unions(self):
        """Same draws, same region and same generator state as one ``union`` per
        box; one-atom grids leave three coordinates per axis, so boxes are
        often degenerate and a region is sometimes empty."""
        empty = 0
        for n in (1, 2, 3):
            cfg = TrialConfig(seed=n, trials=0, n_range=(n, n))
            for i in range(40):
                F = from_observable(random_observable(cfg, i))
                coords = [[bs[0] - 1, *bs, bs[-1] + 1] for bs in F.breakpoints]
                for seed in range(5):
                    got_rng, want_rng = SplitMix64(seed), SplitMix64(seed)
                    got = _random_grid_region(got_rng, coords)
                    assert got == reference_random_grid_region(want_rng, F)
                    assert got_rng.next_u64() == want_rng.next_u64()
                    empty += got.is_empty()
        assert empty > 0


class TestAxiomCheckCount:
    def test_one_check_per_suite_trial(self, monkeypatch):
        calls = _count_axiom_checks(monkeypatch)
        # trial 0 of seed 6 has every atom at an adjoined point
        summary = run_suite(TrialConfig(seed=6, trials=1))
        assert summary.runs["reconstruct_roundtrip"] == 1
        assert len(calls) == 1

    def test_reconstruct_does_not_check(self, monkeypatch):
        calls = _count_axiom_checks(monkeypatch)
        assert isinstance(reconstruct(mismatch_resolution()), MismatchReport)
        assert calls == []

    def test_one_check_per_example(self, monkeypatch, capsys):
        calls = _count_axiom_checks(monkeypatch)
        assert cli.main(["example", "3.7/7"]) == 0
        assert "T_0 = " in capsys.readouterr().out
        assert len(calls) == 1


class TestBlockPassCount:
    def test_one_block_pass_per_suite_trial(self, monkeypatch):
        """``run_suite`` hands ``all_blocks``'s blocks to the round trip."""
        calls = _count_calls(monkeypatch, charpoints, "_blocks")
        summary = run_suite(TrialConfig(seed=5, trials=60))
        assert summary.ok and summary.runs["reconstruct_roundtrip"] > 0
        assert len(calls) == 60

    def test_reconstruct_keeps_its_own_pass(self, monkeypatch):
        F = from_observable(random_observable(TrialConfig(seed=6, trials=1), 0))
        blocks = charpoints._blocks(F)[1]
        calls = _count_calls(monkeypatch, charpoints, "_blocks")
        assert reconstruct(F) == charpoints._reconstruct(F, blocks)
        assert len(calls) == 1


class TestRunSuite:
    def test_zero_trials(self):
        summary = run_suite(TrialConfig(seed=5, trials=0))
        assert summary.ok and summary.runs["axioms"] == 0

    def test_deterministic(self):
        cfg = TrialConfig(seed=2, trials=15)
        assert run_suite(cfg).to_doc() == run_suite(cfg).to_doc()

    def test_small_run_is_clean(self):
        summary = run_suite(TrialConfig(seed=3, trials=40))
        assert summary.ok, summary.to_doc()
        assert summary.runs["axioms"] == 40
        assert summary.runs["reconstruct_roundtrip"] > 0

    def test_failures_are_counted_and_the_first_25_listed(self, monkeypatch):
        monkeypatch.setattr(verify, "bounds_check", lambda report: SimpleNamespace(ok=False))
        summary = run_suite(TrialConfig(seed=3, trials=30))
        assert summary.ok is False and summary.total_failures == 30
        assert summary.failures == {name: 30 if name == "bounds" else 0 for name in summary.runs}
        assert summary.failing == [{"index": i, "check": "bounds"} for i in range(25)]
        doc = summary.to_doc()
        assert doc["ok"] is False and doc["checks"]["bounds"] == {"runs": 30, "failures": 30}

    def test_a_failing_check_makes_verify_exit_one(self, monkeypatch, capsys):
        monkeypatch.setattr(verify, "bounds_check", lambda report: SimpleNamespace(ok=False))
        assert cli.main(["verify", "--seed", "3", "--trials", "3"]) == 1
        assert "bounds: 3 runs, 3 failures FAIL" in capsys.readouterr().out
