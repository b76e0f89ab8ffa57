"""Randomized and constructive verification harness.

Random observables are generated from a portable splitmix64 stream, so every
failure reproduces across platforms from (seed, trial index) alone.  The
constructive families provide the saturating antichain (which meets the
characteristic-point bounds exactly), capped staircase resolutions that
overflow the bounds, and a resolution whose adjoined-block reconstruction
provably mismatches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd

from .charpoints import (
    NotReconstructibleError,
    all_blocks,
    block_cube_check,
    bounds_check,
    rays_check,
    reconstruct,
)
from .boxgeom import Box, Region, closed_open, complement, difference, intersect, union
from .lexalg import (
    AlgebraSignature,
    LexElement,
    group_add,
    group_sub,
    in_unit_interval,
    mv_neg,
    partial_add,
)
from .observable import DiscreteObservable, make_observable
from .spectral import (
    MAX_DENSE_CELLS,
    ResolutionError,
    StepResolution,
    from_cells,
    from_observable,
    point_mass_via_deltas,
)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """The splitmix64 generator: 64-bit state, golden-gamma increment.

    state += 0x9E3779B97F4A7C15; z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB;
    output z ^ (z >> 31).

    The full output sequence is pinned by the test suite, so generated data is
    identical on every platform.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (modulo reduction; fine at this scale)."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]


def trial_rng(seed: int, index: int) -> SplitMix64:
    """Generator for one trial: seeded with the index-th output of SplitMix64(seed).

    The master state after ``index`` draws is ``seed + index * gamma``, so the
    draw is taken directly (Steele, Lea & Flood, OOPSLA 2014).
    """
    if index < 0:
        raise ValueError(f"trial index must be >= 0, got {index}")
    return SplitMix64(SplitMix64(seed + index * _GAMMA).next_u64())


@dataclass(frozen=True, slots=True)
class TrialConfig:
    seed: int = 0
    trials: int = 100
    k_range: tuple[int, int] = (1, 6)
    d_range: tuple[int, int] = (1, 2)
    n_range: tuple[int, int] = (2, 2)
    max_atoms: int = 12
    coord_denominator_bound: int = 4
    coord_range: tuple[int, int] = (-8, 8)

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise ValueError("trials must be >= 0")
        for name in ("k_range", "d_range", "n_range"):
            lo, hi = getattr(self, name)
            if not 1 <= lo <= hi:
                raise ValueError(f"bad {name}: ({lo}, {hi})")
        if self.n_range[1] > 3:
            raise ValueError("n_range is capped at 3")
        if self.max_atoms < 1 or self.coord_denominator_bound < 1:
            raise ValueError("bounds must be positive")
        if self.coord_range[0] > self.coord_range[1]:
            raise ValueError(f"bad coord_range: {self.coord_range}")


_G_SPAN = 5  # infinitesimal components are drawn from [-5, 5]


def random_observable(config: TrialConfig, index: int) -> DiscreteObservable:
    """Deterministic random observable for (config.seed, index); always valid.

    Atom count, points, and weights are drawn fresh per attempt: heights form
    a random composition of k, infinitesimal parts sum to zero with the last
    atom absorbing the remainder, and draws violating unit-interval
    membership are discarded.  A bounded rejection loop falls back to a
    single atom of weight u.  Points are drawn as reduced (numerator,
    denominator) pairs and de-duplicated on those; only the accepted attempt
    turns them into ``Fraction`` coordinates.
    """
    rng = trial_rng(config.seed, index)
    k = rng.randint(*config.k_range)
    d = rng.randint(*config.d_range)
    n = rng.randint(*config.n_range)
    sig = AlgebraSignature(k, d)
    lo, hi = config.coord_range

    def draw_point() -> tuple[tuple[int, int], ...]:
        coords = []
        for _ in range(n):
            den = rng.randint(1, config.coord_denominator_bound)
            num = rng.randint(lo * den, hi * den)
            g = gcd(num, den)
            coords.append((num // g, den // g))
        return tuple(coords)

    for _ in range(200):
        m = rng.randint(1, config.max_atoms)
        points: dict[tuple[tuple[int, int], ...], None] = {}  # insertion-ordered
        for _ in range(m):
            for _ in range(20):
                p = draw_point()
                if p not in points:
                    points[p] = None
                    break
            else:
                break
        if len(points) < m:
            continue

        heights = []
        rem = k
        for _ in range(m - 1):
            h = rng.randint(0, rem)
            heights.append(h)
            rem -= h
        heights.append(rem)
        rng.shuffle(heights)

        weights: list[LexElement] = []
        g_total = [0] * d
        for i, h in enumerate(heights):
            if i + 1 < m:
                g = tuple(rng.randint(-_G_SPAN, _G_SPAN) for _ in range(d))
            else:
                g = tuple(-c for c in g_total)
            for c, gc in zip(range(d), g):
                g_total[c] += gc
            weights.append(LexElement(sig, h, g))
        if any(not in_unit_interval(w) for w in weights):
            continue
        if any(w == sig.zero for w in weights):
            continue
        atoms = [(tuple(Fraction(*c) for c in p), w) for p, w in zip(points, weights)]
        return make_observable(sig, n, atoms)

    # exhausted: a single unit atom is always valid
    return make_observable(sig, n, [(tuple(Fraction(*c) for c in draw_point()), sig.unit)])


def _check_grid(m: int) -> None:
    """Refuse a family whose (m+1) x (m+1) grid exceeds ``MAX_DENSE_CELLS``."""
    if (m + 1) ** 2 > MAX_DENSE_CELLS:
        raise ResolutionError(
            f"dense grid of {(m + 1) ** 2} cells exceeds the limit of {MAX_DENSE_CELLS}"
        )


def saturating_family(k: int) -> DiscreteObservable:
    """k height-1 atoms on the antichain (1,k), (2,k-1), ..., (k,1).

    The derived resolution has exactly k-i+1 blocks at level i, so the
    per-level and total characteristic-point bounds are attained exactly.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_grid(k)
    sig = AlgebraSignature(k, 1)
    one = LexElement(sig, 1, (0,))
    atoms = [((Fraction(j), Fraction(k + 1 - j)), one) for j in range(1, k + 1)]
    return make_observable(sig, 2, atoms)


def pathological_family(m: int, k: int, style: str = "antichain") -> StepResolution:
    """Synthetic staircase resolutions with m corner points, heights capped at k.

    ``antichain`` places m steps along a strictly decreasing staircase (one
    height-1 step each, the last step padded so the total reaches the unit
    when m <= k).  For m <= k this equals the resolution of a genuine
    observable: all conditions hold and reconstruction round-trips.  For
    m > k the value table saturates at height k, which necessarily breaks the
    nonnegative-increment condition at the saturation corners and overflows
    the characteristic-point bounds; reconstruction fails.

    ``chain`` nests m quadrants with corners on the diagonal, one level per
    ring (inner rings beyond level k merge at k).  It keeps all conditions
    for every m but stops being adjoined-reconstructible as soon as m >= 2.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be >= 1")
    if style not in ("antichain", "chain"):
        raise ValueError(f"unknown style {style!r}")
    _check_grid(m)
    sig = AlgebraSignature(k, 1)
    breaks = [Fraction(v) for v in range(1, m + 1)]
    values: dict[tuple[int, int], LexElement] = {}
    if style == "antichain":
        heights = [1] * (m - 1) + [max(1, k - m + 1)]
        prefix = [0]
        for h in heights:
            prefix.append(prefix[-1] + h)
        for r, c in product(range(m + 1), repeat=2):
            jlo = max(1, m + 1 - c)
            jhi = min(r, m)
            count = prefix[jhi] - prefix[jlo - 1] if jlo <= jhi else 0
            values[(r, c)] = LexElement(sig, min(k, count), (0,))
    else:
        for r, c in product(range(m + 1), repeat=2):
            raw = min(r, c)
            level = k if raw >= m else min(raw, k)
            values[(r, c)] = LexElement(sig, level, (0,))
    return from_cells(sig, 2, (breaks, breaks), values)


def mismatch_resolution() -> StepResolution:
    """A resolution passing every condition whose reconstruction mismatches.

    Its two adjoined blocks have infima (1; 2) and (1; -2), which sum to the
    unit of the k=2 algebra, yet the induced observable disagrees with the
    resolution on the cell (1,3]x(2,3]: the resolution carries the purely
    infinitesimal value (0; 3) there, which no point mass reproduces, so the
    level-0 set is not the zero set.
    """
    sig = AlgebraSignature(2, 1)

    def el(h: int, g: int) -> LexElement:
        return LexElement(sig, h, (g,))

    values = {
        (0, 0): el(0, 0), (0, 1): el(0, 0), (0, 2): el(0, 0),
        (1, 0): el(0, 0), (2, 0): el(0, 0),
        (1, 1): el(0, 3),
        (1, 2): el(1, 2),
        (2, 1): el(1, -2),
        (2, 2): el(2, 0),
    }
    return from_cells(sig, 2, ((Fraction(1), Fraction(3)), (Fraction(2), Fraction(3))), values)


# --- the aggregated randomized suite -----------------------------------------


_CHECKS = (
    "axioms",
    "tk_unique_char_point",
    "bounds",
    "rays",
    "block_cube",
    "observable_laws",
    "point_mass",
    "reconstruct_roundtrip",
)


@dataclass(slots=True)
class SuiteSummary:
    seed: int
    trials: int
    runs: dict[str, int] = field(default_factory=dict)
    failures: dict[str, int] = field(default_factory=dict)
    failing: list[dict] = field(default_factory=list)

    @property
    def total_failures(self) -> int:
        return sum(self.failures.values())

    @property
    def ok(self) -> bool:
        return self.total_failures == 0

    def to_doc(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "ok": self.ok,
            "checks": {
                name: {"runs": self.runs.get(name, 0), "failures": self.failures.get(name, 0)}
                for name in _CHECKS
            },
            "failing": self.failing,
        }


def _random_grid_region(rng: SplitMix64, F: StepResolution) -> Region:
    """Union of one to three grid-aligned half-open boxes."""
    coords = [[bs[0] - 1, *bs, bs[-1] + 1] for bs in F.breakpoints]
    boxes = []
    for _ in range(rng.randint(1, 3)):
        ends = [sorted((rng.choice(axis), rng.choice(axis))) for axis in coords]
        if all(a < b for a, b in ends):  # a degenerate box is empty
            boxes.append(Box(tuple(closed_open(a, b) for a, b in ends)))
    return Region(F.n, boxes)


def _observable_laws_hold(
    rng: SplitMix64, x: DiscreteObservable, F: StepResolution
) -> bool:
    for _ in range(3):
        a = _random_grid_region(rng, F)
        b = _random_grid_region(rng, F)
        va, vb = x.eval(a), x.eval(b)
        # complement law
        if x.eval(complement(a)) != mv_neg(va):
            return False
        # monotonicity and difference along an inclusion
        inner = intersect(a, b)
        vi = x.eval(inner)
        if not vi <= va:
            return False
        if x.eval(difference(a, inner)) != group_sub(va, vi):
            return False
        # modularity with matching definedness of the partial sums
        vu = x.eval(union(a, b))
        lhs = partial_add(va, vb)
        rhs = partial_add(vu, vi)
        if (lhs is None) != (rhs is None):
            return False
        if group_add(va, vb) != group_add(vu, vi):
            return False
    return True


def _point_mass_agrees(rng: SplitMix64, x: DiscreteObservable, F: StepResolution) -> bool:
    points = [a.point for a in x.atoms]
    for j in range(2):
        points.append(
            tuple(
                Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(x.n)
            )
        )
    return all(x.point_mass(p) == point_mass_via_deltas(F, p) for p in points)


def run_suite(config: TrialConfig) -> SuiteSummary:
    """Run every theorem check on config.trials random observables.

    Failures are counted, never raised: a reproducer is the (seed, index)
    pair recorded in the summary.
    """
    summary = SuiteSummary(seed=config.seed, trials=config.trials)
    runs = {name: 0 for name in _CHECKS}
    fails = {name: 0 for name in _CHECKS}

    def record(name: str, index: int, ok: bool) -> None:
        runs[name] += 1
        if not ok:
            fails[name] += 1
            if len(summary.failing) < 25:
                summary.failing.append({"index": index, "check": name})

    for index in range(config.trials):
        rng = trial_rng(config.seed, index)
        rng.next_u64()  # decouple the in-trial stream from generation
        x = random_observable(config, index)
        F = from_observable(x)
        k = x.signature.k

        report = all_blocks(F)
        record("axioms", index, report.axioms.ok)
        record("tk_unique_char_point", index, len(report.levels.get(k, ())) == 1)
        record("bounds", index, bounds_check(report).ok)

        if x.n == 2:
            record(
                "rays",
                index,
                all(rays_check(F, p).ok for p in report.char_points()),
            )

        cube_ok, _ = block_cube_check(F, report)
        record("block_cube", index, cube_ok)

        record("observable_laws", index, _observable_laws_hold(rng, x, F))
        record("point_mass", index, _point_mass_agrees(rng, x, F))

        adjoined_points = {
            b.char_point for b in report.all_blocks() if b.t0_adjoined
        }
        if all(a.point in adjoined_points for a in x.atoms):
            try:
                back = reconstruct(F)
                record("reconstruct_roundtrip", index, back == x)
            except NotReconstructibleError:
                record("reconstruct_roundtrip", index, False)

    summary.runs = runs
    summary.failures = fails
    return summary
