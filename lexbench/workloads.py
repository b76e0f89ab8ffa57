"""The benchmark's three workloads: inputs, ops and oracles.

Each workload is a closed loop with one client.  Its op list is a pure
function of the workload seed, and the program under test only ever receives
the generated inputs.  Ops come in rounds; the runner stops only at a round
boundary, so every run executes the same mix of ops.

* ``suite``: one ``run_suite`` trial per op, the traffic of the randomized
  theorem suite.  ``boxgeom`` boolean operations dominate; the grid layers
  see only small grids.
* ``extension``: finitely additive extension to box unions on 200 small
  observables built during set-up.  Exercises ``union``/``halfopen_box``,
  the ``spectral`` query path and ``observable.eval``, and never the grid
  kernel (``check_axioms``, ``all_blocks``, ``from_observable``).
* ``analysis``: one in-process CLI call per op on documents with 289 to
  1,681 grid cells.  ``check_axioms``, ``all_blocks``, ``level_regions``,
  JSON decoding and ``render_svg`` dominate, and ``boxgeom`` appears only as
  large one-shot ``Region`` canonicalizations.

Every op output is checked by an oracle that does not reuse the code path
under test.  A failed oracle raises :class:`OracleError`.
"""

from __future__ import annotations

import hashlib
import json
import os
import xml.etree.ElementTree as ET
from bisect import bisect_left
from fractions import Fraction

from lexspec import boxgeom, cli, spectral, verify
from lexspec.lexalg import AlgebraSignature, LexElement
from lexspec.observable import make_observable, observable_to_doc
from lexspec.spectral import resolution_to_doc
from lexspec.verify import SplitMix64, TrialConfig

_MASK64 = (1 << 64) - 1


class OracleError(AssertionError):
    """An op produced an output the oracle rejects."""


def op_rng(seed: int, *key: int) -> SplitMix64:
    """Independent splitmix64 stream for (seed, key...), stable across runs."""
    rng = SplitMix64(seed)
    for part in key:
        rng = SplitMix64(rng.next_u64() ^ (part & _MASK64))
    return rng


def _encode(v: Fraction):
    """A rational as lexspec documents write it: an int, or a "p/q" string."""
    return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


# --- dense observables ---------------------------------------------------------


def dense_observable(rng: SplitMix64, n: int, m: int, k: int, d: int = 1):
    """An observable with exactly ``m`` atoms on a full (m+1)^n grid.

    Coordinates are distinct per axis, so the derived resolution has exactly
    ``(m + 1) ** n`` cells.  ``k`` atoms have height 1 and the last of them
    absorbs the infinitesimal balance; the other ``m - k`` atoms weigh
    ``(0; g)`` with ``g >= 0`` componentwise and nonzero.  The weights then
    lie in ``[0, u]`` and sum to the unit for every draw, so no draw is
    rejected (``random_observable`` collapses to a few atoms instead).
    """
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    sig = AlgebraSignature(k, d)
    axes = []
    for _ in range(n):
        seen: set[Fraction] = set()
        coords: list[Fraction] = []
        while len(coords) < m:
            den = rng.randint(1, 4)
            c = Fraction(rng.randint(-4 * m * den, 4 * m * den), den)
            if c not in seen:
                seen.add(c)
                coords.append(c)
        axes.append(coords)
    points = [tuple(axes[j][i] for j in range(n)) for i in range(m)]

    weights = []
    balance = [0] * d
    for _ in range(m - k):
        g = [rng.randint(0, 5) for _ in range(d)]
        if not any(g):
            g[0] = 1
        weights.append(LexElement(sig, 0, tuple(g)))
        balance = [b + c for b, c in zip(balance, g)]
    for _ in range(k - 1):
        g = [rng.randint(-5, 5) for _ in range(d)]
        weights.append(LexElement(sig, 1, tuple(g)))
        balance = [b + c for b, c in zip(balance, g)]
    weights.append(LexElement(sig, 1, tuple(-b for b in balance)))
    rng.shuffle(weights)
    return make_observable(sig, n, list(zip(points, weights)))


def _affine_maps(rng: SplitMix64, n: int) -> list[tuple[Fraction, Fraction]]:
    """One increasing map c -> a*c + b per axis; it preserves every order fact."""
    return [
        (Fraction(rng.randint(1, 4), rng.randint(1, 3)), Fraction(rng.randint(-20, 20), rng.randint(1, 4)))
        for _ in range(n)
    ]


def remap_observable(rng: SplitMix64, x):
    maps = _affine_maps(rng, x.n)
    atoms = [
        (tuple(a * c + b for c, (a, b) in zip(atom.point, maps)), atom.weight)
        for atom in x.atoms
    ]
    return make_observable(x.signature, x.n, atoms)


def remap_resolution_doc(rng: SplitMix64, doc: dict) -> dict:
    maps = _affine_maps(rng, doc["n"])
    out = dict(doc)
    out["breakpoints"] = [
        [_encode(a * Fraction(v) + b) for v in axis]
        for axis, (a, b) in zip(doc["breakpoints"], maps)
    ]
    return out


# --- workloads -------------------------------------------------------------------


class Workload:
    """Base: ``inputs(i)`` makes op i's input, ``run`` is the timed op and
    ``check`` its oracle, which returns the bytes that enter the output digest.
    """

    name = ""
    round_len = 1
    min_ops = 100
    digest_ops = 100  # outputs of the first ops, which every run completes

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def inputs(self, i: int):
        raise NotImplementedError

    def spec(self, i: int) -> dict:
        """A JSON reproducer of op i's input."""
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, i: int, inp, out) -> bytes:
        raise NotImplementedError


_SUITE_CHECKS = (
    "axioms",
    "tk_unique_char_point",
    "bounds",
    "rays",
    "block_cube",
    "observable_laws",
    "point_mass",
)


class Suite(Workload):
    """One default-config ``run_suite`` trial per op, each with a fresh suite seed."""

    name = "suite"

    def inputs(self, i: int) -> TrialConfig:
        return TrialConfig(seed=op_rng(self.seed, i).next_u64(), trials=1)

    def spec(self, i: int) -> dict:
        return {"config": repr(self.inputs(i))}

    def run(self, config):
        return verify.run_suite(config)

    def check(self, i: int, config, out) -> bytes:
        doc = out.to_doc()
        if doc["seed"] != config.seed or doc["trials"] != 1:
            raise OracleError(f"summary header {doc['seed']}/{doc['trials']}")
        checks = doc["checks"]
        # default n_range is (2, 2), so the ray check runs on every trial
        for name in _SUITE_CHECKS:
            if checks[name] != {"runs": 1, "failures": 0}:
                raise OracleError(f"check {name}: {checks[name]}")
        if checks["reconstruct_roundtrip"]["runs"] not in (0, 1):
            raise OracleError(f"reconstruct_roundtrip: {checks['reconstruct_roundtrip']}")
        if checks["reconstruct_roundtrip"]["failures"] or not doc["ok"] or doc["failing"]:
            raise OracleError(f"suite not ok: {doc['failing']}")
        return json.dumps(doc, sort_keys=True).encode()


class Extension(Workload):
    """Additive extension of 200 fixed observables to random grid-aligned box unions.

    An op builds the union of 1-3 half-open boxes, sums box volumes over two
    decompositions (the canonical boxes, and those boxes split at random grid
    cuts) and evaluates the observable on the region.  The three values must
    agree.
    """

    name = "extension"
    observables = 200
    round_len = 200
    digest_ops = 200

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        config = TrialConfig(seed=op_rng(seed, 0).next_u64(), n_range=(2, 2), max_atoms=8)
        self.xs = [verify.random_observable(config, i) for i in range(self.observables)]
        self.Fs = [spectral.from_observable(x) for x in self.xs]
        self.grids = []
        for F in self.Fs:
            self.grids.append(
                [[axis[0] - 1, *axis, axis[-1] + 1] for axis in F.breakpoints]
            )

    def inputs(self, i: int):
        j = i % self.observables
        grid = self.grids[j]
        rng = op_rng(self.seed, 1, i)
        boxes = []
        for _ in range(rng.randint(1, 3)):
            lo, hi = [], []
            for coords in grid:
                a, b = rng.choice(coords), rng.choice(coords)
                lo.append(min(a, b))
                hi.append(max(a, b))
            boxes.append((lo, hi))
        cuts = [{c for c in coords if rng.randint(0, 1)} for coords in grid]
        return j, boxes, cuts

    def spec(self, i: int) -> dict:
        j, boxes, cuts = self.inputs(i)
        return {
            "observable": j,
            "boxes": [[[_encode(c) for c in lo], [_encode(c) for c in hi]] for lo, hi in boxes],
            "cuts": [[_encode(c) for c in sorted(axis)] for axis in cuts],
        }

    def run(self, inp):
        j, boxes, cuts = inp
        x, F = self.xs[j], self.Fs[j]
        region = boxgeom.Region.empty(x.n)
        for lo, hi in boxes:
            region = boxgeom.union(region, boxgeom.halfopen_box(lo, hi))
        canonical = [_halfopen_bounds(box) for box in region.boxes]
        refined = [piece for bounds in canonical for piece in _split(bounds, cuts)]
        return (
            x.eval(region),
            spectral.additive_extension(F, canonical),
            spectral.additive_extension(F, refined),
        )

    def check(self, i: int, inp, out) -> bytes:
        direct, canonical, refined = out
        if not direct == canonical == refined:
            raise OracleError(f"eval {direct}, canonical boxes {canonical}, cut boxes {refined}")
        return str(direct).encode()


def _halfopen_bounds(box) -> list[tuple[Fraction, Fraction]]:
    """[a, b) bounds of a canonical box; a union of half-open boxes has no others."""
    bounds = []
    for iv in box.dims:
        if not (iv.lo_closed and not iv.hi_closed and boxgeom.is_finite(iv.hi)):
            raise OracleError(f"canonical box {box} is not half-open")
        bounds.append((iv.lo, iv.hi))
    return bounds


def _split(bounds, cuts) -> list[list[tuple[Fraction, Fraction]]]:
    """The sub-boxes of ``bounds`` cut at every axis cut strictly inside it."""
    pieces: list[list[tuple[Fraction, Fraction]]] = [[]]
    for (a, b), axis_cuts in zip(bounds, cuts):
        ends = [a, *sorted(c for c in axis_cuts if a < c < b), b]
        pieces = [p + [(lo, hi)] for p in pieces for lo, hi in zip(ends, ends[1:])]
    return pieces


# Analysis documents.  The sizes give one round of 57 ops, about 8 s on a
# 2.x GHz Xeon core, so two rounds reach the 100 ops a p90 needs; grids
# have 289 to 1,681 cells.
_DENSE = (  # (key, n, m, k)
    ("dense2-m16", 2, 16, 3),
    ("dense2-m24", 2, 24, 4),
    ("dense2-m32", 2, 32, 4),
    ("dense2-m40", 2, 40, 5),
    ("dense3-m8", 3, 8, 3),
    ("dense3-m10", 3, 10, 3),
)
_SATURATING = (("saturate-K16", 16), ("saturate-K24", 24))
_PATHOLOGICAL = (("patho-m16-k3", 16, 3), ("patho-m24-k4", 24, 4), ("patho-m32-k5", 32, 5))
_EXAMPLES = ("saturate/16", "saturate/24", "patho/16", "patho/24")
_SUBCOMMANDS = (
    ("axioms", "--json"),
    ("regions", "--json"),
    ("charpoints", "--json"),
    ("reconstruct", "--json"),
    ("render", "--format", "svg"),
)
_REGION_SAMPLES = 12
_STRUCTURE_SEED = 2011_01133


class Analysis(Workload):
    """One ``lexspec.cli.main`` call per op on documents written during set-up.

    A round runs every subcommand on every document once (render on n=2
    only), plus the ``example`` families, in a seeded order.  Later rounds
    repeat the first one, and their outputs must be byte-identical to it.
    """

    name = "analysis"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.docs: dict[str, dict] = {}
        self.sources = {}  # key -> observable, for the region oracle
        self.genuine: dict[str, bool] = {}
        # The grid structure, hence the cost of an op, is fixed; the seed
        # picks coordinates and the op order, so runs with different seeds
        # measure the same work.
        structure = op_rng(_STRUCTURE_SEED, 2)
        rng = op_rng(seed, 2)
        for key, n, m, k in _DENSE:
            self._add_observable(key, remap_observable(rng, dense_observable(structure, n, m, k)))
        for key, K in _SATURATING:
            self._add_observable(key, remap_observable(rng, verify.saturating_family(K)))
        for key, m, k in _PATHOLOGICAL:
            doc = remap_resolution_doc(rng, resolution_to_doc(verify.pathological_family(m, k)))
            self._write(key, doc, genuine=False)
        ops = []
        for key, doc in self.docs.items():
            for sub in _SUBCOMMANDS:
                if sub[0] != "render" or doc["n"] == 2:
                    ops.append((key, sub))
        ops += [(None, ("example", name)) for name in _EXAMPLES]
        rng.shuffle(ops)
        self.ops = ops
        self.round_len = self.digest_ops = len(ops)
        self.out_path = os.path.join(workdir, "out.txt")
        self._first: dict[int, bytes] = {}

    def _add_observable(self, key: str, x) -> None:
        self.sources[key] = x
        self._write(key, observable_to_doc(x), genuine=True)

    def _write(self, key: str, doc: dict, genuine: bool) -> None:
        with open(os.path.join(self.workdir, key + ".json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.docs[key] = doc
        self.genuine[key] = genuine

    def inputs(self, i: int) -> list[str]:
        if os.path.exists(self.out_path):  # left behind by an op that raised
            os.remove(self.out_path)
        key, sub = self.ops[i % self.round_len]
        if key is None:
            return [*sub, "--out", self.out_path]
        path = os.path.join(self.workdir, key + ".json")
        return [sub[0], "--input", path, *sub[1:], "--out", self.out_path]

    def spec(self, i: int) -> dict:
        key, sub = self.ops[i % self.round_len]
        if key is None:
            return {"argv": list(sub)}
        content = json.dumps(self.docs[key], sort_keys=True).encode()
        return {
            "argv": [sub[0], "--input", f"{key}.json", *sub[1:]],
            "doc_sha256": hashlib.sha256(content).hexdigest(),
        }

    def run(self, argv):
        return cli.main(argv)

    def check(self, i: int, argv, rc) -> bytes:
        try:
            with open(self.out_path, "rb") as fh:
                data = fh.read()
            os.remove(self.out_path)
        except FileNotFoundError:
            raise OracleError(f"exit {rc} without output") from None
        produced = f"exit {rc}\n".encode() + data
        slot = i % self.round_len
        if slot in self._first:
            if produced != self._first[slot]:
                raise OracleError("output differs from the same op in the first round")
            return produced
        key, sub = self.ops[slot]
        if key is None:
            _check_example(sub[1], rc, data)
        else:
            getattr(self, "_check_" + sub[0])(key, rc, data)
        self._first[slot] = produced
        return produced

    def _check_axioms(self, key, rc, data) -> None:
        genuine = self.genuine[key]
        ok = json.loads(data)["ok"]
        if rc != (0 if genuine else 1) or ok is not genuine:
            raise OracleError(f"axioms: exit {rc}, ok {ok}, genuine input {genuine}")

    def _check_charpoints(self, key, rc, data) -> None:
        """Genuine inputs are not flagged and, in the plane, meet the bounds.

        The per-level bound k - i + 1 is a planar fact: in R^3 three
        incomparable height-1 atoms have three incomparable pairwise joins at
        level 2, so ``bounds.ok`` is not expected for n = 3.
        """
        doc = json.loads(data)
        if rc != 0:
            raise OracleError(f"charpoints: exit {rc}")
        if doc["pathological"] is self.genuine[key]:
            raise OracleError(f"charpoints: pathological {doc['pathological']} on {key}")
        if self.genuine[key] and doc["n"] == 2 and not doc["bounds"]["ok"]:
            raise OracleError("charpoints: bounds fail on a genuine planar observable")

    def _check_regions(self, key, rc, data) -> None:
        if rc != 0:
            raise OracleError(f"regions: exit {rc}")
        src = self.docs[key]
        n = src["n"]
        levels = {int(i): boxgeom.parse_region(text, n) for i, text in json.loads(data)["levels"].items()}
        for p in self._sample_points(key):
            want = self._level_at(key, p)
            got = [i for i, region in levels.items() if region.contains(p)]
            if got != [want]:
                raise OracleError(f"regions: point {p} lies in levels {got}, expected {want}")

    def _sample_points(self, key) -> list[tuple[Fraction, ...]]:
        """Points on, between, below and above the document's grid values."""
        rng = op_rng(self.seed, 3, list(self.docs).index(key))
        grid = self._grid(key)
        out = []
        for _ in range(_REGION_SAMPLES):
            p = []
            for axis in grid:
                r = rng.randint(0, len(axis))
                if r == len(axis):
                    p.append(axis[-1] + 1)
                elif rng.randint(0, 1) or r == 0:
                    p.append(axis[r] - Fraction(1, 3) if r == 0 else axis[r])
                else:
                    p.append((axis[r - 1] + axis[r]) / 2)
            out.append(tuple(p))
        return out

    def _grid(self, key) -> list[list[Fraction]]:
        doc = self.docs[key]
        if key in self.sources:
            return [sorted({a.point[j] for a in self.sources[key].atoms}) for j in range(doc["n"])]
        return [[Fraction(v) for v in axis] for axis in doc["breakpoints"]]

    def _level_at(self, key, p) -> int:
        """Height of F(p): the source's mass strictly below p, or the document's cell."""
        if key in self.sources:
            return self.sources[key].eval(boxgeom.lower_orthant(p)).h
        doc = self.docs[key]
        idx = [bisect_left([Fraction(v) for v in axis], c) for axis, c in zip(doc["breakpoints"], p)]
        for cell in doc["cells"]:
            if cell["index"] == idx:
                return cell["value"]["h"]
        raise OracleError(f"document {key} has no cell {idx}")

    def _check_reconstruct(self, key, rc, data) -> None:
        doc = json.loads(data)
        is_saturating = key.startswith("saturate")
        if rc == 0 and doc == self.docs[key]:
            return
        if rc == 1 and not is_saturating and doc.get("reconstructible") is False:
            return
        raise OracleError(f"reconstruct: exit {rc} on {key}")

    def _check_render(self, key, rc, data) -> None:
        if rc != 0:
            raise OracleError(f"render: exit {rc}")
        try:
            root = ET.fromstring(data)
        except ET.ParseError as exc:
            raise OracleError(f"render: SVG does not parse: {exc}") from None
        if root.tag != "{http://www.w3.org/2000/svg}svg":
            raise OracleError(f"render: root element {root.tag}")


def _check_example(name: str, rc: int, data: bytes) -> None:
    """Saturating families meet every bound exactly; patho/M with M > k=2 exceeds them."""
    bounds = [line for line in data.decode().splitlines() if line.startswith("bound ")]
    if rc != 0 or not bounds:
        raise OracleError(f"example {name}: exit {rc}, {len(bounds)} bound lines")
    exceeded = [line for line in bounds if line.endswith("exceeded")]
    if name.startswith("saturate/") and exceeded:
        raise OracleError(f"example {name}: {exceeded[0]}")
    if name.startswith("patho/") and not exceeded:
        raise OracleError(f"example {name}: no bound exceeded")


WORKLOADS = {w.name: w for w in (Suite, Extension, Analysis)}
