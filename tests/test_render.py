"""Render outputs: a pinned digest over a fixed corpus, the ASCII map against
an ``eval_F`` sampling reference, and the two render input errors."""

from __future__ import annotations

import hashlib
from fractions import Fraction as Q
from itertools import product
from xml.sax.saxutils import escape

import pytest
from hypothesis import example, given, settings, strategies as st

from lexspec.charpoints import all_blocks
from lexspec.cli import main
from lexspec.gallery import build_example
from lexspec.lexalg import AlgebraSignature, LexElement
from lexspec.observable import make_observable, observable_to_json
from lexspec.render import (
    ASCII_HEIGHT,
    ASCII_WIDTH,
    RenderError,
    _escape,
    render_ascii,
    render_svg,
)
from lexspec.spectral import from_cells, from_observable
from lexspec.verify import (
    SplitMix64,
    TrialConfig,
    pathological_family,
    random_observable,
    saturating_family,
)

from oracles import reference_ascii_rows, reference_render_svg


def _level_table(rng: SplitMix64):
    """A planar ``from_cells`` resolution with an independent level per cell."""
    sig = AlgebraSignature(rng.randint(1, 12), 1)
    breakpoints = []
    for _ in range(2):
        den = rng.randint(1, 3)
        start = rng.randint(-4 * den, 4 * den)
        steps = [rng.randint(1, 3) for _ in range(rng.randint(0, 5))]
        axis = [start]
        for s in steps:
            axis.append(axis[-1] + s)
        breakpoints.append([Q(v, den) for v in axis])
    values = {
        idx: LexElement(sig, rng.randint(0, sig.k), (0,))
        for idx in product(*[range(len(bs) + 1) for bs in breakpoints])
    }
    return from_cells(sig, 2, breakpoints, values)


def render_corpus():
    """The gallery, three saturating families, the antichain and chain
    pathological grids, splitmix64 observables and random level tables."""
    for name in [f"3.7/{i}" for i in range(1, 10)] + ["saturate/1", "saturate/3", "saturate/16"]:
        kind, obj, _ = build_example(name)
        yield from_observable(obj) if kind == "observable" else obj
    for m in range(1, 7):
        for k in (2, 3):
            for style in ("antichain", "chain"):
                yield pathological_family(m, k, style)
    cfg = TrialConfig(seed=2011, trials=0, k_range=(1, 6), n_range=(2, 2), max_atoms=8)
    for i in range(40):
        yield from_observable(random_observable(cfg, i))
    rng = SplitMix64(1133)
    for _ in range(40):
        yield _level_table(rng)


class TestRenderDigest:
    def test_outputs_are_pinned(self):
        h = hashlib.sha256()
        for F in render_corpus():
            h.update(render_ascii(F).encode())
            h.update(render_svg(F).encode())
        assert h.hexdigest() == "f1ccf6dbb8408c3b65f71243761e639ba46ff6ac3286f01fb64b1a5d97865786"


class TestLabelEscape:
    """SVG labels are escaped without ``xml.sax``, as ``saxutils.escape`` would."""

    @example("(1, 2)")
    @example("a&b<c>d")
    @example("&amp;&lt;<<&>>")
    @given(st.text(alphabet="&<>;amplgt 1", max_size=24))
    def test_matches_saxutils(self, text):
        assert _escape(text) == escape(text)


class TestSvgFromCellRuns:
    @pytest.mark.parametrize("m", [1, 2, 5, 9])
    @pytest.mark.parametrize("k", [1, 3, 4])
    @pytest.mark.parametrize("style", ["antichain", "chain"])
    def test_pathological_family(self, m, k, style):
        F = pathological_family(m, k, style)
        assert render_svg(F) == reference_render_svg(F)

    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    def test_saturating_family(self, k):
        F = from_observable(saturating_family(k))
        assert render_svg(F) == reference_render_svg(F)


@st.composite
def planar_level_tables(draw):
    """Level tables whose inner breakpoints often fall on the centre of an
    ASCII column or row, where ``bisect_left`` and ``bisect_right`` differ."""
    k = draw(st.integers(1, 35))
    sig = AlgebraSignature(k, 1)
    breakpoints = []
    for cells in (ASCII_WIDTH, ASCII_HEIGHT):
        lo = Q(draw(st.integers(-5, 5)), draw(st.integers(1, 3)))
        hi = lo + Q(draw(st.integers(0, 12)), draw(st.integers(1, 4)))
        span = hi - lo + 2
        centres = [lo - 1 + span * (2 * c + 1) / (2 * cells) for c in range(cells)]
        inner = [v for v in centres if lo < v < hi]
        chosen = draw(st.sets(st.sampled_from(inner), max_size=4)) if inner else set()
        others = draw(st.sets(st.integers(1, 15), max_size=3))
        chosen |= {lo + (hi - lo) * t / 16 for t in others}
        breakpoints.append(sorted({lo, hi} | chosen))
    values = {
        idx: LexElement(sig, draw(st.integers(0, k)), (0,))
        for idx in product(*[range(len(bs) + 1) for bs in breakpoints])
    }
    return from_cells(sig, 2, breakpoints, values)


class TestAsciiReference:
    @settings(max_examples=150, deadline=None)
    @given(planar_level_tables())
    def test_glyphs_match_the_sampling_loop(self, F):
        rows = render_ascii(F).splitlines()[1 : ASCII_HEIGHT + 1]
        expected = reference_ascii_rows(F, all_blocks(F).char_points())
        assert rows == ["|" + row + "|" for row in expected]


def _cli_render(tmp_path, x, *fmt):
    path = tmp_path / "x.json"
    path.write_text(observable_to_json(x))
    return main(["render", "--input", str(path), *fmt])


class TestHighLevels:
    def test_level_35_is_z(self):
        out = render_ascii(from_observable(saturating_family(35)))
        assert "T_35='z'" in out
        assert "z" in "".join(out.splitlines()[1 : ASCII_HEIGHT + 1])

    def test_level_36_needs_svg(self, tmp_path, capsys):
        x = saturating_family(36)
        with pytest.raises(RenderError, match="--format svg"):
            render_ascii(from_observable(x))
        assert _cli_render(tmp_path, x) == 2
        assert "--format svg" in capsys.readouterr().err
        assert _cli_render(tmp_path, x, "--format", "svg") == 0
        assert "T_36</text>" in capsys.readouterr().out


class TestFloatRange:
    def test_huge_coordinate(self, tmp_path, capsys):
        sig = AlgebraSignature(1, 1)
        x = make_observable(sig, 2, [((Q(10**400), Q(1)), sig.unit)])
        assert _cli_render(tmp_path, x, "--format", "svg") == 2
        assert "float range" in capsys.readouterr().err
        assert _cli_render(tmp_path, x) == 0
        assert f"x: [{10**400 - 1}, {10**400 + 1}]" in capsys.readouterr().out
