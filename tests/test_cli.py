from __future__ import annotations

import copy
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import find, given, settings, strategies as st

import lexspec
from lexspec.charpoints import all_blocks, format_ext_point
from lexspec.cli import build_parser, main
from lexspec.gallery import build_observable, example_names
from lexspec.observable import MAX_DIGITS, MAX_K, observable_from_doc, observable_to_json
from lexspec.spectral import MAX_DENSE_CELLS, from_observable, resolution_to_json
from lexspec.verify import mismatch_resolution, pathological_family, saturating_family

from oracles import closed_join_char_points, json_depth, orthant_blocks, shared_point_resolution


@pytest.fixture()
def ex1(tmp_path):
    path = tmp_path / "ex1.json"
    path.write_text(observable_to_json(build_observable("3.7/1")))
    return str(path)


@pytest.fixture()
def bad_resolution(tmp_path):
    path = tmp_path / "patho.json"
    path.write_text(resolution_to_json(pathological_family(4, 2)))
    return str(path)


@pytest.fixture()
def mismatch(tmp_path):
    path = tmp_path / "mismatch.json"
    path.write_text(resolution_to_json(mismatch_resolution()))
    return str(path)


class TestEval:
    def test_human(self, ex1, capsys):
        assert main(["eval", "--input", ex1, "--point", "4,4"]) == 0
        assert capsys.readouterr().out == "(2; 0)\n"

    def test_json(self, ex1, capsys):
        assert main(["eval", "--input", ex1, "--point", "5/2,5/2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == {"h": 1, "g": [3]}

    def test_bad_point(self, ex1, capsys):
        assert main(["eval", "--input", ex1, "--point", "a,b"]) == 2


class TestRegions:
    def test_human(self, ex1, capsys):
        assert main(["regions", "--input", ex1]) == 0
        out = capsys.readouterr().out
        assert "T_2 = (3,+inf)x(3,+inf)" in out

    def test_human_warns_on_axiom_failure(self, bad_resolution, capsys):
        assert main(["regions", "--input", bad_resolution]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\nwarning: resolution fails spectral conditions\n")

    def test_json_round_trips_regions(self, ex1, capsys):
        from lexspec.boxgeom import parse_region

        assert main(["regions", "--input", ex1, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for text in doc["levels"].values():
            parse_region(text, 2)


class TestCharpoints:
    def test_lists_points(self, ex1, capsys):
        assert main(["charpoints", "--input", ex1]) == 0
        out = capsys.readouterr().out
        assert "characteristic points (2): (2, 2), (3, 3)" in out

    def test_json(self, ex1, capsys):
        assert main(["charpoints", "--input", ex1, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["char_points"] == ["(2, 2)", "(3, 3)"]
        assert doc["bounds"]["ok"] is True


class TestColour:
    """Marks are painted only when the text goes to stdout on a terminal."""

    @pytest.mark.parametrize(
        "argv, word",
        [
            (["charpoints"], "ok"),
            (["axioms"], "pass"),
            (["verify", "--trials", "2"], "ok"),
            (["example", "3.7/7"], "ok"),
        ],
        ids=["charpoints", "axioms", "verify", "example"],
    )
    def test_out_file_is_plain(self, argv, word, ex1, tmp_path, capsys, monkeypatch):
        if argv[0] in ("charpoints", "axioms"):
            argv = [*argv, "--input", ex1]
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        monkeypatch.delenv("LEXSPEC_COLOR", raising=False)
        out = tmp_path / "out.txt"
        assert main([*argv, "--out", str(out)]) == 0
        text = out.read_text()
        assert "\x1b" not in text and f" {word}" in text
        assert main(argv) == 0
        assert f"\x1b[32m{word}\x1b[0m" in capsys.readouterr().out
        monkeypatch.setenv("LEXSPEC_COLOR", "0")
        assert main(argv) == 0
        assert "\x1b" not in capsys.readouterr().out


class TestAxioms:
    def test_pass(self, ex1, capsys):
        assert main(["axioms", "--input", ex1]) == 0

    def test_failure_sets_exit_code(self, bad_resolution, capsys):
        assert main(["axioms", "--input", bad_resolution]) == 1
        out = capsys.readouterr().out
        assert "volume_nonneg: FAIL" in out
        assert "witness" in out

    def test_failure_json(self, bad_resolution, capsys):
        assert main(["axioms", "--input", bad_resolution, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False


class TestReconstruct:
    def test_round_trip_atoms(self, tmp_path, capsys):
        # 3.7/7: every atom sits at an adjoined characteristic point
        path = tmp_path / "ex7.json"
        path.write_text(observable_to_json(build_observable("3.7/7")))
        assert main(["reconstruct", "--input", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert observable_from_doc(doc) == build_observable("3.7/7")

    def test_round_trip_text(self, tmp_path, capsys):
        path = tmp_path / "ex7.json"
        path.write_text(observable_to_json(build_observable("3.7/7")))
        assert main(["reconstruct", "--input", str(path)]) == 0
        assert capsys.readouterr().out == (
            "reconstructed atoms:\n"
            "  (1, 3) -> (1; 1)\n"
            "  (2, 2) -> (1; 2)\n"
            "  (3, 1) -> (1; -3)\n"
        )

    def test_chain_atoms_not_adjoined_reconstructible(self, ex1, capsys):
        # 3.7/1 stacks (2,2) below (3,3): only one block is adjoined
        assert main(["reconstruct", "--input", ex1, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["reconstructible"] is False and "sum to" in doc["reason"]

    def test_shared_char_point_exit_code(self, tmp_path, capsys):
        path = tmp_path / "shared.json"
        path.write_text(resolution_to_json(shared_point_resolution()))
        assert main(["reconstruct", "--input", str(path), "--json"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "reconstructible": False,
            "reason": "two adjoined blocks share a characteristic point",
        }

    def test_mismatch_exit_code(self, mismatch, capsys):
        assert main(["reconstruct", "--input", mismatch, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["reconstructible"] is False
        assert doc["witness_cell"] == "(1,3]x(2,3]"

    def test_not_reconstructible(self, bad_resolution, capsys):
        assert main(["reconstruct", "--input", bad_resolution]) == 1

    def test_mismatch_text(self, mismatch, capsys):
        assert main(["reconstruct", "--input", mismatch]) == 1
        assert capsys.readouterr().out == (
            "mismatch: cell (1,3]x(2,3] has value (0; 3) but the induced observable gives (0; 0)\n"
        )


class TestVerify:
    def test_small_run(self, capsys):
        assert main(["verify", "--seed", "3", "--trials", "5"]) == 0
        assert "axioms: 5 runs, 0 failures" in capsys.readouterr().out

    def test_json_deterministic(self, capsys):
        assert main(["verify", "--seed", "4", "--trials", "5", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--seed", "4", "--trials", "5", "--json"]) == 0
        assert capsys.readouterr().out == first


class TestRender:
    def test_ascii(self, ex1, capsys):
        assert main(["render", "--input", ex1]) == 0
        out = capsys.readouterr().out
        assert "*" in out and "levels:" in out

    def test_svg_deterministic(self, ex1, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["render", "--input", ex1, "--format", "svg", "--out", str(a)]) == 0
        assert main(["render", "--input", ex1, "--format", "svg", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith('<?xml version="1.0"')

    def test_svg_marks_all_char_points(self, tmp_path, capsys):
        path = tmp_path / "ex7.json"
        path.write_text(observable_to_json(build_observable("3.7/7")))
        assert main(["render", "--input", str(path), "--format", "svg"]) == 0
        assert capsys.readouterr().out.count("<circle") == 6

    def test_one_dimensional_input_rejected(self, tmp_path, capsys):
        from lexspec.lexalg import AlgebraSignature
        from lexspec.observable import make_observable

        sig = AlgebraSignature(1, 1)
        x = make_observable(sig, 1, [((1,), sig.unit)])
        path = tmp_path / "one.json"
        path.write_text(observable_to_json(x))
        assert main(["render", "--input", str(path)]) == 2

    def test_json_flag_is_a_usage_error(self, ex1, capsys):
        with pytest.raises(SystemExit) as info:
            main(["render", "--input", ex1, "--json"])
        assert info.value.code == 2
        assert "unrecognized arguments: --json" in capsys.readouterr().err


class TestExample:
    def test_case_seven(self, capsys):
        assert main(["example", "3.7/7"]) == 0
        out = capsys.readouterr().out
        assert "characteristic points (6):" in out
        assert "(1, 3), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)" in out

    def test_case_five_empty_level(self, capsys):
        assert main(["example", "3.7/5"]) == 0
        out = capsys.readouterr().out
        assert "T_1 = empty" in out
        assert "characteristic points (1): (2, 2)" in out

    def test_case_nine_prints_note_and_mismatch(self, capsys):
        assert main(["example", "3.7/9"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("note:")
        assert "reconstruction mismatch" in out

    def test_saturate(self, capsys):
        assert main(["example", "saturate/3"]) == 0
        assert "characteristic points (6):" in capsys.readouterr().out

    def test_patho_with_k_flag(self, capsys):
        assert main(["example", "patho/4", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "exceeded" in out

    def test_unknown_name(self, capsys):
        assert main(["example", "3.7/17"]) == 2

    def test_json_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["example", "3.7/7", "--json"])
        assert info.value.code == 2
        assert "unrecognized arguments: --json" in capsys.readouterr().err


def _transcript_argvs(tmp_path) -> list[list[str]]:
    """Every subcommand, in text and in JSON where it has both, over the
    gallery, the families, a document of unknown kind and a missing path."""
    docs = {f"3.7-{i}": observable_to_json(build_observable(f"3.7/{i}")) for i in range(1, 9)}
    docs |= {
        "saturate-3": observable_to_json(saturating_family(3)),
        "mismatch": resolution_to_json(mismatch_resolution()),
        "patho-4-2": resolution_to_json(pathological_family(4, 2)),
        "patho-5-3-chain": resolution_to_json(pathological_family(5, 3, "chain")),
        "nope": json.dumps({"kind": "nope"}),
    }
    for key, text in docs.items():
        (tmp_path / f"{key}.json").write_text(text)
    argvs = []
    for key in [*docs, "missing"]:
        path = str(tmp_path / f"{key}.json")
        for sub in ("regions", "charpoints", "axioms", "reconstruct"):
            argvs += [[sub, "--input", path], [sub, "--input", path, "--json"]]
        argvs += [["render", "--input", path], ["render", "--input", path, "--format", "svg"]]
        argvs += [["eval", "--input", path, f"--point={p}", *j]
                  for p, j in (("2,2", []), ("2,2", ["--json"]), ("2", []))]
    argvs += [["verify", "--seed", "1", "--trials", "5", *j] for j in ([], ["--json"])]
    names = [n for n in example_names() if n[-1].isdigit()]  # the fixed names
    argvs += [["example", n] for n in [*names, "saturate/4", "3.7/17"]]
    return argvs + [["example", "patho/5", "--k", "3"]]


class TestTranscript:
    """Exit code, stdout, stderr and ``--out`` bytes of every subcommand,
    hashed: a change to the CLI's plumbing must print the same bytes."""

    DIGEST = "6e8892a2c9d9dfbc695b5fe472b9fe11a4d0b36133507390156fba8b7f5ba8e6"

    def test_digest(self, tmp_path, capsys):
        argvs = _transcript_argvs(tmp_path)
        out = tmp_path / "out.txt"
        digest = hashlib.sha256()
        for argv in argvs:
            for full in (argv, [*argv, "--out", str(out)]):
                rc, stdout, stderr = _this_process(full, capsys)
                written = out.read_bytes() if out.exists() else None
                out.unlink(missing_ok=True)
                record = repr((full, rc, stdout, stderr, written))
                digest.update(record.replace(str(tmp_path), "TMP").encode())
        assert len(argvs) == 196
        assert digest.hexdigest() == self.DIGEST


class TestBigGridTranscript:
    """Exit code and output of the heavy analyses, hashed, on grids of 136 to
    528 blocks: the pathological tables of 24 and 32 atoms (mostly one-cell
    blocks), the saturating family of 24 and the examples built from them."""

    DIGEST = "5ce40f9107ec707fe1a6809ad5587301aa89923916695fbcd4ef908b11e7b1c1"

    def test_digest(self, tmp_path, capsys):
        docs = {
            "patho-32-5": resolution_to_json(pathological_family(32, 5)),
            "patho-24-4": resolution_to_json(pathological_family(24, 4)),
            "saturate-24": observable_to_json(saturating_family(24)),
        }
        argvs = []
        for key, text in docs.items():
            path = tmp_path / f"{key}.json"
            path.write_text(text)
            base = ["--input", str(path)]
            argvs += [["charpoints", *base], ["charpoints", *base, "--json"]]
            argvs += [[sub, *base, "--json"] for sub in ("regions", "axioms", "reconstruct")]
            argvs += [["render", *base], ["render", *base, "--format", "svg"]]
        argvs += [["example", "saturate/24"], ["example", "patho/24"]]
        digest = hashlib.sha256()
        for argv in argvs:
            record = repr((argv, *_this_process(argv, capsys)))
            digest.update(record.replace(str(tmp_path), "TMP").encode())
        assert digest.hexdigest() == self.DIGEST


def _fresh_python(args):
    """Exit code, stdout and stderr of ``python args`` in a new interpreter
    that imports this ``lexspec``."""
    paths = [str(Path(lexspec.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _fresh_process(argv):
    """Exit code, stdout and stderr of ``lexspec argv`` in a new interpreter."""
    return _fresh_python(["-m", "lexspec.cli", *argv])


class TestImportCost:
    def test_cli_import_loads_no_network_modules(self):
        # compared against the modules loaded before, as site may preload some
        code = ("import json, sys; before = set(sys.modules); import lexspec.cli; "
                "print(json.dumps(sorted(set(sys.modules) - before)))")
        rc, out, err = _fresh_python(["-c", code])
        assert rc == 0, err
        loaded = set(json.loads(out))
        assert "lexspec.render" in loaded
        assert not loaded & {"xml.sax", "urllib.request", "http.client", "ssl", "socket"}


def _this_process(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestParserReuse:
    """The parser is built once per process; no default or parse state may
    carry from one ``main`` call to the next."""

    @pytest.mark.parametrize(
        "first, first_rc, then",
        [
            (
                ["verify", "--trials", "2", "--k", "2", "--json"], 0,
                ["verify", "--trials", "2", "--json"],
            ),
            # --k 3, not 2: patho/M defaults to k = 2, which would hide a leaked value
            (["example", "patho/4", "--k", "3"], 0, ["example", "patho/4"]),
            (["verify", "--trials", "-1"], 2, ["verify", "--trials", "2", "--json"]),
        ],
        ids=["verify-k", "example-k", "usage-error"],
    )
    def test_later_call_matches_a_fresh_process(self, first, first_rc, then, capsys):
        assert build_parser() is build_parser()
        got_first = _this_process(first, capsys)
        got_then = _this_process(then, capsys)
        assert got_first[0] == first_rc and got_then[0] == 0
        assert got_first == _fresh_process(first)
        assert got_then == _fresh_process(then)


class TestLoadDocument:
    def test_kind_inference(self, tmp_path, capsys):
        doc = json.loads(observable_to_json(build_observable("3.7/1")))
        del doc["kind"]
        path = tmp_path / "nokind.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", "--input", str(path), "--point", "4,4"]) == 0
        assert capsys.readouterr().out == "(2; 0)\n"

    def test_huge_declared_grid_exit_code(self, tmp_path, capsys):
        doc = {
            "kind": "resolution", "k": 1, "d": 1, "n": 6,
            "breakpoints": [list(range(60))] * 6,
            "cells": [{"index": [0] * 6, "value": {"h": 0, "g": [0]}}],
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert main(["axioms", "--input", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "cell map mismatch" in capsys.readouterr().err

    def test_huge_dense_grid_exit_code(self, tmp_path, capsys):
        # axioms reads the 40 masses alone; eval needs the 41^6-cell table
        doc = {
            "kind": "observable", "k": 40, "d": 1, "n": 6,
            "atoms": [{"point": [i] * 6, "weight": {"h": 1, "g": [0]}} for i in range(40)],
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert main(["axioms", "--input", str(path)]) == 0
        assert time.perf_counter() - start < 1.0
        capsys.readouterr()
        start = time.perf_counter()
        assert main(["eval", "--input", str(path), "--point", "50,50,50,50,50,50"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "dense grid of 4750104241 cells" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["observable", "resolution"])
    def test_many_axes_refused_before_multiplying(self, tmp_path, capsys, kind):
        # every axis has at least two cells, so 20000 axes are refused on sight
        n = 20000
        doc = {"kind": kind, "k": 1, "d": 1, "n": n}
        if kind == "observable":
            doc["atoms"] = [{"point": [0] * n, "weight": {"h": 1, "g": [0]}}]
        else:
            doc["breakpoints"] = [[0]] * n
            doc["cells"] = [{"index": [0] * n, "value": {"h": 0, "g": [0]}}]
        path = tmp_path / "axes.json"
        path.write_text(json.dumps(doc))
        # an observable's axioms read its one mass; charpoints needs a table,
        # refused before its cells are listed
        command = "charpoints" if kind == "observable" else "axioms"
        start = time.perf_counter()
        assert main([command, "--input", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        if kind == "observable":
            assert f"dense grid of at least 2^{n} cells exceeds the limit" in err
            assert main(["axioms", "--input", str(path)]) == 0
        else:
            assert "cell map mismatch" in err

    @pytest.mark.parametrize("kind", ["observable", "resolution"])
    def test_non_integer_field_exit_code(self, tmp_path, capsys, kind):
        x = build_observable("3.7/1")
        if kind == "observable":
            doc = json.loads(observable_to_json(x))
            doc["atoms"][1]["weight"]["h"] = 1.7
        else:
            doc = json.loads(resolution_to_json(from_observable(x)))
            doc["cells"][-1]["index"] = [3.0, 3]
        doc["k"] = "2"
        path = tmp_path / "strict.json"
        path.write_text(json.dumps(doc))
        assert main(["axioms", "--input", str(path)]) == 2
        assert f"bad {kind} document" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert main(["eval", "--input", str(path), "--point", "0,0"]) == 2

    def test_missing_file(self):
        assert main(["eval", "--input", "/nonexistent.json", "--point", "0,0"]) == 2

    def test_resolution_document_accepted(self, tmp_path, capsys):
        F = from_observable(build_observable("3.7/1"))
        path = tmp_path / "res.json"
        path.write_text(resolution_to_json(F))
        assert main(["eval", "--input", str(path), "--point", "4,4"]) == 0
        assert capsys.readouterr().out == "(2; 0)\n"


# One unit atom at (1, 2): its resolution has the breakpoints [[1], [2]], so
# reading a string one character at a time used to give a valid document.
_UNIT_ATOM = {
    "kind": "observable", "k": 1, "d": 1, "n": 2,
    "atoms": [{"point": [1, 2], "weight": {"h": 1, "g": [0]}}],
}
_STRING_FOR_ARRAY = {
    "breakpoints": ("resolution", lambda doc: doc.update(breakpoints="12")),
    "axis": ("resolution", lambda doc: doc["breakpoints"].__setitem__(1, "2")),
    "cells": ("resolution", lambda doc: doc.update(cells=json.dumps(doc["cells"]))),
    "index": ("resolution", lambda doc: doc["cells"][0].update(index="00")),
    "cell-g": ("resolution", lambda doc: doc["cells"][0]["value"].update(g="0")),
    "atoms": ("observable", lambda doc: doc.update(atoms=json.dumps(doc["atoms"]))),
    "point": ("observable", lambda doc: doc["atoms"][0].update(point="12")),
    "weight-g": ("observable", lambda doc: doc["atoms"][0]["weight"].update(g="0")),
}


def _over_cap_doc() -> dict:
    """40 atoms in R^6 (a dense grid of 41^6 cells), three of them of
    positive height, so the height grid has at most 5 breakpoints per axis."""
    weights = {5: (1, -37), 17: (1, 0), 30: (1, 0)}
    atoms = [
        {"point": [i * (j + 3) % 41 for j in range(6)],
         "weight": {"h": weights.get(i, (0, 1))[0], "g": [weights.get(i, (0, 1))[1]]}}
        for i in range(40)
    ]
    return {"kind": "observable", "k": 3, "d": 1, "n": 6, "atoms": atoms}


class TestOverCapObservable:
    """The cap bounds the tables an analysis builds, not the dense grid of
    the atoms: the masses and the height grid fit, the dense table does not."""

    @pytest.fixture()
    def path(self, tmp_path):
        path = tmp_path / "r6.json"
        path.write_text(json.dumps(_over_cap_doc()))
        return str(path)

    @pytest.mark.parametrize("command", [["axioms"], ["charpoints", "--json"], ["regions"]])
    def test_analysis_runs(self, path, capsys, command):
        start = time.perf_counter()
        assert main([command[0], "--input", path, *command[1:]]) == 0
        assert time.perf_counter() - start < 1.0

    def test_char_points_are_the_closed_joins(self, path, capsys):
        assert main(["charpoints", "--input", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        x = observable_from_doc(_over_cap_doc())
        points = sorted(closed_join_char_points(x))
        assert doc["char_points"] == [format_ext_point(p) for p in points]
        assert doc["counts"] == {"1": 3, "2": 3, "3": 1} and doc["bounds"]["ok"]

    def test_blocks_are_the_orthant_blocks(self):
        x = observable_from_doc(_over_cap_doc())
        blocks = all_blocks(from_observable(x)).all_blocks()
        assert {b.char_point: (b.level, b.infimum) for b in blocks} == orthant_blocks(x)
        assert len(blocks) == 7

    def test_dense_table_refused(self, path, capsys):
        assert main(["eval", "--input", path, "--point=50,50,50,50,50,50"]) == 2
        assert f"exceeds the limit of {MAX_DENSE_CELLS}" in capsys.readouterr().err


class TestStringForArray:
    """Every array field of a document refuses a string in its place."""

    @pytest.mark.parametrize("field", list(_STRING_FOR_ARRAY))
    def test_string_exits_two(self, tmp_path, capsys, field):
        kind, edit = _STRING_FOR_ARRAY[field]
        doc = copy.deepcopy(_UNIT_ATOM)
        if kind == "resolution":
            doc = json.loads(resolution_to_json(from_observable(observable_from_doc(doc))))
            assert doc["breakpoints"] == [[1], [2]]
        path = tmp_path / "doc.json"
        argv = ["eval", "--input", str(path), "--point", "2,3"]
        path.write_text(json.dumps(doc))
        assert main(argv) == 0
        capsys.readouterr()
        edit(doc)
        path.write_text(json.dumps(doc))
        assert main(argv) == 2
        assert f"bad {kind} document" in capsys.readouterr().err


def _exit_code(argv) -> int:
    """``main``'s return value, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestInputErrorsExitTwo:
    @pytest.mark.parametrize("text", ["[1,2]", "null", "3", '"observable"'])
    def test_non_object_document(self, tmp_path, capsys, text):
        path = tmp_path / "root.json"
        path.write_text(text)
        assert main(["axioms", "--input", str(path)]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

    def test_non_utf8_document(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"kind": "observable", "note": "\xe9"}')
        assert main(["axioms", "--input", str(path)]) == 2
        assert "utf-8" in capsys.readouterr().err

    def test_oversized_integer_literal(self, tmp_path):
        path = tmp_path / "digits.json"
        path.write_text('{"k": ' + "9" * 5000 + "}")
        assert main(["axioms", "--input", str(path)]) == 2

    def test_deeply_nested_document(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["axioms", "--input", str(path)]) == 2

    def test_observable_without_atoms(self, tmp_path, capsys):
        # the unit of a huge declared d is never built
        path = tmp_path / "empty.json"
        doc = {"kind": "observable", "k": 1, "d": 10**12, "n": 1, "atoms": []}
        path.write_text(json.dumps(doc))
        assert main(["axioms", "--input", str(path)]) == 2
        assert "at least one atom" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--trials", "-1"],
            ["verify", "--k", "0"],
            ["example", "patho/4", "--k", "0"],
        ],
    )
    def test_out_of_range_options(self, capsys, argv):
        assert _exit_code(argv) == 2
        assert "must be >= " in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["patho/0", "saturate/0", "patho/-3", "saturate/x"])
    def test_bad_family_parameter(self, capsys, name):
        assert main(["example", name]) == 2
        assert "parameter" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["patho/1024", "patho/1000000000", "saturate/1000000000"])
    def test_oversized_family_refused_before_building(self, capsys, name):
        start = time.perf_counter()
        assert main(["example", name]) == 2
        assert time.perf_counter() - start < 1.0
        assert f"exceeds the limit of {MAX_DENSE_CELLS}" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["coordinate", "breakpoint", "point"])
    def test_exponent_notation_refused_at_once(self, tmp_path, capsys, where):
        # Fraction("1e10000000") would build the power of ten, for seconds
        huge = "1e10000000"
        x = build_observable("3.7/1")
        if where == "coordinate":
            doc = json.loads(observable_to_json(x))
            doc["atoms"][0]["point"][0] = huge
        else:
            doc = json.loads(resolution_to_json(from_observable(x)))
            if where == "breakpoint":
                doc["breakpoints"][0][-1] = huge
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps(doc))
        point = f"{huge},1" if where == "point" else "1,1"
        start = time.perf_counter()
        assert main(["eval", "--input", str(path), "--point", point]) == 2
        assert time.perf_counter() - start < 1.0
        assert "exponent notation" in capsys.readouterr().err


def _malformed_docs():
    """Inputs that each break one rule of the document format or of a point:
    the document, the argv that reads it and the message it exits 2 with."""
    cell = lambda idx, h, g=(0,): {"index": idx, "value": {"h": h, "g": list(g)}}
    res = lambda n, bps, cells: {"kind": "resolution", "k": 1, "d": 1, "n": n,
                                 "breakpoints": bps, "cells": cells}
    obs = lambda k, point, weight: {"kind": "observable", "k": k, "d": 1, "n": 2,
                                    "atoms": [{"point": point, "weight": weight}]}
    line = lambda top: res(1, [[0]], [cell([0], 0), top])  # a bad cell above a good one
    plane = lambda last: res(2, [[0], [0]],
                             [cell([0, 0], 0), cell([0, 1], 0), cell([1, 0], 0), last])
    atoms = lambda *items: {"kind": "observable", "k": 1, "d": 1, "n": 2, "atoms": list(items)}
    ex1 = json.loads(observable_to_json(build_observable("3.7/1")))
    return {
        "eval_point_dimension": (ex1, ["eval", "--point", "1,2,3"],
                                 "point dimension 3, grid has 2"),
        "resolution_n0": (res(0, [], [cell([], 1)]), ["charpoints"],
                          "dimension must be >= 1, got 0"),
        "resolution_missing_axis": (res(2, [[0]], [cell([0], 0), cell([1], 1)]), ["charpoints"],
                                    "1 breakpoint axes for dimension 2"),
        "resolution_empty_axis": (res(1, [[]], [cell([0], 1)]), ["charpoints"],
                                  "axis 0 needs at least one breakpoint"),
        "atom_dimension": (obs(1, [1, 2, 3], {"h": 1, "g": [0]}), ["charpoints"],
                           "has dimension 3, expected 2"),
        "weight_components": (obs(1, [1, 2], {"h": 1, "g": [0, 0]}), ["charpoints"],
                              "bad element document: {'h': 1, 'g': [0, 0]}"),
        "k0": (obs(0, [1, 2], {"h": 0, "g": [0]}), ["charpoints"], "k must be >= 1, got 0"),
        # every atom-weight message, as one decoding path words it
        "weight_h_bool": (obs(1, [1, 2], {"h": True, "g": [0]}), ["charpoints"],
                          "bad element document: {'h': True, 'g': [0]}"),
        "weight_h_float": (obs(1, [1, 2], {"h": 1.0, "g": [0]}), ["charpoints"],
                           "bad element document: {'h': 1.0, 'g': [0]}"),
        "weight_h_str": (obs(1, [1, 2], {"h": "1", "g": [0]}), ["charpoints"],
                         "bad element document: {'h': '1', 'g': [0]}"),
        "weight_component_str": (obs(1, [1, 2], {"h": 1, "g": ["0"]}), ["charpoints"],
                                 "bad element document: {'h': 1, 'g': ['0']}"),
        "weight_g_not_list": (obs(1, [1, 2], {"h": 1, "g": "0"}), ["charpoints"],
                              "bad element document: {'h': 1, 'g': '0'}"),
        # an atom or a cell that is no object, or lacks a key, is named
        "atom_not_object": (atoms(5), ["charpoints"], "bad observable document: atom 0 is not "
                                                      "an object: 5"),
        "atom_no_weight": (atoms({"point": [1, 2]}), ["charpoints"],
                           "bad observable document: atom 0 has no 'weight'"),
        # atoms are decoded in order, so the first atom's fault is the one named
        "first_atom_weight_then_no_point": (
            atoms({"point": [1, 2], "weight": {"h": "x", "g": [0]}}, {"weight": {"h": 1, "g": [0]}}),
            ["charpoints"], "bad observable document: bad element document: {'h': 'x', 'g': [0]}"),
        "first_atom_no_point_then_weight": (
            atoms({"weight": {"h": 1, "g": [0]}}, {"point": [2, 1], "weight": {"h": "x", "g": [0]}}),
            ["charpoints"], "bad observable document: atom 0 has no 'point'"),
        "second_atom_no_weight": (
            atoms({"point": [1, 2], "weight": {"h": 1, "g": [0]}}, {"point": [2, 1]}),
            ["charpoints"], "bad observable document: atom 1 has no 'weight'"),
        "cell_not_object": (line("x"), ["charpoints"],
                            "bad resolution document: cell 1 is not an object: 'x'"),
        "cell_no_index": (line({"value": {"h": 1, "g": [0]}}), ["charpoints"],
                          "bad resolution document: cell 1 has no 'index'"),
        # every table-cell message, as the cell-by-cell pass words it
        "index_bool": (line(cell([True], 1)), ["charpoints"],
                       "bad resolution document: not an integer: True"),
        "index_float": (line(cell([1.0], 1)), ["charpoints"],
                        "bad resolution document: not an integer: 1.0"),
        "index_negative": (line(cell([-1], 1)), ["charpoints"],
                           "cell map mismatch: missing 1 cells [(1,)], extra 1 [(-1,)]"),
        "index_out_of_shape": (plane(cell([1, 2], 1)), ["charpoints"],
                               "cell map mismatch: missing 1 cells [(1, 1)], extra 1 [(1, 2)]"),
        "index_length": (line(cell([1, 0], 1)), ["charpoints"],
                         "cell map mismatch: missing 1 cells [(1,)], extra 1 [(1, 0)]"),
        "component_float": (line(cell([1], 1.0)), ["charpoints"],
                            "bad element document: {'h': 1.0, 'g': [0]}"),
        "component_bool": (line(cell([1], 1, [False])), ["charpoints"],
                           "bad element document: {'h': 1, 'g': [False]}"),
        "component_str": (line(cell([1], 1, ["0"])), ["charpoints"],
                          "bad element document: {'h': 1, 'g': ['0']}"),
        "g_length": (line(cell([1], 1, [0, 0])), ["charpoints"],
                     "bad element document: {'h': 1, 'g': [0, 0]}"),
        "component_digits": (line(cell([1], 1, [-10 ** 4000])), ["charpoints"],
                             "an element component has more than 4000 digits"),
        "h_negative": (line(cell([1], -1, [5])), ["charpoints"],
                       "cell (1,) value (-1; 5) lies outside [0, u]"),
        "h_above_k": (line(cell([1], 2)), ["charpoints"],
                      "cell (1,) value (2; 0) lies outside [0, u]"),
        "h_k_positive_g": (line(cell([1], 1, [1])), ["charpoints"],
                           "cell (1,) value (1; 1) lies outside [0, u]"),
        "h_0_negative_g": (res(1, [[0]], [cell([0], 0, [-1]), cell([1], 1)]), ["charpoints"],
                           "cell (0,) value (0; -1) lies outside [0, u]"),
    }


class TestMalformedDocumentsExitTwo:
    @pytest.mark.parametrize("case", sorted(_malformed_docs()))
    def test_exits_two_with_its_message(self, tmp_path, capsys, case):
        doc, argv, message = _malformed_docs()[case]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main([argv[0], "--input", str(path), *argv[1:]]) == 2
        assert message in capsys.readouterr().err


class TestRepeatedCellIndex:
    """A resolution document listing one cell index twice is refused, rather
    than read with whichever entry comes last."""

    @pytest.mark.parametrize("argv", [["eval", "--point", "1"], ["axioms"]])
    @pytest.mark.parametrize("last", [(1, 0), (0, 5)])
    def test_exits_two(self, tmp_path, capsys, argv, last):
        first = (0, 5) if last == (1, 0) else (1, 0)
        cells = [{"index": [r], "value": {"h": h, "g": [g]}}
                 for r, (h, g) in [(0, (0, 0)), (1, first), (1, last)]]
        doc = {"kind": "resolution", "k": 1, "d": 1, "n": 1, "breakpoints": [[0]],
               "cells": cells}
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(doc))
        assert main([argv[0], "--input", str(path), *argv[1:]]) == 2
        assert "a cell index is listed twice" in capsys.readouterr().err


class TestRationalSpelling:
    """Coordinates read by one ASCII grammar, whatever ``Fraction`` accepts on
    the running Python."""

    @staticmethod
    def _doc(tmp_path, coordinate) -> str:
        doc = json.loads(observable_to_json(build_observable("3.7/1")))
        doc["atoms"][0]["point"][0] = coordinate
        path = tmp_path / "spelling.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("text", ["1_000", "1_0/2_0", "\u0661\u0662", "1 / 2"])
    def test_refused(self, tmp_path, ex1, capsys, text):
        assert main(["eval", "--input", self._doc(tmp_path, text), "--point", "1,1"]) == 2
        assert main(["eval", "--input", ex1, f"--point={text},1"]) == 2
        assert capsys.readouterr().err.count("cannot parse rational") == 2

    @pytest.mark.parametrize("text", ["+5", ".5", "5.", " 3 ", "-7/3"])
    def test_accepted(self, tmp_path, ex1, text):
        assert main(["eval", "--input", self._doc(tmp_path, text), "--point", "1,1"]) == 0
        assert main(["eval", "--input", ex1, f"--point={text},1"]) == 0


class TestNegativePoint:
    """argparse reads a value that starts with "-" as an option unless it is
    one plain number, so a point whose first coordinate is negative is
    written ``--point=-7,1``; the help text says so."""

    @staticmethod
    def _doc(tmp_path) -> str:
        sig = {"k": 1, "d": 1, "n": 2}
        atoms = [{"point": [-8, 0], "weight": {"h": 1, "g": [-1]}},
                 {"point": ["-13/2", 5], "weight": {"h": 0, "g": [1]}}]
        path = tmp_path / "negative.json"
        path.write_text(json.dumps({"kind": "observable", **sig, "atoms": atoms}))
        return str(path)

    def test_equals_form(self, tmp_path, capsys):
        assert main(["eval", "--input", self._doc(tmp_path), "--point=-7,1"]) == 0
        assert capsys.readouterr().out == "(1; -1)\n"
        assert main(["eval", "--input", self._doc(tmp_path), "--point=-13/4,6"]) == 0
        assert capsys.readouterr().out == "(1; 0)\n"

    def test_bare_form_exits_two(self, tmp_path, capsys):
        assert _exit_code(["eval", "--input", self._doc(tmp_path), "--point", "-7,1"]) == 2
        assert "--point: expected one argument" in capsys.readouterr().err

    def test_help_names_the_equals_form(self, capsys):
        assert _exit_code(["eval", "--help"]) == 0
        assert "--point=-7,1" in capsys.readouterr().out


class TestDuplicateSpellings:
    """One point spelled three ways is one point: the adjacent-key check in
    ``make_observable`` sees equal values, whatever their text."""

    def test_exits_two(self, tmp_path, capsys):
        spellings = [["1/2", 0], [3, 0], ["0.5", 0], [-1, 2], ["2/4", 0]]
        weights = [{"h": 0, "g": [1]}] * 4 + [{"h": 1, "g": [-4]}]
        atoms = [{"point": p, "weight": w} for p, w in zip(spellings, weights)]
        path = tmp_path / "spellings.json"
        path.write_text(json.dumps({"kind": "observable", "k": 1, "d": 1, "n": 2, "atoms": atoms}))
        assert main(["eval", "--input", str(path), "--point", "1,1"]) == 2
        assert "pairwise distinct" in capsys.readouterr().err


def _long_coordinate_doc(kind: str, number) -> dict:
    """An observable with ``number`` as a coordinate, or a two-cell resolution
    with ``number`` as its breakpoint and a negative top mass, whose volume
    witness prints one past the breakpoint."""
    if kind == "observable":
        return {"kind": kind, "k": 1, "d": 1, "n": 2,
                "atoms": [{"point": [number, 0], "weight": {"h": 1, "g": [0]}}]}
    cells = [{"index": [r], "value": {"h": 1 - r, "g": [0]}} for r in (0, 1)]
    return {"kind": kind, "k": 1, "d": 1, "n": 1, "breakpoints": [[number]], "cells": cells}


class TestCoordinateDigits:
    """A coordinate is printed one unit past itself (the render frame, a top
    cell's representative point), so one too long to print after a step of
    one is refused where it enters."""

    @pytest.mark.parametrize("number", ["9" * 4300, 10**4300 - 1, 10**MAX_DIGITS,
                                        "1/" + "7" * 4001, "0." + "0" * 4000 + "1"],
                             ids=["string", "integer", "bound", "denominator", "decimal"])
    @pytest.mark.parametrize("kind, argv", [("observable", ["render"]),
                                            ("resolution", ["axioms"]),
                                            ("resolution", ["charpoints", "--json"])],
                             ids=["render", "axioms", "charpoints"])
    def test_refused(self, tmp_path, capsys, number, kind, argv):
        path = tmp_path / "digits.json"
        path.write_text(json.dumps(_long_coordinate_doc(kind, number)))
        start = time.perf_counter()
        assert main([argv[0], "--input", str(path), *argv[1:]]) == 2
        assert time.perf_counter() - start < 1.0
        assert f"a coordinate has more than {MAX_DIGITS} digits" in capsys.readouterr().err

    @pytest.mark.parametrize("number", [10**MAX_DIGITS - 1, "-" + "9" * MAX_DIGITS,
                                        "1/" + "9" * MAX_DIGITS],
                             ids=["integer", "negative", "denominator"])
    def test_the_bound_itself_is_accepted(self, tmp_path, capsys, number):
        path = tmp_path / "digits.json"
        path.write_text(json.dumps(_long_coordinate_doc("observable", number)))
        assert main(["render", "--input", str(path)]) == 0
        path.write_text(json.dumps(_long_coordinate_doc("resolution", number)))
        assert main(["axioms", "--input", str(path)]) == 1
        assert "volume_nonneg: FAIL" in capsys.readouterr().out


def _component_doc(A: int) -> dict:
    """k = 2 in R^1: weights (0; A), (0; A), (1; -A), (1; -A) at 0, 1, 2, 3,
    so F is (0; 2A) on (1, 2]."""
    weights = [(0, A), (0, A), (1, -A), (1, -A)]
    return {"kind": "observable", "k": 2, "d": 1, "n": 1,
            "atoms": [{"point": [i], "weight": {"h": h, "g": [g]}}
                      for i, (h, g) in enumerate(weights)]}


class TestElementDigits:
    """A cell value sums masses, so an element component too long to print
    after a sum is refused where it enters."""

    def test_refused(self, tmp_path, capsys):
        path = tmp_path / "digits.json"
        path.write_text(json.dumps(_component_doc(10**4300 - 1)))
        assert main(["eval", "--input", str(path), "--point", "3/2"]) == 2
        assert f"an element component has more than {MAX_DIGITS} digits" in capsys.readouterr().err
        doc = json.loads(resolution_to_json(from_observable(build_observable("3.7/1"))))
        doc["cells"][0]["value"]["g"] = [10**MAX_DIGITS]
        path.write_text(json.dumps(doc))
        assert main(["axioms", "--input", str(path)]) == 2
        assert f"an element component has more than {MAX_DIGITS} digits" in capsys.readouterr().err

    def test_the_bound_itself_is_accepted(self, tmp_path, capsys):
        A = 10**MAX_DIGITS - 1
        path = tmp_path / "digits.json"
        path.write_text(json.dumps(_component_doc(A)))
        assert main(["eval", "--input", str(path), "--point", "3/2"]) == 0
        assert capsys.readouterr().out == f"(0; {2 * A})\n"


class TestCellMapMessage:
    def test_many_axes_message_is_short(self, tmp_path, capsys):
        n = 200_000
        doc = {"kind": "resolution", "k": 1, "d": 1, "n": n, "breakpoints": [[0]] * n,
               "cells": [{"index": [0] * n, "value": {"h": 0, "g": [0]}}]}
        path = tmp_path / "axes.json"
        path.write_text(json.dumps(doc))
        assert main(["axioms", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err) < 1024
        assert f"cell map mismatch: missing at least 2^{n} - 1 cells [(0, 0, 0, 0, 0, 0, ...)" in err

    def test_counts_of_missing_and_extra_cells(self, tmp_path, capsys):
        cells = [{"index": [r], "value": {"h": 0, "g": [0]}} for r in (0, 1, 7, 8, 9, 10)]
        doc = {"kind": "resolution", "k": 1, "d": 1, "n": 1,
               "breakpoints": [[0, 1, 2, 3, 4]], "cells": cells}
        path = tmp_path / "cells.json"
        path.write_text(json.dumps(doc))
        assert main(["axioms", "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: cell map mismatch: missing 4 cells [(2,), (3,), (4,)], "
            "extra 4 [(7,), (8,), (9,)]\n"
        )


_VALID_DOCS = (
    json.loads(observable_to_json(build_observable("3.7/1"))),
    json.loads(resolution_to_json(from_observable(build_observable("3.7/7")))),
    json.loads(resolution_to_json(pathological_family(3, 2))),
)
_FUZZED_COMMANDS = (
    ["axioms"], ["regions"], ["charpoints"], ["reconstruct"], ["render"],
    ["eval", "--point", "5/2,5/2"],
)

def _json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-50, 50) | st.floats(-1e3, 1e3) | st.text(max_size=6),
    _json_containers,
    max_leaves=6,
)


def _two_cell_doc(kind: str, k: int) -> dict:
    """The smallest document of ``kind`` with unit height ``k``."""
    if kind == "observable":
        return {"kind": kind, "k": k, "d": 1, "n": 1,
                "atoms": [{"point": [0], "weight": {"h": k, "g": [0]}}]}
    cells = [{"index": [r], "value": {"h": k * r, "g": [0]}} for r in (0, 1)]
    return {"kind": kind, "k": k, "d": 1, "n": 1, "breakpoints": [[0]], "cells": cells}


class TestUnitHeightCap:
    """Level tables and bounds have one entry per level, so a huge k in a tiny
    input is refused where it enters, before anything is allocated."""

    @pytest.mark.parametrize("kind", ["observable", "resolution"])
    @pytest.mark.parametrize("sub", [["charpoints", "--json"], ["regions", "--json"], ["axioms"]])
    def test_huge_k_in_a_document(self, tmp_path, capsys, kind, sub):
        path = tmp_path / "huge_k.json"
        path.write_text(json.dumps(_two_cell_doc(kind, 10**9)))
        start = time.perf_counter()
        assert main([sub[0], "--input", str(path), *sub[1:]]) == 2
        assert time.perf_counter() - start < 1.0
        assert f"k = {10**9} exceeds the limit of {MAX_K}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["example", "patho/3"], ["verify", "--trials", "1"]])
    def test_huge_k_option(self, capsys, argv):
        start = time.perf_counter()
        assert _exit_code([*argv, "--k", str(10**9)]) == 2
        assert time.perf_counter() - start < 1.0
        assert f"must be <= {MAX_K}, got {10**9}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["observable", "resolution"])
    def test_the_cap_itself_is_accepted(self, tmp_path, capsys, kind):
        path = tmp_path / "cap_k.json"
        path.write_text(json.dumps(_two_cell_doc(kind, MAX_K)))
        assert main(["charpoints", "--input", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k"] == MAX_K and len(doc["bounds"]["per_level"]) == MAX_K
        assert main(["example", "patho/2", "--k", str(MAX_K)]) == 0


def _mutate(draw, doc) -> None:
    """Drop or retype one entry at a random depth of ``doc``."""
    node = doc
    while True:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        if draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(_json_values)
        return


@st.composite
def damaged_documents(draw) -> bytes:
    """Valid observable and resolution documents with keys dropped or values
    retyped, non-object roots, and raw bytes."""
    form = draw(st.sampled_from(["mutated", "root", "bytes"]))
    if form == "bytes":
        return draw(st.binary(max_size=80))
    if form == "root":
        return json.dumps(draw(_json_values.filter(lambda v: not isinstance(v, dict)))).encode()
    doc = copy.deepcopy(draw(st.sampled_from(_VALID_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        if doc:
            _mutate(draw, doc)
    return json.dumps(doc).encode()


_exponent_strings = st.from_regex(
    r"[-+]?(\d{1,3}(\.\d{0,2})?|\.\d{1,2})[eE][-+]?\d{1,8}", fullmatch=True
)


@st.composite
def exponent_documents(draw) -> bytes:
    """Valid documents with one atom coordinate or breakpoint in exponent notation."""
    doc = copy.deepcopy(draw(st.sampled_from(_VALID_DOCS)))
    if "atoms" in doc:
        axis = doc["atoms"][draw(st.integers(0, len(doc["atoms"]) - 1))]["point"]
    else:
        axis = doc["breakpoints"][draw(st.integers(0, len(doc["breakpoints"]) - 1))]
    axis[draw(st.integers(0, len(axis) - 1))] = draw(_exponent_strings)
    return json.dumps(doc).encode()


class TestCliFuzz:
    def test_values_nest(self):
        find(_json_values, lambda v: json_depth(v) >= 2)  # raises NoSuchExample if none does

    @settings(max_examples=150, deadline=None)
    @given(damaged_documents())
    def test_damaged_input_never_escapes(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            path.write_bytes(data)
            out = str(Path(tmp) / "out.txt")
            for command in _FUZZED_COMMANDS:
                argv = [command[0], "--input", str(path), *command[1:], "--out", out]
                assert main(argv) in (0, 1, 2)

    @settings(max_examples=60, deadline=None)
    @given(exponent_documents())
    def test_exponent_notation_exits_two_at_once(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            path.write_bytes(data)
            out = str(Path(tmp) / "out.txt")
            for command in _FUZZED_COMMANDS:
                argv = [command[0], "--input", str(path), *command[1:], "--out", out]
                start = time.perf_counter()
                assert main(argv) == 2
                assert time.perf_counter() - start < 1.0
