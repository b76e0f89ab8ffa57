from __future__ import annotations

import json
import time

import pytest

from lexspec.cli import main
from lexspec.gallery import build_observable
from lexspec.observable import observable_from_doc, observable_to_json
from lexspec.spectral import from_observable, resolution_to_json
from lexspec.verify import mismatch_resolution, pathological_family


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

    def test_chain_atoms_not_adjoined_reconstructible(self, ex1, capsys):
        # 3.7/1 stacks (2,2) below (3,3): only one block is adjoined
        assert main(["reconstruct", "--input", ex1, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["reconstructible"] is False and "sum to" in doc["reason"]

    def test_mismatch_exit_code(self, mismatch, capsys):
        assert main(["reconstruct", "--input", mismatch, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["reconstructible"] is False
        assert doc["witness_cell"] == "(1,3]x(2,3]"

    def test_not_reconstructible(self, bad_resolution, capsys):
        assert main(["reconstruct", "--input", bad_resolution]) == 1


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
