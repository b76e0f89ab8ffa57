"""Command-line front end.

One input format across subcommands: the observable / resolution JSON
documents of this package, told apart by their "kind" field.  Exit codes:
0 success, 1 a check failed (axioms, bounds, reconstruction, suite), 2 usage
or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from pathlib import Path

from .boxgeom import GeometryError, cell_ends, parse_point
from .charpoints import (
    MismatchReport,
    ReconstructionError,
    _level_texts,
    all_blocks,
    bounds_check,
    level_regions,
    format_ext_point,
    reconstruct,
)
from .gallery import UnknownExampleError, build_example, example_names
from .lexalg import AlgebraError, format_element
from .observable import (
    MAX_K,
    DiscreteObservable,
    ObservableError,
    json_text,
    observable_from_doc,
    observable_to_doc,
)
from .render import RenderError, render_ascii, render_svg
from .spectral import (
    ResolutionError,
    StepResolution,
    check_axioms,
    eval_F,
    from_observable,
    resolution_from_doc,
)
from .verify import TrialConfig, run_suite

_INPUT_ERRORS = (
    AlgebraError,
    GeometryError,
    ObservableError,
    ResolutionError,
    UnknownExampleError,
    RenderError,
    OSError,
)


def _paint(args, text: str, code: str) -> str:
    """``text`` in colour when :func:`_emit` writes it to a terminal's stdout."""
    if getattr(args, "out", None) or os.environ.get("LEXSPEC_COLOR") == "0":
        return text
    return f"\x1b[{code}m{text}\x1b[0m" if sys.stdout.isatty() else text


def _ok(args, text: str) -> str:
    return _paint(args, text, "32")


def _bad(args, text: str) -> str:
    return _paint(args, text, "31")


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_doc(args, doc: dict) -> None:
    _emit(args, json_text(doc) + "\n")


def load_document(path: str) -> tuple[str, DiscreteObservable | StepResolution]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, huge ints, deep nesting
        raise ObservableError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ObservableError(f"{path}: the document must be a JSON object")
    kind = doc.get("kind")
    if kind is None:
        kind = "observable" if "atoms" in doc else "resolution"
    if kind == "observable":
        return "observable", observable_from_doc(doc)
    if kind == "resolution":
        return "resolution", resolution_from_doc(doc)
    raise ObservableError(f"unknown document kind {kind!r}")


def _load_resolution(path: str) -> StepResolution:
    kind, obj = load_document(path)
    return from_observable(obj) if kind == "observable" else obj


def cmd_eval(args) -> int:
    F = _load_resolution(args.input)
    point = parse_point(args.point)
    value = eval_F(F, point)
    if args.json:
        _emit_doc(args, {"point": args.point, "value": {"h": value.h, "g": list(value.g)}})
    else:
        _emit(args, format_element(value) + "\n")
    return 0


def cmd_regions(args) -> int:
    F = _load_resolution(args.input)
    decomp = level_regions(F)
    if args.json:
        _emit_doc(args, decomp.to_doc())
    else:
        lines = [f"T_{i} = {t}" for i, t in sorted(decomp.texts.items())]
        if decomp.pathological:
            lines.append("warning: resolution fails spectral conditions")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_charpoints(args) -> int:
    F = _load_resolution(args.input)
    report = all_blocks(F)
    if args.json:
        _emit_doc(args, report.to_doc() | {"bounds": bounds_check(report).to_doc()})
    else:
        _emit(args, _describe_blocks(args, report))
    return 0


def _describe_blocks(args, report) -> str:
    lines = []
    ends = cell_ends(report.breakpoints)
    for b in report.all_blocks():
        doc = b.to_doc(ends)
        char = "(" + ", ".join(c or "-inf" for c in doc["char_point"]) + ")"
        adj = "T0-adjoined" if b.t0_adjoined else "not adjoined"
        lines.append(
            f"level {b.level}  char {char}  region {doc['region']}  infimum {doc['infimum']}  "
            + adj + (f"  flags: {', '.join(b.flags)}" if b.flags else "")
        )
    pts = report.char_points()
    lines.append(
        f"characteristic points ({len(pts)}): "
        + ", ".join(format_ext_point(p) for p in pts)
    )
    bc = bounds_check(report)
    for entry in bc.to_doc()["per_level"]:
        lines.append(
            f"bound level {entry['level']}: {entry['count']} <= {entry['limit']} "
            + (_ok(args, "ok") if entry["count"] <= entry["limit"] else _bad(args, "exceeded"))
        )
    lines.append(
        f"bound total: {bc.total} <= {bc.total_limit} "
        + (_ok(args, "ok") if bc.total <= bc.total_limit else _bad(args, "exceeded"))
    )
    return "\n".join(lines) + "\n"


def cmd_axioms(args) -> int:
    F = _load_resolution(args.input)
    report = check_axioms(F)
    if args.json:
        _emit_doc(args, {"ok": report.ok, "axioms": report.to_doc()})
    else:
        lines = []
        for name, status in sorted(report.statuses.items()):
            mark = _ok(args, "pass") if status.ok else _bad(args, "FAIL")
            line = f"{name}: {mark}"
            if status.note:
                line += f"  ({status.note})"
            if status.witness:
                line += f"  witness: {json.dumps(status.witness, sort_keys=True)}"
            lines.append(line)
        _emit(args, "\n".join(lines) + "\n")
    return 0 if report.ok else 1


def cmd_reconstruct(args) -> int:
    F = _load_resolution(args.input)
    try:
        result = reconstruct(F)
    except ReconstructionError as exc:
        if args.json:
            _emit_doc(args, {"reconstructible": False, "reason": str(exc)})
        else:
            _emit(args, _bad(args, "not reconstructible") + f": {exc}\n")
        return 1
    if isinstance(result, MismatchReport):
        if args.json:
            _emit_doc(args, result.to_doc())
        else:
            _emit(args, _bad(args, "mismatch") + f": {_mismatch_text(result)}\n")
        return 1
    if args.json:
        _emit_doc(args, observable_to_doc(result))
    else:
        _emit(args, "reconstructed atoms:\n" + "\n".join(_describe_atoms(result)) + "\n")
    return 0


def _describe_atoms(x: DiscreteObservable) -> list[str]:
    return [f"  {format_ext_point(a.point)} -> {format_element(a.weight)}" for a in x.atoms]


def _mismatch_text(result: MismatchReport) -> str:
    return (
        f"cell {result.witness_cell} has value {format_element(result.value_f)} "
        f"but the induced observable gives {format_element(result.value_candidate)}"
    )


def cmd_verify(args) -> int:
    config = TrialConfig(
        seed=args.seed,
        trials=args.trials,
        k_range=(1, 6 if args.k is None else args.k),
    )
    summary = run_suite(config)
    if args.json:
        _emit_doc(args, summary.to_doc())
    else:
        lines = [f"seed {summary.seed}, {summary.trials} trials"]
        for name, stats in summary.to_doc()["checks"].items():
            mark = _ok(args, "ok") if stats["failures"] == 0 else _bad(args, "FAIL")
            lines.append(f"{name}: {stats['runs']} runs, {stats['failures']} failures {mark}")
        _emit(args, "\n".join(lines) + "\n")
    return 0 if summary.ok else 1


def cmd_render(args) -> int:
    F = _load_resolution(args.input)
    text = render_svg(F) if args.format == "svg" else render_ascii(F)
    _emit(args, text)
    return 0


def cmd_example(args) -> int:
    kind, obj, note = build_example(args.name, k=args.k)
    out = []
    if note:
        out.append(f"note: {note}")
    F = from_observable(obj) if kind == "observable" else obj
    if kind == "observable":
        out.append(f"atoms (k={obj.signature.k}, d={obj.signature.d}, n={obj.n}):")
        out += _describe_atoms(obj)
    out += [f"T_{i} = {t}" for i, t in sorted(_level_texts(F).items())]
    out.append(_describe_blocks(args, all_blocks(F)).rstrip("\n"))
    if args.name == "3.7/9":  # mismatch_resolution always gives a MismatchReport
        out.append(f"reconstruction mismatch: {_mismatch_text(reconstruct(F))}")
    _emit(args, "\n".join(out) + "\n")
    return 0


def _at_least(lo: int, hi: int | None = None):
    """argparse type: an integer in [``lo``, ``hi``], else a usage error (exit 2)."""

    def integer(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            bound = f">= {lo}" if value < lo else f"<= {hi}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return integer


@cache  # built once per process; parse_args returns a fresh Namespace per call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexspec",
        description="Observables and spectral resolutions on k-perfect algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *flags):
        if "--input" in flags:
            p.add_argument("--input", required=True, help="observable or resolution JSON file")
        if "--json" in flags:
            p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("eval", help="evaluate the resolution at a point")
    add_common(p, "--input", "--json")
    p.add_argument("--point", required=True,
                   help='comma-separated rationals, e.g. "4,4"; write --point=-7,1 when the '
                        "first coordinate is negative")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("regions", help="print the level-set regions T_i")
    add_common(p, "--input", "--json")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("charpoints", help="blocks, characteristic points, bounds")
    add_common(p, "--input", "--json")
    p.set_defaults(func=cmd_charpoints)

    p = sub.add_parser("axioms", help="check the spectral-resolution conditions")
    add_common(p, "--input", "--json")
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("reconstruct", help="rebuild an observable from adjoined blocks")
    add_common(p, "--input", "--json")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("verify", help="run the randomized theorem suite")
    add_common(p, "--json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_at_least(0), default=100)
    p.add_argument("--k", type=_at_least(1, MAX_K), default=None,
                   help="largest unit height to draw")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="draw the 2-D level map")
    add_common(p, "--input")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("example", help="analyze a built-in example")
    p.add_argument("name", help=f"one of: {', '.join(example_names())}")
    p.add_argument("--k", type=_at_least(1, MAX_K), default=None, help="algebra height for patho/M")
    add_common(p)
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
