"""Command-line front end.

One input format across subcommands: the observable / resolution JSON
documents of this package, told apart by their "kind" field.  Exit codes:
0 success, 1 a check failed (axioms, bounds, reconstruction, suite), 2 usage
or input errors.

Each ``cmd_*(args, F)`` takes the resolution of ``--input`` (``None`` without
one) and returns its exit code and its output.  Only :func:`main` loads the
input, maps input errors to exit 2 and writes the output to stdout or --out:
a dict as indent-2 JSON plus a newline, a list as lines, a str as it is.
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
    point_text,
    reconstruct,
)
from .gallery import UnknownExampleError, build_example, example_names
from .lexalg import AlgebraError, format_element
from .observable import (
    MAX_K,
    DiscreteObservable,
    ObservableError,
    _encode_element,
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
    """``text`` in colour when it goes to a terminal's stdout."""
    if args.out or os.environ.get("LEXSPEC_COLOR") == "0":
        return text
    return f"\x1b[{code}m{text}\x1b[0m" if sys.stdout.isatty() else text


def _ok(args, text: str) -> str:
    return _paint(args, text, "32")


def _bad(args, text: str) -> str:
    return _paint(args, text, "31")


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


def _resolution(kind: str, obj: DiscreteObservable | StepResolution) -> StepResolution:
    return from_observable(obj) if kind == "observable" else obj


def cmd_eval(args, F):
    value = eval_F(F, parse_point(args.point))
    if args.json:
        return 0, {"point": args.point, "value": _encode_element(value)}
    return 0, [format_element(value)]


def cmd_regions(args, F):
    decomp = level_regions(F)
    if args.json:
        return 0, decomp.to_doc()
    lines = [f"T_{i} = {t}" for i, t in sorted(decomp.texts.items())]
    if decomp.pathological:
        lines.append("warning: resolution fails spectral conditions")
    return 0, lines


def cmd_charpoints(args, F):
    report = all_blocks(F)
    if args.json:
        return 0, report.to_doc() | {"bounds": bounds_check(report).to_doc()}
    return 0, _describe_blocks(args, report)


def _describe_blocks(args, report) -> list[str]:
    lines = []
    ends = cell_ends(report.breakpoints)
    for b in report.all_blocks():
        adj = "T0-adjoined" if b.t0_adjoined else "not adjoined"
        lines.append(
            f"level {b.level}  char {point_text(ends, b.starts)}  "
            f"region {b.region_text(ends)}  infimum {format_element(b.infimum)}  "
            + adj + (f"  flags: {', '.join(b.flags)}" if b.flags else "")
        )
    pts = [point_text(ends, r) for r in report.starts]
    lines.append(f"characteristic points ({len(pts)}): {', '.join(pts)}")
    bc = bounds_check(report)
    rows = [(f"level {level}", count, limit) for level, count, limit in bc.per_level]
    for name, count, limit in [*rows, ("total", bc.total, bc.total_limit)]:
        mark = _ok(args, "ok") if count <= limit else _bad(args, "exceeded")
        lines.append(f"bound {name}: {count} <= {limit} {mark}")
    return lines


def cmd_axioms(args, F):
    report = check_axioms(F)
    code = 0 if report.ok else 1
    if args.json:
        return code, {"ok": report.ok, "axioms": report.to_doc()}
    lines = []
    for name, status in sorted(report.statuses.items()):
        mark = _ok(args, "pass") if status.ok else _bad(args, "FAIL")
        line = f"{name}: {mark}"
        if status.note:
            line += f"  ({status.note})"
        if status.witness:
            line += f"  witness: {json.dumps(status.witness, sort_keys=True)}"
        lines.append(line)
    return code, lines


def cmd_reconstruct(args, F):
    try:
        result = reconstruct(F)
    except ReconstructionError as exc:
        if args.json:
            return 1, {"reconstructible": False, "reason": str(exc)}
        return 1, [_bad(args, "not reconstructible") + f": {exc}"]
    if isinstance(result, MismatchReport):
        if args.json:
            return 1, result.to_doc()
        return 1, [_bad(args, "mismatch") + f": {_mismatch_text(result)}"]
    if args.json:
        return 0, observable_to_doc(result)
    return 0, ["reconstructed atoms:", *_describe_atoms(result)]


def _describe_atoms(x: DiscreteObservable) -> list[str]:
    return [f"  {format_ext_point(a.point)} -> {format_element(a.weight)}" for a in x.atoms]


def _mismatch_text(result: MismatchReport) -> str:
    return (
        f"cell {result.witness_cell} has value {format_element(result.value_f)} "
        f"but the induced observable gives {format_element(result.value_candidate)}"
    )


def cmd_verify(args, F):
    k_range = (1, 6 if args.k is None else args.k)
    summary = run_suite(TrialConfig(seed=args.seed, trials=args.trials, k_range=k_range))
    code = 0 if summary.ok else 1
    if args.json:
        return code, summary.to_doc()
    lines = [f"seed {summary.seed}, {summary.trials} trials"]
    for name, stats in summary.to_doc()["checks"].items():
        mark = _ok(args, "ok") if stats["failures"] == 0 else _bad(args, "FAIL")
        lines.append(f"{name}: {stats['runs']} runs, {stats['failures']} failures {mark}")
    return code, lines


def cmd_render(args, F):
    return 0, render_svg(F) if args.format == "svg" else render_ascii(F)


def cmd_example(args, F):
    kind, obj, note = build_example(args.name, k=args.k)
    F = _resolution(kind, obj)
    out = [f"note: {note}"] if note else []
    if kind == "observable":
        out.append(f"atoms (k={obj.signature.k}, d={obj.signature.d}, n={obj.n}):")
        out += _describe_atoms(obj)
    out += [f"T_{i} = {t}" for i, t in sorted(_level_texts(F).items())]
    out += _describe_blocks(args, all_blocks(F))
    if args.name == "3.7/9":  # mismatch_resolution always gives a MismatchReport
        out.append(f"reconstruction mismatch: {_mismatch_text(reconstruct(F))}")
    return 0, out


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

    for name, func, text in (
        ("regions", cmd_regions, "print the level-set regions T_i"),
        ("charpoints", cmd_charpoints, "blocks, characteristic points, bounds"),
        ("axioms", cmd_axioms, "check the spectral-resolution conditions"),
        ("reconstruct", cmd_reconstruct, "rebuild an observable from adjoined blocks"),
    ):
        p = sub.add_parser(name, help=text)
        add_common(p, "--input", "--json")
        p.set_defaults(func=func)

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
    args = build_parser().parse_args(argv)
    try:
        F = _resolution(*load_document(args.input)) if "input" in args else None
        code, output = args.func(args, F)
        if isinstance(output, dict):
            output = json_text(output) + "\n"
        elif isinstance(output, list):
            output = "\n".join(output) + "\n"
        if args.out:
            Path(args.out).write_text(output, encoding="utf-8")
        else:
            sys.stdout.write(output)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
