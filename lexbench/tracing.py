"""Per-layer spans for the traced run, recorded from outside the program.

The tracer wraps public ``lexspec`` names: the module attribute and every
``lexspec`` module's bound copy of it (``verify.union``,
``charpoints.check_axioms``, ...), plus ``Region.__init__`` and
``DiscreteObservable.eval`` on their classes.  Nothing under ``src/``
changes.  Spans nest on a stack; a span's self time is its duration minus
the durations of its direct children, so self times add up to the traced
wall time minus the time no span covers (the residual).

Cheap element operations (``lexalg``, ``eval_F``) are only counted: a timed
wrapper would cost more than the call it measures.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Spanned names per layer.  "Region" and "eval" are methods, patched on
# their classes; the rest are module functions.
SPANNED = {
    "boxgeom": ("Region", "union", "intersect", "difference", "complement", "halfopen_box"),
    "spectral": (
        "from_observable",
        "check_axioms",
        "volume",
        "additive_extension",
        "point_mass_via_deltas",
        "resolution_from_doc",
        "from_cells",
    ),
    "charpoints": (
        "all_blocks",
        "level_regions",
        "reconstruct",
        "bounds_check",
        "rays_check",
        "block_cube_check",
    ),
    "observable": ("eval", "make_observable", "observable_from_doc"),
    "verify": ("run_suite", "random_observable", "trial_rng"),
    "render": ("render_svg",),
    "cli": ("main",),
}
COUNTED = {
    "spectral": ("eval_F",),
    "lexalg": ("group_add", "group_sub", "meet", "lex_cmp"),
}

# Which end-to-end metric each layer should move, on which workload.  A
# change to a layer that moves another metric, or this one elsewhere, needs
# explaining.
SHOULD_MOVE = {
    "boxgeom": "ops_per_s and op_ms_p50 on suite and extension; op_ms_p90 on analysis "
    "(through canonicalization only)",
    "spectral": "op_ms_p50/op_ms_p90 on analysis; ops_per_s on extension (query path "
    "only); little on suite",
    "charpoints": "op_ms_p90 on analysis; little on suite; nothing on extension",
    "observable": "ops_per_s on extension and suite",
    "verify": "ops_per_s on suite",
    "render": "op_ms_p90 on analysis",
    "cli": "op_ms_p50 on analysis",
    "lexalg": "all three workloads, through element operations",
}

_CELL_DIMS = (2, 3)


def metric_table() -> list[dict]:
    """Every per-layer metric the traced run reports: name, unit, direction."""
    rows = []
    for layer, names in SPANNED.items():
        for name in names:
            rows.append({"name": f"{layer}.{name}.calls", "unit": "count", "better": "lower"})
            rows.append({"name": f"{layer}.{name}.self_s", "unit": "s", "better": "lower"})
    for layer, names in COUNTED.items():
        for name in names:
            rows.append({"name": f"{layer}.{name}.calls", "unit": "count", "better": "lower"})
    rows += [
        {"name": "boxgeom.Region.boxes_in", "unit": "count", "better": "lower"},
        {"name": "boxgeom.Region.boxes_out", "unit": "count", "better": "lower"},
        {"name": "spectral.cells", "unit": "count", "better": "lower"},
        *(
            {"name": f"spectral.check_axioms.us_per_cell.n{n}", "unit": "us", "better": "lower"}
            for n in _CELL_DIMS
        ),
        {"name": "charpoints.blocks", "unit": "count", "better": "lower"},
        {"name": "trace.wall_s", "unit": "s", "better": "lower"},
        {"name": "trace.layer_self_s", "unit": "s", "better": "lower"},
        {"name": "trace.residual_s", "unit": "s", "better": "lower"},
        {"name": "trace.ops_per_s_ratio", "unit": "ratio", "better": "higher"},
    ]
    return rows


class Tracer:
    """Nested spans in memory, with per-name call counts and self times.

    ``clock`` is injectable so the self-time arithmetic can be tested with a
    fake clock.  At most ``keep`` raw spans are kept for writing out; the
    totals always cover every span.
    """

    def __init__(self, clock=time.perf_counter, keep: int = 20_000) -> None:
        self.clock = clock
        self.keep = keep
        self.enabled = False
        self.op = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []  # (op, id, parent id, name, start, end)
        self.dropped = 0
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._next_id = 0

    def enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, self.clock(), 0.0])
        self._next_id += 1

    def exit(self) -> float:
        """Close the innermost span and return its self time."""
        sid, name, start, child = self._stack.pop()
        end = self.clock()
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        own = duration - child
        self.calls[name] += 1
        self.self_s[name] += own
        self.total_s[name] += duration
        if len(self.spans) < self.keep:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((self.op, sid, parent, name, start, end))
        else:
            self.dropped += 1
        return own

    def add(self, name: str, amount: float = 1) -> None:
        self.calls[name] += amount


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    calls = tracer.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.enabled:
            calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _region_init(tracer: Tracer, name: str, fn):
    """Span plus the box counts before and after canonicalization."""

    @functools.wraps(fn)
    def wrapper(self, n, boxes=()):
        if not tracer.enabled:
            return fn(self, n, boxes)
        boxes = tuple(boxes)
        tracer.enter(name)
        try:
            fn(self, n, boxes)
        finally:
            tracer.exit()
        tracer.add(name + ".boxes_in", len(boxes))
        tracer.add(name + ".boxes_out", len(self.boxes))

    return wrapper


def _check_axioms(tracer: Tracer, name: str, fn):
    """Span plus the cells checked, and self time and cells per dimension."""

    @functools.wraps(fn)
    def wrapper(F):
        if not tracer.enabled:
            return fn(F)
        tracer.enter(name)
        try:
            return fn(F)
        finally:
            own = tracer.exit()
            cells = 1
            for m in F.shape:
                cells *= m + 1
            tracer.add("spectral.cells", cells)
            tracer.add(f"{name}.cells.n{F.n}", cells)
            tracer.self_s[f"{name}.n{F.n}"] += own

    return wrapper


def _all_blocks(tracer: Tracer, name: str, fn):
    """Span plus the number of blocks found."""

    @functools.wraps(fn)
    def wrapper(F):
        if not tracer.enabled:
            return fn(F)
        tracer.enter(name)
        try:
            report = fn(F)
        finally:
            tracer.exit()
        tracer.add("charpoints.blocks", sum(len(bs) for bs in report.levels.values()))
        return report

    return wrapper


_WRAPPERS = {
    "boxgeom.Region": _region_init,
    "spectral.check_axioms": _check_axioms,
    "charpoints.all_blocks": _all_blocks,
}
# Traced names that are methods, patched on their class: name -> (class, method).
_METHODS = {
    "boxgeom.Region": ("Region", "__init__"),
    "observable.eval": ("DiscreteObservable", "eval"),
}


class Instrumentation:
    """Wraps the traced names while active; ``remove`` restores the originals."""

    def __init__(self, tracer: Tracer) -> None:
        self._restore: list[tuple[object, str, object]] = []
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "lexspec" or name.startswith("lexspec."))
        ]
        for layer, names in SPANNED.items():
            module = sys.modules[f"lexspec.{layer}"]
            for attr in names:
                name = f"{layer}.{attr}"
                wrap = _WRAPPERS.get(name, _spanned)
                if name in _METHODS:
                    cls_name, method = _METHODS[name]
                    cls = getattr(module, cls_name)
                    self._set(cls, method, wrap(tracer, name, vars(cls)[method]))
                else:
                    original = getattr(module, attr)
                    self._rebind(modules, original, wrap(tracer, name, original))
        for layer, names in COUNTED.items():
            for attr in names:
                original = getattr(sys.modules[f"lexspec.{layer}"], attr)
                self._rebind(modules, original, _counted(tracer, f"{layer}.{attr}", original))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind(self, modules, original, wrap) -> None:
        """Replace ``original`` under every name any lexspec module binds it to."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrap)

    def remove(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


def layer_metrics(tracer: Tracer, wall_s: float, op_span: str) -> dict[str, float]:
    """Per-layer values, in ``metric_table`` order, from one traced phase.

    ``op_span`` names the benchmark's own span around each op.  The residual
    is measured apart from the layer spans: the op spans' self time plus the
    wall time outside any op span.  Layer self times plus the residual give
    back the wall time; ``check_accounting`` enforces it.
    """
    values: dict[str, float] = {}
    for row in metric_table():
        name = row["name"]
        base, _, kind = name.rpartition(".")
        if kind == "self_s":
            values[name] = tracer.self_s.get(base, 0.0)
        elif name.startswith("spectral.check_axioms.us_per_cell."):
            n = kind
            cells = tracer.calls.get(f"spectral.check_axioms.cells.{n}", 0)
            own = tracer.self_s.get(f"spectral.check_axioms.{n}", 0.0)
            values[name] = own / cells * 1e6 if cells else 0.0
        elif kind == "calls":
            values[name] = tracer.calls.get(base, 0)
        elif not name.startswith("trace."):
            values[name] = tracer.calls.get(name, 0)
    layer_self = sum(
        values[row["name"]] for row in metric_table() if row["name"].endswith(".self_s")
    )
    values["trace.wall_s"] = wall_s
    values["trace.layer_self_s"] = layer_self
    values["trace.residual_s"] = (
        tracer.self_s.get(op_span, 0.0) + wall_s - tracer.total_s.get(op_span, 0.0)
    )
    return values


def check_accounting(values: dict[str, float], tolerance_s: float = 1e-6) -> None:
    """Raise if layer self times plus the residual miss the traced wall time."""
    gap = values["trace.wall_s"] - values["trace.layer_self_s"] - values["trace.residual_s"]
    if abs(gap) > tolerance_s:
        raise RuntimeError(f"span accounting is off by {gap:.9f} s")
