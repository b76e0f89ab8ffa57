"""One workload in one fresh process: set-up, timed phase, oracles.

Started by ``run.py``; prints one JSON object as its last stdout line.  With
``--setup-only`` it stops once the inputs are ready, so ``run.py`` can time
set-up several times.  ``--op I`` replays op I alone and reports its verdict.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OP_SPAN = "bench.op"
MAX_REPRODUCERS = 5


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


class Phase:
    """Outcome of one pass of the closed loop."""

    def __init__(self) -> None:
        self.op_s: list[float] = []
        self.ends: list[float] = []  # timed seconds elapsed when each op ended
        self.wall_s = 0.0
        self.failures: list[dict] = []
        self.failed = 0
        self.digest = hashlib.sha256()
        self.digest_ops = 0


def run_phase(workload, seconds: float, op_count: int | None = None, tracer=None) -> Phase:
    """Run ops until ``seconds`` of timed work and a whole round, or ``op_count`` ops.

    Oracle time is excluded from the phase's wall time; tracing is switched
    off while an oracle runs, so oracles never enter the per-layer numbers.
    """
    phase = Phase()
    perf = time.perf_counter
    oracle_s = 0.0
    start = perf()
    i = 0
    while True:
        if op_count is not None:
            if i == op_count:
                break
        elif i % workload.round_len == 0 and i >= workload.min_ops:
            if perf() - start - oracle_s >= seconds:
                break
        inp = workload.inputs(i)
        error = None
        if tracer is not None:
            tracer.op = i
            tracer.enter(OP_SPAN)
        t0 = perf()
        try:
            out = workload.run(inp)
        except Exception as exc:  # a failed op is counted, not fatal
            error = exc
        t1 = perf()
        if tracer is not None:
            tracer.exit()
            tracer.enabled = False
        phase.op_s.append(t1 - t0)
        phase.ends.append(t1 - start - oracle_s)
        checked_at = perf()
        if error is None:
            try:
                data = workload.check(i, inp, out)
            except Exception as exc:
                error = exc
        if error is not None:
            phase.failed += 1
            if len(phase.failures) < MAX_REPRODUCERS:
                phase.failures.append(
                    {
                        "workload": workload.name,
                        "seed": workload.seed,
                        "op": i,
                        "input": workload.spec(i),
                        "error": f"{type(error).__name__}: {error}",
                    }
                )
        elif i < workload.digest_ops:
            phase.digest.update(hashlib.sha256(data).digest())
            phase.digest_ops += 1
        if tracer is not None:
            tracer.enabled = True
        oracle_s += perf() - checked_at
        i += 1
    phase.wall_s = perf() - start - oracle_s
    return phase


def _summary(phase: Phase) -> dict:
    n = len(phase.op_s)
    return {
        "attempted": n,
        "failed": phase.failed,
        "failures": phase.failures,
        "digest": phase.digest.hexdigest(),
        "digest_ops": phase.digest_ops,
        "ops_per_s": n / phase.wall_s,
        "op_ms_p50": percentile(phase.op_s, 50) * 1e3,
        "op_ms_p90": percentile(phase.op_s, 90) * 1e3,
        "wall_s": phase.wall_s,
    }


def _write_spans(tracer, path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for op, sid, parent, name, start, end in tracer.spans:
            fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                 "start": start, "end": end}) + "\n")


def traced(workload, seconds: float, out_dir: Path) -> dict:
    """Traced phase, then its first third of ops again untraced for the overhead.

    The overhead is traced ops/s over untraced ops/s on the same ops, taken
    in whole rounds and at least ``min_ops``.
    """
    import tracing

    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer)
    tracer.enabled = True
    try:
        phase = run_phase(workload, seconds, tracer=tracer)
    finally:
        tracer.enabled = False
        instrumentation.remove()
    rounds = -(-max(workload.min_ops, len(phase.op_s) // 3) // workload.round_len)
    count = min(len(phase.op_s), rounds * workload.round_len)
    plain = run_phase(workload, seconds, op_count=count)
    result = _summary(phase)
    result["failed"] += plain.failed
    result["failures"] += plain.failures[: MAX_REPRODUCERS - len(result["failures"])]
    values = tracing.layer_metrics(tracer, phase.wall_s, OP_SPAN)
    tracing.check_accounting(values)
    values["trace.ops_per_s_ratio"] = plain.wall_s / phase.ends[count - 1]
    result["layers"] = values
    span_file = out_dir / f"trace-{workload.name}-{workload.seed}.jsonl"
    _write_spans(tracer, span_file)
    result["spans_kept"] = len(tracer.spans)
    result["spans_dropped"] = tracer.dropped
    return result


def replay(workload, i: int) -> dict:
    """Op i alone, as a failure reproducer; an oracle failure raises with its traceback."""
    inp = workload.inputs(i)
    t0 = time.perf_counter()
    out = workload.run(inp)
    op_ms = (time.perf_counter() - t0) * 1e3
    data = workload.check(i, inp, out)
    return {"op": i, "input": workload.spec(i), "op_ms": op_ms,
            "sha256": hashlib.sha256(data).hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--op", type=int, default=None)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    os.environ["LEXSPEC_COLOR"] = "0"
    import lexspec

    if Path(lexspec.__file__).resolve().parent != src / "lexspec":
        print(f"error: imported lexspec from {lexspec.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = out_dir / f"tmp-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        ready_at = time.monotonic()
        if args.setup_only:
            result = {"ready_at": ready_at}
        elif args.op is not None:
            result = replay(workload, args.op)
        elif args.trace:
            result = traced(workload, args.seconds, out_dir)
        else:
            result = _summary(run_phase(workload, args.seconds))
        result["ready_at"] = ready_at
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["python"] = platform.python_version()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
