"""The lexspec benchmark: one command, every workload and metric.

Run from the repository root; it needs only the standard library and the
sources under ``src/``:

    python3 lexbench/run.py --workload suite --seed 1 --seconds 30 --trace 0
    python3 lexbench/run.py              # all workloads, untraced and traced
    python3 lexbench/run.py --workload analysis --seed 1 --op 12   # replay op 12

Each workload runs in a fresh worker process (``worker.py``), a closed loop
with one client.  With ``--trace 0`` the last stdout line is a JSON object
with the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced run instead, including the tracing overhead.  The line
before it holds the run's context: commit, Python, CPU, nproc, seed, sample
counts, the sha256 of the outputs of the first ops and failure reproducers.
The exit code is 0 only if every op passed its oracle.

``spread.py`` repeats runs over several seeds and reports each metric's
quartile spread; ``python3 -m unittest discover -s lexbench/tests`` tests the
benchmark's own logic.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("suite", "extension", "analysis")
END_TO_END = (
    ("ops_per_s", "op/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_RUNS = 5  # set-up is timed in this many fresh processes; the median is reported
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """A worker did not finish or did not report a result."""


def _spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker; return its spawn time (monotonic clock) and its result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted before the worker started")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return spawned_at, json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run of one workload; set-up is timed in SETUP_RUNS processes."""
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setup_s = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            spawned_at, res = _spawn([*base, "--setup-only"], deadline)
            setup_s.append(res["ready_at"] - spawned_at)
    spawned_at, res = _spawn([*base, "--trace", str(trace)], deadline)
    setup_s.append(res["ready_at"] - spawned_at)
    res["setup_s"] = statistics.median(setup_s)
    res["setup_samples"] = len(setup_s)
    return res


def metrics_of(res: dict, trace: int) -> dict:
    if trace:
        import tracing

        return {
            row["name"]: {"value": res["layers"][row["name"]], "unit": row["unit"]}
            for row in tracing.metric_table()
        }
    return {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def context(workload: str, seed: int, seconds: float, trace: int, res: dict) -> dict:
    samples = {"ops_per_s": res["attempted"], "op_ms_p50": res["attempted"],
               "op_ms_p90": res["attempted"], "peak_rss_mb": 1}
    if trace:
        samples = {"traced_ops": res["attempted"], "spans_kept": res["spans_kept"],
                   "spans_dropped": res["spans_dropped"]}
    else:
        samples["setup_s"] = res["setup_samples"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": git_commit(),
        "python": res["python"],
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "samples": samples,
        "wall_s": res["wall_s"],
        "failed_frac": res["failed"] / res["attempted"],
        "digest": res["digest"],
        "digest_ops": res["digest_ops"],
        "reproducers": res["failures"],
    }


def _report_failures(res: dict) -> None:
    for f in res["failures"]:
        print(
            f"failed op: python3 lexbench/run.py --workload {f['workload']} --seed {f['seed']} "
            f"--op {f['op']}  # {json.dumps(f['input'])}: {f['error']}",
            file=sys.stderr,
        )


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    res = measure(workload, seed, seconds, trace)
    _report_failures(res)
    print(json.dumps({"context": context(workload, seed, seconds, trace, res)}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics_of(res, trace),
    }))
    return 0 if res["failed"] == 0 else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced; prints a table and writes .bench_out/BENCH_<commit>.json."""
    import tracing

    report = {"commit": git_commit(), "python": platform.python_version(), "cpu": cpu_model(),
              "nproc": os.cpu_count(), "seed": seed, "seconds": seconds, "workloads": {}}
    failed = 0
    for workload in WORKLOADS:
        plain = measure(workload, seed, seconds, 0)
        traced = measure(workload, seed, seconds, 1)
        for res in (plain, traced):
            _report_failures(res)
            failed += res["failed"]
        e2e = metrics_of(plain, 0)
        e2e["failed_frac"] = {"value": plain["failed"] / plain["attempted"], "unit": "ratio"}
        report["workloads"][workload] = {
            "end_to_end": e2e,
            "per_layer": metrics_of(traced, 1),
            "context": context(workload, seed, seconds, 0, plain),
        }
        print(f"\n== {workload}: {plain['attempted']} ops, digest {plain['digest'][:16]} "
              f"over the first {plain['digest_ops']}")
        for name, m in e2e.items():
            print(f"  {name:<12} {m['value']:>14.6g} {m['unit']}")
        print("  traced run, per layer (nonzero):")
        for name, m in report["workloads"][workload]["per_layer"].items():
            if m["value"]:
                print(f"    {name:<42} {m['value']:>14.6g} {m['unit']}")
    print("\nwhich end-to-end metric each layer should move:")
    for layer, text in tracing.SHOULD_MOVE.items():
        print(f"  {layer:<11} {text}")
    out = ROOT / ".bench_out" / f"BENCH_{report['commit'][:12]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\nwrote {out.relative_to(ROOT)}")
    return 0 if failed == 0 else 1


def replay(workload: str, seed: int, op: int) -> int:
    _, res = _spawn(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--op", str(op)], time.monotonic() + RUN_BUDGET_S)
    print(json.dumps(res, indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--op", type=int, default=None, help="replay this op alone")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    if not (ROOT / "src" / "lexspec" / "__init__.py").is_file():
        print(f"error: no lexspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.op is not None:
            if args.workload == "all":
                parser.error("--op needs --workload")
            return replay(args.workload, args.seed, args.op)
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        return run_one(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
