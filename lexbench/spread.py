"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 lexbench/spread.py --workloads suite analysis --seeds 1 2 3 4 5

Runs ``run.py`` once per (workload, seed), one after the other, and prints
for each metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, the distance between the quartiles as a share of the
median, next to the metric's bound from ``BENCHMARK.json``.  The raw values
go to ``.bench_out/spread-<workloads>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("need at least two seeds")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw: dict[str, dict[str, list[float]]] = {}
    status = 0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {proc.returncode}, {result.get('failed')} failed")
                status = 1
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        raw[workload] = values
        print(f"== {workload} ({len(args.seeds)} seeds)")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            median, q1, q3, share = spread(vals)
            bound = bounds.get(name)
            ratio = f"{share / bound:6.2f} of bound {bound}" if bound else ""
            print(f"  {name:<12} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {share:7.4f}  {ratio}")
    out = ROOT / ".bench_out" / f"spread-{'-'.join(args.workloads)}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seeds": args.seeds, "seconds": seconds, "values": raw}, indent=2),
                   encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
