"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/spread.py --workload table1 --seeds 1-10

Runs ``perfbench/run.py`` once per seed (sequentially, from the current
directory), then prints for every metric the median of the per-seed values
and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json.  The summary is written to
``.bench_out/spread-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args(argv)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, *spec["command"][1:], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True)
        took = time.perf_counter() - t0
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            return 1
        last = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "took_s": took, **last})
        values = " ".join(f"{k}={v['value']:.5g}" for k, v in list(last["metrics"].items())[:6])
        print(f"seed {seed}: {took:.1f}s correct={last['correct']} "
              f"failed={last['failed']}/{last['attempted']} {values}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        row = {"median": statistics.median(values), "values": values,
               "unit": runs[0]["metrics"][name]["unit"]}
        if len(values) >= 2 and row["median"]:
            row["spread"] = spread(values)
        if bounds.get(name) is not None:
            row["bound"] = bounds[name]
        summary[name] = row
        bound = f"bound {row['bound']:.3f}" if "bound" in row else ""
        print(f"{name:34s} median {row['median']:>14.6g} {row['unit']:6s} "
              f"spread {row.get('spread', float('nan')):.4f} {bound}")
    print(f"all correct: {all(r['correct'] for r in runs)}; "
          f"longest run {max(r['took_s'] for r in runs):.1f}s")
    out = Path(".bench_out")
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seconds": seconds, "runs": runs,
                    "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
