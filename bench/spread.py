"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 bench/spread.py --workloads bnb-k14,oracle-k14 --seeds 1-10 [--trace]

Runs ``run.py`` once per (workload, seed) with the run length from
BENCHMARK.json, then prints, per workload and metric, the median of the runs
and the distance between the first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) as a share of the median,
next to the metric's bound. With ``--trace`` each seed also gets a traced run,
and the tracing overhead is the traced summed solve time over the untraced one,
minus 1. Everything is also written to ``bench/out/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT)
    return json.loads(done.stdout.strip().splitlines()[-1]), time.perf_counter() - t0


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs, traced, walls = [], [], []
        for seed in parse_seeds(args.seeds):
            res, wall = run_once(workload, seed, bench["run_seconds"], 0)
            runs.append(res)
            walls.append(wall)
            if args.trace:
                traced.append(run_once(workload, seed, bench["run_seconds"], 1)[0])
        rows = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            rows[name] = {"median": statistics.median(values), "spread": spread(values),
                          "bound": bounds[name], "values": values}
        entry = {
            "metrics": rows,
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
            "all_correct": all(r["correct"] for r in runs),
            "wall_s": walls,
        }
        if traced:
            # untraced summed solve time of one round = instances / instances_per_s / rounds
            overheads = []
            for r, t in zip(runs, traced):
                per_round = t["attempted"] / r["metrics"]["instances_per_s"]["value"]
                overheads.append(t["metrics"]["solver.solve_seconds"]["value"] / per_round - 1.0)
            entry["trace_overhead"] = {"median": statistics.median(overheads), "values": overheads}
            entry["layers"] = {
                name: statistics.median(t["metrics"][name]["value"] for t in traced)
                for name in traced[0]["metrics"]
            }
        report[workload] = entry
        print(f"{workload}: correct={entry['all_correct']} failed_share={entry['failed_share']} "
              f"wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        for name, row in rows.items():
            print(f"  {name:16s} median {row['median']:.6g}  spread {row['spread']:.4f}  "
                  f"bound {row['bound']}")
        if traced:
            print(f"  trace overhead median {entry['trace_overhead']['median']:+.4f}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
