"""Certified-solve benchmark for gobmd.

    python3 bench/run.py --workload bnb-k14 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of one measuring process
plus the median set-up time of several fresh processes; with ``--trace 1``
the per-layer metrics of one traced process. Each process is
``bench/workload.py``. Every answer is checked against an independent
enumeration (``enumcheck.py``). The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics; the full record of the run
goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workload import LAYER_METRICS, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent

SETUP_SAMPLES = 5  # the measuring process plus four set-up-only processes
CHILD_TIMEOUT_S = 170


def run_child(role: str, args) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"workload.py {role} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gobmd" / "__init__.py").is_file():
        print(f"no gobmd sources under {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        run = run_child("trace", args)
        metrics = {name: metric(run["layers"][name], unit) for name, unit in LAYER_METRICS.items()}
    else:
        run = run_child("measure", args)
        setups = [run["timings"]["setup_s"]]
        setups += [run_child("setup", args)["timings"]["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        run["setup_samples_s"] = setups
        metrics = {
            "solve_p50_s": metric(run["solve_p50_s"], "s"),
            "instances_per_s": metric(run["instances_per_s"], "1/s"),
            "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
            "setup_s": metric(statistics.median(setups), "s"),
        }

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"args": vars(args), **run, "metrics": metrics}, indent=1))
    for fault in run["faults"]:
        print(f"FAULT {fault}", file=sys.stderr)
    print("env: " + json.dumps(run["env"]))
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
