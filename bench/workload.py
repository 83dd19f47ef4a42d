"""One benchmark process: set up, solve one workload's instance set, check every answer.

Roles:
  setup    import gobmd, build the instance set, solve the warm-up instance;
           report the set-up time.
  measure  set up, then solve the set in whole rounds, each solve timed alone
           with perf_counter, for at most ``--seconds`` (the first round always
           completes); then read peak memory and check every answer.
  trace    set up, then solve the set once with every layer wrapped by
           ``layertrace.Tracer``, and check every answer.

run.py starts these; each prints one JSON object as its last stdout line.
Only the standard library is imported before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SNR_DB = 10.0
# Instance j of a set is generate_instance(GenConfig(..., seed=SET_SEED), trial=j).
SET_SEED = 4000
# The warm-up instance is this trial of the same configuration, outside every set.
WARMUP_TRIAL = 1000

WORKLOADS = {
    "bnb-k14": {"n_antennas": 18, "n_users": 7, "detector": "bnb", "instances": 60},
    "bnb-k14-n96": {"n_antennas": 48, "n_users": 7, "detector": "bnb", "instances": 25},
    "oracle-k14": {"n_antennas": 18, "n_users": 7, "detector": "oracle", "instances": 50},
}

# per-layer metric name -> unit, in the order they are printed
LAYER_METRICS = {
    "lp.calls": "count",
    "lp.seconds": "s",
    "lp.rows_mean": "rows",
    "lp.rows_max": "rows",
    "lp.iterations_mean": "count",
    "lp.warm_calls": "count",
    "lp.not_optimal": "count",
    "solver.nodes": "count",
    "solver.lp_per_node": "ratio",
    "solver.cuts_added": "count",
    "solver.pool_rows_max": "rows",
    "solver.initial_cuts.seconds": "s",
    "solver.tree_self_seconds": "s",
    "solver.solve_seconds": "s",
    "loss.make_cut.calls": "count",
    "loss.make_cut.seconds": "s",
    "loss.g_all.calls": "count",
    "loss.g_all.seconds": "s",
    "baselines.exhaustive.seconds": "s",
    "baselines.exhaustive.codes_per_s": "1/s",
    "model.generate_instance.seconds": "s",
    "setup.import_s": "s",
}


def set_up(spec: dict):
    """Import gobmd, build the instance set and solve the warm-up instance.

    Returns (gobmd, instances, timings); timings["setup_s"] runs from before
    the import to the end of the warm-up.
    """
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import gobmd

    t_import = time.perf_counter()
    if Path(gobmd.__file__).resolve().parent != SRC / "gobmd":
        raise SystemExit(f"imported gobmd from {gobmd.__file__}, not from {SRC}")
    cfg = gobmd.GenConfig(spec["n_antennas"], spec["n_users"], SNR_DB, SET_SEED)
    instances = [gobmd.generate_instance(cfg, trial=j) for j in range(spec["instances"])]
    t_gen = time.perf_counter()
    solve(gobmd, spec["detector"], gobmd.generate_instance(cfg, trial=WARMUP_TRIAL))
    t_end = time.perf_counter()
    return gobmd, instances, {
        "setup_s": t_end - t0,
        "import_s": t_import - t0,
        "generate_s": t_gen - t_import,
        "warmup_s": t_end - t_gen,
    }


def solve(gobmd, detector: str, instance):
    if detector == "bnb":
        return gobmd.solve_gobmd(instance)
    # through the module attribute, so a traced run sees the call
    return gobmd.baselines.exhaustive_search(instance)


def solve_or_error(gobmd, detector: str, instance):
    """The result of one solve, or the exception it raised: one failed operation."""
    try:
        return solve(gobmd, detector, instance)
    except Exception as e:
        return e


def outcome(detector: str, result) -> dict:
    """The fields the check reads, copied out of a solver result."""
    if isinstance(result, Exception):
        return {"error": f"{type(result).__name__}: {result}"}
    if detector == "bnb":
        x = None if result.x_star is None else result.x_star.tolist()
        return {"status": result.status, "x": x, "objective": result.objective}
    return {"x": result.x_opt.tolist(), "objective": result.objective, "n_evaluated": result.n_evaluated}


def check(gobmd, detector: str, instances, outcomes) -> list[list[str]]:
    """Faults of each (instance index, outcome) pair, from the enumeration."""
    import enumcheck  # loads scipy, so only once set-up has been timed

    objective_tables = {}
    faults = []
    for j, out in outcomes:
        if "error" in out:
            faults.append([out["error"]])
            continue
        if j not in objective_tables:
            inst = instances[j]
            objective_tables[j] = enumcheck.enumerate_objective(inst.H, inst.r, inst.sigma)
        F = objective_tables[j]
        if detector == "bnb":
            faults.append(enumcheck.bnb_faults(out["status"], out["x"], out["objective"], F))
        else:
            faults.append(enumcheck.oracle_faults(
                out["x"], out["objective"], out["n_evaluated"], F, gobmd.baselines.TIE_TOL))
    return faults


def solve_order(seed: int, count: int) -> list[int]:
    order = list(range(count))
    random.Random(seed).shuffle(order)
    return order


def check_summary(outcomes, faults) -> dict:
    failed = [(j, f) for (j, _), f in zip(outcomes, faults) if f]
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "faults": [f"instance {j}: {'; '.join(f)}" for j, f in failed[:20]],
    }


def measure(spec: dict, seed: int, seconds: float) -> dict:
    gobmd, instances, timings = set_up(spec)
    detector = spec["detector"]
    order = solve_order(seed, len(instances))
    times = {j: [] for j in order}
    outcomes = []
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for j in order:
            t0 = time.perf_counter()
            result = solve_or_error(gobmd, detector, instances[j])
            times[j].append(time.perf_counter() - t0)
            outcomes.append((j, outcome(detector, result)))
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = check_summary(outcomes, check(gobmd, detector, instances, outcomes))
    total_s = sum(sum(ts) for ts in times.values())
    return {
        **summary,
        "rounds": rounds,
        "timings": timings,
        "solve_p50_s": statistics.median(statistics.median(ts) for ts in times.values()),
        "instances_per_s": (summary["attempted"] - summary["failed"]) / total_s,
        "peak_rss_mb": peak_rss_mb,
        "solve_s": {str(j): ts for j, ts in sorted(times.items())},
        "env": environment(),
    }


def trace(spec: dict, seed: int) -> dict:
    import layertrace

    gobmd, instances, timings = set_up(spec)
    detector = spec["detector"]
    outcomes = []
    nodes = lp_solves = cuts_added = pool_max = 0
    with layertrace.Tracer(gobmd) as tracer:
        for j in solve_order(seed, len(instances)):
            result = tracer.span("solver.solve", solve_or_error, gobmd, detector, instances[j])
            outcomes.append((j, outcome(detector, result)))
            if detector == "bnb" and not isinstance(result, Exception):
                nodes += result.nodes_processed
                lp_solves += result.lp_solves
                cuts_added += result.cuts_added
                pool_max = max(pool_max, result.pool_size)
    summary = check_summary(outcomes, check(gobmd, detector, instances, outcomes))
    sec, calls = tracer.seconds, tracer.calls
    rows, iters = tracer.lp_rows, tracer.lp_iterations
    ex_s = sec["baselines.exhaustive"]
    layers = {
        "lp.calls": calls["lp"],
        "lp.seconds": sec["lp"],
        "lp.rows_mean": statistics.fmean(rows) if rows else 0.0,
        "lp.rows_max": max(rows, default=0),
        "lp.iterations_mean": statistics.fmean(iters) if iters else 0.0,
        "lp.warm_calls": tracer.lp_warm,
        "lp.not_optimal": tracer.lp_not_optimal,
        "solver.nodes": nodes,
        "solver.lp_per_node": lp_solves / nodes if nodes else 0.0,
        "solver.cuts_added": cuts_added,
        "solver.pool_rows_max": pool_max,
        "solver.initial_cuts.seconds": sec["solver.initial_cuts"],
        "solver.tree_self_seconds": sec["solver.solve"] if detector == "bnb" else 0.0,
        "solver.solve_seconds": tracer.outer_seconds,
        "loss.make_cut.calls": calls["loss.make_cut"],
        "loss.make_cut.seconds": sec["loss.make_cut"],
        "loss.g_all.calls": calls["loss.g_all"],
        "loss.g_all.seconds": sec["loss.g_all"],
        "baselines.exhaustive.seconds": ex_s,
        "baselines.exhaustive.codes_per_s": tracer.exhaustive_codes / ex_s if ex_s else 0.0,
        "model.generate_instance.seconds": timings["generate_s"],
        "setup.import_s": timings["import_s"],
    }
    return {**summary, "layers": layers, "timings": timings, "env": environment()}


def environment() -> dict:
    """Facts that change timings: cores, versions, BLAS library and its threads."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(np),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def _openblas_threads(np) -> int | None:
    """OpenBLAS's effective thread count, read from the library numpy loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("role", choices=("setup", "measure", "trace"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload]
    if args.role == "setup":
        out = {"timings": set_up(spec)[2]}
    elif args.role == "measure":
        out = measure(spec, args.seed, args.seconds)
    else:
        out = trace(spec, args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
