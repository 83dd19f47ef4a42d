"""Seeded Monte-Carlo experiment runner: BER, runtime, cut-ratio, and phase-grid sweeps.

Every detector in a sweep sees byte-identical instances per trial index
(substream seeded by (seed, trial)), so comparisons are paired. Result tables
are assembled in trial order regardless of worker count, and files carry a
metadata block sufficient to re-run the experiment byte-identically.
"""

from __future__ import annotations

import csv
import json
import multiprocessing
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from . import __version__
from .baselines import exhaustive_search, zero_forcing
from .loss import LossContext, f_obj
from .model import RNG_IDENTITY, GenConfig, RealInstance, format_double, generate_instance
from .solver import SolverOptions, solve_gobmd, solve_incremental

EXPERIMENTS = ("ber-sweep", "runtime-sweep", "ratio-sweep", "phase-grid")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

RECORD_COLUMNS = [
    "k_users",
    "n_antennas",
    "snr_db",
    "trial",
    "seed",
    "detector",
    "ber",
    "objective",
    "wall_time",
    "nodes",
    "cuts",
    "ratio_s_over_c",
    "status",
    "ties",
]


@dataclass
class ExperimentConfig:
    experiment: str
    n_antennas: int | None
    k_users: list[int]
    snr_db: list[float]
    trials: int
    seed: int
    detectors: list[str] = field(default_factory=lambda: ["gobmd"])
    options: SolverOptions = field(default_factory=SolverOptions)
    ratios: list[int] | None = None  # phase-grid: N/K values, n_antennas = ratio * k
    workers: int = 1
    only_optimal: bool = False  # aggregate BER over optimal-status trials only

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.detectors:
            raise ValueError("detector list must be non-empty")
        for d in self.detectors:
            if d not in DETECTORS:
                raise ValueError(f"unknown detector {d!r}")
        if not self.k_users:
            raise ValueError("k_users must be non-empty")
        if self.experiment == "ratio-sweep" and "gobmd" not in self.detectors:
            raise ValueError("ratio-sweep requires the gobmd detector")
        if self.experiment == "phase-grid":
            if not self.ratios:
                raise ValueError("phase-grid requires a non-empty ratios axis")
            if len(self.k_users) != 1:
                raise ValueError("phase-grid uses a single k_users value as the base")
        elif self.n_antennas is None:
            raise ValueError("n_antennas is required")
        if not self.snr_db:
            raise ValueError("snr_db must be non-empty")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["options"] = self.options.to_dict()
        return d


@dataclass
class TrialRecord:
    trial: int
    seed: int
    detector: str
    ber: float | None
    objective: float | None
    wall_time: float
    nodes: int
    cuts: int
    ratio_s_over_c: float | None
    status: str
    ties: int | None = None


@dataclass
class ExperimentResult:
    records: list[dict]
    summary: list[dict]
    metadata: dict
    record_columns: list[str]
    summary_columns: list[str]


def _exhaustive_report(instance: RealInstance, opts: SolverOptions) -> dict:
    t0 = time.perf_counter()
    res = exhaustive_search(instance)
    wall = time.perf_counter() - t0
    return {
        "method": "exhaustive",
        "status": "optimal",
        "x_star": [int(v) for v in res.x_opt],
        "objective": res.objective,
        "nodes_processed": res.n_evaluated,
        "ties": res.ties,
        "wall_time": wall,
        "options": opts.to_dict(),
    }


def _zf_report(instance: RealInstance, opts: SolverOptions) -> dict:
    t0 = time.perf_counter()
    x = zero_forcing(instance)
    wall = time.perf_counter() - t0
    return {
        "method": "zf",
        "status": "heuristic",
        "x_star": [int(v) for v in x],
        "objective": f_obj(LossContext.from_instance(instance), x),
        "wall_time": wall,
        "options": opts.to_dict(),
    }


# detector name -> callable(instance, opts) returning the JSON report that
# `gobmd solve` prints; wall_time covers the solve only
DETECTORS = {
    "gobmd": lambda instance, opts: solve_gobmd(instance, opts).to_dict(),
    "incremental": lambda instance, opts: solve_incremental(instance, opts).to_dict(),
    "exhaustive": _exhaustive_report,
    "zf": _zf_report,
}


def solve_with_detector(detector: str, instance: RealInstance, opts: SolverOptions) -> TrialRecord:
    """Run one detector on one instance and condense its report into a record."""
    if detector not in DETECTORS:
        raise ValueError(f"unknown detector {detector!r}")
    report = DETECTORS[detector](instance, opts)
    x = report["x_star"]
    ber = None
    if x is not None and instance.x_true is not None:
        ber = float(np.mean(instance.x_true != np.asarray(x, dtype=float)))
    return TrialRecord(
        trial=-1,
        seed=-1,
        detector=detector,
        ber=ber,
        objective=report["objective"],
        wall_time=report["wall_time"],
        nodes=report.get("nodes_processed", 0),
        cuts=report.get("cuts_added", 0),
        ratio_s_over_c=report.get("ratio_s_over_c"),
        status=report["status"],
        ties=report.get("ties"),
    )


def _trial_task(args):
    point, gen_cfg, trial, detectors, opts = args
    instance = generate_instance(gen_cfg, trial)
    rows = []
    for det in detectors:
        rec = solve_with_detector(det, instance, opts)
        rec.trial = trial
        rec.seed = gen_cfg.seed
        row = dict(point)
        row.update(asdict(rec))
        rows.append(row)
    return rows


def _run_points(cfg: ExperimentConfig, points: list[tuple[dict, GenConfig]]) -> list[dict]:
    tasks = [
        (point, gen_cfg, trial, tuple(cfg.detectors), cfg.options)
        for point, gen_cfg in points
        for trial in range(cfg.trials)
    ]
    if cfg.workers == 1:
        results = map(_trial_task, tasks)
    else:
        # One BLAS thread per worker, or the workers' BLAS pools oversubscribe
        # the cores. Spawned workers read these when they import numpy.
        saved = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
        os.environ.update(_worker_blas_env(cfg.workers))
        try:
            with ProcessPoolExecutor(cfg.workers, mp_context=multiprocessing.get_context("spawn")) as pool:
                results = list(pool.map(_trial_task, tasks))
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
    records = []
    for rows in results:
        records.extend(rows)
    return records


def _worker_blas_env(workers: int) -> dict:
    """BLAS thread variables the trials run under."""
    if workers == 1:
        return {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    return dict.fromkeys(BLAS_THREAD_VARS, "1")


def _metadata(cfg: ExperimentConfig) -> dict:
    return {
        "config": cfg.to_dict(),
        "seed": cfg.seed,
        "rng": RNG_IDENTITY,
        "snr_calibration": "expected-energy-ratio",
        "versions": {
            "gobmd": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "cpu_count": os.cpu_count(),
        "blas_threads": _worker_blas_env(cfg.workers),
    }


def _single_snr_points(cfg: ExperimentConfig, experiment: str) -> list[tuple[dict, GenConfig]]:
    """One point per user count at the config's only SNR value."""
    if len(cfg.snr_db) != 1:
        raise ValueError(f"{experiment} uses a single SNR value")
    snr = cfg.snr_db[0]
    return [
        ({"k_users": k, "n_antennas": cfg.n_antennas, "snr_db": snr}, GenConfig(cfg.n_antennas, k, snr, cfg.seed))
        for k in cfg.k_users
    ]


def _mean_ber_rows(cfg, records, keys) -> list[dict]:
    bers = {}  # (point..., detector) -> BERs, in first-seen order
    for row in records:
        group = bers.setdefault(tuple(row[k] for k in keys) + (row["detector"],), [])
        if row["ber"] is not None and not (cfg.only_optimal and row["status"] != "optimal"):
            group.append(row["ber"])
    out = []
    for key, values in bers.items():
        summary = dict(zip(keys, key[:-1]))
        summary["detector"] = key[-1]
        summary["mean_ber"] = float(np.mean(values)) if values else None
        summary["trials"] = len(values)
        out.append(summary)
    return out


def run_ber_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    """Mean BER per (k, SNR, detector) with instances paired across detectors."""
    points = []
    for k in cfg.k_users:
        for snr in cfg.snr_db:
            point = {"k_users": k, "n_antennas": cfg.n_antennas, "snr_db": snr}
            points.append((point, GenConfig(cfg.n_antennas, k, snr, cfg.seed)))
    records = _run_points(cfg, points)
    summary = _mean_ber_rows(cfg, records, ["k_users", "snr_db"])
    return ExperimentResult(
        records=records,
        summary=summary,
        metadata=_metadata(cfg),
        record_columns=RECORD_COLUMNS,
        summary_columns=["k_users", "snr_db", "detector", "mean_ber", "trials"],
    )


def run_runtime_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    """Mean/median solve time per (k, detector) at a single SNR."""
    records = _run_points(cfg, _single_snr_points(cfg, "runtime-sweep"))
    summary = []
    for k in cfg.k_users:
        for det in cfg.detectors:
            rows = [r for r in records if r["k_users"] == k and r["detector"] == det]
            times = [r["wall_time"] for r in rows]
            summary.append(
                {
                    "k_users": k,
                    "detector": det,
                    "mean_wall_time": float(np.mean(times)),
                    "median_wall_time": float(statistics.median(times)),
                    "trials": len(rows),
                }
            )
    return ExperimentResult(
        records=records,
        summary=summary,
        metadata=_metadata(cfg),
        record_columns=RECORD_COLUMNS,
        summary_columns=["k_users", "detector", "mean_wall_time", "median_wall_time", "trials"],
    )


def run_ratio_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    """Mean terminal |S|/|C| of the global solver per k."""
    records = _run_points(cfg, _single_snr_points(cfg, "ratio-sweep"))
    summary = []
    for k in cfg.k_users:
        rows = [r for r in records if r["k_users"] == k and r["detector"] == "gobmd"]
        summary.append(
            {
                "k_users": k,
                "mean_ratio_s_over_c": float(np.mean([r["ratio_s_over_c"] for r in rows])),
                "trials": len(rows),
            }
        )
    return ExperimentResult(
        records=records,
        summary=summary,
        metadata=_metadata(cfg),
        record_columns=RECORD_COLUMNS,
        summary_columns=["k_users", "mean_ratio_s_over_c", "trials"],
    )


def run_phase_grid(cfg: ExperimentConfig) -> ExperimentResult:
    """Mean BER over the (N/K, SNR) grid; antenna count scales with the ratio."""
    k = cfg.k_users[0]
    points = []
    for ratio in cfg.ratios:
        n_ant = ratio * k
        for snr in cfg.snr_db:
            point = {"ratio_n_over_k": ratio, "k_users": k, "n_antennas": n_ant, "snr_db": snr}
            points.append((point, GenConfig(n_ant, k, snr, cfg.seed)))
    records = _run_points(cfg, points)
    summary = _mean_ber_rows(cfg, records, ["ratio_n_over_k", "snr_db"])
    record_columns = ["ratio_n_over_k"] + RECORD_COLUMNS
    return ExperimentResult(
        records=records,
        summary=summary,
        metadata=_metadata(cfg),
        record_columns=record_columns,
        summary_columns=["ratio_n_over_k", "snr_db", "detector", "mean_ber", "trials"],
    )


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    return {
        "ber-sweep": run_ber_sweep,
        "runtime-sweep": run_runtime_sweep,
        "ratio-sweep": run_ratio_sweep,
        "phase-grid": run_phase_grid,
    }[cfg.experiment](cfg)


# ---------------------------------------------------------------------------
# Result persistence: CSV with 17-significant-digit doubles, JSON mirroring the
# same rows plus a metadata block. Writes are atomic (temp file + rename).


def _json17(o, level: int = 0) -> str:
    """JSON text laid out as ``json.dumps(o, indent=1)``, with doubles at 17 significant digits."""
    if isinstance(o, float):
        return format_double(o)  # rejects non-finite values
    if isinstance(o, dict):
        brackets = "{}"
        keys = [k if isinstance(k, str) else _json17(k) for k in o]  # as json does: 1.5 -> "1.5"
        items = [f"{json.dumps(k)}: {_json17(v, level + 1)}" for k, v in zip(keys, o.values())]
    elif isinstance(o, (list, tuple)):
        brackets = "[]"
        items = [_json17(v, level + 1) for v in o]
    else:
        return json.dumps(o)  # str, int, bool, None; anything else raises TypeError
    if not items:
        return brackets
    pad = "\n" + " " * (level + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + " " * level + brackets[1]


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return format_double(v)
    return str(v)


def write_results(rows: list[dict], path: str, fmt: str = "csv", metadata: dict | None = None, columns=None):
    """Persist a result table; CSV gets a header row, JSON adds the metadata block."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    tmp = path + ".tmp"
    try:
        if fmt == "csv":
            if columns is None:
                columns = list(rows[0].keys()) if rows else []
            with open(tmp, "w", newline="") as f:
                writer = csv.writer(f)
                writer.writerow(columns)
                for row in rows:
                    writer.writerow([_csv_cell(row.get(c)) for c in columns])
        else:
            doc = {"metadata": metadata or {}, "rows": rows}
            with open(tmp, "w") as f:
                f.write(_json17(doc))
                f.write("\n")
        os.replace(tmp, path)
    except OSError as e:
        raise OSError(f"failed writing results to {path}: {e}") from e


def read_results(path: str) -> dict:
    """Read back a JSON results file written by write_results."""
    with open(path) as f:
        return json.load(f)


def strip_wall_time(rows: list[dict]) -> list[dict]:
    """Rows with timing fields removed, for determinism comparisons."""
    drop = {"wall_time", "mean_wall_time", "median_wall_time"}
    return [{k: v for k, v in row.items() if k not in drop} for row in rows]
