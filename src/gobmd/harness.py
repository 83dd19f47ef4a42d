"""Seeded Monte-Carlo experiment runner: BER, runtime, cut-ratio, and phase-grid sweeps.

Every detector in a sweep sees byte-identical instances per trial index
(substream seeded by (seed, trial)), so comparisons are paired. Result tables
are assembled in trial order regardless of worker count, and files carry a
metadata block sufficient to re-run the experiment byte-identically.
"""

from __future__ import annotations

import csv
import io
import json
import math
import multiprocessing
import os
import statistics
import sys
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from functools import partial

import numpy as np
import scipy

from . import __version__
from .baselines import exhaustive_search, zero_forcing
from .loss import LossContext, f_obj
from .model import (
    RNG_IDENTITY, GenConfig, RealInstance, bit_error_rate, generate_instance, write_atomically,
)
from .solver import SolverOptions, solve_gobmd, solve_incremental

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FORMATS = ("csv", "json")


def _is_count(v) -> bool:
    return type(v) is int and v >= 1


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
        # a config file's JSON values reach these fields as they are, so each type is checked here
        sweep = SWEEPS.get(self.experiment)
        if sweep is None:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if type(self.only_optimal) is not bool:
            raise ValueError(f"only_optimal must be true or false, got {self.only_optimal!r}")
        items = {
            "detectors": ("names from " + ", ".join(DETECTORS), lambda v: isinstance(v, str) and v in DETECTORS),
            "k_users": ("integers >= 1", _is_count),
            "snr_db": ("finite numbers", lambda v: type(v) in (int, float) and math.isfinite(v)),
        }
        if sweep.takes_ratios:
            items["ratios"] = ("integers >= 1", _is_count)
        for name, (kind, ok) in items.items():
            values = getattr(self, name)
            if not isinstance(values, list) or not values or not all(map(ok, values)):
                raise ValueError(f"{name} must be a non-empty list of {kind}, got {values!r}")
            # a repeated value would run its points twice and merge them into one summary row
            if len(set(values)) != len(values):
                raise ValueError(f"{name} has repeated values: {values}")
        self.snr_db = [float(v) for v in self.snr_db]  # JSON 10 and 10.0 are one SNR, written as a double
        for k in self.k_users:
            for snr in self.snr_db:
                GenConfig(k, k, snr, 0)  # refuses an SNR the calibration cannot take, before any trial runs
        # the field the sweep does not read stays None, so the metadata never records an ignored value
        unused = "n_antennas" if sweep.takes_ratios else "ratios"
        if getattr(self, unused) is not None:
            raise ValueError(f"{unused} must be None for {self.experiment}, got {getattr(self, unused)!r}")
        counts = {"trials": 1, "seed": 0, "workers": 1}
        if not sweep.takes_ratios:
            counts["n_antennas"] = max(self.k_users)  # GenConfig needs n_antennas >= n_users
        for name, least in counts.items():
            v = getattr(self, name)
            if type(v) is not int or v < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")
        if sweep.detector is not None and sweep.detector not in self.detectors:
            raise ValueError(f"{self.experiment} requires the {sweep.detector} detector")
        if sweep.takes_ratios and len(self.k_users) != 1:
            raise ValueError(f"{self.experiment} uses a single k_users value as the base")
        if sweep.single_snr and len(self.snr_db) != 1:
            raise ValueError(f"{self.experiment} uses a single SNR value")


@dataclass
class ExperimentResult:
    records: list[dict]
    summary: list[dict]
    metadata: dict


def _baseline_report(method: str, status: str, detect, instance: RealInstance, opts: SolverOptions) -> dict:
    """The report of a detector that does not search the tree.

    ``detect(instance)`` returns the detector's sign vector and its own
    counters. The report has the ``SolveReport`` keys that apply, in its
    order, with the counters before ``wall_time`` and ``objective`` as f at
    the sign vector. ``wall_time`` covers ``detect``.
    """
    t0 = time.perf_counter()
    x, counters = detect(instance)
    wall = time.perf_counter() - t0
    return {
        "method": method,
        "status": status,
        "x_star": [int(v) for v in x],
        "objective": f_obj(LossContext.from_instance(instance), x),
        **counters,
        "wall_time": wall,
        "options": asdict(opts),
    }


def _oracle(instance: RealInstance):
    res = exhaustive_search(instance)
    return res.x_opt, {"nodes_processed": res.n_evaluated, "ties": res.ties}


# detector name -> callable(instance, opts) returning the JSON report that
# `gobmd solve` prints; wall_time covers the solve only
DETECTORS = {
    "gobmd": lambda instance, opts: solve_gobmd(instance, opts).to_dict(),
    "incremental": lambda instance, opts: solve_incremental(instance, opts).to_dict(),
    "exhaustive": partial(_baseline_report, "exhaustive", "optimal", _oracle),
    "zf": partial(_baseline_report, "zf", "heuristic", lambda instance: (zero_forcing(instance), {})),
}


def _trial_task(args):
    """One record per detector on the point's instance of this trial.

    A counter that the detector does not keep (``nodes``, ``cuts``,
    ``ratio_s_over_c``, ``ties``) is None, an empty CSV cell.
    """
    point, gen_cfg, trial, detectors, opts = args
    instance = generate_instance(gen_cfg, trial)
    rows = []
    for det in detectors:
        report = DETECTORS[det](instance, opts)
        x = report["x_star"]
        ber = None if x is None or instance.x_true is None else bit_error_rate(instance.x_true, x)
        rows.append(
            {
                **point,
                "trial": trial,
                "seed": gen_cfg.seed,
                "detector": det,
                "ber": ber,
                "objective": report["objective"],
                "wall_time": report["wall_time"],
                "nodes": report.get("nodes_processed"),
                "cuts": report.get("cuts_added"),
                "ratio_s_over_c": report.get("ratio_s_over_c"),
                "status": report["status"],
                "ties": report.get("ties"),
            }
        )
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
        "config": asdict(cfg),
        "seed": cfg.seed,
        "rng": RNG_IDENTITY,
        "snr_calibration": "expected-energy-ratio",
        "versions": {
            "gobmd": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "cpu_count": os.cpu_count(),
        "blas_threads": _worker_blas_env(cfg.workers),
    }


def _ber_stats(rows, cfg) -> dict:
    bers = [r["ber"] for r in rows if r["ber"] is not None and not (cfg.only_optimal and r["status"] != "optimal")]
    return {"mean_ber": float(np.mean(bers)) if bers else None, "trials": len(bers)}


def _time_stats(rows, cfg) -> dict:
    times = [r["wall_time"] for r in rows]
    return {
        "mean_wall_time": float(np.mean(times)),
        "median_wall_time": float(statistics.median(times)),
        "trials": len(rows),
    }


def _ratio_stats(rows, cfg) -> dict:
    return {"mean_ratio_s_over_c": float(np.mean([r["ratio_s_over_c"] for r in rows])), "trials": len(rows)}


@dataclass(frozen=True)
class Sweep:
    """One experiment: its CLI subcommand and how its records are summarized.

    Records are grouped by the ``group_by`` keys in first-seen order; each group
    gives one summary row of those keys followed by ``stats(rows, cfg)``, whose
    keys name the statistics columns. With ``detector`` set, only that
    detector's records are summarized.
    """

    command: str
    help: str
    group_by: tuple[str, ...]
    stats: Callable[[list[dict], ExperimentConfig], dict]
    single_snr: bool = False
    takes_ratios: bool = False  # points span ratios x SNR, with n_antennas = ratio * k
    detector: str | None = None


SWEEPS = {
    "ber-sweep": Sweep("ber", "BER versus SNR sweep", ("k_users", "snr_db", "detector"), _ber_stats),
    "runtime-sweep": Sweep(
        "runtime", "solve-time versus user-count sweep", ("k_users", "detector"), _time_stats, single_snr=True
    ),
    "ratio-sweep": Sweep(
        "ratio", "terminal cut-pool ratio versus user-count sweep", ("k_users",), _ratio_stats,
        single_snr=True, detector="gobmd",
    ),
    "phase-grid": Sweep(
        "phase", "BER over the (N/K, SNR) grid", ("ratio_n_over_k", "snr_db", "detector"), _ber_stats, takes_ratios=True
    ),
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the sweep's points (ratio x k x SNR) and summarize them per ``SWEEPS`` entry."""
    sweep = SWEEPS[cfg.experiment]
    points = []
    for ratio in cfg.ratios if sweep.takes_ratios else [None]:
        for k in cfg.k_users:
            n_ant = cfg.n_antennas if ratio is None else ratio * k
            for snr in cfg.snr_db:
                point = {} if ratio is None else {"ratio_n_over_k": ratio}
                point.update(k_users=k, n_antennas=n_ant, snr_db=snr)
                points.append((point, GenConfig(n_ant, k, snr, cfg.seed)))
    records = _run_points(cfg, points)
    groups = {}  # group key -> records, in first-seen order
    for row in records:
        if sweep.detector in (None, row["detector"]):
            groups.setdefault(tuple(row[c] for c in sweep.group_by), []).append(row)
    summary = [{**dict(zip(sweep.group_by, key)), **sweep.stats(rows, cfg)} for key, rows in groups.items()]
    return ExperimentResult(records, summary, _metadata(cfg))


# ---------------------------------------------------------------------------
# Result persistence: CSV, and JSON mirroring the same rows plus a metadata
# block. Both write each double as its shortest repr, which reads back to the
# same double, and refuse non-finite ones. Writes are atomic
# (``model.write_atomically``).


def _check_finite(v, key: str):
    """Refuse the first non-finite float in ``v``, walking dicts, lists and tuples; ``key`` names ``v``."""
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"cannot write non-finite value {v} at {key}")
    items = v.items() if isinstance(v, dict) else enumerate(v) if isinstance(v, (list, tuple)) else ()
    for k, u in items:
        _check_finite(u, f"{key}[{k!r}]")


def write_results(rows: list[dict], path: str, fmt: str = "csv", metadata: dict | None = None):
    """Persist a result table; CSV gets a header row, JSON adds the metadata block."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    _check_finite(rows, "rows")
    if fmt == "csv":
        columns = list(rows[0].keys()) if rows else []
        cells = [[row.get(c) for c in columns] for row in rows]
        buf = io.StringIO(newline="")
        csv.writer(buf).writerows([columns, *cells])  # None is an empty cell
        text = buf.getvalue()
    else:
        _check_finite(metadata, "metadata")
        text = json.dumps({"metadata": metadata or {}, "rows": rows}, indent=1) + "\n"
    try:
        write_atomically(path, text)
    except OSError as e:
        raise OSError(f"failed writing results to {path}: {e}") from e
