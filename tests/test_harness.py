import copy
import json
import os

import numpy as np
import pytest

from gobmd.harness import (
    BLAS_THREAD_VARS,
    ExperimentConfig,
    read_results,
    run_ber_sweep,
    run_experiment,
    run_phase_grid,
    run_ratio_sweep,
    run_runtime_sweep,
    strip_wall_time,
    write_results,
)
from gobmd.solver import SolverOptions


def small_cfg(**kw):
    base = dict(
        experiment="ber-sweep",
        n_antennas=6,
        k_users=[2],
        snr_db=[0.0, 10.0],
        trials=4,
        seed=5,
        detectors=["gobmd", "exhaustive", "zf"],
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(trials=0)
    with pytest.raises(ValueError):
        small_cfg(detectors=[])
    with pytest.raises(ValueError):
        small_cfg(detectors=["nope"])
    with pytest.raises(ValueError):
        small_cfg(experiment="ratio-sweep", detectors=["zf"], snr_db=[10.0])
    with pytest.raises(ValueError):
        small_cfg(experiment="phase-grid", ratios=None)
    with pytest.raises(ValueError):
        small_cfg(experiment="what")
    with pytest.raises(ValueError):
        small_cfg(n_antennas=None)


def test_ber_sweep_paired_and_complete():
    res = run_ber_sweep(small_cfg())
    # every detector contributes exactly `trials` records per sweep point
    for snr in (0.0, 10.0):
        for det in ("gobmd", "exhaustive", "zf"):
            rows = [r for r in res.records if r["snr_db"] == snr and r["detector"] == det]
            assert len(rows) == 4
    # paired instances: both global solvers hit the same optimum per trial
    for snr in (0.0, 10.0):
        for t in range(4):
            by_det = {
                r["detector"]: r
                for r in res.records
                if r["snr_db"] == snr and r["trial"] == t
            }
            assert by_det["gobmd"]["objective"] == pytest.approx(
                by_det["exhaustive"]["objective"], abs=1e-6
            )
            if by_det["exhaustive"]["ties"] == 1:
                assert by_det["gobmd"]["ber"] == by_det["exhaustive"]["ber"]
    assert all(0.0 <= r["ber"] <= 1.0 for r in res.records)
    assert res.metadata["seed"] == 5
    assert res.metadata["config"]["trials"] == 4


def test_ber_summary_rows():
    res = run_ber_sweep(small_cfg())
    assert len(res.summary) == 2 * 3
    for row in res.summary:
        assert row["trials"] == 4
        assert 0.0 <= row["mean_ber"] <= 1.0


def test_reproducibility():
    a = run_ber_sweep(small_cfg())
    b = run_ber_sweep(small_cfg())
    assert strip_wall_time(a.records) == strip_wall_time(b.records)
    assert strip_wall_time(a.summary) == strip_wall_time(b.summary)


def test_workers_do_not_change_output():
    a = run_ber_sweep(small_cfg(trials=3))
    b = run_ber_sweep(small_cfg(trials=3, workers=2))
    assert strip_wall_time(a.records) == strip_wall_time(b.records)


def test_parallel_sweep_keeps_records_and_trial_times():
    # Each worker must run single-threaded BLAS: with the library default, two
    # workers on two cores oversubscribe and every trial's wall_time inflates.
    cfg = dict(experiment="runtime-sweep", n_antennas=18, k_users=[4], snr_db=[10.0], trials=8, detectors=["gobmd"])
    env = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    serial = run_runtime_sweep(small_cfg(**cfg))
    parallel = run_runtime_sweep(small_cfg(**cfg, workers=2))
    assert {k: os.environ.get(k) for k in BLAS_THREAD_VARS} == env  # restored
    assert strip_wall_time(parallel.records) == strip_wall_time(serial.records)
    serial_s = sum(r["wall_time"] for r in serial.records)
    parallel_s = sum(r["wall_time"] for r in parallel.records)
    assert parallel_s <= 1.5 * serial_s, (parallel_s, serial_s)
    assert parallel.metadata["blas_threads"] == dict.fromkeys(BLAS_THREAD_VARS, "1")
    assert serial.metadata["blas_threads"] == env
    assert parallel.metadata["cpu_count"] == os.cpu_count()


def test_runtime_sweep_shape():
    cfg = small_cfg(
        experiment="runtime-sweep",
        k_users=[2, 3],
        snr_db=[10.0],
        trials=3,
        detectors=["gobmd", "exhaustive"],
    )
    res = run_runtime_sweep(cfg)
    assert len(res.summary) == 4
    for row in res.summary:
        assert row["median_wall_time"] > 0.0
        assert row["trials"] == 3
    single = run_runtime_sweep(small_cfg(experiment="runtime-sweep", k_users=[2], snr_db=[10.0], trials=2))
    assert len(single.summary) == len(single.metadata["config"]["detectors"])


def test_runtime_sweep_rejects_multi_snr():
    with pytest.raises(ValueError):
        run_runtime_sweep(small_cfg(experiment="runtime-sweep", snr_db=[0.0, 10.0]))


def test_ratio_sweep_floor_and_shape():
    cfg = small_cfg(experiment="ratio-sweep", k_users=[2, 3], snr_db=[10.0], trials=3, detectors=["gobmd"])
    res = run_ratio_sweep(cfg)
    assert len(res.summary) == 2
    for row in res.summary:
        k = 2 * row["k_users"]
        assert row["mean_ratio_s_over_c"] >= 2.0**-k  # at least the seed pool
        assert row["trials"] == 3


def test_phase_grid_cells():
    cfg = ExperimentConfig(
        experiment="phase-grid",
        n_antennas=None,
        k_users=[2],
        snr_db=[0.0, 10.0],
        trials=3,
        seed=9,
        detectors=["gobmd"],
        ratios=[2, 4],
    )
    res = run_phase_grid(cfg)
    assert len(res.summary) == 4
    for row in res.summary:
        assert 0.0 <= row["mean_ber"] <= 1.0
        assert row["trials"] == 3
    # n_antennas scales with the ratio
    n_ants = {r["ratio_n_over_k"]: r["n_antennas"] for r in res.records}
    assert n_ants == {2: 4, 4: 8}


def test_phase_grid_single_cell_matches_ber_sweep():
    phase = run_phase_grid(
        ExperimentConfig(
            experiment="phase-grid",
            n_antennas=None,
            k_users=[2],
            snr_db=[10.0],
            trials=4,
            seed=5,
            detectors=["gobmd"],
            ratios=[3],
        )
    )
    ber = run_ber_sweep(small_cfg(n_antennas=6, detectors=["gobmd"], snr_db=[10.0]))
    assert phase.summary[0]["mean_ber"] == ber.summary[0]["mean_ber"]


def test_run_experiment_dispatch():
    res = run_experiment(small_cfg(trials=2, snr_db=[10.0], detectors=["zf"]))
    assert res.records and res.records[0]["detector"] == "zf"
    assert res.records[0]["status"] == "heuristic"


def test_write_results_csv(tmp_path):
    path = str(tmp_path / "out.csv")
    rows = [{"a": 1, "b": 0.1, "c": None, "d": "x"}]
    write_results(rows, path, "csv")
    text = open(path).read().splitlines()
    assert text[0] == "a,b,c,d"
    assert text[1] == "1,0.10000000000000001,,x"


def test_write_results_empty_csv(tmp_path):
    path = str(tmp_path / "empty.csv")
    write_results([], path, "csv", columns=["x", "y"])
    assert open(path).read().splitlines() == ["x,y"]


def test_write_results_json_roundtrip(tmp_path):
    path = str(tmp_path / "out.json")
    rows = [{"v": 0.1 + 0.2, "n": 3, "s": "t"}, {"v": 1e-17, "n": 0, "s": ""}]
    meta = {"seed": 7, "sigma": 0.6324555320336759}
    write_results(rows, path, "json", metadata=meta)
    doc = read_results(path)
    assert doc["metadata"]["seed"] == 7
    assert doc["metadata"]["sigma"] == 0.6324555320336759
    assert doc["rows"] == rows  # bit-exact floats


def test_write_results_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        write_results([], str(tmp_path / "x"), "xml")


def test_options_travel_into_metadata():
    cfg = small_cfg(options=SolverOptions(eps_cut=1e-7), trials=2, snr_db=[10.0], detectors=["gobmd"])
    res = run_ber_sweep(cfg)
    assert res.metadata["config"]["options"]["eps_cut"] == 1e-7
