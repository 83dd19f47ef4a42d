import copy
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
import scipy

from gobmd import harness
from gobmd.harness import BLAS_THREAD_VARS, ExperimentConfig, run_experiment, write_results
from gobmd.solver import SolverOptions


def strip_wall_time(rows: list[dict]) -> list[dict]:
    """Rows with timing fields removed, for determinism comparisons."""
    drop = {"wall_time", "mean_wall_time", "median_wall_time"}
    return [{k: v for k, v in row.items() if k not in drop} for row in rows]


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
    with pytest.raises(ValueError, match="ratios must be a non-empty list"):
        small_cfg(experiment="phase-grid", n_antennas=None, ratios=None)
    # each sweep refuses the field it would ignore, so the metadata never records it
    with pytest.raises(ValueError, match="n_antennas must be None for phase-grid, got 999"):
        small_cfg(experiment="phase-grid", n_antennas=999, ratios=[2])
    for experiment in ("ber-sweep", "runtime-sweep", "ratio-sweep"):
        with pytest.raises(ValueError, match=f"ratios must be None for {experiment}, got \\[7\\]"):
            small_cfg(experiment=experiment, detectors=["gobmd"], snr_db=[10.0], ratios=[7])
    with pytest.raises(ValueError):
        small_cfg(experiment="what")
    with pytest.raises(ValueError):
        small_cfg(n_antennas=None)
    with pytest.raises(ValueError, match="phase-grid uses a single k_users value as the base"):
        small_cfg(experiment="phase-grid", n_antennas=None, ratios=[2], k_users=[2, 3])
    # a repeated axis value would run its points twice and merge them into one row
    for repeated in (
        dict(k_users=[2, 2]),
        dict(snr_db=[10.0, 10.0]),
        dict(detectors=["zf", "zf"]),
        dict(experiment="runtime-sweep", k_users=[2, 2], snr_db=[10.0]),
        dict(experiment="phase-grid", n_antennas=None, ratios=[2, 2]),
    ):
        with pytest.raises(ValueError, match="repeated"):
            small_cfg(**repeated)


def test_ber_sweep_paired_and_complete():
    res = run_experiment(small_cfg())
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
    # scipy computes every objective (log_ndtr) and every zero-forcing seed (lstsq)
    assert res.metadata["versions"]["scipy"] == scipy.__version__


def test_ber_summary_rows():
    res = run_experiment(small_cfg())
    assert len(res.summary) == 2 * 3
    for row in res.summary:
        assert row["trials"] == 4
        assert 0.0 <= row["mean_ber"] <= 1.0


def test_records_leave_counters_a_detector_does_not_keep_empty():
    res = run_experiment(small_cfg(detectors=["gobmd", "incremental", "exhaustive", "zf"], trials=2))
    counters = ("nodes", "cuts", "ratio_s_over_c", "ties")
    for row in res.records:
        got = {c: row[c] for c in counters}
        if row["detector"] == "zf":
            assert got == dict.fromkeys(counters)
        elif row["detector"] == "exhaustive":
            # the oracle evaluates every sign vector and adds no cut
            assert (got["nodes"], got["cuts"], got["ratio_s_over_c"]) == (2 ** (2 * row["k_users"]), None, None)
            assert type(got["ties"]) is int and got["ties"] >= 1
        else:
            assert type(got["nodes"]) is int and type(got["cuts"]) is int and got["cuts"] >= 0
            assert isinstance(got["ratio_s_over_c"], float) and got["ties"] is None


def test_reproducibility():
    a = run_experiment(small_cfg())
    b = run_experiment(small_cfg())
    assert strip_wall_time(a.records) == strip_wall_time(b.records)
    assert strip_wall_time(a.summary) == strip_wall_time(b.summary)


def test_workers_do_not_change_output():
    a = run_experiment(small_cfg(trials=3))
    b = run_experiment(small_cfg(trials=3, workers=2))
    assert strip_wall_time(a.records) == strip_wall_time(b.records)


def test_parallel_sweep_keeps_records_and_blas_threads(monkeypatch):
    # Each worker must run single-threaded BLAS: with the library default, two
    # workers on two cores oversubscribe and every trial's wall_time inflates.
    # Spawned workers read the variables when they import numpy, so they must
    # be set when the pool starts.
    started = []
    real_pool = harness.ProcessPoolExecutor

    def recording_pool(*args, **kwargs):
        started.append({k: os.environ.get(k) for k in BLAS_THREAD_VARS})
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", recording_pool)
    cfg = dict(experiment="runtime-sweep", n_antennas=18, k_users=[4], snr_db=[10.0], trials=8, detectors=["gobmd"])
    env = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    serial = run_experiment(small_cfg(**cfg))
    assert started == []
    parallel = run_experiment(small_cfg(**cfg, workers=2))
    assert started == [dict.fromkeys(BLAS_THREAD_VARS, "1")]
    assert {k: os.environ.get(k) for k in BLAS_THREAD_VARS} == env  # restored
    assert strip_wall_time(parallel.records) == strip_wall_time(serial.records)
    assert parallel.metadata["blas_threads"] == dict.fromkeys(BLAS_THREAD_VARS, "1")
    assert serial.metadata["blas_threads"] == env
    assert parallel.metadata["cpu_count"] == os.cpu_count()
    # a variable that was set is set back to its value
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    run_experiment(small_cfg(**cfg, workers=2))
    assert started[-1] == dict.fromkeys(BLAS_THREAD_VARS, "1")
    assert os.environ["OMP_NUM_THREADS"] == "2"


def test_runtime_sweep_shape():
    cfg = small_cfg(
        experiment="runtime-sweep",
        k_users=[2, 3],
        snr_db=[10.0],
        trials=3,
        detectors=["gobmd", "exhaustive"],
    )
    res = run_experiment(cfg)
    assert [(row["k_users"], row["detector"]) for row in res.summary] == [
        (2, "gobmd"),
        (2, "exhaustive"),
        (3, "gobmd"),
        (3, "exhaustive"),
    ]
    for row in res.summary:
        assert row["median_wall_time"] > 0.0
        assert row["trials"] == 3
    single = run_experiment(small_cfg(experiment="runtime-sweep", k_users=[2], snr_db=[10.0], trials=2))
    assert len(single.summary) == len(single.metadata["config"]["detectors"])


def test_runtime_sweep_rejects_multi_snr():
    with pytest.raises(ValueError):
        run_experiment(small_cfg(experiment="runtime-sweep", snr_db=[0.0, 10.0]))


def test_ratio_sweep_floor_and_shape():
    # zf records are kept but not summarized: the ratio is a gobmd statistic
    cfg = small_cfg(experiment="ratio-sweep", k_users=[2, 3], snr_db=[10.0], trials=3, detectors=["gobmd", "zf"])
    res = run_experiment(cfg)
    assert len(res.records) == 2 * 3 * 2
    assert [row["k_users"] for row in res.summary] == [2, 3]
    for row in res.summary:
        k = 2 * row["k_users"]
        assert row["mean_ratio_s_over_c"] >= 2.0**-k  # at least the seed pool
        assert row["trials"] == 3
        ratios = [r["ratio_s_over_c"] for r in res.records if r["k_users"] == row["k_users"] and r["detector"] == "gobmd"]
        assert row["mean_ratio_s_over_c"] == float(np.mean(ratios))


def test_only_optimal_aggregates_optimal_trials():
    # five nodes leave a mix of optimal and node-limit trials at K = 6 and 8
    kw = dict(n_antennas=8, k_users=[3, 4], trials=4, seed=7, detectors=["gobmd"], options=SolverOptions(node_limit=5))
    res = run_experiment(small_cfg(**kw, only_optimal=True))
    every = run_experiment(small_cfg(**kw))
    assert {r["status"] for r in res.records} == {"optimal", "node-limit"}
    assert strip_wall_time(res.records) == strip_wall_time(every.records)
    for row, row_all in zip(res.summary, every.summary):
        point = [r for r in res.records if (r["k_users"], r["snr_db"]) == (row["k_users"], row["snr_db"])]
        bers = [r["ber"] for r in point if r["status"] == "optimal"]
        assert row["trials"] == len(bers)
        assert row["mean_ber"] == (float(np.mean(bers)) if bers else None)
        assert row_all["trials"] == 4
        assert row_all["mean_ber"] == float(np.mean([r["ber"] for r in point]))


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
    res = run_experiment(cfg)
    assert len(res.summary) == 4
    for row in res.summary:
        assert 0.0 <= row["mean_ber"] <= 1.0
        assert row["trials"] == 3
    # n_antennas scales with the ratio
    n_ants = {r["ratio_n_over_k"]: r["n_antennas"] for r in res.records}
    assert n_ants == {2: 4, 4: 8}


def test_phase_grid_single_cell_matches_ber_sweep():
    phase = run_experiment(
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
    ber = run_experiment(small_cfg(n_antennas=6, detectors=["gobmd"], snr_db=[10.0]))
    assert phase.summary[0]["mean_ber"] == ber.summary[0]["mean_ber"]


def test_run_experiment_dispatch():
    res = run_experiment(small_cfg(trials=2, snr_db=[10.0], detectors=["zf"]))
    assert res.records and res.records[0]["detector"] == "zf"
    assert res.records[0]["status"] == "heuristic"


def test_write_results_csv(tmp_path):
    path = str(tmp_path / "out.csv")
    rows = [{"a": 1, "b": 0.1, "c": None, "d": "x"}]
    write_results(rows, path, "csv")
    text = Path(path).read_text().splitlines()
    assert text[0] == "a,b,c,d"
    assert text[1] == "1,0.1,,x"


def test_write_results_keeps_whole_doubles_doubles(tmp_path):
    # 10.0 and 0.0 are written as doubles, so they read back as floats, not as JSON ints
    rows = [{"snr_db": 10.0, "ber": 0.0, "trials": 4}]
    path = tmp_path / "out.json"
    write_results(rows, str(path), "json")
    back = json.loads(path.read_text())["rows"]
    assert back == rows and [type(v) for v in back[0].values()] == [float, float, int]
    write_results(rows, str(path), "csv")
    assert path.read_text().splitlines() == ["snr_db,ber,trials", "10.0,0.0,4"]


def test_write_results_refuse_non_finite_doubles(tmp_path):
    path = tmp_path / "out"
    for fmt in ("csv", "json"):
        for v in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=re.escape(f"cannot write non-finite value {v} at rows[0]['v']")):
                write_results([{"a": 1, "v": v}], str(path), fmt)
            with pytest.raises(ValueError, match=re.escape(f"cannot write non-finite value {v} at rows[1]['v']")):
                write_results([{"a": 1, "v": 0.5}, {"a": 2, "v": v}], str(path), fmt)
    # in the metadata too, at any depth
    with pytest.raises(ValueError, match=re.escape("cannot write non-finite value nan at metadata['sigma']")):
        write_results([], str(path), "json", metadata={"sigma": float("nan")})
    with pytest.raises(ValueError, match=re.escape("cannot write non-finite value inf at metadata['config']['snr_db'][1]")):
        write_results([{"a": 1}], str(path), "json", metadata={"config": {"snr_db": [0.0, float("inf")]}})
    assert not path.exists() and list(tmp_path.iterdir()) == []


def test_write_results_empty_csv(tmp_path):
    # a table's columns are its rows' keys, so a table with no rows has an empty header
    path = str(tmp_path / "empty.csv")
    write_results([], path, "csv")
    assert Path(path).read_text().splitlines() == [""]


def test_write_results_names_a_missing_directory(tmp_path):
    path = str(tmp_path / "missing" / "out.csv")
    for fmt in ("csv", "json"):
        with pytest.raises(OSError, match="failed writing results to " + re.escape(path)):
            write_results([{"a": 1}], path, fmt)
    assert not (tmp_path / "missing").exists()


def test_write_results_json_roundtrip(tmp_path):
    path = str(tmp_path / "out.json")
    rows = [{"v": 0.1 + 0.2, "n": 3, "s": "t"}, {"v": 1e-17, "n": 0, "s": ""}]
    meta = {"seed": 7, "sigma": 0.6324555320336759}
    write_results(rows, path, "json", metadata=meta)
    doc = json.loads(Path(path).read_text())
    assert doc["metadata"]["seed"] == 7
    assert doc["metadata"]["sigma"] == 0.6324555320336759
    assert doc["rows"] == rows  # bit-exact floats


def test_write_results_json_layout(tmp_path):
    path = str(tmp_path / "out.json")
    rows = [{"s": "é\n", "n": -3, "b": True, "z": None, "e": [], "d": {}, "l": [[1, 2], {"k": 0}]}]
    meta = {"config": {"k_users": [2, 3], "options": {}}, "tags": ("a",)}
    write_results(rows, path, "json", metadata=meta)
    expected = json.dumps({"metadata": meta, "rows": rows}, indent=1) + "\n"
    assert Path(path).read_text() == expected  # without floats: json.dumps byte for byte
    write_results([{"v": 0.1, "w": -0.0}], path, "json")
    assert '"v": 0.1,' in Path(path).read_text()
    with pytest.raises(ValueError):  # non-finite doubles are refused
        write_results([{"v": float("nan")}], path, "json")


def test_write_results_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        write_results([], str(tmp_path / "x"), "xml")


def test_options_travel_into_metadata():
    cfg = small_cfg(options=SolverOptions(node_limit=50), trials=2, snr_db=[10.0], detectors=["gobmd"])
    res = run_experiment(cfg)
    assert res.metadata["config"]["options"]["node_limit"] == 50
