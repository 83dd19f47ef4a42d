import dataclasses
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

import gobmd.lp
from gobmd.cli import build_parser, main
from gobmd.model import RealInstance, save_instance


def _gen(tmp_path, name="inst.json", n_ant=6, k=2, snr=10.0, seed=3):
    path = str(tmp_path / name)
    rc = main(
        ["gen", "--n-ant", str(n_ant), "--k-users", str(k), "--snr", str(snr), "--seed", str(seed), "--out", path]
    )
    assert rc == 0
    return path


def test_gen_and_solve(tmp_path, capsys):
    inst = _gen(tmp_path)
    capsys.readouterr()
    report = tmp_path / "report.json"
    rc = main(["solve", "--in", inst, "--detector", "gobmd", "--out", str(report)])
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{") :])
    assert rc == 0
    assert report.read_text() == out[out.index("{") :]  # --out writes the report printed
    assert doc["status"] == "optimal"
    assert doc["method"] == "gobmd"
    assert doc["options"]["node_limit"] == 1_000_000  # resolved config echo


def test_solve_detectors_agree(tmp_path, capsys):
    inst = _gen(tmp_path)
    capsys.readouterr()
    objs = {}
    for det in ("gobmd", "incremental", "exhaustive"):
        rc = main(["solve", "--in", inst, "--detector", det])
        assert rc == 0
        out = capsys.readouterr().out
        objs[det] = json.loads(out[out.index("{") :])["objective"]
    assert objs["gobmd"] == pytest.approx(objs["exhaustive"], abs=1e-6)
    assert objs["incremental"] == pytest.approx(objs["exhaustive"], abs=1e-6)


def test_solve_zf_heuristic(tmp_path, capsys):
    inst = _gen(tmp_path)
    capsys.readouterr()
    rc = main(["solve", "--in", inst, "--detector", "zf"])
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{") :])
    assert rc == 0
    assert doc["status"] == "heuristic"
    assert set(doc["x_star"]) <= {-1, 1}


def test_solve_deterministic_modulo_wall_time(tmp_path, capsys):
    inst = _gen(tmp_path)
    capsys.readouterr()
    docs = []
    for _ in range(2):
        assert main(["solve", "--in", inst]) == 0
        out = capsys.readouterr().out
        docs.append(json.loads(out[out.index("{") :]))
    for d in docs:
        d.pop("wall_time")
    assert docs[0] == docs[1]


SEARCH_KEYS = [
    "method", "status", "x_star", "objective", "lower_bound", "gap", "nodes_processed", "lp_solves",
    "lp_iterations", "bound_prunes", "cuts_added", "pool_size", "pool_capacity", "ratio_s_over_c", "wall_time",
    "options", "incumbent_history", "bound_history", "outer_lower_bounds",
]
REPORT_KEYS = {
    "gobmd": SEARCH_KEYS,
    "incremental": SEARCH_KEYS,
    "exhaustive": ["method", "status", "x_star", "objective", "nodes_processed", "ties", "wall_time", "options"],
    "zf": ["method", "status", "x_star", "objective", "wall_time", "options"],
}


def test_report_keys_and_record_columns_of_every_detector(tmp_path, capsys):
    inst = _gen(tmp_path)
    for det, keys in REPORT_KEYS.items():
        capsys.readouterr()
        assert main(["solve", "--in", inst, "--detector", det]) == 0
        out = capsys.readouterr().out
        assert list(json.loads(out[out.index("{") :])) == keys, det
    columns = [
        "k_users", "n_antennas", "snr_db", "trial", "seed", "detector", "ber", "objective", "wall_time", "nodes",
        "cuts", "ratio_s_over_c", "status", "ties",
    ]
    detectors = ",".join(REPORT_KEYS)
    for fmt in ("csv", "json"):
        rec = tmp_path / f"records.{fmt}"
        args = ["--n-ant", "4", "--k-users", "2", "--trials", "1", "--detectors", detectors, "--format", fmt]
        assert main(["ber", *args, "--out", str(tmp_path / f"ber.{fmt}"), "--records-out", str(rec)]) == 0
        if fmt == "csv":
            assert rec.read_text().splitlines()[0] == ",".join(columns)
        else:
            rows = json.loads(rec.read_text())["rows"]
            assert [r["detector"] for r in rows] == list(REPORT_KEYS)
            assert all(list(r) == columns for r in rows)


def test_solve_limit_exit_code(tmp_path):
    inst = _gen(tmp_path, n_ant=10, k=5, snr=0.0, seed=41)
    assert main(["solve", "--in", inst, "--node-limit", "1"]) == 2


def test_solve_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    real = gobmd.lp.solve_lp
    calls = []

    def failing(p, warm=None):
        calls.append(warm)
        return dataclasses.replace(real(p, warm), status="iteration-limit")

    monkeypatch.setattr(gobmd.lp, "solve_lp", failing)
    # the relaxation bound does not prune this root, so its node LP runs
    inst = _gen(tmp_path, n_ant=10, k=5, snr=0.0, seed=41)
    capsys.readouterr()
    assert main(["solve", "--in", inst]) == 2
    assert calls
    out = capsys.readouterr().out
    assert json.loads(out[out.index("{") :])["status"] == "numerical-failure"


def test_removed_search_options_are_unknown(tmp_path, capsys):
    inst = _gen(tmp_path)
    assert main(["solve", "--in", inst, "--pool-scope", "global"]) == 1
    assert main(["solve", "--in", inst, "--eps-cut", "1e-6"]) == 1
    cfg_path = tmp_path / "cfg.json"
    for key, value in (("cut_mode", "integral-only"), ("eps_prune", 1e-9)):
        cfg_path.write_text(json.dumps({"n_ant": 6, "k_users": "2", key: value}))
        capsys.readouterr()
        assert main(["ber", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]) == 1
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_invalid_limits_exit_1(tmp_path, capsys):
    inst = _gen(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "x.csv"
    # (config key, value, the setting the error names); JSON values are checked, never cast
    cases = (
        ("time_limit", "2", "time_limit"),
        ("node_limit", "5", "node_limit"),
        ("n_ant", "6", "n_antennas"),
        ("n_ant", 6.5, "n_antennas"),
        ("n_ant", 1, "n_antennas"),
        ("only_optimal", "false", "only_optimal"),
        ("trials", 2.9, "trials"),
        ("trials", "5", "trials"),
        ("workers", 1.5, "workers"),
        ("k_users", [2.7], "k_users"),
        ("k_users", "2,x", "k_users"),
        ("seed", True, "seed"),
        ("seed", -1, "seed"),
        ("format", "xml", "format"),
        ("records_out", 5, "records_out"),
        ("records_out", str(tmp_path / "missing" / "r.csv"), "records_out"),
        ("records_out", str(tmp_path), "records_out"),
    )
    for key, value, name in cases:
        cfg_path.write_text(json.dumps({"n_ant": 6, "k_users": "2", "trials": 1, key: value}))
        capsys.readouterr()
        assert main(["ber", "--config", str(cfg_path), "--out", str(out)]) == 1, (key, value)
        captured = capsys.readouterr()
        assert f"error: {name} must" in captured.err, (key, value, captured.err)
        assert "config:" not in captured.out and not out.exists()
    assert main(["ber", "--n-ant", "6", "--k-users", "2,x", "--trials", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "error: k_users must hold comma-separated ints, got '2,x'" in captured.err
    assert "config:" not in captured.out and not out.exists()
    # a missing output directory is refused before the sweep runs
    missing = tmp_path / "missing" / "o.csv"
    assert main(["ber", "--n-ant", "6", "--k-users", "2", "--trials", "1", "--out", str(missing)]) == 1
    captured = capsys.readouterr()
    assert "error: out must be a path in an existing directory" in captured.err
    assert "config:" not in captured.out and not missing.parent.exists()
    # so is an output path that is a directory
    assert main(["ber", "--n-ant", "6", "--k-users", "2", "--trials", "1", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "error: out must be a file path, not a directory" in captured.err
    assert "config:" not in captured.out
    # n_ant belongs to the sweeps without a ratios axis, ratios to the phase grid alone
    for argv in (["phase", "--k-users", "2", "--ratios", "2", "--n-ant", "6"],
                 ["ber", "--n-ant", "6", "--k-users", "2", "--ratios", "2"]):
        capsys.readouterr()
        assert main([*argv, "--trials", "1", "--out", str(out)]) == 1, argv
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err
        assert "config:" not in captured.out and not out.exists()
    for command, key in (("phase", "n_ant"), ("ber", "ratios")):
        cfg_path.write_text(json.dumps({"n_ant": 6, "k_users": "2", "ratios": "2", "trials": 1}))
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"unknown config keys: ['{key}']" in captured.err
        assert "config:" not in captured.out and not out.exists()
    assert main(["solve", "--in", inst, "--time-limit", "nan"]) == 1
    assert "error: time_limit must be" in capsys.readouterr().err
    assert main(["solve", "--in", inst, "--time-limit", "60"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{") :], parse_constant=_refuse_constant)
    assert doc["options"] == {"node_limit": 1_000_000, "time_limit": 60.0}


def test_solve_oracle_cap_exit(tmp_path, capsys):
    rng = np.random.default_rng(1)
    inst = RealInstance(H=rng.standard_normal((2, 26)), r=np.array([1.0, -1.0]), sigma=1.0)
    path = str(tmp_path / "big.json")
    save_instance(inst, path)
    assert main(["solve", "--in", path, "--detector", "exhaustive"]) == 1
    assert "K <= 24" in capsys.readouterr().err


def test_solve_malformed_file(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"n": 2, "k": 1, "sigma": 1.0, "H": [1.0], "r": [1, -1]}')
    assert main(["solve", "--in", str(p)]) == 1
    assert "'H' has 1 entries" in capsys.readouterr().err
    p.write_text('{"n": 2, "k": 1, "sigma": 1.0, "H": 5, "r": [1, -1]}')
    assert main(["solve", "--in", str(p)]) == 1
    assert "error: " + str(p) + ": field 'H' must be a list of numbers" in capsys.readouterr().err
    assert main(["solve", "--in", str(tmp_path / "missing.json")]) == 1
    assert "io error:" in capsys.readouterr().err
    # the report cannot be written: nothing is left behind, not even the temporary file
    inst = _gen(tmp_path)
    out = tmp_path / "no-such-dir" / "report.json"
    assert main(["solve", "--in", inst, "--out", str(out)]) == 1
    assert "io error:" in capsys.readouterr().err
    assert not out.parent.exists()
    out.parent.mkdir()  # a directory where the report should go: the rename over it fails
    assert main(["solve", "--in", inst, "--out", str(out.parent)]) == 1
    assert "io error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "inst.json", "no-such-dir"]


def test_missing_required_flag_exits_1(capsys):
    assert main(["ber", "--n-ant", "6", "--k-users", "2"]) == 1  # no --out
    assert main(["gen", "--n-ant", "4"]) == 1
    assert "required" in capsys.readouterr().err


def test_repeated_axis_value_exits_1(tmp_path, capsys):
    out = tmp_path / "runtime.csv"
    rc = main(["runtime", "--n-ant", "6", "--k-users", "2,2", "--trials", "2", "--out", str(out)])
    assert rc == 1
    assert "repeated" in capsys.readouterr().err
    assert not out.exists()
    rc = main(["ber", "--n-ant", "6", "--k-users", "2", "--snr", "10,10", "--trials", "2", "--out", str(out)])
    assert rc == 1
    assert not out.exists()


def test_unknown_flag_exits_1(capsys):
    assert main(["ber", "--bogus", "1"]) == 1


def test_ber_command(tmp_path, capsys):
    out = str(tmp_path / "ber.csv")
    rc = main(
        [
            "ber",
            "--n-ant",
            "6",
            "--k-users",
            "2",
            "--snr",
            "0,10",
            "--trials",
            "3",
            "--seed",
            "1",
            "--detectors",
            "gobmd,exhaustive",
            "--out",
            out,
        ]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("config:")  # resolved-config echo
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "k_users,snr_db,detector,mean_ber,trials"
    assert len(lines) == 1 + 4


def test_ratio_command_with_records(tmp_path):
    out = str(tmp_path / "ratio.json")
    rec = str(tmp_path / "records.json")
    rc = main(
        [
            "ratio",
            "--n-ant",
            "6",
            "--k-users",
            "2,3",
            "--snr",
            "10",
            "--trials",
            "2",
            "--seed",
            "2",
            "--out",
            out,
            "--records-out",
            rec,
            "--format",
            "json",
        ]
    )
    assert rc == 0
    doc = json.loads(Path(out).read_text())
    assert len(doc["rows"]) == 2
    assert doc["metadata"]["config"]["seed"] == 2
    recs = json.loads(Path(rec).read_text())
    assert len(recs["rows"]) == 4


def test_phase_command(tmp_path):
    out = str(tmp_path / "phase.csv")
    rc = main(
        ["phase", "--k-users", "2", "--ratios", "2,4", "--snr", "0,10", "--trials", "2", "--seed", "3", "--out", out]
    )
    assert rc == 0
    lines = Path(out).read_text().splitlines()
    assert len(lines) == 1 + 4


def test_negative_value_lists_parse_as_values(tmp_path):
    # the README form: a comma list that starts with a negative number
    out = tmp_path / "phase.csv"
    rc = main(["phase", "--k-users", "2", "--ratios", "2,4", "--snr", "-5,10", "--trials", "2", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 1 + 4
    assert sum(",-5," in row for row in rows) == 2


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_ant": 6, "k_users": "2", "snr": "10", "trials": 5, "seed": 4}))
    out = str(tmp_path / "b.csv")
    rc = main(["ber", "--config", str(cfg_path), "--trials", "2", "--out", out])
    assert rc == 0
    echo = capsys.readouterr().out.splitlines()[0]
    resolved = json.loads(echo[len("config: ") :])
    assert resolved["trials"] == 2  # flag wins
    assert resolved["n_ant"] == 6  # file supplies the rest


def test_config_file_unknown_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"nonsense": 1}))
    assert main(["ber", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]) == 1
    assert "unknown config keys" in capsys.readouterr().err
    # a file that cannot be read, is not JSON, or holds no object
    for text, message in ((None, "cannot read config file"), ("{ not json", "cannot read config file"),
                          ("[1, 2]", "must hold a JSON object")):
        path = tmp_path / ("absent.json" if text is None else "bad.json")
        if text is not None:
            path.write_text(text)
        assert main(["ber", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 1, text
        captured = capsys.readouterr()
        assert message in captured.err, (text, captured.err)
        assert "config:" not in captured.out and not (tmp_path / "x.csv").exists()


def test_experiment_determinism(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = str(tmp_path / name)
        rc = main(
            ["ber", "--n-ant", "6", "--k-users", "2", "--snr", "10", "--trials", "3", "--seed", "9", "--out", out]
        )
        assert rc == 0
        outs.append(Path(out).read_text())
    assert outs[0] == outs[1]  # summary tables carry no wall-time columns


def test_readme_cli_block_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1].replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("gobmd ")]
    assert [argv[1] for argv in commands] == ["gen", "solve", "ber", "runtime", "ratio", "phase"]
    for argv in commands:
        build_parser().parse_args(argv[1:])
