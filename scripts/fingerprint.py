"""Fingerprint the branch-and-bound searches, the oracle and the CLI outputs: one SHA-256 each.

    python3 scripts/fingerprint.py

A report without its ``wall_time`` holds the optimum, the bounds and every
counter of the search (nodes, LPs, pivots, cuts, histories), each float as
its shortest exact repr. Two versions of the code that branch, pivot and cut
alike therefore print the same hashes; a change that should leave the search
alone can be checked by running this script at both commits. Sets:

  fixed         the 85 benchmark instances (GenConfig(18, 7, 10.0, 4000),
                trials 0-59, and GenConfig(48, 7, 10.0, 4000), trials 0-24)
                and the 175 of tests/test_stress.py (7 cases, trials 0-24)
  node-limited  GenConfig(18, 4, 10.0, 4000), trials 0-5, each with
                node_limit 1, 3, 10 and 30

Each such line is: solver, set, number of solves, SHA-256; 4 search hashes
in all. Then 1 oracle hash in the same layout: ``exhaustive_search`` over the
fixed set, hashing each result's ``x_opt``, ``repr(objective)``, ``ties`` and
``n_evaluated``. The benchmark instances have K = 14, so the oracle runs 16
blocks of sign vectors on each.

Then 42 CLI hashes, one line per CLI output, ``cli``, its name and its
SHA-256, from ``gobmd.cli.main`` run in this process in a temporary
directory:

  gen           the instance file and the exit code with stdout (2)
  solve-*       each detector on that instance, with and without
                ``--node-limit 2``: the ``--out`` file and the exit code
                with stdout (16)
  ber-*, runtime-*, ratio-*, phase-*
                each sweep over all four detectors, in CSV and in JSON: the
                summary, the records and the exit code with stdout (24)

Before hashing, the temporary directory's path reads ``<tmp>``, and the
values of ``wall_time``, ``mean_wall_time`` and ``median_wall_time`` read
``*``. Nothing else is masked: a sweep's metadata records the core count,
the BLAS thread variables and the versions of Python, numpy and scipy, so
compare runs from one machine and one environment only.

A run takes about 40 s on a 2-core machine.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from gobmd import GenConfig, SolverOptions, generate_instance, solve_gobmd, solve_incremental  # noqa: E402
from gobmd.baselines import exhaustive_search  # noqa: E402
from gobmd.cli import main as cli_main  # noqa: E402
from test_stress import stressed  # noqa: E402

STRESS_CASES = ("30dB", "40dB", "60dB", "duplicated", "scaled-1e4", "scaled-1e-4", "N=K")
DETECTORS = ("gobmd", "incremental", "exhaustive", "zf")
SWEEP_ARGS = {
    "ber": ["--n-ant", "6", "--k-users", "2,3", "--snr", "0,10", "--trials", "3"],
    "runtime": ["--n-ant", "8", "--k-users", "2,4", "--snr", "10", "--trials", "3"],
    "ratio": ["--n-ant", "8", "--k-users", "2,4", "--snr", "10", "--trials", "3"],
    "phase": ["--k-users", "2", "--ratios", "2,4", "--snr", "0,10", "--trials", "2"],
}
WALL_TIME_KEYS = ("wall_time", "mean_wall_time", "median_wall_time")
# a wall-time value in JSON ("wall_time": v) and in a sweep's headline (wall_time=v)
WALL_TIME_TEXT = re.compile(r"\b((?:mean_|median_)?wall_time(?:\": |=))[^\s,;]+")


def instance_sets():
    """(name, [(instance, options), ...]) for each fingerprinted set."""
    fixed = [generate_instance(GenConfig(18, 7, 10.0, 4000), t) for t in range(60)]
    fixed += [generate_instance(GenConfig(48, 7, 10.0, 4000), t) for t in range(25)]
    fixed += [stressed(case, t) for case in STRESS_CASES for t in range(25)]
    limited = [
        (generate_instance(GenConfig(18, 4, 10.0, 4000), t), SolverOptions(node_limit=limit))
        for t in range(6)
        for limit in (1, 3, 10, 30)
    ]
    return [("fixed", [(inst, None) for inst in fixed]), ("node-limited", limited)]


def fingerprint(solver, solves) -> str:
    digest = hashlib.sha256()
    for inst, opts in solves:
        report = solver(inst, opts).to_dict()
        del report["wall_time"]
        digest.update(json.dumps(report).encode() + b"\n")
    return digest.hexdigest()


def oracle_fingerprint(instances) -> str:
    digest = hashlib.sha256()
    for inst in instances:
        res = exhaustive_search(inst)
        line = [res.x_opt.astype(int).tolist(), repr(res.objective), res.ties, res.n_evaluated]
        digest.update(json.dumps(line).encode() + b"\n")
    return digest.hexdigest()


def cli_runs(tmp: str):
    """(name, argv, files written) for each CLI run whose outputs are hashed."""
    inst = f"{tmp}/inst.json"
    runs = [("gen", ["gen", "--n-ant", "8", "--k-users", "4", "--snr", "10", "--seed", "4000", "--out", inst], [inst])]
    for det in DETECTORS:
        for limit in ([], ["--node-limit", "2"]):
            name = f"solve-{det}" + ("-node-limit-2" if limit else "")
            out = f"{tmp}/{name}.json"
            runs.append((name, ["solve", "--in", inst, "--detector", det, *limit, "--out", out], [out]))
    for command, args in SWEEP_ARGS.items():
        for fmt in ("csv", "json"):
            name = f"{command}-{fmt}"
            out, records = f"{tmp}/{name}.{fmt}", f"{tmp}/{name}-records.{fmt}"
            detectors = ["--detectors", ",".join(DETECTORS), "--format", fmt]
            runs.append((name, [command, *args, *detectors, "--out", out, "--records-out", records], [out, records]))
    return runs


def masked(text: str, tmp: str, csv_table: bool) -> str:
    """``text`` with the temporary path and the wall-time values masked."""
    text = text.replace(tmp, "<tmp>")
    if not csv_table:
        return WALL_TIME_TEXT.sub(r"\1*", text)
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    timed = [j for j, column in enumerate(header) if column in WALL_TIME_KEYS]
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(["*" if j in timed else cell for j, cell in enumerate(row)])
    return buf.getvalue()


def cli_fingerprints():
    """(output name, SHA-256 of the masked output) for every output of ``cli_runs``."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, files in cli_runs(tmp):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli_main(argv)
            outputs = [(f"{name}.stdout", f"exit {code}\n" + stdout.getvalue(), False)]
            outputs += [(Path(f).name, Path(f).read_bytes().decode(), f.endswith(".csv")) for f in files]
            for output, text, csv_table in outputs:
                yield output, hashlib.sha256(masked(text, tmp, csv_table).encode()).hexdigest()


def main() -> int:
    sets = instance_sets()
    for solver in (solve_gobmd, solve_incremental):
        for name, solves in sets:
            print(f"{solver.__name__:18s} {name:13s} {len(solves):4d} {fingerprint(solver, solves)}", flush=True)
    fixed = [inst for inst, _ in dict(sets)["fixed"]]
    print(f"{'exhaustive_search':18s} {'fixed':13s} {len(fixed):4d} {oracle_fingerprint(fixed)}", flush=True)
    for output, digest in cli_fingerprints():
        print(f"cli {output:32s} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
