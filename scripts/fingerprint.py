"""Fingerprint the branch-and-bound searches: one SHA-256 per solver and instance set.

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

Each line is: solver, set, number of solves, SHA-256. A run takes about 40 s
on a 2-core machine.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from gobmd import GenConfig, SolverOptions, generate_instance, solve_gobmd, solve_incremental  # noqa: E402
from test_stress import stressed  # noqa: E402

STRESS_CASES = ("30dB", "40dB", "60dB", "duplicated", "scaled-1e4", "scaled-1e-4", "N=K")


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


def main() -> int:
    sets = instance_sets()
    for solver in (solve_gobmd, solve_incremental):
        for name, solves in sets:
            print(f"{solver.__name__:18s} {name:13s} {len(solves):4d} {fingerprint(solver, solves)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
