"""Command-line front end: instance generation, single solves, and the sweeps of ``harness.SWEEPS``."""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys

from .harness import DETECTORS, SWEEPS, ExperimentConfig, run_experiment, write_results
from .model import GenConfig, InstanceFormatError, generate_instance, load_instance, save_instance
from .solver import SolverOptions

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_LIMIT = 2  # solve ended without a certificate: node/time limit or a failed node LP


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let values like "-5,0,10,20" pass as arguments, not option lookalikes;
        # set after argparse's __init__, which assigns its own matcher
        self._negative_number_matcher = re.compile(r"^-\d+(\.\d+)?([,.]\-?\d+(\.\d+)?)*$")

    def error(self, message):  # argparse would exit(2); the contract is exit 1
        raise UsageError(f"{self.prog}: {message}")


def _add_solver_flags(p):
    p.add_argument("--node-limit", type=int)
    p.add_argument("--time-limit", type=float)


def _add_experiment_flags(p, with_ratios=False):
    p.add_argument("--config", help="JSON config file; explicit flags override its keys")
    p.add_argument("--n-ant", type=int, help="antenna count (complex domain)")
    p.add_argument("--k-users", help="comma-separated user counts (complex domain)")
    p.add_argument("--snr", help="comma-separated SNR values in dB")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--detectors", help="comma-separated subset of " + ",".join(DETECTORS))
    p.add_argument("--workers", type=int)
    p.add_argument("--only-optimal", action="store_const", const=True)
    p.add_argument("--out", help="summary table output path")
    p.add_argument("--records-out", help="optional per-trial records output path")
    p.add_argument("--format", choices=["csv", "json"])
    if with_ratios:
        p.add_argument("--ratios", help="comma-separated N/K grid values")
    _add_solver_flags(p)


def build_parser() -> _Parser:
    parser = _Parser(prog="gobmd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance file")
    p.add_argument("--n-ant", type=int, required=True)
    p.add_argument("--k-users", type=int, required=True)
    p.add_argument("--snr", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trial", type=int, help="substream index within the seed")
    p.add_argument("--out", required=True)

    p = sub.add_parser("solve", help="solve one instance file, print the report as JSON")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--detector", choices=list(DETECTORS), default="gobmd")
    p.add_argument("--out", help="also write the report JSON here")
    _add_solver_flags(p)

    for experiment, sweep in SWEEPS.items():
        p = sub.add_parser(sweep.command, help=sweep.help)
        p.set_defaults(experiment=experiment)
        _add_experiment_flags(p, with_ratios=sweep.takes_ratios)
    return parser


_SOLVER_KEYS = tuple(f.name for f in dataclasses.fields(SolverOptions))


def _solver_options(source: dict) -> SolverOptions:
    kwargs = {k: source[k] for k in _SOLVER_KEYS if source.get(k) is not None}
    return SolverOptions(**kwargs)


def _parse_list(value, cast):
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        return [cast(v) for v in value]
    return [cast(v) for v in str(value).split(",") if v != ""]


def _resolve(args, defaults: dict) -> dict:
    """Defaults < config file < explicit flags, keyed by the flag dest names."""
    resolved = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path) as f:
                file_cfg = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise UsageError(f"cannot read config file {config_path}: {e}")
        if not isinstance(file_cfg, dict):
            raise UsageError(f"config file {config_path} must hold a JSON object")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        resolved.update(file_cfg)
    for key in defaults:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
    return resolved


_EXPERIMENT_DEFAULTS = {
    "n_ant": None,
    "k_users": None,
    "snr": "10",
    "trials": 200,
    "seed": 1,
    "detectors": "gobmd",
    "workers": 1,
    "only_optimal": False,
    "out": None,
    "records_out": None,
    "format": "csv",
    "ratios": None,
    **dict.fromkeys(_SOLVER_KEYS),
}


def _cmd_experiment(args) -> int:
    resolved = _resolve(args, _EXPERIMENT_DEFAULTS)
    for required in ("k_users", "out"):
        if resolved[required] is None:
            flag = "--" + required.replace("_", "-")
            raise UsageError(f"gobmd {args.command}: the following arguments are required: {flag}")
    cfg = ExperimentConfig(
        experiment=args.experiment,
        n_antennas=resolved["n_ant"],
        k_users=_parse_list(resolved["k_users"], int),
        snr_db=_parse_list(resolved["snr"], float),
        trials=int(resolved["trials"]),
        seed=int(resolved["seed"]),
        detectors=_parse_list(resolved["detectors"], str),
        options=_solver_options(resolved),
        ratios=_parse_list(resolved["ratios"], int),
        workers=int(resolved["workers"]),
        only_optimal=bool(resolved["only_optimal"]),
    )
    print("config:", json.dumps({k: v for k, v in sorted(resolved.items())}))
    result = run_experiment(cfg)
    fmt = resolved["format"]
    out = resolved["out"]
    write_results(result.summary, out, fmt, result.metadata, columns=result.summary_columns)
    if resolved["records_out"]:
        write_results(result.records, resolved["records_out"], fmt, result.metadata, columns=result.record_columns)
    headline = "; ".join(
        " ".join(f"{k}={row[k]}" for k in result.summary_columns if row.get(k) is not None)
        for row in result.summary[:8]
    )
    print(f"wrote {out} ({len(result.summary)} summary rows, {len(result.records)} records)")
    if headline:
        print(headline)
    return EXIT_OK


def _cmd_solve(args) -> int:
    instance = load_instance(args.in_path)
    doc = DETECTORS[args.detector](instance, _solver_options(vars(args)))
    text = json.dumps(doc, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    if doc["status"] in ("node-limit", "time-limit", "numerical-failure"):
        return EXIT_LIMIT
    return EXIT_OK


def _cmd_gen(args) -> int:
    cfg = GenConfig(args.n_ant, args.k_users, args.snr, args.seed)
    instance = generate_instance(cfg, args.trial)
    save_instance(instance, args.out)
    print(
        "wrote",
        args.out,
        json.dumps({"n": instance.n, "k": instance.k, "sigma": instance.sigma, "seed": args.seed}),
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_experiment(args)
    except UsageError as e:
        print(str(e), file=sys.stderr)
        return EXIT_ERROR
    except (InstanceFormatError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
