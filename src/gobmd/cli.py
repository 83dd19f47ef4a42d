"""Command-line front end: instance generation, single solves, and the sweeps of ``harness.SWEEPS``."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from typing import NamedTuple

from .harness import DETECTORS, FORMATS, SWEEPS, ExperimentConfig, run_experiment, write_results
from .model import GenConfig, InstanceFormatError, generate_instance, load_instance, save_instance, write_atomically
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


class _Setting(NamedTuple):
    key: str  # the flag's dest and the config-file key
    field: str | None  # the ExperimentConfig field it sets; None for the output settings
    item: type | None  # item type of a comma-list value; None for a single value
    default: object
    flag: dict  # add_argument keywords
    takes_ratios: bool | None = None  # taken only by sweeps whose takes_ratios equals this; None: by every sweep


_SETTINGS = (
    _Setting("n_ant", "n_antennas", None, None, {"type": int, "help": "antenna count (complex domain)"}, False),
    _Setting("k_users", "k_users", int, None, {"help": "comma-separated user counts (complex domain)"}),
    _Setting("snr", "snr_db", float, "10", {"help": "comma-separated SNR values in dB"}),
    _Setting("trials", "trials", None, 200, {"type": int}),
    _Setting("seed", "seed", None, 1, {"type": int}),
    _Setting("detectors", "detectors", str, "gobmd", {"help": "comma-separated subset of " + ",".join(DETECTORS)}),
    _Setting("workers", "workers", None, 1, {"type": int}),
    _Setting("only_optimal", "only_optimal", None, False, {"action": "store_const", "const": True}),
    _Setting("out", None, None, None, {"help": "summary table output path"}),
    _Setting("records_out", None, None, None, {"help": "optional per-trial records output path"}),
    _Setting("format", None, None, "csv", {"choices": FORMATS}),
    _Setting("ratios", "ratios", int, None, {"help": "comma-separated N/K grid values"}, True),
)


def _sweep_settings(sweep) -> list[_Setting]:
    return [s for s in _SETTINGS if s.takes_ratios in (None, sweep.takes_ratios)]


def _split(setting: _Setting, value):
    """A comma string as a list of the setting's items; any other value reaches ExperimentConfig as it is."""
    if setting.item is None or not isinstance(value, str):
        return value
    try:
        return [setting.item(v) for v in value.split(",") if v != ""]
    except ValueError:
        raise ValueError(f"{setting.key} must hold comma-separated {setting.item.__name__}s, got {value!r}") from None


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
        p.add_argument("--config", help="JSON config file; explicit flags override its keys")
        for setting in _sweep_settings(sweep):
            p.add_argument("--" + setting.key.replace("_", "-"), **setting.flag)
        _add_solver_flags(p)
    return parser


_SOLVER_KEYS = tuple(f.name for f in dataclasses.fields(SolverOptions))


def _solver_options(source: dict) -> SolverOptions:
    kwargs = {k: source[k] for k in _SOLVER_KEYS if source.get(k) is not None}
    return SolverOptions(**kwargs)


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


def _check_out_path(key: str, path) -> None:
    """Refuse an output path that cannot be written, so no command runs only to fail when it writes."""
    if path == "" or not isinstance(path, (str, type(None))):
        raise ValueError(f"{key} must be a non-empty path string, got {path!r}")
    if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"{key} must be a path in an existing directory, got {path!r}")
    if path is not None and os.path.isdir(path):
        raise ValueError(f"{key} must be a file path, not a directory, got {path!r}")


def _cmd_experiment(args) -> int:
    defaults = {s.key: s.default for s in _sweep_settings(SWEEPS[args.experiment])}
    resolved = _resolve(args, {**defaults, **dict.fromkeys(_SOLVER_KEYS)})
    for required in ("k_users", "out"):
        if resolved[required] is None:
            flag = "--" + required.replace("_", "-")
            raise UsageError(f"gobmd {args.command}: the following arguments are required: {flag}")
    if resolved["format"] not in FORMATS:
        raise ValueError(f"format must be one of {', '.join(FORMATS)}, got {resolved['format']!r}")
    for key in ("out", "records_out"):
        _check_out_path(key, resolved[key])
    if resolved["records_out"] and os.path.realpath(resolved["records_out"]) == os.path.realpath(resolved["out"]):
        raise ValueError(f"records_out must not be the out file, got {resolved['records_out']!r} for both")
    # a setting the sweep does not take leaves its field None
    cfg = ExperimentConfig(
        experiment=args.experiment,
        options=_solver_options(resolved),
        **{s.field: _split(s, resolved.get(s.key)) for s in _SETTINGS if s.field},
    )
    print("config:", json.dumps({k: v for k, v in sorted(resolved.items())}))
    result = run_experiment(cfg)
    fmt = resolved["format"]
    out = resolved["out"]
    write_results(result.summary, out, fmt, result.metadata)
    if resolved["records_out"]:
        write_results(result.records, resolved["records_out"], fmt, result.metadata)
    headline = "; ".join(
        " ".join(f"{k}={v}" for k, v in row.items() if v is not None) for row in result.summary[:8]
    )
    print(f"wrote {out} ({len(result.summary)} summary rows, {len(result.records)} records)")
    if headline:
        print(headline)
    return EXIT_OK


def _cmd_solve(args) -> int:
    _check_out_path("out", args.out)
    instance = load_instance(args.in_path)
    doc = DETECTORS[args.detector](instance, _solver_options(vars(args)))
    text = json.dumps(doc, indent=2)
    print(text)
    if args.out:
        write_atomically(args.out, text + "\n")
    if doc["status"] in ("node-limit", "time-limit", "numerical-failure"):
        return EXIT_LIMIT
    return EXIT_OK


def _cmd_gen(args) -> int:
    _check_out_path("out", args.out)
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
