"""Command-line experiment runner.

Subcommands: ``attack`` runs one configured scenario, ``sweep`` repeats it
over a list of hyperparameter values, ``selftest`` runs the gradient and
recovery property suites. Exit codes: 0 success, 1 configuration error,
2 numeric failure.
"""

import argparse
import dataclasses
import json
import os
import sys

from .errors import ConfigError, GlgError
from .experiments import emit_report, load_config, run_experiment, sweep
from .selftest import run_all


def _add_common(p):
    p.add_argument("--config", required=True, help="path to a JSON config")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.add_argument("--timing", action="store_true",
                   help="include wall time in the report (breaks byte-for-byte "
                        "reproducibility)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="glg",
        description="gradient-leakage attack experiments for graph models")
    sub = parser.add_subparsers(dest="command", required=True)

    attack = sub.add_parser("attack", help="run one attack scenario")
    _add_common(attack)
    attack.add_argument("--dump", action="store_true",
                        help="also write per-repetition recovered and true "
                             "matrices as CSV into the output directory")

    swp = sub.add_parser("sweep", help="sweep one hyperparameter")
    _add_common(swp)
    swp.add_argument("--param", required=True,
                     help="alpha | beta | hidden_dim | threshold | batch_size "
                          "| d_tree | init")
    swp.add_argument("--values", required=True,
                     help="comma-separated list of values")

    st = sub.add_parser("selftest", help="run gradient and recovery checks")
    st.add_argument("--fast", action="store_true", help="reduced instance counts")
    return parser


def _emit(rows, cfg, args):
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"report.{args.format}")
    emit_report(rows, args.format, path, config=cfg, include_timing=args.timing)
    print(path)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return 0 if run_all(verbose=True, fast=args.fast) else 2
        cfg = load_config(args.config)
        if args.seed is not None:
            # the dataclass re-runs its checks on the new seed
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.command == "attack":
            rows = run_experiment(cfg, dump_dir=args.out if args.dump else None)
        else:
            values = [v.strip() for v in args.values.split(",") if v.strip()]
            rows = sweep(cfg, args.param, values)
        _emit(rows, cfg, args)
        return 0
    except (ConfigError, json.JSONDecodeError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except GlgError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
