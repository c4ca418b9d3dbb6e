"""Command-line driver: simulate, fit, evaluate, cv, curve, table2.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import experiments
from .errors import (
    ConfigError,
    DataError,
    DomainError,
    NonFiniteLossError,
    OverlapError,
    SearchError,
    SingularDesignError,
    SingularHessianError,
    ValidationError,
)

_CONFIG_EXIT = 2
_DATA_EXIT = 3
_NUMERIC_EXIT = 4


def _load_config(path):
    if path is None:
        raise ConfigError("--config is required for this command")
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc


def _out_dir(args, cfg):
    if args.out:
        return args.out
    if cfg and "output" in cfg and "dir" in cfg["output"]:
        return cfg["output"]["dir"]
    raise ConfigError("no output location: pass --out or set output.dir in the config")


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _flag(*names, **kwargs):
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def build_parser():
    # each subcommand takes only the flags it acts on; argparse rejects the
    # rest with exit code 2
    config = _flag("--config", help="JSON experiment configuration")
    out = _flag("--out", help="output file or directory")
    seed = _flag("--seed", type=int, help="override the config seed")
    replications = _flag("--replications", type=_positive_int, help="override replication count")
    jobs = _flag("--jobs", type=_positive_int, default=1, help="parallel replication workers")

    parser = argparse.ArgumentParser(
        prog="policycate",
        description="Profit-aligned CATE estimation and targeting experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "simulate", parents=[config, out, seed, replications], help="generate experiment CSVs"
    )
    p.add_argument("--with-oracle", action="store_true", help="append the tau_true column")

    p = sub.add_parser("fit", parents=[config, out], help="fit one model to a dataset CSV")
    p.add_argument("--data", required=True, help="dataset CSV path")

    p = sub.add_parser(
        "evaluate", parents=[config, out, replications], help="score a model on oracle draws"
    )
    p.add_argument(
        "--model",
        required=True,
        help="model JSON path or builtin tag: oracle | mail | no_mail | ols",
    )

    p = sub.add_parser("cv", parents=[config, out], help="cross-validate the threshold spread")
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument("--eval-data", help="oracle-labeled CSV for a truth frontier sweep")

    p = sub.add_parser("curve", parents=[out], help="emit scalar objective curves")
    p.add_argument("--tau0", type=float, required=True)
    p.add_argument("--cost", type=float, required=True)
    p.add_argument("--family", choices=("normal", "logistic", "uniform"), required=True)
    p.add_argument("--sigma", action="append", default=None, help="repeatable; inf allowed")
    p.add_argument("--grid", default="-6:8:281", help="tau grid as lo:hi:points")
    p.add_argument("--uniform-lo", type=float)
    p.add_argument("--uniform-hi", type=float)

    sub.add_parser(
        "table2",
        parents=[config, out, seed, replications, jobs],
        help="run the desk-scale benchmark table",
    )
    return parser


def _run(args):
    if args.command == "simulate":
        cfg = _load_config(args.config)
        paths = experiments.run_simulate(
            cfg,
            _out_dir(args, cfg),
            with_oracle=args.with_oracle,
            replications=args.replications,
            seed=args.seed,
        )
        for p in paths:
            print(p)
        return 0

    if args.command == "fit":
        cfg = _load_config(args.config)
        info = experiments.run_fit(args.data, cfg, _out_dir(args, cfg))
        print(json.dumps(info))
        return 0

    if args.command == "evaluate":
        cfg = _load_config(args.config)
        out = args.out
        if out is None:
            raise ConfigError("--out report path is required for evaluate")
        reports = experiments.run_evaluate(
            cfg, args.model, out, replications=args.replications
        )
        for r in reports:
            mse = "" if r.mse is None else f" mse={r.mse:.6g}"
            print(f"{r.model_tag}: profit={r.profit:.6g}{mse} qini={r.qini:.6g}")
        return 0

    if args.command == "cv":
        cfg = _load_config(args.config)
        info = experiments.run_cv(
            args.data, cfg, _out_dir(args, cfg), eval_data_path=args.eval_data
        )
        cv = info["cv"]
        print(f"sigma_mse={cv.sigma_mse:g} sigma_profit={cv.sigma_profit:g}")
        return 0

    if args.command == "curve":
        sigmas = args.sigma if args.sigma else ["1"]
        sigmas = [s if s == "inf" else float(s) for s in sigmas]
        if args.out is None:
            raise ConfigError("--out directory is required for curve")
        paths = experiments.run_curve(
            args.tau0,
            args.cost,
            args.family,
            sigmas,
            args.grid,
            args.out,
            uniform_lo=args.uniform_lo,
            uniform_hi=args.uniform_hi,
        )
        for p in paths:
            print(p)
        return 0

    if args.command == "table2":
        cfg = _load_config(args.config) if args.config else {}
        if args.replications is not None:
            cfg.setdefault("table2", {})["replications"] = args.replications
        if args.seed is not None:
            cfg.setdefault("table2", {})["train_seed"] = args.seed
        summary = experiments.run_table2(cfg, _out_dir(args, cfg), jobs=args.jobs)
        for tag in experiments.TABLE2_MODEL_ORDER:
            stats = summary[tag]
            cells = [f"{name}={mean:.4f}" for name, (mean, _) in stats.items()]
            print(f"{tag}: " + " ".join(cells))
        return 0

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _CONFIG_EXIT
    except (DataError, OSError, OverlapError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return _DATA_EXIT
    except (
        DomainError,
        SearchError,
        SingularDesignError,
        SingularHessianError,
        NonFiniteLossError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _NUMERIC_EXIT
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _CONFIG_EXIT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
