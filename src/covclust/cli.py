"""Command-line entry point: simulate, cluster, experiment, ingest-check.

Every command is deterministic given its flags, input files, and seed.
Failures exit nonzero with a single machine-parsable line on stderr of the
form `error: <category>: <message>`.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import evaluation
from .dissimilarity import DissimConfig, dissimilarity_matrix
from .hurst import HurstDomainError, HurstFunction
from .offline import offline_cluster
from .online import online_cluster
from .processes import FactorizationError, sample_path
from .seriesio import SchemaError, read_series, write_series

OUTPUT_DIR_ENV = "COVCLUST_OUTPUT_DIR"

_EXIT_USAGE = 2
_EXIT_SCHEMA = 3
_EXIT_CONFIG = 4
_EXIT_INFEASIBLE = 5
_EXIT_IO = 6

_SERIAL_HELP = "accepted for compatibility; D is computed serially"


class CliError(Exception):
    def __init__(self, category: str, message: str, code: int):
        super().__init__(message)
        self.category = category
        self.code = code


def _out_path(name: str) -> Path:
    path = Path(name)
    if not path.is_absolute():
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _parse_hurst(spec: str) -> HurstFunction:
    kind, _, rest = spec.partition(":")
    try:
        if kind == "constant":
            return HurstFunction.constant(float(rest))
        if kind in ("mono", "monotonic"):
            h, q = (float(x) for x in rest.split(","))
            return HurstFunction.monotonic(h, q)
        if kind in ("sin", "periodic"):
            h, q = (float(x) for x in rest.split(","))
            return HurstFunction.periodic(h, q)
    except (ValueError, HurstDomainError) as exc:
        raise CliError("config", f"bad hurst spec {spec!r}: {exc}", _EXIT_CONFIG) from exc
    raise CliError("config", f"unknown hurst kind {kind!r} (constant|mono|sin)", _EXIT_CONFIG)


def _parse_int_list(text: str, flag: str) -> tuple:
    try:
        values = tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise CliError("config", f"{flag} expects comma-separated integers: {text!r}",
                       _EXIT_CONFIG) from exc
    if not values:
        raise CliError("config", f"{flag} must not be empty", _EXIT_CONFIG)
    return values


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_simulate(args) -> int:
    f = _parse_hurst(args.hurst)
    paths = [
        sample_path(f, args.n, args.delta_t, seed=(args.seed, idx), id=f"path{idx}")
        for idx in range(args.paths)
    ]
    write_series(paths, _out_path(args.output))
    return 0


def _dissim_config(args) -> DissimConfig:
    return DissimConfig(K=args.K, L=args.L, use_log_star=args.log_star)


def cmd_cluster(args) -> int:
    paths = read_series(args.input, ragged_ok=(args.mode == "online"))
    if args.kappa > len(paths):
        raise CliError("infeasible", f"kappa={args.kappa} exceeds {len(paths)} series",
                       _EXIT_INFEASIBLE)
    cfg = _dissim_config(args)
    if args.mode == "offline":
        D = dissimilarity_matrix(paths, cfg)
        clustering = offline_cluster(D, args.kappa)
    else:
        clustering = online_cluster(paths, args.kappa, cfg)
    centers = set(c for c in clustering.centers if c is not None)
    rows = [
        [p.id, int(clustering.labels[i]) + 1, int(i in centers)]
        for i, p in enumerate(paths)
    ]
    _write_csv(_out_path(args.output), ["series_id", "cluster_label", "center_flag"], rows)
    return 0


def cmd_experiment(args) -> int:
    defaults = {}
    if args.config:
        try:
            with open(args.config) as fh:
                defaults = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError("config", f"cannot read config {args.config}: {exc}",
                           _EXIT_CONFIG) from exc
        if not isinstance(defaults, dict):
            raise CliError("config", "config file must be a flat JSON object", _EXIT_CONFIG)

    def pick(flag_value, key, fallback):
        if flag_value is not None:
            return flag_value
        return defaults.get(key, fallback)

    case = pick(args.case, "case", "mono")
    mode = pick(args.mode, "mode", "offline")
    if args.seeds is None:
        seeds = ",".join(str(s) for s in defaults.get("seeds", [0]))
    else:
        seeds = args.seeds
    if args.epochs is None:
        epochs = ",".join(str(t) for t in defaults.get("epochs", [5, 20, 50, 100]))
    else:
        epochs = args.epochs
    ec = evaluation.ExperimentConfig(
        case=case,
        mode=mode,
        seeds=_parse_int_list(seeds, "--seeds"),
        epochs=_parse_int_list(epochs, "--epochs"),
        paths_per_group=int(pick(args.paths_per_group, "paths_per_group", 5)),
        dissim=replace(evaluation.ExperimentConfig().dissim,
                       use_log_star=bool(pick(args.log_star, "log_star", True))),
    )
    rows = evaluation.run_experiment(ec)
    rate_rows = [[seed, t, format(rate, ".17g")] for seed, t, rate in rows]
    _write_csv(_out_path(args.output), ["seed", "t", "rate"], rate_rows)
    summary = evaluation.aggregate_rates(rows)
    summary_rows = [[t, format(mean, ".17g"), format(std, ".17g")] for t, mean, std in summary]
    _write_csv(_out_path(args.summary), ["t", "mean_rate", "std_rate"], summary_rows)
    return 0


def cmd_ingest_check(args) -> int:
    paths = read_series(args.input, ragged_ok=(args.mode == "online"))
    lengths = sorted({len(p) for p in paths})
    print(f"ok: {len(paths)} series, lengths {lengths[0]}..{lengths[-1]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covclust",
        description="Covariance-based clustering of stochastic-process paths",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate seeded synthetic paths")
    sim.add_argument("--hurst", required=True,
                     help="constant:H | mono:h,Q | sin:h,Q")
    sim.add_argument("--n", type=int, default=100, help="samples per path")
    sim.add_argument("--paths", type=int, default=1, help="number of paths")
    sim.add_argument("--delta-t", dest="delta_t", type=float, default=1.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--output", required=True)
    sim.set_defaults(func=cmd_simulate)

    clu = sub.add_parser("cluster", help="cluster a series file")
    clu.add_argument("--input", required=True)
    clu.add_argument("--output", required=True)
    clu.add_argument("--mode", choices=["offline", "online"], default="offline")
    clu.add_argument("--kappa", type=int, required=True)
    clu.add_argument("--log-star", dest="log_star", action="store_true")
    clu.add_argument("--K", type=int, default=None)
    clu.add_argument("--L", type=int, default=None)
    clu.add_argument("--workers", type=int, default=1, help=_SERIAL_HELP)
    clu.set_defaults(func=cmd_cluster)

    exp = sub.add_parser("experiment", help="run a synthetic replication")
    exp.add_argument("--case", choices=["mono", "sin"], default=None)
    exp.add_argument("--mode", choices=["offline", "online"], default=None)
    exp.add_argument("--seeds", default=None, help="comma-separated seeds")
    exp.add_argument("--epochs", default=None, help="comma-separated epochs")
    exp.add_argument("--paths-per-group", dest="paths_per_group", type=int, default=None)
    exp.add_argument("--log-star", dest="log_star", action="store_true", default=None)
    exp.add_argument("--no-log-star", dest="log_star", action="store_false")
    exp.add_argument("--config", default=None, help="JSON file with default parameters")
    exp.add_argument("--workers", type=int, default=1, help=_SERIAL_HELP)
    exp.add_argument("--output", required=True, help="per-(seed, t) rate CSV")
    exp.add_argument("--summary", required=True, help="aggregated (t, mean, std) CSV")
    exp.set_defaults(func=cmd_experiment)

    chk = sub.add_parser("ingest-check", help="validate a series file")
    chk.add_argument("--input", required=True)
    chk.add_argument("--mode", choices=["offline", "online"], default="offline")
    chk.set_defaults(func=cmd_ingest_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return exc.code
    except SchemaError as exc:
        print(f"error: schema: {exc}", file=sys.stderr)
        return _EXIT_SCHEMA
    except FactorizationError as exc:
        # Before ValueError: a LinAlgError is one.
        print(f"error: numeric: {exc}", file=sys.stderr)
        return _EXIT_INFEASIBLE
    except (HurstDomainError, ValueError) as exc:
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return _EXIT_INFEASIBLE
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
