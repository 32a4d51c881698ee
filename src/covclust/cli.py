"""Command-line entry point: simulate, cluster, experiment, ingest-check.

Every command is deterministic given its flags, input files, and seed.
Failures exit nonzero with a single machine-parsable line on stderr of the
form `error: <category>: <message>`. `_CATEGORIES` names the category of
each error type that is reported this way (a `CliError` carries its own),
and `_EXIT_CODES` the exit code of each category; argparse exits 2 on bad
usage itself. Any other exception is a fault of the program and is not
caught.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import evaluation
from .dissimilarity import DissimConfig, InfeasibleError, dissimilarity_matrix
from .hurst import MONOTONIC, PERIODIC, HurstDomainError, HurstFunction
from .offline import offline_cluster
from .online import online_cluster
from .processes import FactorizationError, cov_fits, sample_path
from .seriesio import SchemaError, read_series, write_series

OUTPUT_DIR_ENV = "COVCLUST_OUTPUT_DIR"

# The category of each reported error type; an error takes that of the first
# of these types in its class's method resolution order.
_CATEGORIES = {SchemaError: "schema", FactorizationError: "numeric",
               HurstDomainError: "infeasible", InfeasibleError: "infeasible",
               MemoryError: "infeasible", OSError: "io"}
_EXIT_CODES = {"schema": 3, "config": 4, "infeasible": 5, "numeric": 5, "io": 6}

_SERIAL_HELP = "accepted for compatibility; D is computed serially"
# The keys an `experiment --config` file may set.
_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(evaluation.ExperimentConfig))


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


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
        if kind in ("mono", "monotonic", "sin", "periodic"):
            h, q = (float(x) for x in rest.split(","))
            return HurstFunction(MONOTONIC if kind in ("mono", "monotonic") else PERIODIC, h, q)
    except ValueError as exc:  # HurstDomainError included
        raise CliError("config", f"bad hurst spec {spec!r}: {exc}") from exc
    raise CliError("config", f"unknown hurst kind {kind!r} (constant|mono|sin)")


def _parse_int_list(text: str, flag: str) -> tuple:
    try:
        values = tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise CliError("config", f"{flag} expects comma-separated integers: {text!r}") from exc
    return values


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_simulate(args) -> int:
    if args.paths < 1:
        raise CliError("config", f"--paths must be at least 1, got {args.paths}")
    if args.seed < 0:
        raise CliError("config", f"--seed must be at least 0, got {args.seed}")
    if args.n < 2:
        raise CliError("config", f"--n must be at least 2, got {args.n}")
    if not cov_fits(args.n):
        raise CliError("config", f"--n {args.n} is too large: its n x n covariance would "
                                 f"take more bytes than this platform can address")
    if not 0 < args.delta_t * args.n < np.inf:  # the grid's last point
        raise CliError("config", f"--delta-t must be positive with --delta-t * --n finite, "
                                 f"got {args.delta_t} at --n {args.n}")
    f = _parse_hurst(args.hurst)
    paths = [
        sample_path(f, args.n, args.delta_t, seed=(args.seed, idx), id=f"path{idx}")
        for idx in range(args.paths)
    ]
    write_series(paths, _out_path(args.output))
    return 0


def cmd_cluster(args) -> int:
    if args.kappa < 1:
        raise CliError("config", f"--kappa must be at least 1, got {args.kappa}")
    try:
        cfg = DissimConfig(K=args.K, L=args.L, use_log_star=args.log_star)
    except ValueError as exc:
        raise CliError("config", f"--{exc}") from exc
    paths = read_series(args.input, ragged_ok=(args.mode == "online"))
    if args.kappa > len(paths):
        raise CliError("infeasible", f"kappa={args.kappa} exceeds {len(paths)} series")
    D = dissimilarity_matrix(paths, cfg)
    clustering = (offline_cluster if args.mode == "offline" else online_cluster)(D, args.kappa)
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
            raise CliError("config", f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(defaults, dict):
            raise CliError("config", "config file must be a flat JSON object")
        unknown = [key for key in defaults if key not in _CONFIG_KEYS]
        if unknown:
            raise CliError("config", f"unknown key {unknown[0]!r}")

    flags = {key: getattr(args, key) for key in _CONFIG_KEYS}
    flags["seeds"] = None if args.seeds is None else _parse_int_list(args.seeds, "--seeds")
    flags["epochs"] = None if args.epochs is None else _parse_int_list(args.epochs, "--epochs")
    values = {**defaults, **{key: v for key, v in flags.items() if v is not None}}
    try:
        ec = evaluation.ExperimentConfig(**values)
    except ValueError as exc:
        raise CliError("config", str(exc)) from exc
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
    exp.add_argument("--case", default=None, help=" or ".join(evaluation.GROUP_H_VALUES))
    exp.add_argument("--mode", default=None, help="offline or online")
    exp.add_argument("--seeds", default=None, help="comma-separated seeds")
    exp.add_argument("--epochs", default=None, help="comma-separated epochs")
    exp.add_argument("--paths-per-group", dest="paths_per_group", type=int, default=None,
                     help="paths per group in offline mode; no effect online, where each "
                          "group holds 6 + (max epoch - 1) // 10 paths")
    exp.add_argument("--path-length", dest="path_length", type=int, default=None,
                     help="samples per simulated path")
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


# parse_args keeps no state between calls, so one parser serves the process.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, *_CATEGORIES) as exc:
        # Any other ValueError is a fault of the program, not of the request.
        category = exc.category if isinstance(exc, CliError) else next(
            _CATEGORIES[t] for t in type(exc).__mro__ if t in _CATEGORIES)
        print(f"error: {category}: {exc}", file=sys.stderr)
        return _EXIT_CODES[category]


if __name__ == "__main__":
    sys.exit(main())
