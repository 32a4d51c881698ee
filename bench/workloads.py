"""The four benchmark workloads: inputs from the seed, CLI ops, and output checks.

Every op is one `covclust.cli.main` call. A pass is the list of ops a
workload repeats; pass p draws fresh inputs from (seed, p), so no pass can
reuse what an earlier pass computed, just as a new CLI process could not.
What a process pays once (imports, covariance factors that depend only on
the Hurst profile and length) is done by `setup` and timed as set-up.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from covclust import evaluation, seriesio
from covclust.evaluation import ExperimentConfig, GroundTruth, misclassification_rate

import checks

KAPPA = 5  # groups in the mono and sin cases


def derived_seed(seed: int, p: int, k: int = 0) -> int:
    """An experiment seed for op k of pass p; pass -1 is the set-up warm-up."""
    rng = np.random.default_rng([seed % 2**32, p + 1, k])
    return int(rng.integers(0, 2**31 - 1))


@dataclass
class Outcome:
    """What one op returned and what it called."""

    rc: object
    stdout: str
    stderr: str
    error: str | None
    calls: list
    seconds: float

    def of(self, name) -> list:
        return [c for c in self.calls if c.name == name]


@dataclass
class Op:
    """One CLI call and the check of its outputs."""

    argv: list
    check: Callable[[Outcome], list]


@dataclass
class Workload:
    """Base: subclasses define sizes, set-up, the ops of a pass and their checks."""

    seed: int
    work: Path
    tiny: bool = False
    sizes: dict = field(default_factory=dict)
    rates: dict = field(default_factory=dict)     # pass -> scored rates
    digests: dict = field(default_factory=dict)   # pass -> data digest

    name = ""
    expected_rows = 0        # series rows written and read in one pass
    expected_prefixes = 0    # online prefix runs in one pass

    def __post_init__(self):
        """Subclasses set their sizes here."""

    def fingerprint(self, p: int):
        """Exact per-pass outputs that must repeat for the same seed."""
        return self.rates.get(p) or self.digests.get(p)

    def _path(self, name: str) -> str:
        return str(self.work / name)

    def _check_matrices(self, out: Outcome, count: int, sizes: list, naive: bool) -> list:
        mats = out.of("dissimilarity.matrix")
        if len(mats) != count:
            return [f"{len(mats)} dissimilarity matrices, expected {count}"]
        problems = []
        for call, want in zip(mats, sizes):
            lengths = [len(p) for p in call.args["paths"]]
            if lengths != want:
                problems.append(f"matrix over path lengths {lengths}, expected {want}")
            problems += checks.check_matrix(call)
            if call.rho is not None and call.rho != checks.expected_rho(call):
                problems.append(f"rho {call.rho} != closed form {checks.expected_rho(call)}")
        if naive and not problems:
            problems += checks.check_against_naive(mats[0])
        return problems


def _read_rates(path: str, seed: int, epochs) -> tuple[list, list]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    problems = []
    if rows[0] != ["seed", "t", "rate"] or len(rows) != len(epochs) + 1:
        return [], [f"rate file {path} has {len(rows) - 1} rows, expected {len(epochs)}"]
    rates = []
    for row, t in zip(rows[1:], epochs):
        rate = float(row[2])
        if int(row[0]) != seed or int(row[1]) != t or not 0.0 <= rate <= 1.0:
            problems.append(f"bad rate row {row} for seed {seed}, epoch {t}")
        rates.append(rate)
    return rates, problems


class OfflineEpochs(Workload):
    """`covclust experiment --mode offline` on mono and sin, the paper's offline schedule."""

    name = "offline-epochs"

    def __post_init__(self):
        self.cases = ("mono", "sin")
        self.per_group = 2 if self.tiny else 5
        self.epochs = (5, 10) if self.tiny else (5, 20, 50, 100)
        self.sizes = {"cases": list(self.cases), "kappa": KAPPA,
                      "N": KAPPA * self.per_group, "epochs": list(self.epochs),
                      "n": [3 * t + 5 for t in self.epochs], "K": "n-2", "L": 1,
                      "log_star": True, "workers": 1}

    def _argv(self, case, seed, epochs):
        return ["experiment", "--mode", "offline", "--case", case, "--seeds", str(seed),
                "--epochs", ",".join(map(str, epochs)),
                "--paths-per-group", str(self.per_group), "--log-star", "--workers", "1",
                "--output", self._path(f"rates-{case}.csv"),
                "--summary", self._path(f"summary-{case}.csv")]

    def setup(self, run):
        # Builds every group's covariance factor at full path length.
        for k, case in enumerate(self.cases):
            run(self._argv(case, derived_seed(self.seed, -1, k), self.epochs[:1]))

    def ops(self, p: int) -> list:
        self.rates[p] = []
        return [Op(self._argv(case, derived_seed(self.seed, p, k), self.epochs),
                   self._checker(p, case, derived_seed(self.seed, p, k)))
                for k, case in enumerate(self.cases)]

    def _checker(self, p, case, seed):
        def check(out: Outcome) -> list:
            N = KAPPA * self.per_group
            sizes = [[3 * t + 5] * N for t in self.epochs]
            problems = self._check_matrices(out, len(self.epochs), sizes, naive=(p == 0))
            clusterings = out.of("offline.cluster")
            if len(clusterings) != len(self.epochs):
                problems.append(f"{len(clusterings)} clusterings, expected {len(self.epochs)}")
            for call in clusterings:
                problems += checks.check_partition(call.result, N, KAPPA, True)
            rates, bad = _read_rates(self._path(f"rates-{case}.csv"), seed, self.epochs)
            self.rates[p] += rates
            return problems + bad
        return check


def online_group_size(t: int) -> int:
    """Visible paths per group at epoch t in the online schedule."""
    return 6 + (t - 1) // 10


def online_length(t: int, l: int) -> int:
    """Length of the l-th path of a group at epoch t; paths after the sixth arrive late."""
    return 3 * max(t - max(l - 6, 0), 0) + 5


class OnlineEpochs(Workload):
    """`covclust experiment --mode online --case mono` over consecutive epochs, threaded."""

    name = "online-epochs"

    def __post_init__(self):
        self.epochs = (5,) if self.tiny else (10, 20, 30, 40)
        self.workers = 2
        self.expected_prefixes = sum(KAPPA * online_group_size(t) - KAPPA + 1
                                     for t in self.epochs)
        self.sizes = {"case": "mono", "kappa": KAPPA, "epochs": list(self.epochs),
                      "N": [KAPPA * online_group_size(t) for t in self.epochs],
                      "n_max": [3 * t + 5 for t in self.epochs], "K": "n_min-2", "L": 1,
                      "log_star": True, "workers": self.workers}

    def _argv(self, seed, epochs):
        return ["experiment", "--mode", "online", "--case", "mono", "--seeds", str(seed),
                "--epochs", ",".join(map(str, epochs)), "--log-star",
                "--workers", str(self.workers),
                "--output", self._path("rates-online.csv"),
                "--summary", self._path("summary-online.csv")]

    def setup(self, run):
        run(self._argv(derived_seed(self.seed, -1), self.epochs[:1]))

    def ops(self, p: int) -> list:
        seed = derived_seed(self.seed, p)
        return [Op(self._argv(seed, self.epochs), self._checker(p, seed))]

    def _checker(self, p, seed):
        def check(out: Outcome) -> list:
            sizes = [[online_length(t, l) for l in range(1, online_group_size(t) + 1)
                      for _ in range(KAPPA)] for t in self.epochs]
            problems = self._check_matrices(out, len(self.epochs), sizes, naive=(p == 0))
            votes = out.of("online.vote")
            if len(votes) != len(self.epochs):
                problems.append(f"{len(votes)} online clusterings, expected {len(self.epochs)}")
            for call, size in zip(votes, sizes):
                problems += checks.check_partition(call.result, len(size), KAPPA, False)
            for call in out.of("offline.cluster"):
                n = np.asarray(call.args["D"]).shape[0]
                problems += checks.check_partition(call.result, n, KAPPA, True)
            rates, bad = _read_rates(self._path("rates-online.csv"), seed, self.epochs)
            self.rates[p] = rates
            return problems + bad
        return check


class ClusterLocalized(Workload):
    """`covclust cluster` with the localized measure on a CSV of mono paths."""

    name = "cluster-localized"

    def __post_init__(self):
        self.per_group = 2
        self.n = 40 if self.tiny else 105
        self.K = 10 if self.tiny else 20
        self.L = self.n - self.K - 1
        self.expected_rows = KAPPA * self.per_group * self.n
        self.sizes = {"case": "mono", "kappa": KAPPA, "N": KAPPA * self.per_group,
                      "n": self.n, "K": self.K, "L": self.L, "log_star": True,
                      "workers": 1, "input": "one CSV per pass"}

    def _write_input(self, p: int) -> str:
        ec = ExperimentConfig(case="mono", path_length=self.n)
        pool = evaluation.simulate_pool(ec, derived_seed(self.seed, p), self.per_group)
        path = self._path("input.csv")
        seriesio.write_series([z for group in pool for z in group], path)
        return path

    def _argv(self, source, K, L):
        return ["cluster", "--input", source, "--output", self._path("labels.csv"),
                "--kappa", str(KAPPA), "--log-star", "--K", str(K), "--L", str(L)]

    def setup(self, run):
        source = self._write_input(-1)
        run(self._argv(source, 2, 1))

    def ops(self, p: int) -> list:
        source = self._write_input(p)
        return [Op(self._argv(source, self.K, self.L), self._checker(p))]

    def _checker(self, p):
        def check(out: Outcome) -> list:
            N = KAPPA * self.per_group
            problems = self._check_matrices(out, 1, [[self.n] * N], naive=(p == 0))
            clusterings = out.of("offline.cluster")
            if len(clusterings) != 1:
                return problems + [f"{len(clusterings)} clusterings, expected 1"]
            clustering = clusterings[0].result
            problems += checks.check_partition(clustering, N, KAPPA, True)
            with open(self._path("labels.csv"), newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            reads = out.of("seriesio.read")
            ids = [z.id for z in reads[0].result] if reads else []
            want = [[i, str(k + 1), str(int(j in clustering.centers))]
                    for j, (i, k) in enumerate(zip(ids, clustering.labels))]
            if rows != want:
                problems.append("label file does not match the clustering")
            truth = GroundTruth(kappa=KAPPA, labels=np.repeat(np.arange(KAPPA), self.per_group))
            self.rates[p] = [misclassification_rate(clustering, truth)]
            return problems
        return check


class SimulateIngest(Workload):
    """`covclust simulate` with a new Hurst amplitude per pass, then `ingest-check`."""

    name = "simulate-ingest"

    def __post_init__(self):
        self.n = 200 if self.tiny else 2000
        self.paths = 5 if self.tiny else 100
        self.delta_t = 1.0 / self.n
        self.expected_rows = 2 * self.paths * self.n
        self._written = None
        self.sizes = {"hurst": "sin:h,1.0", "h": "distinct per pass in [-0.4, 0.4]",
                      "n": self.n, "paths": self.paths, "delta_t": self.delta_t}

    def amplitude(self, p: int) -> float:
        """Distinct for every pass: an irrational rotation offset by the seed."""
        u = (self.seed * 0.7548776662466927 + (p + 1) * 0.6180339887498949) % 1.0
        return round(-0.4 + 0.8 * u, 9)

    def _argvs(self, p, n, paths):
        target = self._path("series.csv")
        return (["simulate", "--hurst", f"sin:{self.amplitude(p)!r},1.0", "--n", str(n),
                 "--paths", str(paths), "--delta-t", repr(1.0 / n),
                 "--seed", str(derived_seed(self.seed, p)), "--output", target],
                ["ingest-check", "--input", target])

    def setup(self, run):
        for argv in self._argvs(-1, 50, 2):
            run(argv)

    def ops(self, p: int) -> list:
        simulate, ingest = self._argvs(p, self.n, self.paths)
        return [Op(simulate, self._check_simulate(p)), Op(ingest, self._check_ingest)]

    def _check_simulate(self, p):
        def check(out: Outcome) -> list:
            writes = out.of("seriesio.write")
            self._written = writes[0].args["paths"] if writes else None
            if self._written is None or [len(z) for z in self._written] != [self.n] * self.paths:
                return [f"simulate did not write {self.paths} paths of {self.n} values"]
            digest = hashlib.sha256()
            for z in self._written:
                digest.update(z.values.tobytes())
            self.digests[p] = [digest.hexdigest()]
            return []
        return check

    def _check_ingest(self, out: Outcome) -> list:
        want = f"ok: {self.paths} series, lengths {self.n}..{self.n}\n"
        if out.stdout != want:
            return [f"ingest-check printed {out.stdout!r}, expected {want!r}"]
        reads = out.of("seriesio.read")
        if not reads or self._written is None:
            return ["no series were read back"]
        problems = checks.check_round_trip(self._written, reads[0].result)
        self._written = None
        return problems


WORKLOADS = {w.name: w for w in (OfflineEpochs, OnlineEpochs, ClusterLocalized, SimulateIngest)}
