"""Span recording around covclust's public functions, from outside the package.

A Recorder rebinds each traced function in the module that defines it and in
every covclust module that imported it by name, so calls made through the
CLI reach the wrapper. Spans stay in memory until the benchmark writes them
out. Without spans, the same wrappers only keep each call's arguments and
result so that the benchmark can check the program's outputs.
"""

from __future__ import annotations

import collections
import csv
import functools
import gzip
import inspect
import os
import sys
import threading
import time
from dataclasses import dataclass

# (module, attribute) -> span name. The span name is the layer metric prefix.
TRACED = {
    ("covclust.processes", "build_cov_matrix"): "processes.build_cov_matrix",
    ("covclust.processes", "cholesky_with_jitter"): "processes.cholesky",
    ("covclust.processes", "sample_path"): "processes.sample_path",
    ("covclust.hurst", "HurstFunction.values_on"): "hurst.values_on",
    ("covclust.dissimilarity", "dissimilarity_matrix"): "dissimilarity.matrix",
    ("covclust.dissimilarity", "d_star_hat"): "dissimilarity.d_star_hat",
    ("covclust.dissimilarity", "d_hat"): "dissimilarity.d_hat",
    ("covclust.dissimilarity", "log_star"): "dissimilarity.log_star",
    ("covclust.offline", "offline_cluster"): "offline.cluster",
    ("covclust.online", "online_cluster"): "online.vote",
    ("covclust.evaluation", "run_experiment"): "evaluation.experiment",
    ("covclust.evaluation", "simulate_pool"): "evaluation.simulate_pool",
    ("covclust.evaluation", "build_offline_dataset"): "evaluation.dataset",
    ("covclust.evaluation", "build_online_dataset"): "evaluation.dataset",
    ("covclust.evaluation", "misclassification_rate"): "evaluation.score",
    ("covclust.seriesio", "write_series"): "seriesio.write",
    ("covclust.seriesio", "read_series"): "seriesio.read",
    ("covclust.cli", "main"): "cli.self",
}

# Calls whose arguments and results the output checks read.
CAPTURED = ("dissimilarity.matrix", "offline.cluster", "online.vote",
            "seriesio.write", "seriesio.read")

# Calls that add to the exact counts of a traced run.
COUNTED = ("hurst.values_on", "dissimilarity.matrix", "seriesio.write", "seriesio.read")


@dataclass
class Call:
    """One captured call: span name, bound arguments, result, and rho counted if traced."""

    name: str
    args: dict
    result: object
    rho: int | None


class Recorder:
    """Wraps covclust functions; records spans when `spans` is true.

    A span is (name, start_ns, end_ns, parent, op id, thread id). The parent
    of a span opened on a thread with no open span (a pool worker) is the
    innermost open span of the thread that started the current op.
    """

    def __init__(self):
        self.spans = False
        self.op_id = None
        self.name: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.op: list = []
        self.thread: list = []
        self.calls: list = []
        self.counts = collections.Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = []
        self._patched = []

    # -- installation -------------------------------------------------------

    def install(self, spans: bool) -> None:
        """Rebind every traced function (all of them, or only the captured ones)."""
        self.uninstall()
        self.spans = spans
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "covclust" or k.startswith("covclust."))]
        for (modname, attr), name in TRACED.items():
            if not spans and name not in CAPTURED:
                continue
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[meth]
                self._set(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._patched):
            setattr(obj, key, original)
        self._patched = []

    def _set(self, obj, key, value) -> None:
        self._patched.append((obj, key, vars(obj)[key]))
        setattr(obj, key, value)

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self.op_id = op_id
        self._root = self._stack()
        self.calls = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        sig = inspect.signature(fn)
        captured = name in CAPTURED
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter = None
            if name == "dissimilarity.matrix" and rec.spans:
                # The CLI passes no OpCounter; supply one so rho is exact.
                bound = sig.bind(*args, **kwargs)
                if bound.arguments.get("counter") is None:
                    from covclust.dissimilarity import OpCounter
                    bound.arguments["counter"] = OpCounter()
                counter = bound.arguments["counter"]
                args, kwargs = bound.args, bound.kwargs
            rho0 = counter.rho if counter is not None else 0
            if rec.spans:
                result = rec._timed(name, fn, args, kwargs)
            else:
                result = fn(*args, **kwargs)
            if captured or (rec.spans and name in COUNTED):
                arguments = sig.bind(*args, **kwargs).arguments
                rho = counter.rho - rho0 if counter is not None else None
                if rec.spans:
                    rec._count(name, arguments, result, rho)
                if captured:
                    rec.calls.append(Call(name, arguments, result, rho))
            return result

        return wrapper

    def _timed(self, name, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._root[-1] if self._root else -1
        with self._lock:
            idx = len(self.name)
            self.name.append(name)
            self.start.append(0)
            self.end.append(0)
            self.parent.append(parent)
            self.op.append(self.op_id)
            self.thread.append(threading.get_ident())
        stack.append(idx)
        self.start[idx] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter_ns()
            stack.pop()

    def _count(self, name, arguments, result, rho) -> None:
        if name == "hurst.values_on":
            self.counts["hurst.points"] += len(arguments["times"])
        elif name == "dissimilarity.matrix":
            n = len(arguments["paths"])
            self.counts["dissimilarity.pairs"] += n * (n - 1) // 2
            self.counts["dissimilarity.rho"] += rho
        elif name == "seriesio.write":
            self.counts["seriesio.rows"] += sum(len(p) for p in arguments["paths"])
            self.counts["seriesio.bytes"] += os.path.getsize(arguments["destination"])
        elif name == "seriesio.read":
            self.counts["seriesio.rows"] += sum(len(p) for p in result)
            self.counts["seriesio.bytes"] += os.path.getsize(arguments["source"])

    # -- output -------------------------------------------------------------

    def write(self, destination) -> None:
        """All spans as gzip CSV: index, name, start_ns, end_ns, parent, op, thread."""
        with gzip.open(destination, "wt", compresslevel=1, newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["index", "name", "start_ns", "end_ns", "parent", "op", "thread"])
            writer.writerows(zip(range(len(self.name)), self.name, self.start, self.end,
                                 self.parent, map(str, self.op), self.thread))


def self_times(rec: Recorder, ids) -> tuple[dict, float]:
    """Self seconds per span name over the given spans, and the wall time they cover.

    A span's self time is the time it is open with none of its children open.
    Where spans on several threads are in that state at once, the interval is
    split equally among them, so self times add up to the covered wall time.
    """
    ids = sorted(ids)
    events = []
    for i in ids:
        events.append((rec.start[i], 1, i))
        events.append((rec.end[i], 0, -i))
    # Ends before starts at equal times; children (higher index) end first
    # and parents (lower index) start first.
    events.sort()
    open_children = collections.Counter()
    active = set()
    leaves = set()
    out = collections.Counter()
    covered = 0
    prev = None
    for t, kind, key in events:
        if prev is not None and leaves and t > prev:
            share = (t - prev) / len(leaves)
            for s in leaves:
                out[rec.name[s]] += share
            covered += t - prev
        prev = t
        if kind == 1:
            s = key
            p = rec.parent[s]
            if p in active:
                if open_children[p] == 0:
                    leaves.discard(p)
                open_children[p] += 1
            active.add(s)
            leaves.add(s)
        else:
            s = -key
            active.discard(s)
            leaves.discard(s)
            p = rec.parent[s]
            if p in active:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return {k: v / 1e9 for k, v in out.items()}, covered / 1e9


def inclusive_times(rec: Recorder, ids) -> dict:
    """Total span seconds per name (spans of one name never nest here)."""
    out = collections.Counter()
    for i in ids:
        out[rec.name[i]] += (rec.end[i] - rec.start[i]) / 1e9
    return dict(out)


def call_counts(rec: Recorder, ids) -> dict:
    out = collections.Counter()
    for i in ids:
        out[rec.name[i]] += 1
    return dict(out)
