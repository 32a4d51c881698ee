"""covclust benchmark: runs one workload through the CLI and prints its metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("offline-epochs", "online-epochs", "cluster-localized", "simulate-ingest")
# Fresh processes started before the main one. The first, the pass probe,
# runs passes 0 to RSS_PASSES - 1, to read peak memory and to check that
# those passes repeat exactly; the others time set-up.
PROBES = 3
# Peak memory is read after set-up and this many passes, whatever --seconds is.
# Every pass brings a new input, so caches kept across passes show in it.
RSS_PASSES = 2
# In the pass probe, glibc serves every allocation this large by mmap.
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 1 << 20
# A shared host changes speed in phases lasting seconds to minutes. A fixed
# computation, timed next to each pass and after each set-up, measures the
# speed of the moment; times are reported as they would be when it takes
# REFERENCE_NOMINAL_S, its time on an idle 2-core x86-64 machine.
REFERENCE_ROUNDS = 1500
REFERENCE_NOMINAL_S = 0.025
PROBE_TIMEOUT_S = 170
OUT_DIR = ROOT / ".bench_out"

EPILOG = """\
examples:
  python3 bench/run.py --workload offline-epochs --seed 0 --seconds 16 --trace 0
  python3 bench/run.py --workload online-epochs --seed 3 --seconds 16 --trace 1
  python3 bench/smoke.py        # tiny sizes: checks every metric in BENCHMARK.json is emitted

Run from the repository root; covclust is imported from ./src. --trace 0
prints the end-to-end metrics (run_s, setup_s, peak_rss_mb; the times are
scaled to nominal machine speed, see bench/README.md); --trace 1 prints the
per-layer metrics of a traced run, in raw seconds. Inputs, outputs, spans and a
JSON record of each run (git SHA, machine, versions, sizes, every pass) are
written under .bench_out/.
"""


class BenchError(Exception):
    """The benchmark cannot run here (for example, the covclust sources are missing)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.splitlines()[0], epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, default=16.0,
                        help="measure passes until this much time has gone by")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke check")
    parser.add_argument("--probe", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def sources() -> Path:
    src = ROOT / "src"
    if not (src / "covclust" / "__init__.py").is_file():
        raise BenchError(f"no covclust sources under {src}")
    return src


def import_covclust():
    """Import covclust from this checkout's src/, and nowhere else."""
    src = sources()
    sys.path.insert(0, str(src))
    import covclust

    if Path(covclust.__file__).resolve().parent != (src / "covclust").resolve():
        raise BenchError(f"covclust was imported from {covclust.__file__}, not {src}")
    return covclust


class Harness:
    """One process's workload: set-up, then passes of timed ops."""

    def __init__(self, args, tag: str):
        start = time.perf_counter()
        import_covclust()
        import tracing
        import workloads

        self.work = OUT_DIR / f"{args.workload}-{tag}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.wl = workloads.WORKLOADS[args.workload](args.seed, self.work, args.tiny)
        self.rec = tracing.Recorder()
        self.tracing = tracing
        self.workloads = workloads
        self.setup_failures = []
        self.peak_rss_mb = None
        self.wl.setup(self._setup_op)
        self.setup_s = time.perf_counter() - start
        self.setup_reference_s = statistics.median(reference_s() for _ in range(3))

    def _setup_op(self, argv):
        out = self.run_op(argv, traced=False, op_id="setup")
        if out.rc != 0:
            self.setup_failures.append(f"set-up op {argv[0]} failed: rc={out.rc} "
                                       f"{out.error or out.stderr.strip()}")

    def run_op(self, argv, traced: bool, op_id):
        from covclust import cli

        self.rec.install(spans=traced)
        self.rec.begin_op(op_id)
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # an op that raises is a failed op, not a benchmark crash
            rc = None
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        self.rec.uninstall()
        return self.workloads.Outcome(rc, stdout.getvalue(), stderr.getvalue(), error,
                                      self.rec.calls, seconds)

    def run_pass(self, p: int, traced: bool) -> dict:
        ops = self.wl.ops(p)
        self.rec.counts.clear()
        first_span = len(self.rec.name)
        seconds = 0.0
        problems = []
        failed = 0
        for k, op in enumerate(ops):
            out = self.run_op(op.argv, traced, (p, k))
            seconds += out.seconds
            if out.rc != 0:
                op_problems = [f"exit {out.rc}: {out.error or out.stderr.strip()}"]
            else:
                try:
                    op_problems = op.check(out)
                except Exception:  # missing or malformed output files
                    op_problems = [f"check raised {traceback.format_exc(limit=2)}"]
            if op_problems:
                failed += 1
                problems += [f"pass {p} op {k} ({op.argv[0]}): {x}" for x in op_problems]
        return {"pass": p, "traced": traced, "seconds": seconds, "attempted": len(ops),
                "failed": failed, "problems": problems, "fingerprint": self.wl.fingerprint(p),
                "spans": range(first_span, len(self.rec.name)), "counts": dict(self.rec.counts)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_s() -> float:
    """Time of a fixed computation like covclust's: small products, ufuncs, a Python loop."""
    import numpy as np

    x = np.random.default_rng(0).standard_normal((64, 64))
    start = time.perf_counter()
    for i in range(REFERENCE_ROUNDS):
        y = x[:, : 8 + i % 32]
        float(np.log1p(np.abs(y.T @ y)).sum())
        acc = 0
        for j in range(200):
            acc += j * j
    return time.perf_counter() - start


def at_nominal_speed(seconds: float, reference: float) -> float:
    return seconds * REFERENCE_NOMINAL_S / reference


def fix_mmap_threshold() -> bool:
    """Make glibc serve every allocation of MMAP_THRESHOLD_BYTES or more by mmap.

    A freed large array then leaves resident memory at once, so ru_maxrss
    follows the program's live memory rather than where the heap happened to
    place and keep earlier arrays. False where there is no mallopt (not glibc).
    """
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1


def probe(args) -> int:
    """Child process: set-up, and passes in the pass probe; one JSON line of results."""
    pass_probe = args.probe == 0
    fixed = pass_probe and fix_mmap_threshold()
    harness = Harness(args, f"probe{args.probe}")
    out = {"problems": harness.setup_failures}
    if pass_probe:
        results = [harness.run_pass(p, traced=False) for p in range(RSS_PASSES)]
        out.update(peak_rss_mb=peak_rss_mb(), mmap_threshold_fixed=fixed,
                   fingerprints=[r["fingerprint"] for r in results],
                   problems=out["problems"] + [x for r in results for x in r["problems"]])
    else:
        out.update(setup_s=harness.setup_s, setup_reference_s=harness.setup_reference_s)
    print(json.dumps(out))
    return 0


def run_probes(args) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    results = []
    for i in range(PROBES):
        try:
            done = subprocess.run(cmd + ["--probe", str(i)], cwd=ROOT, capture_output=True,
                                  text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            results.append({"problems": [f"probe timed out after {PROBE_TIMEOUT_S} s"]})
            continue
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            results.append({"problems": [f"probe exited {done.returncode}: "
                                         f"{done.stderr.strip()[-500:]}"]})
            continue
        results.append(json.loads(lines[-1]))
    return results


def blas_threads():
    """Threads of the OpenBLAS bundled with numpy, or None if it cannot be asked."""
    import ctypes
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_sha():
    """HEAD of the checkout, or None where it is not a git repository or git is missing."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    return {"git_sha": git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads(),
            "machine": platform.machine()}


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes, harness, probes) -> dict:
    """Medians of pass and set-up times at nominal speed, and the pass probe's peak memory.

    A pass is scaled by the mean of the reference times just before and just after it.
    """
    runs = [at_nominal_speed(p["seconds"], (p["reference_s"] + q["reference_s"]) / 2)
            for p, q in zip(passes, passes[1:] + [{"reference_s": harness.final_reference_s}])]
    main = {"setup_s": harness.setup_s, "setup_reference_s": harness.setup_reference_s}
    setups = [at_nominal_speed(x["setup_s"], x["setup_reference_s"])
              for x in [main] + probes if "setup_s" in x]
    return {"run_s": metric(statistics.median(runs), "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            # The main process's reading stands in only when the pass probe failed.
            "peak_rss_mb": metric(probes[0].get("peak_rss_mb", harness.peak_rss_mb), "MB")}


def per_layer(passes, harness) -> tuple[dict, list]:
    """Per-pass means over the traced passes, and problems with the exact counts."""
    tracing, rec, wl = harness.tracing, harness.rec, harness.wl
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    k = len(traced)
    ids = [i for p in traced for i in p["spans"]]
    self_s, covered = tracing.self_times(rec, ids)
    total = tracing.inclusive_times(rec, ids)
    calls = tracing.call_counts(rec, ids)
    counts = {}
    for p in traced:
        for key, value in p["counts"].items():
            counts[key] = counts.get(key, 0) + value

    def prefixes(span_ids):
        """offline_cluster runs made by the online vote, one per prefix."""
        return sum(1 for i in span_ids if rec.name[i] == "offline.cluster"
                   and rec.parent[i] >= 0 and rec.name[rec.parent[i]] == "online.vote")

    def s(name):
        return metric(self_s.get(name, 0.0) / k, "s")

    def n(value):
        return metric(value / k, "count")

    builds = calls.get("processes.cholesky", 0)
    samples = calls.get("processes.sample_path", 0)
    traced_run = sum(p["seconds"] for p in traced) / k
    plain_run = sum(p["seconds"] for p in plain) / len(plain)
    out = {
        "processes.build_cov_matrix_s": s("processes.build_cov_matrix"),
        "processes.cholesky_s": s("processes.cholesky"),
        "processes.sample_path_s": s("processes.sample_path"),
        "processes.factor_builds": n(builds),
        "processes.sample_path_calls": n(samples),
        "processes.factor_reuse_ratio": metric(1 - builds / samples if samples else 0.0,
                                               "fraction"),
        "hurst.values_on_s": s("hurst.values_on"),
        "hurst.points": n(counts.get("hurst.points", 0)),
        "dissimilarity.matrix_s": s("dissimilarity.matrix"),
        "dissimilarity.d_star_hat_s": s("dissimilarity.d_star_hat"),
        "dissimilarity.d_hat_s": s("dissimilarity.d_hat"),
        "dissimilarity.log_star_s": s("dissimilarity.log_star"),
        "dissimilarity.matrix_calls": n(calls.get("dissimilarity.matrix", 0)),
        "dissimilarity.d_star_hat_calls": n(calls.get("dissimilarity.d_star_hat", 0)),
        "dissimilarity.d_hat_calls": n(calls.get("dissimilarity.d_hat", 0)),
        "dissimilarity.log_star_calls": n(calls.get("dissimilarity.log_star", 0)),
        "dissimilarity.pairs": n(counts.get("dissimilarity.pairs", 0)),
        "dissimilarity.rho": n(counts.get("dissimilarity.rho", 0)),
        "dissimilarity.ns_per_rho": metric(
            total.get("dissimilarity.matrix", 0.0) * 1e9 / counts["dissimilarity.rho"]
            if counts.get("dissimilarity.rho") else 0.0, "ns"),
        "offline.cluster_s": s("offline.cluster"),
        "offline.cluster_calls": n(calls.get("offline.cluster", 0)),
        "online.vote_s": s("online.vote"),
        "online.prefixes": n(prefixes(ids)),
        "evaluation.simulate_pool_s": s("evaluation.simulate_pool"),
        "evaluation.dataset_s": s("evaluation.dataset"),
        "evaluation.score_s": s("evaluation.score"),
        "evaluation.experiment_s": s("evaluation.experiment"),
        "seriesio.write_s": s("seriesio.write"),
        "seriesio.read_s": s("seriesio.read"),
        "seriesio.rows": n(counts.get("seriesio.rows", 0)),
        "seriesio.bytes": metric(counts.get("seriesio.bytes", 0) / k, "bytes"),
        "cli.self_s": s("cli.self"),
        "trace.run_s": metric(traced_run, "s"),
        "trace.overhead_s": metric(traced_run - plain_run, "s"),
        "trace.unaccounted_s": metric(traced_run - covered / k, "s"),
        "trace.spans": n(len(ids)),
    }
    problems = []
    for p in traced:
        got = prefixes(p["spans"])
        if got != wl.expected_prefixes:
            problems.append(f"pass {p['pass']}: {got} online prefixes, "
                            f"closed form {wl.expected_prefixes}")
        rows = p["counts"].get("seriesio.rows", 0)
        if rows != wl.expected_rows:
            problems.append(f"pass {p['pass']}: {rows} series rows, closed form {wl.expected_rows}")
    # Self times must add up to the traced op time; the rest is wrapper and loop cost.
    gap = out["trace.unaccounted_s"]["value"]
    if not 0 <= gap <= 0.02 * traced_run + 0.01:
        problems.append(f"self times leave {gap:.4f} s of {traced_run:.4f} s unaccounted")
    return out, problems


def measure(args, harness) -> list:
    """Passes until --seconds have gone by, and at least RSS_PASSES, as in a pass probe.

    With --trace 1, every other pass is traced.
    """
    passes = []
    start = time.perf_counter()
    p = 0
    while True:
        traced = args.trace == 1 and p % 2 == 1
        reference = reference_s()
        passes.append(dict(harness.run_pass(p, traced), reference_s=reference))
        p += 1
        if p == RSS_PASSES:
            harness.peak_rss_mb = peak_rss_mb()
        if time.perf_counter() - start >= args.seconds and p >= RSS_PASSES:
            harness.final_reference_s = reference_s()
            return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe is not None:
        try:
            return probe(args)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        sources()
        probes = run_probes(args) if args.trace == 0 else []
        harness = Harness(args, "main")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    passes = measure(args, harness)
    problems = list(harness.setup_failures)
    for p in passes:
        problems += p["problems"]
    for i, probe_out in enumerate(probes):
        problems += [f"probe {i}: {x}" for x in probe_out.get("problems", [])]
        for p, fingerprint in enumerate(probe_out.get("fingerprints", [])):
            if fingerprint != passes[p]["fingerprint"]:
                problems.append(f"probe {i}: pass {p} outputs differ from this process's "
                                f"({fingerprint} vs {passes[p]['fingerprint']})")
    if args.trace == 0:
        metrics = end_to_end(passes, harness, probes)
    else:
        metrics, count_problems = per_layer(passes, harness)
        problems += count_problems
        harness.rec.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz")

    rates = [r for p in passes for r in (harness.wl.rates.get(p["pass"]) or [])]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "tiny": args.tiny, "sizes": harness.wl.sizes,
        "environment": environment(),
        "mean_rate": statistics.fmean(rates) if rates else None,
        "pass0_rates": harness.wl.rates.get(0),
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
        "run_wall_s": statistics.median(p["seconds"] for p in passes),
        "final_reference_s": harness.final_reference_s, "probes": probes,
        "setup_s_main": harness.setup_s, "setup_reference_s_main": harness.setup_reference_s,
        "peak_rss_mb_main": harness.peak_rss_mb,
        "problems": problems, "metrics": metrics,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, default=str))
    print("record: " + json.dumps({k: record[k] for k in
                                   ("environment", "sizes", "mean_rate", "problems")}))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
