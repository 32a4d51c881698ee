"""Smoke check: at tiny sizes, every workload emits exactly the metrics BENCHMARK.json names.

Run from the repository root: python3 bench/smoke.py
Exits 0 when every workload, traced and untraced, prints a correct result
whose metric names and units match BENCHMARK.json; prints what differs otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", "0", "--seconds", "1",
                                     "--trace", str(trace), "--tiny"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{workload} --trace {trace}"
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                failures.append(f"{label}: exit {done.returncode}: {done.stderr.strip()[-400:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                units = sorted(k for k in set(got) & set(wanted[trace])
                               if got[k] != wanted[trace][k])
                failures.append(f"{label}: missing {missing}, extra {extra}, wrong units {units}")
            bad = [k for k, v in result["metrics"].items()
                   if not isinstance(v["value"], (int, float))]
            if bad:
                failures.append(f"{label}: non-numeric values for {bad}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            print(f"ok: {label}" if not failures or not failures[-1].startswith(label)
                  else f"FAIL: {failures[-1]}", flush=True)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
