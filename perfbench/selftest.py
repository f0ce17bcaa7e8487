#!/usr/bin/env python3
"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at its tiny size (small grids, one
or two restarts) with a single batch, untraced and traced, and checks
that each run passes its checks and prints every metric BENCHMARK.json
names, with its unit.  Takes well under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            result = run_once(w["name"], trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            tag = f"{w['name']} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not (result["correct"] and result["attempted"] >= 1
                    and result["failed"] == 0):
                problems.append(f"{tag}: correct={result['correct']} "
                                f"attempted={result['attempted']} "
                                f"failed={result['failed']}")
            if got != expected[trace]:
                problems.append(f"{tag}: metrics {got} != {expected[trace]}")
            print(f"{tag}: {len(got)} metrics", file=sys.stderr)
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
