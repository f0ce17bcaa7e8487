#!/usr/bin/env python3
"""End-to-end benchmark of the phasediversity command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload zk32-methods --seed 0 --seconds 40 --trace 0

One invocation runs one workload in this (fresh) process, as a closed
loop with a single caller: the CLI commands run one after another through
``phasediversity.cli.main``, never concurrently.

The run is a sequence of whole rounds of identical work, started while
the next one fits in ``--seconds`` (at least one round):

1. reference: a fixed kernel that uses none of the program's code;
2. set-up: ``simulate`` writes the workload's instance, at least twice
   and for at least 0.3 s;
3. batch: the workload's CLI command (``solve`` or ``compare-methods``)
   on the fixed restart list derived from ``--seed``;
4. reference again.

The speed of the shared host drifts by a third over minutes, so every
time of a round is scaled by REFERENCE_S over the mean of the round's two
reference times: the reported seconds are those of a host on which the
kernel takes REFERENCE_S.  ``setup_s``, ``batch_s`` and ``cpu_s`` are
medians of the scaled times over the run; FFT calls and iterations are
per batch and must repeat exactly in every round.  The correctness
oracle in ``oracle.py`` runs after the last round.

With ``--trace 1`` untraced and traced rounds alternate; the traced
rounds give the per-layer metrics (see ``tracer.py``), which stay in
unscaled seconds, and the untraced ones the batch time they are compared
with.  The last line of standard output is one JSON object: correct,
attempted, failed, metrics.  Any failed check makes the exit code 1; a
checkout without the program's source gives exit code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = BENCH_DIR / "_runs"

sys.path.insert(0, str(BENCH_DIR))
from oracle import batch_rows, check, read_config  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_MIN = 2          # per round: simulate at least this often ...
SETUP_SECONDS = 0.3    # ... and until this long has passed
REFERENCE_S = 0.006    # reported times are scaled to a host on which
                       # reference_s() takes this long


def import_program():
    init = SRC / "phasediversity" / "__init__.py"
    if not init.is_file():
        print(f"perfbench: program source not found at {init.parent}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import phasediversity
    from phasediversity import cli

    if Path(phasediversity.__file__).resolve() != init.resolve():
        print(f"perfbench: imported {phasediversity.__file__}, not {init}",
              file=sys.stderr)
        sys.exit(2)
    return phasediversity, cli


def sets(overrides):
    return [a for o in overrides for a in ("--set", o)]


def cli_call(cli, argv):
    """One CLI command in this process; returns (exit code, its stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def simulate(cli, overrides, out: Path) -> float:
    if out.exists():
        shutil.rmtree(out)
    t0 = time.perf_counter()
    code, err = cli_call(cli, ["simulate", *sets(overrides), "--out", str(out)])
    dt = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"simulate exited {code}: {err.strip()}")
    return dt


def run_batch(cli, workload, instance: Path, overrides, out: Path, attempted: int):
    """One timed batch; returns a dict of its measurements."""
    if out.exists():
        shutil.rmtree(out)
    argv = [workload.command, "--instance", str(instance), *sets(overrides),
            "--out", str(out)]
    c0 = time.process_time()
    t0 = time.perf_counter()
    code, err = cli_call(cli, argv)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    batch = {"batch_s": wall, "cpu_s": cpu, "attempted": attempted,
             "failed": attempted, "fft_calls": 0, "iterations": 0}
    if code != 0:
        print(f"perfbench: {workload.command} exited {code}: {err.strip()}",
              file=sys.stderr)
        return batch
    rows = [r for _, r in batch_rows(workload.command, out)]
    ok = [r for r in rows if not str(r["stop_reason"]).startswith("error:")]
    batch.update(failed=attempted - len(ok),
                 fft_calls=sum(r["fft_calls"] for r in ok),
                 iterations=sum(r["iterations"] for r in ok))
    return batch


def fft_raw_us(n: int, repeats: int = 200) -> float:
    """Median time of one bare numpy orthonormal FFT of an n x n field."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    np.fft.fft2(x, norm="ortho")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.fft.fft2(x, norm="ortho")
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def reference_s(repeats: int = 7) -> float:
    """Median time of a fixed kernel that uses none of the program's code:
    interpreter work and 128 x 128 FFTs, in about equal parts."""
    field = np.exp(2j * np.pi * np.random.default_rng(0).random((128, 128)))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        s = 0
        for i in range(40_000):
            s += i * i
        y = field
        for _ in range(6):
            y = np.fft.fft2(y * field, norm="ortho")
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def metric(value, unit):
    return {"value": value, "unit": unit}


def median_of(key, batches):
    return statistics.median(b[key] for b in batches)


def run(args) -> int:
    pkg, cli = import_program()
    workload = WORKLOADS[args.workload]
    sim_overrides, batch_overrides = workload.overrides(args.seed, args.tiny)
    attempted = workload.restart_count(args.tiny) * workload.methods
    work = RUNS / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    instance, out = work / "instance", work / "out"
    try:
        work.mkdir(parents=True, exist_ok=True)
        setup, untraced, traced, tracers, references = [], [], [], [], []
        deadline = time.perf_counter() + args.seconds
        last_round = 0.0
        while not untraced or time.perf_counter() + last_round <= deadline:
            t_round = time.perf_counter()
            ref_before = reference_s()
            t_end = time.perf_counter() + SETUP_SECONDS
            round_setup = []
            for k in itertools.count():
                if k >= SETUP_MIN and time.perf_counter() >= t_end:
                    break
                round_setup.append(simulate(cli, sim_overrides, instance))
            batch = run_batch(cli, workload, instance, batch_overrides, out,
                              attempted)
            ref_after = reference_s()
            references += [ref_before, ref_after]
            batch["scale"] = REFERENCE_S / ((ref_before + ref_after) / 2)
            setup += [t * batch["scale"] for t in round_setup]
            untraced.append(batch)
            if args.trace:
                with Tracer() as tracer:
                    simulate(cli, sim_overrides, work / "traced-instance")
                    traced.append(run_batch(cli, workload, instance,
                                            batch_overrides, out, attempted))
                tracers.append(tracer)
            last_round = time.perf_counter() - t_round
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        batches = untraced + traced
        failures = []
        counts = {(b["fft_calls"], b["iterations"]) for b in batches}
        if len(counts) != 1:
            failures.append(f"FFT calls / iterations differ between rounds: {counts}")
        for t in tracers:
            if t.solves_checked == 0:
                failures.append("traced run made no solve call")
            for counted, reported in t.fft_mismatches:
                failures.append(f"a solve made {counted} numpy FFT calls but "
                                f"reported fft_calls = {reported}")
        failures += check(pkg, workload, instance, out, batch_overrides, args.tiny)

        if args.trace:
            metrics = layer_metrics(instance, untraced, traced, tracers,
                                    references)
        else:
            metrics = {
                "setup_s": metric(statistics.median(setup), "s"),
                "batch_s": metric(statistics.median(
                    b["batch_s"] * b["scale"] for b in untraced), "s"),
                "cpu_s": metric(statistics.median(
                    b["cpu_s"] * b["scale"] for b in untraced), "s"),
                "fft_calls": metric(untraced[0]["fft_calls"], "count"),
                "iterations": metric(untraced[0]["iterations"], "count"),
                "peak_rss_mb": metric(peak_rss_mb, "MB"),
            }
        result = {"correct": not failures,
                  "attempted": sum(b["attempted"] for b in batches),
                  "failed": sum(b["failed"] for b in batches),
                  "metrics": metrics}
        for f in failures:
            print(f"perfbench: check failed: {f}", file=sys.stderr)
        print(f"perfbench: {workload.name} seed {args.seed}: {len(setup)} set-ups, "
              f"batch wall s {[round(b['batch_s'], 3) for b in untraced]}, "
              f"host scale {[round(b['scale'], 3) for b in untraced]}, "
              f"traced {[round(b['batch_s'], 3) for b in traced]}", file=sys.stderr)
        save_result(args, result)
        print(json.dumps(result))
        return 0 if not failures else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_metrics(instance, untraced, traced, tracers, references) -> dict:
    per_round = [t.layer_metrics() for t in tracers]
    metrics = {name: metric(statistics.median(r[name][0] for r in per_round), unit)
               for name, (_, unit) in per_round[0].items()}
    raw_us = fft_raw_us(int(read_config(instance)["problem.n"]))
    batch_s = median_of("batch_s", untraced)
    metrics["batch_wall_s"] = metric(batch_s, "s")
    metrics["host.reference_ms"] = metric(statistics.median(references) * 1e3,
                                          "ms")
    metrics["forward.fft_raw_us"] = metric(raw_us, "us")
    metrics["overhead_ratio"] = metric(
        batch_s / (untraced[0]["fft_calls"] * raw_us * 1e-6), "ratio")
    metrics["trace_overhead"] = metric(median_of("batch_s", traced) / batch_s,
                                       "ratio")
    return metrics


def save_result(args, result) -> None:
    """Keep each run's result with the machine it ran on."""
    results = RUNS / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, tiny=args.tiny,
                  python=platform.python_version(), numpy=np.__version__,
                  machine=platform.machine())
    path = results / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")


def run_all(args) -> int:
    """Every workload, each in a fresh process; one result line per workload."""
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace",
                str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"{name} {lines[-1] if lines else '(no result)'}", flush=True)
        code = max(code, proc.returncode)
    return code


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test size: small grids, one or two restarts")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


if __name__ == "__main__":
    args = parse_args()
    sys.exit(run_all(args) if args.workload == "all" else run(args))
