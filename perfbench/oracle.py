"""Correctness oracle kept apart from the program.

The forward model and the misfits are re-written here in a few lines of
numpy: the defocus plane multiplies the pupil field by
exp(2 pi i d r^2) on the centered lattice x_j = (j - n/2)/n and takes an
orthonormal 2-D FFT; the amplitude plane is the field itself.  The
program is used only to re-solve restart 0 through its public ``solve``
and to produce the artifacts the checks read.
"""

from __future__ import annotations

import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

REL_TOL = 1e-9


def _close(a: float, b: float, tol: float = REL_TOL, floor: float = 1.0) -> bool:
    return abs(a - b) <= tol * max(floor, abs(a), abs(b))


def read_config(instance_dir: Path) -> dict:
    out = {}
    for line in (instance_dir / "config.txt").read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def plane_fields(u: np.ndarray, defocus, amplitude_plane: bool):
    """Field on every measurement plane, in plan order."""
    n = u.shape[0]
    x = (np.arange(n) - n / 2.0) / n
    r2 = x[None, :] ** 2 + x[:, None] ** 2
    fields = [u] if amplitude_plane else []
    fields += [np.fft.fft2(np.exp(2j * np.pi * d * r2) * u, norm="ortho")
               for d in defocus]
    return fields


def misfit(model: str, fields, intensities, eps: float) -> float:
    total = 0.0
    for w, data in zip(fields, intensities):
        K = np.abs(w) ** 2
        if model == "LS":
            total += float(np.sum(K - 2.0 * np.sqrt(K + eps * eps) * np.sqrt(data)))
        elif model == "MLP":
            total += float(np.sum(K - data * np.log(K + eps * eps)))
        else:
            total += float(0.5 * np.sum((K - data) ** 2))
    return total


def aligned_rms(truth: np.ndarray, u: np.ndarray) -> float:
    ip = np.vdot(truth, u)
    c = ip / abs(ip) if ip != 0 else 1.0
    return float(np.linalg.norm(c * truth - u) / np.linalg.norm(truth))


def read_trace_column(path: Path, column: str) -> np.ndarray:
    with open(path) as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    idx = rows[0].index(column)
    return np.array([float(r[idx]) for r in rows[1:]])


def batch_rows(command: str, out_dir: Path):
    """(method, row) for every restart the CLI reported."""
    if command == "compare-methods":
        payload = json.loads((out_dir / "compare_methods.json").read_text())
        return [(e["method"], r) for e in payload["methods"] for r in e["restarts"]]
    payload = json.loads((out_dir / "summary.json").read_text())
    method = payload["config"]["solver.method"]
    return [(method, r) for r in payload["restarts"]]


def check(pkg, workload, instance_dir: Path, out_dir: Path, batch_overrides,
          tiny: bool) -> list:
    """Run every check for one workload; returns the failures as text."""
    from phasediversity.experiments import (config_from_sources,
                                            initial_guess, reconcile_noise)
    from phasediversity.objectives import DataMisfit, ObjectiveSpec

    failures = []
    meta = read_config(instance_dir)
    defocus = [float(t) for t in meta["plan.defocus"].split(",") if t]
    amplitude_plane = meta["plan.amplitude_plane"] == "True"
    truth = np.load(instance_dir / "truth.npy")

    # Measured intensities on disk are the noiseless images of the truth.
    for m, w in enumerate(plane_fields(truth, defocus, amplitude_plane)):
        on_disk = np.loadtxt(instance_dir / f"plane_{m:02d}.csv",
                             delimiter=",", comments="#", ndmin=2)
        expect = np.abs(w) ** 2
        if np.max(np.abs(on_disk - expect)) > 1e-12 * np.max(expect):
            failures.append(f"plane {m}: stored intensity differs from the "
                            f"oracle's forward model")

    rows = batch_rows(workload.command, out_dir)
    config = config_from_sources(None, batch_overrides)
    instance = reconcile_noise(config, pkg.load_instance(instance_dir))
    spec = ObjectiveSpec(config.model, config.epsilon, instance.plan,
                         instance.data, instance.grid)
    methods = sorted({m for m, _ in rows})
    traces = []
    for method in methods:
        row0 = next(r for m, r in rows if m == method and r["restart"] == 0)
        seed = row0["seed"]
        z, trace = pkg.solve(DataMisfit(spec),
                             replace(config.solver, method=method, seed=seed),
                             initial_guess(instance.grid.mask, seed),
                             truth=instance.truth)
        traces.append((method, trace.f_values))
        tag = f"{method} restart 0"
        if (trace.fft_calls, trace.iterations, trace.stop_reason) != (
                row0["fft_calls"], row0["iterations"], row0["stop_reason"]):
            failures.append(f"{tag}: re-solve gave fft/iters/stop "
                            f"{trace.fft_calls}/{trace.iterations}/"
                            f"{trace.stop_reason}, the CLI reported "
                            f"{row0['fft_calls']}/{row0['iterations']}/"
                            f"{row0['stop_reason']}")
        f_own = misfit(config.model, plane_fields(z, defocus, amplitude_plane),
                       instance.data.intensities, config.epsilon)
        if not _close(f_own, trace.records[-1].f_value):
            failures.append(f"{tag}: final f {trace.records[-1].f_value!r} but "
                            f"the oracle computes {f_own!r}")
        rms_own = aligned_rms(truth, z)
        if not _close(rms_own, row0["final_rms"], 1e-7, floor=0.0):
            failures.append(f"{tag}: final_rms {row0['final_rms']!r} but the "
                            f"oracle computes {rms_own!r}")

    if workload.command == "solve":
        restarts = sorted(out_dir.glob("trace_restart_*.csv"))
        if len(restarts) != len(rows):
            failures.append(f"{len(restarts)} trace files for {len(rows)} restarts")
        traces += [(p.name, read_trace_column(p, "f")) for p in restarts]
    for name, f in traces:
        if np.any(np.diff(f) > 0):
            failures.append(f"{name}: objective increases along the trace")

    if not tiny and workload.command == "compare-methods":
        failures += _method_comparison(rows)
    if workload.noisy:
        # A restart can stall in a wrong basin and never reach the level
        # (restart seed 808 of seed 404 stops at RMS 1.28), so only the
        # restarts that do reach it are held to the semiconvergence check.
        for _, r in rows:
            if "morozov_reached" not in r:
                failures.append(f"restart {r['restart']}: no Morozov result")
                continue
            path = out_dir / f"trace_restart_{r['restart']:02d}.csv"
            rms0 = read_trace_column(path, "rms")[0]
            if r["morozov_reached"] and not r["morozov_rms"] < rms0:
                failures.append(f"restart {r['restart']}: Morozov level reached "
                                f"at RMS {r['morozov_rms']:.3g}, not below the "
                                f"initial {rms0:.3g}")
    return failures


def _method_comparison(rows) -> list:
    """FFT ordering LBFGS < NCG < SD, LBFGS < TN, and acceptance criterion
    6's recovery thresholds (7 in 10 restarts) on the noiseless batch."""
    by_method = {}
    for method, r in rows:
        by_method.setdefault(method, []).append(r)
    fft = {m: np.mean([r["fft_calls"] for r in rs]) for m, rs in by_method.items()}
    failures = []
    if not (fft["LBFGS"] < fft["NCG"] < fft["SD"] and fft["LBFGS"] < fft["TN"]):
        failures.append(f"FFT ordering broken: mean FFT calls {fft}")
    for method, threshold in (("LBFGS", 1e-5), ("NCG", 1e-5), ("SD", 1e-3)):
        rs = by_method[method]
        ok = sum(r["final_rms"] < threshold for r in rs)
        if 10 * ok < 7 * len(rs):
            failures.append(f"{method}: {ok}/{len(rs)} restarts reach "
                            f"rms < {threshold:g}")
    if any(r["iterations"] > 150 for _, r in rows):
        failures.append("a restart ran more than 150 iterations")
    return failures
