"""Acceptance suite.

Each test exercises one numbered acceptance criterion at its stated
tolerance and prints one PASS/FAIL line (run with ``pytest
tests/test_acceptance.py -v -s`` to see them).  The statistical
criteria share seeded benchmark batches through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

import phasediversity.optimizers as opt
from phasediversity.experiments import _projection_planes, initial_guess
from phasediversity.forward import (
    DiversityPlan,
    TransformCounter,
    diversity_forward,
)
from phasediversity.hessian import (
    clustering_comparison,
    closed_form_spectrum,
    dense_hessian,
    hessian_diagonals,
    lipschitz_bound,
    plane_matrix,
    structured_eigenvalues,
)
from phasediversity.objectives import (
    MODELS,
    DataMisfit,
    MeasurementSet,
    ObjectiveSpec,
)
from phasediversity.optimizers import SolverConfig, misell_iterate, solve
from phasediversity.problems import add_poisson_noise, build_problem

from conftest import random_complex, structured_hermitian_matrix


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def spec_for(instance, model, eps=1e-14):
    return ObjectiveSpec(model, eps, instance.plan, instance.data, instance.grid)


# ---------------------------------------------------------------------------
# Shared seeded batches
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def methods_batch(bench32):
    """SD/NCG/LBFGS/TN x 10 shared-seed restarts on the n=32 benchmark,
    with every accepted line-search step and stored curvature pair recorded."""
    wolfe_steps = []
    stored_pairs = []
    real_search = opt.wolfe_line_search
    real_push = opt.LbfgsMemory.push

    def recording_search(fg, z, d, g, f0=None, c1=1e-4, c2=0.9, max_evals=50):
        res = real_search(fg, z, d, g, f0=f0, c1=c1, c2=c2, max_evals=max_evals)
        dphi0 = float(np.real(np.vdot(d, g)))
        dphi_new = float(np.real(np.vdot(d, res.g_new)))
        wolfe_steps.append((f0, dphi0, res.alpha, res.f_new, dphi_new, c1, c2))
        return res

    def recording_push(self, s, y):
        stored = real_push(self, s, y)
        if stored:
            stored_pairs.append(float(np.real(np.vdot(y, s))))
        return stored

    opt.wolfe_line_search = recording_search
    opt.LbfgsMemory.push = recording_push
    spec = spec_for(bench32, "LS")
    batches = {}
    t0 = time.perf_counter()
    try:
        for method in ("SD", "NCG", "LBFGS", "TN"):
            traces = []
            for s in range(10):
                obj = DataMisfit(spec, TransformCounter())
                _, trace = solve(obj, SolverConfig(method=method, seed=s),
                                 initial_guess(bench32.grid.mask, s),
                                 truth=bench32.truth)
                traces.append(trace)
            batches[method] = traces
    finally:
        opt.wolfe_line_search = real_search
        opt.LbfgsMemory.push = real_push
    elapsed = time.perf_counter() - t0
    return {"batches": batches, "elapsed": elapsed,
            "wolfe_steps": wolfe_steps, "stored_pairs": stored_pairs}


@pytest.fixture(scope="module")
def models_batch(bench32):
    """MLP/LS/LSI under LBFGS with shared restart seeds."""
    out = {}
    for model in MODELS:
        spec = spec_for(bench32, model)
        traces = []
        for s in range(10):
            obj = DataMisfit(spec, TransformCounter())
            _, trace = solve(obj, SolverConfig(seed=s),
                             initial_guess(bench32.grid.mask, s),
                             truth=bench32.truth)
            traces.append(trace)
        out[model] = traces
    return out


@pytest.fixture(scope="module")
def noisy_batches(bench32):
    """LBFGS/LS runs on Poisson-noisy data at SNR 30, 20 and 10."""
    out = {}
    for snr in (30.0, 20.0, 10.0):
        traces = []
        for s in range(10):
            noisy = add_poisson_noise(bench32.data, snr=snr, seed=1000 + s)
            spec = ObjectiveSpec("LS", 1e-14, bench32.plan, noisy, bench32.grid)
            obj = DataMisfit(spec, TransformCounter())
            _, trace = solve(obj, SolverConfig(seed=s),
                             initial_guess(bench32.grid.mask, s),
                             truth=bench32.truth)
            traces.append(trace)
        out[snr] = traces
    return out


def fd_instances():
    """n=8 configurations covering both plane kinds for every model."""
    plans = [
        DiversityPlan.from_defocus([3.0], amplitude_plane=True),
        DiversityPlan.from_defocus([-3.0, 3.0], amplitude_plane=False),
    ]
    rng = np.random.default_rng(100)
    grid = build_problem("zernike", 8, defocus=(3.0,)).grid
    truth = np.where(grid.mask, np.exp(1j * rng.uniform(-np.pi, np.pi,
                                                        (8, 8))), 0)
    specs = []
    for plan in plans:
        data = MeasurementSet(
            [np.abs(diversity_forward(truth, p, grid)) ** 2 for p in plan])
        for model in MODELS:
            specs.append(ObjectiveSpec(model, 1e-6, plan, data, grid))
    return specs


def test_criterion_01_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(200)
    worst = 0.0
    for spec in fd_instances():
        obj = DataMisfit(spec)
        u = random_complex(rng, (8, 8))
        _, g = obj.value_and_gradient(u)
        t = 1e-6
        for _ in range(20):
            h = random_complex(rng, (8, 8))
            fd = (obj.value(u + t * h) - obj.value(u - t * h)) / (2 * t)
            an = 2.0 * np.real(np.vdot(h, g))
            worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-5 and elapsed < 10.0,
           f"gradient vs central differences: worst rel err {worst:.2e} "
           f"(<=1e-5), runtime {elapsed:.1f}s (<10s)")


def test_criterion_02_hvp_matches_finite_differences_and_is_symmetric():
    rng = np.random.default_rng(300)
    worst_fd = 0.0
    worst_sym = 0.0
    for spec in fd_instances():
        obj = DataMisfit(spec)
        u = random_complex(rng, (8, 8))
        t = 1e-5
        for _ in range(20):
            h = random_complex(rng, (8, 8))
            fd = (obj.value_and_gradient(u + t * h)[1]
                  - obj.value_and_gradient(u - t * h)[1]) / (2 * t)
            an = obj.hessian_operator(u)(h)
            worst_fd = max(worst_fd, np.linalg.norm(fd - an)
                           / max(1.0, np.linalg.norm(an)))
        for _ in range(5):
            p = random_complex(rng, (8, 8))
            q = random_complex(rng, (8, 8))
            s1 = np.real(np.vdot(p, obj.hessian_operator(u)(q)))
            s2 = np.real(np.vdot(q, obj.hessian_operator(u)(p)))
            worst_sym = max(worst_sym, abs(s1 - s2) / max(1.0, abs(s1)))
    report(2, worst_fd <= 1e-4 and worst_sym <= 1e-10,
           f"Hessian action vs gradient differences: rel err {worst_fd:.2e} "
           f"(<=1e-4), symmetry defect {worst_sym:.2e} (<=1e-10)")


def test_criterion_03_structured_spectrum_equals_dense_eigensolver():
    rng = np.random.default_rng(400)
    worst = 0.0
    for N in (8, 64):
        for _ in range(5):
            r = rng.standard_normal(N)
            c = random_complex(rng, N)
            Q, _ = np.linalg.qr(random_complex(rng, (N, N)))
            dense = np.sort(np.linalg.eigvalsh(
                structured_hermitian_matrix(r, c, Q)))
            got = structured_eigenvalues(r, c).eigenvalues
            worst = max(worst, float(np.abs(got - dense).max()))
    report(3, worst <= 1e-9,
           f"r+-|c| spectrum vs dense eigensolver (random unitary): "
           f"max deviation {worst:.2e} (<=1e-9)")


def test_criterion_04_closed_forms_match_assembled_hessians():
    rng = np.random.default_rng(500)
    inst = build_problem("zernike", 4, defocus=(3.0,), amplitude_plane=True,
                         r_inner=0.0, r_outer=0.5, zernike_index=1,
                         zernike_coeff=0.2)
    eps = 1e-3
    u = random_complex(rng, (4, 4))
    worst_eig = 0.0
    worst_hvp = 0.0
    for plane, intensity in zip(inst.plan, inst.data.intensities):
        U = plane_matrix(plane, inst.grid)
        for model in MODELS:
            r, c = hessian_diagonals(model, u, plane, inst.grid, intensity, eps)
            H = dense_hessian(r, c, U)
            dense = np.sort(np.linalg.eigvalsh(H))
            closed = closed_form_spectrum(model, u, plane, inst.grid,
                                          intensity, eps).eigenvalues
            worst_eig = max(worst_eig, float(np.abs(closed - dense).max()))
            if model in ("MLP", "LS"):
                spec = ObjectiveSpec(model, eps, DiversityPlan([plane]),
                                     MeasurementSet([intensity]), inst.grid)
                obj = DataMisfit(spec)
                for _ in range(3):
                    h = random_complex(rng, (4, 4))
                    stacked = np.concatenate([h.ravel(), np.conj(h.ravel())])
                    top = (H @ stacked)[:16].reshape(4, 4)
                    hv = obj.hessian_operator(u)(h)
                    worst_hvp = max(worst_hvp, float(np.abs(hv - top).max()))
    report(4, worst_eig <= 1e-9 and worst_hvp <= 1e-9,
           f"closed-form spectra vs assembled Hessians: eig dev "
           f"{worst_eig:.2e}, HVP dev {worst_hvp:.2e} (<=1e-9)")


def test_criterion_05_ls_spectrum_clusters_inside_mlp():
    inst = build_problem("zernike", 16)
    plane = inst.plan.planes[-1]
    intensity = inst.data.intensities[-1]
    rng = np.random.default_rng(600)
    eps = 1e-14
    contained = 0
    ls_max_ok = True
    for _ in range(100):
        u = inst.truth + 0.05 * random_complex(rng, inst.truth.shape)
        rep = clustering_comparison(u, plane, inst.grid, intensity, eps)
        ls_max_ok = ls_max_ok and rep.ls_max_times2 <= 2.0 + 1e-12
        contained += rep.ls_interval_contained
    report(5, ls_max_ok and contained >= 95,
           f"scaled-LS spectrum: max <= 2 always ({ls_max_ok}), interval "
           f"contained in Poisson-model interval {contained}/100 (>=95)")


def test_criterion_06_noiseless_recovery_statistics(methods_batch):
    batches = methods_batch["batches"]
    finals = {m: np.array([t.records[-1].rms for t in batches[m]])
              for m in ("LBFGS", "NCG", "SD")}
    lbfgs_ok = int(np.sum(finals["LBFGS"] < 1e-5))
    ncg_ok = int(np.sum(finals["NCG"] < 1e-5))
    sd_ok = int(np.sum(finals["SD"] < 1e-3))
    iters_ok = all(t.iterations <= 150 for m in finals for t in batches[m])
    elapsed = methods_batch["elapsed"]
    ok = (lbfgs_ok >= 7 and ncg_ok >= 7 and sd_ok >= 7 and iters_ok
          and elapsed < 120.0)
    report(6, ok,
           f"noiseless n=32 recovery: LBFGS {lbfgs_ok}/10, NCG {ncg_ok}/10 "
           f"at rms<1e-5, SD {sd_ok}/10 at rms<1e-3, within 150 iters, "
           f"batch runtime {elapsed:.0f}s (<120s)")


def test_criterion_07_fft_call_ordering(methods_batch):
    batches = methods_batch["batches"]
    mean_fft = {m: float(np.mean([t.fft_calls for t in batches[m]]))
                for m in batches}
    ok = (mean_fft["LBFGS"] < mean_fft["NCG"] < mean_fft["SD"]
          and mean_fft["LBFGS"] < mean_fft["TN"])
    report(7, ok,
           "mean FFT calls " + ", ".join(f"{m}={mean_fft[m]:.0f}"
                                         for m in ("LBFGS", "NCG", "SD", "TN"))
           + " ordered LBFGS < NCG < SD and LBFGS < TN")


def test_criterion_08_model_ordering(models_batch):
    def iters_to(trace, thr):
        for rec in trace.records:
            if rec.rms < thr:
                return rec.iteration
        return None

    INF = 10 ** 9
    ordered = 0
    lsi_failures = 0
    for s in range(10):
        its = {m: iters_to(models_batch[m][s], 1e-3) for m in MODELS}
        a, b, c = (its[m] if its[m] is not None else INF
                   for m in ("LS", "MLP", "LSI"))
        ordered += a <= b <= c
        lsi_failures += its["LSI"] is None
    report(8, ordered >= 7 and lsi_failures >= 5,
           f"iterations to rms<1e-3 ordered LS<=MLP<=LSI in {ordered}/10 "
           f"seeds (>=7); LSI fails to reach in {lsi_failures}/10 (>=5)")


def test_criterion_09_misell_stagnation(bench32):
    plan, data = _projection_planes(bench32)
    stagnant = 0
    for s in range(10):
        _, trace = misell_iterate(initial_guess(bench32.grid.mask, s), plan,
                                  data, bench32.grid, 500, truth=bench32.truth)
        stagnant += trace.records[-1].rms > 0.9
    report(9, stagnant >= 8,
           f"500 modulus-projection sweeps leave rms>0.9 in {stagnant}/10 "
           f"seeds (>=8)")


def test_criterion_10_semiconvergence(noisy_batches):
    interior = 0
    monotone = True
    for trace in noisy_batches[10.0]:
        rms = trace.rms_values
        mn = np.nanmin(rms)
        interior += (mn < rms[0]) and (mn < rms[-1])
    for snr in (30.0, 20.0, 10.0):
        for trace in noisy_batches[snr]:
            f = trace.f_values
            monotone = monotone and bool(
                np.all(np.diff(f) <= 1e-12 * np.maximum(1.0, np.abs(f[:-1]))))
    mean_min = {snr: float(np.mean([np.nanmin(t.rms_values)
                                    for t in noisy_batches[snr]]))
                for snr in noisy_batches}
    trend = mean_min[10.0] > mean_min[20.0] > mean_min[30.0]
    report(10, interior >= 8 and monotone and trend,
           f"SNR=10 interior RMS minimum in {interior}/10 seeds (>=8); misfit "
           f"monotone ({monotone}); seed-mean min-RMS "
           f"{mean_min[10.0]:.3f} > {mean_min[20.0]:.3f} > {mean_min[30.0]:.3f}")


def test_criterion_11_wolfe_and_descent_invariants(methods_batch):
    steps = methods_batch["wolfe_steps"]
    wolfe_ok = all(
        f_new <= f0 + c1 * alpha * dphi0 and dphi_new >= c2 * dphi0
        for (f0, dphi0, alpha, f_new, dphi_new, c1, c2) in steps)
    descent_ok = True
    for traces in methods_batch["batches"].values():
        for trace in traces:
            f = trace.f_values
            descent_ok = descent_ok and bool(np.all(np.diff(f) <= 0.0))
    pairs = methods_batch["stored_pairs"]
    pairs_ok = len(pairs) > 0 and all(ys > 0.0 for ys in pairs)
    report(11, wolfe_ok and descent_ok and pairs_ok,
           f"{len(steps)} accepted steps satisfy both Wolfe inequalities "
           f"({wolfe_ok}); traces monotone ({descent_ok}); "
           f"{len(pairs)} stored curvature pairs all positive ({pairs_ok})")


def test_criterion_12_lipschitz_bounds():
    rng = np.random.default_rng(700)
    worst_margin = np.inf
    ok = True
    for model in ("MLP", "LS"):
        for eps in (1e-2, 1e-6):
            spec = fd_instances()[0]
            spec = ObjectiveSpec(model, eps, spec.plan, spec.data, spec.grid)
            obj = DataMisfit(spec)
            bound = lipschitz_bound(model, spec.data, spec.plan, eps)
            for _ in range(100):
                u = random_complex(rng, (8, 8))
                v = random_complex(rng, (8, 8))
                quot = (np.linalg.norm(obj.value_and_gradient(u)[1]
                                       - obj.value_and_gradient(v)[1])
                        / np.linalg.norm(u - v))
                ok = ok and quot <= bound
                worst_margin = min(worst_margin, bound / max(quot, 1e-300))
    report(12, ok,
           f"sampled gradient difference quotients never exceed the bound "
           f"(smallest bound/quotient ratio {worst_margin:.2e} >= 1)")
