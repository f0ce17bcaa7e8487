import inspect

import numpy as np
import pytest

from phasediversity.fields import _DOT_BLOCK
from phasediversity.objectives import DataMisfit, MeasurementSet, ObjectiveSpec
from phasediversity.optimizers import (
    LbfgsMemory,
    LineSearchError,
    RunTrace,
    SolverConfig,
    TraceRecord,
    _cubic_minimizer,
    _newton_cg_direction,
    hestenes_stiefel_beta,
    lbfgs_direction,
    misell_iterate,
    solve,
    wolfe_line_search,
)
from phasediversity.problems import build_problem

from conftest import FunctionObjective, plan_of, random_complex, read_trace


def shifted_quadratic(a):
    """f(z) = ||z - a||^2 with gradient 2(z - a) and Hessian action 2h."""
    def fg(z):
        r = z - a
        return float(np.real(np.vdot(r, r))), 2.0 * r
    return FunctionObjective(fg, hvp=lambda z, h: 2.0 * h)


def general_quadratic(L, b):
    """f(z) = ||L z - b||^2."""
    def fg(z):
        r = L @ z - b
        return float(np.real(np.vdot(r, r))), 2.0 * (L.conj().T @ r)
    return FunctionObjective(fg, hvp=lambda z, h: 2.0 * (L.conj().T @ (L @ h)))


def quartic(zv):
    """f(z) = (|z|^2 - 1)^2 + |z - 1|^2 on one complex variable."""
    z = complex(zv[0])
    f = (abs(z) ** 2 - 1) ** 2 + abs(z - 1) ** 2
    g = 2 * (abs(z) ** 2 - 1) * z + (z - 1)
    return f, np.array([g])


def undefined_past_0_6(z):
    """f = |z - 1|^2, undefined (NaN value and gradient) for Re z > 0.6."""
    if z[0].real > 0.6:
        return float("nan"), np.full_like(z, np.nan)
    r = z - 1.0
    return float(np.real(np.vdot(r, r))), 2.0 * r


def slope(d, g):
    """Re(d* g), the slice slope the line search takes."""
    return float(np.real(np.vdot(d, g)))


_C = np.array([1.0 + 1.0j])

# (objective, start, leading trial steps, trial count, accepted step or
# the LineSearchError message); the search runs along -g from the start.
TRIAL_SEQUENCES = {
    "shifted_quadratic": (
        shifted_quadratic(np.array([1.0 + 2.0j, -0.5])).value_and_gradient,
        np.zeros(2, complex), [1.0, 0.5], 2, 0.5),
    "minimum_at_40": (
        lambda z: (float(np.real(np.vdot(z - 40, z - 40))) / 100,
                   (z - 40) / 50),
        np.zeros(1, complex), [1.0, 2.0, 4.0, 8.0], 4, 8.0),
    "quartic": (quartic, np.array([2j]),
                [1.0, 0.5, 0.07116156694451325], 3, 0.07116156694451325),
    "nan_region": (undefined_past_0_6, np.zeros(1, complex),
                   [1.0, 0.5, 0.25], 3, 0.25),
    # the curvature condition never holds: the step doubles to the budget
    "constant_gradient": (
        lambda z: (float(2 * np.real(np.vdot(_C, z))), 2 * _C.copy()),
        np.zeros(1, complex), [2.0 ** k for k in range(50)], 50,
        "budget of 50"),
    # f(z + alpha d) >= f(z) for every step: the bracket collapses onto 1
    "flat": (lambda z: (1e6, np.full_like(z, 1e-10)), np.zeros(1, complex),
             [1.0, 2.0, 1.2113248654051871], 26, "collapsed after 26 "),
}


class TestWolfeLineSearch:
    def test_defaults_are_the_solver_config_defaults(self):
        params = inspect.signature(wolfe_line_search).parameters
        for name in ("c1", "c2"):
            assert params[name].default == getattr(SolverConfig(), name)

    def test_quadratic_exact_half_step(self):
        a = np.array([1.0 + 2.0j, -0.5])
        obj = shifted_quadratic(a)
        z = np.zeros(2, dtype=complex)
        f0, g = obj.value_and_gradient(z)
        res = wolfe_line_search(obj.value_and_gradient, z, -g, f0,
                                slope(-g, g))
        assert res.alpha == pytest.approx(0.5)
        assert np.allclose(res.z_new, a)
        assert res.f_new <= f0 + 1e-4 * res.alpha * np.real(np.vdot(-g, g))

    def test_accepted_step_satisfies_both_conditions(self):
        rng = np.random.default_rng(0)
        L = random_complex(rng, (6, 6))
        obj = general_quadratic(L, random_complex(rng, 6))
        c1, c2 = 1e-4, 0.9
        for trial in range(20):
            z = random_complex(rng, 6)
            f0, g = obj.value_and_gradient(z)
            d = -g
            res = wolfe_line_search(obj.value_and_gradient, z, d, f0,
                                    slope(d, g), c1=c1, c2=c2)
            dphi0 = np.real(np.vdot(d, g))
            assert res.f_new <= f0 + c1 * res.alpha * dphi0 + 1e-12 * abs(f0)
            assert np.real(np.vdot(d, res.g_new)) >= c2 * dphi0

    def test_non_descent_direction_rejected(self):
        obj = shifted_quadratic(np.zeros(2, dtype=complex))
        z = np.ones(2, dtype=complex)
        f0, g = obj.value_and_gradient(z)
        with pytest.raises(ValueError):
            wolfe_line_search(obj.value_and_gradient, z, +g, f0,
                              slope(g, g))

    def test_exhaustion_raises(self):
        # constant-gradient objective: the curvature condition can never hold
        c = np.array([1.0 + 1.0j])
        fg = lambda z: (float(2 * np.real(np.vdot(c, z))), 2 * c.copy())
        z = np.zeros(1, dtype=complex)
        f0, g = fg(z)
        with pytest.raises(LineSearchError):
            wolfe_line_search(fg, z, -g, f0, slope(-g, g))

    def test_matches_dense_alpha_scan(self):
        # Oracle: scan alpha in (0, 4] at 1e-4 resolution, find the first
        # interval where both Wolfe inequalities hold, and require the
        # returned step to land inside it.
        fg = quartic
        c1, c2 = 1e-4, 0.9
        z = np.array([2j])
        f0, g0 = fg(z)
        d = -g0
        dphi0 = float(np.real(np.vdot(d, g0)))
        alphas = np.arange(1e-4, 4.0 + 1e-12, 1e-4)
        feasible = []
        for a in alphas:
            fa, ga = fg(z + a * d)
            ok = (fa <= f0 + c1 * a * dphi0
                  and float(np.real(np.vdot(d, ga))) >= c2 * dphi0)
            feasible.append(ok)
        idx = np.where(feasible)[0]
        assert idx.size > 0
        first_run_end = idx[0]
        while (first_run_end + 1 < alphas.size and feasible[first_run_end + 1]):
            first_run_end += 1
        lo, hi = alphas[idx[0]], alphas[first_run_end]

        res = wolfe_line_search(fg, z, d, f0, dphi0, c1=c1, c2=c2)
        assert lo - 1e-4 <= res.alpha <= hi + 1e-4

    def test_non_finite_trial_shrinks_the_step(self):
        # The unit step and the bisected 0.5 land in the NaN region, the
        # next bisection does not.
        fg = undefined_past_0_6
        z = np.zeros(1, dtype=complex)
        f0, g = fg(z)
        res = wolfe_line_search(fg, z, -g, f0, slope(-g, g))
        assert res.alpha == 0.25
        assert res.evaluations <= 4
        assert np.isfinite(res.f_new)

    @pytest.mark.parametrize("f0, g", [
        (float("nan"), np.array([1.0 + 0j])),
        (1.0, np.array([np.inf + 0j])),
    ])
    def test_non_finite_start_point_rejected(self, f0, g):
        d = np.array([-1.0 + 0j])
        with pytest.raises(ValueError, match="finite"):
            wolfe_line_search(lambda z: (0.0, z), np.zeros(1, complex), d,
                              f0, slope(d, g))


    @pytest.mark.parametrize("case", list(TRIAL_SEQUENCES))
    def test_trial_sequence(self, case):
        fg, z, head, count, accepted = TRIAL_SEQUENCES[case]
        points = []

        def recording(x):
            points.append(x.copy())
            return fg(x)

        f0, g = fg(z)
        d = -g
        if isinstance(accepted, str):
            with pytest.raises(LineSearchError, match=accepted):
                wolfe_line_search(recording, z, d, f0, slope(d, g))
        else:
            res = wolfe_line_search(recording, z, d, f0, slope(d, g))
            assert res.alpha == pytest.approx(accepted, rel=1e-12)
            assert res.evaluations == count
        trials = [float(((p - z) / d)[0].real) for p in points]
        assert len(trials) == count
        assert trials[:len(head)] == pytest.approx(head, rel=1e-12)


class TestSteepestDescent:
    def test_quadratic_one_iteration(self):
        a = random_complex(np.random.default_rng(1), 8)
        z, trace = solve(shifted_quadratic(a), SolverConfig(method="SD"),
                         np.zeros(8, complex))
        assert trace.iterations == 1
        assert trace.records[-1].step_alpha == pytest.approx(0.5)
        assert np.allclose(z, a)
        assert trace.stop_reason == "grad_zero"

    def test_stationary_start_returns_immediately(self):
        a = random_complex(np.random.default_rng(2), 4)
        z, trace = solve(shifted_quadratic(a), SolverConfig(method="SD"), a.copy())
        assert trace.iterations == 0
        assert trace.stop_reason == "grad_zero"
        assert np.array_equal(z, a)

    @pytest.mark.parametrize("method", ["SD", "NCG", "LBFGS", "TN"])
    def test_line_search_failure_terminates(self, method):
        # Constant gradient: no step meets the curvature condition.  The
        # Hessian -I sends TN to its own -g fallback, which, like every
        # method's first direction, is -g itself and so is searched once:
        # one start evaluation plus one exhausted 50-evaluation search.
        c = np.array([1.0 + 0.5j])
        calls = []

        def fg(z):
            calls.append(z)
            return float(2 * np.real(np.vdot(c, z))), 2 * c.copy()

        obj = FunctionObjective(fg, hvp=lambda z, h: -h)
        z, trace = solve(obj, SolverConfig(method=method), np.zeros(1, complex))
        assert trace.stop_reason == "line_search_fail"
        assert trace.iterations == 0
        assert len(calls) == 51


class TestNcg:
    def test_finite_termination_on_quadratic(self):
        rng = np.random.default_rng(0)
        N = 5
        L = random_complex(rng, (N, N))
        obj = general_quadratic(L, random_complex(rng, N))
        cfg = SolverConfig(method="NCG", max_iters=2 * N + 1, tol_fun=0.0,
                           tol_x=0.0, grad_tol=1e-10, c1=1e-5, c2=1e-2)
        z, trace = solve(obj, cfg, random_complex(rng, N))
        assert trace.stop_reason == "grad_zero"
        assert trace.iterations <= 2 * N + 1
        assert trace.records[-1].grad_norm < 1e-10

    def test_beta_zero_denominator_resets(self):
        g = np.array([1.0 + 0.0j, 0.0])
        assert hestenes_stiefel_beta(g, g.copy(), np.array([1.0, 1.0])) == 0.0

    def test_beta_matches_formula(self):
        rng = np.random.default_rng(3)
        g = random_complex(rng, 5)
        gp = random_complex(rng, 5)
        dp = random_complex(rng, 5)
        y = g - gp
        expected = np.real(np.vdot(g, y)) / np.real(np.vdot(dp, y))
        assert hestenes_stiefel_beta(g, gp, dp) == pytest.approx(expected)

    def test_fewer_iterations_than_sd_on_benchmark(self, bench32):
        # Iterations until the objective gap above its analytic floor has
        # shrunk by a factor 1e-8, from a shared start.
        from phasediversity.experiments import initial_guess
        from phasediversity.objectives import objective_floor

        spec = ObjectiveSpec("LS", 1e-14, bench32.plan, bench32.data, bench32.grid)
        floor = objective_floor(spec)
        z0 = initial_guess(bench32.grid.mask, 1)
        iters = {}
        for method in ("NCG", "SD"):
            obj = DataMisfit(spec)
            _, trace = solve(obj, SolverConfig(method=method), z0)
            gap = trace.f_values - floor
            hit = np.where(gap <= 1e-8 * gap[0])[0]
            iters[method] = int(hit[0]) if hit.size else len(trace.records)
        assert iters["NCG"] < iters["SD"]


class TestLbfgs:
    def test_empty_memory_gives_steepest_descent(self):
        g = random_complex(np.random.default_rng(4), 6)
        d = lbfgs_direction(g, LbfgsMemory(2))
        assert np.allclose(d, -g)

    def test_two_loop_hand_trace_single_pair(self):
        # s = y = e1, g = e1: first loop alpha = -1 and d becomes 0, the
        # scaling keeps gamma = 1, second loop adds (alpha - 0) s = -e1.
        memory = LbfgsMemory(2)
        s = np.array([1.0 + 0.0j, 0.0])
        assert memory.push(s, s.copy())
        d = lbfgs_direction(np.array([1.0 + 0.0j, 0.0]), memory)
        assert np.allclose(d, np.array([-1.0, 0.0]))

    def test_matches_dense_bfgs_on_real_quadratic(self):
        # Dense oracle: start from gamma*I and apply the inverse-BFGS
        # update for each stored pair in order, then compare directions.
        rng = np.random.default_rng(5)
        N = 6
        A = rng.standard_normal((N, N))
        A = A @ A.T + N * np.eye(N)
        xs = [rng.standard_normal(N) for _ in range(4)]
        pairs = [(xs[i + 1] - xs[i], A @ (xs[i + 1] - xs[i])) for i in range(3)]
        g = rng.standard_normal(N)

        memory = LbfgsMemory(8)
        for s, y in pairs:
            assert memory.push(s.astype(complex), y.astype(complex))
        got = lbfgs_direction(g.astype(complex), memory)

        s_l, y_l = pairs[-1]
        H = (s_l @ y_l) / (y_l @ y_l) * np.eye(N)
        for s, y in pairs:
            rho = 1.0 / (y @ s)
            V = np.eye(N) - rho * np.outer(s, y)
            H = V @ H @ V.T + rho * np.outer(s, s)
        oracle = -H @ g
        assert np.abs(got - oracle).max() < 1e-10
        assert np.abs(got.imag).max() == 0.0

    def test_memory_rejects_nonpositive_curvature_pairs(self):
        memory = LbfgsMemory(2)
        s = np.array([1.0 + 0.0j])
        assert not memory.push(s, -s)
        assert not memory.push(s, 1j * s)  # Re(y* s) = 0
        assert len(memory) == 0

    def test_capacity_is_bounded(self):
        memory = LbfgsMemory(2)
        s = np.array([1.0 + 0.0j])
        for k in range(5):
            memory.push(s, (k + 1) * s)
        assert len(memory) == 2

    def test_quadratic_converges_quickly(self):
        rng = np.random.default_rng(7)
        N = 16
        eigs = np.array([0.5, 1, 2, 3, 5])[rng.integers(0, 5, N)]
        Q, _ = np.linalg.qr(random_complex(rng, (N, N)))
        L = np.diag(np.sqrt(eigs)) @ Q.conj().T
        obj = general_quadratic(L, random_complex(rng, N))
        cfg = SolverConfig(method="LBFGS", max_iters=100, tol_fun=0.0,
                           tol_x=0.0, grad_tol=1e-10, c1=1e-5, c2=1e-2,
                           lbfgs_memory=2)
        z, trace = solve(obj, cfg, np.zeros(N, complex))
        assert trace.iterations <= 10
        assert trace.records[-1].grad_norm < 1e-10

    def test_grad_norm_decreases_start_to_end(self, small_instance):
        from phasediversity.experiments import initial_guess

        spec = ObjectiveSpec("LS", 1e-14, small_instance.plan,
                             small_instance.data, small_instance.grid)
        obj = DataMisfit(spec)
        z0 = initial_guess(small_instance.grid.mask, 0)
        _, trace = solve(obj, SolverConfig(method="LBFGS", max_iters=60), z0)
        assert trace.records[-1].grad_norm <= trace.records[0].grad_norm


class TestTruncatedNewton:
    def test_exact_newton_step_on_quadratic(self):
        a = random_complex(np.random.default_rng(8), 8)
        z, trace = solve(shifted_quadratic(a), SolverConfig(method="TN"),
                         np.zeros(8, complex))
        assert trace.iterations == 1
        assert np.allclose(z, a)

    def test_negative_curvature_detected_first_step(self):
        fg = lambda z: (-float(np.real(np.vdot(z, z))), -2.0 * z)
        obj = FunctionObjective(fg, hvp=lambda z, h: -2.0 * h)
        z0 = np.array([1.0 + 1.0j, -2.0])
        _, g = fg(z0)
        d, negative = _newton_cg_direction(obj, z0, g, cg_max=10)
        assert negative
        assert np.allclose(d, -g)
        assert np.real(np.vdot(d, g)) < 0

    def test_negative_curvature_frequency_on_turbulent_benchmark(self):
        from phasediversity.experiments import initial_guess

        inst = build_problem("vonkarman", 32, seed=3)
        spec = ObjectiveSpec("LS", 1e-14, inst.plan, inst.data, inst.grid)
        obj = DataMisfit(spec)
        z0 = initial_guess(inst.grid.mask, 0)
        _, trace = solve(obj, SolverConfig(method="TN"), z0, truth=inst.truth)
        steps = trace.records[1:]
        assert sum(r.negative_curvature for r in steps) / len(steps) > 0.5


class TestMisell:
    @staticmethod
    def _consistent_problem(n=8, seed=9):
        inst = build_problem("zernike", n, seed=seed, defocus=(-3.0, 3.0),
                             amplitude_plane=False)
        return inst

    def test_solution_is_fixed_point(self):
        inst = self._consistent_problem()
        u, trace = misell_iterate(inst.truth.copy(), inst.plan, inst.data,
                                  inst.grid, 3)
        assert np.abs(u - inst.truth).max() < 1e-12
        assert trace.f_values[-1] < 1e-20

    def test_projection_enforces_modulus(self):
        from phasediversity.forward import diversity_forward

        inst = self._consistent_problem()
        rng = np.random.default_rng(10)
        u = random_complex(rng, inst.truth.shape)
        plane = inst.plan.planes[-1]
        data_last = inst.data.intensities[-1]
        # one cycle ending on `plane` leaves |F(u)| equal to measured amplitude
        u1, _ = misell_iterate(u, inst.plan, inst.data, inst.grid, 1)
        got = np.abs(diversity_forward(u1, plane, inst.grid))
        assert np.abs(got - np.sqrt(data_last)).max() < 1e-10

    def test_requires_two_planes(self):
        inst = self._consistent_problem()
        single = plan_of(inst.plan.planes[0])
        data = MeasurementSet([inst.data.intensities[0]])
        with pytest.raises(ValueError):
            misell_iterate(inst.truth, single, data, inst.grid, 2)
        # the pupil amplitude plane is not a projection plane
        inst = build_problem("zernike", 8, seed=9, defocus=(3.0,),
                             amplitude_plane=True)
        with pytest.raises(ValueError):
            misell_iterate(inst.truth, inst.plan, inst.data, inst.grid, 2)

    @pytest.mark.parametrize("iters", [0, 1, 3])
    def test_fft_calls_match_numpy_transforms(self, numpy_ffts, iters):
        # three defocus planes after an amplitude plane, which costs none
        inst = build_problem("zernike", 8, seed=9, defocus=(-3.0, 0.5, 3.0),
                             amplitude_plane=True)
        u0 = random_complex(np.random.default_rng(11), inst.truth.shape)
        numpy_ffts["n"] = 0
        _, trace = misell_iterate(u0, inst.plan, inst.data, inst.grid, iters)
        assert len(trace.records) == iters + 1
        assert trace.fft_calls == numpy_ffts["n"] == (2 * iters + 1) * 3


class TestSolverInfrastructure:
    @pytest.mark.parametrize("args", [
        (0.0, 0.0, 0.0, 1.0, 0.0, 0.0),  # flat cubic: zero denominator
        (-1e308, 0.0, -1.0, 1e308, 0.0, 1.0),  # b - a overflows to inf
    ], ids=["zero-denominator", "infinite-candidate"])
    def test_degenerate_cubic_has_no_minimizer(self, args):
        assert _cubic_minimizer(*args) is None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(method="QN")
        with pytest.raises(ValueError):
            SolverConfig(c1=0.5, c2=0.1)
        with pytest.raises(ValueError):
            SolverConfig(lbfgs_memory=0)
        with pytest.raises(ValueError, match="max_iters must be >= 0"):
            SolverConfig(max_iters=-1)
        with pytest.raises(ValueError, match="memory capacity must be >= 1"):
            LbfgsMemory(0)
        with pytest.raises(ValueError, match="tn_cg_max must be >= 1 or none"):
            SolverConfig(tn_cg_max=0)
        assert SolverConfig(tn_cg_max=1).tn_cg_max == 1

    @pytest.mark.parametrize("method", ["SD", "NCG", "LBFGS", "TN"])
    @pytest.mark.parametrize("at_target, scale, settings, reason, records", [
        (True, 1.0, {"max_iters": 0}, "grad_zero", 1),
        (False, 1.0, {"max_iters": 0}, "max_iters", 1),
        (False, 1.0, {"max_iters": 1}, "grad_zero", 2),
        (False, 1e-10, {}, "tol_fun", 2),
        (False, 1e-10, {"tol_fun": 0.0, "tol_x": 1e-9}, "tol_x", 2),
    ], ids=["stationary-start", "no-iterations", "converged-at-last-iteration",
            "tol_fun-before-grad_zero", "tol_x-before-grad_zero"])
    def test_stop_reason_order(self, method, at_target, scale, settings,
                               reason, records):
        # Each record is followed by one test chain: tol_fun, tol_x,
        # grad_zero, max_iters; the first that holds names the stop.
        a = scale * random_complex(np.random.default_rng(5), 4)
        z0 = a.copy() if at_target else np.zeros(4, complex)
        _, trace = solve(shifted_quadratic(a),
                         SolverConfig(method=method, **settings), z0)
        assert trace.stop_reason == reason
        assert len(trace.records) == records

    def test_reference_norm_once_per_solve_keeps_trace_bytes(
            self, monkeypatch, tmp_path, bench32):
        # the RMS column with ||truth|| computed once per solve equals the
        # one with ||truth|| recomputed by every aligned_rms call
        from phasediversity import fields, optimizers
        from phasediversity.experiments import initial_guess
        spec = ObjectiveSpec("LS", 1e-14, bench32.plan, bench32.data,
                             bench32.grid)
        cfg = SolverConfig(method="LBFGS", max_iters=30)

        def traces(tag):
            paths = []
            for seed in range(3):
                _, trace = solve(DataMisfit(spec), cfg,
                                 initial_guess(bench32.grid.mask, seed),
                                 truth=bench32.truth)
                paths.append(tmp_path / f"{tag}_{seed}.csv")
                trace.to_csv(paths[-1], {"seed": seed})
            return [p.read_bytes() for p in paths]

        calls = []
        once = traces("once")
        monkeypatch.setattr(optimizers, "aligned_rms",
                            lambda u, uhat, **kw: calls.append(kw)
                            or fields.aligned_rms(u, uhat))
        assert traces("every_call") == once
        assert calls and all(kw["u_norm"] > 0 for kw in calls)

    def test_traces_are_deterministic(self, small_instance):
        from phasediversity.experiments import initial_guess

        spec = ObjectiveSpec("LS", 1e-14, small_instance.plan,
                             small_instance.data, small_instance.grid)
        z0 = initial_guess(small_instance.grid.mask, 3)
        for method in ("SD", "NCG", "LBFGS", "TN"):
            runs = []
            for _ in range(2):
                obj = DataMisfit(spec)
                _, trace = solve(obj, SolverConfig(method=method, max_iters=25),
                                 z0, truth=small_instance.truth)
                runs.append(np.array(
                    [(r.iteration, r.f_value, r.grad_norm, r.step_alpha,
                      r.rms, r.fft_calls, r.negative_curvature)
                     for r in trace.records]))
            assert np.array_equal(runs[0], runs[1], equal_nan=True)

    def test_monotone_descent(self, small_instance):
        from phasediversity.experiments import initial_guess

        spec = ObjectiveSpec("LS", 1e-14, small_instance.plan,
                             small_instance.data, small_instance.grid)
        z0 = initial_guess(small_instance.grid.mask, 4)
        for method in ("SD", "NCG", "LBFGS", "TN"):
            obj = DataMisfit(spec)
            _, trace = solve(obj, SolverConfig(method=method, max_iters=40), z0)
            f = trace.f_values
            assert np.all(np.diff(f) <= 1e-12 * np.maximum(1.0, np.abs(f[:-1])))

    def test_fft_calls_nondecreasing(self, small_instance):
        from phasediversity.experiments import initial_guess

        spec = ObjectiveSpec("LS", 1e-14, small_instance.plan,
                             small_instance.data, small_instance.grid)
        obj = DataMisfit(spec)
        _, trace = solve(obj, SolverConfig(max_iters=20),
                         initial_guess(small_instance.grid.mask, 5))
        calls = [r.fft_calls for r in trace.records]
        assert all(b >= a for a, b in zip(calls, calls[1:]))

    def test_trace_csv_roundtrip(self, tmp_path):
        trace = RunTrace(stop_reason="max_iters")
        trace.append(TraceRecord(0, 1.5, 2.5, float("nan"), 0.9, 4, False))
        trace.append(TraceRecord(1, 0.5, 1.25, 0.125, 0.8, 8, True))
        path = tmp_path / "trace.csv"
        trace.to_csv(path, header={"method": "SD", "stop_reason": "max_iters",
                                   "k": "v"})
        header, rows = read_trace(path)
        assert header == {"method": "SD", "stop_reason": "max_iters", "k": "v"}
        assert np.array_equal(rows, np.array(trace.records, dtype=float),
                              equal_nan=True)

    def test_trace_csv_bytes_locked(self, tmp_path):
        # exact cells for signed zero, NaN, the float extremes, both flag
        # values and the integer columns, and an exact read back
        trace = RunTrace(stop_reason="tol_fun")
        trace.append(TraceRecord(0, -0.0, 1e300, float("nan"), 5e-324, 0, False))
        trace.append(TraceRecord(12, 0.1, 5e-324, -0.0, 1e300, 123456789, True))
        path = tmp_path / "t.csv"
        trace.to_csv(path, header={"method": "TN", "stop_reason": "tol_fun"})
        header = (b"# method = TN\n# stop_reason = tol_fun\n"
                  b"iter,f,grad_norm,alpha,rms,fft_calls,neg_curv\n")
        assert path.read_bytes() == header + (
            b"0,-0,1.0000000000000001e+300,nan,4.9406564584124654e-324,0,0\n"
            b"12,0.10000000000000001,4.9406564584124654e-324,-0,"
            b"1.0000000000000001e+300,123456789,1\n")
        _, rows = read_trace(path)
        records = np.array(trace.records, dtype=float)
        assert np.array_equal(rows, records, equal_nan=True)
        assert np.array_equal(np.signbit(rows), np.signbit(records))

    def test_trace_schema_has_one_column_per_record_field(self):
        from phasediversity.optimizers import TRACE_COLUMNS

        assert len(TRACE_COLUMNS) == len(TraceRecord._fields)

    def test_trace_header_values_verbatim(self, tmp_path):
        # a '#' or '=' inside a header value is data, not a comment
        trace = RunTrace(stop_reason="tol_fun")
        trace.append(TraceRecord(0, 1.0, 1.0, float("nan"), 0.5, 2, False))
        header = {"output_dir": "runs/#1", "note": "a = b", "noise.snr": "none",
                  "method": "LBFGS", "stop_reason": "tol_fun"}
        trace.to_csv(tmp_path / "t.csv", header=header)
        got, _ = read_trace(tmp_path / "t.csv")
        assert got == header

    def test_failed_trace_rewrite_keeps_old_file(self, tmp_path):
        path = tmp_path / "t.csv"
        trace = RunTrace()
        trace.append(TraceRecord(0, 1.0, 1.0, float("nan"), 0.5, 2, False))
        trace.to_csv(path, header={"k": "v"})
        first = path.read_bytes()
        trace.append(TraceRecord(1, "not a number", 1.0, 0.5, 0.4, 4, False))
        with pytest.raises(ValueError):
            trace.to_csv(path, header={"k": "w"})
        assert path.read_bytes() == first
        assert list(tmp_path.glob("*.tmp")) == []

    def test_no_blas_reduction_above_one_block(self, monkeypatch):
        # OpenBLAS threads a dot product above 10000 elements and its idle
        # worker then spins; every reduction of a solve must stay in blocks.
        from phasediversity.experiments import initial_guess

        inst = build_problem("segmented", 128, seed=2)
        spec = ObjectiveSpec("LS", 1e-14, inst.plan, inst.data, inst.grid)
        z0 = initial_guess(inst.grid.mask, 0)
        sizes = []
        real_vdot = np.vdot

        def recording_vdot(a, b):
            sizes.append(np.size(a))
            return real_vdot(a, b)

        def no_norm(*args, **kwargs):
            raise AssertionError("np.linalg.norm called on the solver path")

        real_isfinite = np.isfinite

        def scalar_isfinite(x, *args, **kwargs):
            # a full-grid finiteness scan is one more pass over the grid
            if np.ndim(x) > 0:
                raise AssertionError("np.isfinite scans an array on the "
                                     "solver path")
            return real_isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "vdot", recording_vdot)
        monkeypatch.setattr(np.linalg, "norm", no_norm)
        monkeypatch.setattr(np, "isfinite", scalar_isfinite)
        for method in ("SD", "NCG", "LBFGS", "TN"):
            cfg = SolverConfig(method=method, max_iters=3, tn_cg_max=3)
            _, trace = solve(DataMisfit(spec), cfg, z0, truth=inst.truth)
            assert trace.iterations == 3
        assert sizes and max(sizes) <= _DOT_BLOCK < z0.size

    def test_misell_config_dispatch_rejected(self):
        obj = shifted_quadratic(np.zeros(2, complex))
        with pytest.raises(ValueError):
            solve(obj, SolverConfig(method="MISELL"), np.zeros(2, complex))

    def test_failed_search_falls_back_to_gradient_direction(self, monkeypatch):
        # Force the line search to fail on any non-gradient direction: the
        # solver must retry along -g once per iteration and keep going.
        import phasediversity.optimizers as opt

        real = wolfe_line_search
        attempted_fallback = {"n": 0}
        retries = {"n": 0}

        def flaky(fg, z, d, f0, dphi0, **kw):
            # the slope handed over is Re(d* g) at z, bit for bit, for the
            # chosen direction and for the -g retry alike
            g = fg(z)[1]
            assert dphi0 == float(np.vdot(d, g).real)
            if not np.allclose(d, -g):
                attempted_fallback["n"] += 1
                raise LineSearchError("forced")
            if np.array_equal(d, -g):
                assert dphi0 == -float(np.vdot(g, g).real)
                retries["n"] += 1
            return real(fg, z, d, f0, dphi0, **kw)

        monkeypatch.setattr(opt, "wolfe_line_search", flaky)
        rng = np.random.default_rng(11)
        L = random_complex(rng, (4, 4))
        obj = general_quadratic(L, random_complex(rng, 4))
        cfg = SolverConfig(method="LBFGS", max_iters=30, tol_fun=0.0,
                           tol_x=0.0, grad_tol=1e-8)
        _, trace = solve(obj, cfg, np.zeros(4, complex))
        assert attempted_fallback["n"] > 0
        assert retries["n"] >= attempted_fallback["n"]
        assert trace.iterations > 1
        assert trace.stop_reason in ("grad_zero", "max_iters")
        f = trace.f_values
        assert np.all(np.diff(f) <= 0.0)

    def test_uphill_direction_is_swapped_for_gradient(self, monkeypatch):
        # An uphill LBFGS direction is replaced by -g before any search,
        # and that search gets the slope -Re(g* g).
        import phasediversity.optimizers as opt

        real_direction = lbfgs_direction
        uphill = {"left": 1}
        searches = []

        def once_uphill(g, memory):
            if uphill["left"]:
                uphill["left"] -= 1
                return g.copy()
            return real_direction(g, memory)

        def recording(fg, z, d, f0, dphi0, **kw):
            searches.append((fg(z)[1], d.copy(), dphi0))
            return wolfe_line_search(fg, z, d, f0, dphi0, **kw)

        monkeypatch.setattr(opt, "lbfgs_direction", once_uphill)
        monkeypatch.setattr(opt, "wolfe_line_search", recording)
        a = random_complex(np.random.default_rng(12), 6)
        _, trace = solve(shifted_quadratic(a), SolverConfig(method="LBFGS"),
                         np.zeros(6, complex))
        assert uphill["left"] == 0
        g, d, dphi0 = searches[0]
        assert np.array_equal(d, -g)
        assert dphi0 == -float(np.vdot(g, g).real)
        assert trace.stop_reason == "grad_zero"
