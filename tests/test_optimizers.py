import numpy as np
import pytest

from phasediversity.forward import DiversityPlan, TransformCounter
from phasediversity.objectives import DataMisfit, MeasurementSet, ObjectiveSpec
from phasediversity.optimizers import (
    FunctionObjective,
    LbfgsMemory,
    LineSearchError,
    RunTrace,
    SolverConfig,
    TraceRecord,
    _newton_cg_direction,
    hestenes_stiefel_beta,
    lbfgs_direction,
    misell_iterate,
    solve,
    wolfe_line_search,
)
from phasediversity.problems import build_problem

from conftest import random_complex


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


class TestWolfeLineSearch:
    def test_quadratic_exact_half_step(self):
        a = np.array([1.0 + 2.0j, -0.5])
        obj = shifted_quadratic(a)
        z = np.zeros(2, dtype=complex)
        f0, g = obj.value_and_gradient(z)
        res = wolfe_line_search(obj.value_and_gradient, z, -g, g, f0=f0)
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
            res = wolfe_line_search(obj.value_and_gradient, z, d, g, f0=f0,
                                    c1=c1, c2=c2)
            dphi0 = np.real(np.vdot(d, g))
            assert res.f_new <= f0 + c1 * res.alpha * dphi0 + 1e-12 * abs(f0)
            assert np.real(np.vdot(d, res.g_new)) >= c2 * dphi0

    def test_non_descent_direction_rejected(self):
        obj = shifted_quadratic(np.zeros(2, dtype=complex))
        z = np.ones(2, dtype=complex)
        f0, g = obj.value_and_gradient(z)
        with pytest.raises(ValueError):
            wolfe_line_search(obj.value_and_gradient, z, +g, g, f0=f0)

    def test_exhaustion_raises(self):
        # constant-gradient objective: the curvature condition can never hold
        c = np.array([1.0 + 1.0j])
        fg = lambda z: (float(2 * np.real(np.vdot(c, z))), 2 * c.copy())
        z = np.zeros(1, dtype=complex)
        f0, g = fg(z)
        with pytest.raises(LineSearchError):
            wolfe_line_search(fg, z, -g, g, f0=f0)

    def test_matches_dense_alpha_scan(self):
        # Oracle: scan alpha in (0, 4] at 1e-4 resolution, find the first
        # interval where both Wolfe inequalities hold, and require the
        # returned step to land inside it.
        def fg(zv):
            z = complex(zv[0])
            f = (abs(z) ** 2 - 1) ** 2 + abs(z - 1) ** 2
            g = 2 * (abs(z) ** 2 - 1) * z + (z - 1)
            return f, np.array([g])

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

        res = wolfe_line_search(fg, z, d, g0, f0=f0, c1=c1, c2=c2)
        assert lo - 1e-4 <= res.alpha <= hi + 1e-4

    def test_non_finite_trial_shrinks_the_step(self):
        # f = |z - 1|^2 is undefined (NaN) for Re z > 0.6: the unit step
        # and the bisected 0.5 land there, the next bisection does not.
        def fg(z):
            if z[0].real > 0.6:
                return float("nan"), np.full_like(z, np.nan)
            r = z - 1.0
            return float(np.real(np.vdot(r, r))), 2.0 * r

        z = np.zeros(1, dtype=complex)
        f0, g = fg(z)
        res = wolfe_line_search(fg, z, -g, g, f0=f0)
        assert res.alpha == 0.25
        assert res.evaluations <= 4
        assert np.isfinite(res.f_new)

    @pytest.mark.parametrize("f0, g", [
        (float("nan"), np.array([1.0 + 0j])),
        (1.0, np.array([np.inf + 0j])),
    ])
    def test_non_finite_start_point_rejected(self, f0, g):
        with pytest.raises(ValueError, match="finite"):
            wolfe_line_search(lambda z: (0.0, z), np.zeros(1, complex),
                              np.array([-1.0 + 0j]), g, f0=f0)


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

    def test_line_search_failure_terminates(self):
        c = np.array([1.0 + 0.5j])
        fg = lambda z: (float(2 * np.real(np.vdot(c, z))), 2 * c.copy())
        z, trace = solve(FunctionObjective(fg), SolverConfig(method="SD"),
                         np.zeros(1, complex))
        assert trace.stop_reason == "line_search_fail"
        assert trace.iterations == 0


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
            obj = DataMisfit(spec, TransformCounter())
            _, trace = solve(obj, SolverConfig(method=method), z0)
            gap = trace.f_values - floor
            hit = np.where(gap <= 1e-8 * gap[0])[0]
            iters[method] = int(hit[0]) if hit.size else len(trace)
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
        obj = DataMisfit(spec, TransformCounter())
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
        obj = DataMisfit(spec, TransformCounter())
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
        single = DiversityPlan([inst.plan.planes[0]])
        data = MeasurementSet([inst.data.intensities[0]])
        with pytest.raises(ValueError):
            misell_iterate(inst.truth, single, data, inst.grid, 2)


class TestSolverInfrastructure:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(method="QN")
        with pytest.raises(ValueError):
            SolverConfig(c1=0.5, c2=0.1)
        with pytest.raises(ValueError):
            SolverConfig(lbfgs_memory=0)

    def test_traces_are_deterministic(self, small_instance):
        from phasediversity.experiments import initial_guess

        spec = ObjectiveSpec("LS", 1e-14, small_instance.plan,
                             small_instance.data, small_instance.grid)
        z0 = initial_guess(small_instance.grid.mask, 3)
        for method in ("SD", "NCG", "LBFGS", "TN"):
            runs = []
            for _ in range(2):
                obj = DataMisfit(spec, TransformCounter())
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
            obj = DataMisfit(spec, TransformCounter())
            _, trace = solve(obj, SolverConfig(method=method, max_iters=40), z0)
            f = trace.f_values
            assert np.all(np.diff(f) <= 1e-12 * np.maximum(1.0, np.abs(f[:-1])))

    def test_fft_calls_nondecreasing(self, small_instance):
        from phasediversity.experiments import initial_guess

        spec = ObjectiveSpec("LS", 1e-14, small_instance.plan,
                             small_instance.data, small_instance.grid)
        obj = DataMisfit(spec, TransformCounter())
        _, trace = solve(obj, SolverConfig(max_iters=20),
                         initial_guess(small_instance.grid.mask, 5))
        calls = [r.fft_calls for r in trace.records]
        assert all(b >= a for a, b in zip(calls, calls[1:]))

    def test_trace_csv_roundtrip(self, tmp_path):
        trace = RunTrace(method="SD", stop_reason="max_iters")
        trace.append(TraceRecord(0, 1.5, 2.5, float("nan"), 0.9, 4, False))
        trace.append(TraceRecord(1, 0.5, 1.25, 0.125, 0.8, 8, True))
        path = tmp_path / "trace.csv"
        trace.to_csv(path, header={"method": "SD", "stop_reason": "max_iters",
                                   "k": "v"})
        back, header = RunTrace.from_csv(path)
        assert header["k"] == "v"
        assert back.method == "SD"
        assert back.stop_reason == "max_iters"
        assert len(back) == 2
        assert back.records[1].f_value == 0.5
        assert back.records[1].negative_curvature is True
        assert np.isnan(back.records[0].step_alpha)

    def test_trace_csv_bytes_locked(self, tmp_path):
        # exact cells for signed zero, NaN, the float extremes, both flag
        # values and the integer columns, and an exact read back
        def cells(r):
            return repr((r.iteration, r.f_value, r.grad_norm, r.step_alpha,
                         r.rms, r.fft_calls, r.negative_curvature))

        trace = RunTrace(method="TN", stop_reason="tol_fun")
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
        back, _ = RunTrace.from_csv(path)
        assert [cells(r) for r in back.records] == [cells(r) for r in trace.records]
        for row in (b"1,2,3,4,5,6\n", b"1,2,3,4,5,6,0,7\n"):
            path.write_bytes(header + row)
            with pytest.raises(ValueError):
                RunTrace.from_csv(path)

    def test_trace_schema_has_one_column_per_record_field(self):
        from phasediversity.optimizers import TRACE_COLUMNS

        assert len(TRACE_COLUMNS) == len(TraceRecord._fields)

    def test_trace_header_values_verbatim(self, tmp_path):
        # a '#' or '=' inside a header value is data, not a comment
        trace = RunTrace(method="LBFGS", stop_reason="tol_fun")
        trace.append(TraceRecord(0, 1.0, 1.0, float("nan"), 0.5, 2, False))
        header = {"output_dir": "runs/#1", "note": "a = b", "noise.snr": "none",
                  "method": "LBFGS", "stop_reason": "tol_fun"}
        trace.to_csv(tmp_path / "t.csv", header=header)
        back, got = RunTrace.from_csv(tmp_path / "t.csv")
        assert got == header
        assert back.stop_reason == "tol_fun"

    def test_failed_trace_rewrite_keeps_old_file(self, tmp_path):
        path = tmp_path / "t.csv"
        trace = RunTrace(method="SD")
        trace.append(TraceRecord(0, 1.0, 1.0, float("nan"), 0.5, 2, False))
        trace.to_csv(path, header={"k": "v"})
        first = path.read_bytes()
        trace.append(TraceRecord(1, "not a number", 1.0, 0.5, 0.4, 4, False))
        with pytest.raises(ValueError):
            trace.to_csv(path, header={"k": "w"})
        assert path.read_bytes() == first
        assert list(tmp_path.glob("*.tmp")) == []

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

        def flaky(fg, z, d, g, **kw):
            if not np.allclose(d, -g):
                attempted_fallback["n"] += 1
                raise LineSearchError("forced")
            return real(fg, z, d, g, **kw)

        monkeypatch.setattr(opt, "wolfe_line_search", flaky)
        rng = np.random.default_rng(11)
        L = random_complex(rng, (4, 4))
        obj = general_quadratic(L, random_complex(rng, 4))
        cfg = SolverConfig(method="LBFGS", max_iters=30, tol_fun=0.0,
                           tol_x=0.0, grad_tol=1e-8)
        _, trace = solve(obj, cfg, np.zeros(4, complex))
        assert attempted_fallback["n"] > 0
        assert trace.iterations > 1
        assert trace.stop_reason in ("grad_zero", "max_iters")
        f = trace.f_values
        assert np.all(np.diff(f) <= 0.0)
