from dataclasses import FrozenInstanceError

import mpmath as mp
import numpy as np
import pytest

from phasediversity.experiments import initial_guess
from phasediversity.forward import (
    DiversityPlan,
    PupilGrid,
    diversity_adjoint,
    diversity_forward,
)
from phasediversity.hessian import lipschitz_bound
from phasediversity.objectives import (
    MODELS,
    DataMisfit,
    MeasurementSet,
    ObjectiveSpec,
    objective_floor,
)
from phasediversity.optimizers import SolverConfig, solve
from phasediversity.problems import add_poisson_noise, build_problem

from conftest import (
    defocus_phase,
    objective_floor_oracle,
    per_plane_floor,
    per_plane_hessian_action,
    per_plane_misfit,
    random_complex,
)


def full_grid(n):
    return PupilGrid(n, np.ones((n, n), dtype=bool))


def make_spec(model, n=8, eps=1e-6, defocus=(3.0,), amplitude=True, seed=0):
    rng = np.random.default_rng(seed)
    grid = full_grid(n)
    plan = DiversityPlan(defocus, amplitude)
    truth = np.exp(1j * rng.uniform(-np.pi, np.pi, (n, n)))
    data = MeasurementSet(
        [np.abs(diversity_forward(truth, p, grid)) ** 2 for p in plan])
    return ObjectiveSpec(model, eps, plan, data, grid), truth


class TestValues:
    def test_lsi_vanishes_at_solution(self):
        spec, truth = make_spec("LSI")
        assert DataMisfit(spec).value(truth) == pytest.approx(0.0, abs=1e-18)

    def test_ls_value_at_solution_is_minus_total_intensity(self):
        spec, truth = make_spec("LS", eps=1e-14, defocus=(3.0,), amplitude=False)
        total = sum(float(i.sum()) for i in spec.data.intensities)
        assert DataMisfit(spec).value(truth) == pytest.approx(-total, rel=1e-12)

    def test_mlp_matches_high_precision_oracle(self):
        # 50-digit oracle: direct DFT sums and termwise Poisson misfit in mpmath.
        n = 4
        eps = 1e-6
        spec, _ = make_spec("MLP", n=n, eps=eps, defocus=(3.0,), amplitude=False)
        rng = np.random.default_rng(3)
        u = random_complex(rng, (n, n))

        mp.mp.dps = 50
        phase = defocus_phase(n, spec.plan.planes[0])
        w = u * phase
        total = mp.mpf(0)
        intensity = spec.data.intensities[0]
        for p in range(n):
            for q in range(n):
                acc = mp.mpc(0)
                for j in range(n):
                    for k in range(n):
                        ang = -2 * mp.pi * (mp.mpf(p * j) / n + mp.mpf(q * k) / n)
                        acc += mp.mpc(w[j, k].real, w[j, k].imag) * mp.e**(1j * ang)
                acc /= n
                K = mp.re(acc) ** 2 + mp.im(acc) ** 2
                total += K - mp.mpf(intensity[p, q]) * mp.log(K + mp.mpf(eps) ** 2)
        got = DataMisfit(spec).value(u)
        assert abs(got - float(total)) <= 1e-10 * abs(float(total))

    def test_value_never_below_floor(self):
        rng = np.random.default_rng(4)
        for model in MODELS:
            spec, _ = make_spec(model, eps=1e-3, seed=5)
            floor = objective_floor(spec)
            for _ in range(20):
                u = random_complex(rng, (8, 8))
                assert DataMisfit(spec).value(u) >= floor - 1e-9


class TestFloor:
    """``objective_floor`` against the hand-derived per-model minima."""

    @staticmethod
    def floor_cases(model, eps):
        inst = build_problem("zernike", 16, seed=0)
        noisy = add_poisson_noise(inst.data, 20.0, seed=1)
        e2 = eps * eps
        rng = np.random.default_rng(2)
        # pixels at 0, inside (0, eps^2), at eps^2 and above it
        edge = np.concatenate([[0.0, 0.0, 1e-3 * e2, 0.5 * e2, 0.999 * e2, e2],
                               e2 * rng.uniform(0.0, 1.0, 26),
                               rng.uniform(0.0, 2.0, 32)]).reshape(8, 8)
        yield ObjectiveSpec(model, eps, inst.plan, inst.data, inst.grid)
        yield ObjectiveSpec(model, eps, inst.plan, noisy, inst.grid)
        yield ObjectiveSpec(model, eps, DiversityPlan((1.0,), False),
                            MeasurementSet([edge]), full_grid(8))

    @pytest.mark.parametrize("eps", [1e-14, 1e-3, 0.1])
    @pytest.mark.parametrize("model", MODELS)
    def test_matches_hand_derived_minima(self, model, eps):
        for spec in self.floor_cases(model, eps):
            got, want = objective_floor(spec), objective_floor_oracle(spec)
            if model == "LS":
                # the plane terms compute -I - eps^2 as (I - eps^2) - 2 sqrt(I)^2
                assert abs(got - want) <= 1e-15 * abs(want)
            else:
                assert got == want


def test_solve_applies_planes_only_inside_data_misfit(monkeypatch):
    # the public plane operators refuse every call, in every module that
    # holds them, as the benchmark tracer wraps them
    import importlib
    import pkgutil

    import phasediversity
    from phasediversity import forward

    inst = build_problem("zernike", 16, seed=0)
    spec = ObjectiveSpec("LS", 1e-14, inst.plan, inst.data, inst.grid)
    originals = {name: getattr(forward, name)
                 for name in ("diversity_forward", "diversity_adjoint")}

    def refuse(*args, **kwargs):
        raise AssertionError("a public plane operator ran on the solve path")

    modules = [phasediversity] + [
        importlib.import_module(f"phasediversity.{info.name}")
        for info in pkgutil.iter_modules(phasediversity.__path__)
        if info.name != "__main__"]
    for module in modules:
        for name, original in originals.items():
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError):
        forward.diversity_forward(inst.truth, inst.plan.planes[1], inst.grid)

    z0 = initial_guess(inst.grid.mask, 0)
    for config in (SolverConfig(method="TN", tn_cg_max=5, max_iters=5),
                   SolverConfig(method="LBFGS", max_iters=20)):
        _, trace = solve(DataMisfit(spec), config, z0, truth=inst.truth)
        assert trace.iterations > 0
    assert DataMisfit(spec).value(inst.truth) >= objective_floor(spec)


class TestGradient:
    def test_ls_gradient_vanishes_at_noiseless_solution(self):
        spec, truth = make_spec("LS", eps=1e-14)
        g = DataMisfit(spec).value_and_gradient(truth)[1]
        assert np.linalg.norm(g) <= 1e-10 * np.linalg.norm(truth)

    def test_lsi_gradient_zero_field(self):
        spec, _ = make_spec("LSI")
        g = DataMisfit(spec).value_and_gradient(np.zeros((8, 8), dtype=complex))[1]
        assert np.linalg.norm(g) == 0.0

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("amplitude", [True, False])
    def test_directional_derivative_matches_finite_difference(self, model, amplitude):
        spec, _ = make_spec(model, amplitude=amplitude, seed=10)
        obj = DataMisfit(spec)
        rng = np.random.default_rng(11)
        u = random_complex(rng, (8, 8))
        _, g = obj.value_and_gradient(u)
        t = 1e-6
        for _ in range(5):
            h = random_complex(rng, (8, 8))
            fd = (obj.value(u + t * h) - obj.value(u - t * h)) / (2 * t)
            an = 2.0 * np.real(np.vdot(h, g))
            assert abs(fd - an) <= 1e-5 * max(1.0, abs(an))

    def test_gradient_step_is_perturbed_modulus_projection(self):
        # Single-plane LS: u - grad equals the eps-perturbed projection onto
        # the measured modulus.
        spec, _ = make_spec("LS", eps=1e-3, defocus=(3.0,), amplitude=False)
        plane = spec.plan.planes[0]
        rng = np.random.default_rng(12)
        u = random_complex(rng, (8, 8))
        g = DataMisfit(spec).value_and_gradient(u)[1]
        Fu = diversity_forward(u, plane, spec.grid)
        M = np.sqrt(spec.data.intensities[0])
        proj = diversity_adjoint(
            (M / np.sqrt(np.abs(Fu) ** 2 + spec.epsilon ** 2)) * Fu, plane, spec.grid)
        assert np.abs((u - g) - proj).max() < 1e-12 * np.abs(proj).max()


def reference_value_and_gradient(spec, u):
    """Misfit value and gradient from the uncached formulas: the defocus
    phase is rebuilt on every call, and the value and the gradient weight
    each compute K + eps^2 on their own."""
    n, eps = spec.grid.n, spec.epsilon
    axis = (np.arange(n) - n / 2.0) / n
    x, y = np.meshgrid(axis, axis, indexing="xy")
    total = 0.0
    grad = np.zeros_like(u)
    for plane, intensity in zip(spec.plan, spec.data.intensities):
        amplitude = np.sqrt(intensity)
        if plane is None:
            Fu = u
        else:
            phase = np.exp(2j * np.pi * plane * (x * x + y * y))
            Fu = np.fft.fft2(phase * u, norm="ortho")
        K = np.abs(Fu) ** 2
        if spec.model == "MLP":
            total += float(np.sum(K - intensity * np.log(K + eps * eps)))
            w = 1.0 - intensity / (K + eps * eps)
        elif spec.model == "LS":
            total += float(np.sum(K - 2.0 * np.sqrt(K + eps * eps) * amplitude))
            w = 1.0 - amplitude / np.sqrt(K + eps * eps)
        else:
            total += float(0.5 * np.sum((K - intensity) ** 2))
            w = K - intensity
        if plane is None:
            grad += Fu * w
        else:
            grad += np.conj(phase) * np.fft.ifft2(Fu * w, norm="ortho")
    return total, grad


@pytest.mark.parametrize("model", MODELS)
def test_value_and_gradient_bit_identical_to_uncached_reference(model):
    n = 128
    spec, truth = make_spec(model, n=n, eps=1e-6, defocus=(-2.7, 3.1),
                            amplitude=True, seed=11)
    u = truth + 0.1 * random_complex(np.random.default_rng(12), (n, n))
    obj = DataMisfit(spec)
    for _ in range(2):  # repeated evaluations reuse the cached phases
        f, g = obj.value_and_gradient(u)
        f_ref, g_ref = reference_value_and_gradient(spec, u)
        assert f == f_ref
        assert g.tobytes() == g_ref.tobytes()
    assert obj.value(u) == f_ref


@pytest.mark.parametrize("model", MODELS)
def test_kept_gradient_survives_next_evaluation(model):
    # the work arrays are reused between calls; the gradient must not be
    spec, truth = make_spec(model, n=16, eps=1e-6, defocus=(-2.0, 3.0),
                            amplitude=True, seed=4)
    rng = np.random.default_rng(5)
    u1 = truth + 0.2 * random_complex(rng, (16, 16))
    u2 = truth + 0.2 * random_complex(rng, (16, 16))
    obj = DataMisfit(spec)
    f1, g1 = obj.value_and_gradient(u1)
    kept = g1.copy()
    f2, g2 = obj.value_and_gradient(u2)
    assert g2 is not g1 and f2 != f1
    assert g1.tobytes() == kept.tobytes()
    assert np.float64(obj.value(u1)).tobytes() == np.float64(f1).tobytes()
    assert g1.tobytes() == kept.tobytes()


@pytest.mark.parametrize("model", MODELS)
def test_hessian_action_bit_identical_to_its_definition(model):
    # sum over planes of F*(r o F(h) + c o conj(F(h))), from the public
    # operators and the (r, c) of hessian_diagonals (conftest's oracle)
    n = 32
    spec, truth = make_spec(model, n=n, eps=1e-6, defocus=(-2.7, 3.1),
                            amplitude=True, seed=21)
    rng = np.random.default_rng(22)
    u = truth + 0.1 * random_complex(rng, (n, n))
    hess = DataMisfit(spec).hessian_operator(u)
    for _ in range(2):  # repeated applications reuse the work arrays
        h = random_complex(rng, (n, n))
        ref = per_plane_hessian_action(spec, u, h)
        got = hess(h)
        assert got.tobytes() == ref.tobytes()
        assert hess(h) is not got


class TestHvp:
    def test_zero_direction(self):
        spec, _ = make_spec("MLP")
        u = random_complex(np.random.default_rng(13), (8, 8))
        hess = DataMisfit(spec).hessian_operator(u)
        assert np.linalg.norm(hess(np.zeros_like(u))) == 0.0

    @pytest.mark.parametrize("model", MODELS)
    def test_real_linearity(self, model):
        spec, _ = make_spec(model, seed=14)
        rng = np.random.default_rng(15)
        u = random_complex(rng, (8, 8))
        h1 = random_complex(rng, (8, 8))
        h2 = random_complex(rng, (8, 8))
        a, b = 0.7, -2.3
        hess = DataMisfit(spec).hessian_operator(u)
        lhs = hess(a * h1 + b * h2)
        rhs = a * hess(h1) + b * hess(h2)
        assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(rhs).max())

    @pytest.mark.parametrize("model", MODELS)
    def test_matches_gradient_finite_difference(self, model):
        spec, _ = make_spec(model, seed=16)
        obj = DataMisfit(spec)
        rng = np.random.default_rng(17)
        u = random_complex(rng, (8, 8))
        t = 1e-5
        for _ in range(5):
            h = random_complex(rng, (8, 8))
            fd = (obj.value_and_gradient(u + t * h)[1]
                  - obj.value_and_gradient(u - t * h)[1]) / (2 * t)
            an = obj.hessian_operator(u)(h)
            assert np.linalg.norm(fd - an) <= 1e-4 * max(1.0, np.linalg.norm(an))

    @pytest.mark.parametrize("model", MODELS)
    def test_quadratic_form_symmetry(self, model):
        spec, _ = make_spec(model, seed=18)
        obj = DataMisfit(spec)
        rng = np.random.default_rng(19)
        u = random_complex(rng, (8, 8))
        for _ in range(5):
            p = random_complex(rng, (8, 8))
            q = random_complex(rng, (8, 8))
            s1 = np.real(np.vdot(p, obj.hessian_operator(u)(q)))
            s2 = np.real(np.vdot(q, obj.hessian_operator(u)(p)))
            assert abs(s1 - s2) <= 1e-10 * max(1.0, abs(s1))

    @pytest.mark.parametrize("model", MODELS)
    def test_second_order_taylor_cubic_decay(self, model):
        spec, _ = make_spec(model, eps=1e-3, seed=20)
        obj = DataMisfit(spec)
        rng = np.random.default_rng(21)
        u = random_complex(rng, (8, 8))
        h = random_complex(rng, (8, 8))
        f0, g = obj.value_and_gradient(u)
        Hh = obj.hessian_operator(u)(h)
        scales = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        rem = []
        for t in scales:
            model2 = (f0 + 2 * np.real(np.vdot(t * h, g))
                      + np.real(np.vdot(t * h, t * Hh)))
            rem.append(abs(obj.value(u + t * h) - model2))
        rem = np.array(rem)
        slope = np.polyfit(np.log(scales), np.log(rem + 1e-300), 1)[0]
        assert slope >= 2.7


class TestLipschitz:
    @pytest.mark.parametrize("model", ["MLP", "LS"])
    def test_sampled_difference_quotients_below_bound(self, model):
        spec, _ = make_spec(model, eps=1e-2, seed=22)
        obj = DataMisfit(spec)
        bound = lipschitz_bound(spec)
        rng = np.random.default_rng(23)
        for _ in range(100):
            u = random_complex(rng, (8, 8))
            v = random_complex(rng, (8, 8))
            quot = (np.linalg.norm(obj.value_and_gradient(u)[1]
                                   - obj.value_and_gradient(v)[1])
                    / np.linalg.norm(u - v))
            assert quot <= bound


class TestValidation:
    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            MeasurementSet([np.array([[1.0, -0.5]])])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_intensity_rejected(self, bad):
        with pytest.raises(ValueError):
            MeasurementSet([np.ones((1, 2)), np.array([[1.0, bad]])])

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="at least one plane"):
            MeasurementSet([])

    def test_amplitudes_are_sqrt_of_intensities(self):
        data = MeasurementSet([np.array([[4.0, 9.0]])])
        assert np.array_equal(data.amplitudes[0] ** 2, data.intensities[0])

    def test_epsilon_must_be_positive(self):
        spec, _ = make_spec("LS")
        with pytest.raises(ValueError):
            ObjectiveSpec("LS", 0.0, spec.plan, spec.data, spec.grid)

    def test_epsilon_fourth_power_must_be_normal(self):
        # eps^4 >= the smallest normal float: eps above about 1.22134e-77
        spec, _ = make_spec("MLP")
        ObjectiveSpec("MLP", 1.2214e-77, spec.plan, spec.data, spec.grid)
        with pytest.raises(ValueError, match="objective.epsilon"):
            ObjectiveSpec("MLP", 1.2213e-77, spec.plan, spec.data, spec.grid)

    def test_plane_count_mismatch(self):
        spec, _ = make_spec("LS")
        with pytest.raises(ValueError):
            ObjectiveSpec("LS", 1e-6, DiversityPlan((1.0,), False),
                          spec.data, spec.grid)

    def test_unknown_model(self):
        spec, _ = make_spec("LS")
        with pytest.raises(ValueError):
            ObjectiveSpec("L2", 1e-6, spec.plan, spec.data, spec.grid)


def test_noiseless_instance_objective_invariants(bench32):
    spec = ObjectiveSpec("LS", 1e-14, bench32.plan, bench32.data, bench32.grid)
    npix = bench32.grid.n ** 2
    assert DataMisfit(spec).value(bench32.truth) <= npix * spec.epsilon
    g = DataMisfit(spec).value_and_gradient(bench32.truth)[1]
    assert np.linalg.norm(g) <= 1e-8
    spec_lsi = ObjectiveSpec("LSI", 1e-14, bench32.plan, bench32.data, bench32.grid)
    assert DataMisfit(spec_lsi).value(bench32.truth) <= npix * spec.epsilon


class TestStackedEvaluation:
    """DataMisfit evaluates all planes as one (P, n, n) stack; every result
    must be bit-equal to the plane-by-plane oracle."""

    @pytest.mark.parametrize("noisy", [False, True], ids=["clean", "poisson"])
    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("amplitude", [True, False], ids=["amp", "noamp"])
    @pytest.mark.parametrize("model", MODELS)
    def test_bit_equal_to_per_plane_oracle(self, model, amplitude, n, noisy):
        spec, truth = make_spec(model, n=n, eps=1e-6, defocus=(-2.7, 3.1),
                                amplitude=amplitude, seed=n)
        if noisy:
            spec = ObjectiveSpec(model, spec.epsilon, spec.plan,
                                 add_poisson_noise(spec.data, 20.0, seed=n),
                                 spec.grid)
        rng = np.random.default_rng(n + 1)
        u = truth + 0.1 * random_complex(rng, (n, n))
        h = random_complex(rng, (n, n))
        obj = DataMisfit(spec)
        f, g = obj.value_and_gradient(u)
        f_ref, g_ref = per_plane_misfit(spec, u)
        assert np.float64(f).tobytes() == np.float64(f_ref).tobytes()
        assert g.tobytes() == g_ref.tobytes()
        assert np.float64(obj.value(u)).tobytes() == np.float64(f_ref).tobytes()
        assert (obj.hessian_operator(u)(h).tobytes()
                == per_plane_hessian_action(spec, u, h).tobytes())
        floor = objective_floor(spec)
        assert np.float64(floor).tobytes() == np.float64(per_plane_floor(spec)).tobytes()

    @pytest.mark.parametrize("amplitude", [True, False], ids=["amp", "noamp"])
    def test_one_numpy_fft_per_defocus_plane(self, monkeypatch, amplitude):
        # counted as the benchmark tracer counts: calls into numpy's FFTs
        spec, truth = make_spec("MLP", n=16, defocus=(-3.0, 1.0, 3.0),
                                amplitude=amplitude)
        calls = []
        for name in ("fftn", "ifftn"):
            original = getattr(np.fft, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        obj = DataMisfit(spec)
        u = truth + 0.1
        obj.value(u)
        assert calls == ["fftn"] * 3
        calls.clear()
        obj.value_and_gradient(u)
        assert calls == ["fftn"] * 3 + ["ifftn"] * 3
        calls.clear()
        apply = obj.hessian_operator(u)
        assert calls == ["fftn"] * 3
        calls.clear()
        apply(u)
        assert calls == ["fftn"] * 3 + ["ifftn"] * 3
        assert obj.fft_calls == 3 + 6 + 3 + 6


class TestMeasurementStack:
    def test_two_read_only_stacks(self):
        rng = np.random.default_rng(3)
        planes = [rng.uniform(0.0, 5.0, (4, 4)) for _ in range(3)]
        data = MeasurementSet(planes)
        assert data.intensities.shape == (3, 4, 4)
        assert data.amplitudes.shape == (3, 4, 4)
        for name in ("intensities", "amplitudes"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(data, name)[1][0, 0] += 1.0
            with pytest.raises(FrozenInstanceError):
                setattr(data, name, np.zeros((3, 4, 4)))
        for m, plane in enumerate(planes):
            assert np.array_equal(data.intensities[m], plane)
            assert not np.shares_memory(data.intensities, plane)
        assert (data.amplitudes.tobytes()
                == np.sqrt(data.intensities).tobytes())
        assert (data == MeasurementSet(planes)) is False
        assert data == data

    def test_planes_of_different_shapes_rejected(self):
        with pytest.raises(ValueError, match=r"\(4, 4\).*\(4, 5\)"):
            MeasurementSet([np.ones((4, 4)), np.ones((4, 4)), np.ones((4, 5))])
