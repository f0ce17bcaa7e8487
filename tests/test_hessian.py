import json

import numpy as np
import pytest

from phasediversity.forward import (
    DiversityPlan,
    PupilGrid,
    diversity_forward,
)
from phasediversity.hessian import (
    SpectrumReport,
    clustering_comparison,
    closed_form_spectrum,
    dense_hessian,
    lipschitz_bound,
    plane_matrix,
    structured_eigenvalues,
)
from phasediversity.objectives import (
    MODELS,
    DataMisfit,
    MeasurementSet,
    ObjectiveSpec,
    hessian_diagonals,
)

from conftest import plan_of, random_complex, structured_hermitian_matrix


def full_grid(n):
    return PupilGrid(n, np.ones((n, n), dtype=bool))


def random_unitary(rng, N):
    Q, _ = np.linalg.qr(random_complex(rng, (N, N)))
    return Q


def plane_setup(n=4, plane=3.0, seed=0):
    rng = np.random.default_rng(seed)
    grid = full_grid(n)
    truth = np.exp(1j * rng.uniform(-np.pi, np.pi, (n, n)))
    intensity = np.abs(diversity_forward(truth, plane, grid)) ** 2
    u = random_complex(rng, (n, n))
    return grid, plane, truth, intensity, u


class TestDiagonals:
    def test_mlp_at_consistent_point_small_eps(self):
        grid, plane, truth, intensity, _ = plane_setup()
        r, c = hessian_diagonals("MLP", diversity_forward(truth, plane, grid),
                                 intensity, np.sqrt(intensity), 1e-12)
        assert np.abs(r - 1.0).max() < 1e-8
        assert np.abs(np.abs(c) - 1.0).max() < 1e-8

    def test_ls_at_consistent_point(self):
        grid, plane, truth, intensity, _ = plane_setup()
        r, c = hessian_diagonals("LS", diversity_forward(truth, plane, grid),
                                 intensity, np.sqrt(intensity), 1e-14)
        assert np.abs(r - 0.5).max() < 1e-8
        assert np.abs(np.abs(c) - 0.5).max() < 1e-8

    @pytest.mark.parametrize("model", MODELS)
    def test_assembled_matrix_reproduces_hessian_action(self, model):
        grid, plane, _, intensity, u = plane_setup(seed=1)
        eps = 1e-3
        r, c = hessian_diagonals(model, diversity_forward(u, plane, grid),
                                 intensity, np.sqrt(intensity), eps)
        H = dense_hessian(r, c, plane_matrix(plane, grid))
        spec = ObjectiveSpec(model, eps, plan_of(plane),
                             MeasurementSet([intensity]), grid)
        obj = DataMisfit(spec)
        rng = np.random.default_rng(2)
        for _ in range(5):
            h = random_complex(rng, u.shape)
            stacked = np.concatenate([h.ravel(), np.conj(h.ravel())])
            top = (H @ stacked)[: u.size].reshape(u.shape)
            hv = obj.hessian_operator(u)(h)
            assert np.abs(hv - top).max() < 1e-10 * max(1.0, np.abs(hv).max())


class TestStructuredEigenvalues:
    def test_two_pixel_example(self):
        report = structured_eigenvalues(np.array([2.0, 3.0]),
                                        np.array([1.0, 1j]))
        assert np.allclose(report.eigenvalues, [1.0, 2.0, 3.0, 4.0])

    def test_zero_coupling_doubles_multiplicity(self):
        report = structured_eigenvalues(np.array([1.0, 4.0]), np.zeros(2))
        assert np.allclose(report.eigenvalues, [1.0, 1.0, 4.0, 4.0])

    def test_matches_dense_solver_with_random_unitary(self):
        rng = np.random.default_rng(3)
        for N in (4, 8):
            r = rng.standard_normal(N)
            c = random_complex(rng, N)
            U = random_unitary(rng, N)
            H2 = structured_hermitian_matrix(r, c, U)
            dense = np.sort(np.linalg.eigvalsh(H2))
            report = structured_eigenvalues(r, c)
            assert np.abs(report.eigenvalues - dense).max() < 1e-10

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            structured_eigenvalues(np.zeros(3), np.zeros(4))


class TestClosedFormSpectrum:
    def test_mlp_limit_at_consistent_point(self):
        grid, plane, truth, intensity, _ = plane_setup()
        report = closed_form_spectrum("MLP", diversity_forward(truth, plane, grid),
                                      intensity, 1e-12)
        half = len(report.eigenvalues) // 2
        assert np.abs(report.eigenvalues[:half]).max() < 1e-8
        assert np.abs(report.eigenvalues[half:] - 2.0).max() < 1e-8

    def test_ls_limit_at_consistent_point(self):
        grid, plane, truth, intensity, _ = plane_setup()
        report = closed_form_spectrum("LS", diversity_forward(truth, plane, grid),
                                      intensity, 1e-12)
        half = len(report.eigenvalues) // 2
        assert np.abs(report.eigenvalues[:half]).max() < 1e-8
        assert np.abs(report.eigenvalues[half:] - 1.0).max() < 1e-8

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("plane_kind", ["defocus", "amplitude"])
    def test_matches_dense_eigensolver(self, model, plane_kind):
        grid, plane, _, intensity, u = plane_setup(seed=4)
        if plane_kind == "amplitude":
            plane = None
            intensity = np.abs(u) ** 2 * 0.5 + 0.1
        eps = 1e-2
        Fu = diversity_forward(u, plane, grid)
        report = closed_form_spectrum(model, Fu, intensity, eps)
        r, c = hessian_diagonals(model, Fu, intensity, np.sqrt(intensity), eps)
        dense = np.sort(np.linalg.eigvalsh(
            dense_hessian(r, c, plane_matrix(plane, grid))))
        assert np.abs(report.eigenvalues - dense).max() < 1e-9

    def test_equals_structured_route(self):
        grid, plane, _, intensity, u = plane_setup(seed=5)
        Fu = diversity_forward(u, plane, grid)
        for model in MODELS:
            cf = closed_form_spectrum(model, Fu, intensity, 1e-4)
            r, c = hessian_diagonals(model, Fu, intensity, np.sqrt(intensity),
                                     1e-4)
            st = structured_eigenvalues(r, c)
            assert np.abs(cf.eigenvalues - st.eigenvalues).max() < 1e-11

    def test_convexity_witness(self):
        # If predictions dominate the data everywhere, spectra are nonnegative.
        grid, plane, _, intensity, u = plane_setup(seed=6)
        Fu = diversity_forward(u, plane, grid)
        dominated = np.abs(Fu) ** 2 * 0.9
        for model in ("MLP", "LS"):
            report = closed_form_spectrum(model, Fu, dominated, 1e-8)
            assert report.lambda_min >= -1e-12


def test_spectra_are_pointwise_in_the_transform(monkeypatch):
    # given F(u), the diagonals, spectra and clustering check transform nothing
    grid, plane, _, intensity, u = plane_setup(seed=11)
    Fu = diversity_forward(u, plane, grid)

    def refuse(*args, **kwargs):
        raise AssertionError("a transform ran")

    for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, refuse)
    for model in MODELS:
        hessian_diagonals(model, Fu, intensity, np.sqrt(intensity), 1e-3)
        closed_form_spectrum(model, Fu, intensity, 1e-3)
    clustering_comparison(Fu, intensity, 1e-3)


class TestDenseGuard:
    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("plane", [None, -3.0, 3.0, 0.7])
    def test_plane_matrix_is_the_per_pixel_build(self, n, plane):
        # column j is the transform of pixel j, bit for bit
        grid = full_grid(n)
        U = np.zeros((n * n, n * n), dtype=complex)
        for j in range(n * n):
            e = np.zeros(n * n, dtype=complex)
            e[j] = 1.0
            U[:, j] = diversity_forward(e.reshape(n, n), plane, grid).ravel()
        assert plane_matrix(plane, grid).tobytes() == U.tobytes()

    def test_size_guard(self):
        grid = full_grid(16)  # 256 pixels > limit
        with pytest.raises(ValueError):
            plane_matrix(1.0, grid)
        with pytest.raises(ValueError):
            dense_hessian(np.zeros(256), np.zeros(256), np.eye(256))

    def test_structured_hessian_assembles_hermitian(self):
        grid, plane, _, intensity, u = plane_setup(seed=7)
        r, c = hessian_diagonals("LS", diversity_forward(u, plane, grid),
                                 intensity, np.sqrt(intensity), 1e-3)
        H = dense_hessian(r, c, plane_matrix(plane, grid))
        assert np.abs(H - H.conj().T).max() < 1e-12
        assert np.allclose(structured_eigenvalues(r, c, "LS").eigenvalues,
                           np.sort(np.linalg.eigvalsh(H)))


class TestWeylBounds:
    def test_sum_of_plane_spectra_bounds(self):
        # lambda_max of the summed Hessian is at most the sum of the
        # per-plane maxima, and symmetrically for the minima.
        rng = np.random.default_rng(8)
        n = 4
        grid = full_grid(n)
        planes = [-3.0, 3.0]
        truth = np.exp(1j * rng.uniform(-np.pi, np.pi, (n, n)))
        data = [np.abs(diversity_forward(truth, p, grid)) ** 2 for p in planes]
        u = random_complex(rng, (n, n))
        eps = 1e-2
        H_total = np.zeros((2 * n * n, 2 * n * n), dtype=complex)
        maxima, minima = [], []
        for plane, intensity in zip(planes, data):
            r, c = hessian_diagonals("MLP", diversity_forward(u, plane, grid),
                                     intensity, np.sqrt(intensity), eps)
            H = dense_hessian(r, c, plane_matrix(plane, grid))
            H_total += H
            ev = np.linalg.eigvalsh(H)
            maxima.append(ev.max())
            minima.append(ev.min())
        total = np.linalg.eigvalsh(H_total)
        assert total.max() <= sum(maxima) + 1e-9
        assert total.min() >= sum(minima) - 1e-9


class TestClustering:
    def test_scaled_extremes_at_consistent_point(self):
        grid, plane, truth, intensity, _ = plane_setup(seed=9)
        report = clustering_comparison(diversity_forward(truth, plane, grid),
                                       intensity, 1e-12)
        assert report.ls_max_times2 == pytest.approx(2.0, abs=1e-8)
        assert report.mlp_max == pytest.approx(2.0, abs=1e-8)

    def test_underpredicting_pixel_pushes_mlp_above_two(self):
        # A pixel predicting a quarter of the measured intensity gives a
        # Poisson-model eigenvalue near 1 + 4.
        grid = full_grid(4)
        plane = None
        u = np.full((4, 4), 0.5 + 0.0j)
        intensity = np.ones((4, 4))
        eps = 1e-10
        Fu = diversity_forward(u, plane, grid)
        report = closed_form_spectrum("MLP", Fu, intensity, eps)
        assert report.lambda_max == pytest.approx(5.0, rel=1e-6)
        cluster = clustering_comparison(Fu, intensity, eps)
        assert cluster.margin_pixel_exists
        assert cluster.mlp_max > 2.0
        assert cluster.ls_max_times2 <= 2.0 + 1e-12


class TestLipschitzBound:
    def test_single_plane_unit_intensity(self):
        plan = DiversityPlan((1.0,), False)
        data = MeasurementSet([np.ones((2, 2))])
        spec = ObjectiveSpec("MLP", 1.0, plan, data, full_grid(2))
        assert lipschitz_bound(spec) == pytest.approx(2.0)

    def test_zero_data_gives_plane_count(self):
        plan = DiversityPlan((-3.0, 3.0), True)
        data = MeasurementSet([np.zeros((2, 2))] * 3)
        for model in ("MLP", "LS"):
            spec = ObjectiveSpec(model, 1e-2, plan, data, full_grid(2))
            assert lipschitz_bound(spec) == pytest.approx(3.0)

    def test_lsi_has_no_global_bound(self):
        plan = DiversityPlan((1.0,), False)
        data = MeasurementSet([np.ones((2, 2))])
        with pytest.raises(ValueError):
            lipschitz_bound(ObjectiveSpec("LSI", 1e-2, plan, data, full_grid(2)))


class TestSpectrumReport:
    def test_json_roundtrip(self):
        report = SpectrumReport.from_eigenvalues(np.array([3.0, -1.0, 2.0]), "LS")
        back = json.loads(json.dumps(report.to_dict()))
        assert back["model"] == "LS"
        assert back["eigenvalues"] == [-1.0, 2.0, 3.0]
        assert back["lambda_min"] == -1.0
        assert back["lambda_max"] == 3.0
        assert back["condition_ratio"] == pytest.approx(1.5)
        assert back["clustering_width"] == pytest.approx(4.0)
