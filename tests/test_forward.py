import numpy as np
import pytest

from phasediversity.forward import (
    DiversityPlan,
    PlaneSpec,
    PupilGrid,
    TransformCounter,
    defocus_diag,
    diversity_adjoint,
    diversity_forward,
    predict_intensity,
    unitary_dft2,
)

from conftest import random_complex


def naive_dft2(f, inverse=False):
    """O(n^4) direct evaluation of the unitary 2-D DFT."""
    f = np.asarray(f, dtype=complex)
    n0, n1 = f.shape
    sign = 1j if inverse else -1j
    out = np.zeros_like(f)
    for p in range(n0):
        for q in range(n1):
            acc = 0.0 + 0.0j
            for j in range(n0):
                for k in range(n1):
                    acc += f[j, k] * np.exp(sign * 2 * np.pi * (p * j / n0 + q * k / n1))
            out[p, q] = acc
    return out / np.sqrt(n0 * n1)


def full_grid(n):
    return PupilGrid(n, np.ones((n, n), dtype=bool))


class TestUnitaryDft:
    def test_delta_gives_constant(self):
        f = np.zeros((4, 4), dtype=complex)
        f[0, 0] = 1.0
        assert np.allclose(unitary_dft2(f), np.full((4, 4), 0.25))

    def test_parseval(self):
        f = random_complex(np.random.default_rng(0), (8, 8))
        assert np.linalg.norm(unitary_dft2(f)) == pytest.approx(np.linalg.norm(f))

    def test_matches_naive_dft(self):
        f = random_complex(np.random.default_rng(1), (3, 3))
        assert np.abs(unitary_dft2(f) - naive_dft2(f)).max() < 1e-12
        assert np.abs(unitary_dft2(f, inverse=True) - naive_dft2(f, inverse=True)).max() < 1e-12

    def test_roundtrip_identity(self):
        f = random_complex(np.random.default_rng(2), (5, 5))
        assert np.allclose(unitary_dft2(unitary_dft2(f), inverse=True), f)

    def test_counter_increments(self):
        c = TransformCounter()
        unitary_dft2(np.zeros((4, 4)), counter=c)
        unitary_dft2(np.zeros((4, 4)), inverse=True, counter=c)
        assert c.count == 2


class TestDefocusDiag:
    def test_zero_defocus_is_ones(self):
        grid = full_grid(8)
        assert np.allclose(defocus_diag(PlaneSpec.defocus(0.0), grid), 1.0)

    def test_unit_modulus(self):
        grid = full_grid(16)
        d = defocus_diag(PlaneSpec.defocus(3.0), grid)
        assert np.abs(np.abs(d) - 1.0).max() < 1e-15

    def test_point_value(self):
        # x = 1/4 at column index 3n/4, y = 0 at row index n/2
        n = 8
        grid = full_grid(n)
        d = defocus_diag(PlaneSpec.defocus(3.0), grid)
        got = d[n // 2, 3 * n // 4]
        assert got == pytest.approx(np.exp(1j * 3 * np.pi / 8))

    def test_amplitude_plane_rejected(self):
        with pytest.raises(ValueError):
            defocus_diag(PlaneSpec.amplitude(), full_grid(4))

    @pytest.mark.parametrize("n, d", [(8, 3.0), (32, -3.0), (33, 0.7), (128, 2.5)])
    def test_equals_uncached_formula_bit_for_bit(self, n, d):
        axis = (np.arange(n) - n / 2.0) / n
        x, y = np.meshgrid(axis, axis, indexing="xy")
        want = np.exp(2j * np.pi * d * (x * x + y * y))
        for _ in range(2):  # the first call may build, the second hits the cache
            got = defocus_diag(PlaneSpec.defocus(d), full_grid(n))
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_cached_phase_is_read_only(self):
        d = defocus_diag(PlaneSpec.defocus(3.0), full_grid(16))
        assert not d.flags.writeable
        with pytest.raises(ValueError):
            d[0, 0] = 0.0
        assert defocus_diag(PlaneSpec.defocus(3.0), full_grid(16))[0, 0] != 0.0

    def test_phase_shared_across_masks_of_equal_n(self):
        n = 16
        x, y = PupilGrid.coordinates(n)
        disc = PupilGrid(n, x * x + y * y <= 0.2)
        plane = PlaneSpec.defocus(-1.5)
        assert defocus_diag(plane, disc) is defocus_diag(plane, full_grid(n))


class TestDiversityOperators:
    def test_amplitude_plane_is_identity(self):
        grid = full_grid(6)
        u = random_complex(np.random.default_rng(3), (6, 6))
        assert np.array_equal(diversity_forward(u, PlaneSpec.amplitude(), grid), u)
        assert np.array_equal(diversity_adjoint(u, PlaneSpec.amplitude(), grid), u)
        # a complex input is returned as is, without a copy
        assert diversity_forward(u, PlaneSpec.amplitude(), grid) is u
        assert diversity_adjoint(u, PlaneSpec.amplitude(), grid) is u

    def test_zero_defocus_reduces_to_dft(self):
        grid = full_grid(6)
        u = random_complex(np.random.default_rng(4), (6, 6))
        assert np.allclose(diversity_forward(u, PlaneSpec.defocus(0.0), grid),
                           unitary_dft2(u))

    def test_adjoint_identity(self):
        grid = full_grid(8)
        rng = np.random.default_rng(5)
        plane = PlaneSpec.defocus(3.0)
        u = random_complex(rng, (8, 8))
        v = random_complex(rng, (8, 8))
        lhs = np.vdot(diversity_forward(u, plane, grid), v)
        rhs = np.vdot(u, diversity_adjoint(v, plane, grid))
        assert abs(lhs - rhs) < 1e-12 * np.linalg.norm(u) * np.linalg.norm(v)

    def test_adjoint_inverts_forward(self):
        grid = full_grid(8)
        u = random_complex(np.random.default_rng(6), (8, 8))
        for plane in (PlaneSpec.amplitude(), PlaneSpec.defocus(-2.5)):
            assert np.allclose(
                diversity_adjoint(diversity_forward(u, plane, grid), plane, grid), u)

    def test_adjoint_matches_dense_conjugate_transpose(self):
        n = 4
        grid = full_grid(n)
        plane = PlaneSpec.defocus(-3.0)
        npix = n * n
        U = np.zeros((npix, npix), dtype=complex)
        for j in range(npix):
            e = np.zeros(npix, dtype=complex)
            e[j] = 1.0
            U[:, j] = diversity_forward(e.reshape(n, n), plane, grid).ravel()
        v = random_complex(np.random.default_rng(7), (n, n))
        dense = (U.conj().T @ v.ravel()).reshape(n, n)
        assert np.abs(diversity_adjoint(v, plane, grid) - dense).max() < 1e-12

    def test_unitarity_every_plane(self):
        grid = full_grid(16)
        rng = np.random.default_rng(8)
        u = random_complex(rng, (16, 16))
        for plane in (PlaneSpec.amplitude(), PlaneSpec.defocus(-3.0),
                      PlaneSpec.defocus(3.0), PlaneSpec.defocus(0.7)):
            got = np.linalg.norm(diversity_forward(u, plane, grid))
            assert abs(got - np.linalg.norm(u)) < 1e-12 * np.linalg.norm(u)

    def test_adjointness_hundred_trials(self):
        grid = full_grid(8)
        rng = np.random.default_rng(9)
        plane = PlaneSpec.defocus(1.7)
        for _ in range(100):
            u = random_complex(rng, (8, 8))
            v = random_complex(rng, (8, 8))
            err = abs(np.vdot(diversity_forward(u, plane, grid), v)
                      - np.vdot(u, diversity_adjoint(v, plane, grid)))
            assert err <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(v)


class TestPredictIntensity:
    def test_unit_amplitudes_on_amplitude_plane(self):
        grid = full_grid(5)
        u = np.exp(1j * np.random.default_rng(10).uniform(size=(5, 5)))
        assert np.allclose(predict_intensity(u, PlaneSpec.amplitude(), grid), 1.0)

    def test_total_intensity_conserved(self):
        grid = full_grid(12)
        u = random_complex(np.random.default_rng(11), (12, 12))
        for d in (-3.0, 0.0, 1.3, 3.0):
            total = predict_intensity(u, PlaneSpec.defocus(d), grid).sum()
            assert total == pytest.approx(np.linalg.norm(u) ** 2)

    def test_matches_naive_dft(self):
        n = 4
        grid = full_grid(n)
        plane = PlaneSpec.defocus(3.0)
        u = random_complex(np.random.default_rng(12), (n, n))
        oracle = np.abs(naive_dft2(defocus_diag(plane, grid) * u)) ** 2
        assert np.abs(predict_intensity(u, plane, grid) - oracle).max() < 1e-12


class TestPlanValidation:
    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            DiversityPlan([])

    def test_two_amplitude_planes_rejected(self):
        with pytest.raises(ValueError):
            DiversityPlan([PlaneSpec.amplitude(), PlaneSpec.amplitude()])

    def test_amplitude_must_come_first(self):
        with pytest.raises(ValueError):
            DiversityPlan([PlaneSpec.defocus(1.0), PlaneSpec.amplitude()])

    def test_from_defocus(self):
        plan = DiversityPlan.from_defocus([-3, 3], amplitude_plane=True)
        assert len(plan) == 3
        assert plan.planes[0].kind == "amplitude"


class TestPupilGrid:
    def test_coordinates_centered_lattice(self):
        x, y = PupilGrid.coordinates(4)
        assert np.allclose(x[0], [-0.5, -0.25, 0.0, 0.25])
        assert np.allclose(y[:, 0], [-0.5, -0.25, 0.0, 0.25])

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            PupilGrid(1, np.ones((1, 1), dtype=bool))

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError):
            PupilGrid(4, np.ones((3, 3), dtype=bool))
