import numpy as np
import pytest

from phasediversity.forward import (
    DiversityPlan,
    PupilGrid,
    _adjoint,
    _forward,
    _plane_phases,
    diversity_adjoint,
    diversity_forward,
    unitary_dft2,
)
from phasediversity.hessian import plane_matrix
from phasediversity.problems import simulate_measurements

from conftest import defocus_phase, plan_of, random_complex


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


def predicted_intensity(u, plane, grid):
    """The noiseless intensity simulate_measurements predicts on one plane."""
    data = simulate_measurements(u, plan_of(plane), grid)
    return data.intensities[0]


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

    @pytest.mark.parametrize("inverse", [False, True])
    def test_out_is_returned_with_fresh_bits(self, inverse):
        f = random_complex(np.random.default_rng(3), (16, 16))
        fresh = unitary_dft2(f, inverse=inverse)
        buf = np.empty_like(f)
        assert unitary_dft2(f, inverse=inverse, out=buf) is buf
        assert buf.tobytes() == fresh.tobytes()
        alias = f.copy()
        assert unitary_dft2(alias, inverse=inverse, out=alias) is alias
        assert alias.tobytes() == fresh.tobytes()


class TestDefocusDiag:
    """The defocus diagonal, the cached (phase, conjugate) pair that the
    plane operators apply."""

    def test_zero_defocus_is_ones(self):
        grid = full_grid(8)
        for half in _plane_phases(0.0, grid.n):
            assert np.allclose(half, 1.0)

    def test_unit_modulus(self):
        grid = full_grid(16)
        phase, conj = _plane_phases(3.0, grid.n)
        assert np.abs(np.abs(phase) - 1.0).max() < 1e-15
        assert np.array_equal(conj, np.conj(phase))

    def test_point_value(self):
        # x = 1/4 at column index 3n/4, y = 0 at row index n/2
        n = 8
        grid = full_grid(n)
        phase, _ = _plane_phases(3.0, grid.n)
        got = phase[n // 2, 3 * n // 4]
        assert got == pytest.approx(np.exp(1j * 3 * np.pi / 8))

    def test_amplitude_plane_has_no_phase(self):
        assert _plane_phases(None, 4) is None

    @pytest.mark.parametrize("n, d", [(8, 3.0), (32, -3.0), (33, 0.7), (128, 2.5)])
    def test_equals_uncached_formula_bit_for_bit(self, n, d):
        want = defocus_phase(n, d)
        for _ in range(2):  # the first call may build, the second hits the cache
            got, conj = _plane_phases(d, n)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert conj.tobytes() == np.conj(want).tobytes()

    def test_cached_phase_is_read_only(self):
        for half in _plane_phases(3.0, 16):
            assert not half.flags.writeable
            with pytest.raises(ValueError):
                half[0, 0] = 0.0
        for half in _plane_phases(3.0, 16):
            assert half[0, 0] != 0.0

    def test_phase_shared_across_masks_of_equal_n(self):
        n = 16
        x, y = PupilGrid.coordinates(n)
        disc = PupilGrid(n, x * x + y * y <= 0.2)
        u = random_complex(np.random.default_rng(2), (n, n))
        got = diversity_forward(u, -1.5, disc)
        assert got.tobytes() == diversity_forward(u, -1.5, full_grid(n)).tobytes()
        assert _plane_phases(-1.5, disc.n) is _plane_phases(-1.5, n)


class TestDiversityOperators:
    def test_amplitude_plane_is_identity(self):
        grid = full_grid(6)
        u = random_complex(np.random.default_rng(3), (6, 6))
        assert np.array_equal(diversity_forward(u, None, grid), u)
        assert np.array_equal(diversity_adjoint(u, None, grid), u)
        # a complex input is returned as is, without a copy
        assert diversity_forward(u, None, grid) is u
        assert diversity_adjoint(u, None, grid) is u

    def test_out_receives_defocus_planes_only(self):
        # the private cores behind the public operators take ``out``
        grid = full_grid(8)
        rng = np.random.default_rng(7)
        u = random_complex(rng, (8, 8))
        kept = u.copy()
        plane = 2.5
        phases = _plane_phases(plane, grid.n)
        for core, op in ((_forward, diversity_forward),
                         (_adjoint, diversity_adjoint)):
            fresh = op(u, plane, grid)
            buf = np.empty_like(u)
            assert core(u, phases, buf) is buf
            assert buf.tobytes() == fresh.tobytes()
            assert core(u, None, buf) is u
            alias = u.copy()
            assert core(alias, phases, alias) is alias
            assert alias.tobytes() == fresh.tobytes()
        assert u.tobytes() == kept.tobytes()

    def test_zero_defocus_reduces_to_dft(self):
        grid = full_grid(6)
        u = random_complex(np.random.default_rng(4), (6, 6))
        assert np.allclose(diversity_forward(u, 0.0, grid),
                           unitary_dft2(u))

    def test_adjoint_identity(self):
        grid = full_grid(8)
        rng = np.random.default_rng(5)
        plane = 3.0
        u = random_complex(rng, (8, 8))
        v = random_complex(rng, (8, 8))
        lhs = np.vdot(diversity_forward(u, plane, grid), v)
        rhs = np.vdot(u, diversity_adjoint(v, plane, grid))
        assert abs(lhs - rhs) < 1e-12 * np.linalg.norm(u) * np.linalg.norm(v)

    def test_adjoint_inverts_forward(self):
        grid = full_grid(8)
        u = random_complex(np.random.default_rng(6), (8, 8))
        for plane in (None, -2.5):
            assert np.allclose(
                diversity_adjoint(diversity_forward(u, plane, grid), plane, grid), u)

    def test_adjoint_matches_dense_conjugate_transpose(self):
        n = 4
        grid = full_grid(n)
        plane = -3.0
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
        for plane in (None, -3.0, 3.0, 0.7):
            got = np.linalg.norm(diversity_forward(u, plane, grid))
            assert abs(got - np.linalg.norm(u)) < 1e-12 * np.linalg.norm(u)

    def test_adjointness_hundred_trials(self):
        grid = full_grid(8)
        rng = np.random.default_rng(9)
        plane = 1.7
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
        assert np.allclose(predicted_intensity(u, None, grid),
                           1.0)

    def test_total_intensity_conserved(self):
        grid = full_grid(12)
        u = random_complex(np.random.default_rng(11), (12, 12))
        for d in (-3.0, 0.0, 1.3, 3.0):
            total = predicted_intensity(u, d, grid).sum()
            assert total == pytest.approx(np.linalg.norm(u) ** 2)

    def test_matches_naive_dft(self):
        n = 4
        grid = full_grid(n)
        plane = 3.0
        u = random_complex(np.random.default_rng(12), (n, n))
        oracle = np.abs(naive_dft2(defocus_phase(n, 3.0) * u)) ** 2
        got = predicted_intensity(u, plane, grid)
        assert np.abs(got - oracle).max() < 1e-12


class TestPlanValidation:
    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            DiversityPlan((), False)

    @pytest.mark.parametrize("defocus", [(np.nan,), (1.0, np.inf)])
    def test_non_finite_defocus_rejected(self, defocus):
        with pytest.raises(ValueError, match="defocus"):
            DiversityPlan(defocus, True)

    def test_non_bool_amplitude_plane_rejected(self):
        with pytest.raises(TypeError, match="amplitude_plane"):
            DiversityPlan((1.0,), "false")

    @pytest.mark.parametrize("amplitude", [True, False])
    def test_pupil_first_then_defocus_in_order(self, amplitude):
        plan = DiversityPlan([-3, 3], amplitude)
        assert plan.defocus == (-3.0, 3.0)
        expected = (None, -3.0, 3.0) if amplitude else (-3.0, 3.0)
        assert plan.planes == expected == tuple(plan)
        assert len(plan) == len(expected)

    @pytest.mark.parametrize("d", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("operator", ["forward", "adjoint", "matrix"])
    def test_operators_reject_non_finite_defocus(self, operator, d):
        grid = full_grid(4)
        u = np.ones((4, 4), dtype=complex)
        apply = {"forward": lambda: diversity_forward(u, d, grid),
                 "adjoint": lambda: diversity_adjoint(u, d, grid),
                 "matrix": lambda: plane_matrix(d, grid)}[operator]
        with pytest.raises(ValueError, match="defocus must be finite"):
            apply()


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
