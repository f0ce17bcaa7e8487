import inspect
import math
import warnings

import numpy as np
import pytest
from scipy import ndimage

from phasediversity.forward import PupilGrid
from phasediversity.objectives import DataMisfit, MeasurementSet, ObjectiveSpec
from phasediversity.optimizers import SolverConfig, solve
from phasediversity.problems import (
    PROBLEM_DEFAULTS,
    add_poisson_noise,
    annular_pupil,
    build_problem,
    load_instance,
    morozov_stop,
    noll_to_nm,
    phase_to_wavefront,
    save_instance,
    segmented_membership,
    segmented_pupil,
    simulate_measurements,
    von_karman_screen,
    zernike_annular_basis,
    zernike_annular_phase,
    zernike_circle,
)

from conftest import defocus_phase


class TestAnnularPupil:
    def test_disc_fill_fraction(self):
        grid = annular_pupil(128, 0.0, 0.5)
        fill = grid.mask.mean()
        assert abs(fill - np.pi / 4) < 0.02 * np.pi / 4

    def test_equal_radii_rejected(self):
        with pytest.raises(ValueError):
            annular_pupil(32, 0.3, 0.3)
        with pytest.raises(ValueError):
            annular_pupil(32, 0.4, 0.2)
        with pytest.raises(ValueError):
            annular_pupil(32, 0.0, 0.6)

    def test_hand_enumerated_disc_n4(self):
        # coordinates (j - 2)/4 in {-0.5, -0.25, 0, 0.25}; the disc
        # r < 0.5 contains every pixel except where x^2+y^2 >= 0.25
        grid = annular_pupil(4, 0.0, 0.5)
        expected = np.zeros((4, 4), dtype=bool)
        for j in range(4):
            for i in range(4):
                x = (i - 2) / 4
                y = (j - 2) / 4
                expected[j, i] = x * x + y * y < 0.25
        assert np.array_equal(grid.mask, expected)
        assert not expected[0, 0] and expected[2, 2]


class TestZernike:
    def test_noll_indices(self):
        assert noll_to_nm(1) == (0, 0)
        assert noll_to_nm(4) == (2, 0)
        assert noll_to_nm(11) == (4, 0)
        n, m = noll_to_nm(13)
        assert (n, abs(m)) == (4, 2)
        with pytest.raises(ValueError, match="start at 1"):
            noll_to_nm(0)

    def test_piston_constant_on_mask(self):
        grid = annular_pupil(32, 0.1, 0.4)
        basis = zernike_annular_basis(grid, 1)
        vals = basis[0][grid.mask]
        assert np.abs(vals - vals[0]).max() < 1e-12

    def test_discrete_orthonormality(self):
        grid = annular_pupil(64, 0.15, 0.45)
        basis = zernike_annular_basis(grid, 15)
        mask = grid.mask
        npix = mask.sum()
        for a in range(15):
            for b in range(a, 15):
                ip = float(np.sum(basis[a][mask] * basis[b][mask]) / npix)
                assert abs(ip - (1.0 if a == b else 0.0)) < 1e-10

    def test_mode13_rms_equals_coefficient(self):
        grid = annular_pupil(128, 0.2, 0.5)
        phase = zernike_annular_phase(grid, 13, 0.1)
        assert np.std(phase[grid.mask]) == pytest.approx(0.1, abs=1e-10)

    @pytest.mark.parametrize("count", [1, 13, 21])
    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("r_inner", [0.12, 0.0], ids=["annulus", "disc"])
    def test_basis_bits_equal_np_mean_gram_schmidt(self, r_inner, n, count):
        # the Gram-Schmidt loop written with np.mean, as a reference
        grid = annular_pupil(n, r_inner, 0.3)
        mask = grid.mask
        x, y = grid.xy
        r = np.sqrt(x * x + y * y)
        rho = (r / r[mask].max())[mask]
        theta = np.arctan2(y, x)[mask]
        basis = []
        for j in range(1, count + 1):
            v = zernike_circle(j, rho, theta)
            for _ in range(2):
                for b in basis:
                    v = v - np.mean(b * v) * b
            basis.append(v / math.sqrt(float(np.mean(v * v))))
        expected = np.zeros((count, n, n))
        for j, b in enumerate(basis):
            expected[j][mask] = b
        assert zernike_annular_basis(grid, count).tobytes() == expected.tobytes()

    def test_index_beyond_mask_rank(self):
        grid = annular_pupil(4, 0.0, 0.5)
        with pytest.raises(ValueError):
            zernike_annular_basis(grid, 100)
        with pytest.raises(ValueError, match="empty pupil mask"):
            zernike_annular_basis(PupilGrid(4, np.zeros((4, 4), bool)), 1)
        # three pixels on the y = 0 row: the y tilt (mode 3) vanishes there
        row = np.zeros((8, 8), bool)
        row[4, 3:6] = True
        with pytest.raises(ValueError, match="mode 3 .rank deficient"):
            zernike_annular_basis(PupilGrid(8, row), 3)


class TestVonKarman:
    def test_deterministic_under_seed(self):
        grid = annular_pupil(32, 0.0, 0.4)
        s1 = von_karman_screen(grid, seed=11)
        s2 = von_karman_screen(grid, seed=11)
        assert np.array_equal(s1, s2)
        s3 = von_karman_screen(grid, seed=12)
        assert not np.array_equal(s1, s3)

    def test_defaults_are_the_vonkarman_problem_defaults(self):
        params = inspect.signature(von_karman_screen).parameters
        for name in ("r0", "outer_scale", "target_rms"):
            assert params[name].default == PROBLEM_DEFAULTS["vonkarman"][name]

    def test_degenerate_masks_rejected(self):
        with pytest.raises(ValueError, match="empty pupil mask"):
            von_karman_screen(PupilGrid(4, np.zeros((4, 4), bool)))
        # simulate's vonkarman pupil at n = 2 has one pixel, where the
        # mean-removed screen is zero
        with pytest.raises(ValueError, match="zero variance"):
            von_karman_screen(annular_pupil(2, 0.0, 0.3))

    def test_mask_statistics_enforced(self):
        grid = annular_pupil(32, 0.0, 0.4)
        screen = von_karman_screen(grid, seed=13, target_rms=0.19)
        vals = screen[grid.mask]
        assert abs(vals.mean()) < 1e-12
        assert np.sqrt(np.mean(vals**2)) == pytest.approx(0.19, abs=1e-12)

    def test_ensemble_spectral_slope(self):
        # Periodogram fit: ensemble-averaged power over one decade of
        # frequencies should fall as k^(-11/3) within 15%.
        n = 64
        grid = annular_pupil(n, 0.0, 0.5)
        power = np.zeros((n, n))
        for seed in range(200):
            screen = von_karman_screen(grid, outer_scale=2.0, seed=seed)
            power += np.abs(np.fft.fft2(screen)) ** 2
        k = np.fft.fftfreq(n, d=1.0 / n)
        kx, ky = np.meshgrid(k, k)
        kr = np.sqrt(kx**2 + ky**2).ravel()
        pw = power.ravel()
        sel = (kr >= 2.0) & (kr <= 20.0)
        slope = np.polyfit(np.log(kr[sel]), np.log(pw[sel]), 1)[0]
        assert abs(slope - (-11.0 / 3.0)) < 0.15 * (11.0 / 3.0)


class TestSegmentedPupil:
    def test_single_hexagon(self):
        grid = segmented_pupil(64, rings=0, gap_frac=0.0)
        _, ncomp = ndimage.label(grid.mask)
        assert ncomp == 1
        assert grid.mask[32, 32]

    def test_sixfold_symmetry(self):
        n = 64
        x, y = PupilGrid.coordinates(n)
        base = segmented_membership(x, y)
        ct, st = np.cos(np.pi / 3), np.sin(np.pi / 3)
        rotated = segmented_membership(ct * x - st * y, st * x + ct * y)
        agreement = np.mean(base == rotated)
        assert agreement >= 0.99

    def test_component_count(self):
        # at the default radius 0.3 the gaps are under a pixel wide at n=64
        grid = segmented_pupil(64, rings=2, outer_radius=0.375)
        _, ncomp = ndimage.label(grid.mask)
        assert ncomp == 18

    def test_default_is_the_segmented_problem_pupil(self):
        assert np.array_equal(segmented_pupil(64).mask,
                              build_problem("segmented", 64).grid.mask)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            segmented_pupil(32, rings=-1)
        with pytest.raises(ValueError):
            segmented_pupil(32, gap_frac=1.5)


class TestSimulateMeasurements:
    def test_point_source_gives_flat_diffraction(self):
        n = 8
        grid = PupilGrid(n, np.ones((n, n), dtype=bool))
        truth = np.zeros((n, n), dtype=complex)
        truth[0, 0] = 1.0
        from phasediversity.forward import DiversityPlan

        data = simulate_measurements(truth, DiversityPlan((0.0,), False), grid)
        assert np.abs(data.intensities[0] - 1.0 / n**2).max() < 1e-14

    def test_flux_conservation(self, bench32):
        total = np.linalg.norm(bench32.truth) ** 2
        for intensity in bench32.data.intensities:
            assert intensity.sum() == pytest.approx(total)

    def test_small_case_against_naive_dft(self):
        from test_forward import naive_dft2

        inst = build_problem("zernike", 4, defocus=(3.0,),
                             amplitude_plane=False, r_inner=0.0, r_outer=0.5,
                             zernike_index=1, zernike_coeff=0.2)
        plane = inst.plan.planes[0]
        oracle = np.abs(naive_dft2(defocus_phase(4, 3.0) * inst.truth)) ** 2
        assert np.abs(inst.data.intensities[0] - oracle).max() < 1e-12


class TestPoissonNoise:
    def test_high_snr_recovers_data(self, bench32):
        noisy = add_poisson_noise(bench32.data, snr=1000.0, seed=1)
        for clean, noised in zip(bench32.data.intensities, noisy.intensities):
            rel = np.linalg.norm(noised - clean) / np.linalg.norm(clean)
            assert rel < 0.01

    def test_zero_pixels_stay_zero(self, bench32):
        noisy = add_poisson_noise(bench32.data, snr=10.0, seed=2)
        clean0 = bench32.data.intensities[0]
        noised0 = noisy.intensities[0]
        assert np.all(noised0[clean0 == 0.0] == 0.0)

    def test_realized_error_matches_snr(self, bench32):
        snr = 10.0
        clean = bench32.data.intensities[1]
        data = MeasurementSet([clean])
        rels = []
        for seed in range(50):
            noisy = add_poisson_noise(data, snr=snr, seed=seed)
            rels.append(np.linalg.norm(noisy.intensities[0] - clean)
                        / np.linalg.norm(clean))
        mean_rel = float(np.mean(rels))
        assert abs(mean_rel - 1.0 / snr) < 0.2 / snr

    def test_all_zero_plane_stays_zero(self, bench32):
        clean = bench32.data.intensities
        data = MeasurementSet([clean[0], np.zeros_like(clean[1]), clean[2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            noisy = add_poisson_noise(data, snr=10.0, seed=4)
        assert np.array_equal(noisy.intensities[1], np.zeros_like(clean[1]))
        for m in (0, 2):
            assert not np.array_equal(noisy.intensities[m], clean[m])

    def test_snr_must_be_positive(self, bench32):
        with pytest.raises(ValueError):
            add_poisson_noise(bench32.data, snr=0.0)


class TestMorozov:
    def test_first_crossing(self):
        res = morozov_stop([10.0, 5.0, 2.0, 1.0], 2.0, tau=1.05)
        assert res.index == 2
        assert res.reached

    def test_never_reached_flags_last(self):
        res = morozov_stop([10.0, 5.0], 1e-300, tau=1.05)
        assert res.index == 1
        assert not res.reached

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            morozov_stop([], 1.0)
        with pytest.raises(ValueError, match="below the objective floor"):
            morozov_stop([1.0], -2.0, floor=-1.0)

    def test_floor_shifts_threshold(self):
        # values approach -10; level -9 with floor -10 gives threshold -8.95
        values = [0.0, -5.0, -8.9, -8.96, -9.5]
        res = morozov_stop(values, -9.0, tau=1.05, floor=-10.0)
        assert res.index == 3

    def test_discrepancy_stop_precedes_overfitting_on_noisy_runs(self, bench32):
        # The truth-level discrepancy stop fires strictly inside the run,
        # at or before the RMS minimum, having already improved on the
        # starting error.  It is conservative: the least-squares minimizer
        # absorbs roughly half of the noise misfit, so the tau*level
        # crossing happens while the reconstruction is still improving.
        from phasediversity.experiments import initial_guess
        from phasediversity.objectives import objective_floor

        hits = 0
        for s in range(10):
            noisy = add_poisson_noise(bench32.data, snr=10.0, seed=500 + s)
            spec = ObjectiveSpec("LS", 1e-14, bench32.plan, noisy, bench32.grid)
            obj = DataMisfit(spec)
            _, trace = solve(obj, SolverConfig(seed=s),
                             initial_guess(bench32.grid.mask, s),
                             truth=bench32.truth)
            level = DataMisfit(spec).value(bench32.truth)
            res = morozov_stop(trace.f_values, level, tau=1.05,
                               floor=objective_floor(spec))
            rms = trace.rms_values
            interior = res.reached and 0 < res.index < len(trace) - 1
            if (interior and res.index <= int(np.nanargmin(rms))
                    and rms[res.index] < rms[0]):
                hits += 1
        assert hits >= 8


class TestProblemInstances:
    def test_truth_amplitude_binary(self):
        for ptype in ("zernike", "vonkarman", "segmented"):
            inst = build_problem(ptype, 32, seed=5)
            amp = np.abs(inst.truth)
            assert set(np.round(np.unique(amp), 12)) <= {0.0, 1.0}
            assert np.array_equal(amp > 0.5, inst.grid.mask)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            build_problem("airy", 32)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            build_problem("zernike", 32, bogus=1.0)

    def test_save_load_roundtrip(self, tmp_path, bench32):
        save_instance(bench32, tmp_path / "inst")
        back = load_instance(tmp_path / "inst")
        assert np.array_equal(back.truth, bench32.truth)
        assert np.array_equal(back.grid.mask, bench32.grid.mask)
        assert len(back.plan) == len(bench32.plan)
        for a, b in zip(back.data.intensities, bench32.data.intensities):
            assert np.allclose(a, b, rtol=0, atol=1e-16)
        spec = ObjectiveSpec("LS", 1e-14, back.plan, back.data, back.grid)

        assert abs(DataMisfit(spec).value(back.truth)
                   - (-sum(float(i.sum()) for i in back.data.intensities))) < 1e-6

    def test_each_plane_checked_once_on_load(self, tmp_path, monkeypatch):
        from phasediversity import fields, objectives, problems

        inst = build_problem("zernike", 8, defocus=(-3.0, 0.0, 3.0))
        save_instance(inst, tmp_path / "inst")
        checked = []

        def counting(arr, name="intensity field"):
            checked.append(name)
            return fields.require_intensity(arr, name)

        for module in (objectives, problems):  # every module that imports it
            if hasattr(module, "require_intensity"):
                monkeypatch.setattr(module, "require_intensity", counting)
        load_instance(tmp_path / "inst")
        assert len(checked) == len(inst.plan) == 4
        plane = tmp_path / "inst" / "plane_01.csv"
        lines = plane.read_text().splitlines(keepends=True)
        row = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        lines[row] = "nan" + lines[row][lines[row].index(","):]
        plane.write_text("".join(lines))
        with pytest.raises(ValueError,
                           match=r"plane_01\.csv has non-finite entries"):
            load_instance(tmp_path / "inst")

    def test_plan_survives_save_load_exactly(self, tmp_path):
        inst = build_problem("zernike", 16, defocus=(-3.1234567, 3.0))
        save_instance(inst, tmp_path / "inst")
        back = load_instance(tmp_path / "inst")
        assert back.plan == inst.plan
        # the reloaded plan reproduces its own data: the LSI misfit is zero
        spec = ObjectiveSpec("LSI", 1e-14, back.plan, back.data, back.grid)
        assert DataMisfit(spec).value(back.truth) == 0.0

    def test_noisy_misfit_grows_as_snr_decreases(self, bench32):
        from phasediversity.objectives import objective_floor

        means = []
        for snr in (30.0, 20.0, 10.0):
            vals = []
            for seed in range(20):
                noisy = add_poisson_noise(bench32.data, snr=snr, seed=seed)
                spec = ObjectiveSpec("LS", 1e-14, bench32.plan, noisy,
                                     bench32.grid)
                vals.append(DataMisfit(spec).value(bench32.truth)
                            - objective_floor(spec))
            means.append(np.mean(vals))
        assert means[0] > 0
        assert means[0] < means[1] < means[2]

    def test_wavefront_from_phase(self):
        mask = np.array([[True, False], [False, True]])
        u = phase_to_wavefront(np.array([[0.25, 0.0], [0.0, 0.5]]), mask)
        assert u[0, 0] == pytest.approx(np.exp(1j * np.pi / 2))
        assert u[0, 1] == 0.0
        assert u[1, 1] == pytest.approx(np.exp(1j * np.pi))
