import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasediversity.fields import (
    aligned_rms,
    field_from_csv,
    field_to_csv,
    inner,
    load_field,
    save_field,
)

from conftest import random_complex


class TestInner:
    def test_unit_pair(self):
        assert inner(np.array([1, 1j]), np.array([1, 1j])) == pytest.approx(2)

    def test_orthogonal(self):
        assert inner(np.array([1, 0]), np.array([0, 1])) == 0

    def test_conjugates_first_argument(self):
        assert inner(np.array([1j, 0]), np.array([1, 0])) == pytest.approx(-1j)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            inner(np.zeros(3), np.zeros(4))


complex_vectors = st.lists(
    st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=1, max_size=6
).map(lambda ps: np.array([complex(a, b) for a, b in ps]))


@settings(deadline=None, max_examples=60)
@given(complex_vectors, complex_vectors)
def test_inner_conjugate_symmetry(a, b):
    if a.shape != b.shape:
        return
    assert inner(a, b) == pytest.approx(np.conj(inner(b, a)))


@settings(deadline=None, max_examples=60)
@given(complex_vectors)
def test_inner_self_nonnegative(a):
    v = inner(a, a)
    assert abs(v.imag) < 1e-12
    assert v.real >= 0


class TestAlignedRms:
    def test_global_phase_removed(self):
        rng = np.random.default_rng(0)
        u = random_complex(rng, (6, 6))
        for theta in (0.3, -2.0, np.pi):
            assert aligned_rms(u, np.exp(1j * theta) * u) < 1e-12

    def test_zero_estimate(self):
        u = random_complex(np.random.default_rng(1), (4, 4))
        assert aligned_rms(u, np.zeros_like(u)) == pytest.approx(1.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            aligned_rms(np.zeros(4, dtype=complex), np.ones(4, dtype=complex))

    def test_matches_dense_phase_sweep(self):
        # Independent oracle: evaluate the residual norm on a 1e6-point
        # grid of unit phases and take the minimum.
        rng = np.random.default_rng(42)
        u = random_complex(rng, 8)
        uhat = random_complex(rng, 8)
        thetas = np.linspace(-np.pi, np.pi, 1_000_000, endpoint=False)
        best = np.inf
        for chunk in np.array_split(thetas, 100):
            c = np.exp(1j * chunk)[:, None]
            res = np.linalg.norm(c * u[None, :] - uhat[None, :], axis=1)
            best = min(best, res.min())
        oracle = best / np.linalg.norm(u)
        assert aligned_rms(u, uhat) == pytest.approx(oracle, abs=1e-5)

    @settings(deadline=None, max_examples=25)
    @given(st.floats(-np.pi, np.pi))
    def test_phase_invariance_property(self, theta):
        rng = np.random.default_rng(7)
        u = random_complex(rng, 10)
        uhat = random_complex(rng, 10)
        assert aligned_rms(u, np.exp(1j * theta) * uhat) == pytest.approx(
            aligned_rms(u, uhat), abs=1e-12)

    def test_closed_form_attains_minimum(self):
        rng = np.random.default_rng(3)
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, 64))
        for _ in range(100):
            u = random_complex(rng, 12)
            uhat = random_complex(rng, 12)
            value = aligned_rms(u, uhat)
            nu = np.linalg.norm(u)
            sampled = min(np.linalg.norm(c * u - uhat) / nu for c in phases)
            assert value <= sampled + 1e-10


class TestSerialization:
    def test_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        arr = random_complex(rng, (5, 3))
        save_field(tmp_path / "f.npy", arr)
        assert np.array_equal(load_field(tmp_path / "f.npy"), arr)

    def test_csv_roundtrip_complex(self, tmp_path):
        rng = np.random.default_rng(6)
        arr = random_complex(rng, (4, 4)) * 1e-3
        field_to_csv(tmp_path / "f.csv", arr)
        back = field_from_csv(tmp_path / "f.csv")
        assert np.allclose(back, arr, rtol=0, atol=1e-18)

    def test_csv_roundtrip_real_with_header(self, tmp_path):
        arr = np.array([[0.0, 1.5], [-2.25, 3e-17]])
        field_to_csv(tmp_path / "g.csv", arr, header={"foo": "bar"})
        back = field_from_csv(tmp_path / "g.csv")
        assert back.dtype == float
        assert np.array_equal(back, arr)
        assert open(tmp_path / "g.csv").readline().startswith("# foo = bar")
