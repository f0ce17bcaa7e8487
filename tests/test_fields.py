import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasediversity.fields import (
    aligned_rms,
    atomic_open,
    field_from_csv,
    field_to_csv,
    key_value_lines,
    load_field,
    parse_key_values,
    save_field,
)

from conftest import random_complex


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

    def test_csv_roundtrip_real_with_header(self, tmp_path):
        arr = np.array([[0.0, 1.5], [-2.25, 3e-17]])
        field_to_csv(tmp_path / "g.csv", arr, header={"foo": "bar"})
        back = field_from_csv(tmp_path / "g.csv")
        assert back.dtype == float
        assert np.array_equal(back, arr)
        assert (tmp_path / "g.csv").read_text().startswith("# foo = bar")

    def test_csv_bytes_and_values(self, tmp_path):
        arr = np.array([[0.1, -0.0, 1e300], [np.nan, 2.0, 5e-324]])
        field_to_csv(tmp_path / "h.csv", arr, header={"a": 1})
        text = (tmp_path / "h.csv").read_text()
        assert text == ("# a = 1\n0.10000000000000001,-0,1.0000000000000001e+300\n"
                        "nan,2,4.9406564584124654e-324\n")
        back = field_from_csv(tmp_path / "h.csv")
        assert np.array_equal(back, arr, equal_nan=True)
        assert np.array_equal(np.signbit(back), np.signbit(arr))

    def test_csv_without_data_rows_rejected(self, tmp_path):
        (tmp_path / "e.csv").write_text("# a = 1\n")
        with pytest.raises(ValueError, match="no data rows"):
            field_from_csv(tmp_path / "e.csv")


# keys: no '=', no line breaks, no surrounding blanks, not starting with '#';
# values: no line breaks and no surrounding blanks, anything else verbatim
_TEXT = st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"))
_KEY = st.text(_TEXT, min_size=1).map(str.strip).filter(
    lambda k: k and "=" not in k and not k.startswith("#"))
_VALUE = st.text(_TEXT).map(str.strip)


class TestKeyValueCodec:
    @settings(deadline=None, max_examples=200)
    @given(st.dictionaries(_KEY, _VALUE))
    def test_roundtrip_property(self, mapping):
        assert parse_key_values(key_value_lines(mapping).splitlines()) == mapping

    def test_header_prefix_and_str_values(self):
        text = key_value_lines({"a": 1, "b": None, "c": True}, "# ")
        assert text == "# a = 1\n# b = None\n# c = True\n"
        assert parse_key_values(text.splitlines()) == {}
        assert parse_key_values(ln[1:] for ln in text.splitlines()) == {
            "a": "1", "b": "None", "c": "True"}

    def test_values_kept_verbatim(self):
        lines = ["", "# comment", "  out = runs/#1 = x  ", "e ="]
        assert parse_key_values(lines) == {"out": "runs/#1 = x", "e": ""}

    @pytest.mark.parametrize("line", ["no equals sign", "= value"])
    def test_line_without_key_rejected(self, line):
        with pytest.raises(ValueError, match="line 2"):
            parse_key_values(["a = 1", line])


class TestAtomicOpen:
    def _interrupted_rewrite(self, path, write):
        """Write ``path`` once, then again with ``write`` failing mid-way."""
        first = path.read_bytes()
        with pytest.raises(RuntimeError):
            write()
        assert path.read_bytes() == first
        assert list(path.parent.glob("*.tmp")) == []

    def test_failed_rewrite_keeps_old_file(self, tmp_path):
        path = tmp_path / "a.txt"
        with atomic_open(path) as fh:
            fh.write("first\n")

        def write():
            with atomic_open(path) as fh:
                fh.write("partial")
                raise RuntimeError("disk gone")

        self._interrupted_rewrite(path, write)

    def test_failed_csv_rewrite_keeps_old_field(self, tmp_path):
        path = tmp_path / "f.csv"
        field_to_csv(path, np.eye(3), header={"k": "v"})

        class Bad:
            def __float__(self):
                raise RuntimeError("unformattable cell")

        arr = np.array([[1.0, 2.0], [3.0, Bad()]], dtype=object)
        self._interrupted_rewrite(path, lambda: field_to_csv(path, arr))

    def test_failed_npy_rewrite_keeps_old_field(self, tmp_path):
        path = tmp_path / "f.npy"
        save_field(path, np.arange(4.0))

        class Bad:
            def __reduce__(self):
                raise RuntimeError("unpicklable")

        arr = np.array([1, Bad()], dtype=object)
        self._interrupted_rewrite(path, lambda: save_field(path, arr))
        assert np.array_equal(load_field(path), np.arange(4.0))
