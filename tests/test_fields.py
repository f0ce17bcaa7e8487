import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasediversity.fields import (
    _DOT_BLOCK,
    aligned_rms,
    atomic_open,
    blocked_vdot,
    field_from_csv,
    field_to_csv,
    format_floats,
    key_value_lines,
    load_field,
    parse_floats,
    read_key_values,
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

    def test_given_reference_norm_gives_the_same_value(self):
        rng = np.random.default_rng(9)
        for shape in ((5, 5), (128, 128)):  # one block, several blocks
            u = random_complex(rng, shape)
            uhat = u + 1e-3 * random_complex(rng, shape)
            u_norm = float(np.sqrt(blocked_vdot(u, u).real))
            assert (np.float64(aligned_rms(u, uhat, u_norm=u_norm)).tobytes()
                    == np.float64(aligned_rms(u, uhat)).tobytes())
        with pytest.raises(ValueError):
            aligned_rms(u, uhat, u_norm=0.0)

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


class TestBlockedVdot:
    @pytest.mark.parametrize("shape", [(1,), (37,), (16, 16), (90, 90),
                                       (_DOT_BLOCK,)])
    def test_one_block_is_np_vdot_bit_for_bit(self, shape):
        rng = np.random.default_rng(11)
        a, b = random_complex(rng, shape), random_complex(rng, shape)
        got = blocked_vdot(a, b)
        assert isinstance(got, np.complex128)
        assert got.tobytes() == np.vdot(a, b).tobytes()

    @pytest.mark.parametrize("shape", [(_DOT_BLOCK + 1,), (100, 100),
                                       (129, 129), (20001,)])
    def test_several_blocks_agree_with_np_vdot(self, shape):
        rng = np.random.default_rng(12)
        a, b = random_complex(rng, shape), random_complex(rng, shape)
        for x, y in ((a, b), (a, a)):
            got = blocked_vdot(x, y)
            assert isinstance(got, np.complex128)
            scale = np.sum(np.abs(x) * np.abs(y))
            assert abs(got - np.vdot(x, y)) <= 1e-14 * scale

    def test_aligned_rms_near_convergence_matches_numpy_phase(self):
        # The phase factor stays a numpy complex division: a Python complex
        # ip / abs(ip) moves c by an ulp, which is a large relative error in
        # a 1e-11 residual.
        rng = np.random.default_rng(13)
        u = random_complex(rng, (32, 32))
        for theta in (0.4, -1.9, 3.0):
            uhat = np.exp(1j * theta) * u + 1e-11 * random_complex(rng, u.shape)
            ip = np.vdot(u, uhat)
            c = ip / abs(ip)
            oracle = np.linalg.norm(c * u - uhat) / np.linalg.norm(u)
            assert aligned_rms(u, uhat) == pytest.approx(oracle, rel=1e-9, abs=0)


class TestSerialization:
    def test_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        arr = random_complex(rng, (5, 3))
        save_field(tmp_path / "f.npy", arr)
        assert np.array_equal(np.load(tmp_path / "f.npy"), arr)

    def test_csv_roundtrip_real_with_header(self, tmp_path):
        arr = np.array([[0.0, 1.5], [-2.25, 3e-17]])
        field_to_csv(tmp_path / "g.csv", arr, header={"foo": "bar"})
        back = field_from_csv(tmp_path / "g.csv", (2, 2))
        assert back.dtype == float
        assert np.array_equal(back, arr)
        assert (tmp_path / "g.csv").read_text().startswith("# foo = bar")

    def test_csv_bytes_and_values(self, tmp_path):
        arr = np.array([[0.1, -0.0, 1e300], [np.nan, 2.0, 5e-324]])
        field_to_csv(tmp_path / "h.csv", arr, header={"a": 1})
        text = (tmp_path / "h.csv").read_text()
        assert text == ("# a = 1\n0.10000000000000001,-0,1.0000000000000001e+300\n"
                        "nan,2,4.9406564584124654e-324\n")
        back = field_from_csv(tmp_path / "h.csv", (2, 3))
        assert np.array_equal(back, arr, equal_nan=True)
        assert np.array_equal(np.signbit(back), np.signbit(arr))

    @pytest.mark.parametrize("shape", [(37, 53), (53,)], ids=["2-d", "1-d"])
    def test_csv_rows_are_the_bytes_of_savetxt(self, tmp_path, shape):
        rng = np.random.default_rng(37)
        arr = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                    1.7976931348623157e308]
        arr.flat[rng.choice(arr.size, len(specials), replace=False)] = specials
        header = {"problem.n": 37, "plan.defocus": "-3,3"}
        field_to_csv(tmp_path / "f.csv", arr, header=header)
        rows = io.StringIO()
        np.savetxt(rows, np.atleast_2d(arr), fmt="%.17g", delimiter=",")
        assert (tmp_path / "f.csv").read_bytes() == \
            (key_value_lines(header, "# ") + rows.getvalue()).encode()

    def test_csv_without_data_rows_rejected(self, tmp_path):
        (tmp_path / "e.csv").write_text("# a = 1\n")
        with pytest.raises(ValueError, match=r"e\.csv has shape"):
            field_from_csv(tmp_path / "e.csv", (1, 1))


# keys: no '=', no line breaks, no surrounding blanks; keys and values: no
# line breaks, no surrounding blanks and no comment ('#' at the start or
# after whitespace), anything else verbatim
_TEXT = st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"))
_COMMENT = re.compile(r"(?:^|\s)#")
_KEY = st.text(_TEXT, min_size=1).map(str.strip).filter(
    lambda k: k and "=" not in k and not _COMMENT.search(k))
_VALUE = st.text(_TEXT).map(str.strip).filter(
    lambda v: not _COMMENT.search(v))


class TestKeyValueCodec:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("kv") / "config.txt"

    @settings(deadline=None, max_examples=200)
    @given(mapping=st.dictionaries(_KEY, _VALUE))
    def test_roundtrip_property(self, path, mapping):
        path.write_text(key_value_lines(mapping))
        assert read_key_values(path) == mapping

    def test_header_prefix_and_str_values(self, path):
        text = key_value_lines({"a": 1, "b": None, "c": True}, "# ")
        assert text == "# a = 1\n# b = None\n# c = True\n"
        path.write_text(text)
        assert read_key_values(path) == {}
        path.write_text(text.replace("# ", ""))
        assert read_key_values(path) == {"a": "1", "b": "None", "c": "True"}

    def test_values_kept_verbatim(self, path):
        path.write_text("\n# comment\n  out = runs/#1 = x  \ne =\n"
                        "n = 8\t# tab before the comment\n")
        assert read_key_values(path) == {"out": "runs/#1 = x", "e": "", "n": "8"}

    @pytest.mark.parametrize("line", ["no equals sign", "= value"])
    def test_line_without_key_rejected(self, path, line):
        path.write_text(f"a = 1\n{line}  # note\n")
        with pytest.raises(ValueError) as info:
            read_key_values(path)
        assert str(info.value) == (f"cannot read {path}: line 2: "
                                   f"expected 'key = value', got {line!r}")


class TestReadFailures:
    """Every reader reports a file it cannot read as ``cannot read PATH:
    cause``, the path once."""

    READERS = {"key_values": read_key_values,
               "csv": lambda p: field_from_csv(p, (2, 2)),
               "npy": lambda p: load_field(p, (2, 2))}

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("case, cause", [
        ("missing", "No such file or directory"),
        ("directory", "Is a directory"),
    ])
    def test_unreadable_file_named_once(self, tmp_path, reader, case, cause):
        path = tmp_path / "input"
        if case == "directory":
            path.mkdir()
        with pytest.raises(ValueError) as info:
            self.READERS[reader](path)
        assert str(info.value) == f"cannot read {path}: {cause}"

    @pytest.mark.parametrize("reader", ["key_values", "csv"])
    def test_undecodable_text_named_once(self, tmp_path, reader):
        path = tmp_path / "input"
        path.write_bytes(b"\xff\xfe = 1\n")
        with pytest.raises(ValueError) as info:
            self.READERS[reader](path)
        assert str(info.value).startswith(f"cannot read {path}: ")
        assert str(info.value).count(str(path)) == 1

    def test_unparsable_csv_cell_named_once(self, tmp_path):
        path = tmp_path / "plane.csv"
        path.write_text("# a = 1\n1,2\nx,4\n")
        with pytest.raises(ValueError) as info:
            field_from_csv(path, (2, 2))
        assert str(info.value).startswith(f"cannot read {path}: could not convert")
        assert str(info.value).count(str(path)) == 1


class TestFloatList:
    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.floats(allow_nan=False), max_size=6))
    def test_roundtrip_is_exact(self, values):
        assert parse_floats(format_floats(values)) == tuple(values)

    def test_whole_numbers_keep_their_short_form(self):
        assert format_floats((-3.0, 3.0)) == "-3,3"
        assert format_floats((-3.1234567, 0.5)) == "-3.1234567,0.5"


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
        assert np.array_equal(np.load(path), np.arange(4.0))
