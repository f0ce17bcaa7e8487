"""Complex/real grid primitives shared by every other module.

Fields are plain 2-D numpy arrays (complex128 for wavefront samples,
float64 for intensities and phases), stored row-major.  All operations
here are elementwise or reductions, so a stacked 1-D vector and a 2-D
grid behave identically.

The module also owns the on-disk formats: one ``key = value`` codec
(:func:`key_value_lines` / :func:`parse_key_values`) for ``config.txt``
and every CSV's ``# key = value`` header, real-valued CSV fields through
numpy, complex fields as ``.npy``, all written by :func:`atomic_open`.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = [
    "aligned_rms",
    "require_same_shape",
    "require_intensity",
    "atomic_open",
    "key_value_lines",
    "parse_key_values",
    "save_field",
    "load_field",
    "field_to_csv",
    "field_from_csv",
]


def require_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    """Raise ValueError when the two fields do not share a shape."""
    if np.shape(a) != np.shape(b):
        raise ValueError(f"field shape mismatch: {np.shape(a)} vs {np.shape(b)}")


def require_intensity(arr: np.ndarray) -> np.ndarray:
    """Validate an intensity-role field: real valued and elementwise >= 0."""
    arr = np.asarray(arr, dtype=float)
    if arr.size and arr.min() < 0:
        raise ValueError("intensity field has negative entries")
    return arr


def aligned_rms(u: np.ndarray, uhat: np.ndarray) -> float:
    """Relative L2 error between ``u`` and ``uhat`` minimized over a global phase.

    The minimizing unit factor is c = <u, uhat>/|<u, uhat>|; when the inner
    product vanishes any unit c gives the same residual and c = 1 is used so
    the result is deterministic.

    Raises
    ------
    ValueError
        If ``u`` is identically zero (the relative error is undefined).
    """
    u = np.asarray(u, dtype=complex)
    uhat = np.asarray(uhat, dtype=complex)
    require_same_shape(u, uhat)
    nu = np.linalg.norm(u.ravel())
    if nu == 0.0:
        raise ValueError("aligned_rms reference field has zero norm")
    ip = np.vdot(u, uhat)
    c = ip / abs(ip) if ip != 0 else 1.0
    return float(np.linalg.norm((c * u - uhat).ravel()) / nu)


# ---------------------------------------------------------------------------
# Serialization: binary container (.npy), real-valued CSV, key = value text.
# ---------------------------------------------------------------------------

@contextmanager
def atomic_open(path, mode: str = "w"):
    """Write ``<path>.tmp`` and move it over ``path`` on success; on an error
    the temporary file is removed and ``path`` keeps its old contents."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def key_value_lines(mapping: dict, prefix: str = "") -> str:
    """One ``key = value`` line per entry, each preceded by ``prefix``
    (CSV headers pass ``"# "``)."""
    return "".join(f"{prefix}{key} = {value}\n" for key, value in mapping.items())


def parse_key_values(lines) -> dict:
    """``key = value`` lines as a dict of stripped, otherwise verbatim strings.

    Blank and ``#`` lines are skipped; any other line lacking a key and an
    ``=`` raises ValueError."""
    mapping: dict = {}
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"line {ln}: expected 'key = value', got {raw!r}")
        mapping[key.strip()] = value.strip()
    return mapping


def save_field(path, arr: np.ndarray) -> None:
    """Write a field to the binary container used for fixtures (npy format)."""
    with atomic_open(path, "wb") as fh:
        np.save(fh, np.asarray(arr))


def load_field(path) -> np.ndarray:
    return np.load(path)


def field_to_csv(path, arr: np.ndarray, header: dict | None = None) -> None:
    """Write a real-valued field as CSV, one line per grid row.

    Optional ``header`` entries are emitted as leading '# key = value'
    comment lines, which :func:`field_from_csv` skips.
    """
    with atomic_open(path) as fh:
        fh.write(key_value_lines(header or {}, "# "))
        np.savetxt(fh, np.atleast_2d(arr), fmt="%.17g", delimiter=",")


def field_from_csv(path) -> np.ndarray:
    """Read a float field written by :func:`field_to_csv`."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # empty input, raised below
        arr = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if not arr.size:
        raise ValueError(f"no data rows in {path}")
    return arr
