"""Complex/real grid primitives shared by every other module.

Fields are plain 2-D numpy arrays (complex128 for wavefront samples,
float64 for intensities and phases), stored row-major.  All operations
here are elementwise or reductions, so a stacked 1-D vector and a 2-D
grid behave identically.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "inner",
    "aligned_rms",
    "require_same_shape",
    "require_intensity",
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


def inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product sum(conj(a) * b); conjugation on the first argument."""
    a = np.asarray(a)
    b = np.asarray(b)
    require_same_shape(a, b)
    return complex(np.vdot(a, b))


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
# Serialization: binary container (.npy) and CSV fixtures.
# Complex CSV cells are written as "re+imi" with an explicit imaginary sign.
# ---------------------------------------------------------------------------

def save_field(path, arr: np.ndarray) -> None:
    """Write a field to the binary container used for fixtures (npy format)."""
    np.save(path, np.asarray(arr))


def load_field(path) -> np.ndarray:
    return np.load(path)


def _format_cell(v) -> str:
    if np.iscomplexobj(np.asarray(v)):
        v = complex(v)
        return f"{v.real:.17g}{v.imag:+.17g}i"
    return f"{float(v):.17g}"


def _parse_cell(token: str):
    token = token.strip()
    if token.endswith("i"):
        return complex(token[:-1] + "j")
    return float(token)


def field_to_csv(path, arr: np.ndarray, header: dict | None = None) -> None:
    """Write a field as CSV, one line per grid row.

    Optional ``header`` entries are emitted as leading '# key = value'
    comment lines, which :func:`field_from_csv` skips.
    """
    arr = np.atleast_2d(np.asarray(arr))
    with open(path, "w") as fh:
        for key, value in (header or {}).items():
            fh.write(f"# {key} = {value}\n")
        for row in arr:
            fh.write(",".join(_format_cell(v) for v in row) + "\n")


def field_from_csv(path) -> np.ndarray:
    """Read a field written by :func:`field_to_csv`.

    Returns a complex array when any cell carries an imaginary part marker,
    otherwise a float array.
    """
    rows = []
    is_complex = False
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = [c.strip() for c in line.split(",")]
            is_complex = is_complex or any(c.endswith("i") for c in cells)
            rows.append([_parse_cell(c) for c in cells])
    if not rows:
        raise ValueError(f"no data rows in {path}")
    dtype = complex if is_complex else float
    return np.array(rows, dtype=dtype)
