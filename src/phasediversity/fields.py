"""Complex/real grid primitives shared by every other module.

Fields are plain 2-D numpy arrays (complex128 for wavefront samples,
float64 for intensities and phases), stored row-major.  All operations
here are elementwise or reductions, so a stacked 1-D vector and a 2-D
grid behave identically.

The module also owns the on-disk formats and reads every input file:
``key = value`` text (:func:`key_value_lines` / :func:`read_key_values`,
with :func:`parse_bool`, :func:`parse_floats` and :func:`format_floats`)
for ``config.txt``, ``--config`` files and every CSV's header, and fields
as real-valued CSV or complex ``.npy``, written by :func:`atomic_open` and
read with the shape they must have by :func:`field_from_csv` or
:func:`load_field`.  Each reader names a file it rejects once.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = [
    "blocked_vdot",
    "aligned_rms",
    "require_same_shape",
    "require_intensity",
    "atomic_open",
    "key_value_lines",
    "read_key_values",
    "parse_bool",
    "parse_floats",
    "format_floats",
    "save_field",
    "load_field",
    "field_to_csv",
    "field_from_csv",
]


def require_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    """Raise ValueError when the two fields do not share a shape."""
    if np.shape(a) != np.shape(b):
        raise ValueError(f"field shape mismatch: {np.shape(a)} vs {np.shape(b)}")


def require_intensity(arr: np.ndarray, name="intensity field") -> np.ndarray:
    """Validate the intensity-role field ``name``: real valued, finite and
    elementwise >= 0."""
    arr = np.asarray(arr, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite entries")
    if arr.size and arr.min() < 0:
        raise ValueError(f"{name} has negative entries")
    return arr


# OpenBLAS runs a zdotc/ddot of at most 10000 elements on the calling thread
# and splits a longer one across its pool, whose workers then spin between
# calls.  Blocks of 8192 stay under that cutoff; at 2 x 8192 (n = 128) the
# in-order block sum is the same split a 2-thread pool makes.
_DOT_BLOCK = 8192


def blocked_vdot(a: np.ndarray, b: np.ndarray):
    """``np.vdot(a, b)``, i.e. sum(conj(a) * b) over the flattened arrays, as
    one ``np.vdot`` per block of at most ``_DOT_BLOCK`` elements, the block
    results added in order as numpy scalars.  Arrays that fit one block get
    ``np.vdot``'s own result."""
    if a.size <= _DOT_BLOCK:
        return np.vdot(a, b)
    a = a.ravel()
    b = b.ravel()
    total = np.vdot(a[:_DOT_BLOCK], b[:_DOT_BLOCK])
    for i in range(_DOT_BLOCK, a.size, _DOT_BLOCK):
        total += np.vdot(a[i:i + _DOT_BLOCK], b[i:i + _DOT_BLOCK])
    return total


def aligned_rms(u: np.ndarray, uhat: np.ndarray, *,
                u_norm: float | None = None) -> float:
    """Relative L2 error between ``u`` and ``uhat`` minimized over a global phase.

    The minimizing unit factor is c = <u, uhat>/|<u, uhat>|; when the inner
    product vanishes any unit c gives the same residual and c = 1 is used so
    the result is deterministic.  ``u_norm``, when given, is taken as
    ||u|| = sqrt(Re(u* u)) instead of computing it, for callers that
    compare many fields against one reference.

    Raises
    ------
    ValueError
        If ``u`` is identically zero (the relative error is undefined).
    """
    u = np.asarray(u, dtype=complex)
    uhat = np.asarray(uhat, dtype=complex)
    require_same_shape(u, uhat)
    nu = math.sqrt(blocked_vdot(u, u).real) if u_norm is None else u_norm
    if nu == 0.0:
        raise ValueError("aligned_rms reference field has zero norm")
    ip = blocked_vdot(u, uhat)
    c = ip / abs(ip) if ip != 0 else 1.0
    r = c * u
    r -= uhat
    return math.sqrt(blocked_vdot(r, r).real) / nu


# ---------------------------------------------------------------------------
# Serialization: binary container (.npy), real-valued CSV, key = value text.
# ---------------------------------------------------------------------------

@contextmanager
def _reading(path, mode: str = "r"):
    """``path`` opened for reading; a failure to open it or to parse it in
    the block is a ValueError ``cannot read PATH: cause``, naming it once."""
    try:
        with open(path, mode) as fh:
            yield fh
    except (OSError, EOFError, ValueError) as exc:
        cause = getattr(exc, "strerror", None) or exc
        raise ValueError(f"cannot read {path}: {cause}") from exc


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


_COMMENT = re.compile(r"(?:^|\s)#")


def read_key_values(path) -> dict:
    """The ``key = value`` lines of the text file ``path`` as a dict of
    stripped, otherwise verbatim strings, each line first cut at a ``#``
    that starts it or follows whitespace (``output_dir = runs/#1`` keeps its
    ``#``).  A file that cannot be read, or a line lacking a key and an
    ``=``, is a ValueError naming ``path`` (and the line number)."""
    mapping: dict = {}
    with _reading(path) as fh:
        for ln, raw in enumerate(fh.read().splitlines(), start=1):
            line = _COMMENT.split(raw, 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep or not key.strip():
                raise ValueError(f"line {ln}: expected 'key = value', got {line!r}")
            mapping[key.strip()] = value.strip()
    return mapping


def parse_bool(text: str) -> bool:
    """``true/1/yes/on`` or ``false/0/no/off`` in any case; else ValueError."""
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def parse_floats(text: str) -> tuple:
    """Comma-separated floats; empty items are skipped."""
    return tuple(float(t) for t in text.split(",") if t.strip())


def format_floats(values) -> str:
    """Comma-separated floats that :func:`parse_floats` reads back exactly
    (shortest round-trip repr, a trailing ``.0`` dropped: ``-3,3``)."""
    return ",".join(str(float(v)).removesuffix(".0") for v in values)


def save_field(path, arr: np.ndarray) -> None:
    """Write a field to the binary container used for fixtures (npy format)."""
    with atomic_open(path, "wb") as fh:
        np.save(fh, np.asarray(arr))


def load_field(path, shape) -> np.ndarray:
    """The finite numeric array of ``shape`` that :func:`save_field` wrote;
    any other file (zero bytes, an ``.npz``) is a ValueError naming ``path``."""
    with _reading(path, "rb") as fh:
        arr = np.load(fh)
    if not np.issubdtype(getattr(arr, "dtype", object), np.number):
        raise ValueError(f"{path} is not an array of numbers")
    if arr.shape != shape:
        raise ValueError(f"{path} has shape {arr.shape}, not {shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{path} has non-finite entries")
    return arr


def field_to_csv(path, arr: np.ndarray, header: dict | None = None) -> None:
    """Write a real-valued field as CSV, one line per grid row.

    Optional ``header`` entries are emitted as leading '# key = value'
    comment lines, which :func:`field_from_csv` skips.  The rows are the
    bytes ``np.savetxt(fmt="%.17g", delimiter=",")`` writes, formatted in
    one pass and written with the header in one call.
    """
    rows = np.atleast_2d(arr)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    # one row's floats at a time, and no second copy of the text
    text = "".join([key_value_lines(header or {}, "# ")]
                   + [line % tuple(row.tolist()) for row in rows])
    with atomic_open(path) as fh:
        fh.write(text)


def field_from_csv(path, shape) -> np.ndarray:
    """The float field of ``shape``, non-finite cells included, that
    :func:`field_to_csv` wrote; any other file is a ValueError naming it."""
    with _reading(path) as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # empty input, raised below
        arr = np.loadtxt(fh, delimiter=",", comments="#", ndmin=2)
    if arr.shape != shape:
        raise ValueError(f"{path} has shape {arr.shape}, not {shape}")
    return arr
