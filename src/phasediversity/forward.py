"""Image-formation operator for phase-diversity measurements.

A measurement plane is its defocus d in waves, or ``None`` for the pupil
itself (pointwise amplitude, identity operator).  A defocus plane
multiplies by the unit-modulus quadratic phase exp(i 2 pi d (x^2 + y^2))
and takes a unitary 2-D DFT.
Both realizations are unitary, so the adjoint inverts the forward map
exactly and total intensity is conserved across planes.

Pupil coordinates are the centered lattice x_j = (j - n/2)/n in
[-1/2, 1/2); with that normalization the defocus parameter d is the
quadratic-phase depth in waves.  No fftshift is applied here: shifting
is a presentation concern left to plotting.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fields import require_same_shape

__all__ = [
    "DiversityPlan",
    "PupilGrid",
    "unitary_dft2",
    "diversity_forward",
    "diversity_adjoint",
]

@dataclass(frozen=True)
class DiversityPlan:
    """The measured planes: the pupil (plane 0) if ``amplitude_plane``,
    then one defocused image per ``defocus`` entry, in that order; at least
    one plane is required.  Each plane is its defocus in waves, ``None``
    for the pupil."""

    defocus: tuple
    amplitude_plane: bool

    def __post_init__(self):
        defocus = tuple(float(d) for d in self.defocus)
        if not np.isfinite(defocus).all():
            raise ValueError(f"plan.defocus must be finite, got {defocus}")
        if not isinstance(self.amplitude_plane, bool):
            raise TypeError(f"amplitude_plane must be a bool, "
                            f"got {self.amplitude_plane!r}")
        if not (defocus or self.amplitude_plane):
            raise ValueError("a diversity plan needs at least one plane")
        object.__setattr__(self, "defocus", defocus)

    @property
    def planes(self) -> tuple:
        return (None,) * self.amplitude_plane + self.defocus

    def __len__(self) -> int:
        return len(self.defocus) + self.amplitude_plane

    def __iter__(self):
        return iter(self.planes)


@dataclass(frozen=True)
class PupilGrid:
    """Square n x n grid with centered coordinates and a boolean pupil mask."""

    n: int
    mask: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("transform-bearing grids need n >= 2")
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != (self.n, self.n):
            raise ValueError(f"mask shape {mask.shape} does not match n={self.n}")
        object.__setattr__(self, "mask", mask)

    @staticmethod
    def coordinates(n: int):
        """Centered lattice x_j = (j - n/2)/n as a meshgrid (x, y)."""
        axis = (np.arange(n) - n / 2.0) / n
        return np.meshgrid(axis, axis, indexing="xy")

    @property
    def xy(self):
        return self.coordinates(self.n)


def unitary_dft2(f: np.ndarray, inverse: bool = False,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Unitary 2-D DFT (norm 1/sqrt(rows*cols) each way), so forward o inverse
    is the identity and Parseval holds exactly.

    With ``out`` (a complex array of ``f``'s shape, which may be ``f``
    itself) the result is written there and ``out`` is returned.
    """
    f = np.asarray(f, dtype=complex)
    # the shape is passed so numpy skips deriving it through its generic
    # array wrappers on every call, about a fifth of a transform at n=32;
    # the passes and bits are those of fft2.  ``np.fft.fftn`` is looked up
    # per call, not bound at import, so code that counts FFT calls can patch it
    if inverse:
        return np.fft.ifftn(f, f.shape[-2:], (-2, -1), norm="ortho", out=out)
    return np.fft.fftn(f, f.shape[-2:], (-2, -1), norm="ortho", out=out)


@functools.lru_cache(maxsize=16)
def _plane_phases(plane: float | None, n: int):
    """The plane's read-only (phase, conjugate) pair on the n x n lattice,
    ``None`` for the pupil plane; built once per (plane, n), since the
    phase exp(i 2 pi d (x^2+y^2)) does not depend on the pupil mask.
    ValueError for a non-finite defocus."""
    if plane is None:
        return None
    if not np.isfinite(plane):
        raise ValueError(f"defocus must be finite, got {plane}")
    x, y = PupilGrid.coordinates(n)
    phase = np.exp(2j * np.pi * plane * (x * x + y * y))
    conj = np.conj(phase)
    phase.flags.writeable = False
    conj.flags.writeable = False
    return phase, conj


def _forward(u: np.ndarray, phases, out: np.ndarray | None) -> np.ndarray:
    """Forward operator on a checked complex ``u`` for the plane whose
    :func:`_plane_phases` are ``phases``."""
    if phases is None:
        return u
    w = np.multiply(phases[0], u, out=out)
    return unitary_dft2(w, out=w)


def _adjoint(v: np.ndarray, phases, out: np.ndarray | None) -> np.ndarray:
    """Adjoint of :func:`_forward` on a checked complex ``v``."""
    if phases is None:
        return v
    w = unitary_dft2(v, inverse=True, out=out)
    return np.multiply(phases[1], w, out=w)


def diversity_forward(u: np.ndarray, plane: float | None,
                      grid: PupilGrid) -> np.ndarray:
    """Apply the plane's forward operator to the pupil field ``u``.

    The pupil plane (``None``) is the identity and returns ``u`` itself
    (as a complex array) without copying.
    """
    u = np.asarray(u, dtype=complex)
    require_same_shape(u, grid.mask)
    return _forward(u, _plane_phases(plane, grid.n), None)


def diversity_adjoint(v: np.ndarray, plane: float | None,
                      grid: PupilGrid) -> np.ndarray:
    """Adjoint (= inverse, by unitarity) of :func:`diversity_forward`.

    The pupil plane (``None``) returns ``v`` itself (as a complex array)
    without copying.
    """
    v = np.asarray(v, dtype=complex)
    require_same_shape(v, grid.mask)
    return _adjoint(v, _plane_phases(plane, grid.n), None)
