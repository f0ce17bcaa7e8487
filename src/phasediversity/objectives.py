"""Data-misfit models for phase-diversity retrieval.

Three misfits between measured intensities I_m and the prediction
K_m(u) = |F_m(u)|^2, summed over planes with equal weights:

* ``MLP`` -- Poisson negative log-likelihood,
  sum K - I log(K + eps^2).
* ``LS``  -- least squares on amplitudes M = sqrt(I),
  sum K - 2 sqrt(K + eps^2) M.
* ``LSI`` -- least squares on intensities, 1/2 ||K - I||^2.

Gradients follow the conjugate-coordinate convention: the returned g
satisfies f(u + h) ~ f(u) + 2 Re<h, g>.  The Hessian is applied
matrix-free as H(h) = F*(r o F(h)) + F*(c o conj(F(h))) with real
coefficient r and complex coefficient c per plane; the same (r, c)
vectors, from :func:`hessian_diagonals`, are the structured-Hessian
diagonals used by the spectrum analysis module.  Each model's per-pixel
terms are written once, as functions of K, in :func:`_plane_terms`;
:func:`objective_floor` evaluates them at the K that minimizes each term.

A :class:`MeasurementSet` holds the measured data in one form: two
read-only ``(P, n, n)`` stacks, the intensities I and the amplitudes
M = sqrt(I), row m being plane m; every misfit quantity reads M from it.
:class:`DataMisfit` evaluates the P planes as one stack: each defocus
plane's transform is one FFT call that fills one row, every pointwise step
is one numpy call on the whole stack, and plane values and adjoints are
added in plan order, so results equal a plane-by-plane evaluation bit for
bit.  Its work arrays take P times the memory of a plane.

The eps^2 perturbation is added to intensity inside log and sqrt (not
eps to amplitude); the first LS term keeps K unperturbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import require_intensity, require_same_shape
from .forward import (
    DiversityPlan,
    PupilGrid,
    _adjoint,
    _forward,
    _plane_phases,
)

__all__ = [
    "MODELS",
    "MeasurementSet",
    "ObjectiveSpec",
    "DataMisfit",
    "objective_floor",
    "hessian_diagonals",
]

MODELS = ("MLP", "LS", "LSI")

DEFAULT_EPSILON = 1e-14


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Measured data of P planes as two read-only ``(P, n, n)`` stacks, the
    ``intensities`` I and the ``amplitudes`` sqrt(I), computed once when the
    set is built; row m is plane m.  Two sets compare by identity.
    ``names[m]``, when given, names plane m in the error that rejects it."""

    intensities: np.ndarray
    amplitudes: np.ndarray

    def __init__(self, intensities: Sequence[np.ndarray], names: Sequence = ()):
        names = names or ["intensity field"] * len(intensities)
        ints = [require_intensity(i, name)
                for i, name in zip(intensities, names, strict=True)]
        if not ints:
            raise ValueError("a measurement set needs at least one plane")
        for i in ints[1:]:
            require_same_shape(ints[0], i)
        stack = np.stack(ints)
        for name, array in (("intensities", stack), ("amplitudes", np.sqrt(stack))):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return len(self.intensities)


@dataclass(frozen=True)
class ObjectiveSpec:
    """Model selector plus everything needed to evaluate the misfit."""

    model: str
    epsilon: float
    plan: DiversityPlan
    data: MeasurementSet
    grid: PupilGrid

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown misfit model {self.model!r}")
        # the MLP and LS Hessian coefficients divide by (K + eps^2)^2 and
        # (K + eps^2)^1.5 where K may be 0, so eps^4 must be a normal float
        eps = float(self.epsilon)
        eps2 = eps * eps
        if not (eps > 0 and eps2 < np.inf and eps2 * eps2 >= np.finfo(float).tiny):
            raise ValueError("objective.epsilon must be > 0 with a finite square "
                             "and a normal fourth power (about >= 1.22e-77), "
                             f"got {self.epsilon}")
        if len(self.data) != len(self.plan):
            raise ValueError(
                f"{len(self.data)} data planes for {len(self.plan)} plan planes")
        require_same_shape(self.data.intensities[0], self.grid.mask)


def hessian_diagonals(model: str, Fu: np.ndarray, intensity: np.ndarray,
                      amplitude: np.ndarray, eps: float):
    """Per-pixel structured-Hessian coefficients (r real, c complex) of a
    plane's Hessian action H(h) = F*(r o F(h) + c o conj(F(h))), from the
    plane's transform ``Fu`` = F(u) at the point and its measured intensity
    I and amplitude M = sqrt(I); pointwise, no transform."""
    K = np.abs(Fu) ** 2
    Ke = K + eps * eps
    if model == "MLP":
        r = 1.0 - (eps * eps) * intensity / Ke**2
        c = intensity * Fu**2 / Ke**2
    elif model == "LS":
        r = 1.0 - (amplitude / (2.0 * np.sqrt(Ke))) * ((K + 2.0 * eps * eps) / Ke)
        c = Fu**2 * amplitude / (2.0 * Ke**1.5)
    else:  # LSI
        r = 2.0 * K - intensity
        c = Fu**2
    return r, c


def _plane_terms(model: str, K: np.ndarray, intensity: np.ndarray,
                 amplitude: np.ndarray, eps: float, work):
    """Misfit total at the predicted intensities K = |F(u)|^2 of a
    ``(P, n, n)`` stack and the real weight w such that plane m's gradient is
    F_m*(F_m(u) o w[m]).  w is written over ``K``, and the two real stacks
    ``work`` hold K + eps^2 (for LS, its square root) and the terms, computed
    once and shared by both."""
    Ke, t = work
    if model == "LSI":
        residual = np.subtract(K, intensity, out=K)
        return _plan_total(np.square(residual, out=t), 0.5), residual
    np.add(K, eps * eps, out=Ke)
    if model == "MLP":
        np.multiply(intensity, np.log(Ke, out=t), out=t)
        total = _plan_total(np.subtract(K, t, out=t))
        w = np.divide(intensity, Ke, out=K)
    else:  # LS
        root = np.sqrt(Ke, out=Ke)
        np.multiply(np.multiply(2.0, root, out=t), amplitude, out=t)
        total = _plan_total(np.subtract(K, t, out=t))
        w = np.divide(amplitude, root, out=K)
    return total, np.subtract(1.0, w, out=w)


def _plan_total(terms: np.ndarray, scale: float = 1.0) -> float:
    """Each plane's terms of a contiguous stack summed as ``np.sum`` sums
    that plane alone (one reduction for all rows), times ``scale``, and the
    plane values added in plan order as Python floats."""
    total = 0.0
    for value in terms.reshape(len(terms), -1).sum(axis=1).tolist():
        total += scale * value
    return total


class DataMisfit:
    """Evaluator bundling value, gradient and Hessian action with FFT counting.

    All P planes are evaluated as one ``(P, n, n)`` stack: row m holds
    plane m's transform (one FFT for a defocus plane, a copy of ``u`` for
    the amplitude plane), so each stack transform and each adjoint sum adds
    the plan's defocus-plane count to ``fft_calls``.  The work arrays, one
    complex and three real stacks, are allocated once per instance, so an
    instance serves one caller at a time; the gradient it returns is a fresh
    array that later evaluations leave alone.
    """

    def __init__(self, spec: ObjectiveSpec):
        self.spec = spec
        self.fft_calls = 0
        self._phases = [_plane_phases(p, spec.grid.n) for p in spec.plan]
        self._defocus_planes = len(spec.plan.defocus)
        shape = (len(self._phases), *spec.grid.mask.shape)
        self._field = np.empty(shape, dtype=complex)
        self._work = tuple(np.empty(shape) for _ in range(3))

    def _checked(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=complex)
        require_same_shape(u, self.spec.grid.mask)
        return u

    def _transform(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """F_m(u) of every plane m into row m of the stack ``out``."""
        self.fft_calls += self._defocus_planes
        for phases, row in zip(self._phases, out):
            if phases is None:
                np.copyto(row, u)
            else:
                _forward(u, phases, row)
        return out

    def _adjoint_sum(self, v: np.ndarray) -> np.ndarray:
        """sum_m F_m*(v[m]) in plan order, each adjoint written over its row."""
        self.fft_calls += self._defocus_planes
        total = np.zeros(v.shape[1:], dtype=complex)
        for phases, row in zip(self._phases, v):
            total += _adjoint(row, phases, row)
        return total

    def _evaluate(self, u: np.ndarray, gradient: bool):
        """Misfit at ``u`` and, if asked for, its gradient (else ``None``)."""
        spec = self.spec
        u = self._checked(u)
        Fu = self._transform(u, self._field)
        K, *work = self._work
        np.square(np.abs(Fu, out=K), out=K)
        value, w = _plane_terms(spec.model, K, spec.data.intensities,
                                spec.data.amplitudes, spec.epsilon, work)
        if not gradient:
            return value, None
        return value, self._adjoint_sum(np.multiply(Fu, w, out=Fu))

    def value(self, u: np.ndarray) -> float:
        return self._evaluate(u, False)[0]

    def value_and_gradient(self, u: np.ndarray):
        return self._evaluate(u, True)

    def hessian_operator(self, u: np.ndarray):
        """Hessian action h -> H h at a fixed ``u`` (real-linear in h); the
        coefficient stacks cost one transform per plane to build, and each
        application (one inner CG step) two.  The work stacks are allocated
        once per build; each application returns a fresh array."""
        spec = self.spec
        r, c = hessian_diagonals(spec.model,
                                 self._transform(self._checked(u), self._field),
                                 spec.data.intensities, spec.data.amplitudes,
                                 spec.epsilon)
        Fh_work, rFh, cFh = (np.empty_like(c) for _ in range(3))

        def apply(h: np.ndarray) -> np.ndarray:
            h = self._checked(h)
            # r * Fh + c * conj(Fh), in that order
            Fh = self._transform(h, Fh_work)
            np.multiply(r, Fh, out=rFh)
            np.multiply(c, np.conj(Fh, out=cFh), out=cFh)
            return self._adjoint_sum(np.add(rFh, cFh, out=rFh))

        return apply


def objective_floor(spec: ObjectiveSpec) -> float:
    """Analytic lower bound of the misfit over all fields.

    The per-pixel terms depend on u only through K >= 0, and each is
    smallest at K* = max(I - eps^2, 0), so the plane terms at K* bound the
    objective from below (LSI's vanish there, at K* = I).  Used to anchor
    discrepancy-principle thresholds for the signed LS/MLP objectives.
    """
    if spec.model == "LSI":
        return 0.0
    data = spec.data
    K = np.maximum(data.intensities - spec.epsilon * spec.epsilon, 0.0)
    work = (np.empty_like(K), np.empty_like(K))
    return _plane_terms(spec.model, K, data.intensities, data.amplitudes,
                        spec.epsilon, work)[0]
