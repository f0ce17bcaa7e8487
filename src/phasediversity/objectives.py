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

The eps^2 perturbation is added to intensity inside log and sqrt (not
eps to amplitude); the first LS term keeps K unperturbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fields import require_intensity, require_same_shape
from .forward import (
    DiversityPlan,
    PupilGrid,
    TransformCounter,
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


@dataclass(frozen=True)
class MeasurementSet:
    """Per-plane observed intensities and the amplitudes sqrt(I), computed
    once when the set is built."""

    intensities: tuple
    amplitudes: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, intensities: Sequence[np.ndarray]):
        ints = tuple(require_intensity(i) for i in intensities)
        if not ints:
            raise ValueError("a measurement set needs at least one plane")
        object.__setattr__(self, "intensities", ints)
        object.__setattr__(self, "amplitudes", tuple(np.sqrt(i) for i in ints))

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
        eps = float(self.epsilon)
        if not (eps > 0 and 0 < eps * eps < np.inf):
            raise ValueError("epsilon must be a number > 0 whose square is "
                             f"finite and > 0, got {self.epsilon}")
        if len(self.data) != len(self.plan):
            raise ValueError(
                f"{len(self.data)} data planes for {len(self.plan)} plan planes")
        for i in self.data.intensities:
            require_same_shape(i, self.grid.mask)


def hessian_diagonals(model: str, Fu: np.ndarray, intensity: np.ndarray,
                      eps: float):
    """Per-pixel structured-Hessian coefficients (r real, c complex) of a
    plane's Hessian action H(h) = F*(r o F(h) + c o conj(F(h))), from the
    plane's transform ``Fu`` = F(u) at the point; pointwise, no transform."""
    K = np.abs(Fu) ** 2
    intensity = np.asarray(intensity, dtype=float)
    Ke = K + eps * eps
    if model == "MLP":
        r = 1.0 - (eps * eps) * intensity / Ke**2
        c = intensity * Fu**2 / Ke**2
    elif model == "LS":
        amplitude = np.sqrt(intensity)
        r = 1.0 - (amplitude / (2.0 * np.sqrt(Ke))) * ((K + 2.0 * eps * eps) / Ke)
        c = Fu**2 * amplitude / (2.0 * Ke**1.5)
    else:  # LSI
        r = 2.0 * K - intensity
        c = Fu**2
    return np.asarray(r, dtype=float), np.asarray(c, dtype=complex)


def _plane_terms(model: str, K: np.ndarray, intensity: np.ndarray,
                 amplitude: np.ndarray, eps: float, work):
    """Plane misfit value at the predicted intensity K = |F(u)|^2 and the
    real weight w such that the plane's gradient is F*(F(u) o w).  w is
    written over ``K``, and the two real arrays ``work`` hold K + eps^2 (for
    LS, its square root) and the terms, computed once and shared by both."""
    Ke, t = work
    if model == "LSI":
        residual = np.subtract(K, intensity, out=K)
        return float(0.5 * np.sum(np.square(residual, out=t))), residual
    np.add(K, eps * eps, out=Ke)
    if model == "MLP":
        np.multiply(intensity, np.log(Ke, out=t), out=t)
        value = float(np.sum(np.subtract(K, t, out=t)))
        w = np.divide(intensity, Ke, out=K)
    else:  # LS
        root = np.sqrt(Ke, out=Ke)
        np.multiply(np.multiply(2.0, root, out=t), amplitude, out=t)
        value = float(np.sum(np.subtract(K, t, out=t)))
        w = np.divide(amplitude, root, out=K)
    return value, np.subtract(1.0, w, out=w)


class DataMisfit:
    """Evaluator bundling value, gradient and Hessian action with FFT counting.

    Plane terms are accumulated in plan order so results are deterministic.
    Each plane's defocus phases are looked up once per instance and ``u`` is
    checked once per call, then the plane operators run on them directly.
    Value and gradient run in work arrays allocated once per instance, so an
    instance serves one caller at a time; the gradient it returns is a fresh
    array that later evaluations leave alone.
    """

    def __init__(self, spec: ObjectiveSpec):
        self.spec = spec
        self.counter = TransformCounter()
        self._phases = [_plane_phases(p, spec.grid) for p in spec.plan]
        shape = spec.grid.mask.shape
        self._field = np.empty(shape, dtype=complex)
        self._work = tuple(np.empty(shape) for _ in range(3))

    @property
    def fft_calls(self) -> int:
        return self.counter.count

    def _checked(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=complex)
        require_same_shape(u, self.spec.grid.mask)
        return u

    def _evaluate(self, u: np.ndarray, gradient: bool):
        """Misfit at ``u`` and, if asked for, its gradient (else ``None``)."""
        spec = self.spec
        u = self._checked(u)
        grad = np.zeros_like(u) if gradient else None
        total = 0.0
        K, *work = self._work
        for phases, intensity, amplitude in zip(
                self._phases, spec.data.intensities, spec.data.amplitudes):
            Fu = _forward(u, phases, self.counter, self._field)
            np.square(np.abs(Fu, out=K), out=K)
            value, w = _plane_terms(spec.model, K, intensity, amplitude,
                                    spec.epsilon, work)
            total += value
            if gradient:
                v = np.multiply(Fu, w, out=self._field)
                grad += _adjoint(v, phases, self.counter, v)
        return total, grad

    def value(self, u: np.ndarray) -> float:
        return self._evaluate(u, False)[0]

    def value_and_gradient(self, u: np.ndarray):
        return self._evaluate(u, True)

    def hessian_operator(self, u: np.ndarray):
        """Hessian action h -> H h at a fixed ``u`` (real-linear in h); the
        per-plane coefficients cost one transform per plane to build, and
        each application (one inner CG step) two.  The work arrays are
        allocated once per build; each application returns a fresh array."""
        spec = self.spec
        u = self._checked(u)
        cached = [(phases, *hessian_diagonals(
                      spec.model, _forward(u, phases, self.counter, self._field),
                      intensity, spec.epsilon))
                  for phases, intensity in zip(self._phases,
                                               spec.data.intensities)]
        Fh_work, rFh, cFh = (np.empty(spec.grid.mask.shape, dtype=complex)
                             for _ in range(3))

        def apply(h: np.ndarray) -> np.ndarray:
            h = self._checked(h)
            out = np.zeros_like(h)
            for phases, r, c in cached:
                # r * Fh + c * conj(Fh), in that order
                Fh = _forward(h, phases, self.counter, Fh_work)
                np.multiply(r, Fh, out=rFh)
                np.multiply(c, np.conj(Fh, out=cFh), out=cFh)
                v = np.add(rFh, cFh, out=rFh)
                out += _adjoint(v, phases, self.counter, v)
            return out

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
    e2 = spec.epsilon * spec.epsilon
    total = 0.0
    for intensity, amplitude in zip(spec.data.intensities, spec.data.amplitudes):
        K = np.maximum(intensity - e2, 0.0)
        work = (np.empty_like(K), np.empty_like(K))
        total += _plane_terms(spec.model, K, intensity, amplitude,
                              spec.epsilon, work)[0]
    return total
