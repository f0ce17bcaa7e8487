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
diagonals used by the spectrum analysis module.

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
    PlaneSpec,
    PupilGrid,
    TransformCounter,
    _adjoint,
    _forward,
    _plane_phases,
    diversity_forward,
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
    """Per-plane observed intensities and the derived amplitudes sqrt(I)."""

    intensities: tuple

    def __init__(self, intensities: Sequence[np.ndarray]):
        ints = tuple(require_intensity(i) for i in intensities)
        if not ints:
            raise ValueError("a measurement set needs at least one plane")
        object.__setattr__(self, "intensities", ints)

    @property
    def amplitudes(self) -> tuple:
        return tuple(np.sqrt(i) for i in self.intensities)

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
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if len(self.data) != len(self.plan):
            raise ValueError(
                f"{len(self.data)} data planes for {len(self.plan)} plan planes")
        for i in self.data.intensities:
            require_same_shape(i, self.grid.mask)


def hessian_diagonals(model: str, u: np.ndarray, plane: PlaneSpec,
                      grid: PupilGrid, intensity: np.ndarray, eps: float,
                      counter: TransformCounter | None = None):
    """Per-pixel structured-Hessian coefficients (r real, c complex) of the
    plane's Hessian action H(h) = F*(r o F(h) + c o conj(F(h))) at ``u``;
    costs one transform."""
    Fu = diversity_forward(u, plane, grid, counter=counter)
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


def _plane_terms(model: str, Fu: np.ndarray, intensity: np.ndarray,
                 amplitude: np.ndarray, eps: float, work):
    """Plane misfit value and the real weight w such that the plane's
    gradient is F*(F(u) o w), computed in the three real arrays ``work``
    (w is one of them); K + eps^2 (and, for LS, its square root) is
    computed once and shared by both."""
    K, Ke, t = work
    np.square(np.abs(Fu, out=K), out=K)
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
        self._amplitudes = spec.data.amplitudes
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
        for phases, intensity, amplitude in zip(
                self._phases, spec.data.intensities, self._amplitudes):
            Fu = _forward(u, phases, self.counter, self._field)
            value, w = _plane_terms(spec.model, Fu, intensity, amplitude,
                                    spec.epsilon, self._work)
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
        cached = [(phases, *hessian_diagonals(spec.model, u, plane, spec.grid,
                                              intensity, spec.epsilon,
                                              self.counter))
                  for plane, phases, intensity in zip(
                      spec.plan, self._phases, spec.data.intensities)]
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

    The per-pixel terms depend on u only through K >= 0, so minimizing
    each term over K bounds the objective from below.  Used to anchor
    discrepancy-principle thresholds for the signed LS/MLP objectives.
    """
    eps = spec.epsilon
    e2 = eps * eps
    total = 0.0
    for intensity, amplitude in zip(spec.data.intensities, spec.data.amplitudes):
        if spec.model == "LSI":
            continue
        if spec.model == "LS":
            # min_K K - 2 M sqrt(K + e2): K* = M^2 - e2 when positive, else 0
            interior = -intensity - e2
            boundary = -2.0 * amplitude * eps
            total += float(np.sum(np.where(intensity >= e2, interior, boundary)))
        else:  # MLP: min_K K - I log(K + e2): K* = I - e2 when positive, else 0
            with np.errstate(divide="ignore", invalid="ignore"):
                interior = np.where(intensity > 0,
                                    intensity - e2 - intensity * np.log(
                                        np.where(intensity > 0, intensity, 1.0)),
                                    0.0)
            boundary = -intensity * np.log(e2)
            total += float(np.sum(np.where(intensity >= e2, interior, boundary)))
    return total

