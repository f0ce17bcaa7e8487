"""Explicit complex-Hessian assembly, closed-form spectra and norm bounds.

For a single measurement plane each misfit model has the structured
Hessian

    H = [[U^H diag(r) U,        U^H diag(c) conj(U)],
         [U^T diag(conj(c)) U,  U^T diag(r) conj(U)]]

acting on (h; conj(h)), where U is the plane's unitary operator and
(r, c) are the same per-pixel coefficients that drive the matrix-free
Hessian action.  A block-diagonal unitary similarity reduces any such
matrix to [[diag(r), diag(c)], [diag(conj(c)), diag(r)]], so the
spectrum is exactly {r_i + |c_i|, r_i - |c_i|} regardless of U.

Dense assembly is a verification tool, limited to grids of at most
``DENSE_PIXEL_LIMIT`` pixels; solvers never touch it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import DiversityPlan, PlaneSpec, PupilGrid, diversity_forward
from .objectives import MeasurementSet, hvp_coefficients

__all__ = [
    "DENSE_PIXEL_LIMIT",
    "SpectrumReport",
    "hessian_diagonals",
    "structured_eigenvalues",
    "closed_form_spectrum",
    "plane_matrix",
    "dense_hessian",
    "ClusteringReport",
    "clustering_comparison",
    "lipschitz_bound",
]

DENSE_PIXEL_LIMIT = 64


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted eigenvalue multiset with the extremes used in comparisons."""

    model: str
    eigenvalues: np.ndarray
    lambda_min: float
    lambda_max: float
    condition_ratio: float
    clustering_width: float

    @classmethod
    def from_eigenvalues(cls, values: np.ndarray, model: str = "") -> "SpectrumReport":
        values = np.sort(np.asarray(values, dtype=float).ravel())
        if values.size == 0:
            raise ValueError("empty spectrum")
        positive = values[values > 0]
        cond = float(values[-1] / positive[0]) if positive.size else float("nan")
        return cls(model, values, float(values[0]), float(values[-1]),
                   cond, float(values[-1] - values[0]))

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "lambda_min": self.lambda_min,
            "lambda_max": self.lambda_max,
            "condition_ratio": self.condition_ratio,
            "clustering_width": self.clustering_width,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SpectrumReport":
        return cls(d["model"], np.asarray(d["eigenvalues"], dtype=float),
                   d["lambda_min"], d["lambda_max"], d["condition_ratio"],
                   d["clustering_width"])


def hessian_diagonals(model: str, u: np.ndarray, plane: PlaneSpec,
                      grid: PupilGrid, intensity: np.ndarray, eps: float):
    """Per-pixel structured-Hessian coefficients (r real, c complex).

    These are the coefficients of the plane's Hessian action
    H(h) = F*(r o F(h) + c o conj(F(h))).
    """
    Fu = diversity_forward(u, plane, grid)
    K = np.abs(Fu) ** 2
    intensity = np.asarray(intensity, dtype=float)
    r, c = hvp_coefficients(model, Fu, K, intensity, np.sqrt(intensity), eps)
    return np.asarray(r, dtype=float), np.asarray(c, dtype=complex)


def structured_eigenvalues(r: np.ndarray, c: np.ndarray,
                           model: str = "") -> SpectrumReport:
    """Spectrum {r_i + |c_i|, r_i - |c_i|} of the structured Hessian."""
    r = np.asarray(r, dtype=float).ravel()
    ac = np.abs(np.asarray(c)).ravel()
    if r.shape != ac.shape:
        raise ValueError("r and c must share a shape")
    return SpectrumReport.from_eigenvalues(np.concatenate([r + ac, r - ac]), model)


def closed_form_spectrum(model: str, u: np.ndarray, plane: PlaneSpec,
                         grid: PupilGrid, intensity: np.ndarray,
                         eps: float) -> SpectrumReport:
    """Eigenvalues from the per-pixel closed forms.

    MLP: 1 + (K - eps^2) I / (K + eps^2)^2  and  1 - I / (K + eps^2);
    LS:  1 - eps^2 M / (K + eps^2)^(3/2)    and  1 - M / sqrt(K + eps^2);
    LSI (derived by the same r +/- |c| rule): 3K - I and K - I.
    """
    Fu = diversity_forward(u, plane, grid)
    K = np.abs(Fu.ravel()) ** 2
    I = np.asarray(intensity, dtype=float).ravel()
    e2 = eps * eps
    Ke = K + e2
    if model == "MLP":
        lam = np.concatenate([1.0 + (K - e2) * I / Ke**2, 1.0 - I / Ke])
    elif model == "LS":
        M = np.sqrt(I)
        lam = np.concatenate([1.0 - e2 * M / Ke**1.5, 1.0 - M / np.sqrt(Ke)])
    elif model == "LSI":
        lam = np.concatenate([3.0 * K - I, K - I])
    else:
        raise ValueError(f"unknown misfit model {model!r}")
    return SpectrumReport.from_eigenvalues(lam, model)


def _check_dense_size(npix: int) -> None:
    if npix > DENSE_PIXEL_LIMIT:
        raise ValueError(
            f"dense Hessian assembly is limited to {DENSE_PIXEL_LIMIT} pixels "
            f"(got {npix}); it is a verification tool, not a solver path")


def plane_matrix(plane: PlaneSpec, grid: PupilGrid) -> np.ndarray:
    """Dense matrix of the plane's unitary operator (row-major pixel order)."""
    npix = grid.n * grid.n
    _check_dense_size(npix)
    U = np.zeros((npix, npix), dtype=complex)
    for j in range(npix):
        e = np.zeros(npix, dtype=complex)
        e[j] = 1.0
        U[:, j] = diversity_forward(e.reshape(grid.n, grid.n), plane, grid).ravel()
    return U


def dense_hessian(r: np.ndarray, c: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Assemble the 2N x 2N complex Hessian from (r, c) and the plane matrix.

    The top-left block is U^H diag(r) U and the top-right block
    U^H diag(c) conj(U); applying the result to (h; conj(h)) reproduces
    the matrix-free Hessian action in the top half.
    """
    r = np.asarray(r, dtype=float).ravel()
    c = np.asarray(c, dtype=complex).ravel()
    _check_dense_size(r.size)
    Uh = U.conj().T
    A = (Uh * r) @ U
    B = (Uh * c) @ U.conj()
    return np.block([[A, B], [B.conj().T, A.conj()]])


@dataclass(frozen=True)
class ClusteringReport:
    """Scaled-LS vs Poisson-model spectrum extremes at one point."""

    mlp_max: float
    mlp_min: float
    ls_max_times2: float
    ls_min_times2: float
    ls_interval_contained: bool
    margin_pixel_exists: bool

    def to_dict(self) -> dict:
        return {
            "mlp_max": self.mlp_max,
            "mlp_min": self.mlp_min,
            "ls_max_times2": self.ls_max_times2,
            "ls_min_times2": self.ls_min_times2,
            "ls_interval_contained": self.ls_interval_contained,
            "margin_pixel_exists": self.margin_pixel_exists,
        }


def clustering_comparison(u: np.ndarray, plane: PlaneSpec, grid: PupilGrid,
                          intensity: np.ndarray, eps: float,
                          margin: float | None = None) -> ClusteringReport:
    """Compare the LS spectrum (scaled by two) against the Poisson-model one.

    Guaranteed facts are enforced: 2 max(LS) never exceeds 2, and the
    Poisson-model maximum exceeds 2 whenever some pixel has
    K_i >= eps and I_i - K_i >= margin with margin > eps (the extra
    K_i >= eps guard makes the implication sound for dark pixels).
    """
    if margin is None:
        margin = max(1e-6, 10.0 * eps)
    if not margin > eps:
        raise ValueError("margin must exceed eps")
    mlp = closed_form_spectrum("MLP", u, plane, grid, intensity, eps)
    ls = closed_form_spectrum("LS", u, plane, grid, intensity, eps)
    Fu = diversity_forward(u, plane, grid)
    K = np.abs(Fu.ravel()) ** 2
    I = np.asarray(intensity, dtype=float).ravel()
    margin_pixel = bool(np.any((K >= eps) & (I - K >= margin)))

    ls_max2 = 2.0 * ls.lambda_max
    ls_min2 = 2.0 * ls.lambda_min
    if ls_max2 > 2.0 + 1e-12:
        raise AssertionError(f"scaled LS maximum {ls_max2} exceeds 2")
    if margin_pixel and not mlp.lambda_max > 2.0:
        raise AssertionError(
            "Poisson-model maximum should exceed 2 at an under-predicting pixel")
    contained = (ls_min2 >= mlp.lambda_min - 1e-12) and (ls_max2 <= mlp.lambda_max + 1e-12)
    return ClusteringReport(mlp.lambda_max, mlp.lambda_min, ls_max2, ls_min2,
                            contained, margin_pixel)


def lipschitz_bound(model: str, data: MeasurementSet, plan: DiversityPlan,
                    eps: float) -> float:
    """Global gradient-Lipschitz constant over all planes.

    L + sum_m ||I_m||_inf / eps^2 for the Poisson model and
    L + sum_m ||M_m||_inf / eps for amplitude least squares, with L the
    plane count.  The intensity least-squares misfit grows quartically,
    so it admits no global constant and is rejected.
    """
    if len(data) != len(plan):
        raise ValueError("data/plan plane count mismatch")
    L = float(len(plan))
    if model == "MLP":
        return L + sum(float(i.max()) for i in data.intensities) / (eps * eps)
    if model == "LS":
        return L + sum(float(np.sqrt(i.max())) for i in data.intensities) / eps
    raise ValueError(f"no global Lipschitz bound for model {model!r}")
