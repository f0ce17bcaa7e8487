import numpy as np
import pytest

from phasediversity.experiments import initial_guess
from phasediversity.forward import (
    DiversityPlan,
    diversity_adjoint,
    diversity_forward,
)
from phasediversity.objectives import hessian_diagonals
from phasediversity.problems import build_problem


class FunctionObjective:
    """Plain callables as a ``solve`` objective: ``fg(z) -> (value,
    gradient)`` backs ``value_and_gradient`` and the optional
    ``hvp(z, h)`` backs ``hessian_operator``, which TN needs."""

    def __init__(self, fg, hvp=None):
        self._fg = fg
        self._hvp = hvp

    @property
    def fft_calls(self) -> int:
        return 0

    def value_and_gradient(self, z):
        return self._fg(z)

    def hessian_operator(self, z):
        if self._hvp is None:
            raise NotImplementedError("objective provides no Hessian action")
        return lambda h: self._hvp(z, h)


def plan_of(plane):
    """The plan whose one plane is ``plane``."""
    if plane is None:
        return DiversityPlan((), True)
    return DiversityPlan((plane,), False)


def read_trace(path):
    """A trace CSV, which the program writes and never reads back, as its
    ``# key = value`` header (a dict of strings) and its rows (a float array
    with one row per record, in ``TRACE_COLUMNS`` order)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = dict(ln[2:].split(" = ", 1) for ln in lines if ln.startswith("#"))
    rows = np.loadtxt((ln for ln in lines if not ln.startswith("#")),
                      delimiter=",", skiprows=1, ndmin=2)
    return header, rows


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def defocus_phase(n, d):
    """Oracle for a defocus plane's phase: exp(2 pi i d (x^2 + y^2)) on the
    centered lattice x_j = (j - n/2)/n, built without the program."""
    axis = (np.arange(n) - n / 2.0) / n
    x, y = np.meshgrid(axis, axis, indexing="xy")
    return np.exp(2j * np.pi * d * (x * x + y * y))


def objective_floor_oracle(spec):
    """Oracle for the misfit floor from the hand-derived minimum over
    K >= 0 of each model's per-pixel term:
    LS   -I - eps^2 where I >= eps^2, else -2 eps sqrt(I);
    MLP  I - eps^2 - I log I where I >= eps^2, else -I log eps^2;
    LSI  0."""
    if spec.model == "LSI":
        return 0.0
    eps = spec.epsilon
    e2 = eps * eps
    total = 0.0
    for intensity in spec.data.intensities:
        above = intensity >= e2
        if spec.model == "LS":
            terms = np.where(above, -intensity - e2,
                             -2.0 * eps * np.sqrt(intensity))
        else:  # MLP
            safe = np.where(above, intensity, 1.0)
            terms = np.where(above, intensity - e2 - intensity * np.log(safe),
                             -intensity * np.log(e2))
        total += float(np.sum(terms))
    return total


def _plane_terms_oracle(model, K, intensity, eps):
    """One plane's misfit value, summed by ``np.sum`` over that plane alone,
    and its gradient weight w, in the order of operations of the
    plane-by-plane evaluation."""
    if model == "LSI":
        residual = K - intensity
        return float(0.5 * np.sum(np.square(residual))), residual
    Ke = K + eps * eps
    if model == "MLP":
        return (float(np.sum(K - intensity * np.log(Ke))),
                1.0 - intensity / Ke)
    root = np.sqrt(Ke)
    amplitude = np.sqrt(intensity)
    return (float(np.sum(K - (2.0 * root) * amplitude)),
            1.0 - amplitude / root)


def per_plane_misfit(spec, u):
    """Oracle for the stacked misfit: value and gradient evaluated one plane
    at a time through the public plane operators, the plane values added
    and the adjoints accumulated in plan order."""
    total = 0.0
    grad = np.zeros_like(u)
    for plane, intensity in zip(spec.plan, spec.data.intensities):
        Fu = diversity_forward(u, plane, spec.grid)
        value, w = _plane_terms_oracle(spec.model, np.square(np.abs(Fu)),
                                       intensity, spec.epsilon)
        total += value
        grad += diversity_adjoint(Fu * w, plane, spec.grid)
    return total, grad


def per_plane_hessian_action(spec, u, h):
    """Oracle for the stacked Hessian action: sum over planes, in plan order,
    of F*(r o F(h) + c o conj(F(h))) with each plane's (r, c)."""
    out = np.zeros_like(h)
    data = spec.data
    for plane, intensity, amplitude in zip(spec.plan, data.intensities,
                                           data.amplitudes):
        r, c = hessian_diagonals(spec.model,
                                 diversity_forward(u, plane, spec.grid),
                                 intensity, amplitude, spec.epsilon)
        Fh = diversity_forward(h, plane, spec.grid)
        out += diversity_adjoint(r * Fh + c * np.conj(Fh), plane, spec.grid)
    return out


def per_plane_floor(spec):
    """Oracle for the stacked floor: each plane's terms at
    K* = max(I - eps^2, 0), added in plan order."""
    if spec.model == "LSI":
        return 0.0
    e2 = spec.epsilon * spec.epsilon
    total = 0.0
    for intensity in spec.data.intensities:
        total += _plane_terms_oracle(spec.model, np.maximum(intensity - e2, 0.0),
                                     intensity, spec.epsilon)[0]
    return total


def structured_hermitian_matrix(r, c, U):
    """Oracle for the r +/- |c| spectrum rule: the unitary-conjugated
    structured family [[U^H diag(r) U, U^H diag(c) U^H],
    [U diag(conj(c)) U, U diag(r) U^H]], similar for any unitary U to the
    block-diagonal pair form, so its eigenvalues are {r_i +/- |c_i|}."""
    Uh = U.conj().T
    A = (Uh * r) @ U
    B = (Uh * c) @ Uh
    D = (U * r) @ Uh
    return np.block([[A, B], [B.conj().T, D]])


@pytest.fixture(scope="session")
def bench32():
    """The n=32 benchmark instance used by the statistical tests."""
    return build_problem("zernike", 32, seed=0)


@pytest.fixture(scope="session")
def small_instance():
    """n=8 instance with an amplitude plane plus one defocus plane."""
    return build_problem("zernike", 8, seed=1, defocus=(3.0,),
                         amplitude_plane=True)


@pytest.fixture
def numpy_ffts(monkeypatch):
    """``{"n": calls}`` counting every 2-D / n-D numpy FFT entry point the
    program could call; reset ``n`` to start a count."""
    calls = {"n": 0}

    def counting(real):
        def counted(*a, **k):
            calls["n"] += 1
            return real(*a, **k)
        return counted

    for name in ("fft2", "ifft2", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
    return calls


def bench_start(mask, seed):
    return initial_guess(mask, seed)
