import numpy as np
import pytest

from phasediversity.experiments import initial_guess
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


def bench_start(mask, seed):
    return initial_guess(mask, seed)
