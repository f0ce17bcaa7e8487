import numpy as np
import pytest

from phasediversity.experiments import initial_guess
from phasediversity.problems import build_problem


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


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
