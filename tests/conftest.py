import numpy as np
import pytest

from quditdiscord import discord as dc
from quditdiscord import lie_algebra as la


@pytest.fixture(scope="session")
def basis3():
    return la.build_basis(3)


@pytest.fixture(scope="session")
def basis4():
    return la.build_basis(4)


@pytest.fixture(scope="session")
def tensors3(basis3):
    return la.structure_tensors(basis3)


def objective(basis, state, measure):
    """The D1 or D2 objective of ``discord._chart`` as a function of theta alone.

    It is read at the frame exp(i <theta, g>), the chart with U0 = I.
    """
    at = dc._chart(basis, state, measure)[0]
    eye = np.eye(basis.d, dtype=complex)
    return lambda theta: at(np.asarray(theta, dtype=float), eye).value


def random_hermitian(d, rng):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + m.conj().T) / 2.0


def random_density(d, rng):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def classical_quantum_rho(d, rng):
    """sum_a p_a |a><a| x sigma_a: diagonal on A in the computational basis, zero discord."""
    p = rng.dirichlet(np.ones(d))
    return sum(np.kron(np.diag(np.eye(d)[a]), p[a] * random_density(d, rng)) for a in range(d))


def generic_rho(d, rng):
    """Half a random Wishart state, half the maximally mixed state."""
    G = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    rho = G @ G.conj().T
    return 0.5 * rho / np.trace(rho).real + 0.5 * np.eye(d * d) / (d * d)


def generic_lmm_rho(d, rng):
    """(I + t C)/d^2 with C a random Hermitian matrix whose partial traces vanish."""
    X = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    X4 = ((X + X.conj().T) / 2).reshape(d, d, d, d)
    eye = np.eye(d)
    tr_b = np.einsum("acbc->ab", X4)
    tr_a = np.einsum("acae->ce", X4)
    total = np.trace(tr_b)
    C = (X4 - np.einsum("ab,ce->acbe", tr_b, eye) / d - np.einsum("ab,ce->acbe", eye, tr_a) / d
         + total * np.einsum("ab,ce->acbe", eye, eye) / d ** 2).reshape(d * d, d * d)
    t = rng.uniform(0.3, 0.85) / abs(np.linalg.eigvalsh(C)[0])
    return (np.eye(d * d) + t * C) / (d * d)
