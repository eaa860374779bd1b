"""su(d) generator algebra for qudits.

Generalized Gell-Mann generators, the symmetric/antisymmetric structure
tensors, the star and wedge products they induce on R^(d^2-1), and the
adjoint representation of SU(d).

Everything here is dense numpy.  All returned arrays are frozen
(non-writeable) so basis/tensor objects can be shared freely across threads.

Every contraction against the generators is a plain matrix product over the
flattened generators G = ``generators.reshape(n, d^2)``.  Because each g_j
is Hermitian, tr(A g_j) = sum_ab A_ab conj(g_j)_ab, so G.conj() @ vec(A)
gives all n traces at once.  The structure tensors are one batched product
g_j g_k, reshaped to (n^2, d^2), times G.conj().T: O(n^3 d^2) work in BLAS,
built once per d.  The adjoint rotation is vec(U g_k U^+) against G.conj().
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UnsupportedDimensionError",
    "GellMannBasis",
    "StructureTensors",
    "StarSumResult",
    "build_basis",
    "structure_tensors",
    "star",
    "wedge",
    "expand",
    "expand_pair",
    "decompose",
    "decompose_complex",
    "adjoint_rep",
    "phase_normalize",
    "star_sum_criterion",
    "random_special_unitary",
    "random_adjoint_reps",
    "random_orthogonal",
    "expi",
]


class UnsupportedDimensionError(ValueError):
    """Raised for qudit dimensions outside d >= 3."""


# Structure-tensor entries below this are round-off of exact zeros and are set to 0.
TENSOR_ZERO_TOL = 1e-14


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GellMannBasis:
    """Ordered Hermitian generators of su(d).

    ``generators[j-1]`` is the 1-based generator with tr(g_j g_k) = 2 delta_jk.
    The diagonal generators sit exactly at the 1-based indices k^2 - 1 for
    k = 2..d; all other generators have zero diagonal.  For d = 3 this is the
    standard Gell-Mann ordering.
    """

    d: int
    generators: np.ndarray  # shape (d**2 - 1, d, d), complex

    @property
    def n(self) -> int:
        """Number of generators, d^2 - 1."""
        return self.d * self.d - 1

    @property
    def flat(self) -> np.ndarray:
        """The generators as one (n, d^2) matrix G, row j = vec(g_j)."""
        return self.generators.reshape(self.n, self.d * self.d)

    @property
    def dprime(self) -> float:
        """sqrt(d(d-1)/2) / (d-2); singular at d = 2, hence d >= 3 only."""
        return math.sqrt(self.d * (self.d - 1) / 2.0) / (self.d - 2)

    @property
    def dprimeprime(self) -> float:
        """sqrt(d(d-1)/2), the coherence-vector scale factor."""
        return math.sqrt(self.d * (self.d - 1) / 2.0)

    @property
    def diagonal_indices(self) -> tuple[int, ...]:
        """1-based positions of the diagonal generators (k^2 - 1, k = 2..d)."""
        return tuple(k * k - 1 for k in range(2, self.d + 1))


@dataclass(frozen=True)
class StructureTensors:
    """Dense structure tensors of su(d).

    ``dhat[j, k, l]`` is totally symmetric, ``fhat[j, k, l]`` totally
    antisymmetric.  Read as stacks of matrices, ``dhat[j]`` and ``fhat[j]``
    are the paper's Delta_j and F_j.
    """

    d: int
    dhat: np.ndarray
    fhat: np.ndarray

    @property
    def n(self) -> int:
        return self.d * self.d - 1


@dataclass(frozen=True)
class StarSumResult:
    """Outcome of the star-sum criterion sum_k (A e_k) * (B e_k) = 0."""

    residual: np.ndarray
    satisfied: bool
    max_delta_trace: float


@functools.lru_cache(maxsize=None)
def build_basis(d: int) -> GellMannBasis:
    """Construct the generalized Gell-Mann basis of su(d).

    Off-diagonal pairs (p, q), p < q, are enumerated lexicographically and
    contribute the symmetric generator e_pq + e_qp followed by the
    antisymmetric -i(e_pq - e_qp); the diagonal generator for level k is
    sqrt(2/(k(k-1))) diag(1, ..., 1, -(k-1), 0, ..., 0) placed at index
    k^2 - 1.  Yields the standard Gell-Mann matrices for d = 3.
    """
    if not isinstance(d, (int, np.integer)) or d < 3:
        raise UnsupportedDimensionError(
            f"qudit dimension must be an integer >= 3, got {d!r}"
        )
    d = int(d)
    off_diagonal = []
    for p in range(d - 1):
        for q in range(p + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[p, q] = sym[q, p] = 1.0
            asym = np.zeros((d, d), dtype=complex)
            asym[p, q] = -1.0j
            asym[q, p] = 1.0j
            off_diagonal.append(sym)
            off_diagonal.append(asym)

    diag_at = {k * k - 1 for k in range(2, d + 1)}
    generators = np.zeros((d * d - 1, d, d), dtype=complex)
    it = iter(off_diagonal)
    for idx in range(1, d * d):  # 1-based generator index
        if idx in diag_at:
            k = int(round(math.sqrt(idx + 1)))
            vec = np.zeros(d)
            vec[: k - 1] = 1.0
            vec[k - 1] = -(k - 1)
            generators[idx - 1] = np.diag(vec) * math.sqrt(2.0 / (k * (k - 1)))
        else:
            generators[idx - 1] = next(it)
    return GellMannBasis(d=d, generators=_freeze(generators))


@functools.lru_cache(maxsize=None)
def _tensors_for_dimension(d: int) -> StructureTensors:
    basis = build_basis(d)
    g, n = basis.generators, basis.n
    # tr(g_j g_k g_l) = <vec(g_j g_k), vec(g_l)>; dhat/fhat are its real/imaginary halves.
    products = np.matmul(g[:, None], g[None, :]).reshape(n * n, d * d)
    triple = (products @ basis.flat.conj().T).reshape(n, n, n)
    dhat = triple.real / 2.0
    fhat = triple.imag / 2.0
    dhat[np.abs(dhat) < TENSOR_ZERO_TOL] = 0.0
    fhat[np.abs(fhat) < TENSOR_ZERO_TOL] = 0.0
    return StructureTensors(d=d, dhat=_freeze(dhat), fhat=_freeze(fhat))


def structure_tensors(basis: GellMannBasis) -> StructureTensors:
    """Structure tensors dhat_jkl = tr([g_j,g_k]_+ g_l)/4, fhat_jkl = tr([g_j,g_k] g_l)/4i."""
    return _tensors_for_dimension(basis.d)


def _check_vector(tensors: StructureTensors, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (tensors.n,):
        raise ValueError(f"coefficient vector must have length {tensors.n}, got {v.shape}")
    return v


def _contract_pair(
    tensors: StructureTensors, T: np.ndarray, n: np.ndarray, m: np.ndarray
) -> np.ndarray:
    """d' sum_kl T_jkl n_k m_l as T reshaped to (n, n^2) times vec(n m^T)."""
    n = _check_vector(tensors, n)
    m = _check_vector(tensors, m)
    size = tensors.n
    dprime = build_basis(tensors.d).dprime
    return dprime * (T.reshape(size, size * size) @ np.outer(n, m).ravel())


def star(tensors: StructureTensors, n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Symmetric star product (n * m)_j = d' sum_kl dhat_jkl n_k m_l."""
    return _contract_pair(tensors, tensors.dhat, n, m)


def wedge(tensors: StructureTensors, n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Antisymmetric wedge product (n ^ m)_j = d' sum_kl fhat_jkl n_k m_l."""
    return _contract_pair(tensors, tensors.fhat, n, m)


def expand(basis: GellMannBasis, a0: complex, a: np.ndarray) -> np.ndarray:
    """Assemble a0*I + <a, g> from coefficient form."""
    d, n = basis.d, basis.n
    a = np.asarray(a)
    if a.shape != (n,):
        raise ValueError(f"coefficient vector must have length {n}, got {a.shape}")
    return a0 * np.eye(d, dtype=complex) + (a @ basis.flat).reshape(d, d)


def expand_pair(
    basis: GellMannBasis,
    a0: complex,
    x: np.ndarray,
    y: np.ndarray,
    K: np.ndarray,
) -> np.ndarray:
    """Assemble a0 I x I + <x, g> x I + I x <y, g> + sum_jk K_jk g_j x g_k.

    The two-qudit counterpart of :func:`expand`; the first factor is the
    left (slow) tensor index.  With the rows of G = [vec(I); vec(g_1); ...]
    and C = [[a0, y^T], [x, K]], the matrix G^T C G holds every term at
    index ((a b), (c e)) and only needs its middle indices swapped, so no
    stack of g_j x g_k products is ever built.
    """
    d, n = basis.d, basis.n
    x, y, K = np.asarray(x), np.asarray(y), np.asarray(K)
    if x.shape != (n,) or y.shape != (n,) or K.shape != (n, n):
        raise ValueError(
            f"need vectors of length {n} and a {n}x{n} matrix, "
            f"got {x.shape}, {y.shape} and {K.shape}"
        )
    C = np.empty((n + 1, n + 1), dtype=np.result_type(a0, x, y, K))
    C[0, 0] = a0
    C[0, 1:] = y
    C[1:, 0] = x
    C[1:, 1:] = K
    G = np.concatenate((np.eye(d, dtype=complex).reshape(1, d * d), basis.flat))
    out = G.T @ C @ G
    return out.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def decompose(
    basis: GellMannBasis, A: np.ndarray, *, atol: float = 1e-9
) -> tuple[float, np.ndarray]:
    """Coefficients (a0, a) with A = a0*I + <a, g>; A must be Hermitian.

    a0 = tr(A)/d and a_j = tr(A g_j)/2.  Raises on a Hermiticity defect
    above ``atol``, as a real coefficient vector is requested.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape != (basis.d, basis.d):
        raise ValueError(f"matrix must be {basis.d}x{basis.d}, got {A.shape}")
    herm_defect = float(np.max(np.abs(A - A.conj().T)))
    if herm_defect > atol:
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
    a0, a = decompose_complex(basis, A)
    return float(a0.real), a.real.copy()


def decompose_complex(basis: GellMannBasis, A: np.ndarray) -> tuple[complex, np.ndarray]:
    """Like :func:`decompose` but for arbitrary matrices (complex coefficients).

    a_j = tr(A g_j)/2 = (G.conj() @ vec(A))_j / 2, the generators being Hermitian.
    """
    A = np.asarray(A, dtype=complex)
    a0 = np.trace(A) / basis.d
    a = 0.5 * (basis.flat.conj() @ A.reshape(basis.d * basis.d))
    return a0, a


def adjoint_rep(
    basis: GellMannBasis,
    U: np.ndarray,
    *,
    atol: float = 1e-9,
    require_special: bool = True,
) -> np.ndarray:
    """Adjoint rotation R(U) with R(U)_jk = tr(U g_k U^+ g_j)/2.

    R(U) is real orthogonal and satisfies U g_j U^+ = sum_k R(U)_kj g_k.
    ``require_special`` enforces det U = 1; conjugation is insensitive to a
    global phase, so callers holding a plain unitary can run it through
    :func:`phase_normalize` first.
    """
    U = np.asarray(U, dtype=complex)
    d = basis.d
    if U.shape != (d, d):
        raise ValueError(f"unitary must be {d}x{d}, got {U.shape}")
    defect = float(np.max(np.abs(U.conj().T @ U - np.eye(d))))
    if defect > atol:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    if require_special:
        det_defect = abs(np.linalg.det(U) - 1.0)
        if det_defect > atol:
            raise ValueError(f"matrix is not special unitary (|det-1| = {det_defect:.3e})")
    # column k holds the coefficients of U g_k U^+, read off against G.conj()
    rotated = (U @ basis.generators @ U.conj().T).reshape(basis.n, d * d)
    return 0.5 * (basis.flat.conj() @ rotated.T).real


def phase_normalize(U: np.ndarray) -> np.ndarray:
    """Rescale a unitary by a global phase so that det U = 1."""
    U = np.asarray(U, dtype=complex)
    det = np.linalg.det(U)
    return U / det ** (1.0 / U.shape[0])


def star_sum_criterion(
    tensors: StructureTensors,
    A: np.ndarray,
    B: np.ndarray,
    *,
    tol: float = 1e-10,
) -> StarSumResult:
    """Evaluate sum_k (A e_k) * (B e_k) over the canonical basis.

    The residual vector equals d' * (tr(A^T Delta_j B))_j, so it vanishes
    exactly when all the Delta traces do; both quantities are reported.
    """
    n = tensors.n
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != (n, n) or B.shape != (n, n):
        raise ValueError(f"A and B must be {n}x{n}")
    # tr(A^T Delta_j B) = sum_kl Delta_jkl (A B^T)_kl
    traces = tensors.dhat.reshape(n, n * n) @ (A @ B.T).ravel()
    residual = build_basis(tensors.d).dprime * traces
    return StarSumResult(
        residual=residual,
        satisfied=bool(np.max(np.abs(residual)) < tol),
        max_delta_trace=float(np.max(np.abs(traces))),
    )


def expi(H: np.ndarray) -> np.ndarray:
    """exp(iH) for Hermitian H via eigendecomposition."""
    w, v = np.linalg.eigh(H)
    return (v * np.exp(1j * w)) @ v.conj().T


def random_special_unitary(d: int, seed) -> np.ndarray:
    """Seeded U = exp(i <theta, g>) with theta a standard spherical Gaussian."""
    basis = build_basis(d)
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(basis.n)
    return expi(expand(basis, 0.0, theta))


def random_adjoint_reps(basis: GellMannBasis, seeds) -> np.ndarray:
    """Stack of R(U) for U = random_special_unitary(basis.d, s), one per seed.

    Each seed draws its own theta, as in :func:`random_special_unitary`; the
    exponentials come from one batched eigh.  vec(U g U^+) = (U x conj(U))
    vec(g), so R(U) = Re(G.conj() (U x conj(U)) G^T)/2 for the whole stack.
    """
    d = basis.d
    thetas = np.array([np.random.default_rng(s).standard_normal(basis.n) for s in seeds])
    w, v = np.linalg.eigh((thetas @ basis.flat).reshape(-1, d, d))
    U = (v * np.exp(1j * w)[:, None, :]) @ v.conj().swapaxes(-1, -2)
    UxU = (U[:, :, None, :, None] * U.conj()[:, None, :, None, :]).reshape(-1, d * d, d * d)
    return 0.5 * (basis.flat.conj() @ UxU @ basis.flat.T).real


def random_orthogonal(size: int, seed) -> np.ndarray:
    """Seeded random orthogonal matrix (QR of a Gaussian, signs fixed)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((size, size)))
    return q * np.sign(np.diag(r))
