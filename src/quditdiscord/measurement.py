"""Local von Neumann measurements and the disturbance machinery.

A measurement frame bundles the measured rank-1 projectors P_k = U P0_k U^+
and the real projector M = I - V P0 V^T (rank d(d-1), V = R(U) the adjoint
rotation) onto the coefficient directions the measurement removes.  The
disturbance of a state under the one-sided measurement is
S = rho - (Phi x id)(rho), and Q = S S^+ drives both discord measures.  The
functions here build S and Q from a frame and serve as the oracles of the
minimizers, which evaluate S in the measured basis, where it is
R = (K^+ rho K) o mask with K = U x I and mask the 0/1 pattern of the
off-diagonal A-blocks (:func:`off_block_mask`); R has the spectrum of S.
"""

from __future__ import annotations

import numpy as np

from .lie_algebra import (
    GellMannBasis,
    adjoint_rep,
    decompose_complex,
    expand,
    expand_pair,
    expi,
    random_adjoint_reps,
    structure_tensors,
)
from .states import density_matrix

__all__ = [
    "MeasurementFrame",
    "canonical_projector_diagonal",
    "canonical_frame",
    "frame_from_unitary",
    "frame_from_theta",
    "apply_measurement",
    "disturbance",
    "disturbance_from_vectors",
    "off_block_mask",
    "q_matrix",
    "q_expansion",
    "q_orthogonal",
    "q_automorphism",
    "q_anti_automorphism",
    "trace_norm_hermitian",
    "tau_map",
    "random_frame",
    "random_frame_projectors",
]


class MeasurementFrame:
    """Frame of a local projective measurement on subsystem A.

    Attributes: ``U`` (special unitary), ``projectors`` (stack of the d
    rank-1 projectors), ``M_real`` = I - V P0 V^T with V = R(U) (real
    projector of rank d(d-1) onto the coefficients the measurement removes).
    """

    __slots__ = ("d", "U", "projectors", "M_real")

    def __init__(self, d, U, projectors, M_real):
        self.d = d
        self.U = U
        self.projectors = projectors
        self.M_real = M_real


def canonical_projector_diagonal(basis: GellMannBasis) -> np.ndarray:
    """P0: ones exactly at the diagonal-generator slots k^2 - 1, k = 2..d."""
    diag = np.zeros(basis.n)
    for idx in basis.diagonal_indices:
        diag[idx - 1] = 1.0
    return np.diag(diag)


def frame_from_unitary(basis: GellMannBasis, U: np.ndarray) -> MeasurementFrame:
    """Frame with projectors U P0_k U^+ and real projector I - V P0 V^T."""
    d = basis.d
    U = np.asarray(U, dtype=complex)
    V = adjoint_rep(basis, U)  # validates unitarity / det
    projectors = np.einsum("ak,bk->kab", U, U.conj())
    P0 = canonical_projector_diagonal(basis)
    M_real = np.eye(basis.n) - V @ P0 @ V.T
    return MeasurementFrame(d=d, U=U, projectors=projectors, M_real=M_real)


def canonical_frame(basis: GellMannBasis) -> MeasurementFrame:
    """Frame of the computational-basis measurement (U = I, exact P0)."""
    d = basis.d
    eye = np.eye(d, dtype=complex)
    projectors = np.einsum("ak,bk->kab", eye, eye.conj())
    P0 = canonical_projector_diagonal(basis)
    return MeasurementFrame(d=d, U=eye, projectors=projectors,
                            M_real=np.eye(basis.n) - P0)


def frame_from_theta(basis: GellMannBasis, theta: np.ndarray) -> MeasurementFrame:
    """Frame of U = exp(i <theta, g>); the optimizer's parametrization."""
    return frame_from_unitary(basis, expi(expand(basis, 0.0, np.asarray(theta))))


def random_frame(basis: GellMannBasis, seed) -> MeasurementFrame:
    """Seeded random frame via a spherical-Gaussian theta."""
    rng = np.random.default_rng(seed)
    return frame_from_theta(basis, rng.standard_normal(basis.n))


def random_frame_projectors(basis: GellMannBasis, seeds) -> np.ndarray:
    """Stack of random_frame(basis, s).M_real, one per seed, without building the frames.

    M = I - V P0 V^T keeps only the diagonal-generator columns of V = R(U).
    """
    V = random_adjoint_reps(basis, seeds)[..., [i - 1 for i in basis.diagonal_indices]]
    return np.eye(basis.n) - V @ V.swapaxes(-1, -2)


def apply_measurement(state, frame: MeasurementFrame) -> np.ndarray:
    """(Phi x id)(rho) = sum_k (P_k x I) rho (P_k x I)."""
    d = frame.d
    rho = density_matrix(state)
    if rho.shape != (d * d, d * d):
        raise ValueError(f"state must be {d*d}x{d*d}, got {rho.shape}")
    r4 = rho.reshape(d, d, d, d)
    # sum_k P_k rho_A-block P_k applied to the left factor indices
    out = np.einsum("kap,pcqe,kqb->acbe", frame.projectors, r4, frame.projectors,
                    optimize=True)
    return out.reshape(d * d, d * d)


def disturbance(state, frame: MeasurementFrame) -> np.ndarray:
    """S = rho - (Phi x id)(rho); traceless Hermitian."""
    rho = density_matrix(state)
    return rho - apply_measurement(rho, frame)


def disturbance_from_vectors(
    basis: GellMannBasis, x: np.ndarray, K: np.ndarray, frame: MeasurementFrame
) -> np.ndarray:
    """Disturbance in coherence form.

    S = (1/d^2) [ d'' <Mx, g> x I + sum_k <MK e_k, g> x <e_k, g> ]; for
    locally maximally mixed states only the correlation term survives.
    """
    d, M = basis.d, frame.M_real
    Mx = basis.dprimeprime * (M @ np.asarray(x, dtype=float))
    MK = M @ np.asarray(K, dtype=float)
    return expand_pair(basis, 0.0, Mx, np.zeros(basis.n), MK) / (d * d)


def off_block_mask(d: int) -> np.ndarray:
    """The (d^2, d^2) 0/1 mask that is 0 exactly on the diagonal A-blocks [(k.),(k.)]."""
    mask = np.ones((d, d, d, d))
    idx = np.arange(d)
    mask[idx, :, idx, :] = 0.0
    return mask.reshape(d * d, d * d)


def q_matrix(S: np.ndarray) -> np.ndarray:
    """Q = S S^+ for Hermitian S, symmetrized against round-off."""
    S = np.asarray(S, dtype=complex)
    Q = S @ S.conj().T
    return (Q + Q.conj().T) / 2.0


def trace_norm_hermitian(S: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix as the sum of |eigenvalues|.

    Equals tr sqrt(S S^+) but avoids the precision loss of squaring near
    zero eigenvalues.
    """
    return float(np.sum(np.abs(np.linalg.eigvalsh(S))))


def _sandwich(A: np.ndarray, T: np.ndarray) -> np.ndarray:
    """(l, p) -> sum_ab (T_l)_ab (A T_p A^T)_ab = tr(A^T T_l^T A T_p) for a stack T.

    That is tr(A^T Delta_l A Delta_p) for the symmetric Delta and
    -tr(A^T F_l A F_p) for the antisymmetric F, so the paper's wedge traces
    are minus the F sandwich.
    """
    n = T.shape[0]
    return T.reshape(n, n * n) @ (A @ T @ A.T).reshape(n, n * n).T


def q_expansion(basis: GellMannBasis, K: np.ndarray, frame: MeasurementFrame) -> np.ndarray:
    """Five-term star/wedge expansion of Q for a locally maximally mixed state.

    With M = (projector complement) and columns m_j = M K e_j:

    Q = (1/d^4) [ (4/d^2) sum_j <m_j, m_j> I x I
                + (2/d) sum_l tr(M_K^T Delta_l M_K) g_l x I
                + (2/d) sum_p tr(M_K^T M_K Delta_p) I x g_p
                + sum_lp ( tr(M_K^T Delta_l M_K Delta_p)
                         + tr(M_K^T F_l M_K F_p) ) g_l x g_p ]
    """
    d, n = basis.d, basis.n
    K = np.asarray(K, dtype=float)
    if K.shape != (n, n):
        raise ValueError(f"correlation matrix must be {n}x{n}")
    t = structure_tensors(basis)
    MK = frame.M_real @ K
    gram = MK.T @ MK
    delta = t.dhat.reshape(n, n * n)
    Q = expand_pair(
        basis, (4.0 / (d * d)) * np.trace(gram),
        (2.0 / d) * (delta @ (MK @ MK.T).ravel()), (2.0 / d) * (delta @ gram.ravel()),
        _sandwich(MK, t.dhat) - _sandwich(MK, t.fhat),
    )
    return Q / (d ** 4)


def q_orthogonal(
    basis: GellMannBasis, t: float, V0: np.ndarray, frame: MeasurementFrame,
    *, atol: float = 1e-9,
) -> np.ndarray:
    """Closed form of Q for K = t V0 with V0 orthogonal.

    Q = (t^2/d^4) [ (4(d-1)/d) I x I + (2/d) I x sum_k X_k g_k
                  + sum_jk Y_jk g_j x g_k ]
    with X_k = tr(M V0 Delta_k V0^T) and
    Y_jk = tr(V0^T M Delta_j M V0 Delta_k + V0^T M F_j M V0 F_k).
    """
    d, n = basis.d, basis.n
    V0 = np.asarray(V0, dtype=float)
    if V0.shape != (n, n):
        raise ValueError(f"V0 must be {n}x{n}")
    if np.max(np.abs(V0.T @ V0 - np.eye(n))) > atol:
        raise ValueError("V0 is not orthogonal")
    ten = structure_tensors(basis)
    M = frame.M_real
    MV = M @ V0
    X = ten.dhat.reshape(n, n * n) @ (V0.T @ M @ V0).ravel()
    Y = _sandwich(MV, ten.dhat) - _sandwich(MV, ten.fhat)
    out = expand_pair(basis, 4.0 * (d - 1) / d, np.zeros(n), (2.0 / d) * X, Y)
    return (t * t / d ** 4) * out


def tau_map(basis: GellMannBasis, T: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Coefficient-space map tau_T(a0 I + <a, g>) = a0 I + <T a, g>.

    Works for arbitrary (complex) coefficient vectors, so it can be applied
    to unitaries as well as Hermitian observables.
    """
    a0, a = decompose_complex(basis, A)
    return expand(basis, a0, np.asarray(T, dtype=float) @ a)


def _diagonal_generators(basis: GellMannBasis) -> np.ndarray:
    idx = [i - 1 for i in basis.diagonal_indices]
    return basis.generators[idx]


def q_automorphism(
    basis: GellMannBasis, t: float, V: np.ndarray, U: np.ndarray
) -> np.ndarray:
    """Closed form of Q for K = t V with V = R(U_V) an adjoint rotation.

    Q = (t^2/d^4) [ (4(d-1)/d) I x I
                  - 2 sum_k (U g_{k^2-1} U^+) x tau(U g_{k^2-1} U^+) ]
    where tau is the coefficient map of V^T: the rotation enters the
    B-side factor through its inverse.
    """
    d = basis.d
    U = np.asarray(U, dtype=complex)
    VT = np.asarray(V, dtype=float).T
    out = (4.0 * (d - 1) / d) * np.eye(d * d, dtype=complex)
    for g in _diagonal_generators(basis):
        rotated = U @ g @ U.conj().T
        out -= 2.0 * np.kron(rotated, tau_map(basis, VT, rotated))
    return (t * t / d ** 4) * out


def q_anti_automorphism(
    basis: GellMannBasis, t: float, T: np.ndarray, U: np.ndarray
) -> np.ndarray:
    """Closed form of Q for K = t T with T an anti-automorphism rotation.

    Q = (t^2/d^4) [ (4(d-1)/d) I x I
                  + 2 ( (d-2) sum_j g_j x tau(g_j)
                      + sum_k (U g_{k^2-1} U^+) x tau(U g_{k^2-1} U^+) ) ]
    with tau the coefficient map of T^T, as in :func:`q_automorphism`.
    """
    d = basis.d
    U = np.asarray(U, dtype=complex)
    T = np.asarray(T, dtype=float)
    zero = np.zeros(basis.n)
    # sum_j g_j x tau(g_j) = sum_jk T_jk g_j x g_k
    out = expand_pair(basis, 4.0 * (d - 1) / d, zero, zero, 2.0 * (d - 2) * T)
    for g in _diagonal_generators(basis):
        rotated = U @ g @ U.conj().T
        out += 2.0 * np.kron(rotated, tau_map(basis, T.T, rotated))
    return (t * t / d ** 4) * out
