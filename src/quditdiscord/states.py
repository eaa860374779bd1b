"""Two-qudit states in coherence-vector form and the named state families.

A state is held as (x, y, K): the subsystem Bloch vectors and the
(d^2-1) x (d^2-1) correlation matrix K_jk = (d^2/4) tr(rho g_j x g_k),
together with the assembled dense density matrix.  Subsystem A is the left
(slow) tensor factor throughout.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .lie_algebra import (
    GellMannBasis,
    _freeze,
    adjoint_rep,
    build_basis,
    expand_pair,
)

__all__ = [
    "UnphysicalStateError",
    "AffineFamilyError",
    "TwoQuditState",
    "PhysicalityReport",
    "BellLabel",
    "density_matrix",
    "assemble",
    "decompose",
    "from_density",
    "validate",
    "ptrace_a",
    "ptrace_b",
    "weyl_operator",
    "bell_projector",
    "bell_diagonal",
    "isotropic",
    "class_a_state",
    "class_aa_state",
    "sign_class_state",
    "transposition_signs",
    "t_range",
    "state_from_document",
    "state_to_document",
    "read_state",
    "write_state",
]

HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-9
# TwoQuditState.is_lmm: Bloch-vector entries below this count as zero.
LMM_ATOL = 1e-10


class UnphysicalStateError(ValueError):
    """Raised when a constructor would return a non-state (never repaired)."""


class AffineFamilyError(ValueError):
    """Raised when a family handed to :func:`t_range` is not affine in t."""


@dataclass(frozen=True)
class PhysicalityReport:
    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    physical: bool


@dataclass(frozen=True)
class BellLabel:
    """Index pair (m, n) of a displacement operator, both mod d."""

    m: int
    n: int


@dataclass(frozen=True)
class TwoQuditState:
    """Immutable two-qudit state: coherence data plus cached density matrix."""

    d: int
    x: np.ndarray
    y: np.ndarray
    K: np.ndarray
    rho: np.ndarray

    @property
    def is_lmm(self) -> bool:
        """Locally maximally mixed: both marginals are I/d."""
        return bool(
            np.max(np.abs(self.x)) < LMM_ATOL and np.max(np.abs(self.y)) < LMM_ATOL
        )

    def purity(self) -> float:
        return float(np.trace(self.rho @ self.rho).real)


def density_matrix(state) -> np.ndarray:
    """The dense matrix of a :class:`TwoQuditState`, or the argument as a complex array."""
    return state.rho if isinstance(state, TwoQuditState) else np.asarray(state, dtype=complex)


def assemble(
    basis: GellMannBasis, x: np.ndarray, y: np.ndarray, K: np.ndarray
) -> TwoQuditState:
    """Build the state with given Bloch vectors and correlation matrix.

    rho = (1/d^2)[I x I + d'' <x,g> x I + I x d'' <y,g> + sum_jk K_jk g_j x g_k].
    Physicality is not enforced here; callers validate.
    """
    d, n = basis.d, basis.n
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for name, vector in (("x", x), ("y", y)):
        if vector.size != n:
            raise ValueError(f"Bloch vector {name} must have length {n}, got {vector.size}")
    x, y = x.reshape(n), y.reshape(n)
    K = np.asarray(K, dtype=float)
    if K.shape != (n, n):
        raise ValueError(f"correlation matrix must be {n}x{n}, got {K.shape}")
    rho = expand_pair(basis, 1.0, basis.dprimeprime * x, basis.dprimeprime * y, K)
    rho /= d * d
    return TwoQuditState(
        d=d, x=_freeze(x.copy()), y=_freeze(y.copy()), K=_freeze(K.copy()),
        rho=_freeze(rho),
    )


def decompose(
    basis: GellMannBasis, rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract (x, y, K) from a d^2 x d^2 density matrix.

    With G the flattened generators, tr(A g_j) = (G.conj() @ vec(A))_j, and
    K = (d^2/4) G.conj() X G.conj()^T with X_{(a b),(c e)} = rho_{(a c),(b e)}
    the regrouped density matrix.
    """
    d = basis.d
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d * d, d * d):
        raise ValueError(f"density matrix must be {d*d}x{d*d}, got {rho.shape}")
    gc = basis.flat.conj()
    scale = d / np.sqrt(2.0 * d * (d - 1))
    x = scale * (gc @ ptrace_b(rho, d).reshape(d * d)).real
    y = scale * (gc @ ptrace_a(rho, d).reshape(d * d)).real
    regrouped = rho.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    K = (d * d / 4.0) * (gc @ regrouped @ gc.T).real
    return x, y, K


def from_density(
    basis: GellMannBasis, rho: np.ndarray, *, check: bool = True
) -> TwoQuditState:
    """Wrap a dense density matrix; raises if ``check`` and it is unphysical."""
    if check:
        report = validate(rho)
        if not report.physical:
            raise UnphysicalStateError(f"matrix is not a state: {report}")
    x, y, K = decompose(basis, rho)
    return TwoQuditState(
        d=basis.d, x=_freeze(x), y=_freeze(y), K=_freeze(K),
        rho=_freeze(np.asarray(rho, dtype=complex).copy()),
    )


def validate(rho: np.ndarray) -> PhysicalityReport:
    """Hermiticity / trace / positivity report; nothing is repaired."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    trace = float(abs(np.trace(rho) - 1.0))
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])
    return PhysicalityReport(
        hermiticity_defect=herm,
        trace_defect=trace,
        min_eigenvalue=min_eig,
        physical=(
            herm <= HERMITICITY_TOL
            and trace <= TRACE_TOL
            and min_eig >= -EIGENVALUE_TOL
        ),
    )


def ptrace_b(rho: np.ndarray, d: int) -> np.ndarray:
    """Partial trace over the right factor."""
    return np.einsum("acbc->ab", rho.reshape(d, d, d, d))


def ptrace_a(rho: np.ndarray, d: int) -> np.ndarray:
    """Partial trace over the left factor."""
    return np.einsum("acae->ce", rho.reshape(d, d, d, d))


def _label(d: int, label) -> tuple[int, int]:
    if isinstance(label, BellLabel):
        m, n = label.m, label.n
    else:
        m, n = label
    return int(m) % d, int(n) % d


def weyl_operator(d: int, label) -> np.ndarray:
    """Displacement unitary W_(m,n) = sum_k exp(2 pi i k n / d) |k><k+m|."""
    m, n = _label(d, label)
    W = np.zeros((d, d), dtype=complex)
    for k in range(d):
        W[k, (k + m) % d] = np.exp(2j * np.pi * k * n / d)
    return W


def maximally_entangled_ket(d: int) -> np.ndarray:
    """(1/sqrt d) sum_k |k> x |k>."""
    psi = np.zeros(d * d, dtype=complex)
    for k in range(d):
        psi[k * d + k] = 1.0
    return psi / np.sqrt(d)


def bell_projector(basis: GellMannBasis, label) -> TwoQuditState:
    """Projector onto (W_label x I) applied to the maximally entangled ket."""
    d = basis.d
    W = weyl_operator(d, label)
    psi = np.kron(W, np.eye(d)) @ maximally_entangled_ket(d)
    rho = np.outer(psi, psi.conj())
    return from_density(basis, rho, check=False)


def bell_diagonal(
    basis: GellMannBasis, weights: Mapping
) -> TwoQuditState:
    """Convex mixture of the d^2 displaced maximally entangled projectors."""
    d = basis.d
    probs = {}
    for label, p in weights.items():
        key = _label(d, label)
        probs[key] = probs.get(key, 0.0) + float(p)
    values = np.array(list(probs.values()))
    if np.any(values < -1e-12):
        raise ValueError("weights must be nonnegative")
    total = values.sum()
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1 (got {float(total)!r})")
    rho = np.zeros((d * d, d * d), dtype=complex)
    for key, p in sorted(probs.items()):
        rho += (p / total) * bell_projector(basis, key).rho
    return from_density(basis, rho, check=False)


def _physical(state: TwoQuditState, what: str) -> TwoQuditState:
    """Return ``state``, or raise naming the offending parameter ``what``."""
    report = validate(state.rho)
    if not report.physical:
        raise UnphysicalStateError(
            f"{what} out of the physical range (min eig {report.min_eigenvalue:.3e})"
        )
    return state


def isotropic(basis: GellMannBasis, p: float) -> TwoQuditState:
    """(1-p) I/d^2 + p P_00; physical for p in [-1/(d^2-1), 1]."""
    d = basis.d
    rho = (1.0 - p) * np.eye(d * d, dtype=complex) / (d * d)
    rho += p * bell_projector(basis, (0, 0)).rho
    return _physical(from_density(basis, rho, check=False), f"isotropic parameter p={p}")


def transposition_signs(basis: GellMannBasis) -> np.ndarray:
    """Diagonal of the orthogonal matrix implementing transposition.

    Entry k is tr(g_k^T g_k)/2: +1 for symmetric generators, -1 for
    antisymmetric ones.
    """
    flat = basis.flat
    s = 0.5 * np.sum(flat * flat, axis=1).real
    return np.round(s).astype(float)


def class_a_state(basis: GellMannBasis, U: np.ndarray, t: float) -> TwoQuditState:
    """Locally maximally mixed state with K = t R(U), U in SU(d)."""
    K = t * adjoint_rep(basis, U)
    return _physical(assemble(basis, np.zeros(basis.n), np.zeros(basis.n), K), f"t={t}")


def class_aa_state(
    basis: GellMannBasis, U1: np.ndarray, U2: np.ndarray, t: float
) -> TwoQuditState:
    """Locally maximally mixed state with K = t R(U1) I0 R(U2)^T."""
    I0 = np.diag(transposition_signs(basis))
    K = t * adjoint_rep(basis, U1) @ I0 @ adjoint_rep(basis, U2).T
    return _physical(assemble(basis, np.zeros(basis.n), np.zeros(basis.n), K), f"t={t}")


def sign_class_state(basis: GellMannBasis, signs, t: float) -> TwoQuditState:
    """Qutrit state with diagonal orthogonal correlation matrix K = t diag(signs)."""
    if basis.d != 3:
        raise ValueError("sign-class states are defined for d = 3 only")
    signs = np.asarray(signs, dtype=float).reshape(basis.n)
    if not np.all(np.isin(signs, (-1.0, 1.0))):
        raise ValueError("signs must be +/-1")
    state = assemble(basis, np.zeros(basis.n), np.zeros(basis.n), t * np.diag(signs))
    return _physical(state, f"t={t}")


def t_range(
    basis: GellMannBasis,
    family: Callable[[float], "TwoQuditState | np.ndarray"],
    *,
    atol: float = 1e-10,
) -> tuple[float, float]:
    """Maximal interval around 0 on which the affine family stays positive.

    The family must be affine in t with eigenvalues a_j + t b_j; the bounds
    are the sharpest -a/b over positive and negative slopes (exact slope
    arithmetic, no scanning).  Nonlinearity is detected at three sample
    points and reported as :class:`AffineFamilyError`.
    """
    rho0 = density_matrix(family(0.0))
    rho1 = density_matrix(family(1.0))
    B = rho1 - rho0
    for t in (0.5, -0.25, 0.75):
        probe = density_matrix(family(t))
        if np.max(np.abs(probe - (rho0 + t * B))) > atol:
            raise AffineFamilyError(f"family is not affine in t (checked t={t})")
    size = rho0.shape[0]
    mean = np.trace(rho0).real / size
    if np.max(np.abs(rho0 - mean * np.eye(size))) < 1e-12:
        a = np.full(size, mean)
        b = np.linalg.eigvalsh((B + B.conj().T) / 2.0)
    else:
        # simultaneous eigenbasis from a generic point of the pencil
        _, v = np.linalg.eigh(rho0 + 0.6180339887498949 * B)
        a_m = v.conj().T @ rho0 @ v
        b_m = v.conj().T @ B @ v
        off = max(
            np.max(np.abs(a_m - np.diag(np.diag(a_m)))),
            np.max(np.abs(b_m - np.diag(np.diag(b_m)))),
        )
        if off > 1e-8:
            raise AffineFamilyError(
                "family endpoints do not commute; eigenvalues are not affine in t"
            )
        a = np.diag(a_m).real
        b = np.diag(b_m).real
    lo, hi = -np.inf, np.inf
    for aj, bj in zip(a, b):
        if bj > 1e-12:
            lo = max(lo, -aj / bj)
        elif bj < -1e-12:
            hi = min(hi, -aj / bj)
    return float(lo), float(hi)


# --- state documents (JSON external interface) ------------------------------

def _finite_entries(doc: Mapping, key: str) -> np.ndarray:
    try:
        values = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"state document entry '{key}' must be an array of numbers") from exc
    if not np.all(np.isfinite(values)):
        raise ValueError(f"state document entry '{key}' has non-finite values")
    return values


def state_from_document(doc: Mapping) -> TwoQuditState:
    """Parse the JSON state document.

    Exactly one of the two variants must be present:
    {"d", "x", "y", "K"} (coherence form, row-major K) or
    {"d", "rho_re", "rho_im"} (dense form).  The document must be an object,
    'd' an integer (not a bool), and every other entry an array of finite
    numbers; anything else raises ValueError.
    """
    if not isinstance(doc, Mapping):
        raise ValueError("state document must be a JSON object")
    if "d" not in doc:
        raise ValueError("state document must carry the dimension 'd'")
    d = doc["d"]
    if isinstance(d, bool) or not isinstance(d, numbers.Integral):
        raise ValueError(f"state document entry 'd' must be an integer, got {d!r}")
    basis = build_basis(int(d))
    has_coherence = any(k in doc for k in ("x", "y", "K"))
    has_dense = any(k in doc for k in ("rho_re", "rho_im"))
    if has_coherence and has_dense:
        raise ValueError("state document must not mix coherence and dense variants")
    if has_coherence:
        for k in ("x", "y", "K"):
            if k not in doc:
                raise ValueError(f"coherence-form document is missing '{k}'")
        return assemble(basis, *(_finite_entries(doc, k) for k in ("x", "y", "K")))
    if has_dense:
        for k in ("rho_re", "rho_im"):
            if k not in doc:
                raise ValueError(f"dense-form document is missing '{k}'")
        rho = _finite_entries(doc, "rho_re") + 1j * _finite_entries(doc, "rho_im")
        return from_density(basis, rho, check=False)
    raise ValueError("state document must carry either (x, y, K) or (rho_re, rho_im)")


def state_to_document(state: TwoQuditState, *, form: str = "coherence") -> dict:
    """Serialize a state to the JSON document schema."""
    if form == "coherence":
        return {
            "d": state.d,
            "x": state.x.tolist(),
            "y": state.y.tolist(),
            "K": state.K.tolist(),
        }
    if form == "dense":
        return {
            "d": state.d,
            "rho_re": state.rho.real.tolist(),
            "rho_im": state.rho.imag.tolist(),
        }
    raise ValueError(f"unknown document form {form!r}")


def read_state(path) -> TwoQuditState:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_document(json.load(fh))


def write_state(state: TwoQuditState, path, *, form: str = "coherence") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_document(state, form=form), fh, sort_keys=True)
        fh.write("\n")
