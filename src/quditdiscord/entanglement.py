"""Entanglement criteria: partial transpose, realignment, reduction, and
the purity-ball sufficient condition for separability.

Trace norms run through singular values (the realigned matrix is not
Hermitian, so SVD is mandatory there).  Negativities in (-1e-12, 0) from
round-off are clipped to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .states import TwoQuditState, density_matrix, ptrace_a, ptrace_b

__all__ = [
    "EntanglementReport",
    "partial_transpose",
    "realign",
    "negativity",
    "realignment_negativity",
    "reduction_criterion",
    "gurvits_barnum",
    "ppt_boundary",
    "entanglement_report",
]

PPT_EIG_TOL = 1e-9


@dataclass(frozen=True)
class EntanglementReport:
    negativity: float
    realignment_negativity: float
    reduction_min_eig: float
    gurvits_barnum_separable: bool
    ppt: bool


def partial_transpose(rho: np.ndarray, d: int) -> np.ndarray:
    """Transpose the second-factor indices; involutive and trace preserving."""
    rho = density_matrix(rho)
    if rho.shape != (d * d, d * d):
        raise ValueError(f"expected a {d*d}x{d*d} matrix, got {rho.shape}")
    return rho.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)


def realign(rho: np.ndarray, d: int) -> np.ndarray:
    """Realigned matrix: <m|<mu| R |n>|nu> = <m|<n| rho |mu>|nu>."""
    rho = density_matrix(rho)
    if rho.shape != (d * d, d * d):
        raise ValueError(f"expected a {d*d}x{d*d} matrix, got {rho.shape}")
    return rho.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _trace_norm(A: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(A, compute_uv=False)))


def negativity(rho, d: int) -> float:
    """N = (||rho^PT||_1 - 1)/2, clipped at 0 for round-off."""
    value = (_trace_norm(partial_transpose(density_matrix(rho), d)) - 1.0) / 2.0
    return max(0.0, value)


def realignment_negativity(rho, d: int) -> float:
    """N_R = max(0, (||rho^R||_1 - 1)/2); nonzero implies entanglement."""
    value = (_trace_norm(realign(density_matrix(rho), d)) - 1.0) / 2.0
    return max(0.0, value)


def reduction_criterion(rho, d: int) -> float:
    """Most negative eigenvalue of the two reduction operators.

    Negative means entangled and distillable; separable states give >= 0 up
    to round-off.
    """
    rho = density_matrix(rho)
    rho_a = ptrace_b(rho, d)
    rho_b = ptrace_a(rho, d)
    eye = np.eye(d)
    op1 = np.kron(rho_a, eye) - rho
    op2 = np.kron(eye, rho_b) - rho
    return float(min(np.linalg.eigvalsh(op1)[0], np.linalg.eigvalsh(op2)[0]))


def gurvits_barnum(rho, d: int) -> bool:
    """Purity-ball sufficient condition: tr(rho^2) <= 1/(d^2-1) forces separability."""
    rho = density_matrix(rho)
    purity = float(np.trace(rho @ rho).real)
    return purity <= 1.0 / (d * d - 1.0) + 1e-12


def min_pt_eigenvalue(rho, d: int) -> float:
    return float(np.linalg.eigvalsh(partial_transpose(density_matrix(rho), d))[0])


def ppt_boundary(
    family: Callable[[float], "TwoQuditState | np.ndarray"],
    bracket: tuple[float, float],
    d: int,
    *,
    xtol: float = 1e-10,
) -> float:
    """Bisect the sign change of min eig rho^PT(t) inside ``bracket``.

    The minimum PT eigenvalue is a sharper sign function near the root than
    the (clipped) negativity.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    f_lo = min_pt_eigenvalue(family(lo), d)
    f_hi = min_pt_eigenvalue(family(hi), d)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if np.sign(f_lo) == np.sign(f_hi):
        raise ValueError(
            f"no sign change of the minimal PT eigenvalue on [{lo}, {hi}] "
            f"(f(lo)={f_lo:.3e}, f(hi)={f_hi:.3e})"
        )
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        f_mid = min_pt_eigenvalue(family(mid), d)
        if f_mid == 0.0:
            return mid
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


def entanglement_report(rho, d: int) -> EntanglementReport:
    rho = density_matrix(rho)
    return EntanglementReport(
        negativity=negativity(rho, d),
        realignment_negativity=realignment_negativity(rho, d),
        reduction_min_eig=reduction_criterion(rho, d),
        gurvits_barnum_separable=gurvits_barnum(rho, d),
        ppt=min_pt_eigenvalue(rho, d) >= -PPT_EIG_TOL,
    )
