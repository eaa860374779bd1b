"""Discord values: exact formulas, universal lower bounds, and the minimizer.

The trace-norm discord is D1 = d/(2(d-1)) min_frames ||S||_1 and the
Hilbert-Schmidt one is D2 = d/(d-1) min_frames tr Q, with S the disturbance
and Q = S S^+.  For correlation matrices proportional to an orthogonal
matrix D2 is exact and frame independent; when the orthogonal matrix defines
a Jordan (anti-)automorphism the spectrum of Q is frame independent too and
D1 comes out in closed form.  Everything else gets the eigenvalue lower
bounds or the multi-start numerical minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .lie_algebra import (
    GellMannBasis,
    build_basis,
    phase_normalize,
    structure_tensors,
)
from .measurement import (
    MeasurementFrame,
    frame_from_unitary,
    off_block_mask,
)
from .states import TwoQuditState

__all__ = [
    "DiscordEstimate",
    "Evaluation",
    "JordanClass",
    "OptimizerConfig",
    "d2_frame_value",
    "smallest_eigenvalue_sum",
    "xi",
    "lower_bounds",
    "d1_exact_automorphism",
    "d1_exact_anti_automorphism",
    "d2_exact_orthogonal",
    "evaluate",
    "closed_form_spectra",
    "jordan_classify",
    "measurement_star_residual",
    "classify_correlation",
    "minimize_d1",
    "minimize_d2",
]

# jordan_classify default: largest max|V^T V - I| accepted as orthogonal.
JORDAN_ORTH_ATOL = 1e-9
# jordan_classify default: largest star/wedge defect that still counts as covariant.
JORDAN_COVARIANCE_TOL = 1e-10
# classify_correlation: K/sqrt(n) norms below this are zero, gram defects above it general.
CLASSIFY_ATOL = 1e-8
# classify_correlation: largest max|C C / d - C| of K/scale's Choi matrix C that is rank one.
CLASSIFY_CHOI_TOL = 1e-8
# smallest_eigenvalue_sum default: a smallest eigenvalue below -PSD_ATOL is not PSD.
PSD_ATOL = 1e-9


@dataclass(frozen=True)
class DiscordEstimate:
    """A discord value with its provenance and optimizer diagnostics.

    For both measures ``nfev`` counts objective calls, rejected line-search
    trials included, though only accepted points take a gradient;
    ``best_residual`` is the winning start's last gradient infinity-norm;
    ``converged`` means the winning start ended its last level by a
    stopping test within ``max_iter`` BFGS iterations, or ended flat while
    another start came within tol of its value, and for D2 also that at
    least two starts came within tol of the best value.
    """

    value: float
    method: str  # analytic | lower_bound | numerical_min
    # the winning frame's phase-normalized unitary; left out of == and hash, as arrays
    # have no truth value and no hash
    U: Optional[np.ndarray] = field(default=None, compare=False)
    best_residual: float = 0.0  # last gradient infinity-norm of the winning start
    converged: bool = False  # see minimize_d1 / minimize_d2
    nfev: int = 0  # objective calls over all starts run
    starts_run: int = 0  # starts run before the multi-start stopped

    @property
    def frame(self) -> Optional[MeasurementFrame]:
        """The winning frame, built from ``U`` by frame_from_unitary on each read."""
        if self.U is None:
            return None
        return frame_from_unitary(build_basis(self.U.shape[0]), self.U)


@dataclass(frozen=True)
class Evaluation:
    """Everything a state's correlation class fixes without the minimizer.

    ``kind`` and ``t`` come from :func:`classify_correlation`.  The Xi lower
    bounds are None unless the state is locally maximally mixed; an exact
    value is None where the class has no closed form.
    """

    kind: str
    t: float
    d2_lower: Optional[float]
    d1_lower: Optional[float]
    d2_exact: Optional[float]
    d1_exact: Optional[float]


@dataclass(frozen=True)
class JordanClass:
    """Star/wedge covariance classification of an orthogonal matrix."""

    kind: str  # automorphism | anti_automorphism | neither
    orthogonality_defect: float
    star_defect: float
    wedge_defect: float
    wedge_sign: int


@dataclass(frozen=True)
class OptimizerConfig:
    starts: int = 32
    seed: int = 0
    tol: float = 1e-10
    max_iter: int = 2000

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError(f"starts must be at least 1, got {self.starts}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ValueError(f"tol must be finite and non-negative, got {self.tol}")


def d2_frame_value(basis: GellMannBasis, K: np.ndarray, frame: MeasurementFrame) -> float:
    """Hilbert-Schmidt objective at one frame: (4/(d^3(d-1))) tr(K K^T M)."""
    d = basis.d
    K = np.asarray(K, dtype=float)
    return 4.0 / (d ** 3 * (d - 1)) * float(np.trace(K @ K.T @ frame.M_real))


def smallest_eigenvalue_sum(A: np.ndarray, m0: int, *, atol: float = PSD_ATOL) -> float:
    """min over rank-m0 orthogonal projectors P of tr(PA): the m0 smallest eigenvalues.

    A must be positive semidefinite and 0 < m0 < n0.
    """
    A = np.asarray(A, dtype=float)
    n0 = A.shape[0]
    if A.shape != (n0, n0):
        raise ValueError("A must be square")
    if not 0 < m0 < n0:
        raise ValueError(f"need 0 < m0 < n0, got m0={m0}, n0={n0}")
    eigs = np.linalg.eigvalsh((A + A.T) / 2.0)
    if eigs[0] < -atol:
        raise ValueError(f"A is not positive semidefinite (min eig {eigs[0]:.3e})")
    return float(np.sum(eigs[:m0]))


def xi(basis: GellMannBasis, K: np.ndarray) -> float:
    """Sum of the d(d-1) smallest eigenvalues of K K^T."""
    K = np.asarray(K, dtype=float)
    if K.shape != (basis.n, basis.n):
        raise ValueError(f"correlation matrix must be {basis.n}x{basis.n}")
    return smallest_eigenvalue_sum(K @ K.T, basis.d * (basis.d - 1))


def lower_bounds(basis: GellMannBasis, K: np.ndarray) -> tuple[float, float]:
    """Universal bounds (D2 >= 4 Xi/(d^3(d-1)), D1 >= sqrt(Xi)/(d(d-1)))."""
    d = basis.d
    value = xi(basis, K)
    return 4.0 * value / (d ** 3 * (d - 1)), math.sqrt(max(value, 0.0)) / (d * (d - 1))


def _check_range(t: float, lo: float, hi: float, what: str) -> None:
    if not (lo - 1e-12 <= t <= hi + 1e-12):
        raise ValueError(f"t={t} outside the physical range [{lo}, {hi}] for {what}")


def d1_exact_automorphism(d: int, t: float) -> float:
    """D1 = |t| for K = t R(U); physical for t in [-d/(2(d-1)), d/(2(d+1))]."""
    _check_range(t, -d / (2.0 * (d - 1)), d / (2.0 * (d + 1)), "the automorphism class")
    return abs(t)


def d1_exact_anti_automorphism(d: int, t: float) -> float:
    """D1 = (2/d)|t| for K = t T; physical for t in [-d/(2(d^2-1)), d/2]."""
    _check_range(t, -d / (2.0 * (d * d - 1)), d / 2.0, "the anti-automorphism class")
    return 2.0 * abs(t) / d


def d2_exact_orthogonal(d: int, t: float) -> float:
    """D2 = 4 t^2 / d^2 for K = t V0 with any orthogonal V0 (frame independent)."""
    if abs(t) > d / 2.0 + 1e-12:
        raise ValueError(f"|t|={abs(t)} exceeds the correlation ball radius d/2")
    return 4.0 * t * t / (d * d)


def closed_form_spectra(d: int, t: float) -> dict[str, list[tuple[float, int]]]:
    """Eigenvalue/multiplicity lists of the fixed operators behind the exact values.

    Keys: 'L' for sum_k g_{k^2-1} x g_{k^2-1}; 'KL' for the transposition-
    dressed (d-2) sum_j g_j x g_j^T plus L; 'q_auto' / 'q_anti' for Q at the
    canonical frame in the automorphism / anti-automorphism classes.  The
    leading q_anti eigenvalue is 4 t^2 (d-1)^2 / d^4, the value consistent
    with tr Q and with tr sqrt(Q) = 4(d-1)|t|/d^2.
    """
    spec_L = [(2.0 * (d - 1) / d, d), (-2.0 / d, d * (d - 1))]
    spec_KL = [
        (2.0 * (d * d * (d - 2) + 1) / d, 1),
        (-2.0 * (d - 1) / d, d * (d - 1)),
        (2.0 / d, d - 1),
    ]
    base = t * t / d ** 4
    spec_qa = [(4.0 * base, d * (d - 1)), (0.0, d)]
    spec_qaa = [
        (4.0 * base * (d - 1) ** 2, 1),
        (4.0 * base, d - 1),
        (0.0, d * (d - 1)),
    ]
    return {"L": spec_L, "KL": spec_KL, "q_auto": spec_qa, "q_anti": spec_qaa}


def _rotate_tensor(T: np.ndarray, V: np.ndarray) -> np.ndarray:
    """sum_jkl T_jkl V_ja V_kb V_lc, one matmul per index.

    Each pass contracts the leading index with V and moves the new index to
    the back, so after three passes the indices are back in order.
    """
    n = V.shape[0]
    for _ in range(3):
        T = (V.T @ T.reshape(n, n * n)).reshape(n, n, n).transpose(1, 2, 0)
    return T


def jordan_classify(
    basis: GellMannBasis, V: np.ndarray, *,
    atol: float = JORDAN_ORTH_ATOL, tol: float = JORDAN_COVARIANCE_TOL,
) -> JordanClass:
    """Classify an orthogonal V by its star/wedge covariance.

    automorphism: V(a*b) = Va*Vb and V(a^b) = Va^Vb on all pairs;
    anti_automorphism: star covariant, wedge anti-covariant; else neither.
    With d_V and f_V the V-transformed dhat and fhat, the defects are
    max|V^T V - I|, max|d_V - dhat| and max|f_V -+ fhat|.
    """
    n = basis.n
    V = np.asarray(V, dtype=float)
    if V.shape != (n, n):
        raise ValueError(f"V must be {n}x{n}")
    orth = float(np.max(np.abs(V.T @ V - np.eye(n))))
    if orth > atol:
        raise ValueError(f"V is not orthogonal (defect {orth:.3e})")
    t = structure_tensors(basis)
    if np.max(np.abs(V - np.diag(np.diag(V)))) == 0.0:
        s = np.diag(V)
        scale = s[:, None, None] * s[None, :, None] * s[None, None, :]
        d_t, f_t = t.dhat * scale, t.fhat * scale
    else:
        d_t, f_t = _rotate_tensor(t.dhat, V), _rotate_tensor(t.fhat, V)
    star_defect = float(np.max(np.abs(d_t - t.dhat)))
    plus = float(np.max(np.abs(f_t - t.fhat)))
    minus = float(np.max(np.abs(f_t + t.fhat)))
    if star_defect < tol and plus < tol:
        return JordanClass("automorphism", orth, star_defect, plus, +1)
    if star_defect < tol and minus < tol:
        return JordanClass("anti_automorphism", orth, star_defect, minus, -1)
    wedge_sign = +1 if plus <= minus else -1
    return JordanClass("neither", orth, star_defect, min(plus, minus), wedge_sign)


def measurement_star_residual(
    basis: GellMannBasis, signs, frame: MeasurementFrame
) -> float:
    """max-norm of sum_k (I M I e_k) * e_k for a diagonal sign matrix I.

    Vanishes for every frame exactly when the sign matrix defines a Jordan
    automorphism.
    """
    n = basis.n
    t = structure_tensors(basis)
    s = np.asarray(signs, dtype=float).reshape(n)
    imi = s[:, None] * frame.M_real * s[None, :]
    traces = t.dhat.reshape(n, n * n) @ imi.ravel()
    return float(basis.dprime * np.max(np.abs(traces)))


def _rank_one(C: np.ndarray, d: int) -> bool:
    """Whether the Hermitian Choi matrix C of trace d is d times a rank-one projector."""
    return float(np.max(np.abs(C @ C / d - C))) < CLASSIFY_CHOI_TOL


def classify_correlation(
    basis: GellMannBasis, K: np.ndarray, *, atol: float = CLASSIFY_ATOL
) -> tuple[str, float]:
    """Detect the exactly-solvable structure of a correlation matrix.

    Returns (kind, t) with kind one of 'zero', 'automorphism',
    'anti_automorphism', 'orthogonal' (t V0 without Jordan structure) or
    'general'.  The Jordan kinds fix the sign of t; the bare orthogonal kind
    reports t = ||K||_F / sqrt(d^2-1) > 0.

    V = K/scale is the unital, trace-preserving map g_k -> sum_j V_jk g_j on
    M_d, with superoperator (1/d)|I><I| + G^T V conj(G)/2 (G = basis.flat).
    Its realigned Choi matrix C = I/d + P is Hermitian with trace d, and V
    is R(U), X -> U X U^+, exactly when C has rank one, C C = d C (Choi;
    Skolem-Noether for the Jordan automorphisms of M_d).  V is an
    anti-automorphism, X -> U X^T U^+, exactly when V diag(s) is R(U) for
    the transposition signs s; that map's Choi matrix is the partial
    transpose of C.  C is linear in V, so -V has C = I/d - P.  The order
    +t auto, +t anti, -t auto, -t anti decides ties, and the tests stop at
    the first rank-one C.
    """
    K = np.asarray(K, dtype=float)
    d, n = basis.d, basis.n
    scale = float(np.linalg.norm(K)) / math.sqrt(n)
    if scale < atol:
        return "zero", 0.0
    gram_defect = np.max(np.abs(K @ K.T / scale ** 2 - np.eye(n)))
    if gram_defect > atol:
        return "general", 0.0
    G = basis.flat
    phi = 0.5 * (G.T @ ((K / scale) @ G.conj()))
    P = phi.reshape(d, d, d, d).transpose(0, 2, 1, 3)
    eye = np.eye(d * d) / d
    auto = P.reshape(d * d, d * d)
    anti = P.transpose(0, 3, 2, 1).reshape(d * d, d * d)
    for t, sign in ((scale, 1.0), (-scale, -1.0)):
        if _rank_one(eye + sign * auto, d):
            return "automorphism", t
        if _rank_one(eye + sign * anti, d):
            return "anti_automorphism", t
    return "orthogonal", scale


def evaluate(state: TwoQuditState) -> Evaluation:
    """Classify the correlation matrix once and read off its bounds and exact values.

    D2 is exact for every kind but 'general', D1 for the Jordan kinds and
    'zero'.  The minimizer is not run: see :func:`minimize_d1` and
    :func:`minimize_d2`.
    """
    d = state.d
    basis = build_basis(d)
    kind, t = classify_correlation(basis, state.K)
    d2_lower = d1_lower = None
    if state.is_lmm:
        d2_lower, d1_lower = lower_bounds(basis, state.K)
    d2_exact = d1_exact = None
    if kind in ("automorphism", "anti_automorphism", "orthogonal", "zero"):
        d2_exact = d2_exact_orthogonal(d, t)
    if kind == "automorphism":
        d1_exact = d1_exact_automorphism(d, t)
    elif kind == "anti_automorphism":
        d1_exact = d1_exact_anti_automorphism(d, t)
    elif kind == "zero":
        d1_exact = 0.0
    return Evaluation(kind, t, d2_lower, d1_lower, d2_exact, d1_exact)


# --- numerical minimization over frames --------------------------------------

# minimize_d1's smoothing: mu starts at this share of mean|lambda(R)| at the start frame
D1_MU0_SHARE = 0.05
# and is divided by 10 per level down to this floor, which is the last level.
D1_MU_FLOOR = 1e-12
# _bfgs stops at this gradient infinity-norm, or when a step lowers (or its
# line search can still lower) the value by at most FTOL * max(|value|, 1).
GTOL = 1e-14
FTOL = 1e-16
# _bfgs accepts a trial step that lowers the value by at least this share of the
# decrease its directional derivative predicts (the Armijo test).
ARMIJO = 1e-4
# _minimize: start values within this of the best are ties, and ties keep the earlier start.
TIE_WINDOW = 1e-12


class _Point(NamedTuple):
    """One call of the chart: what the value and the gradient at its frame need."""

    U: np.ndarray  # the frame U0 exp(i <theta, g>)
    KtR: np.ndarray  # (U x I)^+ rho
    R: np.ndarray  # the disturbance R = ((U x I)^+ rho (U x I)) o mask
    lam: Optional[np.ndarray]  # D1: eigenvalues of R
    Q: Optional[np.ndarray]  # D1: their eigenvectors
    value: float  # the objective: pref1 sum |lam| (D1) or pref2 ||R||_F^2 (D2)


def _chart(basis: GellMannBasis, state: TwoQuditState, measure: str):
    """The D1 or D2 objective in the chart U = U0 exp(i <theta, g>): (at, smoothed, gradient).

    ``measure`` is "d1" or "d2".  ``at(theta, U0)`` is one objective call.
    It gets <theta, g> = V diag(w) V^+ from np.linalg.eigh,
    U = U0 V diag(exp(iw)) V^+, K^+ rho and R = (K^+ rho K) o mask with
    K = U x I.  Both norms are unitarily invariant, so the disturbance is
    never rotated back and no frame is built.  D2's value is pref2 ||R||_F^2;
    D1 takes the eigenpairs of R from a second np.linalg.eigh for
    pref1 sum |lambda|.  A failed eigensolve, as for a non-finite theta,
    raises np.linalg.LinAlgError.

    ``smoothed(point, mu)`` is D1's smoothed value pref1 sum
    sqrt(lambda^2 + mu^2); D2 is smooth already, so it ignores mu and gives
    the value.  ``gradient(point, mu)`` is the gradient of that value in the
    chart whose origin is the point's own frame, at theta = 0.  There
    d exp = i <dtheta, g>, so the value changes by 2 pref Re tr(X U i <dtheta, g>)
    with X = tr_B(W K^+ rho), and the gradient is -2 pref Im tr(g_m X U).
    D1 has W = (Q diag(lambda / sqrt(lambda^2 + mu^2)) Q^+) o mask, D2 W = 2R.
    """
    d = basis.d
    d2, d3 = d * d, d ** 3
    flat = basis.flat
    # the g_m are Hermitian, so (flat_conj @ vec(Z))_m = tr(g_m Z)
    flat_conj = flat.conj()
    rho_rows = np.ascontiguousarray(state.rho, dtype=complex).reshape(d, d3)
    mask = off_block_mask(d)
    d1 = measure == "d1"
    pref = d / (2.0 * (d - 1)) if d1 else d / (d - 1.0)

    def at(theta: np.ndarray, U0: np.ndarray) -> _Point:
        w, V = np.linalg.eigh((theta @ flat).reshape(d, d))
        U = ((U0 @ V) * np.exp(1j * w)) @ V.conj().T
        Ut = U.conj().T
        # (U^+ x I) X mixes the row blocks of X: one (d, d) by (d, d^3) product,
        # applied to rho and then to (K^+ rho)^+ = rho K
        KtR = (Ut @ rho_rows).reshape(d2, d2)
        R = (Ut @ KtR.conj().T.reshape(d, d3)).reshape(d2, d2) * mask
        if not d1:
            return _Point(U, KtR, R, None, None, pref * float(np.vdot(R, R).real))
        lam, Q = np.linalg.eigh(R)
        return _Point(U, KtR, R, lam, Q, pref * float(np.abs(lam).sum()))

    def smoothed(p: _Point, mu: Optional[float]) -> float:
        if not d1:
            return p.value
        return pref * float(np.hypot(p.lam, mu).sum())

    def gradient(p: _Point, mu: Optional[float]) -> np.ndarray:
        if d1:
            W = ((p.Q * (p.lam / np.hypot(p.lam, mu))) @ p.Q.conj().T) * mask
        else:
            W = 2.0 * p.R
        # W is zero on the diagonal A-blocks, as R is;
        # tr_B(W K^+ rho)[a, c] = sum_{b, k} W[(a b), k] KtR[k, (c b)]
        X = W.reshape(d, d3) @ p.KtR.reshape(d2, d, d).transpose(2, 0, 1).reshape(d3, d)
        return -2.0 * pref * (flat_conj @ (X @ p.U).ravel()).imag

    return at, smoothed, gradient


def _bfgs(value, gradient, start, budget: int, H=None):
    """Dense BFGS in a chart that follows its accepted point (Nocedal & Wright,
    Numerical Optimization, Alg. 6.1).

    ``start`` is (f, g, p): the value, the gradient and the point to start
    from.  ``value(p, s)`` returns (f, q): the value at the point q that the
    step s reaches from p, in p's chart; ``gradient(q)`` is q's gradient in
    its own chart.  Only accepted points get a gradient, and y = g_new - g
    compares gradients in the charts of their own points.  ``H`` is the
    inverse Hessian to start from; while it is None a step runs along -g,
    starting at unit length, and the first step with s.y > 0 seeds H as
    (s.y / y.y) I.  H takes the BFGS update only on steps with s.y > 0, so
    it stays positive definite.  A trial step t along d is accepted when
    f(p + t d) <= f + ARMIJO t g.d; otherwise t becomes the minimizer of the
    quadratic through f, g.d and the trial value, clipped to [0.1 t, 0.5 t]
    (ibid., section 3.5).

    The loop stops when the gradient infinity-norm is at most GTOL, when
    an accepted step lowers the value by at most FTOL * max(|f|, 1), when
    the line search fails (the decrease -t g.d predicts is at most that
    bound, as it is at once for a d that is no descent direction), or after
    ``budget`` iterations.  Returns the last accepted point, its gradient,
    the iterations made and H.
    """
    f, g, p = start
    nit = 0
    while nit < budget and abs(g).max() > GTOL:
        d = -g if H is None else -(H @ g)
        slope = float(g @ d)
        floor = FTOL * max(abs(f), 1.0)
        t = 1.0 / math.sqrt(-slope) if H is None else 1.0
        while True:
            if -t * slope <= floor:
                return p, g, nit, H
            s = t * d
            f_new, p_new = value(p, s)
            if f_new <= f + ARMIJO * t * slope:
                break
            t = min(max(-0.5 * slope * t * t / (f_new - f - slope * t), 0.1 * t), 0.5 * t)
        g_new = gradient(p_new)
        y = g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            if H is None:
                H = sy / float(y @ y) * np.eye(g.size)
            Hy = H @ y
            # H <- (I - s y^T / sy) H (I - y s^T / sy) + s s^T / sy, as u s^T + s u^T
            u = ((0.5 + 0.5 * float(y @ Hy) / sy) * s - Hy) / sy
            us = u[:, None] * s
            H = H + us + us.T
        nit += 1
        decrease = f - f_new
        p, f, g = p_new, f_new, g_new
        if decrease <= floor:
            break
    return p, g, nit, H


def _minimize(search, n: int, config: OptimizerConfig):
    """Seeded multi-start loop; stops early once the objective is frame-constant.

    Start 0 is the frame U = I, start s > 0 the frame exp(i <theta0, g>)
    with theta0 = 0.8 * standard_normal(n) from default_rng([seed, s]).
    ``search(theta0)`` runs one start and returns (value, value at the
    start, result).  A value wins only if it is below the best by more than
    TIE_WINDOW, so ties keep the earlier start.

    A start is flat when its search lowered the objective by at most tol,
    which includes a start whose first level took no step.  Two flat starts
    that agree within tol have seen no variation around two different
    frames, so the remaining starts are skipped: a frame-constant objective
    costs 2 objective calls.  An objective that varies runs every start, and
    tol = 0 never stops early.  Returns (value, result) of the winning
    start, the values every start reached and the number of starts run.
    """
    best = None  # (value, result)
    values: list[float] = []
    flat_values: list[float] = []
    for s in range(config.starts):
        if s == 0:
            theta0 = np.zeros(n)
        else:
            rng = np.random.default_rng([config.seed, s])
            theta0 = 0.8 * rng.standard_normal(n)
        value, f0, result = search(theta0)
        values.append(value)
        if best is None or value < best[0] - TIE_WINDOW:
            best = (value, result)
        if config.tol > 0 and f0 - value <= config.tol:
            if any(abs(value - other) <= config.tol for other in flat_values):
                break
            flat_values.append(value)
    return best, values, len(values)


def _minimize_in_chart(state: TwoQuditState, config: OptimizerConfig, measure: str):
    """Multi-start BFGS of the D1 or D2 objective of :func:`_chart`.

    Each start begins at its frame from :func:`_minimize`.  D1 runs levels
    of smoothing: the first has mu = D1_MU0_SHARE * mean|lambda(R)| at the
    start frame (at least D1_MU_FLOOR), and each later one a tenth of the
    last, down to D1_MU_FLOOR, the last level.  D2 needs no smoothing and
    runs one level.  Each level is one :func:`_bfgs` run whose chart
    follows its accepted points, and the inverse Hessian carries from
    level to level.  A start whose first level takes no step (its gradient
    is at most GTOL at the start frame, as for every frame of a
    Jordan-class state) ends after that one call.  ``max_iter`` caps the
    BFGS iterations of a start, summed over its levels.

    A start's result is the lowest true objective it saw, the start frame
    included, so the returned value is the objective at the returned frame.
    ``nfev`` counts objective calls, ``best_residual`` is the winning
    start's last gradient infinity-norm, and ``converged`` means the winning
    start ended its last level by a stopping test within max_iter, or ended
    flat while another start came within tol of its value.  Returns that
    estimate and whether at least two starts came within tol of the best.
    """
    basis = build_basis(state.d)
    at, smoothed, gradient = _chart(basis, state, measure)
    eye = np.eye(basis.d, dtype=complex)
    nfev = 0

    def search(theta0: np.ndarray):
        nonlocal nfev
        p = at(theta0, eye)
        nfev += 1
        best = [p.value, p.U]  # the lowest true value seen, and its frame
        mu = None
        if measure == "d1":
            mu = max(D1_MU0_SHARE * float(np.abs(p.lam).mean()), D1_MU_FLOOR)

        def trial(p: _Point, s: np.ndarray):
            nonlocal nfev
            q = at(s, p.U)
            nfev += 1
            if q.value < best[0]:
                best[:] = q.value, q.U
            return smoothed(q, mu), q

        f0, budget, H = p.value, config.max_iter, None
        while True:
            start = (smoothed(p, mu), gradient(p, mu), p)
            p, g, nit, H = _bfgs(trial, lambda q: gradient(q, mu), start, budget, H)
            residual = float(abs(g).max())
            flat = nit == 0 and budget == config.max_iter  # the first level took no step
            finished, budget = nit < budget and not flat, budget - nit
            if not finished or mu is None or mu == D1_MU_FLOOR:
                return best[0], f0, (best[1], residual, finished, flat)
            mu = max(mu / 10.0, D1_MU_FLOOR)

    (value, (U, residual, finished, flat)), values, starts_run = _minimize(
        search, basis.n, config)
    agree = sum(v <= value + config.tol for v in values) >= 2
    estimate = DiscordEstimate(
        value=float(value),
        method="numerical_min",
        U=phase_normalize(U),
        best_residual=residual,
        converged=finished or (flat and agree),
        nfev=nfev,
        starts_run=starts_run,
    )
    return estimate, agree


def minimize_d1(state: TwoQuditState, config: OptimizerConfig | None = None) -> DiscordEstimate:
    """Multi-start smoothed BFGS minimization of the trace-norm objective.

    The D1 objective pref1 sum |lambda(R)| is smoothed to
    pref1 sum sqrt(lambda^2 + mu^2) (Nesterov 2005) and minimized by
    :func:`_minimize_in_chart` with the exact gradient of :func:`_chart`, in
    the chart U = U0 exp(i <theta, g>) over all n generators, whose origin
    U0 follows every accepted step, through smoothing levels from
    mu = D1_MU0_SHARE * mean|lambda(R)| down to D1_MU_FLOOR.  The value is
    the lowest true objective seen, at the returned frame: an upper bound on
    the discord that equals it when the search converges globally,
    deterministic for a fixed seed.  ``nfev`` counts objective calls; only
    accepted steps also take a gradient.  ``best_residual`` is the winning start's last gradient infinity-norm;
    ``converged`` means the winning start ended its last level by a
    stopping test within max_iter, or ended flat while another start came
    within tol of its value.  A flat start alone is not converged: its frame
    is stationary, which a saddle is too.  Non-convergence is reported,
    never hidden by suppressing the value.
    """
    return _minimize_in_chart(state, config or OptimizerConfig(), "d1")[0]


def minimize_d2(state: TwoQuditState, config: OptimizerConfig | None = None) -> DiscordEstimate:
    """Multi-start BFGS minimization of the Hilbert-Schmidt objective.

    The D2 objective pref2 ||R||_F^2 is smooth, so :func:`_minimize_in_chart`
    runs it in one level, with the engine and the reporting of
    :func:`minimize_d1`: the value is the lowest objective seen, at the
    returned frame; ``nfev`` counts objective calls; ``best_residual`` is the
    winning start's last gradient infinity-norm.  ``converged`` also needs
    at least two starts within tol of the best value, so one start never
    counts as converged; U = I is a stationary frame of some states (the
    Bell-diagonal pairs), where a lone start ends flat above the minimum.
    """
    estimate, agree = _minimize_in_chart(state, config or OptimizerConfig(), "d2")
    return replace(estimate, converged=estimate.converged and agree)
