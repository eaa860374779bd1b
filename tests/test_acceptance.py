"""Acceptance suite: one test per numbered criterion, printed pass lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from quditdiscord import classify as cl
from quditdiscord import discord as dc
from quditdiscord import entanglement as ent
from quditdiscord import lie_algebra as la
from quditdiscord import measurement as ms
from quditdiscord import states as st

SQ2, SQ3 = math.sqrt(2.0), math.sqrt(3.0)


def _report(number: int, text: str) -> None:
    print(f"[criterion {number:02d}] PASS {text}")


@pytest.fixture(scope="module")
def class_report():
    return cl.classification_report(la.build_basis(3))


def test_criterion_01_algebra_suite():
    for d in (3, 4, 5):
        basis = la.build_basis(d)
        tensors = la.structure_tensors(basis)
        g = basis.generators
        assert np.max(np.abs(np.einsum("jaa->j", g))) < 1e-12
        gram = np.einsum("jab,kba->jk", g, g)
        assert np.max(np.abs(gram - 2.0 * np.eye(basis.n))) < 1e-12
        assert np.max(np.abs(np.einsum("jkk->j", tensors.dhat))) < 1e-12
        res = la.star_sum_criterion(tensors, np.eye(basis.n), np.eye(basis.n))
        assert np.max(np.abs(res.residual)) < 1e-12
        diag_sq = sum(g[i - 1] @ g[i - 1] for i in basis.diagonal_indices)
        assert np.max(np.abs(diag_sq - 2.0 * (d - 1) / d * np.eye(d))) < 1e-12
    _report(1, "algebra identities for d = 3, 4, 5 within 1e-12")


def test_criterion_02_covariance():
    for d in (3, 4):
        basis = la.build_basis(d)
        tensors = la.structure_tensors(basis)
        n = basis.n
        rng = np.random.default_rng([2024, d])
        worst = 0.0
        for k in range(100):
            R = la.adjoint_rep(basis, la.random_special_unitary(d, [2024, d, k]))
            a, b = rng.standard_normal(n), rng.standard_normal(n)
            worst = max(
                worst,
                float(np.max(np.abs(
                    R @ la.star(tensors, a, b) - la.star(tensors, R @ a, R @ b)))),
                float(np.max(np.abs(
                    R @ la.wedge(tensors, a, b) - la.wedge(tensors, R @ a, R @ b)))),
            )
            lhs_d = np.stack([R.T @ tensors.dhat[j] @ R for j in range(n)])
            lhs_f = np.stack([R.T @ tensors.fhat[j] @ R for j in range(n)])
            worst = max(
                worst,
                float(np.max(np.abs(lhs_d - np.einsum("jk,kab->jab", R, tensors.dhat)))),
                float(np.max(np.abs(lhs_f - np.einsum("jk,kab->jab", R, tensors.fhat)))),
            )
        assert worst < 1e-10
    _report(2, "star/wedge covariance and tensor transport, 100 frames, d = 3, 4")


def test_criterion_03_path_equivalence():
    for d in (3, 4):
        basis = la.build_basis(d)
        n = basis.n
        rng = np.random.default_rng([3, d])
        worst = 0.0
        for k in range(50):
            frame = ms.random_frame(basis, [3, d, k])
            K = rng.standard_normal((n, n))
            S = ms.disturbance_from_vectors(basis, np.zeros(n), K, frame)
            worst = max(worst, float(np.max(np.abs(
                ms.q_expansion(basis, K, frame) - ms.q_matrix(S)))))
            t = float(rng.uniform(-1.0, 1.0))
            V0 = la.random_orthogonal(n, [3, d, k, 1])
            S0 = ms.disturbance_from_vectors(basis, np.zeros(n), t * V0, frame)
            worst = max(worst, float(np.max(np.abs(
                ms.q_orthogonal(basis, t, V0, frame) - ms.q_matrix(S0)))))
        assert worst < 1e-10
    _report(3, "expansion and orthogonal closed form equal S S^+, 50 pairs, d = 3, 4")


def test_criterion_04_automorphism_spectrum():
    rng = np.random.default_rng(4)
    for d in (3, 4, 5):
        basis = la.build_basis(d)
        t = float(rng.uniform(0.05, 0.45)) * (1 if d % 2 else -1)
        frame0 = ms.canonical_frame(basis)
        S = ms.disturbance_from_vectors(
            basis, np.zeros(basis.n), t * np.eye(basis.n), frame0)
        eigs = np.sort(np.linalg.eigvalsh(ms.q_matrix(S)))
        expected = np.sort([0.0] * d + [4 * t * t / d ** 4] * (d * (d - 1)))
        assert np.max(np.abs(eigs - expected)) < 1e-10
        trace_sqrt = ms.trace_norm_hermitian(S)
        assert abs(trace_sqrt - 2.0 * (d - 1) * abs(t) / d) < 1e-10
    _report(4, "sigma(Q_auto(M0)) and tr sqrt Q = 2(d-1)|t|/d for d = 3, 4, 5")


def test_criterion_05_anti_automorphism_spectrum():
    rng = np.random.default_rng(5)
    for d in (3, 4, 5):
        basis = la.build_basis(d)
        t = float(rng.uniform(0.05, 0.45))
        I0 = np.diag(st.transposition_signs(basis))
        frame0 = ms.canonical_frame(basis)
        S = ms.disturbance_from_vectors(basis, np.zeros(basis.n), t * I0, frame0)
        eigs = np.sort(np.linalg.eigvalsh(ms.q_matrix(S)))
        base = t * t / d ** 4
        expected = np.sort(
            [0.0] * (d * (d - 1)) + [4 * base] * (d - 1) + [4 * base * (d - 1) ** 2]
        )
        assert np.max(np.abs(eigs - expected)) < 1e-10
        assert abs(
            ms.trace_norm_hermitian(S) - 4.0 * (d - 1) * abs(t) / d ** 2
        ) < 1e-10
    _report(5, "sigma(Q_anti(M0)) trace-corrected and tr sqrt Q = 4(d-1)|t|/d^2")


def test_criterion_06_frame_invariance():
    for d in (3, 4):
        basis = la.build_basis(d)
        n = basis.n
        I0 = np.diag(st.transposition_signs(basis))
        V = la.adjoint_rep(basis, la.random_special_unitary(d, [6, d]))
        t = 0.19
        for K in (t * V, t * V @ I0):
            values = []
            for k in range(50):
                frame = ms.random_frame(basis, [6, d, k])
                S = ms.disturbance_from_vectors(basis, np.zeros(n), K, frame)
                values.append(ms.trace_norm_hermitian(S))
            assert max(values) - min(values) < 1e-10
    _report(6, "tr sqrt Q constant over 50 frames, both closed classes, d = 3, 4")


def test_criterion_07_discord_values():
    basis = la.build_basis(3)
    config = dc.OptimizerConfig(starts=32, seed=0)
    started = time.monotonic()
    for p in (0.2, 0.5, 1.0):
        state = st.isotropic(basis, p)
        kind, t = dc.classify_correlation(basis, state.K)
        assert kind == "anti_automorphism"
        analytic = dc.d1_exact_anti_automorphism(3, t)
        assert abs(analytic - p) < 1e-12
        numeric = dc.minimize_d1(state, config)
        assert abs(numeric.value - p) < 1e-6
        assert abs(analytic - numeric.value) < 1e-6
    bell = dc.minimize_d1(st.bell_projector(basis, (0, 0)), config)
    assert abs(bell.value - 1.0) < 1e-6
    assert abs(dc.d1_exact_anti_automorphism(3, 1.5) - 1.0) < 1e-12
    elapsed = time.monotonic() - started
    # D2 is exact and frame independent for orthogonal correlation matrices
    signs = np.ones(8)
    signs[7] = -1.0
    for t in (0.2, -0.3):
        state = st.sign_class_state(basis, signs, t)
        est = dc.minimize_d2(state, dc.OptimizerConfig(starts=4, seed=0))
        assert abs(est.value - 4 * t * t / 9.0) < 1e-10
    assert elapsed < 60.0, f"numerical D1 path took {elapsed:.1f}s"
    _report(7, f"isotropic/Bell discord values, numerical path {elapsed:.1f}s < 60s")


def test_criterion_08_werner_resolution():
    """Both computation paths give |t|; the reference (2/3)|t| is not reproduced."""
    basis = la.build_basis(3)
    for t in (-0.5, 0.3):
        state = st.class_a_state(basis, np.eye(3, dtype=complex), t)
        analytic = dc.d1_exact_automorphism(3, t)
        assert abs(analytic - abs(t)) < 1e-12
        numeric = dc.minimize_d1(state, dc.OptimizerConfig(starts=32, seed=1))
        assert abs(numeric.value - abs(t)) < 1e-8
        alternative = 2.0 * abs(t) / 3.0
        assert abs(numeric.value - alternative) > 0.05  # (2/3)|t| not reproduced
    _report(8, "Werner-class D1 = |t| on both paths; (2/3)|t| not reproduced")


def test_criterion_09_projection_minimum_oracle():
    rng = np.random.default_rng(9)
    for a_idx in range(20):
        m = rng.standard_normal((8, 8))
        A = m @ m.T
        bound = dc.smallest_eigenvalue_sum(A, 6)
        _, vecs = np.linalg.eigh(A)
        popt = vecs[:, :6] @ vecs[:, :6].T
        assert abs(np.trace(popt @ A) - bound) < 1e-10
        for k in range(50):
            q, _ = np.linalg.qr(
                np.random.default_rng([9, a_idx, k]).standard_normal((8, 6))
            )
            P = q @ q.T
            assert np.trace(P @ A) >= bound - 1e-10
    _report(9, "projection minimum = smallest-eigenvalue sum, 20 x 50 projectors")


def test_criterion_10_mixture_fixtures():
    basis = la.build_basis(3)
    rng = np.random.default_rng(10)
    for _ in range(10):
        pa = float(rng.uniform(0, 1))
        pb = 1.0 - pa
        state = st.bell_diagonal(basis, {(0, 0): pa, (2, 2): pb})
        eigs = np.sort(np.linalg.eigvalsh(state.K @ state.K.T))
        expected = np.sort([2.25] * 2 + [2.25 * (1 - 3 * pa * pb)] * 6)
        assert np.max(np.abs(eigs - expected)) < 1e-8
        assert abs(dc.xi(basis, state.K) - 13.5 * (1 - 3 * pa * pb)) < 1e-8
        assert abs(
            ent.negativity(state.rho, 3) - math.sqrt(1 - 3 * pa * pb)
        ) < 1e-8
        p = rng.dirichlet(np.ones(3))
        line = st.bell_diagonal(basis, {(0, 0): p[0], (1, 1): p[1], (2, 2): p[2]})
        gap = sum((p[i] - p[j]) ** 2 for i in range(3) for j in range(i + 1, 3))
        eigs = np.sort(np.linalg.eigvalsh(line.K @ line.K.T))
        expected = np.sort([2.25] * 2 + [1.125 * gap] * 6)
        assert np.max(np.abs(eigs - expected)) < 1e-8
        assert abs(dc.xi(basis, line.K) - 6.75 * gap) < 1e-8
        assert abs(ent.negativity(line.rho, 3) - math.sqrt(gap / 2.0)) < 1e-8
    _report(10, "pair/line correlation spectra, Xi, and negativity on 10 draws")


def test_criterion_11_isospectral_classes(class_report):
    assert len(class_report.all_classes) == 16
    assert class_report.class_sizes == {
        "E1": 32, "E2": 16, "E3": 16, "E4": 28, "E5": 12, "E6": 16, "E7": 4, "E8": 4,
    }
    classes = class_report.classes
    assert np.max(np.abs(np.array(classes["E3"].t_range) - (-0.75, 0.375))) < 1e-9
    assert np.max(np.abs(np.array(classes["E7"].t_range) - (-3 / 16, 1.5))) < 1e-9
    e8 = (-3.0 / (6 * SQ3 + 2), 3.0 / (6 * SQ3 - 2))
    assert np.max(np.abs(np.array(classes["E8"].t_range) - e8)) < 1e-9
    assert abs(classes["E6"].t_range[0] - (-0.3163)) < 1e-3
    assert abs(classes["E6"].t_range[1] - 0.3404) < 1e-3
    _report(11, "16 classes pairing to 8 with reference counts and t-ranges")


def test_criterion_12_ppt_boundaries(class_report):
    classes = class_report.classes
    e1_special = [
        o for o in classes["E1"].orbits
        if cl.SignMatrix((1,) * 7 + (-1,)) in o.members
    ][0]
    assert abs(e1_special.ppt_range[0] - (-3.0 / (2 + 6 * SQ3))) < 1e-6
    for o in classes["E1"].orbits:
        if o is not e1_special:
            assert abs(o.ppt_range[1] - 3.0 / (4 + 6 * SQ2)) < 1e-6
    for o in classes["E2"].orbits:
        assert abs(o.ppt_range[0] - (-0.316)) < 1e-3
    e3 = {str(o.representative): o for o in classes["E3"].orbits}
    assert abs(e3["++++++++"].ppt_range[0] - (-3.0 / 16.0)) < 1e-6
    for rep, o in e3.items():
        if rep != "++++++++":
            assert abs(o.ppt_range[0] - (-0.3)) < 1e-6
    for o in classes["E6"].orbits:
        assert abs(o.ppt_range[1] - 0.3) < 1e-6
        assert abs(classes["E6"].t_range[1] - 0.3404) < 1e-3  # NPPT up to t2
    e8 = classes["E8"].orbits[0]
    assert abs(e8.ppt_range[1] - 0.3) < 1e-6
    assert abs(classes["E8"].t_range[1] - 3.0 / (6 * SQ3 - 2)) < 1e-6
    assert abs(classes["E7"].orbits[0].ppt_range[1] - 0.375) < 1e-6
    _report(12, "PPT boundaries: closed forms to 1e-6, numeric-only to 1e-3")


def test_criterion_13_zero_negativity_classes(class_report):
    basis = la.build_basis(3)
    g = basis.generators
    for cid in ("E4", "E5"):
        rec = class_report.classes[cid]
        for orbit in rec.orbits:
            assert orbit.realignment_max < 1e-9
            lo, hi = rec.t_range
            C = sum(s * np.kron(g[k], g[k])
                    for k, s in enumerate(orbit.representative.vector))
            for t in np.linspace(lo, hi, 50):
                rho = (np.eye(9) + t * C) / 9.0
                assert ent.negativity(rho, 3) < 1e-9
    _report(13, "E4/E5 negativity and realignment negativity < 1e-9 on 50-pt grids")


def test_criterion_14_jordan_classification():
    """Exactly 8 Jordan-good matrices; residual criterion in both directions.

    The star-sum residual is quadratic in the sign matrix, so the 8 overall-
    sign images of the good matrices share their (identically zero) residual;
    the witness search covers every other sign matrix, and the images are
    verified to classify as non-automorphisms and to be exact negations.
    """
    basis = la.build_basis(3)
    autos, antis = cl.jordan_good_matrices(basis)
    assert len(autos) == 4 and len(antis) == 4
    auto_set = {str(a) for a in autos}
    assert "++++++++" in auto_set
    I0 = cl.SignMatrix(tuple(int(s) for s in st.transposition_signs(basis)))
    assert I0 in set(antis)
    good = set(autos + antis)
    frames100 = [ms.random_frame(basis, [14, k]) for k in range(100)]
    for sm in good:
        worst = max(
            dc.measurement_star_residual(basis, sm.vector, f) for f in frames100
        )
        assert worst < 1e-10
    negated = {cl.SignMatrix(tuple(-s for s in sm.signs)) for sm in good}
    frames200 = [ms.random_frame(basis, [14, 1, k]) for k in range(200)]
    for sm in cl.enumerate_sign_states():
        if sm in good:
            continue
        if sm in negated:
            assert dc.jordan_classify(basis, sm.matrix).kind == "neither"
            assert dc.measurement_star_residual(
                basis, sm.vector, frames200[0]) < 1e-10
            continue
        assert any(
            dc.measurement_star_residual(basis, sm.vector, f) > 1e-3
            for f in frames200
        ), f"no witnessing frame for {sm}"
    _report(14, "8 Jordan-good matrices (4 + 4); residual criterion both ways")


def test_criterion_15_adjoint_fixtures():
    report = cl.verify_adjoint_fixtures(la.build_basis(3))
    assert report.duplication_detected
    clean = report.clean_matches
    assert len(clean) == 6
    for entry in clean:
        assert entry.max_abs_diff < 1e-10
    assert {e.label for e in report.entries if e.duplicated} == {(0, 1), (1, 0)}
    assert report.replacements_differ
    assert set(report.computed_replacements) == {(0, 1), (1, 0)}
    _report(15, "six fixture adjoints match; duplicated pair flagged with replacements")


def test_criterion_16_separable_but_discordant():
    for d in (3, 4):
        basis = la.build_basis(d)
        t = d / (4.0 * (d * d - 1.0))
        state = st.class_a_state(basis, np.eye(d, dtype=complex), t)
        assert ent.gurvits_barnum(state.rho, d)
        d2_bound, d1_bound = dc.lower_bounds(basis, state.K)
        assert d2_bound >= 4 * t * t / d ** 2 - 1e-12
        assert d2_bound > 0
        assert d1_bound > 0
    _report(16, "purity-ball separable states with strictly positive discord bounds")


def test_criterion_17_distillability():
    basis = la.build_basis(3)
    I0 = st.transposition_signs(basis)
    for t in np.linspace(0.375 + 1e-6, 1.5, 10):
        state = st.sign_class_state(basis, I0, float(t))
        assert ent.reduction_criterion(state.rho, 3) < 0
    for t in np.linspace(-3.0 / 16.0, 0.375, 10):
        state = st.sign_class_state(basis, I0, float(t))
        assert ent.reduction_criterion(state.rho, 3) >= -1e-10
    _report(17, "reduction criterion negative on the NPPT zone, nonnegative on PPT")
