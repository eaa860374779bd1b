import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from quditdiscord import discord as dc
from quditdiscord import entanglement as ent
from quditdiscord import lie_algebra as la
from quditdiscord import measurement as ms
from quditdiscord import states as st

from conftest import classical_quantum_rho, generic_lmm_rho, generic_rho, objective


class TestFrameValue:
    @pytest.mark.parametrize("d", [3, 4])
    def test_orthogonal_correlation_is_frame_independent(self, d):
        basis = la.build_basis(d)
        t = 0.4
        V0 = la.random_orthogonal(basis.n, 71)
        for k in range(10):
            frame = ms.random_frame(basis, [72, d, k])
            assert_allclose(
                dc.d2_frame_value(basis, t * V0, frame),
                4.0 * t * t / d ** 2,
                atol=1e-12,
            )

    def test_zero_correlation(self, basis3):
        frame = ms.canonical_frame(basis3)
        assert dc.d2_frame_value(basis3, np.zeros((8, 8)), frame) == 0.0

    def test_matches_dense_trace(self, basis3):
        rng = np.random.default_rng(73)
        K = rng.standard_normal((8, 8))
        frame = ms.random_frame(basis3, 74)
        S = ms.disturbance_from_vectors(basis3, np.zeros(8), K, frame)
        expected = 1.5 * np.trace(ms.q_matrix(S)).real
        assert_allclose(dc.d2_frame_value(basis3, K, frame), expected, atol=1e-12)


class TestSmallestEigenvalueSum:
    def test_diagonal_example(self):
        assert_allclose(
            dc.smallest_eigenvalue_sum(np.diag([3.0, 2.0, 1.0]), 2), 3.0
        )

    def test_scalar_matrix(self):
        assert_allclose(dc.smallest_eigenvalue_sum(0.7 * np.eye(5), 3), 2.1)

    def test_orthogonal_correlation(self, basis3):
        t = 0.9
        V0 = la.random_orthogonal(8, 75)
        K = t * V0
        assert_allclose(
            dc.smallest_eigenvalue_sum(K @ K.T, 6), t * t * 6.0, atol=1e-10
        )

    def test_range_and_psd_errors(self):
        with pytest.raises(ValueError):
            dc.smallest_eigenvalue_sum(np.eye(3), 3)
        with pytest.raises(ValueError):
            dc.smallest_eigenvalue_sum(np.diag([1.0, -1.0, 0.0]), 1)

    def test_projector_inequality(self):
        """min over rank-m projectors of tr(PA) is attained at the eigenprojector."""
        rng = np.random.default_rng(76)
        m = rng.standard_normal((8, 8))
        A = m @ m.T
        bound = dc.smallest_eigenvalue_sum(A, 6)
        _, vecs = np.linalg.eigh(A)
        P_opt = vecs[:, :6] @ vecs[:, :6].T
        assert_allclose(np.trace(P_opt @ A), bound, atol=1e-10)
        for k in range(200):
            q, _ = np.linalg.qr(np.random.default_rng(k).standard_normal((8, 6)))
            P = q @ q.T
            assert np.trace(P @ A) >= bound - 1e-10


class TestXiAndBounds:
    def test_zero(self, basis3):
        assert dc.xi(basis3, np.zeros((8, 8))) == 0.0

    def test_pair_mixture(self, basis3):
        rng = np.random.default_rng(77)
        for _ in range(5):
            pa = rng.uniform(0, 1)
            pb = 1.0 - pa
            state = st.bell_diagonal(basis3, {(0, 0): pa, (2, 2): pb})
            assert_allclose(
                dc.xi(basis3, state.K), 13.5 * (1 - 3 * pa * pb), atol=1e-10
            )
            d2_bound, d1_bound = dc.lower_bounds(basis3, state.K)
            assert_allclose(d2_bound, 1 - 3 * pa * pb, atol=1e-10)
            assert_allclose(
                d1_bound, np.sqrt(0.375 * (1 - 3 * pa * pb)), atol=1e-10
            )

    def test_line_mixture(self, basis3):
        rng = np.random.default_rng(78)
        for _ in range(5):
            p = rng.dirichlet(np.ones(3))
            state = st.bell_diagonal(
                basis3, {(0, 0): p[0], (1, 1): p[1], (2, 2): p[2]}
            )
            gap = sum((p[i] - p[j]) ** 2 for i in range(3) for j in range(i + 1, 3))
            assert_allclose(dc.xi(basis3, state.K), 6.75 * gap, atol=1e-10)

    @pytest.mark.parametrize("d", [3, 4])
    def test_orthogonal_bounds(self, d):
        basis = la.build_basis(d)
        t = 0.33
        V0 = la.random_orthogonal(basis.n, 79)
        d2_bound, d1_bound = dc.lower_bounds(basis, t * V0)
        assert_allclose(d2_bound, 4 * t * t / d ** 2, atol=1e-10)
        assert_allclose(d1_bound, abs(t) / np.sqrt(d * (d - 1)), atol=1e-10)

    def test_low_rank_gives_zero(self, basis3):
        """rank K < d makes both bounds vanish."""
        rng = np.random.default_rng(80)
        K = np.outer(rng.standard_normal(8), rng.standard_normal(8))
        K += np.outer(rng.standard_normal(8), rng.standard_normal(8))
        d2_bound, d1_bound = dc.lower_bounds(basis3, K)
        assert abs(d2_bound) < 1e-10
        assert abs(d1_bound) < 1e-7


class TestExactValues:
    def test_isotropic_chain(self, basis3):
        # p = 2t/d: D1 = p on the anti-automorphism branch
        for p in (0.2, 0.5, 1.0):
            t = 1.5 * p
            assert_allclose(dc.d1_exact_anti_automorphism(3, t), p, atol=1e-15)
            assert_allclose(dc.d2_exact_orthogonal(3, t), p * p, atol=1e-15)

    def test_bell_value(self):
        assert_allclose(dc.d1_exact_anti_automorphism(3, 1.5), 1.0)
        assert_allclose(dc.d2_exact_orthogonal(3, 1.5), 1.0)

    def test_zero(self):
        assert dc.d1_exact_automorphism(3, 0.0) == 0.0
        assert dc.d1_exact_anti_automorphism(4, 0.0) == 0.0

    def test_ranges_enforced(self):
        with pytest.raises(ValueError):
            dc.d1_exact_automorphism(3, 0.5)  # above 3/8
        with pytest.raises(ValueError):
            dc.d1_exact_anti_automorphism(3, -0.25)  # below -3/16
        dc.d1_exact_automorphism(3, -0.75)
        dc.d1_exact_anti_automorphism(3, 1.5)


class TestClosedFormSpectra:
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_against_dense_operators(self, d):
        basis = la.build_basis(d)
        g = basis.generators
        L = sum(
            np.kron(g[i - 1], g[i - 1]) for i in basis.diagonal_indices
        )
        K = (d - 2) * sum(np.kron(g[j], g[j].T) for j in range(basis.n))
        spec = dc.closed_form_spectra(d, 0.29)

        def expand(entries):
            return np.sort(np.concatenate([np.full(m, v) for v, m in entries]))

        assert_allclose(np.sort(np.linalg.eigvalsh(L)), expand(spec["L"]), atol=1e-10)
        assert_allclose(
            np.sort(np.linalg.eigvalsh(K + L)), expand(spec["KL"]), atol=1e-10
        )

    def test_d3_values(self):
        spec = dc.closed_form_spectra(3, 1.0)
        assert spec["L"] == [(4.0 / 3.0, 3), (-2.0 / 3.0, 6)]
        # tr sqrt of the anti-automorphism Q at t: 4(d-1)|t|/d^2 = (8/9)|t|
        t = 0.7
        spec = dc.closed_form_spectra(3, t)
        total = sum(np.sqrt(v) * m for v, m in spec["q_anti"])
        assert_allclose(total, 8.0 * abs(t) / 9.0, atol=1e-12)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_q_spectra_match_direct(self, d):
        basis = la.build_basis(d)
        t = 0.31
        frame0 = ms.canonical_frame(basis)
        I0 = np.diag(st.transposition_signs(basis))
        spec = dc.closed_form_spectra(d, t)

        def expand(entries):
            return np.sort(np.concatenate([np.full(m, v) for v, m in entries]))

        S_a = ms.disturbance_from_vectors(basis, np.zeros(basis.n), t * np.eye(basis.n), frame0)
        assert_allclose(
            np.sort(np.linalg.eigvalsh(ms.q_matrix(S_a))),
            expand(spec["q_auto"]), atol=1e-10,
        )
        S_aa = ms.disturbance_from_vectors(basis, np.zeros(basis.n), t * I0, frame0)
        assert_allclose(
            np.sort(np.linalg.eigvalsh(ms.q_matrix(S_aa))),
            expand(spec["q_anti"]), atol=1e-10,
        )


class TestSchattenInequality:
    @pytest.mark.parametrize("d", [3, 4])
    def test_trace_sqrt_dominates_sqrt_trace(self, d):
        """tr sqrt(Q) >= sqrt(tr Q) for every disturbance square."""
        basis = la.build_basis(d)
        rng = np.random.default_rng(95)
        for k in range(10):
            K = rng.standard_normal((basis.n, basis.n))
            frame = ms.random_frame(basis, [96, d, k])
            S = ms.disturbance_from_vectors(basis, np.zeros(basis.n), K, frame)
            trace_q = float(np.trace(ms.q_matrix(S)).real)
            assert ms.trace_norm_hermitian(S) >= np.sqrt(trace_q) - 1e-12


def _jordan_oracle(basis, V, tol=1e-10):
    """(kind, orthogonality, star, wedge defect, wedge sign) by the einsum form of the transform."""
    t = la.structure_tensors(basis)
    d_t = np.einsum("jkl,ja,kb,lc->abc", t.dhat, V, V, V, optimize=True)
    f_t = np.einsum("jkl,ja,kb,lc->abc", t.fhat, V, V, V, optimize=True)
    orth = np.max(np.abs(V.T @ V - np.eye(basis.n)))
    star = np.max(np.abs(d_t - t.dhat))
    plus, minus = np.max(np.abs(f_t - t.fhat)), np.max(np.abs(f_t + t.fhat))
    if star < tol and plus < tol:
        return "automorphism", orth, star, plus, 1
    if star < tol and minus < tol:
        return "anti_automorphism", orth, star, minus, -1
    return "neither", orth, star, min(plus, minus), 1 if plus <= minus else -1


def _classify_oracle(basis, K, atol=1e-8):
    """classify_correlation with one einsum Jordan test per sign of t."""
    scale = float(np.linalg.norm(K)) / np.sqrt(basis.n)
    if np.max(np.abs(K @ K.T / scale ** 2 - np.eye(basis.n))) > atol:
        return "general", 0.0
    for t in (scale, -scale):
        kind = _jordan_oracle(basis, K / t, tol=1e-8)[0]
        if kind != "neither":
            return kind, t
    return "orthogonal", scale


class TestJordanClassify:
    def test_identity(self, basis3):
        assert dc.jordan_classify(basis3, np.eye(8)).kind == "automorphism"

    def test_transposition(self, basis3):
        I0 = np.diag(st.transposition_signs(basis3))
        assert dc.jordan_classify(basis3, I0).kind == "anti_automorphism"

    @pytest.mark.parametrize("d", [3, 4])
    def test_adjoint_rotations_are_automorphisms(self, d):
        basis = la.build_basis(d)
        for k in range(100):
            V = la.adjoint_rep(basis, la.random_special_unitary(d, [81, d, k]))
            assert dc.jordan_classify(basis, V).kind == "automorphism"

    def test_exactly_eight_sign_matrices(self, basis3):
        from quditdiscord.classify import enumerate_sign_states

        kinds = {"automorphism": 0, "anti_automorphism": 0, "neither": 0}
        for sm in enumerate_sign_states():
            kinds[dc.jordan_classify(basis3, sm.matrix).kind] += 1
        assert kinds == {"automorphism": 4, "anti_automorphism": 4, "neither": 248}

    def test_rejects_non_orthogonal(self, basis3):
        with pytest.raises(ValueError):
            dc.jordan_classify(basis3, np.ones((8, 8)))

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_matches_einsum_oracle(self, d):
        """Kind and all three defects of +-R(U), +-R(U) I0 and a random V, to 1e-12."""
        basis = la.build_basis(d)
        R = la.adjoint_rep(basis, la.random_special_unitary(d, [87, d]))
        RI0 = R * st.transposition_signs(basis)
        for V in (R, -R, RI0, -RI0, la.random_orthogonal(basis.n, [88, d])):
            jc = dc.jordan_classify(basis, V)
            kind, orth, star, wedge, sign = _jordan_oracle(basis, V)
            assert (jc.kind, jc.wedge_sign) == (kind, sign)
            assert abs(jc.orthogonality_defect - orth) < 1e-12
            assert abs(jc.star_defect - star) < 1e-12
            assert abs(jc.wedge_defect - wedge) < 1e-12
        assert [dc.jordan_classify(basis, V).kind for V in (R, RI0)] == [
            "automorphism", "anti_automorphism"]


class TestMeasurementStarResidual:
    def test_transposition_always_vanishes(self, basis3):
        I0 = st.transposition_signs(basis3)
        for k in range(100):
            frame = ms.random_frame(basis3, [82, k])
            assert dc.measurement_star_residual(basis3, I0, frame) < 1e-10

    def test_identity_always_vanishes(self, basis3):
        for k in range(20):
            frame = ms.random_frame(basis3, [83, k])
            assert dc.measurement_star_residual(basis3, np.ones(8), frame) < 1e-10

    @pytest.mark.parametrize("d", [3, 5])
    def test_matches_einsum(self, d):
        basis = la.build_basis(d)
        t = la.structure_tensors(basis)
        signs = np.where(np.random.default_rng([91, d]).random(basis.n) < 0.5, -1.0, 1.0)
        frame = ms.random_frame(basis, [91, d])
        imi = signs[:, None] * frame.M_real * signs[None, :]
        expected = basis.dprime * np.max(np.abs(
            np.einsum("kl,jkl->j", imi, t.dhat, optimize=True)))
        assert abs(dc.measurement_star_residual(basis, signs, frame) - expected) < 1e-12

    def test_bad_sign_matrix_fails_somewhere(self, basis3):
        signs = np.ones(8)
        signs[7] = -1.0
        worst = max(
            dc.measurement_star_residual(basis3, signs, ms.random_frame(basis3, [84, k]))
            for k in range(100)
        )
        assert worst > 0.01


class TestClassifyCorrelation:
    def test_zero(self, basis3):
        assert dc.classify_correlation(basis3, np.zeros((8, 8)))[0] == "zero"

    def test_negative_t_automorphism(self, basis3):
        kind, t = dc.classify_correlation(basis3, -0.5 * np.eye(8))
        assert kind == "automorphism"
        assert_allclose(t, -0.5, atol=1e-12)

    def test_anti_automorphism(self, basis3):
        I0 = np.diag(st.transposition_signs(basis3))
        kind, t = dc.classify_correlation(basis3, 0.75 * I0)
        assert kind == "anti_automorphism"
        assert_allclose(t, 0.75, atol=1e-12)

    def test_plain_orthogonal(self, basis3):
        V0 = la.random_orthogonal(8, 85)
        kind, t = dc.classify_correlation(basis3, 0.3 * V0)
        assert kind == "orthogonal"
        assert_allclose(t, 0.3, atol=1e-10)

    def test_general(self, basis3):
        rng = np.random.default_rng(86)
        kind, _ = dc.classify_correlation(basis3, rng.standard_normal((8, 8)))
        assert kind == "general"

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
    def test_one_transform_matches_two_pass_oracle(self, d):
        """One Choi matrix per state gives the two-pass star/wedge oracle's kind and t."""
        basis = la.build_basis(d)
        U1, U2 = (la.random_special_unitary(d, [89, d, k]) for k in (1, 2))
        R = la.adjoint_rep(basis, U1)
        RI0 = R * st.transposition_signs(basis)
        V0 = la.random_orthogonal(basis.n, [90, d])
        Ks = [
            st.class_a_state(basis, U1, -0.3).K,
            st.class_aa_state(basis, U1, U2, -0.05).K,
            0.2 * R, -0.2 * R, 0.2 * RI0, -0.2 * RI0,
            0.2 * V0, -0.2 * V0,
            np.random.default_rng([90, d]).standard_normal((basis.n, basis.n)),
        ]
        kinds = []
        for K in Ks:
            got = dc.classify_correlation(basis, K)
            assert got == _classify_oracle(basis, K)
            kinds.append(got[0])
        assert kinds == ["automorphism", "anti_automorphism"] + [
            "automorphism"] * 2 + ["anti_automorphism"] * 2 + ["orthogonal"] * 2 + ["general"]

    def test_sign_matrices_match_jordan_classify(self, basis3):
        """All 256 K = +-0.3 I: the oracle's kind and t, and the kind jordan_classify gives +-I.

        I and -I are never both Jordan, as the star transform is cubic, so
        each of the 4 automorphism and 4 anti-automorphism sign matrices
        shows up 4 times: as +-0.3 I and as -+0.3 (-I).
        """
        from quditdiscord.classify import enumerate_sign_states

        kinds = {"automorphism": 0, "anti_automorphism": 0, "orthogonal": 0}
        for sm in enumerate_sign_states():
            for t in (0.3, -0.3):
                K = t * sm.matrix
                got = dc.classify_correlation(basis3, K)
                assert got == _classify_oracle(basis3, K)
                plus, minus = (dc.jordan_classify(basis3, s * np.sign(t) * sm.matrix).kind
                               for s in (1.0, -1.0))
                if plus != "neither":
                    assert (got[0], got[1] > 0) == (plus, True)
                elif minus != "neither":
                    assert (got[0], got[1] > 0) == (minus, False)
                else:
                    assert (got[0], got[1] > 0) == ("orthogonal", True)
                kinds[got[0]] += 1
        assert kinds == {"automorphism": 16, "anti_automorphism": 16, "orthogonal": 480}

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
    def test_choi_tolerance_separates_round_off_from_perturbation(self, d):
        """K = 0.2 R(U) exp(eps A) with A antisymmetric leaves the Jordan class at first order.

        Its Choi defect max|C C / d - C| is about 2 eps (1.3-2.2 eps at
        d = 3..8).  CLASSIFY_CHOI_TOL = 1e-8 lies between the two: eps = 1e-12
        is round-off on an exact R(U) and keeps the automorphism class,
        eps = 1e-6 is a real departure from it and reads as the bare
        orthogonal class.  Both K pass the gram test, so t is exact either way.
        """
        basis = la.build_basis(d)
        n = basis.n
        R = la.adjoint_rep(basis, la.random_special_unitary(d, [92, d]))
        A = np.random.default_rng([93, d]).standard_normal((n, n))
        A = (A - A.T) / 2.0
        got = {}
        for eps in (1e-12, 1e-6):
            K = 0.2 * R @ la.expi(-1j * eps * A).real
            got[eps] = dc.classify_correlation(basis, K)[0]
        assert got == {1e-12: "automorphism", 1e-6: "orthogonal"}

    @pytest.mark.parametrize("d", [5, 6, 7, 8])
    def test_evaluate_builds_no_structure_tensors(self, d):
        """Class A, class AA and orthogonal states are classified without dhat or fhat."""
        la._tensors_for_dimension.cache_clear()
        basis = la.build_basis(d)
        n = basis.n
        U1, U2 = (la.random_special_unitary(d, [94, d, k]) for k in (1, 2))
        V0 = la.random_orthogonal(n, [94, d])
        states = [
            st.class_a_state(basis, U1, -0.1),
            st.class_aa_state(basis, U1, U2, 0.1),
            st.assemble(basis, np.zeros(n), np.zeros(n), 0.05 * V0),
        ]
        kinds = [dc.evaluate(state).kind for state in states]
        assert kinds == ["automorphism", "anti_automorphism", "orthogonal"]
        assert la._tensors_for_dimension.cache_info().currsize == 0


def _evaluate_case(basis, name):
    """A d = 3 state whose correlation class (or non-LMM marginal) is ``name``."""
    n = basis.n
    if name == "zero":
        return st.assemble(basis, np.zeros(n), np.zeros(n), np.zeros((n, n)))
    if name == "automorphism":
        return st.class_a_state(basis, la.random_special_unitary(3, 98), -0.3)
    if name == "anti_automorphism":
        return st.class_aa_state(basis, la.random_special_unitary(3, 99),
                                 la.random_special_unitary(3, 100), 0.25)
    if name == "orthogonal":
        signs = np.ones(n)
        signs[7] = -1.0
        return st.sign_class_state(basis, signs, 0.25)
    if name == "general":
        return st.bell_diagonal(basis, {(0, 0): 0.55, (1, 1): 0.3, (2, 2): 0.15})
    # non-LMM: part of the weight on |0><0| x I/3 moves subsystem A's Bloch vector
    local = np.kron(np.diag([1.0, 0.0, 0.0]), np.eye(3) / 3.0)
    rho = 0.7 * st.bell_projector(basis, (0, 0)).rho + 0.3 * local
    return st.from_density(basis, rho)


class TestEvaluate:
    @pytest.mark.parametrize(
        "name", ["zero", "automorphism", "anti_automorphism", "orthogonal", "general",
                 "non_lmm"])
    def test_matches_classify_bounds_and_exact_formulas(self, basis3, name):
        state = _evaluate_case(basis3, name)
        ev = dc.evaluate(state)
        kind, t = dc.classify_correlation(basis3, state.K)
        assert (ev.kind, ev.t) == (kind, t)
        if name == "non_lmm":
            assert not state.is_lmm
            assert ev.d2_lower is None and ev.d1_lower is None
        else:
            assert kind == name
            assert (ev.d2_lower, ev.d1_lower) == dc.lower_bounds(basis3, state.K)
        d2_exact = None if kind == "general" else dc.d2_exact_orthogonal(3, t)
        d1_formula = {
            "zero": lambda d, t: 0.0,
            "automorphism": dc.d1_exact_automorphism,
            "anti_automorphism": dc.d1_exact_anti_automorphism,
        }.get(kind)
        d1_exact = None if d1_formula is None else d1_formula(3, t)
        assert (ev.d2_exact, ev.d1_exact) == (d2_exact, d1_exact)

    def test_capped_minimizer_is_not_converged(self, basis3):
        """Three BFGS iterations cannot finish a generic state's smoothing levels."""
        est = dc.minimize_d1(_generic_state(basis3, 97),
                             dc.OptimizerConfig(starts=1, max_iter=3))
        assert est.converged is False
        assert est.best_residual > 0.0

    def test_default_minimizer_converges_on_werner(self, basis3):
        est = dc.minimize_d1(st.class_a_state(basis3, np.eye(3, dtype=complex), 0.3))
        assert est.converged is True
        assert est.best_residual <= dc.OptimizerConfig().tol


class TestMinimizer:
    def test_zero_correlation(self, basis3):
        state = st.assemble(basis3, np.zeros(8), np.zeros(8), np.zeros((8, 8)))
        est = dc.minimize_d1(state, dc.OptimizerConfig(starts=2, seed=0))
        assert est.value < 1e-12
        assert est.method == "numerical_min"

    def test_werner_value(self, basis3):
        """The identity-class objective is frame constant, so D1 = |t| exactly."""
        state = st.class_a_state(basis3, np.eye(3, dtype=complex), 0.3)
        est = dc.minimize_d1(state, dc.OptimizerConfig(starts=4, seed=0))
        assert_allclose(est.value, 0.3, atol=1e-8)

    def test_bell_projector(self, basis3):
        est = dc.minimize_d1(
            st.bell_projector(basis3, (0, 0)), dc.OptimizerConfig(starts=4, seed=0)
        )
        assert_allclose(est.value, 1.0, atol=1e-8)

    def test_deterministic(self, basis3):
        state = st.isotropic(basis3, 0.4)
        cfg = dc.OptimizerConfig(starts=3, seed=11)
        a = dc.minimize_d1(state, cfg)
        b = dc.minimize_d1(state, cfg)
        assert a.value == b.value
        assert a.best_residual == b.best_residual

    def test_seeded_runs_are_bit_identical(self, basis3):
        """A generic state's search repeats exactly: value, frame, calls and residual."""
        state = _generic_state(basis3, 97)
        cfg = dc.OptimizerConfig(starts=3, seed=4, max_iter=200)
        a, b = dc.minimize_d1(state, cfg), dc.minimize_d1(state, cfg)
        assert (a.value, a.nfev, a.best_residual, a.converged) == (
            b.value, b.nfev, b.best_residual, b.converged)
        assert np.array_equal(a.frame.U, b.frame.U)
        assert np.array_equal(a.frame.M_real, b.frame.M_real)

    @pytest.mark.parametrize("minimize", [dc.minimize_d1, dc.minimize_d2], ids=["d1", "d2"])
    def test_frame_is_built_when_read(self, basis3, minimize, monkeypatch):
        """No frame_from_unitary call until .frame is read, and then the frame of
        the phase-normalized winning U, bit for bit."""
        winners, built = [], []
        normalize, build = dc.phase_normalize, dc.frame_from_unitary

        def seen(U):
            winners.append(U)
            return normalize(U)

        def counted(basis, U):
            built.append(U)
            return build(basis, U)

        monkeypatch.setattr(dc, "phase_normalize", seen)
        monkeypatch.setattr(dc, "frame_from_unitary", counted)
        est = minimize(_generic_state(basis3, 97), dc.OptimizerConfig(starts=3, seed=4, max_iter=200))
        assert (len(winners), built) == (1, [])
        frame = est.frame
        assert len(built) == 1
        eager = ms.frame_from_unitary(basis3, la.phase_normalize(winners[0]))
        assert np.array_equal(frame.U, eager.U)
        assert np.array_equal(frame.M_real, eager.M_real)

    def test_value_matches_frame(self, basis3):
        """The reported value is the objective at the reported frame."""
        state = st.isotropic(basis3, 0.35)
        est = dc.minimize_d1(state, dc.OptimizerConfig(starts=2, seed=3))
        S = ms.disturbance(state, est.frame)
        value = 3.0 / 4.0 * ms.trace_norm_hermitian(S)  # d/(2(d-1)) ||S||_1
        assert_allclose(est.value, value, atol=1e-12)

    def test_bound_chain(self, basis3):
        """d1 lower bound <= minimized d1 <= objective at any frame."""
        state = st.bell_diagonal(
            basis3, {(0, 0): 0.55, (1, 1): 0.3, (2, 2): 0.15}
        )
        d2_bound, d1_bound = dc.lower_bounds(basis3, state.K)
        est1 = dc.minimize_d1(state, dc.OptimizerConfig(starts=6, seed=5))
        est2 = dc.minimize_d2(state, dc.OptimizerConfig(starts=6, seed=5))
        assert d1_bound <= est1.value + 1e-8
        assert d2_bound <= est2.value + 1e-8
        for k in range(5):
            frame = ms.random_frame(basis3, [89, k])
            S = ms.disturbance(state, frame)
            assert est1.value <= 0.75 * ms.trace_norm_hermitian(S) + 1e-8

    def test_d2_exact_for_orthogonal(self, basis3):
        """A non-Jordan diagonal sign matrix still gives D2 = 4 t^2 / d^2."""
        signs = np.ones(8)
        signs[7] = -1.0
        t = 0.25
        state = st.sign_class_state(basis3, signs, t)
        assert dc.classify_correlation(basis3, state.K)[0] == "orthogonal"
        est = dc.minimize_d2(state, dc.OptimizerConfig(starts=2, seed=0))
        assert_allclose(est.value, 4 * t * t / 9.0, atol=1e-10)

    @pytest.mark.parametrize("d", [3, 4])
    def test_closed_class_objective_is_frame_constant(self, d):
        """The minimizer's D1 objective reads the exact value at every theta."""
        basis = la.build_basis(d)
        t = 0.25
        cases = [
            (st.class_a_state(basis, la.random_special_unitary(d, 94), t),
             dc.d1_exact_automorphism(d, t)),
            (st.class_aa_state(basis, la.random_special_unitary(d, 95),
                               la.random_special_unitary(d, 96), t),
             dc.d1_exact_anti_automorphism(d, t)),
        ]
        rng = np.random.default_rng([97, d])
        thetas = rng.standard_normal((10, basis.n))
        for state, exact in cases:
            f = objective(basis, state, "d1")
            values = np.array([f(theta) for theta in thetas])
            assert np.max(values) - np.min(values) < 1e-10
            assert_allclose(values, exact, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("d", [3, 4])
    def test_matches_analytic_for_closed_classes(self, d):
        basis = la.build_basis(d)
        t = 0.25
        state_a = st.class_a_state(
            basis, la.random_special_unitary(d, 91), t
        )
        est_a = dc.minimize_d1(state_a, dc.OptimizerConfig(starts=2, seed=1))
        assert_allclose(est_a.value, dc.d1_exact_automorphism(d, t), atol=1e-8)
        state_aa = st.class_aa_state(
            basis,
            la.random_special_unitary(d, 92),
            la.random_special_unitary(d, 93),
            t,
        )
        est_aa = dc.minimize_d1(state_aa, dc.OptimizerConfig(starts=2, seed=1))
        assert_allclose(
            est_aa.value, dc.d1_exact_anti_automorphism(d, t), atol=1e-8
        )


def _generic_state(basis, seed):
    """Half a seeded Wishart state, half the maximally mixed one: not LMM."""
    return st.from_density(basis, generic_rho(basis.d, np.random.default_rng(seed)))


class TestObjective:
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_matches_disturbance_oracle(self, d):
        """D1 = d/(2(d-1)) ||S||_1 and D2 = d/(d-1) ||S||_F^2 at theta, and R = K^+ S K.

        S comes from the frame's projectors, K = U x I.
        """
        basis = la.build_basis(d)
        lmm = st.bell_diagonal(basis, {(0, 0): 0.55, (1, 1): 0.3, (2, 2): 0.15})
        generic = _generic_state(basis, [98, d])
        assert lmm.is_lmm and not generic.is_lmm
        thetas = np.random.default_rng([99, d]).standard_normal((50, basis.n))
        eye = np.eye(d, dtype=complex)
        for state in (lmm, generic):
            d1 = objective(basis, state, "d1")
            at = dc._chart(basis, state, "d2")[0]
            for theta in thetas:
                frame = ms.frame_from_theta(basis, theta)
                S = ms.disturbance(state, frame)
                assert abs(d1(theta) - d / (2.0 * (d - 1)) * ms.trace_norm_hermitian(S)) <= 1e-12
                point = at(theta, eye)
                assert abs(point.value - d / (d - 1.0) * float(np.vdot(S, S).real)) <= 1e-12
                K = np.kron(frame.U, eye)
                assert np.max(np.abs(point.R - K.conj().T @ S @ K)) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta_raises(self, basis3, bad):
        f = objective(basis3, st.isotropic(basis3, 0.3), "d1")
        theta = np.full(basis3.n, 0.1)
        theta[2] = bad
        with pytest.raises(np.linalg.LinAlgError), np.errstate(invalid="ignore"):
            f(theta)

    @pytest.mark.parametrize("family", ["werner", "generic"])
    def test_nfev_counts_every_objective_call(self, basis3, family, monkeypatch):
        if family == "werner":
            state = st.class_a_state(basis3, np.eye(3, dtype=complex), 0.3)
        else:
            state = _generic_state(basis3, 97)
        calls = 0
        chart = dc._chart

        def counted(basis, state, measure):
            at, *rest = chart(basis, state, measure)

            def counted_at(theta, U0):
                nonlocal calls
                calls += 1
                return at(theta, U0)

            return counted_at, *rest

        monkeypatch.setattr(dc, "_chart", counted)
        for minimize in (dc.minimize_d1, dc.minimize_d2):
            calls = 0
            est = minimize(state, dc.OptimizerConfig(starts=3, seed=2, max_iter=150))
            assert est.nfev == calls > 0


def _convex_quadratic(n, seed):
    """A seeded strictly convex quadratic for _bfgs: (f, value, gradient, minimizer).

    A point is x itself and the step s from x reaches x + s, so every point's
    chart is the same flat one.
    """
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    A = M @ M.T / n + np.eye(n)
    xstar = rng.standard_normal(n)

    def f(x):
        r = x - xstar
        return 0.5 * float(r @ A @ r)

    return f, lambda x, s: (f(x + s), x + s), lambda x: A @ (x - xstar), xstar


class TestBfgs:
    @pytest.mark.parametrize("n", [8, 35])
    def test_reaches_the_minimizer_of_a_convex_quadratic(self, n):
        f, value, gradient, xstar = _convex_quadratic(n, [100, n])
        budget = 10 * n
        x0 = np.zeros(n)
        x, grad, nit, H = dc._bfgs(value, gradient, (f(x0), gradient(x0), x0), budget)
        assert np.max(np.abs(x - xstar)) <= 1e-8
        assert nit < budget  # a stopping test ended it, not the budget
        assert np.array_equal(grad, gradient(x))
        assert np.all(np.linalg.eigvalsh(H) > 0.0)

    def test_takes_h_in_and_hands_it_back(self):
        """Given H, the first trial is the full step -H g, and H comes back updated."""
        n = 8
        f, value, gradient, _ = _convex_quadratic(n, [100, n])
        x0 = np.zeros(n)
        x1, g1, nit, H = dc._bfgs(value, gradient, (f(x0), gradient(x0), x0), 3)
        assert nit == 3
        steps = []

        def logged(x, s):
            steps.append(s)
            return value(x, s)

        _, _, _, H2 = dc._bfgs(logged, gradient, (f(x1), g1, x1), 1, H.copy())
        assert np.array_equal(steps[0], -(H @ g1))
        assert not np.array_equal(H2, H)

    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 8])
    def test_spends_at_most_its_budget_and_never_rises(self, basis3, budget):
        """On a generic state's smoothed chart: nit <= budget, value <= f(0), unit first step."""
        state = _generic_state(basis3, 97)
        at, smoothed, gradient = dc._chart(basis3, state, "d1")
        origin = at(np.zeros(basis3.n), la.random_special_unitary(3, 101))
        mu = dc.D1_MU0_SHARE * float(np.mean(np.abs(origin.lam)))
        trials = []

        def value(p, s):
            q = at(s, p.U)
            trials.append((s, q))
            return smoothed(q, mu), q

        start = (smoothed(origin, mu), gradient(origin, mu), origin)
        point, grad, nit, _ = dc._bfgs(value, lambda q: gradient(q, mu), start, budget)
        assert nit == budget  # far from stationary: every iteration is spent
        assert smoothed(point, mu) < start[0]
        assert np.array_equal(grad, gradient(point, mu))
        assert any(q is point for _, q in trials)
        assert np.linalg.norm(trials[0][0]) == pytest.approx(1.0, rel=1e-12)

    def test_gradient_once_per_accepted_step_and_never_at_a_rejected_trial(self, basis3):
        """Each gradient is taken at the trial just made, once; the other trials get none."""
        state = _generic_state(basis3, 97)
        at, smoothed, gradient = dc._chart(basis3, state, "d1")
        origin = at(np.zeros(basis3.n), la.random_special_unitary(3, 101))
        mu = dc.D1_MU0_SHARE * float(np.mean(np.abs(origin.lam)))
        events = []

        def value(p, s):
            q = at(s, p.U)
            events.append(("value", q))
            return smoothed(q, mu), q

        def grad(q):
            events.append(("gradient", q))
            return gradient(q, mu)

        start = (smoothed(origin, mu), gradient(origin, mu), origin)
        point, _, nit, _ = dc._bfgs(value, grad, start, 40)
        kinds = [kind for kind, _ in events]
        assert kinds.count("gradient") == nit > 0
        for k, (kind, q) in enumerate(events):
            if kind == "gradient":
                assert kinds[k - 1] == "value" and events[k - 1][1] is q
        assert kinds.count("value") > nit  # the unit first step backtracks: rejected trials
        assert [q for kind, q in events if kind == "gradient"][-1] is point


class TestEarlyStop:
    @pytest.mark.parametrize("family", ["werner", "class_aa"])
    def test_frame_constant_objective_stops_after_two_starts(self, basis3, family):
        t = 0.25
        if family == "werner":
            state = st.class_a_state(basis3, np.eye(3, dtype=complex), t)
            d1_exact = dc.d1_exact_automorphism(3, t)
        else:
            state = st.class_aa_state(basis3, la.random_special_unitary(3, 92),
                                      la.random_special_unitary(3, 93), t)
            d1_exact = dc.d1_exact_anti_automorphism(3, t)
        cfg = dc.OptimizerConfig(starts=4, seed=1)
        est1, est2 = dc.minimize_d1(state, cfg), dc.minimize_d2(state, cfg)
        assert (est1.starts_run, est2.starts_run) == (2, 2)
        assert est1.nfev > 0 and est2.nfev > 0
        assert_allclose(est1.value, d1_exact, atol=1e-8)
        assert_allclose(est2.value, dc.d2_exact_orthogonal(3, t), atol=1e-8)

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("family", ["werner", "isotropic", "class_aa"])
    def test_jordan_class_ends_every_start_on_its_initial_simplex(self, d, family):
        """Two starts that end on their initial frame, one call each, give the closed form.

        Every frame of a Jordan-class state is stationary, so each start's first
        BFGS run takes no step.
        """
        basis = la.build_basis(d)
        if family == "werner":
            state = st.class_a_state(basis, np.eye(d, dtype=complex), 0.25)
        elif family == "isotropic":
            state = st.isotropic(basis, 0.3)
        else:
            state = st.class_aa_state(basis, la.random_special_unitary(d, [92, d]),
                                      la.random_special_unitary(d, [93, d]), 0.25)
        exact = dc.evaluate(state).d1_exact
        assert exact is not None
        est = dc.minimize_d1(state)
        assert (est.nfev, est.starts_run, est.converged) == (2, 2, True)
        assert est.best_residual <= dc.GTOL
        assert_allclose(est.value, exact, rtol=0, atol=1e-8)

    def test_lone_flat_start_is_not_converged(self, basis3):
        """U = I is a stationary frame of a Bell-diagonal pair state, not its minimum.

        The start there ends flat after one call, for D1 and D2.  Alone it shows
        nothing about other frames, so one start is not converged, and further
        starts go lower.  D2 also needs two starts at the best value: with two
        starts only the second reaches 0.52, so it takes more to converge.
        """
        state = st.bell_diagonal(basis3, {(0, 0): 0.2, (2, 2): 0.8})
        alone = {}
        for minimize, measure in ((dc.minimize_d1, "d1"), (dc.minimize_d2, "d2")):
            alone[measure] = minimize(state, dc.OptimizerConfig(starts=1))
            assert (alone[measure].nfev, alone[measure].starts_run,
                    alone[measure].converged) == (1, 1, False)
            assert alone[measure].value == objective(basis3, state, measure)(
                np.zeros(basis3.n))
        more = dc.minimize_d1(state, dc.OptimizerConfig(starts=4))
        assert more.converged is True
        assert more.value < alone["d1"].value - 0.25
        assert_allclose(alone["d2"].value, 0.68, rtol=0, atol=1e-12)
        two = dc.minimize_d2(state, dc.OptimizerConfig(starts=2))
        assert two.converged is False
        assert_allclose(two.value, 0.52, rtol=0, atol=1e-9)
        default = dc.minimize_d2(state)
        assert default.converged is True
        assert_allclose(default.value, 0.52, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("d", [3, 4])
    def test_flat_winner_agreed_by_a_stepping_start_is_converged(self, d):
        """A classical-quantum state diagonal on A: start 0 (U = I) is exact and ends flat.

        The other starts reach 0 by taking steps, so none of them is flat; one of
        them within tol of the flat winner is enough to call it converged.
        """
        state = st.from_density(la.build_basis(d),
                                classical_quantum_rho(d, np.random.default_rng(10)))
        for minimize in (dc.minimize_d1, dc.minimize_d2):
            est = minimize(state)
            assert (est.value, est.converged) == (0.0, True)

    def test_zero_tol_never_stops_early(self, basis3):
        state = st.class_a_state(basis3, np.eye(3, dtype=complex), 0.25)
        est = dc.minimize_d1(state, dc.OptimizerConfig(starts=3, tol=0, max_iter=50))
        assert est.starts_run == 3


SEEDS = hst.integers(min_value=0, max_value=2 ** 32 - 1)
DIMS = hst.sampled_from([3, 4])
PROPERTY = settings(max_examples=8, deadline=None, derandomize=True)


def _moved(state, seed):
    """The state under the seeded local unitary U_A x U_B."""
    d = state.d
    W = np.kron(la.random_special_unitary(d, [seed, 1]),
                la.random_special_unitary(d, [seed, 2]))
    return st.from_density(la.build_basis(d), W @ state.rho @ W.conj().T)


class TestProperties:
    @PROPERTY
    @given(d=DIMS, seed=SEEDS, anti=hst.booleans(), u=hst.floats(0.0, 1.0))
    def test_closed_class_d1_is_the_closed_form(self, d, seed, anti, u):
        """Class A/AA under U_A x U_B: D1 = |t| or (2/d)|t| after two flat starts."""
        basis = la.build_basis(d)
        eye = np.eye(d, dtype=complex)
        if anti:
            lo, hi = -d / (2.0 * (d * d - 1)), d / 2.0
            t = lo + u * (hi - lo)
            state, exact = st.class_aa_state(basis, eye, eye, t), 2.0 * abs(t) / d
        else:
            lo, hi = -d / (2.0 * (d - 1)), d / (2.0 * (d + 1))
            t = lo + u * (hi - lo)
            state, exact = st.class_a_state(basis, eye, t), abs(t)
        est = dc.minimize_d1(_moved(state, seed))
        assert est.starts_run == 2
        assert_allclose(est.value, exact, rtol=0, atol=1e-8)

    @PROPERTY
    @given(d=DIMS, seed=SEEDS, lmm=hst.booleans(), w=hst.floats(0.0, 1.0))
    def test_bounds_and_negativity_are_local_unitary_invariant(self, d, seed, lmm, w):
        """A generic state mixed with weight w of P_00, which entangles it for larger w."""
        basis = la.build_basis(d)
        rho = (generic_lmm_rho if lmm else generic_rho)(d, np.random.default_rng(seed))
        state = st.from_density(basis, (1 - w) * rho + w * st.bell_projector(basis, (0, 0)).rho)
        moved = _moved(state, seed)
        assert_allclose(dc.lower_bounds(basis, moved.K), dc.lower_bounds(basis, state.K),
                        rtol=0, atol=1e-9)
        assert_allclose(ent.negativity(moved, d), ent.negativity(state, d), rtol=0, atol=1e-9)

    @PROPERTY
    @given(d=hst.sampled_from([3, 4, 5, 6]), seed=SEEDS, lmm=hst.booleans())
    def test_chart_gradient_matches_central_differences(self, d, seed, lmm):
        """The smoothed D1 and the D2 gradient at a random frame, in the chart whose origin
        it is, against central differences."""
        basis = la.build_basis(d)
        rho = (generic_lmm_rho if lmm else generic_rho)(d, np.random.default_rng(seed))
        state = st.from_density(basis, rho)
        U0 = la.random_special_unitary(d, [seed, 3])
        h = 1e-5
        for measure in ("d1", "d2"):
            at, smoothed, gradient = dc._chart(basis, state, measure)
            point = at(np.zeros(basis.n), U0)
            mu = dc.D1_MU0_SHARE * float(np.mean(np.abs(point.lam))) if measure == "d1" else None
            central = [(smoothed(at(h * e, U0), mu) - smoothed(at(-h * e, U0), mu)) / (2 * h)
                       for e in np.eye(basis.n)]
            assert_allclose(gradient(point, mu), central, rtol=0, atol=1e-8)

    @PROPERTY
    @given(d=hst.sampled_from([3, 4, 5, 6]), seed=SEEDS, anti=hst.booleans(),
           u=hst.floats(0.0, 1.0))
    def test_chart_gradient_vanishes_on_jordan_classes(self, d, seed, anti, u):
        """Class A/AA under U_A x U_B: every frame is stationary for every mu."""
        basis = la.build_basis(d)
        eye = np.eye(d, dtype=complex)
        if anti:
            t = -d / (2.0 * (d * d - 1)) + u * (d / 2.0 + d / (2.0 * (d * d - 1)))
            state = st.class_aa_state(basis, eye, eye, t)
        else:
            t = -d / (2.0 * (d - 1)) + u * (d / (2.0 * (d + 1)) + d / (2.0 * (d - 1)))
            state = st.class_a_state(basis, eye, t)
        at, _, gradient = dc._chart(basis, _moved(state, seed), "d1")
        for k in (3, 5):
            point = at(np.zeros(basis.n), la.random_special_unitary(d, [seed, k]))
            share = dc.D1_MU0_SHARE * float(np.mean(np.abs(point.lam)))
            for mu in (max(share, dc.D1_MU_FLOOR), dc.D1_MU_FLOOR):
                assert np.max(np.abs(gradient(point, mu))) <= dc.GTOL

    @PROPERTY
    @given(d=DIMS, seed=SEEDS)
    def test_d1_bound_chain(self, d, seed):
        """Xi lower bound <= minimized D1 <= the objective at theta = 0, on a small budget."""
        basis = la.build_basis(d)
        state = st.from_density(basis, generic_lmm_rho(d, np.random.default_rng(seed)))
        est = dc.minimize_d1(state, dc.OptimizerConfig(starts=2, max_iter=60, seed=seed % 100))
        assert dc.lower_bounds(basis, state.K)[1] <= est.value + 1e-12
        assert est.value <= objective(basis, state, "d1")(np.zeros(basis.n))
