import numpy as np
import pytest
from numpy.testing import assert_allclose

from quditdiscord import discord as dc
from quditdiscord import lie_algebra as la
from quditdiscord import measurement as ms
from quditdiscord import states as st


class TestFrames:
    @pytest.mark.parametrize("d", [3, 4])
    def test_canonical_projector_structure(self, d):
        basis = la.build_basis(d)
        P0 = ms.canonical_projector_diagonal(basis)
        nonzero = {i + 1 for i in np.flatnonzero(np.diag(P0))}
        assert nonzero == set(basis.diagonal_indices)
        assert_allclose(np.trace(P0), d - 1, atol=1e-15)
        frame = ms.canonical_frame(basis)
        assert_allclose(np.trace(frame.M_real), d * (d - 1), atol=1e-15)

    @pytest.mark.parametrize("d", [3, 4])
    def test_frame_invariants(self, d):
        basis = la.build_basis(d)
        for k in range(10):
            frame = ms.random_frame(basis, [101, d, k])
            # rank-1 projectors resolve the identity
            total = np.einsum("kab->ab", frame.projectors)
            assert np.max(np.abs(total - np.eye(d))) < 1e-10
            for a in range(d):
                for b in range(d):
                    prod = frame.projectors[a] @ frame.projectors[b]
                    target = frame.projectors[a] if a == b else 0.0
                    assert np.max(np.abs(prod - target)) < 1e-10
            P = np.eye(basis.n) - frame.M_real
            assert np.max(np.abs(P @ P - P)) < 1e-10
            assert abs(np.trace(P) - (d - 1)) < 1e-10
            assert abs(np.trace(frame.M_real) - d * (d - 1)) < 1e-10

    @pytest.mark.parametrize("d", [3, 4])
    def test_complement_kills_delta_traces(self, d):
        basis = la.build_basis(d)
        tensors = la.structure_tensors(basis)
        for k in range(10):
            frame = ms.random_frame(basis, [102, d, k])
            traces = np.einsum("kl,jkl->j", frame.M_real, tensors.dhat)
            assert np.max(np.abs(traces)) < 1e-10

    def test_real_projector_matches_channel(self, basis3):
        """P_jk = tr(Phi(g_j) g_k)/2 agrees with the V P0 V^T construction."""
        for k in range(5):
            frame = ms.random_frame(basis3, [103, k])
            direct = np.zeros((8, 8))
            for j in range(8):
                phi = sum(
                    p @ basis3.generators[j] @ p for p in frame.projectors
                )
                direct[j] = 0.5 * np.einsum(
                    "ab,kba->k", phi, basis3.generators
                ).real
            assert_allclose(direct, np.eye(8) - frame.M_real, atol=1e-10)

    def test_canonical_channel_keeps_diagonal(self, basis3):
        """The canonical measurement maps A to diag(a11, a22, a33)."""
        rng = np.random.default_rng(15)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        A = (m + m.conj().T) / 2.0
        frame = ms.canonical_frame(basis3)
        measured = sum(p @ A @ p for p in frame.projectors)
        assert_allclose(measured, np.diag(np.diag(A)), atol=1e-12)
        # coefficient route: a0 unchanged, generator part projected by P0
        a0, a = la.decompose(basis3, A)
        P = np.eye(8) - frame.M_real
        assert_allclose(la.expand(basis3, a0, P @ a), measured, atol=1e-12)


class TestApplyMeasurement:
    def test_maximally_mixed_fixed(self, basis3):
        frame = ms.random_frame(basis3, 5)
        rho = np.eye(9) / 9.0
        assert_allclose(ms.apply_measurement(rho, frame), rho, atol=1e-12)

    def test_bell_becomes_classical(self, basis3):
        state = st.bell_projector(basis3, (0, 0))
        measured = ms.apply_measurement(state, ms.canonical_frame(basis3))
        expected = np.zeros((9, 9), dtype=complex)
        for k in range(3):
            expected[4 * k, 4 * k] = 1.0 / 3.0
        assert_allclose(measured, expected, atol=1e-12)

    def test_idempotent(self, basis3):
        state = st.bell_projector(basis3, (1, 2))
        frame = ms.random_frame(basis3, 9)
        once = ms.apply_measurement(state, frame)
        twice = ms.apply_measurement(once, frame)
        assert_allclose(twice, once, atol=1e-12)


class TestDisturbance:
    def test_zero_for_uncorrelated(self, basis3):
        state = st.assemble(basis3, np.zeros(8), np.zeros(8), np.zeros((8, 8)))
        frame = ms.random_frame(basis3, 31)
        assert np.max(np.abs(ms.disturbance(state, frame))) < 1e-14

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_matches_coherence_form(self, d):
        """rho - measured equals the d''<Mx,g> x I + <MK e_k,g> x <e_k,g> form."""
        basis = la.build_basis(d)
        rng = np.random.default_rng(77)
        n = basis.n
        x = 0.05 * rng.standard_normal(n)
        y = 0.05 * rng.standard_normal(n)
        K = 0.3 * rng.standard_normal((n, n))
        state = st.assemble(basis, x, y, K)
        for k in range(5):
            frame = ms.random_frame(basis, [32, d, k])
            direct = ms.disturbance(state, frame)
            coherent = ms.disturbance_from_vectors(basis, x, K, frame)
            assert np.max(np.abs(direct - coherent)) < 1e-12
            assert abs(np.trace(direct)) < 1e-12
            assert np.max(np.abs(direct - direct.conj().T)) < 1e-12
            # tracing out subsystem A kills S outright; tracing out B kills
            # it once the A-side Bloch vector vanishes
            assert np.max(np.abs(st.ptrace_a(direct, d))) < 1e-12
            lmm = st.assemble(basis, np.zeros(n), np.zeros(n), K)
            s_lmm = ms.disturbance(lmm, frame)
            assert np.max(np.abs(st.ptrace_b(s_lmm, d))) < 1e-12

    def test_lmm_depends_only_on_mk(self, basis3):
        """Two correlation matrices with equal M K give the same disturbance."""
        rng = np.random.default_rng(41)
        frame = ms.random_frame(basis3, 42)
        K = rng.standard_normal((8, 8))
        K2 = K + (np.eye(8) - frame.M_real) @ rng.standard_normal((8, 8))
        s1 = ms.disturbance_from_vectors(basis3, np.zeros(8), K, frame)
        s2 = ms.disturbance_from_vectors(basis3, np.zeros(8), K2, frame)
        assert np.max(np.abs(frame.M_real @ K - frame.M_real @ K2)) < 1e-12
        assert np.max(np.abs(s1 - s2)) < 1e-12

    def test_bell_trace_norm(self, basis3):
        """||S||_1 = 4/3 for the maximally entangled state, any frame."""
        state = st.bell_projector(basis3, (0, 0))
        for k in range(5):
            frame = ms.random_frame(basis3, [43, k])
            S = ms.disturbance(state, frame)
            assert_allclose(ms.trace_norm_hermitian(S), 4.0 / 3.0, atol=1e-10)


class TestDisturbanceInFrame:
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_norms_match_oracles(self, d):
        """The measured-basis disturbance R of the chart has the norms of S from both oracles.

        The chart at theta = 0 about U0 = U evaluates R = (K^+ rho K) o mask
        with K = U x I; R = K^+ S K.
        """
        basis = la.build_basis(d)
        n = basis.n
        rng = np.random.default_rng([78, d])
        K = 0.3 * rng.standard_normal((n, n))
        x = 0.05 * rng.standard_normal(n)
        y = 0.05 * rng.standard_normal(n)
        for state in (st.assemble(basis, np.zeros(n), np.zeros(n), K),
                      st.assemble(basis, x, y, K)):
            at = dc._chart(basis, state, "d2")[0]
            for k in range(3):
                U = la.random_special_unitary(d, [79, d, k])
                frame = ms.frame_from_unitary(basis, U)
                R = at(np.zeros(n), U).R
                S = ms.disturbance(state, frame)
                for oracle in (S, ms.disturbance_from_vectors(basis, state.x, state.K, frame)):
                    assert_allclose(ms.trace_norm_hermitian(R),
                                    ms.trace_norm_hermitian(oracle), rtol=0, atol=1e-12)
                    assert_allclose(np.linalg.norm(R), np.linalg.norm(oracle),
                                    rtol=0, atol=1e-12)
                W = np.kron(U, np.eye(d))
                assert np.max(np.abs(R - W.conj().T @ S @ W)) < 1e-12


class TestQPaths:
    def test_q_matrix_basics(self, basis3):
        S = np.zeros((9, 9))
        assert np.max(np.abs(ms.q_matrix(S))) == 0.0
        rng = np.random.default_rng(3)
        m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        S = (m + m.conj().T) / 2.0
        Q = ms.q_matrix(S)
        assert_allclose(np.trace(Q).real, np.sum(S * S.conj()).real, atol=1e-10)
        eigs = np.linalg.eigvalsh(Q)
        assert eigs[0] > -1e-12
        assert_allclose(
            sum(np.sqrt(np.clip(eigs, 0.0, None))),
            ms.trace_norm_hermitian(S),
            atol=1e-8,
        )

    @pytest.mark.parametrize("d", [3, 4])
    def test_trace_identity(self, d):
        """tr Q = (4/d^4) tr(K K^T M) for locally maximally mixed states."""
        basis = la.build_basis(d)
        rng = np.random.default_rng(51)
        for k in range(5):
            K = rng.standard_normal((basis.n, basis.n))
            frame = ms.random_frame(basis, [52, d, k])
            S = ms.disturbance_from_vectors(basis, np.zeros(basis.n), K, frame)
            lhs = np.trace(ms.q_matrix(S)).real
            rhs = 4.0 / d ** 4 * np.trace(K @ K.T @ frame.M_real)
            assert_allclose(lhs, rhs, atol=1e-10)

    @pytest.mark.parametrize("d", [3, 4])
    def test_expansion_matches_direct(self, d):
        basis = la.build_basis(d)
        rng = np.random.default_rng(53)
        for k in range(10):
            K = rng.standard_normal((basis.n, basis.n))
            frame = ms.random_frame(basis, [54, d, k])
            S = ms.disturbance_from_vectors(basis, np.zeros(basis.n), K, frame)
            assert np.max(np.abs(
                ms.q_expansion(basis, K, frame) - ms.q_matrix(S))) < 1e-10

    def test_expansion_zero(self, basis3):
        frame = ms.random_frame(basis3, 1)
        assert np.max(np.abs(ms.q_expansion(basis3, np.zeros((8, 8)), frame))) == 0.0

    @pytest.mark.parametrize("d", [3, 4])
    def test_orthogonal_form_matches_direct(self, d):
        basis = la.build_basis(d)
        rng = np.random.default_rng(55)
        for k in range(10):
            V0 = la.random_orthogonal(basis.n, [56, d, k])
            t = float(rng.uniform(-1.0, 1.0))
            frame = ms.random_frame(basis, [57, d, k])
            S = ms.disturbance_from_vectors(basis, np.zeros(basis.n), t * V0, frame)
            assert np.max(np.abs(
                ms.q_orthogonal(basis, t, V0, frame) - ms.q_matrix(S))) < 1e-10

    def test_orthogonal_form_x_vanishes_for_identity(self, basis3):
        """X_k = tr(M Delta_k) = 0 when V0 = I, for any frame."""
        tensors = la.structure_tensors(basis3)
        for k in range(5):
            frame = ms.random_frame(basis3, [58, k])
            X = np.einsum("ab,kab->k", frame.M_real, tensors.dhat)
            assert np.max(np.abs(X)) < 1e-10

    def test_orthogonal_form_x_vanishes_for_transposition(self, basis3):
        I0 = np.diag(st.transposition_signs(basis3))
        tensors = la.structure_tensors(basis3)
        for k in range(5):
            frame = ms.random_frame(basis3, [59, k])
            X = np.einsum("ab,kab->k", I0 @ frame.M_real @ I0, tensors.dhat)
            assert np.max(np.abs(X)) < 1e-10

    def test_rejects_non_orthogonal(self, basis3):
        frame = ms.canonical_frame(basis3)
        with pytest.raises(ValueError):
            ms.q_orthogonal(basis3, 0.1, np.ones((8, 8)), frame)


def _q_expansion_einsum(basis, K, frame):
    """q_expansion as the einsum contractions it was first written with."""
    d = basis.d
    t = la.structure_tensors(basis)
    MK = frame.M_real @ K
    gram = MK.T @ MK
    left = np.einsum("aj,lab,bj->l", MK, t.dhat, MK, optimize=True)
    right = np.einsum("ab,pab->p", gram, t.dhat, optimize=True)
    sym = np.einsum("aj,lab,bk,pjk->lp", MK, t.dhat, MK, t.dhat, optimize=True)
    asym = np.einsum("aj,lab,bk,pjk->lp", MK, t.fhat, MK, t.fhat, optimize=True)
    Q = la.expand_pair(
        basis, (4.0 / (d * d)) * np.trace(gram), (2.0 / d) * left, (2.0 / d) * right,
        sym - asym,
    )
    return Q / (d ** 4)


def _q_orthogonal_einsum(basis, t, V0, frame):
    """q_orthogonal as the einsum contractions it was first written with."""
    d, n = basis.d, basis.n
    ten = la.structure_tensors(basis)
    M = frame.M_real
    MV = M @ V0
    X = np.einsum("ab,kab->k", V0.T @ M @ V0, ten.dhat, optimize=True)
    Y = np.einsum("am,lab,bn,pmn->lp", MV, ten.dhat, MV, ten.dhat, optimize=True)
    Y -= np.einsum("am,lab,bn,pmn->lp", MV, ten.fhat, MV, ten.fhat, optimize=True)
    out = la.expand_pair(basis, 4.0 * (d - 1) / d, np.zeros(n), (2.0 / d) * X, Y)
    return (t * t / d ** 4) * out


class TestMatmulContractions:
    """The matmul forms of the oracles and the stacked frames against their references."""

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_q_expansion_matches_einsum_form(self, d):
        basis = la.build_basis(d)
        rng = np.random.default_rng([61, d])
        for k in range(3):
            K = rng.standard_normal((basis.n, basis.n))
            frame = ms.random_frame(basis, [62, d, k])
            Q = ms.q_expansion(basis, K, frame)
            assert np.max(np.abs(Q - _q_expansion_einsum(basis, K, frame))) < 1e-13
            assert np.max(np.abs(Q)) > 1e-3

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_q_orthogonal_matches_einsum_form(self, d):
        basis = la.build_basis(d)
        for k in range(3):
            V0 = la.random_orthogonal(basis.n, [63, d, k])
            frame = ms.random_frame(basis, [64, d, k])
            Q = ms.q_orthogonal(basis, 0.7, V0, frame)
            assert np.max(np.abs(Q - _q_orthogonal_einsum(basis, 0.7, V0, frame))) < 1e-13
            assert np.max(np.abs(Q)) > 1e-3

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_frame_projectors_match_random_frames(self, d):
        basis = la.build_basis(d)
        seeds = [[0, d, 31, k] for k in range(10)] + [[7, k] for k in range(3)]
        stacked = ms.random_frame_projectors(basis, seeds)
        for M, seed in zip(stacked, seeds):
            assert np.max(np.abs(M - ms.random_frame(basis, seed).M_real)) < 1e-13


class TestJordanClassForms:
    @pytest.mark.parametrize("d", [3, 4])
    def test_automorphism_form_matches_direct(self, d):
        basis = la.build_basis(d)
        rng = np.random.default_rng(61)
        for k in range(5):
            t = float(rng.uniform(-0.4, 0.4))
            V = la.adjoint_rep(basis, la.random_special_unitary(d, [62, d, k]))
            U = la.random_special_unitary(d, [63, d, k])
            frame = ms.frame_from_unitary(basis, U)
            S = ms.disturbance_from_vectors(basis, np.zeros(basis.n), t * V, frame)
            assert np.max(np.abs(
                ms.q_automorphism(basis, t, V, U) - ms.q_matrix(S))) < 1e-10

    @pytest.mark.parametrize("d", [3, 4])
    def test_anti_automorphism_form_matches_direct(self, d):
        basis = la.build_basis(d)
        I0 = np.diag(st.transposition_signs(basis))
        rng = np.random.default_rng(64)
        for k in range(5):
            t = float(rng.uniform(-0.4, 0.4))
            R1 = la.adjoint_rep(basis, la.random_special_unitary(d, [65, d, k]))
            R2 = la.adjoint_rep(basis, la.random_special_unitary(d, [66, d, k]))
            T = R1 @ I0 @ R2.T
            U = la.random_special_unitary(d, [67, d, k])
            frame = ms.frame_from_unitary(basis, U)
            S = ms.disturbance_from_vectors(basis, np.zeros(basis.n), t * T, frame)
            assert np.max(np.abs(
                ms.q_anti_automorphism(basis, t, T, U) - ms.q_matrix(S))) < 1e-10

    @pytest.mark.parametrize("d", [3, 4])
    def test_similarity_contracts(self, d):
        """Q(M) is the M0 form dressed by U x tau(U) / U x tau(U^+)."""
        basis = la.build_basis(d)
        I0 = np.diag(st.transposition_signs(basis))
        eye = np.eye(d, dtype=complex)
        t = 0.23
        for k in range(5):
            V = la.adjoint_rep(basis, la.random_special_unitary(d, [68, d, k]))
            U = la.random_special_unitary(d, [69, d, k])
            Qa0 = ms.q_automorphism(basis, t, V, eye)
            D = np.kron(U, ms.tau_map(basis, V.T, U))
            assert np.max(np.abs(
                D @ Qa0 @ D.conj().T - ms.q_automorphism(basis, t, V, U))) < 1e-10
            R1 = la.adjoint_rep(basis, la.random_special_unitary(d, [70, d, k]))
            R2 = la.adjoint_rep(basis, la.random_special_unitary(d, [71, d, k]))
            T = R1 @ I0 @ R2.T
            Qaa0 = ms.q_anti_automorphism(basis, t, T, eye)
            Daa = np.kron(U, ms.tau_map(basis, T.T, U.conj().T))
            assert np.max(np.abs(
                Daa @ Qaa0 @ Daa.conj().T
                - ms.q_anti_automorphism(basis, t, T, U))) < 1e-10

    @pytest.mark.parametrize("d", [3, 4])
    def test_isospectral_over_frames(self, d):
        """The Q spectrum of the closed-form classes is frame independent."""
        basis = la.build_basis(d)
        I0 = np.diag(st.transposition_signs(basis))
        t = 0.21
        V = la.adjoint_rep(basis, la.random_special_unitary(d, 72))
        frame0 = ms.canonical_frame(basis)
        Sa0 = ms.disturbance_from_vectors(basis, np.zeros(basis.n), t * V, frame0)
        Saa0 = ms.disturbance_from_vectors(basis, np.zeros(basis.n), t * I0, frame0)
        ref_a = np.sort(np.linalg.eigvalsh(ms.q_matrix(Sa0)))
        ref_aa = np.sort(np.linalg.eigvalsh(ms.q_matrix(Saa0)))
        for k in range(50):
            frame = ms.random_frame(basis, [73, d, k])
            Sa = ms.disturbance_from_vectors(basis, np.zeros(basis.n), t * V, frame)
            Saa = ms.disturbance_from_vectors(basis, np.zeros(basis.n), t * I0, frame)
            assert np.max(np.abs(
                np.sort(np.linalg.eigvalsh(ms.q_matrix(Sa))) - ref_a)) < 1e-10
            assert np.max(np.abs(
                np.sort(np.linalg.eigvalsh(ms.q_matrix(Saa))) - ref_aa)) < 1e-10

    @pytest.mark.parametrize("d", [3, 4])
    def test_d4_class_a_spectrum(self, d):
        """sigma(Qa(M0)) = {4t^2/d^4 x d(d-1), 0 x d}."""
        basis = la.build_basis(d)
        t = 0.37
        Q = ms.q_automorphism(basis, t, np.eye(basis.n), np.eye(d, dtype=complex))
        eigs = np.sort(np.linalg.eigvalsh(Q))
        expected = np.sort([0.0] * d + [4.0 * t * t / d ** 4] * (d * (d - 1)))
        assert_allclose(eigs, expected, atol=1e-12)
