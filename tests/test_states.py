import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quditdiscord import lie_algebra as la
from quditdiscord import states as st

from conftest import random_density

SQ3 = np.sqrt(3.0)


def printed_pair_correlation(pa, pb):
    """Reference 8x8 correlation matrix of the (0,0)/(2,2) two-point mixture."""
    s = SQ3
    return np.array([
        [1.5 * pa, 0, 0, -0.75 * pb, 0.75 * s * pb, 0, 0, 0],
        [0, -1.5 * pa, 0, -0.75 * s * pb, -0.75 * pb, 0, 0, 0],
        [0, 0, 0.75 * (2 * pa - pb), 0, 0, 0, 0, -0.75 * s * pb],
        [0, 0, 0, 1.5 * pa, 0, -0.75 * pb, -0.75 * s * pb, 0],
        [0, 0, 0, 0, -1.5 * pa, 0.75 * s * pb, -0.75 * pb, 0],
        [-0.75 * pb, -0.75 * s * pb, 0, 0, 0, 1.5 * pa, 0, 0],
        [-0.75 * s * pb, 0.75 * pb, 0, 0, 0, 0, -1.5 * pa, 0],
        [0, 0, 0.75 * s * pb, 0, 0, 0, 0, 0.75 * (2 * pa - pb)],
    ])


def printed_line_correlation(pa, pb, pg):
    """Reference correlation matrix of the (0,0),(1,1),(2,2) line mixture."""
    s = SQ3
    return np.array([
        [1.5 * pa, 0, 0, -0.75 * pg, 0.75 * s * pg, -0.75 * pb, 0.75 * s * pb, 0],
        [0, -1.5 * pa, 0, -0.75 * s * pg, -0.75 * pg, 0.75 * s * pb, 0.75 * pb, 0],
        [0, 0, 0.75 * (2 * pa - pb - pg), 0, 0, 0, 0, 0.75 * s * (pb - pg)],
        [-0.75 * pb, 0.75 * s * pb, 0, 1.5 * pa, 0, -0.75 * pg, -0.75 * s * pg, 0],
        [-0.75 * s * pb, -0.75 * pb, 0, 0, -1.5 * pa, 0.75 * s * pg, -0.75 * pg, 0],
        [-0.75 * pg, -0.75 * s * pg, 0, -0.75 * pb, -0.75 * s * pb, 1.5 * pa, 0, 0],
        [-0.75 * s * pg, 0.75 * pg, 0, 0.75 * s * pb, -0.75 * pb, 0, -1.5 * pa, 0],
        [0, 0, -0.75 * s * (pb - pg), 0, 0, 0, 0, 0.75 * (2 * pa - pb - pg)],
    ])


def _bell_adjoint(basis, label):
    """R(W_label), with W_label phase-normalized to be special unitary."""
    return la.adjoint_rep(basis, la.phase_normalize(st.weyl_operator(basis.d, label)))


class TestAssembleDecompose:
    def test_maximally_mixed(self, basis3):
        state = st.assemble(basis3, np.zeros(8), np.zeros(8), np.zeros((8, 8)))
        assert_allclose(state.rho, np.eye(9) / 9.0, atol=1e-15)

    def test_bell_correlation_assembles_projector(self, basis3):
        I0 = np.diag(st.transposition_signs(basis3))
        state = st.assemble(basis3, np.zeros(8), np.zeros(8), 1.5 * I0)
        expected = st.bell_projector(basis3, (0, 0)).rho
        assert_allclose(state.rho, expected, atol=1e-12)

    @pytest.mark.parametrize("d", [3, 4, 8])
    def test_round_trip(self, d):
        basis = la.build_basis(d)
        rng = np.random.default_rng(2)
        n = basis.n
        x, y = 0.1 * rng.standard_normal(n), 0.1 * rng.standard_normal(n)
        K = rng.standard_normal((n, n))
        state = st.assemble(basis, x, y, K)
        x2, y2, K2 = st.decompose(basis, state.rho)
        assert_allclose(x2, x, atol=1e-10)
        assert_allclose(y2, y, atol=1e-10)
        assert_allclose(K2, K, atol=1e-10)

    @pytest.mark.parametrize("d", [3, 4])
    def test_marginals(self, d):
        """Partial traces reproduce single-qudit states with vectors x and y."""
        basis = la.build_basis(d)
        rng = np.random.default_rng(8)
        x = 0.05 * rng.standard_normal(basis.n)
        y = 0.05 * rng.standard_normal(basis.n)
        state = st.assemble(basis, x, y, 0.1 * rng.standard_normal((basis.n, basis.n)))
        rho_a = st.ptrace_b(state.rho, d)
        rho_b = st.ptrace_a(state.rho, d)
        expected_a = la.expand(basis, 1.0 / d, basis.dprimeprime / d * x)
        expected_b = la.expand(basis, 1.0 / d, basis.dprimeprime / d * y)
        assert_allclose(rho_a, expected_a, atol=1e-10)
        assert_allclose(rho_b, expected_b, atol=1e-10)

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_decompose_matches_einsum(self, d):
        basis = la.build_basis(d)
        g = basis.generators
        rho = random_density(d * d, np.random.default_rng([13, d]))
        x, y, K = st.decompose(basis, rho)
        scale = d / np.sqrt(2.0 * d * (d - 1))
        r4 = rho.reshape(d, d, d, d)
        rho_a, rho_b = np.einsum("acbc->ab", r4), np.einsum("acae->ce", r4)
        assert_allclose(x, scale * np.einsum("ab,jba->j", rho_a, g).real, rtol=0, atol=1e-14)
        assert_allclose(y, scale * np.einsum("ab,jba->j", rho_b, g).real, rtol=0, atol=1e-14)
        expected = (d * d / 4.0) * np.einsum("acbe,jba,kec->jk", r4, g, g, optimize=True).real
        assert_allclose(K, expected, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("d", [3, 4, 8])
    def test_transposition_signs(self, d):
        basis = la.build_basis(d)
        g = basis.generators
        expected = np.round([np.trace(gk.T @ gk).real / 2.0 for gk in g])
        assert np.array_equal(st.transposition_signs(basis), expected)
        assert set(expected) == {-1.0, 1.0}

    def test_product_state_correlation(self, basis3):
        """rho_A x rho_B has K = d''^2 x y^T."""
        rng = np.random.default_rng(12)
        rho_a = random_density(3, rng)
        rho_b = random_density(3, rng)
        x, y, K = st.decompose(basis3, np.kron(rho_a, rho_b))
        assert_allclose(K, basis3.dprimeprime ** 2 * np.outer(x, y), atol=1e-10)

    @pytest.mark.parametrize("d", [3, 4])
    def test_lmm_purity_identity(self, d):
        """tr rho^2 = 1/d^2 + (4/d^4) ||K||_F^2 for x = y = 0."""
        basis = la.build_basis(d)
        rng = np.random.default_rng(4)
        K = 0.4 * rng.standard_normal((basis.n, basis.n))
        state = st.assemble(basis, np.zeros(basis.n), np.zeros(basis.n), K)
        expected = 1.0 / d ** 2 + 4.0 / d ** 4 * np.sum(K * K)
        assert_allclose(state.purity(), expected, atol=1e-10)


class TestValidate:
    def test_maximally_mixed_physical(self):
        assert st.validate(np.eye(9) / 9.0).physical

    def test_negative_eigenvalue(self):
        bad = np.diag([2.0, -1.0] + [0.0] * 7)
        report = st.validate(bad)
        assert not report.physical
        assert report.min_eigenvalue < -1e-9

    def test_werner_boundary(self, basis3):
        state = st.class_a_state(basis3, np.eye(3, dtype=complex), 3.0 / 8.0)
        report = st.validate(state.rho)
        assert report.physical
        assert abs(report.min_eigenvalue) < 1e-12


class TestWeylOperators:
    def test_identity_label(self):
        assert_allclose(st.weyl_operator(3, (0, 0)), np.eye(3), atol=1e-15)

    def test_shift(self):
        W = st.weyl_operator(3, (1, 0))
        expected = np.zeros((3, 3))
        for k in range(3):
            expected[k, (k + 1) % 3] = 1.0
        assert_allclose(W, expected, atol=1e-15)

    def test_phase(self):
        w = np.exp(2j * np.pi / 3.0)
        assert_allclose(
            st.weyl_operator(3, (0, 1)), np.diag([1.0, w, w ** 2]), atol=1e-14
        )

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_unitary(self, d):
        for m in range(d):
            for n in range(d):
                W = st.weyl_operator(d, (m, n))
                assert np.max(np.abs(W.conj().T @ W - np.eye(d))) < 1e-12


class TestBellProjectors:
    @pytest.mark.parametrize("d", [3, 4])
    def test_pure_lmm_boundary(self, d):
        basis = la.build_basis(d)
        for label in [(0, 0), (1, 0), (0, 1), (d - 1, d - 1)]:
            state = st.bell_projector(basis, label)
            assert_allclose(state.purity(), 1.0, atol=1e-10)
            assert np.max(np.abs(state.x)) < 1e-10
            assert np.max(np.abs(state.y)) < 1e-10
            assert_allclose(
                np.sum(state.K ** 2), d * d * (d * d - 1) / 4.0, atol=1e-9
            )

    def test_bell_correlation_value(self, basis3):
        state = st.bell_projector(basis3, (0, 0))
        assert_allclose(
            state.K, 1.5 * np.diag(st.transposition_signs(basis3)), atol=1e-12
        )

    def test_mutual_orthogonality(self, basis3):
        projs = [
            st.bell_projector(basis3, (m, n)).rho for m in range(3) for n in range(3)
        ]
        for i, p in enumerate(projs):
            for j, q in enumerate(projs):
                assert_allclose(
                    np.trace(p @ q).real, 1.0 if i == j else 0.0, atol=1e-10
                )

    @pytest.mark.parametrize("d", [3, 4])
    def test_displacement_moves_correlation_left(self, d):
        """K_a = R(W_a) K_00 for every label (displacement on subsystem A)."""
        basis = la.build_basis(d)
        K00 = st.bell_projector(basis, (0, 0)).K
        for m in range(d):
            for n in range(d):
                Ka = st.bell_projector(basis, (m, n)).K
                Ra = _bell_adjoint(basis, (m, n))
                assert np.max(np.abs(Ka - Ra @ K00)) < 1e-10

    @pytest.mark.parametrize("d", [3, 4])
    def test_right_transpose_relation(self, d):
        """K_(m,n) = K_00 R(W_(-m,n))^T; the shift index enters reversed.

        For the phase-only labels (m = 0) this is the plain K_00 R(W)^T law.
        """
        basis = la.build_basis(d)
        K00 = st.bell_projector(basis, (0, 0)).K
        for m in range(d):
            for n in range(d):
                Ka = st.bell_projector(basis, (m, n)).K
                R = _bell_adjoint(basis, ((-m) % d, n))
                assert np.max(np.abs(Ka - K00 @ R.T)) < 1e-10


class TestBellDiagonal:
    def test_uniform_is_center(self, basis3):
        weights = {(m, n): 1.0 / 9.0 for m in range(3) for n in range(3)}
        state = st.bell_diagonal(basis3, weights)
        assert_allclose(state.rho, np.eye(9) / 9.0, atol=1e-12)

    def test_pair_matches_reference_matrix(self, basis3):
        pa, pb = 0.3, 0.7
        state = st.bell_diagonal(basis3, {(0, 0): pa, (2, 2): pb})
        assert_allclose(state.K, printed_pair_correlation(pa, pb), atol=1e-12)

    def test_line_matches_reference_matrix(self, basis3):
        pa, pb, pg = 0.5, 0.2, 0.3
        state = st.bell_diagonal(basis3, {(0, 0): pa, (1, 1): pb, (2, 2): pg})
        assert_allclose(state.K, printed_line_correlation(pa, pb, pg), atol=1e-12)

    def test_pair_gram_spectrum(self, basis3):
        """K K^T eigenvalues 9/4 (x2) and (9/4)(1 - 3 pa pb) (x6)."""
        rng = np.random.default_rng(21)
        for _ in range(5):
            pa = rng.uniform(0.0, 1.0)
            pb = 1.0 - pa
            state = st.bell_diagonal(basis3, {(0, 0): pa, (2, 2): pb})
            eigs = np.sort(np.linalg.eigvalsh(state.K @ state.K.T))
            expected = np.sort(
                np.array([2.25] * 2 + [2.25 * (1.0 - 3.0 * pa * pb)] * 6)
            )
            assert_allclose(eigs, expected, atol=1e-10)

    def test_line_gram_spectrum(self, basis3):
        """K K^T eigenvalues 9/4 (x2) and (9/8) sum of squared gaps (x6)."""
        rng = np.random.default_rng(22)
        for _ in range(5):
            p = rng.dirichlet(np.ones(3))
            state = st.bell_diagonal(
                basis3, {(0, 0): p[0], (1, 1): p[1], (2, 2): p[2]}
            )
            gap = sum(
                (p[i] - p[j]) ** 2 for i in range(3) for j in range(i + 1, 3)
            )
            eigs = np.sort(np.linalg.eigvalsh(state.K @ state.K.T))
            expected = np.sort(np.array([2.25] * 2 + [1.125 * gap] * 6))
            assert_allclose(eigs, expected, atol=1e-10)

    def test_rejects_bad_weights(self, basis3):
        with pytest.raises(ValueError):
            st.bell_diagonal(basis3, {(0, 0): 0.5, (1, 1): 0.6})
        with pytest.raises(ValueError):
            st.bell_diagonal(basis3, {(0, 0): 1.5, (1, 1): -0.5})


class TestNamedFamilies:
    def test_isotropic_center(self, basis3):
        assert_allclose(st.isotropic(basis3, 0.0).rho, np.eye(9) / 9.0, atol=1e-15)

    def test_isotropic_correlation_d4(self, basis4):
        """K = 2p diag(1,-1,1,1,-1,1,-1,1,1,-1,1,-1,1,-1,1) at d = 4."""
        p = 0.4
        state = st.isotropic(basis4, p)
        signs = np.array([1, -1, 1, 1, -1, 1, -1, 1, 1, -1, 1, -1, 1, -1, 1.0])
        assert_allclose(state.K, 2.0 * p * np.diag(signs), atol=1e-10)
        assert_allclose(signs, st.transposition_signs(basis4), atol=0)

    def test_isotropic_range(self, basis3):
        st.isotropic(basis3, 1.0)
        st.isotropic(basis3, -1.0 / 8.0 + 1e-12)
        with pytest.raises(st.UnphysicalStateError):
            st.isotropic(basis3, 1.0 + 1e-6)
        with pytest.raises(st.UnphysicalStateError):
            st.isotropic(basis3, -1.0 / 8.0 - 1e-6)

    def test_class_a_is_werner_range(self, basis3):
        for t in (-0.75, 0.375):
            state = st.class_a_state(basis3, np.eye(3, dtype=complex), t)
            assert_allclose(state.K, t * np.eye(8), atol=1e-12)
        with pytest.raises(st.UnphysicalStateError):
            st.class_a_state(basis3, np.eye(3, dtype=complex), 0.375 + 1e-6)

    @pytest.mark.parametrize("d", [3, 4])
    def test_class_aa_correlation(self, d):
        basis = la.build_basis(d)
        U1 = la.random_special_unitary(d, 51)
        U2 = la.random_special_unitary(d, 52)
        t = 0.2
        state = st.class_aa_state(basis, U1, U2, t)
        I0 = np.diag(st.transposition_signs(basis))
        expected = t * la.adjoint_rep(basis, U1) @ I0 @ la.adjoint_rep(basis, U2).T
        assert_allclose(state.K, expected, atol=1e-10)
        assert state.is_lmm

    def test_sign_class_spectra(self, basis3):
        """Spectra (3-2t)/27 x8, (3+16t)/27 x1 for I0; (3-8t)/27 x3, (3+4t)/27 x6 for I."""
        I0 = st.transposition_signs(basis3)
        t = 0.11
        state = st.sign_class_state(basis3, I0, t)
        eigs = np.sort(np.linalg.eigvalsh(state.rho))
        expected = np.sort([(3 - 2 * t) / 27.0] * 8 + [(3 + 16 * t) / 27.0])
        assert_allclose(eigs, expected, atol=1e-12)
        state = st.sign_class_state(basis3, np.ones(8), t)
        eigs = np.sort(np.linalg.eigvalsh(state.rho))
        expected = np.sort([(3 - 8 * t) / 27.0] * 3 + [(3 + 4 * t) / 27.0] * 6)
        assert_allclose(eigs, expected, atol=1e-12)

    def test_sign_class_zero_t(self, basis3):
        state = st.sign_class_state(basis3, np.ones(8), 0.0)
        assert_allclose(state.rho, np.eye(9) / 9.0, atol=1e-15)

    def test_sign_class_out_of_range(self, basis3):
        with pytest.raises(st.UnphysicalStateError):
            st.sign_class_state(basis3, np.ones(8), 0.375 + 1e-6)


class TestTRange:
    def test_transposition_class(self, basis3):
        I0 = st.transposition_signs(basis3)
        lo, hi = st.t_range(basis3, lambda t: st.assemble(
            basis3, np.zeros(8), np.zeros(8), t * np.diag(I0)))
        assert_allclose((lo, hi), (-3.0 / 16.0, 1.5), atol=1e-12)

    def test_identity_class(self, basis3):
        lo, hi = st.t_range(basis3, lambda t: st.assemble(
            basis3, np.zeros(8), np.zeros(8), t * np.eye(8)))
        assert_allclose((lo, hi), (-0.75, 0.375), atol=1e-12)

    def test_single_flip_class(self, basis3):
        signs = np.ones(8)
        signs[7] = -1.0
        lo, hi = st.t_range(basis3, lambda t: st.assemble(
            basis3, np.zeros(8), np.zeros(8), t * np.diag(signs)))
        assert_allclose((lo, hi), (-0.375, 0.3), atol=1e-12)

    def test_rejects_nonaffine(self, basis3):
        with pytest.raises(st.AffineFamilyError):
            st.t_range(basis3, lambda t: st.assemble(
                basis3, np.zeros(8), np.zeros(8), t * t * np.eye(8)))


class TestStateDocuments:
    def test_coherence_round_trip(self, basis3, tmp_path):
        rng = np.random.default_rng(6)
        K = 0.3 * rng.standard_normal((8, 8))
        state = st.assemble(basis3, np.zeros(8), np.zeros(8), K)
        path = tmp_path / "state.json"
        st.write_state(state, path)
        loaded = st.read_state(path)
        assert_allclose(loaded.rho, state.rho, atol=1e-12)

    def test_dense_round_trip(self, basis3, tmp_path):
        state = st.isotropic(basis3, 0.5)
        path = tmp_path / "state.json"
        st.write_state(state, path, form="dense")
        loaded = st.read_state(path)
        assert_allclose(loaded.K, state.K, atol=1e-12)

    def test_rejects_both_variants(self):
        doc = {
            "d": 3,
            "x": [0.0] * 8,
            "y": [0.0] * 8,
            "K": np.zeros((8, 8)).tolist(),
            "rho_re": np.eye(9).tolist(),
            "rho_im": np.zeros((9, 9)).tolist(),
        }
        with pytest.raises(ValueError):
            st.state_from_document(doc)

    def test_rejects_neither_variant(self):
        with pytest.raises(ValueError):
            st.state_from_document({"d": 3})

    def test_rejects_partial_variant(self):
        with pytest.raises(ValueError):
            st.state_from_document({"d": 3, "x": [0.0] * 8})
