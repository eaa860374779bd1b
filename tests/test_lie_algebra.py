import numpy as np
import pytest
from numpy.testing import assert_allclose

from quditdiscord import lie_algebra as la

from conftest import random_hermitian


SQ3 = np.sqrt(3.0)


class TestBasis:
    def test_rejects_small_dimensions(self):
        for d in (0, 1, 2):
            with pytest.raises(la.UnsupportedDimensionError):
                la.build_basis(d)

    def test_d3_is_standard_gell_mann(self, basis3):
        g = basis3.generators
        assert_allclose(g[2], np.diag([1.0, -1.0, 0.0]), atol=1e-15)
        assert_allclose(g[7], np.diag([1.0, 1.0, -2.0]) / SQ3, atol=1e-15)
        assert_allclose(g[0], np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]), atol=1e-15)
        assert_allclose(
            g[1], np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]), atol=1e-15
        )

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_orthonormality_and_traces(self, d):
        basis = la.build_basis(d)
        g = basis.generators
        gram = np.einsum("jab,kba->jk", g, g)
        assert_allclose(gram, 2.0 * np.eye(basis.n), atol=1e-12)
        assert np.max(np.abs(np.einsum("jaa->j", g))) < 1e-12

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_diagonal_positions(self, d):
        basis = la.build_basis(d)
        expected = tuple(k * k - 1 for k in range(2, d + 1))
        assert basis.diagonal_indices == expected
        for j in range(1, basis.n + 1):
            gen = basis.generators[j - 1]
            off = gen - np.diag(np.diag(gen))
            if j in expected:
                assert np.max(np.abs(off)) == 0.0
            else:
                assert np.max(np.abs(np.diag(gen))) == 0.0

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_diagonal_square_sum(self, d):
        basis = la.build_basis(d)
        acc = sum(
            basis.generators[i - 1] @ basis.generators[i - 1]
            for i in basis.diagonal_indices
        )
        assert_allclose(acc, (2.0 * (d - 1) / d) * np.eye(d), atol=1e-12)


class TestStructureTensors:
    def test_d3_reference_values(self, tensors3):
        assert_allclose(tensors3.fhat[0, 1, 2], 1.0, atol=1e-12)
        assert_allclose(tensors3.dhat[0, 0, 7], 1.0 / SQ3, atol=1e-12)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_symmetries(self, d):
        t = la.structure_tensors(la.build_basis(d))
        assert_allclose(t.dhat, t.dhat.transpose(1, 0, 2), atol=1e-12)
        assert_allclose(t.dhat, t.dhat.transpose(0, 2, 1), atol=1e-12)
        assert_allclose(t.fhat, -t.fhat.transpose(1, 0, 2), atol=1e-12)
        assert_allclose(t.fhat, -t.fhat.transpose(0, 2, 1), atol=1e-12)

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
    def test_matches_direct_traces(self, d):
        """dhat + i fhat = tr(g_j g_k g_l)/2 to 1e-14, exact zeros where it is below 1e-14.

        The whole tensor is checked for d <= 5, 300 seeded (j, k, l) triples above.
        """
        basis = la.build_basis(d)
        g, n = basis.generators, basis.n
        t = la.structure_tensors(basis)
        if d <= 5:
            idx = tuple(np.indices((n, n, n)).reshape(3, -1))
            direct = np.einsum("jab,kbc,lca->jkl", g, g, g)[idx] / 2.0
        else:
            idx = tuple(np.random.default_rng([41, d]).integers(0, n, size=(3, 300)))
            direct = np.array([np.trace(g[j] @ g[k] @ g[l]) for j, k, l in zip(*idx)]) / 2.0
        for got, want in ((t.dhat[idx], direct.real), (t.fhat[idx], direct.imag)):
            assert np.max(np.abs(got - want)) < 1e-14
            assert np.array_equal(got == 0.0, np.abs(want) < la.TENSOR_ZERO_TOL)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_delta_traceless(self, d):
        t = la.structure_tensors(la.build_basis(d))
        assert np.max(np.abs(np.einsum("jkk->j", t.dhat))) < 1e-12


class TestStarWedge:
    def test_e1_star_e1(self, tensors3):
        e = np.eye(8)
        assert_allclose(la.star(tensors3, e[0], e[0]), e[7], atol=1e-12)

    def test_star_with_zero(self, tensors3):
        rng = np.random.default_rng(0)
        n = rng.standard_normal(8)
        assert_allclose(la.star(tensors3, n, np.zeros(8)), np.zeros(8), atol=1e-15)

    def test_wedge_antisymmetry(self, tensors3):
        rng = np.random.default_rng(1)
        n, m = rng.standard_normal(8), rng.standard_normal(8)
        assert_allclose(la.wedge(tensors3, n, n), np.zeros(8), atol=1e-12)
        assert_allclose(
            la.wedge(tensors3, n, m), -la.wedge(tensors3, m, n), atol=1e-12
        )

    def test_e1_wedge_e2(self, tensors3):
        e = np.eye(8)
        assert_allclose(la.wedge(tensors3, e[0], e[1]), SQ3 * e[2], atol=1e-12)

    def test_pure_state_idempotent_vector(self, basis3, tensors3):
        # diag(1,0,0) has coherence vector (0,0,sqrt(3)/2,0,...,0,1/2)
        n = np.zeros(8)
        n[2], n[7] = SQ3 / 2.0, 0.5
        rho = la.expand(basis3, 1.0 / 3.0, basis3.dprimeprime / 3.0 * n)
        assert_allclose(rho, np.diag([1.0, 0.0, 0.0]), atol=1e-12)
        assert_allclose(n @ n, 1.0, atol=1e-12)
        assert_allclose(la.star(tensors3, n, n), n, atol=1e-12)

    @pytest.mark.parametrize("d", [3, 4])
    def test_pure_state_law_random_projector(self, d):
        basis = la.build_basis(d)
        t = la.structure_tensors(basis)
        rng = np.random.default_rng(7)
        for _ in range(10):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            _, a = la.decompose(basis, rho)
            n = a / basis.dprimeprime * d  # rho = (I + d'' <n,g>)/d => a = d'' n / d
            assert_allclose(n @ n, 1.0, atol=1e-10)
            assert np.max(np.abs(la.star(t, n, n) - n)) < 1e-10

    def test_dimension_mismatch(self, tensors3):
        with pytest.raises(ValueError):
            la.star(tensors3, np.zeros(7), np.zeros(8))

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_matches_einsum(self, d):
        basis = la.build_basis(d)
        t = la.structure_tensors(basis)
        rng = np.random.default_rng([43, d])
        for _ in range(5):
            a, b = rng.standard_normal(basis.n), rng.standard_normal(basis.n)
            for product, T in ((la.star, t.dhat), (la.wedge, t.fhat)):
                expected = basis.dprime * np.einsum("jkl,k,l->j", T, a, b, optimize=True)
                assert np.max(np.abs(product(t, a, b) - expected)) < 1e-12


class TestExpandDecompose:
    def test_identity_over_d(self, basis3):
        assert_allclose(
            la.expand(basis3, 1.0 / 3.0, np.zeros(8)), np.eye(3) / 3.0, atol=1e-15
        )

    def test_single_generator(self, basis3):
        a0, a = la.decompose(basis3, basis3.generators[4])
        expected = np.zeros(8)
        expected[4] = 1.0
        assert_allclose(a0, 0.0, atol=1e-12)
        assert_allclose(a, expected, atol=1e-12)

    def test_projector_coefficients(self, basis3):
        # tr formulas give a0 = 1/3, a3 = 1/2, a8 = 1/(2 sqrt 3)
        a0, a = la.decompose(basis3, np.diag([1.0, 0.0, 0.0]))
        expected = np.zeros(8)
        expected[2], expected[7] = 0.5, 0.5 / SQ3
        assert_allclose(a0, 1.0 / 3.0, atol=1e-12)
        assert_allclose(a, expected, atol=1e-12)

    @pytest.mark.parametrize("d", [3, 4])
    def test_round_trip(self, d):
        basis = la.build_basis(d)
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = random_hermitian(d, rng)
            a0, a = la.decompose(basis, A)
            assert_allclose(la.expand(basis, a0, a), A, atol=1e-12)

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_decompose_complex_matches_einsum(self, d):
        basis = la.build_basis(d)
        rng = np.random.default_rng([44, d])
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a0, a = la.decompose_complex(basis, A)
        assert a0 == np.trace(A) / d
        expected = 0.5 * np.einsum("ab,jba->j", A, basis.generators, optimize=True)
        assert np.max(np.abs(a - expected)) < 1e-14

    def test_rejects_non_hermitian(self, basis3):
        bad = np.zeros((3, 3), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            la.decompose(basis3, bad)

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
    def test_expand_matches_einsum_bit_for_bit(self, d):
        """The flattened product gives the generator sum einsum gives, bit for bit."""
        basis = la.build_basis(d)
        n = basis.n
        rng = np.random.default_rng([12, d])
        for _ in range(10):
            real = rng.standard_normal(n)
            cplx = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for a0, a in ((0.0, real), (0.3, real), (0.2 - 0.1j, cplx)):
                old = a0 * np.eye(d, dtype=complex) + np.einsum(
                    "j,jab->ab", a, basis.generators)
                assert np.array_equal(la.expand(basis, a0, a), old)

    @pytest.mark.parametrize("d", [3, 5])
    def test_expand_pair_matches_kron_sum(self, d):
        """All four terms land in the a0 I x I + <x,g> x I + I x <y,g> + K order."""
        basis = la.build_basis(d)
        g, n, eye = basis.generators, basis.n, np.eye(d)
        rng = np.random.default_rng([11, d])
        a0 = 0.7
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        K = rng.standard_normal((n, n))
        expected = a0 * np.eye(d * d, dtype=complex)
        for j in range(n):
            expected += x[j] * np.kron(g[j], eye) + y[j] * np.kron(eye, g[j])
            for k in range(n):
                expected += K[j, k] * np.kron(g[j], g[k])
        assert_allclose(la.expand_pair(basis, a0, x, y, K), expected, atol=1e-12)


def _jordan_product(basis, a, b):
    """(AB + BA)/2 in coefficient form through the star product.

    For A = a0 I + <a, g>, B = b0 I + <b, g>:
    c0 = a0 b0 + (2/d) <a, b> and c = a0 b + b0 a + (a * b)/d'.
    """
    (a0, av), (b0, bv) = a, b
    c0 = a0 * b0 + (2.0 / basis.d) * float(av @ bv)
    c = a0 * bv + b0 * av + la.star(la.structure_tensors(basis), av, bv) / basis.dprime
    return c0, c


class TestJordanProduct:
    def test_identity_element(self, basis3):
        c0, c = _jordan_product(basis3, (1.0, np.zeros(8)), (1.0, np.zeros(8)))
        assert_allclose(c0, 1.0, atol=1e-15)
        assert_allclose(c, np.zeros(8), atol=1e-15)

    def test_e1_only_vectors(self, basis3):
        e = np.eye(8)
        c0, c = _jordan_product(basis3, (0.0, e[0]), (0.0, e[0]))
        assert_allclose(c0, 2.0 / 3.0, atol=1e-12)
        assert_allclose(c, e[7] / SQ3, atol=1e-12)

    @pytest.mark.parametrize("d", [3, 4])
    def test_matrix_oracle(self, d):
        """Coefficient-form product equals decompose((AB + BA)/2) directly."""
        basis = la.build_basis(d)
        rng = np.random.default_rng(11)
        for _ in range(100):
            A = random_hermitian(d, rng)
            B = random_hermitian(d, rng)
            c0, c = _jordan_product(
                basis, la.decompose(basis, A), la.decompose(basis, B)
            )
            e0, e = la.decompose(basis, 0.5 * (A @ B + B @ A))
            assert_allclose(c0, e0, atol=1e-12)
            assert_allclose(c, e, atol=1e-12)


class TestAdjointRep:
    def test_identity(self, basis3):
        assert_allclose(
            la.adjoint_rep(basis3, np.eye(3, dtype=complex)), np.eye(8), atol=1e-12
        )

    def test_sign_flip_unitary(self, basis3):
        W1 = np.diag([1.0, -1.0, -1.0]).astype(complex)
        expected = np.diag([-1.0, -1.0, 1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
        assert_allclose(la.adjoint_rep(basis3, W1), expected, atol=1e-12)

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
    def test_orthogonal_and_homomorphism(self, d):
        basis = la.build_basis(d)
        for k in range(5):
            U1 = la.random_special_unitary(d, [21, d, k])
            U2 = la.random_special_unitary(d, [22, d, k])
            R1, R2 = la.adjoint_rep(basis, U1), la.adjoint_rep(basis, U2)
            assert np.max(np.abs(R1.T @ R1 - np.eye(basis.n))) < 1e-10
            assert np.max(np.abs(la.adjoint_rep(basis, U1 @ U2) - R1 @ R2)) < 1e-10

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_matches_trace_oracle(self, d):
        """R(U)_jk = tr(U g_k U^+ g_j)/2, entry by entry."""
        basis = la.build_basis(d)
        g = basis.generators
        U = la.random_special_unitary(d, [23, d])
        expected = 0.5 * np.einsum("ab,kbc,dc,jda->jk", U, g, U.conj(), g, optimize=True)
        assert np.max(np.abs(la.adjoint_rep(basis, U) - expected.real)) < 1e-13

    def test_rejects_non_unitary(self, basis3):
        with pytest.raises(ValueError):
            la.adjoint_rep(basis3, np.ones((3, 3), dtype=complex))

    def test_rejects_non_special(self, basis3):
        U = np.diag([1.0, 1.0, 1.0j])
        with pytest.raises(ValueError):
            la.adjoint_rep(basis3, U)
        # phase normalization repairs it
        la.adjoint_rep(basis3, la.phase_normalize(U))

    @pytest.mark.parametrize("d", [3, 4])
    def test_covariance_and_transport(self, d):
        """Star/wedge covariance and Delta/F transport under 100 seeded R(U)."""
        basis = la.build_basis(d)
        t = la.structure_tensors(basis)
        rng = np.random.default_rng(31)
        n = basis.n
        for k in range(100):
            R = la.adjoint_rep(basis, la.random_special_unitary(d, [31, d, k]))
            a, b = rng.standard_normal(n), rng.standard_normal(n)
            assert np.max(np.abs(
                R @ la.star(t, a, b) - la.star(t, R @ a, R @ b))) < 1e-10
            assert np.max(np.abs(
                R @ la.wedge(t, a, b) - la.wedge(t, R @ a, R @ b))) < 1e-10
            lhs_d = np.stack([R.T @ t.dhat[j] @ R for j in range(n)])
            lhs_f = np.stack([R.T @ t.fhat[j] @ R for j in range(n)])
            assert np.max(np.abs(lhs_d - np.einsum("jk,kab->jab", R, t.dhat))) < 1e-10
            assert np.max(np.abs(lhs_f - np.einsum("jk,kab->jab", R, t.fhat))) < 1e-10

    @pytest.mark.parametrize("d", [3, 4])
    def test_product_law(self, d):
        """expand(n) expand(m) = (2/d)<n,m> I + (<n*m,g> + i <n^m,g>)/d'."""
        basis = la.build_basis(d)
        t = la.structure_tensors(basis)
        rng = np.random.default_rng(17)
        for _ in range(10):
            n, m = rng.standard_normal(basis.n), rng.standard_normal(basis.n)
            lhs = la.expand(basis, 0.0, n) @ la.expand(basis, 0.0, m)
            rhs = (2.0 / d) * (n @ m) * np.eye(d)
            rhs = rhs + la.expand(basis, 0.0, la.star(t, n, m)) / basis.dprime
            rhs = rhs + 1j * la.expand(basis, 0.0, la.wedge(t, n, m)) / basis.dprime
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestStarSumCriterion:
    def test_identity_pair(self, tensors3):
        res = la.star_sum_criterion(tensors3, np.eye(8), np.eye(8))
        assert res.satisfied
        assert res.max_delta_trace < 1e-12

    def test_measurement_complement(self, basis3, tensors3):
        from quditdiscord import measurement as ms

        for k in range(5):
            frame = ms.random_frame(basis3, [5, k])
            res = la.star_sum_criterion(tensors3, np.eye(8), frame.M_real)
            assert res.satisfied

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_matches_einsum(self, d):
        basis = la.build_basis(d)
        t = la.structure_tensors(basis)
        rng = np.random.default_rng([45, d])
        A, B = rng.standard_normal((t.n, t.n)), rng.standard_normal((t.n, t.n))
        traces = np.einsum("km,jkl,lm->j", A, t.dhat, B, optimize=True)
        res = la.star_sum_criterion(t, A, B)
        assert np.max(np.abs(res.residual - basis.dprime * traces)) < 1e-12
        assert abs(res.max_delta_trace - np.max(np.abs(traces))) < 1e-12

    def test_random_pair_fails_with_consistent_reports(self, tensors3):
        rng = np.random.default_rng(9)
        found = False
        for _ in range(20):
            A = rng.standard_normal((8, 8))
            B = rng.standard_normal((8, 8))
            res = la.star_sum_criterion(tensors3, A, B)
            if not res.satisfied:
                assert res.max_delta_trace > 1e-10
                assert np.max(np.abs(res.residual)) > 1e-10
                found = True
        assert found


class TestRandomUnitary:
    def test_zero_theta_is_identity(self, basis3):
        U = la.expi(la.expand(basis3, 0.0, np.zeros(8)))
        assert_allclose(U, np.eye(3), atol=1e-15)

    def test_deterministic(self):
        assert_allclose(
            la.random_special_unitary(3, 123), la.random_special_unitary(3, 123)
        )

    def test_unitarity_batch(self):
        for k in range(1000):
            U = la.random_special_unitary(3, k)
            assert np.max(np.abs(U.conj().T @ U - np.eye(3))) < 1e-10

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_stacked_adjoint_reps_match_per_seed(self, d):
        """Row k of the stack is R(U) of the unitary that seed k draws on its own."""
        basis = la.build_basis(d)
        seeds = [[0, d, k] for k in range(10)] + [1234, [7, 3]]
        stacked = la.random_adjoint_reps(basis, seeds)
        assert stacked.shape == (len(seeds), basis.n, basis.n)
        for R, seed in zip(stacked, seeds):
            oracle = la.adjoint_rep(basis, la.random_special_unitary(d, seed))
            assert np.max(np.abs(R - oracle)) < 1e-13
