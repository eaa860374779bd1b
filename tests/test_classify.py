import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quditdiscord import classify as cl
from quditdiscord import discord as dc
from quditdiscord import entanglement as ent
from quditdiscord import lie_algebra as la
from quditdiscord import measurement as ms
from quditdiscord import states as st

SQ2, SQ3 = math.sqrt(2.0), math.sqrt(3.0)


@pytest.fixture(scope="module")
def records(basis3):
    return cl.group_isospectral(basis3)


@pytest.fixture(scope="module")
def labeled(records):
    return cl.independent_classes(records)


class TestEnumeration:
    def test_count_and_uniqueness(self):
        states = cl.enumerate_sign_states()
        assert len(states) == 256
        assert len(set(states)) == 256

    def test_contains_identity_and_transposition(self, basis3):
        states = set(cl.enumerate_sign_states())
        assert cl.SignMatrix((1,) * 8) in states
        I0 = tuple(int(s) for s in st.transposition_signs(basis3))
        assert cl.SignMatrix(I0) in states

    def test_string_round_trip(self):
        sm = cl.SignMatrix.from_string("+-++-+-+")
        assert str(sm) == "+-++-+-+"
        assert sm.signs == (1, -1, 1, 1, -1, 1, -1, 1)


class TestAffineSpectrum:
    def test_identity_class(self, basis3):
        slopes = cl.affine_spectrum(basis3, cl.SignMatrix((1,) * 8))
        expected = np.sort([-8.0 / 3.0] * 3 + [4.0 / 3.0] * 6)
        assert_allclose(slopes, expected, atol=1e-10)

    def test_transposition_class(self, basis3):
        I0 = cl.SignMatrix(tuple(int(s) for s in st.transposition_signs(basis3)))
        slopes = cl.affine_spectrum(basis3, I0)
        expected = np.sort([-2.0 / 3.0] * 8 + [16.0 / 3.0])
        assert_allclose(slopes, expected, atol=1e-10)

    def test_single_flip(self, basis3):
        slopes = cl.affine_spectrum(basis3, cl.SignMatrix((1,) * 7 + (-1,)))
        expected = np.sort(
            [-10.0 / 3.0] + [-4.0 / 3.0] * 3 + [2.0 / 3.0] * 3 + [8.0 / 3.0] * 2
        )
        assert_allclose(slopes, expected, atol=1e-10)

    def test_slopes_sum_to_zero(self, records):
        for rec in records:
            assert abs(np.sum(rec.slopes)) < 1e-10


class TestGrouping:
    def test_sixteen_classes(self, records):
        assert len(records) == 16
        assert sum(len(r.members) for r in records) == 256

    def test_independent_sizes(self, labeled):
        sizes = {k: len(v.members) for k, v in labeled.items()}
        assert sizes == cl.EXPECTED_CLASS_SIZES

    def test_negation_pairing(self, records, labeled):
        """Every class has a partner whose slopes are the negated multiset."""
        keys = {tuple(np.round(r.slopes, 9)): r for r in records}
        for rec in records:
            negated = tuple(np.round(np.sort(-rec.slopes), 9))
            assert negated in keys
        # independent classes cover half of the matrices
        assert sum(len(v.members) for v in labeled.values()) == 128

    def test_t_ranges(self, labeled):
        assert_allclose(labeled["E1"].t_range, (-3.0 / 8.0, 3.0 / 10.0), atol=1e-12)
        assert_allclose(labeled["E3"].t_range, (-3.0 / 4.0, 3.0 / 8.0), atol=1e-12)
        assert_allclose(labeled["E5"].t_range, (-3.0 / 8.0, 3.0 / 10.0), atol=1e-12)
        assert_allclose(labeled["E7"].t_range, (-3.0 / 16.0, 3.0 / 2.0), atol=1e-12)
        assert_allclose(
            labeled["E4"].t_range, (-3.0 / (6.0 * SQ2 + 4.0), 3.0 / 8.0), atol=1e-9
        )
        assert_allclose(
            labeled["E8"].t_range,
            (-3.0 / (6.0 * SQ3 + 2.0), 3.0 / (6.0 * SQ3 - 2.0)),
            atol=1e-9,
        )
        # numeric-only endpoints
        assert abs(labeled["E6"].t_range[0] - (-0.3163)) < 1e-3
        assert abs(labeled["E6"].t_range[1] - 0.3404) < 1e-3

    def test_orbit_structure(self, labeled):
        orbit_counts = {k: len(v.orbits) for k, v in labeled.items()}
        assert orbit_counts == {
            "E1": 8, "E2": 4, "E3": 4, "E4": 7, "E5": 3, "E6": 4, "E7": 1, "E8": 1,
        }
        for rec in labeled.values():
            seen = set()
            for orbit in rec.orbits:
                assert len(orbit.members) == 4
                seen.update(orbit.members)
            assert seen == set(rec.members)


class TestLocalOrbits:
    def test_identity_orbit_is_good_class(self, basis3):
        orbit = cl.local_orbit(cl.SignMatrix((1,) * 8))
        autos, _ = cl.jordan_good_matrices(basis3)
        assert set(orbit) == set(autos)

    def test_transposition_orbit_is_anti_class(self, basis3):
        I0 = cl.SignMatrix(tuple(int(s) for s in st.transposition_signs(basis3)))
        orbit = cl.local_orbit(I0)
        _, antis = cl.jordan_good_matrices(basis3)
        assert set(orbit) == set(antis)

    def test_orbit_members_isospectral_and_equal_bounds(self, basis3):
        rng = np.random.default_rng(12)
        for code in rng.integers(0, 256, size=6):
            sm = cl.SignMatrix.from_code(int(code))
            base = cl.affine_spectrum(basis3, sm)
            base_bounds = dc.lower_bounds(basis3, 0.2 * sm.matrix)
            for member in cl.local_orbit(sm):
                assert_allclose(
                    cl.affine_spectrum(basis3, member), base, atol=1e-10
                )
                assert_allclose(
                    dc.lower_bounds(basis3, 0.2 * member.matrix),
                    base_bounds,
                    atol=1e-10,
                )

    def test_orbit_states_locally_equivalent(self, basis3):
        """rho_{I V_k} = (I x W_k) rho_I (I x W_k)^+ for the local signs."""
        ws = (
            np.diag([1.0, -1.0, -1.0]),
            np.diag([-1.0, 1.0, -1.0]),
            np.diag([-1.0, -1.0, 1.0]),
        )
        sm = cl.SignMatrix.from_string("++-+-++-")
        t = 0.15
        rho = st.sign_class_state(basis3, sm.vector, t).rho
        for w in ws:
            v = np.round(np.diag(la.adjoint_rep(basis3, w.astype(complex))))
            rotated = st.sign_class_state(basis3, sm.vector * v, t).rho
            local = np.kron(np.eye(3), w)
            assert np.max(np.abs(rotated - local @ rho @ local.conj().T)) < 1e-12


class TestRealignmentMax:
    def test_interval_ends_bound_the_grid(self, basis3, records):
        """N_R is convex in t, so the max over t_range sits at one of its ends.

        A grid scan of t_range, as the report used to run, is the reference:
        none of its 201 points may exceed realignment_max, which must be the
        larger of the two end values.
        """
        eye = np.eye(9)
        orbits = 0
        for rec in records:
            for orbit in rec.orbits:
                C = la.expand_pair(basis3, 0.0, np.zeros(8), np.zeros(8),
                                   orbit.representative.matrix)

                def n_r(t):
                    return ent.realignment_negativity((eye + t * C) / 9.0, 3)

                ends = max(n_r(t) for t in rec.t_range)
                assert orbit.realignment_max == ends
                grid = np.linspace(rec.t_range[0], rec.t_range[1], 201)
                assert max(n_r(t) for t in grid) <= orbit.realignment_max + 1e-12
                orbits += 1
        assert orbits == 64


class TestJordanGood:
    def test_split_four_four(self, basis3):
        autos, antis = cl.jordan_good_matrices(basis3)
        assert len(autos) == 4
        assert len(antis) == 4

    def test_transposed_conjugation_form(self, basis3):
        """I0 V1 acts as A -> W1 A^T W1."""
        I0 = np.diag(st.transposition_signs(basis3))
        W1 = np.diag([1.0, -1.0, -1.0])
        V1 = la.adjoint_rep(basis3, W1.astype(complex))
        T = I0 @ V1
        rng = np.random.default_rng(3)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        A = (m + m.conj().T) / 2.0
        assert np.max(np.abs(ms.tau_map(basis3, T, A) - W1 @ A.T @ W1)) < 1e-12

    def test_good_matrices_have_zero_residual(self, basis3):
        autos, antis = cl.jordan_good_matrices(basis3)
        for k in range(100):
            frame = ms.random_frame(basis3, [201, k])
            for sm in autos + antis:
                assert dc.measurement_star_residual(basis3, sm.vector, frame) < 1e-10

    def test_every_bad_matrix_fails_within_budget(self, basis3):
        """Converse direction: every non-good sign matrix has a witnessing frame.

        The star-sum condition sees I only through I M I, so it cannot
        distinguish I from -I: the 8 sign images of the good matrices have
        identically zero residual without being Jordan automorphisms.  The
        witness search therefore applies to sign matrices normalized to a
        positive last entry (the normalization under which the good set is
        characterized); for the images the residual identity is checked
        directly.
        """
        autos, antis = cl.jordan_good_matrices(basis3)
        good = {sm for sm in autos + antis}
        negated = {cl.SignMatrix(tuple(-s for s in sm.signs)) for sm in good}
        frames = [ms.random_frame(basis3, [202, k]) for k in range(200)]
        for sm in cl.enumerate_sign_states():
            if sm in good:
                continue
            if sm in negated:
                # residual is quadratic in I, so it matches the good partner
                partner = cl.SignMatrix(tuple(-s for s in sm.signs))
                assert partner in good
                assert dc.jordan_classify(basis3, sm.matrix).kind == "neither"
                assert dc.measurement_star_residual(
                    basis3, sm.vector, frames[0]) < 1e-10
                continue
            found = any(
                dc.measurement_star_residual(basis3, sm.vector, frame) > 1e-3
                for frame in frames
            )
            assert found, f"no witnessing frame for {sm}"


def _test_signs(basis):
    """All-plus, transposition and a seeded mixed sign vector of length n."""
    mixed = np.where(np.random.default_rng([71, basis.d]).random(basis.n) < 0.5, -1.0, 1.0)
    return np.array([np.ones(basis.n), st.transposition_signs(basis), mixed])


class TestStackedOracles:
    """The stacked appendix-c computations against the per-item functions.

    Sign vectors that are not Jordan-good give frame-dependent residuals and
    squares, so agreement also shows that the same seeded samples are drawn.
    """

    def test_slopes_match_affine_spectrum(self, basis3):
        states = cl.enumerate_sign_states()
        stacked = np.linalg.eigvalsh(cl._sign_operators(basis3, [sm.vector for sm in states]))
        for slopes, sm in zip(stacked, states):
            assert np.max(np.abs(slopes - cl.affine_spectrum(basis3, sm))) < 1e-13

    def test_class_slopes_are_member_spectra(self, records, basis3):
        for rec in records:
            for sm in rec.members:
                assert_allclose(rec.slopes, cl.affine_spectrum(basis3, sm), atol=1e-9)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_frame_residuals_match_per_frame_loop(self, d):
        basis = la.build_basis(d)
        signs = _test_signs(basis)
        stacked = cl._frame_star_residuals(basis, signs)
        assert stacked.shape == (cl._FRAME_SAMPLES, len(signs))
        for k in range(cl._FRAME_SAMPLES):
            frame = ms.random_frame(basis, [cl._FRAME_SEED, k])
            for i, s in enumerate(signs):
                oracle = dc.measurement_star_residual(basis, s, frame)
                assert abs(stacked[k, i] - oracle) < 1e-13
        assert np.max(stacked[:, 2]) > 1e-3  # the mixed vector is not Jordan-good

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_square_sums_match_per_sample_tau_map(self, d):
        basis = la.build_basis(d)
        signs = _test_signs(basis)
        stacked = cl._square_sums(basis, signs)
        assert stacked.shape == (len(signs), cl._SQUARE_SAMPLES, d, d)
        diagonal = [basis.generators[i - 1] for i in basis.diagonal_indices]
        for i, s in enumerate(signs):
            for k in range(cl._SQUARE_SAMPLES):
                U = la.random_special_unitary(d, [cl._SQUARE_SEED, i, k])
                oracle = sum(
                    m @ m for m in (ms.tau_map(basis, np.diag(s), U @ g @ U.conj().T)
                                    for g in diagonal))
                assert np.max(np.abs(stacked[i, k] - oracle)) < 1e-13
        target = (2.0 * (d - 1) / d) * np.eye(d)
        assert np.max(np.abs(stacked[2] - target)) > 1e-3


class TestFixtures:
    def test_six_clean_matches_and_duplication(self, basis3):
        report = cl.verify_adjoint_fixtures(basis3)
        assert report.duplication_detected
        assert report.replacements_differ
        assert len(report.clean_matches) == 6
        flagged = {e.label for e in report.entries if e.duplicated}
        assert flagged == {(0, 1), (1, 0)}
        for e in report.clean_matches:
            assert e.max_abs_diff < 1e-10

    def test_phase_weyl_adjoint_matches_reference_slot(self, basis3):
        """R of diag(1, w, w^2) appears in the reference table at slot (2, 0)."""
        R = la.adjoint_rep(basis3, st.weyl_operator(3, (0, 1)))
        assert np.max(np.abs(R - cl._FIXTURES[(2, 0)])) < 1e-12


@pytest.fixture(scope="module")
def report(basis3):
    return cl.classification_report(basis3)


class TestClassificationReport:
    def test_counts(self, report):
        assert len(report.all_classes) == 16
        assert report.class_sizes == cl.EXPECTED_CLASS_SIZES

    def test_ppt_boundaries(self, report):
        e3 = {str(o.representative): o for o in report.classes["E3"].orbits}
        assert_allclose(e3["++++++++"].ppt_range, (-3.0 / 16.0, 3.0 / 8.0), atol=1e-9)
        for rep, orbit in e3.items():
            if rep != "++++++++":
                assert_allclose(orbit.ppt_range, (-3.0 / 10.0, 3.0 / 8.0), atol=1e-9)
        e1 = report.classes["E1"].orbits
        special = [o for o in e1 if cl.SignMatrix((1,) * 7 + (-1,)) in o.members]
        assert len(special) == 1
        assert_allclose(
            special[0].ppt_range, (-3.0 / (2.0 + 6.0 * SQ3), 3.0 / 10.0), atol=1e-9
        )
        for o in e1:
            if o is not special[0]:
                assert_allclose(
                    o.ppt_range, (-3.0 / 8.0, 3.0 / (4.0 + 6.0 * SQ2)), atol=1e-9
                )
        e7 = report.classes["E7"].orbits[0]
        assert_allclose(e7.ppt_range, (-3.0 / 16.0, 3.0 / 8.0), atol=1e-9)
        e8 = report.classes["E8"].orbits[0]
        assert_allclose(
            e8.ppt_range, (-3.0 / (6.0 * SQ3 + 2.0), 3.0 / 10.0), atol=1e-9
        )
        for o in report.classes["E6"].orbits:
            assert_allclose(o.ppt_range[1], 3.0 / 10.0, atol=1e-9)
        for o in report.classes["E2"].orbits:
            assert abs(o.ppt_range[0] - (-0.316)) < 1e-3

    def test_separable_looking_classes(self, report):
        """E4 and E5 are PPT with zero realignment across their whole range."""
        for cid in ("E4", "E5"):
            rec = report.classes[cid]
            assert rec.realignment_zero
            for orbit in rec.orbits:
                assert_allclose(orbit.ppt_range, rec.t_range, atol=1e-9)

    def test_jordan_checks(self, report):
        assert len(report.automorphisms) == 4
        assert len(report.anti_automorphisms) == 4
        assert report.square_identity_max_defect < 1e-10
        assert report.good_residual_max < 1e-10

    def test_json_round_trip(self, report):
        import json

        doc = cl.report_to_json(report)
        text = json.dumps(doc, sort_keys=True)
        again = json.loads(text)
        assert again["class_sizes"] == {k: v for k, v in cl.EXPECTED_CLASS_SIZES.items()}
        assert len(again["classes"]) == 8
        assert again["n_isospectral_classes"] == 16

    def test_text_rendering(self, report):
        text = cl.report_to_text(report)
        assert "E7" in text
        assert "note:" in text
