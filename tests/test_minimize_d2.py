"""The D2 minimizer against a reference corpus and the invariants the paper implies.

``tests/data/d2_reference.json`` lists seeded generic states at d = 3..6,
each stored as (generator, d, seed) and rebuilt by the plain-numpy generators
of ``conftest.py`` the way ``bench/workloads.py`` builds its generic states.
Each entry carries the D2 value that an earlier 32-start search found for the
state (Nelder-Mead over theta at d = 3..5, Jacobi joint diagonalization at
d = 6), which is an upper bound on the discord the chart BFGS search must not
exceed by more than tol.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from quditdiscord import discord as dc
from quditdiscord import lie_algebra as la
from quditdiscord import measurement as ms
from quditdiscord import states as st

from conftest import generic_lmm_rho, generic_rho

REFERENCE = Path(__file__).resolve().parent / "data" / "d2_reference.json"
GENERATORS = {"generic": generic_rho, "generic_lmm": generic_lmm_rho}


def reference_rho(entry):
    return GENERATORS[entry["generator"]](entry["d"], np.random.default_rng(entry["seed"]))


def _state(d, seed, lmm):
    rho = (generic_lmm_rho if lmm else generic_rho)(d, np.random.default_rng(seed))
    return st.from_density(la.build_basis(d), rho)


def _objective_at(state, frame):
    """pref2 ||S||_F^2 with S built from the frame's projectors."""
    d = state.d
    S = ms.disturbance(state, frame)
    return d / (d - 1.0) * float(np.vdot(S, S).real)


CORPUS = json.loads(REFERENCE.read_text())["states"]


@pytest.mark.parametrize("entry", CORPUS,
                         ids=[f"{e['generator']}-d{e['d']}-{e['seed']}" for e in CORPUS])
def test_reference_corpus(entry):
    """Xi bound <= minimized value <= the recorded value + tol, and converged."""
    basis = la.build_basis(entry["d"])
    state = st.from_density(basis, reference_rho(entry))
    assert state.is_lmm == (entry["generator"] == "generic_lmm")
    config = dc.OptimizerConfig()
    est = dc.minimize_d2(state, config)
    assert est.converged is True
    assert est.value <= entry["d2"] + config.tol
    if state.is_lmm:
        assert dc.lower_bounds(basis, state.K)[0] <= est.value
    assert est.value == pytest.approx(_objective_at(state, est.frame), rel=0, abs=1e-12)


SEEDS = hst.integers(min_value=0, max_value=2 ** 32 - 1)
DIMS = hst.sampled_from([3, 4])
PROPERTY = settings(max_examples=8, deadline=None, derandomize=True)


class TestProperties:
    @PROPERTY
    @given(d=DIMS, seed=SEEDS, lmm=hst.booleans())
    def test_local_unitary_invariance(self, d, seed, lmm):
        state = _state(d, seed, lmm)
        W = np.kron(la.random_special_unitary(d, [seed, 1]),
                    la.random_special_unitary(d, [seed, 2]))
        moved = st.from_density(la.build_basis(d), W @ state.rho @ W.conj().T)
        cfg = dc.OptimizerConfig(starts=8)
        assert_allclose(dc.minimize_d2(moved, cfg).value, dc.minimize_d2(state, cfg).value,
                        rtol=0, atol=1e-9)

    @PROPERTY
    @given(d=DIMS, seed=SEEDS)
    def test_bound_chain(self, d, seed):
        """Xi lower bound <= minimized D2 <= the objective at any frame."""
        basis = la.build_basis(d)
        state = _state(d, seed, True)
        est = dc.minimize_d2(state, dc.OptimizerConfig(starts=8))
        assert dc.lower_bounds(basis, state.K)[0] <= est.value + 1e-12
        for k in range(5):
            frame = ms.random_frame(basis, [seed, k])
            assert est.value <= dc.d2_frame_value(basis, state.K, frame) + 1e-12

    @PROPERTY
    @given(d=DIMS, seed=SEEDS, lmm=hst.booleans())
    def test_value_matches_frame(self, d, seed, lmm):
        """The reported value is the objective at the reported frame."""
        state = _state(d, seed, lmm)
        est = dc.minimize_d2(state, dc.OptimizerConfig(starts=2, seed=seed % 100))
        assert_allclose(est.value, _objective_at(state, est.frame), rtol=0, atol=1e-12)


def test_converged_needs_two_agreeing_starts_and_a_small_last_gain():
    """converged: the winning start finished its level within max_iter and two starts agree.

    ``nfev`` counts objective calls, one at each start frame and at least one per BFGS
    iteration; ``best_residual`` is the winning start's last gradient infinity-norm.
    """
    iso = st.isotropic(la.build_basis(3), 0.3)
    assert dc.minimize_d2(iso, dc.OptimizerConfig(starts=1)).converged is False
    flat = dc.minimize_d2(iso, dc.OptimizerConfig(starts=2))
    assert (flat.converged, flat.nfev) == (True, 2)
    assert flat.best_residual <= dc.GTOL
    state = _state(4, 7, False)
    alone = dc.minimize_d2(state, dc.OptimizerConfig(starts=1))
    agreed = dc.minimize_d2(state, dc.OptimizerConfig(starts=4))
    assert alone.converged is False and agreed.converged is True
    assert alone.value == pytest.approx(agreed.value, rel=0, abs=dc.OptimizerConfig().tol)
    assert alone.nfev > 2 and agreed.nfev > alone.nfev
    capped = dc.minimize_d2(state, dc.OptimizerConfig(starts=4, max_iter=1))
    assert capped.nfev >= 2 * 4
    assert capped.best_residual > dc.OptimizerConfig().tol
    assert capped.converged is False
