"""The D1 minimizer against a reference corpus.

``tests/data/d1_reference.json`` lists the ten seeded generic states of the
D2 corpus plus one at d = 6, each stored as (generator, d, seed) and rebuilt
by the plain-numpy generators of ``conftest.py``.  Each entry carries the D1
values that two earlier searches found for the state: a Nelder-Mead search
over theta (``nelder_mead``) and a smoothed quasi-Newton search in the
recentred chart, run through scipy's limited-memory BFGS (``lbfgs``).  The
lower one is the reference, stored with the frame that reached it, so each
reference is an upper bound on the discord that proves itself in one
objective evaluation.  The package's own dense BFGS must reach every
reference within tol.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from quditdiscord import discord as dc
from quditdiscord import lie_algebra as la
from quditdiscord import measurement as ms
from quditdiscord import states as st

from conftest import generic_lmm_rho, generic_rho

REFERENCE = Path(__file__).resolve().parent / "data" / "d1_reference.json"
GENERATORS = {"generic": generic_rho, "generic_lmm": generic_lmm_rho}
CORPUS = json.loads(REFERENCE.read_text())["states"]
IDS = [f"{e['generator']}-d{e['d']}-{e['seed']}" for e in CORPUS]
# Eight starts find every reference within tol; the default 32 would add
# about a minute to the suite.
CONFIG = dc.OptimizerConfig(starts=8)


def _state(entry):
    rho = GENERATORS[entry["generator"]](entry["d"], np.random.default_rng(entry["seed"]))
    return st.from_density(la.build_basis(entry["d"]), rho)


def _objective_at(state, frame):
    """pref1 ||S||_1 with S built from the frame's projectors."""
    d = state.d
    return d / (2.0 * (d - 1)) * ms.trace_norm_hermitian(ms.disturbance(state, frame))


@pytest.mark.parametrize("entry", CORPUS, ids=IDS)
def test_stored_frame_gives_the_reference(entry):
    """The reference is the objective at its stored frame, and the lower recorded value."""
    state = _state(entry)
    basis = la.build_basis(entry["d"])
    U = np.array(entry["U_re"]) + 1j * np.array(entry["U_im"])
    frame = ms.frame_from_unitary(basis, la.phase_normalize(U))
    assert _objective_at(state, frame) == pytest.approx(entry["d1"], rel=0, abs=1e-12)
    assert entry["d1"] == min(entry["nelder_mead"], entry["lbfgs"])


@pytest.mark.parametrize("entry", CORPUS, ids=IDS)
def test_reference_corpus(entry):
    """Xi bound <= minimized D1 <= reference + tol, and the value is the objective at the frame."""
    state = _state(entry)
    basis = la.build_basis(entry["d"])
    assert state.is_lmm == (entry["generator"] == "generic_lmm")
    est = dc.minimize_d1(state, CONFIG)
    assert (est.starts_run, est.converged) == (CONFIG.starts, True)  # no early stop
    assert est.value <= entry["d1"] + CONFIG.tol
    if state.is_lmm:
        assert dc.lower_bounds(basis, state.K)[1] <= est.value
    assert est.value == pytest.approx(_objective_at(state, est.frame), rel=0, abs=1e-12)
