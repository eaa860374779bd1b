"""Workload definitions: seeded state documents, CLI operations and their checks.

Every state is built here in plain numpy, without the package, so that the
reference values come from closed forms that do not depend on the package's
generator ordering:

* class A (automorphism):       rho = (I + t (U x I)(2 SWAP - 2/d I)(U x I)^+) / d^2,
  D1 = |t|, D2 = 4 t^2 / d^2;
* class AA (anti-automorphism): rho = (I + t (U1 x U2)(2 d Phi - 2/d I)(U1 x U2)^+) / d^2,
  D1 = 2|t|/d, D2 = 4 t^2 / d^2 (isotropic states are U1 = U2 = I);
* orthogonal:                   K = t V0 with V0 a random orthogonal matrix,
  D2 = 4 t^2 / d^2 and the Xi bounds;
* generic locally maximally mixed states: the Xi bounds from the singular
  values of K, which do not depend on the basis;
* generic states: the objectives at the computational-basis frame bound the
  minimizer's values from above.

Coherence-form documents need the package's basis, so they are converted
with ``quditdiscord.states.decompose`` outside any timed or traced region.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

ANALYTIC_TOL = 1e-12   # closed forms, bounds and recorded reference outputs
NUMERIC_TOL = 1e-6     # numeric D1/D2 against analytic values (acceptance criterion 07)

# Optimizer budget of the numeric-frames operations: three starts, so that a
# multi-start early stop has something to save, and a capped iteration count,
# so that one operation costs a few hundred objective calls.
NUMERIC_ARGS = ["--numeric", "--starts", "3", "--max-iter", "25"]

# Fixed scan grids; their outputs are compared against files recorded from
# the seed commit, so they do not vary with the workload seed.
SCAN_OPS = (
    [(f"scan-werner-d{d}", ["scan", "--family", "werner", "--d", str(d),
                            "--t-min", repr(-0.8 * d / (2 * (d - 1))),
                            "--t-max", repr(0.8 * d / (2 * (d + 1))), "--t-steps", "3"])
     for d in (3, 4, 5, 6)]
    + [(f"scan-isotropic-d{d}", ["scan", "--family", "isotropic", "--d", str(d),
                                 "--t-min", repr(-0.8 / (d * d - 1)),
                                 "--t-max", "0.9", "--t-steps", "3"])
       for d in (3, 4, 5, 6)]
    + [("scan-sign-d3", ["scan", "--family", "sign:+-++-+-+", "--d", "3",
                         "--t-min", "0", "--t-max", "1.2", "--t-steps", "4"]),
       ("scan-pair-d3", ["scan", "--family", "pair", "--d", "3",
                         "--t-min", "0", "--t-max", "1", "--t-steps", "3"])]
)
APPENDIX_C = ("appendix-c", ["appendix-c", "--json", "--check-fixtures"])
BASIS_D3 = ("basis-d3", ["basis", "--d", "3"])


# --- states ------------------------------------------------------------------


def gell_mann(d: int) -> np.ndarray:
    """Generalized Gell-Mann generators with tr(g_j g_k) = 2 delta_jk (any order)."""
    gens = []
    for a in range(d):
        for b in range(a + 1, d):
            s = np.zeros((d, d), dtype=complex)
            s[a, b] = s[b, a] = 1.0
            gens.append(s)
            m = np.zeros((d, d), dtype=complex)
            m[a, b], m[b, a] = -1j, 1j
            gens.append(m)
    for k in range(1, d):
        h = np.zeros((d, d), dtype=complex)
        h[np.arange(k), np.arange(k)] = 1.0
        h[k, k] = -k
        gens.append(h * math.sqrt(2.0 / (k * (k + 1))))
    return np.array(gens)


def haar_unitary(d: int, rng) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _swap(d: int) -> np.ndarray:
    s = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            s[a * d + b, b * d + a] = 1.0
    return s


def _phi(d: int) -> np.ndarray:
    v = np.zeros(d * d)
    v[np.arange(d) * (d + 1)] = 1.0 / math.sqrt(d)
    return np.outer(v, v)


def _conjugate(W: np.ndarray, C: np.ndarray) -> np.ndarray:
    return W @ C @ W.conj().T


def class_a_rho(d, U, t):
    C = _conjugate(np.kron(U, np.eye(d)), 2 * _swap(d) - (2.0 / d) * np.eye(d * d))
    return (np.eye(d * d) + t * C) / (d * d)


def class_aa_rho(d, U1, U2, t):
    C = _conjugate(np.kron(U1, U2), 2 * d * _phi(d) - (2.0 / d) * np.eye(d * d))
    return (np.eye(d * d) + t * C) / (d * d)


def _scaled(C: np.ndarray, rng) -> tuple[np.ndarray, float]:
    """rho = (I + t C)/d^2 with t a random share of the largest physical t."""
    d2 = C.shape[0]
    t = rng.uniform(0.3, 0.85) / abs(np.linalg.eigvalsh(C)[0])
    return (np.eye(d2) + t * C) / d2, t


def correlation_of(rho: np.ndarray, d: int) -> np.ndarray:
    """K_jk = (d^2/4) tr(rho g_j x g_k) in this module's basis."""
    g = gell_mann(d)
    r4 = rho.reshape(d, d, d, d)
    return (d * d / 4.0) * np.einsum("acbe,jba,kec->jk", r4, g, g, optimize=True).real


def xi_bounds(K: np.ndarray, d: int) -> tuple[float, float]:
    """(D2, D1) lower bounds from the d(d-1) smallest eigenvalues of K K^T."""
    xi = float(np.sum(np.linalg.eigvalsh(K @ K.T)[: d * (d - 1)]))
    return 4.0 * xi / (d ** 3 * (d - 1)), math.sqrt(max(xi, 0.0)) / (d * (d - 1))


def canonical_objectives(rho: np.ndarray, d: int) -> tuple[float, float]:
    """(D1, D2) objectives at the computational-basis frame of subsystem A."""
    r4 = rho.reshape(d, d, d, d).copy()
    measured = np.zeros_like(r4)
    for k in range(d):
        measured[k, :, k, :] = r4[k, :, k, :]
    S = (r4 - measured).reshape(d * d, d * d)
    d1 = d / (2.0 * (d - 1)) * float(np.sum(np.abs(np.linalg.eigvalsh(S))))
    d2 = d / (d - 1.0) * float(np.sum(np.abs(S) ** 2))
    return d1, d2


@dataclass
class StateCase:
    """A seeded state and what its `discord` record must contain."""

    label: str
    d: int
    rho: np.ndarray
    kind: str                      # expected correlation_class
    lmm: bool
    t: float = 0.0                 # expected t where the class fixes it
    d1: float | None = None        # closed-form D1
    d2: float | None = None        # closed-form D2
    bounds: tuple[float, float] | None = None   # (d2_lower, d1_lower)
    canonical: tuple[float, float] | None = None  # objectives at U = I
    form: str = "dense"


def jordan_a(d, rng, label) -> StateCase:
    lo, hi = -d / (2.0 * (d - 1)), d / (2.0 * (d + 1))
    t = rng.uniform(0.3, 0.85) * (hi if rng.random() < 0.5 else lo)
    rho = class_a_rho(d, haar_unitary(d, rng), t)
    return StateCase(label, d, rho, "automorphism", True, t, abs(t), 4 * t * t / d ** 2,
                     xi_bounds(correlation_of(rho, d), d))


def jordan_aa(d, rng, label, *, isotropic=False) -> StateCase:
    lo, hi = -d / (2.0 * (d * d - 1)), d / 2.0
    t = rng.uniform(0.3, 0.85) * (hi if rng.random() < 0.5 else lo)
    U1 = np.eye(d) if isotropic else haar_unitary(d, rng)
    U2 = np.eye(d) if isotropic else haar_unitary(d, rng)
    rho = class_aa_rho(d, U1, U2, t)
    return StateCase(label, d, rho, "anti_automorphism", True, t, 2 * abs(t) / d,
                     4 * t * t / d ** 2, xi_bounds(correlation_of(rho, d), d))


def orthogonal(d, rng, label) -> StateCase:
    n = d * d - 1
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    V0 = q * np.sign(np.diag(r))
    g = gell_mann(d)
    C = np.einsum("jk,jab,kcd->acbd", V0, g, g).reshape(d * d, d * d)
    rho, t = _scaled(C, rng)
    return StateCase(label, d, rho, "orthogonal", True, t, None, 4 * t * t / d ** 2,
                     (4 * t * t / d ** 2, t / math.sqrt(d * (d - 1))))


def generic_lmm(d, rng, label) -> StateCase:
    X = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    X4 = ((X + X.conj().T) / 2).reshape(d, d, d, d)
    eye = np.eye(d)
    tr_b = np.einsum("acbc->ab", X4)
    tr_a = np.einsum("acae->ce", X4)
    total = np.trace(tr_b)
    C = (X4 - np.einsum("ab,ce->acbe", tr_b, eye) / d - np.einsum("ab,ce->acbe", eye, tr_a) / d
         + total * np.einsum("ab,ce->acbe", eye, eye) / d ** 2).reshape(d * d, d * d)
    rho, _ = _scaled(C, rng)
    return StateCase(label, d, rho, "general", True, bounds=xi_bounds(correlation_of(rho, d), d))


def generic(d, rng, label) -> StateCase:
    G = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    rho = G @ G.conj().T
    rho = 0.5 * rho / np.trace(rho).real + 0.5 * np.eye(d * d) / (d * d)
    return StateCase(label, d, rho, "general", False, canonical=canonical_objectives(rho, d))


def warmup_document(d: int) -> dict:
    """Coherence document with K = t I (a Werner state), valid in any basis."""
    n = d * d - 1
    t = 0.5 * d / (2.0 * (d + 1))
    return {"d": d, "x": [0.0] * n, "y": [0.0] * n,
            "K": (t * np.eye(n)).tolist()}


def document(case: StateCase, decompose=None) -> dict:
    if case.form == "dense":
        return {"d": case.d, "rho_re": case.rho.real.tolist(),
                "rho_im": case.rho.imag.tolist()}
    x, y, K = decompose(case.d, case.rho)
    return {"d": case.d, "x": np.asarray(x).tolist(), "y": np.asarray(y).tolist(),
            "K": np.asarray(K).tolist()}


# --- operations --------------------------------------------------------------


@dataclass
class Op:
    """One CLI invocation; ``check(stdout)`` returns (ok, value, reason)."""

    label: str
    argv: list
    expected_exit: tuple
    check: object
    d: int
    case: StateCase | None = None    # the state passed with --state
    doc_path: str | None = None

    def args(self) -> list:
        if self.doc_path is None:
            return list(self.argv)
        return [self.argv[0], "--state", self.doc_path] + list(self.argv[1:])


def _close(a, b, tol) -> bool:
    return a is not None and b is not None and abs(float(a) - float(b)) <= tol


def _discord_checker(case: StateCase, numeric: bool, fmt: str = "json"):
    def check(stdout: str):
        rec = _parse_record(stdout, fmt)
        failures = []
        if rec.get("correlation_class") != case.kind:
            failures.append(f"class {rec.get('correlation_class')} != {case.kind}")
        if bool(rec.get("lmm")) != case.lmm:
            failures.append(f"lmm {rec.get('lmm')} != {case.lmm}")
        if case.kind in ("automorphism", "anti_automorphism", "orthogonal"):
            if not _close(rec.get("t"), case.t, ANALYTIC_TOL):
                failures.append(f"t {rec.get('t')} != {case.t}")
        if case.d1 is not None and not _close(rec.get("d1_exact"), case.d1, ANALYTIC_TOL):
            failures.append(f"d1_exact {rec.get('d1_exact')} != {case.d1}")
        if case.d2 is not None and not _close(rec.get("d2_exact"), case.d2, ANALYTIC_TOL):
            failures.append(f"d2_exact {rec.get('d2_exact')} != {case.d2}")
        if case.bounds is not None:
            if not _close(rec.get("d2_lower"), case.bounds[0], ANALYTIC_TOL):
                failures.append(f"d2_lower {rec.get('d2_lower')} != {case.bounds[0]}")
            if not _close(rec.get("d1_lower"), case.bounds[1], ANALYTIC_TOL):
                failures.append(f"d1_lower {rec.get('d1_lower')} != {case.bounds[1]}")
        value = rec.get("d1_exact", rec.get("d2_exact", rec.get("d1_lower")))
        if numeric:
            d1n, d2n = rec.get("d1_numeric"), rec.get("d2_numeric")
            value = d1n
            if d1n is None or d2n is None or not (math.isfinite(d1n) and math.isfinite(d2n)):
                failures.append("numeric values missing")
            else:
                if case.d1 is not None and not _close(d1n, case.d1, NUMERIC_TOL):
                    failures.append(f"d1_numeric {d1n} != {case.d1}")
                if case.d2 is not None and not _close(d2n, case.d2, NUMERIC_TOL):
                    failures.append(f"d2_numeric {d2n} != {case.d2}")
                if "d1_lower" in rec and d1n < rec["d1_lower"] - ANALYTIC_TOL:
                    failures.append(f"d1_numeric {d1n} < d1_lower {rec['d1_lower']}")
                if case.canonical is not None:
                    if not -ANALYTIC_TOL <= d1n <= case.canonical[0] + ANALYTIC_TOL:
                        failures.append(f"d1_numeric {d1n} outside [0, {case.canonical[0]}]")
                    if not -ANALYTIC_TOL <= d2n <= case.canonical[1] + ANALYTIC_TOL:
                        failures.append(f"d2_numeric {d2n} outside [0, {case.canonical[1]}]")
        return not failures, value, "; ".join(failures)

    return check


def _parse_record(stdout: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(stdout)
    header, values = stdout.strip().splitlines()
    rec = {}
    for key, raw in zip(header.split(","), values.split(",")):
        if raw == "":
            continue
        try:
            rec[key] = float(raw)
        except ValueError:
            rec[key] = raw
    if "lmm" in rec:
        rec["lmm"] = rec["lmm"] == 1.0
    return rec


def reference_path(label: str) -> Path:
    suffix = ".json" if label == "appendix-c" else ".txt"
    return REFERENCE_DIR / (label + suffix)


def _numbers_close(a, b, tol, where="") -> str:
    """Empty string when two JSON values agree (numbers to ``tol``)."""
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or a is None:
        return "" if a == b else f"{where}: {a!r} != {b!r}"
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return "" if abs(a - b) <= tol else f"{where}: {a!r} != {b!r}"
    if isinstance(a, dict) and isinstance(b, dict):
        if sorted(a) != sorted(b):
            return f"{where}: keys differ"
        for k in a:
            msg = _numbers_close(a[k], b[k], tol, f"{where}.{k}")
            if msg:
                return msg
        return ""
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{where}: lengths differ"
        for i, (x, y) in enumerate(zip(a, b)):
            msg = _numbers_close(x, y, tol, f"{where}[{i}]")
            if msg:
                return msg
        return ""
    return f"{where}: types differ"


def _text_cells(text: str) -> list:
    """Split CLI text output into cells; numeric cells become floats."""
    cells = []
    for line in text.splitlines():
        for row in csv.reader(io.StringIO(line.replace(": ", ","))):
            for cell in row:
                try:
                    cells.append(float(cell))
                except ValueError:
                    cells.append(cell.strip())
    return cells


def _reference_checker(label: str):
    path = reference_path(label)

    def check(stdout: str):
        if label == "appendix-c":
            msg = _numbers_close(json.loads(stdout), json.loads(path.read_text()),
                                 ANALYTIC_TOL, "appendix-c")
            value = len(stdout)
        else:
            got, want = _text_cells(stdout), _text_cells(path.read_text())
            msg = _numbers_close(got, want, ANALYTIC_TOL, label)
            value = sum(c for c in got if isinstance(c, float))
        return not msg, value, msg

    return check


def _verify_checker(stdout: str):
    lines = stdout.strip().splitlines()
    ok = bool(lines) and lines[-1] == "OK: 0 failing checks"
    return ok, len(lines), "" if ok else (lines[-1] if lines else "no output")


def numeric_frames_ops(seed: int) -> list[Op]:
    """`discord --numeric` over a seeded batch of d=3 and d=4 states."""
    rng = np.random.default_rng([seed, 1])
    # Two states of each class per dimension, so that a pass averages over
    # the seed-dependent iteration counts of the frame-independent states.
    cases = []
    for d in (3, 4):
        for r in (1, 2):
            cases += [jordan_a(d, rng, f"a{r}-d{d}"), jordan_aa(d, rng, f"aa{r}-d{d}"),
                      jordan_aa(d, rng, f"iso{r}-d{d}", isotropic=True),
                      generic(d, rng, f"gen{r}-d{d}")]
    ops = []
    for case in cases:
        # A capped budget may end before a generic state's simplex collapses,
        # which the CLI reports with exit code 4; frame-independent states
        # always converge.
        expected = (0,) if case.kind != "general" else (0, 4)
        ops.append(Op(f"numeric-{case.label}", ["discord"] + NUMERIC_ARGS + ["--seed", str(seed)],
                      expected, _discord_checker(case, True), case.d, case))
    return ops


def analytic_sweep_ops(seed: int) -> list[Op]:
    """Non-numeric `discord` on d=3..8 documents, scan rows, appendix-c, basis and verify."""
    rng = np.random.default_rng([seed, 2])
    makers = [generic_lmm, generic, orthogonal, jordan_a, jordan_aa]
    ops = []
    for d in range(3, 9):
        for i, make in enumerate(makers):
            case = make(d, rng, f"{make.__name__}-d{d}")
            case.form = ("coherence", "dense")[(d + i) % 2]
            case.label += "-" + case.form
            ops.append(Op(f"discord-{case.label}", ["discord"], (0,),
                          _discord_checker(case, False), d, case))
    for label, argv in SCAN_OPS:
        ops.append(Op(label, argv, (0,), _reference_checker(label), int(argv[4])))
    for label, argv in (APPENDIX_C, BASIS_D3):
        ops.append(Op(label, argv, (0,), _reference_checker(label), 3))
    ops.append(Op("verify-d6", ["verify", "--d", "6", "--seed", str(seed)], (0,),
                  _verify_checker, 6))
    csv_case = jordan_a(4, rng, "csv-a-d4")
    ops.append(Op("discord-csv-d4", ["discord", "--format", "csv"], (0,),
                  _discord_checker(csv_case, False, "csv"), 4, csv_case))
    # Shuffle, so that the d=8 operations, which evict the caches, do not run
    # back to back.
    order = np.random.default_rng([seed, 3]).permutation(len(ops))
    return [ops[i] for i in order]


WORKLOADS = {
    "numeric-frames": numeric_frames_ops,
    "analytic-sweep": analytic_sweep_ops,
}

# Dimensions whose lazily built caches the set-up phase fills.
SETUP_DIMS = {"numeric-frames": (3, 4), "analytic-sweep": (3, 4, 5, 6, 7, 8)}


def write_documents(ops: list[Op], workdir: Path, decompose=None) -> None:
    """Write each operation's state document; ``decompose(d, rho)`` gives (x, y, K)."""
    for i, op in enumerate(ops):
        if op.case is not None:
            op.doc_path = str(workdir / f"state-{i}.json")
            Path(op.doc_path).write_text(json.dumps(document(op.case, decompose)))
