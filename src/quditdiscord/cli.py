"""Command-line front end.

Subcommands: basis, discord, scan, appendix-c, verify.  Exit codes: 0 ok,
1 a self-check failed (a failing ``verify`` check, or ``appendix-c`` class
counts that differ from the expected table), 2 invalid input, 3 unphysical
state, 4 optimizer non-convergence flag.  All randomness flows from
--seed; identical invocations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import classify as classify_mod
from . import discord as discord_mod
from . import entanglement as ent_mod
from . import lie_algebra as lie
from . import measurement as meas
from . import states as states_mod

SCAN_CSV_VERSION = "scan-csv-v1"
SCAN_COLUMNS = (
    "t",
    "d2_exact_or_bound",
    "d1_exact_or_blank",
    "d1_lower",
    "d1_numeric",
    "negativity",
    "realignment_negativity",
    "ppt",
)


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


class OutputError(Exception):
    """An --out file that cannot be written; reported with exit code 2."""


def _emit(text: str, out_path) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputError(f"cannot write {out_path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(doc, out_path) -> None:
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", out_path)


def cmd_basis(args) -> int:
    basis = lie.build_basis(args.d)
    tensors = lie.structure_tensors(basis)
    g = basis.generators
    gram = np.einsum("jab,kba->jk", g, g).real
    orth_residual = float(np.max(np.abs(gram - 2.0 * np.eye(basis.n))))
    trace_residual = float(np.max(np.abs(np.einsum("jaa->j", g))))
    star_sum = lie.star_sum_criterion(tensors, np.eye(basis.n), np.eye(basis.n))
    lines = [
        f"su({basis.d}) basis: {basis.n} generators",
        f"diagonal indices: {', '.join(str(i) for i in basis.diagonal_indices)}",
        f"orthogonality residual: {_fmt(orth_residual)}",
        f"trace residual: {_fmt(trace_residual)}",
        f"dhat checksum (frobenius^2): {_fmt(float(np.sum(tensors.dhat ** 2)))}",
        f"fhat checksum (frobenius^2): {_fmt(float(np.sum(tensors.fhat ** 2)))}",
        f"star-sum residual: {_fmt(float(np.max(np.abs(star_sum.residual))))}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _numeric_config(args):
    """Minimizer settings from the common flags, or None without --numeric.

    Raises ValueError for settings the minimizer cannot run with.
    """
    if not args.numeric:
        return None
    return discord_mod.OptimizerConfig(
        starts=args.starts, seed=args.seed, tol=args.tol, max_iter=args.max_iter
    )


def _discord_record(state, config) -> tuple[dict, int]:
    ev = discord_mod.evaluate(state)
    record: dict = {"d": state.d, "lmm": state.is_lmm, "correlation_class": ev.kind,
                    "t": ev.t}
    if ev.d2_lower is not None:
        record["d2_lower"] = ev.d2_lower
        record["d1_lower"] = ev.d1_lower
    if ev.d2_exact is not None:
        record["d2_exact"] = ev.d2_exact
        record["d2_method"] = "analytic"
    if ev.d1_exact is not None:
        record["d1_exact"] = ev.d1_exact
        record["d1_method"] = "analytic"
    if config is None:
        return record, 0
    est1 = discord_mod.minimize_d1(state, config)
    est2 = discord_mod.minimize_d2(state, config)
    record["d1_numeric"] = est1.value
    record["d2_numeric"] = est2.value
    record["optimizer"] = {
        "starts": config.starts,
        "seed": config.seed,
        "best_residual_d1": est1.best_residual,
        "best_residual_d2": est2.best_residual,
    }
    record["converged"] = est1.converged and est2.converged
    return record, 0 if record["converged"] else 4


def cmd_discord(args) -> int:
    try:
        config = _numeric_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        state = states_mod.read_state(args.state)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: cannot read state: {exc}", file=sys.stderr)
        return 2
    report = states_mod.validate(state.rho)
    if not report.physical:
        print(
            "error: unphysical state "
            f"(hermiticity {report.hermiticity_defect:.3e}, "
            f"trace defect {report.trace_defect:.3e}, "
            f"min eigenvalue {report.min_eigenvalue:.3e})",
            file=sys.stderr,
        )
        return 3
    record, exit_code = _discord_record(state, config)
    if args.format == "csv":
        keys = sorted(record)
        flat = {
            k: (record[k] if not isinstance(record[k], dict) else "")
            for k in keys
        }
        text = ",".join(keys) + "\n" + ",".join(_fmt(flat[k]) for k in keys) + "\n"
        _emit(text, args.out)
    else:
        _emit_json(record, args.out)
    return exit_code


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")
    return value


def _parameter(text: str, what: str) -> float:
    """A family parameter as a finite float; malformed text names the parameter."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{what} must be a number, got {text!r}") from None
    return _finite(value, what)


def _scan_states(args, basis):
    """Yield (t_value, state) pairs for the requested family.

    Raises ValueError for an empty grid or a non-finite grid end or family parameter.
    """
    if args.t_steps < 1:
        raise ValueError("--t-steps must be at least 1")
    family = args.family
    grid = np.linspace(_finite(args.t_min, "--t-min"), _finite(args.t_max, "--t-max"),
                       args.t_steps)
    if family == "werner":
        for t in grid:
            yield t, states_mod.class_a_state(basis, np.eye(basis.d, dtype=complex), t)
    elif family == "isotropic":
        for p in grid:
            yield p, states_mod.isotropic(basis, p)
    elif family.startswith("sign:"):
        sm = classify_mod.SignMatrix.from_string(family[len("sign:"):])
        for t in grid:
            yield t, states_mod.sign_class_state(basis, sm.vector, t)
    elif family.startswith("pair:") or family == "pair":
        if family == "pair":
            ps = grid
        else:
            ps = [_parameter(family[len("pair:"):], "the pair parameter")]
        for p in ps:
            weights = {(0, 0): p, (2, 2): 1.0 - p}
            yield p, states_mod.bell_diagonal(basis, weights)
    elif family.startswith("line:"):
        values = family[len("line:"):].split(",")
        if len(values) != 3:
            raise ValueError(
                f"line: needs three comma-separated weights pa,pb,pg, got {len(values)}")
        pa, pb, pg = (_parameter(v, "a line parameter") for v in values)
        weights = {(0, 0): pa, (1, 1): pb, (2, 2): pg}
        yield pa, states_mod.bell_diagonal(basis, weights)
    else:
        raise ValueError(f"unknown family {family!r}")


def cmd_scan(args) -> int:
    basis = lie.build_basis(args.d)
    rows = []
    try:
        config = _numeric_config(args)
        pairs = list(_scan_states(args, basis))
    except states_mod.UnphysicalStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    exit_code = 0
    for t, state in pairs:
        ev = discord_mod.evaluate(state)
        d1_numeric = None
        if config is not None:
            est = discord_mod.minimize_d1(state, config)
            d1_numeric = est.value
            if not est.converged:
                exit_code = 4
        report = ent_mod.entanglement_report(state.rho, basis.d)
        rows.append((
            t, ev.d2_lower if ev.d2_exact is None else ev.d2_exact, ev.d1_exact,
            ev.d1_lower, d1_numeric,
            report.negativity, report.realignment_negativity, report.ppt,
        ))
    lines = [f"# {SCAN_CSV_VERSION}", ",".join(SCAN_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _emit("\n".join(lines) + "\n", args.out)
    return exit_code


def cmd_appendix_c(args) -> int:
    basis = lie.build_basis(3)
    report = classify_mod.classification_report(basis)
    fixtures = classify_mod.verify_adjoint_fixtures(basis) if args.check_fixtures else None
    if args.json:
        _emit_json(classify_mod.report_to_json(report, fixtures), args.out)
    else:
        _emit(classify_mod.report_to_text(report, fixtures), args.out)
    return 0 if report.class_counts_match else 1


def _verify_checks(d: int, seed: int):
    """Invariant suite for one dimension; yields (name, passed, residual)."""
    basis = lie.build_basis(d)
    tensors = lie.structure_tensors(basis)
    g = basis.generators
    n = basis.n

    gram = np.einsum("jab,kba->jk", g, g).real
    yield ("generator-orthogonality", *_residual_check(
        np.max(np.abs(gram - 2 * np.eye(n))), 1e-12))
    yield ("generator-traceless", *_residual_check(
        np.max(np.abs(np.einsum("jaa->j", g))), 1e-12))
    diag_sq = sum(g[i - 1] @ g[i - 1] for i in basis.diagonal_indices)
    yield ("diagonal-square-sum", *_residual_check(
        np.max(np.abs(diag_sq - (2 * (d - 1) / d) * np.eye(d))), 1e-12))
    yield ("delta-traceless", *_residual_check(
        np.max(np.abs(np.einsum("jkk->j", tensors.dhat))), 1e-12))
    yield ("star-sum-zero", *_residual_check(
        np.max(np.abs(lie.star_sum_criterion(
            tensors, np.eye(n), np.eye(n)).residual)), 1e-12))

    Rs, ab = _covariance_samples(basis, seed)
    worst_cov = max(
        float(np.max(np.abs(np.subtract(*_rotated_products(basis, T, Rs, ab)))))
        for T in (tensors.dhat, tensors.fhat)
    )
    yield ("star-wedge-covariance", *_residual_check(worst_cov, 1e-10))
    # R^T Delta_j R = sum_k R_jk Delta_k, and likewise for F_j
    worst_transport = max(
        float(np.max(np.abs(R.T @ T @ R - (R @ T.reshape(n, n * n)).reshape(n, n, n))))
        for R in Rs for T in (tensors.dhat, tensors.fhat)
    )
    yield ("tensor-transport", *_residual_check(worst_transport, 1e-10))

    # path equivalence on random correlation matrices
    worst_path = 0.0
    for k in range(5):
        rng_k = np.random.default_rng([seed, d, 7, k])
        K = rng_k.standard_normal((n, n))
        frame = meas.random_frame(basis, [seed, d, 8, k])
        S = meas.disturbance_from_vectors(basis, np.zeros(n), K, frame)
        q_direct = meas.q_matrix(S)
        q_exp = meas.q_expansion(basis, K, frame)
        worst_path = max(worst_path, float(np.max(np.abs(q_direct - q_exp))))
        V0 = lie.random_orthogonal(n, [seed, d, 9, k])
        t = float(rng_k.uniform(-1.0, 1.0))
        S0 = meas.disturbance_from_vectors(basis, np.zeros(n), t * V0, frame)
        worst_path = max(worst_path, float(np.max(np.abs(
            meas.q_matrix(S0) - meas.q_orthogonal(basis, t, V0, frame)))))
    yield ("path-equivalence", *_residual_check(worst_path, 1e-10))

    # frame invariance of the closed-form classes: D1 of K = t I over ten frames
    S = _frame_disturbances(basis, 0.2, seed)
    values = d / (2.0 * (d - 1)) * np.abs(np.linalg.eigvalsh(S)).sum(axis=-1)
    yield ("frame-invariance", *_residual_check(values.max() - values.min(), 1e-10))

    # closed-form spectra against dense eigensolves
    spec = discord_mod.closed_form_spectra(d, 0.37)
    L, KL = _dense_fixed_operators(basis)
    worst_spec = max(
        _spectrum_defect(L, spec["L"]),
        _spectrum_defect(KL, spec["KL"]),
    )
    frame0 = meas.canonical_frame(basis)
    S_auto = meas.disturbance_from_vectors(
        basis, np.zeros(n), 0.37 * np.eye(n), frame0)
    worst_spec = max(worst_spec, _spectrum_defect(
        meas.q_matrix(S_auto), spec["q_auto"]))
    I0 = np.diag(states_mod.transposition_signs(basis))
    S_anti = meas.disturbance_from_vectors(basis, np.zeros(n), 0.37 * I0, frame0)
    worst_spec = max(worst_spec, _spectrum_defect(
        meas.q_matrix(S_anti), spec["q_anti"]))
    yield ("closed-form-spectra", *_residual_check(worst_spec, 1e-10))


def _residual_check(residual: float, tol: float) -> tuple[bool, float]:
    return float(residual) < tol, float(residual)


def _outer_pairs(pairs):
    """Row k is vec(a_k b_k^T) for a (m, 2, n) stack of pairs (a_k, b_k)."""
    return (pairs[:, 0, :, None] * pairs[:, 1, None, :]).reshape(len(pairs), -1)


def _rotated_products(basis, T, Rs, ab):
    """Rows R_k (a_k o b_k) and (R_k a_k) o (R_k b_k), as two (m, n) stacks.

    (a o b)_j = d' sum_kl T_jkl a_k b_l is the star product for T = Delta and
    the wedge product for T = F.
    """
    n = basis.n
    T2 = basis.dprime * T.reshape(n, n * n).T
    RsT = Rs.transpose(0, 2, 1)
    rotated_after = ((_outer_pairs(ab) @ T2)[:, None, :] @ RsT)[:, 0]
    return rotated_after, _outer_pairs(ab @ RsT) @ T2


def _covariance_samples(basis, seed):
    """The ten seeded R(U_k) and (a_k, b_k) pairs of the covariance and transport checks.

    U_k is random_special_unitary(d, [seed, d, k]); one (10, 2, n) draw from
    default_rng([seed, d]) is the same stream as drawing a_k, then b_k, ten times.
    """
    Rs = lie.random_adjoint_reps(basis, [[seed, basis.d, k] for k in range(10)])
    return Rs, np.random.default_rng([seed, basis.d]).standard_normal((10, 2, basis.n))


def _frame_disturbances(basis, t, seed) -> np.ndarray:
    """Stack of disturbance_from_vectors(basis, 0, t I, frame_k) over ten seeded frames.

    Frame k is random_frame(basis, [seed, d, 31, k]); its disturbance is
    S = (t/d^2) sum_jk M_jk g_j x g_k, assembled as in :func:`lie_algebra.expand_pair`
    (G^T M G with its middle indices swapped) for the whole stack of M at once.
    """
    d = basis.d
    M = meas.random_frame_projectors(basis, [[seed, d, 31, k] for k in range(10)])
    S = (basis.flat.T @ M @ basis.flat).reshape(-1, d, d, d, d).transpose(0, 1, 3, 2, 4)
    return (t / (d * d)) * S.reshape(-1, d * d, d * d)


def _dense_fixed_operators(basis):
    """L = sum over the diagonal g_i of g_i x g_i, and (d-2) sum_j g_j x g_j^T + L.

    g_j^T = +-g_j with the sign of :func:`states.transposition_signs`, so both
    are expand_pair of a diagonal K.
    """
    zero = np.zeros(basis.n)
    P0 = meas.canonical_projector_diagonal(basis)
    flips = np.diag(states_mod.transposition_signs(basis))
    L = lie.expand_pair(basis, 0.0, zero, zero, P0)
    KL = lie.expand_pair(basis, 0.0, zero, zero, (basis.d - 2) * flips + P0)
    return L, KL


def _spectrum_defect(matrix, spec) -> float:
    expected = np.sort(np.concatenate([np.full(m, v) for v, m in spec]))
    actual = np.sort(np.linalg.eigvalsh(matrix))
    return float(np.max(np.abs(actual - expected)))


def cmd_verify(args) -> int:
    if args.seed < 0:
        print(f"error: --seed must be non-negative, got {args.seed}", file=sys.stderr)
        return 2
    dims = [3, 4]
    if args.d is not None:
        lie.build_basis(args.d)  # an unsupported --d fails before any check runs
        if args.d not in dims:
            dims.append(args.d)
    failures = 0
    for d in dims:
        for name, passed, residual in _verify_checks(d, args.seed):
            tag = "PASS" if passed else "FAIL"
            print(f"{tag} d={d} {name} (residual {residual:.3e})")
            failures += 0 if passed else 1
    autos, antis = classify_mod.jordan_good_matrices(lie.build_basis(3))
    ok = len(autos) == 4 and len(antis) == 4
    print(f"{'PASS' if ok else 'FAIL'} d=3 jordan-good-count "
          f"(4+4 vs {len(autos)}+{len(antis)})")
    failures += 0 if ok else 1
    if args.inject_failure:
        print("FAIL injected-failure (residual 1.000e+00)")
        failures += 1
    print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failing checks")
    return 0 if failures == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="quditdiscord",
        description="Measurement-induced geometric discord toolkit for qudit pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--starts", type=int, default=32)
        p.add_argument("--max-iter", type=int, default=2000)
        p.add_argument("--out", default=None)

    p_basis = sub.add_parser("basis", help="print generator and tensor checksums")
    p_basis.add_argument("--d", type=int, required=True)
    p_basis.add_argument("--out", default=None)
    p_basis.set_defaults(func=cmd_basis)

    p_disc = sub.add_parser("discord", help="discord values and bounds for a state file")
    p_disc.add_argument("--state", required=True)
    p_disc.add_argument("--numeric", action="store_true")
    p_disc.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p_disc)
    p_disc.set_defaults(func=cmd_discord)

    p_scan = sub.add_parser("scan", help="CSV sweep over a one-parameter family")
    p_scan.add_argument("--d", type=int, default=3)
    p_scan.add_argument("--family", required=True,
                        help="werner | isotropic | sign:<8 signs> | pair[:<pa>] | line:<pa,pb,pg>")
    p_scan.add_argument("--t-min", type=float, default=0.0)
    p_scan.add_argument("--t-max", type=float, default=0.0)
    p_scan.add_argument("--t-steps", type=int, default=1)
    p_scan.add_argument("--numeric", action="store_true")
    add_common(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    p_app = sub.add_parser("appendix-c", help="qutrit sign-class classification report")
    p_app.add_argument("--json", action="store_true")
    p_app.add_argument("--check-fixtures", action="store_true")
    p_app.add_argument("--out", default=None)
    p_app.set_defaults(func=cmd_appendix_c)

    p_ver = sub.add_parser("verify", help="run the invariant self-test suite")
    p_ver.add_argument("--d", type=int, default=None,
                       help="additionally run algebra checks at this dimension")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--inject-failure", action="store_true")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except lie.UnsupportedDimensionError as exc:
        print(f"error: {exc} (supported: d >= 3)", file=sys.stderr)
        return 2
    except states_mod.UnphysicalStateError as exc:
        print(f"error: unphysical state: {exc}", file=sys.stderr)
        return 3
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory running {args.command}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
