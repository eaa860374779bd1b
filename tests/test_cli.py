import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quditdiscord
from quditdiscord import classify as cl
from quditdiscord import cli
from quditdiscord import lie_algebra as la
from quditdiscord import measurement as ms
from quditdiscord import states as st

from conftest import classical_quantum_rho, generic_rho


def run(argv):
    return cli.main(argv)


class TestBasisCommand:
    def test_d3(self, capsys):
        assert run(["basis", "--d", "3"]) == 0
        out = capsys.readouterr().out
        assert "8 generators" in out
        assert "diagonal indices: 3, 8" in out

    def test_d5(self, capsys):
        assert run(["basis", "--d", "5"]) == 0
        out = capsys.readouterr().out
        assert "24 generators" in out
        assert "3, 8, 15, 24" in out

    def test_d2_rejected(self, capsys):
        assert run(["basis", "--d", "2"]) == 2
        assert "d >= 3" in capsys.readouterr().err


class TestDiscordCommand:
    def _write_state(self, tmp_path, state):
        path = tmp_path / "state.json"
        st.write_state(state, path)
        return str(path)

    def test_isotropic_analytic(self, tmp_path, capsys, basis3):
        path = self._write_state(tmp_path, st.isotropic(basis3, 0.5))
        assert run(["discord", "--state", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["correlation_class"] == "anti_automorphism"
        assert abs(doc["d1_exact"] - 0.5) < 1e-10
        assert abs(doc["d2_exact"] - 0.25) < 1e-10

    def test_zero_state(self, tmp_path, capsys, basis3):
        state = st.assemble(basis3, np.zeros(8), np.zeros(8), np.zeros((8, 8)))
        path = self._write_state(tmp_path, state)
        assert run(["discord", "--state", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["correlation_class"] == "zero"
        assert doc["d1_exact"] == 0.0

    def test_lmm_bounds_present(self, tmp_path, capsys, basis3):
        state = st.bell_diagonal(basis3, {(0, 0): 0.5, (2, 2): 0.5})
        path = self._write_state(tmp_path, state)
        assert run(["discord", "--state", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["d2_lower"] - 0.25) < 1e-10

    def test_numeric_path(self, tmp_path, capsys, basis3):
        path = self._write_state(tmp_path, st.isotropic(basis3, 0.3))
        code = run(["discord", "--state", path, "--numeric", "--starts", "2"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert abs(doc["d1_numeric"] - 0.3) < 1e-6
        assert doc["converged"] is True

    def test_classical_quantum_state_exits_0(self, tmp_path, capsys, basis3):
        """An exact zero found by the flat start 0 is converged, not exit 4."""
        rho = classical_quantum_rho(3, np.random.default_rng(10))
        path = self._write_state(tmp_path, st.from_density(basis3, rho))
        code = run(["discord", "--state", path, "--numeric"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert (doc["d1_numeric"], doc["d2_numeric"], doc["converged"]) == (0.0, 0.0, True)

    def test_d12_class_a_document(self, tmp_path, capsys):
        """The Choi test classifies d = 12, where dhat and fhat would take 2 x 23 MB."""
        basis = la.build_basis(12)
        state = st.class_a_state(basis, la.random_special_unitary(12, 95), -0.2)
        path = self._write_state(tmp_path, state)
        assert run(["discord", "--state", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["correlation_class"] == "automorphism"
        assert abs(doc["t"] + 0.2) < 1e-12
        assert abs(doc["d1_exact"] - 0.2) < 1e-12

    def test_invalid_document_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"d\": 3}")
        assert run(["discord", "--state", str(path)]) == 2

    def test_csv_format(self, tmp_path, capsys, basis3):
        path = self._write_state(tmp_path, st.isotropic(basis3, 0.5))
        assert run(["discord", "--state", path, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        values = lines[1].split(",")
        assert abs(float(values[header.index("d1_exact")]) - 0.5) < 1e-10

NUMERIC = ["--numeric", "--starts", "1", "--max-iter", "3"]
ZERO_STATE = {"d": 3, "x": [0.0] * 8, "y": [0.0] * 8, "K": np.zeros((8, 8)).tolist()}

# id, argv ("{state}" stands for the document's path, "{tmp}" for a fresh
# empty directory), document (None, a JSON value, or "isotropic" for
# st.isotropic(p=0.3)), exit code, and a fragment of the one-line "error:"
# message, or None where the run still reports values (a JSON record for
# discord, every CSV row for scan)
EXIT_CODE_TABLE = [
    ("starts-0", ["discord", "--state", "{state}", "--numeric", "--starts", "0"],
     "isotropic", 2, "starts"),
    ("nan-document", ["discord", "--state", "{state}"],
     {**ZERO_STATE, "x": [float("nan")] + [0.0] * 7}, 2, "non-finite"),
    ("document-number", ["discord", "--state", "{state}"], 3, 2, "JSON object"),
    ("document-string", ["discord", "--state", "{state}"], "d", 2, "JSON object"),
    ("d-null", ["discord", "--state", "{state}"], {**ZERO_STATE, "d": None}, 2,
     "'d' must be an integer"),
    ("d-fractional", ["discord", "--state", "{state}"], {**ZERO_STATE, "d": 3.7}, 2,
     "'d' must be an integer"),
    ("d-bool", ["discord", "--state", "{state}"], {**ZERO_STATE, "d": True}, 2,
     "'d' must be an integer"),
    ("x-object", ["discord", "--state", "{state}"], {**ZERO_STATE, "x": {"a": 1}}, 2,
     "'x' must be an array of numbers"),
    ("x-wrong-length", ["discord", "--state", "{state}"], {**ZERO_STATE, "x": [0.0, 0.0]}, 2,
     "Bloch vector x must have length 8, got 2"),
    ("unphysical-state", ["discord", "--state", "{state}"],
     {**ZERO_STATE, "K": (2.5 * np.eye(8)).tolist()}, 3, "unphysical state"),
    ("tol-0-nonconvergence", ["discord", "--state", "{state}", *NUMERIC, "--tol", "0"],
     "isotropic", 4, None),
    ("tol-nan", ["discord", "--state", "{state}", *NUMERIC, "--tol", "nan"],
     "isotropic", 2, "tol"),
    ("tol-inf", ["discord", "--state", "{state}", *NUMERIC, "--tol", "inf"],
     "isotropic", 2, "tol"),
    ("tol-negative", ["discord", "--state", "{state}", *NUMERIC, "--tol", "-1"],
     "isotropic", 2, "tol"),
    ("pair-nan", ["scan", "--family", "pair:nan"], None, 2, "nan"),
    ("t-min-nan", ["scan", "--family", "werner", "--t-min", "nan"], None, 2, "--t-min"),
    ("pair-text", ["scan", "--family", "pair:x"], None, 2,
     "the pair parameter must be a number, got 'x'"),
    ("line-text", ["scan", "--family", "line:a,b,c"], None, 2,
     "a line parameter must be a number, got 'a'"),
    ("line-two-weights", ["scan", "--family", "line:1,2"], None, 2,
     "line: needs three comma-separated weights"),
    ("line-weights-off-one", ["scan", "--family", "line:0.1,0.1,0.1"], None, 2,
     "weights must sum to 1 (got 0.30000000000000004)"),
    ("t-steps-0", ["scan", "--family", "werner", "--t-steps", "0"], None, 2,
     "--t-steps must be at least 1"),
    ("t-steps-negative", ["scan", "--family", "werner", "--t-steps", "-1"], None, 2,
     "--t-steps must be at least 1"),
    ("scan-tol-0-nonconvergence",
     ["scan", "--family", "werner", "--t-min", "-0.5", "--t-max", "0.2", "--t-steps", "2",
      *NUMERIC, "--tol", "0"], None, 4, None),
    ("seed-negative", ["discord", "--state", "{state}", *NUMERIC, "--seed", "-1"],
     "isotropic", 2, "seed must be non-negative"),
    ("scan-seed-negative",
     ["scan", "--family", "werner", "--numeric", "--starts", "2", "--max-iter", "3",
      "--seed", "-1"], None, 2, "seed must be non-negative"),
    ("verify-seed-negative", ["verify", "--seed", "-1"], None, 2,
     "--seed must be non-negative"),
    ("out-unwritable", ["appendix-c", "--out", "{tmp}/missing/report.txt"], None, 2,
     "cannot write"),
    ("verify-d-0", ["verify", "--d", "0"], None, 2, "(supported: d >= 3)"),
    ("basis-d-2", ["basis", "--d", "2"], None, 2, "(supported: d >= 3)"),
]


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, document, code, message",
        [row[1:] for row in EXIT_CODE_TABLE],
        ids=[row[0] for row in EXIT_CODE_TABLE],
    )
    def test_documented_failure(self, tmp_path, capsys, basis3, argv, document, code,
                                message):
        path = tmp_path / "state.json"
        if document == "isotropic":
            st.write_state(st.isotropic(basis3, 0.3), path)
        elif document is not None:
            path.write_text(json.dumps(document))
        argv = [a.replace("{state}", str(path)).replace("{tmp}", str(tmp_path)) for a in argv]
        assert run(argv) == code
        out, err = capsys.readouterr()
        if message is None:
            assert err == ""
            if argv[0] == "scan":
                rows = [line.split(",") for line in out.splitlines()[2:]]
                assert len(rows) == int(argv[argv.index("--t-steps") + 1])
                column = cli.SCAN_COLUMNS.index("d1_numeric")
                assert all(row[column] for row in rows)  # values still written
            else:
                doc = json.loads(out)
                assert doc["converged"] is False
                assert "d1_numeric" in doc  # value still reported, only flagged
        else:
            assert err.startswith("error:") and message in err
            assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv, message", [
        (["scan", "--family", "werner", "--format", "json"],
         "unrecognized arguments: --format json"),
    ], ids=["scan-format"])
    def test_parser_rejection(self, capsys, argv, message):
        """Flags a subcommand does not take are argparse errors, exit 2."""
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @staticmethod
    def _python(code):
        """Run ``code`` in a fresh interpreter that imports the package from this checkout."""
        src = str(Path(quditdiscord.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env, timeout=60, check=True)
        return proc.stdout

    def test_import_leaves_out_scipy_optimize(self):
        """Importing the CLI loads neither scipy.optimize nor scipy.linalg."""
        out = self._python("import sys, quditdiscord.cli; "
                           "print('scipy.optimize' in sys.modules, 'scipy.linalg' in sys.modules)")
        assert out.strip() == "False False"

    def test_numeric_run_leaves_out_scipy_optimize(self, tmp_path, basis3):
        """The numeric path is numpy alone, so a numeric run loads no scipy module at all."""
        path = tmp_path / "state.json"
        st.write_state(st.from_density(basis3, generic_rho(3, np.random.default_rng(301))), path)
        argv = ["discord", "--state", str(path), "--numeric", "--starts", "2", "--max-iter", "5"]
        out = self._python(
            "import sys; from quditdiscord import cli; "
            f"code = cli.main({argv!r}); "
            "print(code, [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
        assert out.strip().splitlines()[-1] == "4 []"  # capped: not converged

    def test_numeric_run_without_scipy(self, tmp_path, basis3):
        """With scipy unimportable, discord --numeric prints what it prints with scipy."""
        path = tmp_path / "werner.json"
        st.write_state(st.class_a_state(basis3, np.eye(3, dtype=complex), 0.3), path)
        argv = ["discord", "--state", str(path), "--numeric"]
        run_cli = f"from quditdiscord import cli; print(cli.main({argv!r}))"
        blocked = self._python("import sys; sys.modules['scipy'] = None; " + run_cli)
        assert blocked.splitlines()[-1] == "0"
        assert blocked == self._python(run_cli)

    def test_out_of_memory_is_one_error_line(self, monkeypatch, capsys):
        """A MemoryError ends the command with exit 2 and one line, not a traceback."""
        def exhausted(d):
            raise MemoryError

        monkeypatch.setattr(la, "build_basis", exhausted)
        assert run(["scan", "--family", "werner", "--d", "4", "--t-steps", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: out of memory running scan\n"

    def test_parser_is_built_once_and_keeps_no_flags(self, tmp_path, capsys, basis3):
        """One process, one parser: no flag of an earlier call reaches a later one."""
        assert cli.build_parser() is cli.build_parser()
        path = tmp_path / "state.json"
        st.write_state(st.isotropic(basis3, 0.3), path)
        assert run(["discord", "--state", str(path), "--numeric", "--starts", "1"]) == 4
        assert "d1_numeric" in json.loads(capsys.readouterr().out)
        assert run(["discord", "--state", str(path)]) == 0
        assert "d1_numeric" not in json.loads(capsys.readouterr().out)
        with pytest.raises(SystemExit) as exc:
            run(["scan", "--format", "csv"])
        assert exc.value.code == 2


class TestNoPathPlanning:
    def test_analytic_commands_plan_no_einsum_path(self, tmp_path, monkeypatch, capsys):
        """Commands without --numeric contract with matmuls, never optimize=True einsums.

        ``verify`` is included: its q_expansion and q_orthogonal oracles contract
        with matmuls too.  The guard itself is shown to fire on apply_measurement.
        """
        einsum, calls = np.einsum, []

        def guarded(*operands, optimize=False, **kwargs):
            assert not optimize, f"einsum path planning for {operands[0]!r}"
            calls.append(operands[0])
            return einsum(*operands, optimize=optimize, **kwargs)

        argvs = [
            ["scan", "--family", "werner", "--d", "6", "--t-min", "-0.5", "--t-max", "0.4",
             "--t-steps", "3"],
            ["appendix-c", "--json", "--check-fixtures"],
            ["basis", "--d", "8"],
            ["verify", "--d", "6"],
        ]
        for d in range(3, 9):
            basis = la.build_basis(d)
            U1, U2 = (la.random_special_unitary(d, [47, d, k]) for k in (1, 2))
            coherence, dense = tmp_path / f"coherence{d}.json", tmp_path / f"dense{d}.json"
            st.write_state(st.class_aa_state(basis, U1, U2, -0.05), coherence)
            rho = generic_rho(d, np.random.default_rng([47, d]))
            st.write_state(st.from_density(basis, rho), dense, form="dense")
            argvs += [["discord", "--state", str(coherence)], ["discord", "--state", str(dense)]]
        monkeypatch.setattr(np, "einsum", guarded)
        for argv in argvs:
            assert run(argv) == 0, argv
        capsys.readouterr()
        assert calls  # the partial traces still go through the guarded einsum
        basis = la.build_basis(3)
        with pytest.raises(AssertionError, match="path planning"):
            ms.apply_measurement(np.eye(9) / 9, ms.canonical_frame(basis))


class TestScanCommand:
    def test_werner_ppt_flip(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run([
            "scan", "--family", "werner", "--t-min", "-0.75", "--t-max", "0.375",
            "--t-steps", "10", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# scan-csv-v1"
        assert lines[1].split(",") == list(cli.SCAN_COLUMNS)
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 10
        ppt = [int(r[-1]) for r in rows]
        ts = [float(r[0]) for r in rows]
        for t, flag in zip(ts, ppt):
            assert flag == (1 if t >= -3.0 / 16.0 - 1e-9 else 0)
        # werner rows expose the exact d1 = |t| column
        assert abs(float(rows[0][2]) - 0.75) < 1e-12

    def test_transposition_sign_family_flip(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run([
            "scan", "--family", "sign:+-++-+-+", "--t-min", "0", "--t-max", "1.5",
            "--t-steps", "9", "--out", str(out),
        ])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        for row in rows:
            t = float(row[0])
            assert int(row[-1]) == (1 if t <= 0.375 + 1e-9 else 0)

    def test_pair_bound(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(["scan", "--family", "pair:0.5", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert len(rows) == 1
        assert abs(float(rows[0][1]) - 0.25) < 1e-10  # 1 - 3/4

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["scan", "--family", "isotropic", "--t-min", "0", "--t-max", "0.9",
                "--t-steps", "5", "--seed", "7"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_family(self, tmp_path):
        assert run(["scan", "--family", "nonsense"]) == 2


class TestAppendixCommand:
    def test_json_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["appendix-c", "--json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["class_counts_match"] is True
        assert doc["class_sizes"] == {
            "E1": 32, "E2": 16, "E3": 16, "E4": 28,
            "E5": 12, "E6": 16, "E7": 4, "E8": 4,
        }

    def test_fixture_check(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["appendix-c", "--json", "--check-fixtures", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        fixtures = doc["fixtures"]
        assert fixtures["duplication_detected"] is True
        assert fixtures["replacements_differ"] is True
        clean = [
            e for e in fixtures["entries"] if e["matched"] and not e["duplicated"]
        ]
        assert len(clean) == 6

    def test_text_output(self, capsys):
        assert run(["appendix-c"]) == 0
        out = capsys.readouterr().out
        assert "E1: 32 members" in out
        assert "fixture check:" not in out

    def test_text_fixture_check(self, capsys):
        assert run(["appendix-c", "--check-fixtures"]) == 0
        out = capsys.readouterr().out
        assert "E1: 32 members" in out
        fixture_lines = out.split("\nfixture check:\n")[1].splitlines()
        tags = [line.split(": ")[1].split(" (")[0] for line in fixture_lines[:-1]]
        assert tags.count("ok") == 6
        assert tags.count("duplicated") == 2
        assert fixture_lines[-1].strip() == (
            "duplication detected: True; computed replacements differ: True"
        )

    def test_class_count_mismatch_exits_1(self, monkeypatch, capsys):
        """A failed self-check, here the class sizes against their table, exits 1."""
        wrong = dict(cl.EXPECTED_CLASS_SIZES, E7=5)
        monkeypatch.setattr(cl, "EXPECTED_CLASS_SIZES", wrong)
        assert run(["appendix-c", "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["class_counts_match"] is False


class TestVerifyCommand:
    def test_passes(self, capsys):
        assert run(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "OK: 0 failing checks" in out

    def test_injected_failure(self, capsys):
        assert run(["verify", "--inject-failure"]) == 1
        assert "FAIL injected-failure" in capsys.readouterr().out

    def test_extended_dimension(self, capsys):
        assert run(["verify", "--d", "5"]) == 0
        assert "d=5" in capsys.readouterr().out

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_dense_fixed_operators_match_kron_sums(self, d):
        basis = la.build_basis(d)
        g = basis.generators
        L_ref = sum(np.kron(g[i - 1], g[i - 1]) for i in basis.diagonal_indices)
        K_ref = sum(np.kron(g[j], g[j].T) for j in range(basis.n))
        L, KL = cli._dense_fixed_operators(basis)
        assert np.max(np.abs(L - L_ref)) < 1e-13
        assert np.max(np.abs(KL - ((d - 2) * K_ref + L_ref))) < 1e-13

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_covariance_samples_match_per_sample_draws(self, d):
        """The ten rotations and (a, b) pairs are those the per-sample loop drew."""
        basis = la.build_basis(d)
        Rs, ab = cli._covariance_samples(basis, 5)
        rng = np.random.default_rng([5, d])
        for k in range(10):
            R = la.adjoint_rep(basis, la.random_special_unitary(d, [5, d, k]))
            assert np.max(np.abs(Rs[k] - R)) < 1e-13
            assert np.array_equal(ab[k, 0], rng.standard_normal(basis.n))
            assert np.array_equal(ab[k, 1], rng.standard_normal(basis.n))

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_rotated_products_match_star_and_wedge(self, d):
        basis = la.build_basis(d)
        tensors = la.structure_tensors(basis)
        Rs, ab = cli._covariance_samples(basis, 5)
        for T, product in ((tensors.dhat, la.star), (tensors.fhat, la.wedge)):
            after, before = cli._rotated_products(basis, T, Rs, ab)
            for k, (R, (a, b)) in enumerate(zip(Rs, ab)):
                assert np.max(np.abs(after[k] - R @ product(tensors, a, b))) < 1e-13
                assert np.max(np.abs(before[k] - product(tensors, R @ a, R @ b))) < 1e-13

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_frame_disturbances_match_per_frame_oracle(self, d):
        basis = la.build_basis(d)
        stacked = cli._frame_disturbances(basis, 0.2, 5)
        assert stacked.shape == (10, d * d, d * d)
        zero, K = np.zeros(basis.n), 0.2 * np.eye(basis.n)
        for k, S in enumerate(stacked):
            frame = ms.random_frame(basis, [5, d, 31, k])
            oracle = ms.disturbance_from_vectors(basis, zero, K, frame)
            assert np.max(np.abs(S - oracle)) < 1e-13
        assert np.max(np.abs(stacked[0] - stacked[1])) > 1e-3  # the frames differ
