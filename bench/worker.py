"""One workload in one process: set up the package, run the operations, report.

Usage (started by run.py, with PYTHONPATH pointing at the checkout's src):

    python3 bench/worker.py setup --workload W --workdir DIR --out FILE
    python3 bench/worker.py run --workload W --seed N --seconds S --trace 0|1 --workdir DIR --out FILE

``setup`` imports the package and makes one untimed warm-up call per
dimension the workload uses, and reports how long that took.  ``run`` does the
same, then repeats whole passes over the workload's operations until
``--seconds`` have passed, one operation at a time.  With ``--trace 1`` each
operation runs once traced and once untraced; the traced runs give the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import gzip
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked of the library itself."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def set_up(workload: str, workdir: Path):
    """Import the CLI and warm every lazily built cache; returns (cli, setup_s, import_s)."""
    warm = []
    for d in workloads.SETUP_DIMS[workload]:
        path = workdir / f"warmup-d{d}.json"
        path.write_text(json.dumps(workloads.warmup_document(d)))
        warm.append(["discord", "--state", str(path)])
        if workload == "numeric-frames":
            warm.append(["discord", "--state", str(path), "--numeric",
                         "--starts", "1", "--max-iter", "2"])
    start = time.perf_counter()
    import quditdiscord.cli as cli
    import_s = time.perf_counter() - start
    for argv in warm:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    return cli, time.perf_counter() - start, import_s


def run_in_process(cli, op) -> tuple[float, object, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.args())
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed operation, not a failed benchmark
        code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue()


def check(op, code, stdout) -> tuple[bool, object, str]:
    if code not in op.expected_exit:
        return False, None, f"exit {code!r}, expected {op.expected_exit}"
    try:
        return op.check(stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return False, None, f"unreadable output: {type(exc).__name__}: {exc}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    cli, setup_s, import_s = set_up(args.workload, args.workdir)
    result = {"setup_s": setup_s, "import_s": import_s}
    if args.mode == "setup":
        args.out.write_text(json.dumps(result))
        return 0

    from quditdiscord.lie_algebra import build_basis
    from quditdiscord.states import decompose

    ops = workloads.WORKLOADS[args.workload](args.seed)
    workloads.write_documents(ops, args.workdir,
                              lambda d, rho: decompose(build_basis(d), rho))

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    # With tracing, every operation runs traced and then untraced, so that the
    # difference of the two is the tracing overhead under the same conditions.
    modes = (True, False) if tracer is not None else (False,)
    records, busy = [], {True: 0.0, False: 0.0}
    passes = 0
    begin = time.perf_counter()
    while passes == 0 or time.perf_counter() - begin < args.seconds:
        passes += 1
        for op in ops:
            for traced in modes:
                if tracer is not None:
                    (tracer.enable if traced else tracer.disable)()
                    tracer.op = len(records) if traced else None
                latency, code, stdout = run_in_process(cli, op)
                if tracer is not None:
                    tracer.op = None
                busy[traced] += latency
                ok, value, reason = check(op, code, stdout)
                records.append({"op": op.label, "d": op.d, "traced": traced,
                                "latency_s": latency,
                                "exit": code if isinstance(code, int) else None,
                                "ok": ok, "value": value, "reason": reason})

    import scipy

    result.update({
        "records": records,
        "passes": passes,
        "busy_s": busy[True] + busy[False],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    })
    if tracer is not None:
        spans = tracer.take()
        result["layers"] = tracing.layer_metrics(spans, passes, tracer.wrapped, import_s)
        result["layers"]["trace.overhead_s"] = (busy[True] - busy[False]) / passes
        if args.spans is not None:
            with gzip.open(args.spans, "wt", compresslevel=1) as fh:
                for s in spans:
                    fh.write(json.dumps(s) + "\n")
    args.out.write_text(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
