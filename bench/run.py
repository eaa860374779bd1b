"""Benchmark driver for quditdiscord.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check

Run from the root of a checkout.  Each workload runs in its own child process
(bench/worker.py), started one at a time from this single-threaded driver,
with BLAS limited to one thread.  With ``--trace 0`` the last line of stdout
is a JSON object carrying the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics of a traced run.  Every operation's output is checked
against closed forms or reference outputs, and a failed check counts in
``failed``.  A full record, including each operation's latency next to the
value it produced and the machine it ran on, is written to .bench_results/.

``--self-check`` runs every workload briefly: it prints each metric listed in
BENCHMARK.json with its unit, fails if one is missing, repeats the traced run
to show that every exact count repeats, and runs a second seed through the
reference checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = ROOT / ".bench_results"
WORK_DIR = ROOT / ".bench_work"
WORKLOADS = ("numeric-frames", "analytic-sweep")
DEFAULT_SEED = 1
SETUP_SAMPLES = 3       # fresh set-ups per timed run, the run's own included
BLAS_THREADS = 1        # at most nproc; one thread keeps small eigensolves steady
TIME_LIMIT_S = 170      # a run must end within 180 s

# The tail is a fixed percentile per workload, chosen so that at least ten
# samples lie beyond it in a run of the default length on a 2-core machine;
# a fixed percentile keeps the metric comparable when a change alters the
# sample count.
TAIL_PERCENTILE = {"numeric-frames": 75, "analytic-sweep": 99}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def machine_record(worker_result: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted([*BENCH_DIR.rglob("*.py"), *BENCH_DIR.rglob("reference/*"),
                        *SRC.rglob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": worker_result.get("python"),
        "numpy": worker_result.get("numpy"),
        "scipy": worker_result.get("scipy"),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_in_force": worker_result.get("blas_threads"),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def run_worker(mode: str, workload: str, workdir: Path, deadline: float, *extra) -> dict:
    out = workdir / f"{mode}-result.json"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), mode, "--workload", workload,
           "--workdir", str(workdir), "--out", str(out), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the worker started")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} exceeded the time limit") from exc
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"{mode} worker for {workload} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-4000:]}")
    result = json.loads(out.read_text())
    out.unlink()
    return result


def percentile(sorted_values: list, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or below it."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def end_to_end(workload: str, result: dict, setup_samples: list) -> tuple[dict, dict]:
    latencies = sorted(r["latency_s"] for r in result["records"])
    attempted = len(latencies)
    failed = sum(not r["ok"] for r in result["records"])
    p = TAIL_PERCENTILE[workload]
    tail = percentile(latencies, p)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (attempted / result["busy_s"], "1/s"),
        "latency_s.p50": (statistics.median(latencies), "s"),
        "latency_s.tail": (tail, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    info = {
        "failed": failed,
        "error_rate": failed / attempted,
        "tail_percentile": p,
        "samples": attempted,
        "samples_beyond_tail": sum(v > tail for v in latencies),
        "setup_samples_s": setup_samples,
        "passes": result["passes"],
    }
    return metrics, info


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; returns the full record (metrics, checks, machine)."""
    if not (SRC / "quditdiscord" / "cli.py").is_file():
        raise BenchError(f"no quditdiscord sources under {SRC}")
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = WORK_DIR / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    RESULTS_DIR.mkdir(exist_ok=True)
    name = f"{workload}-seed{seed}-trace{trace}"
    try:
        # Compile once up front, so that no set-up sample pays for compiling.
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH_DIR)],
                       cwd=ROOT, env=child_env(), capture_output=True, timeout=60)
        setup_samples = []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup_samples.append(run_worker("setup", workload, workdir, deadline)["setup_s"])
        extra = ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            extra += ["--spans", str(RESULTS_DIR / f"{name}.spans.jsonl.gz")]
        result = run_worker("run", workload, workdir, deadline, *extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    setup_samples.append(result["setup_s"])
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine_record(result)}
    e2e, info = end_to_end(workload, result, setup_samples)
    record.update(info)
    if trace:
        units = unit_table()
        record["per_layer"] = {k: {"value": v, "unit": units.get(k, "")}
                               for k, v in result["layers"].items()}
    else:
        record["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    record["operations"] = result["records"]
    (RESULTS_DIR / f"{name}.json").write_text(json.dumps(record, indent=1, default=str))
    return record


def unit_table() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def summary_line(record: dict) -> dict:
    metrics = record["per_layer"] if record["trace"] else record["end_to_end"]
    return {"correct": record["failed"] == 0, "attempted": record["samples"],
            "failed": record["failed"], "metrics": metrics}


def print_record(record: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{record['samples']} operations in {record['passes']} passes, "
          f"error_rate {record['error_rate']:.6g}, tail = p{record['tail_percentile']} "
          f"with {record['samples_beyond_tail']} samples beyond it")
    section = record["per_layer"] if record["trace"] else record["end_to_end"]
    for key, m in section.items():
        print(f"#   {key} = {m['value']:.6g} {m['unit']}")
    for op in record["operations"]:
        if not op["ok"]:
            print(f"#   FAILED {op['op']}: {op['reason']}")


def self_check(seed: int) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        plain = run(workload, seed, 0, 0)
        print_record(plain)
        traced = [run(workload, seed, 0, 1) for _ in range(2)]
        print_record(traced[0])
        second = run(workload, seed + 1, 0, 0)
        for rec in (plain, second, *traced):
            if rec["failed"]:
                problems.append(f"{workload} seed {rec['seed']}: {rec['failed']} failed checks")
        for kind, rec in (("end_to_end", plain), ("per_layer", traced[0])):
            have = rec[kind]
            for metric in spec[kind]:
                if metric["name"] not in have:
                    problems.append(f"{workload}: {kind} metric {metric['name']} missing")
                elif have[metric["name"]]["unit"] != metric["unit"]:
                    problems.append(f"{workload}: unit of {metric['name']} differs")
        first, again = traced[0]["per_layer"], traced[1]["per_layer"]
        for key in sorted(first):
            if tracing.is_exact(key) and first[key]["value"] != again.get(key, {}).get("value"):
                problems.append(f"{workload}: {key} not repeatable "
                                f"({first[key]['value']} vs {again.get(key, {}).get('value')})")
    for p in problems:
        print(f"SELF-CHECK FAIL {p}")
    print("SELF-CHECK " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.self_check:
            return self_check(args.seed)
        if args.workload is None:
            parser.error("--workload is required")
        record = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_record(record)
    print(json.dumps(summary_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
