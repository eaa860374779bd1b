"""Record the reference outputs that the benchmark's checks compare against.

    PYTHONPATH=src python3 bench/record_reference.py

The files in bench/reference/ were recorded at commit 9160b1e.  The benchmark
compares scan CSV, appendix-c JSON and basis numbers against them to 1e-12,
so a change that moves one of those numbers shows as a failed operation.
"""

import contextlib
import io
import sys

import workloads


def main() -> int:
    import quditdiscord.cli as cli

    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for label, argv in [*workloads.SCAN_OPS, workloads.APPENDIX_C, workloads.BASIS_D3]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        if code != 0:
            print(f"{label}: exit {code}", file=sys.stderr)
            return 1
        workloads.reference_path(label).write_text(out.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
