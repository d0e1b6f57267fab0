"""Digest what the CLI prints on the benchmark's programs, to compare two
checkouts byte for byte.

Usage, from any directory:

    python3 benchmarks/stdout_digest.py [--seeds N] [--workload NAME ...]

Runs loopinv.cli.main in-process, from the checkout's src/, on every
program of loopbench/workloads.py (or of the named workloads) at seeds
0..N-1 (default 10), once with --format text and once with --format
json.  Program paths are passed relative to the root of the checkout,
as the workloads list them, so text reports of two checkouts name the
same path.  Prints one line per run, the sha256 of its stdout then the
program, seed, format and exit code, and last the sha256 of all those
lines.  Two checkouts that print the same last line printed the same
bytes on every run and exited alike.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "loopbench"))

from loopinv import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FORMATS = ("text", "json")


def argv(program, seed: int, fmt: str) -> list:
    """The CLI arguments of one run of a workload program."""
    args = ["--program", program.path, "--degree", str(program.degree),
            "--seed", str(seed), "--format", fmt]
    if program.interp_bounds is not None:
        num, den = program.interp_bounds
        args += ["--interp-num-deg", ",".join(map(str, num)),
                 "--interp-den-deg", ",".join(map(str, den))]
    return args


def run(program, seed: int, fmt: str):
    """(sha256 of stdout, exit code) of one in-process run, from the root
    of the checkout."""
    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv(program, seed, fmt))
    finally:
        os.chdir(cwd)
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


def main(args=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, metavar="N",
                        help="run seeds 0..N-1 (default 10)")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="only this workload's programs (repeatable; "
                             "default: all)")
    args = parser.parse_args(args)
    overall = hashlib.sha256()
    for name in args.workload or WORKLOADS:
        for program in WORKLOADS[name]:
            for seed in range(args.seeds):
                for fmt in FORMATS:
                    digest, code = run(program, seed, fmt)
                    line = f"{digest}  {program.id} seed={seed} {fmt} exit={code}"
                    print(line, flush=True)
                    overall.update(line.encode() + b"\n")
    print(f"{overall.hexdigest()}  overall")
    return 0


if __name__ == "__main__":
    sys.exit(main())
