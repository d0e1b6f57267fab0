"""One benchmark pass in a fresh interpreter.

    python3 loopbench/worker.py --workload NAME --loopinv-seed N [--trace]

Imports loopinv from the checkout's src/, calls loopinv.cli.run with
JSON output on each program of the workload in turn, and prints one
JSON line: the pass time, each run's exit code, stdout and time, the
process's peak resident memory, and, with --trace, the per-layer
metrics of layers.py.  run.py starts one worker per pass, so that every
pass starts cold, as a CLI invocation does: the first pass in a process
page-faults its numpy working set in, which makes it ~40% slower than a
second pass on numeric_highdeg.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from importlib.util import find_spec
from pathlib import Path

from layers import ROOT as ROOT_SPAN
from layers import LoopinvTracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_program(cli, prog, seed, tracer=None):
    """(exit code or None if it raised, stdout, seconds) of one CLI run."""
    cfg = cli.CliConfig(program_path=str(ROOT / prog.path),
                        degree_bound=prog.degree, seed=seed,
                        interp_bounds=prog.interp_bounds,
                        output_format="json")
    buf = io.StringIO()
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                code = cli.run(cfg)
            else:
                tracer.start_program(prog.id)
                with tracer.rec.span(ROOT_SPAN):
                    code = cli.run(cfg)
    except Exception:
        print(f"worker: {prog.id} at seed {seed} raised:", file=sys.stderr)
        traceback.print_exc()
    return code, buf.getvalue(), time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--loopinv-seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"     # before numpy is imported
    sys.path.insert(0, str(SRC))

    import numpy
    from loopinv import _kernel, cli
    if Path(cli.__file__).resolve().parent != SRC / "loopinv":
        print(f"worker: imported loopinv from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    programs = WORKLOADS[args.workload]
    seed = args.loopinv_seed

    tracer = None
    if args.trace:
        tracer = LoopinvTracer()
        with contextlib.ExitStack() as stack:
            tracer.install(stack)
            t0 = time.perf_counter()
            runs = [run_program(cli, prog, seed, tracer) for prog in programs]
            seconds = time.perf_counter() - t0
    else:
        t0 = time.perf_counter()
        runs = [run_program(cli, prog, seed) for prog in programs]
        seconds = time.perf_counter() - t0

    doc = {
        "seconds": seconds,
        "runs": [{"id": prog.id, "code": code, "stdout": out, "seconds": secs}
                 for prog, (code, out, secs) in zip(programs, runs)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "gmpy2": find_spec("gmpy2") is not None,
                "kernel_backend": _kernel.BACKEND},
    }
    if tracer is not None:
        doc["layer"] = tracer.metrics()
        doc["self_total"] = tracer.self_total()
        doc["span_total"] = sum(tracer.program_seconds())
        doc["rref_by_program"] = dict(tracer.rref_by_program)
        doc["unrestored"] = tracer.unrestored()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
