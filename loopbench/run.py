"""loopinv benchmark: time from program text to a verified report.

Usage, from the root of a checkout:

    python3 loopbench/run.py --workload worked_examples --seed 0 \
        --seconds 30 --trace 0 [--out result.json]

A run is a closed loop with a single caller: one pass at a time, each
pass in a fresh worker process (worker.py) that calls loopinv.cli.run
in-process, with JSON output and numpy/BLAS threads held to 1, on every
program of the workload in turn.  Every output is checked against the
independent reference in reference.py.  Passes repeat while the next
one is expected to end within --seconds; there is always at least one.

Pass j of a run with workload seed s gives every program loopinv's
--seed s*SEED_STRIDE + j.  The loopinv seed picks the probe points and
filter lines, and gcd_pair's time alone varies 2x across it, so each
pass draws its own and verdict_s is a median over those draws.

--trace 0 measures the end-to-end metrics:
  verdict_s    median time of one pass over the workload's programs
  setup_s      median wall time of a fresh interpreter that imports
               loopinv.cli (numpy included) and parses the programs;
               SETUP_RUNS of them, half before the first pass and the
               rest spread over the gaps between passes
  peak_rss_mb  median over passes of the pass process's peak RSS
and prints verdict_fail_ratio (failed over attempted program runs).
Since every pass has its own loopinv seed, this run cannot compare a
program's stdout across passes; determinism is checked by --trace 1.

--trace 1 runs each pass twice, untraced and then with every layer
wrapped from outside (layers.py), and reports the per-layer metrics as
medians over the traced passes, and the time of each of the workload's
programs as program.<id>.s.  It also checks that traced stdout is
byte-identical to untraced stdout for the same program and seed, that
every wrapper is removed afterwards, and that the layers' self times
add up to the traced program time.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Lines above it repeat the metrics by
name with their units, together with the environment block.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LAYER_METRICS
from reference import check_run
from worker import THREAD_VARS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SEED_STRIDE = 1000
# below SEED_STRIDE, so two runs never share a loopinv seed
MAX_PASSES = 200
SETUP_RUNS = 15
# a run must end within 180 s; no single child may take longer than this
CHILD_TIMEOUT = 170
# the program spans must cover this share of a traced pass
MIN_SPAN_COVERAGE = 0.98
# every child imports loopinv from src/ with numpy/BLAS held to 1 thread
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC),
                 **{var: "1" for var in THREAD_VARS})

SETUP_CODE = """\
import sys
from loopinv.cli import parse_program
for path in sys.argv[1:]:
    with open(path) as f:
        parse_program(f.read())
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="PATH",
                        help="also write the full result document here")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


# --- environment --------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "loopinv").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int, worker_env: dict) -> dict:
    env = dict(worker_env)
    env.update({
        "LOOPINV_KERNEL": os.environ.get("LOOPINV_KERNEL", "(unset)"),
        "blas_threads": 1,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
    })
    return env


# --- passes -------------------------------------------------------------

class Pass:
    """One worker's pass; doc is its JSON report, None if it crashed."""

    __slots__ = ("index", "seed", "traced", "doc")

    def __init__(self, index, seed, traced, doc):
        self.index = index
        self.seed = seed
        self.traced = traced
        self.doc = doc


def run_pass(workload, index, seed, traced, failures):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--loopinv-seed", str(seed)] + (["--trace"] if traced else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        failures.append((None, f"pass {index} seed {seed}: worker timed out"))
        return Pass(index, seed, traced, None)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        failures.append((None, f"pass {index} seed {seed}: worker exited "
                               f"with code {proc.returncode}"))
        return Pass(index, seed, traced, None)
    return Pass(index, seed, traced, json.loads(lines[-1]))


def run_passes(workload, base_seed, budget, traced_too, failures, gap=None):
    """Closed loop of passes until the next is expected to overrun budget.

    With traced_too, every untraced pass is followed by a traced pass
    on the same seed.  gap(share, last), if given, runs before every
    pass and after the last one, with the share of the budget used.
    """
    passes = []
    durations = []
    start = time.perf_counter()
    while len(durations) < MAX_PASSES:
        if gap is not None:
            gap((time.perf_counter() - start) / budget, False)
        index = len(durations)
        t0 = time.perf_counter()
        passes.append(run_pass(workload, index, base_seed + index, False,
                               failures))
        if traced_too:
            passes.append(run_pass(workload, index, base_seed + index, True,
                                   failures))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > budget:
            break
    if gap is not None:
        gap(1.0, True)
    return passes


def check_passes(passes, programs, failures):
    """Reference check of every run; returns the number attempted.

    A failed run goes into failures as ((traced, pass, program), reason).
    """
    attempted = 0
    for p in passes:
        runs = p.doc["runs"] if p.doc else [None] * len(programs)
        for prog, run in zip(programs, runs):
            attempted += 1
            if run is None:
                reason = "no report from the worker"
            elif run["code"] is None:
                reason = "raised"
            else:
                reason = check_run(prog.expected, run["code"], run["stdout"],
                                   p.seed)
            if reason is not None:
                failures.append(((p.traced, p.index, prog.id),
                                 f"{prog.id} seed {p.seed}: {reason}"))
    return attempted


class SetupSampler:
    """Fresh interpreters that import loopinv.cli and parse the programs.

    At a gap a share f of the way through the run it times runs until
    ceil(SETUP_RUNS * (1 + f) / 2) are done, and at the last gap all
    SETUP_RUNS: half at the start, the rest spread over the run, so that
    the median does not rest on one moment of the machine.
    """

    def __init__(self, programs, failures):
        self.cmd = ([sys.executable, "-c", SETUP_CODE]
                    + [str(ROOT / p.path) for p in programs])
        self.failures = failures
        self.times = []
        self.broken = False
        # the first run also writes bytecode caches; users pay that once
        self._run()

    def _run(self):
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, cwd=ROOT, env=CHILD_ENV,
                              capture_output=True, timeout=CHILD_TIMEOUT)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            self.failures.append((None, "set-up run failed: "
                                  + proc.stderr.decode(errors="replace").strip()))
            self.broken = True
        return elapsed

    def gap(self, share, last):
        target = (SETUP_RUNS if last
                  else math.ceil(SETUP_RUNS * (1 + min(share, 1.0)) / 2))
        while not self.broken and len(self.times) < target:
            elapsed = self._run()
            if not self.broken:
                self.times.append(elapsed)


# --- the two kinds of run -----------------------------------------------

def end_to_end(args, programs, failures):
    setup = SetupSampler(programs, failures)
    passes = run_passes(args.workload, args.seed * SEED_STRIDE, args.seconds,
                        False, failures, setup.gap)
    done = [p.doc for p in passes if p.doc]
    setup_times = setup.times
    if not done or not setup_times:
        return {}, {}, passes
    times = [d["seconds"] for d in done]
    rss = [d["peak_rss_mb"] for d in done]
    metrics = {
        "verdict_s": {"value": statistics.median(times), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
    }
    notes = {
        "verdict_s": f"median of {len(times)} passes, min {min(times):.4g}, "
                     f"max {max(times):.4g}",
        "setup_s": f"median of {len(setup_times)} fresh interpreters: "
                   + ", ".join(f"{t:.4g}" for t in setup_times),
        "peak_rss_mb": f"min {min(rss):.4g}, max {max(rss):.4g}",
    }
    return metrics, notes, passes


def traced(args, programs, failures):
    passes = run_passes(args.workload, args.seed * SEED_STRIDE, args.seconds,
                        True, failures)
    plain = {p.index: p.doc for p in passes if not p.traced and p.doc}
    traced_passes = [p for p in passes if p.traced and p.doc]
    for p in traced_passes:
        doc = p.doc
        if p.index in plain:
            for prog, run, ref in zip(programs, doc["runs"],
                                      plain[p.index]["runs"]):
                if run["stdout"] != ref["stdout"]:
                    failures.append(((True, p.index, prog.id),
                                     f"{prog.id} seed {p.seed}: traced stdout "
                                     "differs from untraced stdout"))
        if doc["unrestored"]:
            failures.append((None, f"pass {p.index}: wrappers left installed: "
                             + ", ".join(doc["unrestored"])))
        spans = doc["span_total"]
        if abs(doc["self_total"] - spans) > 1e-6 + 1e-9 * spans:
            failures.append((None, f"pass {p.index}: self times sum to "
                             f"{doc['self_total']:.6f} s, program spans to "
                             f"{spans:.6f} s"))
        if spans < MIN_SPAN_COVERAGE * doc["seconds"]:
            failures.append((None, f"pass {p.index}: program spans cover only "
                             f"{spans / doc['seconds']:.1%} of the pass"))
    if not traced_passes:
        return {}, {}, passes

    paired = [(p.doc["seconds"], plain[p.index]["seconds"])
              for p in traced_passes if p.index in plain]
    overhead = (sum(t for t, _ in paired) / sum(u for _, u in paired)
                if paired else 0.0)
    metrics = {}
    for name, (unit, _) in LAYER_METRICS.items():
        if name == "trace.overhead_ratio":
            value = overhead
        else:
            value = statistics.median(p.doc["layer"][name] for p in traced_passes)
        metrics[name] = {"value": value, "unit": unit}
    notes = {"trace.overhead_ratio": f"{len(paired)} traced passes against "
                                     "untraced passes on the same seeds"}
    for prog in programs:
        secs = [r["seconds"] for p in traced_passes for r in p.doc["runs"]
                if r["id"] == prog.id]
        notes[f"program.{prog.id}.s"] = (f"{statistics.median(secs):.6g} s, "
                                         f"median of {len(secs)} traced runs")
    first = traced_passes[0]
    for pid, (calls, repeats) in first.doc["rref_by_program"].items():
        notes[f"rref.{pid}"] = (f"loopinv seed {first.seed}: {calls} "
                                f"rref_mod_p calls, {repeats} on a (prime, "
                                "matrix) already reduced in the same run")
    return metrics, notes, passes


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "loopinv" / "cli.py").is_file():
        print(f"loopbench: no loopinv sources at {SRC}", file=sys.stderr)
        return 2
    programs = WORKLOADS[args.workload]
    missing = [p.path for p in programs if not (ROOT / p.path).is_file()]
    if missing:
        print(f"loopbench: missing programs: {missing}", file=sys.stderr)
        return 2

    failures = []
    if args.trace:
        metrics, notes, passes = traced(args, programs, failures)
    else:
        metrics, notes, passes = end_to_end(args, programs, failures)
    attempted = check_passes(passes, programs, failures)
    failed = len({key for key, _ in failures if key is not None})
    for _, reason in failures:
        print(f"FAIL {reason}", file=sys.stderr)
    if not metrics:
        print("loopbench: no pass produced a report", file=sys.stderr)
        return 1
    env = environment(args.seed, next(p.doc["env"] for p in passes if p.doc))

    seeds = sorted({p.seed for p in passes})
    print(f"loopbench: workload {args.workload}, seed {args.seed}, trace "
          f"{args.trace}; closed loop, 1 caller; {len(passes)} passes, one "
          f"process each, over loopinv seeds {seeds[0]}..{seeds[-1]}")
    print("env: " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        note = notes.get(name)
        print(f"  {name} = {_fmt(m['value'])} {m['unit']}"
              + (f"  ({note})" if note else ""))
    print(f"  verdict_fail_ratio = {failed / attempted:.6g} ratio  "
          f"({failed} failed of {attempted} attempted program runs)")
    for name, note in notes.items():
        if name not in metrics:
            print(f"  {name}: {note}")
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.out:
        doc = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "seconds": args.seconds, "env": env,
               "pass_seconds": [p.doc["seconds"] for p in passes
                                if p.doc and not p.traced],
               "failures": [reason for _, reason in failures],
               "result": result}
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
