"""Where the benchmark wraps loopinv, and the per-layer metrics it derives.

Each target is a public function replaced at the module (or class)
attribute through which the pipeline calls it, so no file under src/
changes.  The harness opens a ROOT span around every loopinv.cli.run
call; every other span nests under one of those.
"""

from __future__ import annotations

import hashlib
import importlib
from collections import defaultdict
from contextlib import ExitStack
from typing import Dict, List

from spans import TRACE_HOOKS, Recorder, per_name

ROOT = "cli"

# (module, class or None, attribute, span name)
TARGETS = (
    ("loopinv.cli", None, "parse_program", "frontend"),
    ("loopinv.invgen", None, "to_transition_system", "frontend"),
    ("loopinv.cli", None, "invgen_numeric", "invgen"),
    ("loopinv.cli", None, "invgen_symbolic", "invgen"),
    ("loopinv.invgen", None, "collect_samples", "executor"),
    ("loopinv.invgen", None, "buchberger_moeller", "vanishing.bm"),
    ("loopinv.invgen", None, "bounded_relations", "vanishing.bounded"),
    ("loopinv.vanishing", None, "rref_mod_p", "kernel.rref"),
    ("loopinv.invgen", None, "interpolate_rational", "ratinterp"),
    ("loopinv.invgen", None, "clear_denominators", "ratinterp.clear_denominators"),
    ("loopinv.invgen", None, "filter_and_verify", "divisibility"),
    ("loopinv.divisibility", None, "random_line", "divisibility.stage1"),
    ("loopinv.divisibility", None, "to_univariate", "divisibility.stage1"),
    ("loopinv.divisibility", None, "univariate_divides", "divisibility.stage1"),
    ("loopinv.divisibility", None, "divide", "divisibility.stage2"),
    ("loopinv.polyring", "Polynomial", "substitute", "polyring.substitute"),
)

# name -> (unit, better)
LAYER_METRICS = {
    "kernel.rref.calls": ("count", "lower"),
    "kernel.rref.s": ("s", "lower"),
    "kernel.rref.cells": ("count", "lower"),
    "kernel.rref.repeats": ("count", "lower"),
    "kernel.rref.repeat_ratio": ("ratio", "lower"),
    "kernel.primes": ("count", "lower"),
    "vanishing.bm.calls": ("count", "lower"),
    "vanishing.bm.s": ("s", "lower"),
    "vanishing.bounded.calls": ("count", "lower"),
    "vanishing.bounded.s": ("s", "lower"),
    "vanishing.self_s": ("s", "lower"),
    "ratinterp.calls": ("count", "lower"),
    "ratinterp.s": ("s", "lower"),
    "ratinterp.self_s": ("s", "lower"),
    "ratinterp.clear_denominators_s": ("s", "lower"),
    "divisibility.calls": ("count", "lower"),
    "divisibility.s": ("s", "lower"),
    "divisibility.candidates": ("count", "lower"),
    "divisibility.verified_ratio": ("ratio", "higher"),
    "divisibility.rejected_stage1": ("count", "lower"),
    "divisibility.rejected_stage2": ("count", "lower"),
    "divisibility.stage1_s": ("s", "lower"),
    "divisibility.stage2_s": ("s", "lower"),
    "polyring.substitute_s": ("s", "lower"),
    "executor.calls": ("count", "lower"),
    "executor.s": ("s", "lower"),
    "executor.samples": ("count", "lower"),
    "executor.shortfall_ratio": ("ratio", "lower"),
    "invgen.instantiations": ("count", "lower"),
    "invgen.self_s": ("s", "lower"),
    "frontend.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.hooks_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class LoopinvTracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        self.rec = Recorder()
        self.program = None
        self.primes: set = set()
        self._reduced: set = set()
        # program id -> [rref calls, rref repeats]
        self.rref_by_program: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
        hooks = {
            "kernel.rref": (self._before_rref, None),
            "executor": (None, self._after_samples),
            "divisibility": (None, self._after_filter),
            "invgen": (None, self._after_invgen),
        }
        # (owner, attribute, original, wrapper)
        self.wrappers = []
        for module, cls, attr, name in TARGETS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            before, after = hooks.get(name, (None, None))
            fn = vars(owner)[attr]
            self.wrappers.append(
                (owner, attr, fn, self.rec.wrap(name, fn, before, after)))

    def install(self, stack: ExitStack) -> None:
        """Replace every target by its wrapper until stack closes."""
        # imported here: unittest adds ~5 MiB, which untraced passes, whose
        # worker imports this module too, must not carry in peak_rss_mb
        from unittest import mock
        for owner, attr, _, wrapper in self.wrappers:
            stack.enter_context(mock.patch.object(owner, attr, wrapper))

    def unrestored(self) -> List[str]:
        """Targets that do not hold their original function."""
        return [f"{owner.__name__}.{attr}"
                for owner, attr, original, _ in self.wrappers
                if vars(owner)[attr] is not original]

    def start_program(self, program_id: str) -> None:
        # repeats count within one program run
        self.program = program_id
        self._reduced = set()

    def _before_rref(self, args, kwargs) -> None:
        M, p = args
        rows, cols = M.shape
        self.rec.counts["kernel.rref.cells"] += rows * cols
        self.primes.add(p)
        # digest before the call: rref_mod_p reduces M in place
        key = (p, M.shape, hashlib.blake2b(M.tobytes(), digest_size=16).digest())
        tally = self.rref_by_program[self.program]
        tally[0] += 1
        if key in self._reduced:
            self.rec.counts["kernel.rref.repeats"] += 1
            tally[1] += 1
        else:
            self._reduced.add(key)

    def _after_samples(self, args, kwargs, pts) -> None:
        self.rec.counts["executor.samples"] += len(pts.points)
        self.rec.counts["executor.shortfalls"] += bool(pts.shortfall)

    def _after_filter(self, args, kwargs, result) -> None:
        verified, rejected1, rejected2 = result
        c = self.rec.counts
        c["divisibility.candidates"] += len(args[0])
        c["divisibility.verified"] += len(verified)
        c["divisibility.rejected_stage1"] += len(rejected1)
        c["divisibility.rejected_stage2"] += len(rejected2)

    def _after_invgen(self, args, kwargs, report) -> None:
        # numeric reports carry no instantiation count
        self.rec.counts["invgen.instantiations"] += getattr(report, "instantiations", 0)

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the current pass, without overhead_ratio."""
        rows = per_name(self.rec.finished())
        c = self.rec.counts

        def get(name, key):
            return rows[name][key] if name in rows else 0

        def ratio(num, den):
            return num / den if den else 0.0

        rref_calls = get("kernel.rref", "calls")
        out = {
            "kernel.rref.calls": rref_calls,
            "kernel.rref.s": get("kernel.rref", "s"),
            "kernel.rref.cells": c["kernel.rref.cells"],
            "kernel.rref.repeats": c["kernel.rref.repeats"],
            "kernel.rref.repeat_ratio": ratio(c["kernel.rref.repeats"], rref_calls),
            "kernel.primes": len(self.primes),
            "vanishing.bm.calls": get("vanishing.bm", "calls"),
            "vanishing.bm.s": get("vanishing.bm", "s"),
            "vanishing.bounded.calls": get("vanishing.bounded", "calls"),
            "vanishing.bounded.s": get("vanishing.bounded", "s"),
            "vanishing.self_s": (get("vanishing.bm", "self_s")
                                 + get("vanishing.bounded", "self_s")),
            "ratinterp.calls": get("ratinterp", "calls"),
            "ratinterp.s": get("ratinterp", "s"),
            "ratinterp.self_s": get("ratinterp", "self_s"),
            "ratinterp.clear_denominators_s": get("ratinterp.clear_denominators", "s"),
            "divisibility.calls": get("divisibility", "calls"),
            "divisibility.s": get("divisibility", "s"),
            "divisibility.candidates": c["divisibility.candidates"],
            "divisibility.verified_ratio": ratio(c["divisibility.verified"],
                                                 c["divisibility.candidates"]),
            "divisibility.rejected_stage1": c["divisibility.rejected_stage1"],
            "divisibility.rejected_stage2": c["divisibility.rejected_stage2"],
            "divisibility.stage1_s": get("divisibility.stage1", "s"),
            "divisibility.stage2_s": get("divisibility.stage2", "s"),
            "polyring.substitute_s": get("polyring.substitute", "s"),
            "executor.calls": get("executor", "calls"),
            "executor.s": get("executor", "s"),
            "executor.samples": c["executor.samples"],
            "executor.shortfall_ratio": ratio(c["executor.shortfalls"],
                                              get("executor", "calls")),
            "invgen.instantiations": c["invgen.instantiations"],
            "invgen.self_s": get("invgen", "self_s"),
            "frontend.s": get("frontend", "s"),
            "cli.self_s": get(ROOT, "self_s"),
            "trace.hooks_s": get(TRACE_HOOKS, "s"),
        }
        return out

    def program_seconds(self) -> List[float]:
        """Durations of the ROOT spans, in call order."""
        return [end - start for name, start, end, parent in self.rec.finished()
                if parent is None and name == ROOT]

    def self_total(self) -> float:
        return sum(row["self_s"] for row in per_name(self.rec.finished()).values())
