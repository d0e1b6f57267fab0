"""The benchmark's workloads: which programs run, at which settings, and
what each run must report.

Each workload loads a different layer of the pipeline; the reasons are
in WHY and, with the layer-to-metric mapping, in README.md beside this
file.  Program paths are relative to the root of the checkout.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from reference import (
    COUNTDOWN, GCD_PAIR, POWERSUM5, Expected, powersum_numeric,
    powersum_symbolic,
)

Bounds = Tuple[Tuple[int, ...], Tuple[int, ...]]


class Program:
    """One CLI invocation: a program file, its degree bound and flags."""

    __slots__ = ("id", "path", "degree", "interp_bounds", "expected")

    def __init__(self, id: str, path: str, degree: int,
                 expected: Expected, interp_bounds: Optional[Bounds] = None):
        self.id = id
        self.path = path
        self.degree = degree
        self.interp_bounds = interp_bounds
        self.expected = expected


def _table1(k: int) -> Program:
    # the acceptance sweep's pinned bounds: num (0, 0), den (1, k + 1)
    return Program(f"table1_k{k}", f"loopbench/programs/family{k}.loop",
                   k + 1, Expected(0, powersum_symbolic(k)),
                   ((0, 0), (1, k + 1)))


WORKLOADS: Dict[str, List[Program]] = {
    "numeric_highdeg": [
        Program("powersum_k22_d23", "loopbench/programs/powersum22.loop", 23,
                Expected(0, powersum_numeric(22))),
        Program("powersum_k25_d26", "loopbench/programs/powersum25.loop", 26,
                Expected(0, powersum_numeric(25))),
        # below the invariant's degree: BM walks its whole border and the
        # run must prove that nothing of lower degree exists
        Program("powersum_k25_d25", "loopbench/programs/powersum25.loop", 25,
                Expected(1, None, min_degree=26)),
    ],
    "table1_pinned": [_table1(8), _table1(10), _table1(12)],
    "symbolic_default": [
        # no interpolation bounds, so ratinterp's doubling escalation runs
        Program("table1_k2_default", "loopbench/programs/family2.loop", 3,
                Expected(0, powersum_symbolic(2))),
    ],
    "worked_examples": [
        Program("powersum_d7", "programs/powersum.loop", 7,
                Expected(0, POWERSUM5)),
        Program("countdown_d2", "programs/countdown.loop", 2,
                Expected(0, COUNTDOWN)),
        Program("gcd_pair_d2", "programs/gcd_pair.loop", 2,
                Expected(0, GCD_PAIR)),
    ],
}

WHY = {
    "numeric_highdeg": "numeric power sums at degree 23-26: 93% in rref_mod_p, "
                       "no probes, no interpolation; the d25 row walks BM's "
                       "full border to prove nonexistence",
    "table1_pinned": "the paper's Table-1 rows k=8,10,12 with pinned bounds: "
                     "rref in the probes (41%) mixed with the exact "
                     "interpolation nullspace (39%)",
    "symbolic_default": "Table-1 k=2 without --interp-* bounds: the only "
                        "workload where ratinterp's doubling escalation runs; "
                        "98% in ratinterp's exact nullspace",
    "worked_examples": "the three README programs; gcd_pair is branchy with "
                       "degenerate probes, so vanishing self time (49%), "
                       "divisibility (23%) and the executor (9%) dominate",
}

