"""Independent correctness reference for the benchmark's programs.

Nothing here imports loopinv: the expected invariants are built from
Faulhaber's formula with Bernoulli numbers in `fractions`, or written
out by hand from the README goldens, and loopinv's JSON report is read
from its exponent/coefficient term lists rather than its text rendering.

A polynomial is a dict mapping exponent tuples (one slot per ring
variable, in the report's order: loop variables, then parameters) to
nonzero Fractions.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb
from typing import Dict, List, Optional, Tuple

Poly = Dict[Tuple[int, ...], Fraction]


def bernoulli(m: int) -> List[Fraction]:
    """B_0 .. B_m with the B_1 = -1/2 convention."""
    out = [Fraction(1)]
    for n in range(1, m + 1):
        out.append(-sum(comb(n + 1, j) * out[j] for j in range(n)) / (n + 1))
    return out


def faulhaber(k: int) -> Dict[int, Fraction]:
    """S_k(y) = sum of i^k for i = 0 .. y-1, as {power of y: coefficient}."""
    if k < 1:
        raise ValueError("k must be at least 1")
    b = bernoulli(k)
    coeffs: Dict[int, Fraction] = {}
    for j in range(k + 1):
        c = comb(k + 1, j) * b[j] / (k + 1)
        if c:
            coeffs[k + 1 - j] = c
    return coeffs


def powersum_numeric(k: int) -> Poly:
    """x - S_k(y) over (x, y): the loop (x, y) := (x + y^k, y + 1) from (0, 0)."""
    poly: Poly = {(1, 0): Fraction(1)}
    for e, c in faulhaber(k).items():
        poly[(0, e)] = -c
    return poly


def powersum_symbolic(k: int) -> Poly:
    """x - a - (S_k(y) - S_k(b)) over (x, y, a, b): the same loop from (a, b)."""
    poly: Poly = {(1, 0, 0, 0): Fraction(1), (0, 0, 1, 0): Fraction(-1)}
    for e, c in faulhaber(k).items():
        poly[(0, e, 0, 0)] = -c
        poly[(0, 0, 0, e)] = c
    return poly


# README goldens, transcribed term by term
COUNTDOWN = {  # 2*x + r^2 - r - a over (x, r, a)
    (1, 0, 0): Fraction(2), (0, 2, 0): Fraction(1),
    (0, 1, 0): Fraction(-1), (0, 0, 1): Fraction(-1),
}
GCD_PAIR = {  # x*u + y*v - 2*a*b over (x, y, u, v, a, b)
    (1, 0, 1, 0, 0, 0): Fraction(1), (0, 1, 0, 1, 0, 0): Fraction(1),
    (0, 0, 0, 0, 1, 1): Fraction(-2),
}
POWERSUM5 = {  # -12*x + 2*y^6 - 6*y^5 + 5*y^4 - y^2 over (x, y)
    (1, 0): Fraction(-12), (0, 6): Fraction(2), (0, 5): Fraction(-6),
    (0, 4): Fraction(5), (0, 2): Fraction(-1),
}


def is_scalar_multiple(got: Poly, want: Poly) -> bool:
    """True iff got = c * want for some nonzero rational c."""
    if not want or set(got) != set(want):
        return False
    mono = next(iter(want))
    ratio = got[mono] / want[mono]
    return ratio != 0 and all(got[m] == ratio * c for m, c in want.items())


def poly_from_terms(terms) -> Poly:
    """Read a JSON term list: [{"exponents": [...], "coefficient": "p/q"}]."""
    poly: Poly = {}
    for term in terms:
        mono = tuple(int(e) for e in term["exponents"])
        if mono in poly:
            raise ValueError(f"repeated monomial {mono}")
        c = Fraction(term["coefficient"])
        if c == 0:
            raise ValueError(f"zero coefficient at {mono}")
        poly[mono] = c
    return poly


class Expected:
    """What one program run must produce.

    invariant is the reference polynomial (None when the run must find
    nothing); min_degree, when set, is the minimal vanishing degree the
    report must state.
    """

    __slots__ = ("exit_code", "invariant", "min_degree")

    def __init__(self, exit_code: int, invariant: Optional[Poly],
                 min_degree: Optional[int] = None):
        self.exit_code = exit_code
        self.invariant = invariant
        self.min_degree = min_degree


def check_run(expected: Expected, code: int, stdout: str,
              seed: int) -> Optional[str]:
    """None when the run matches the reference, else the reason it does not."""
    if code != expected.exit_code:
        return f"exit code {code}, expected {expected.exit_code}"
    try:
        doc = json.loads(stdout)
        found = [poly_from_terms(inv["poly"]["terms"])
                 for inv in doc["invariants"]]
    except (ValueError, KeyError, TypeError) as err:
        return f"unreadable report: {err!r}"
    if doc.get("seed") != seed:
        return f"report echoes seed {doc.get('seed')}, expected {seed}"
    if expected.min_degree is not None and doc.get("min_degree") != expected.min_degree:
        return f"min_degree {doc.get('min_degree')}, expected {expected.min_degree}"
    if expected.invariant is None:
        if found:
            return f"{len(found)} invariants reported, expected none"
        return None
    if len(found) != 1:
        return f"{len(found)} invariants reported, expected one"
    if not is_scalar_multiple(found[0], expected.invariant):
        return "invariant is not a nonzero multiple of the reference"
    return None
