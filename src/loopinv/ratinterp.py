"""Recover rational-function coefficients from black-box residues.

A black box hands back one unknown coefficient at chosen parameter
points, as its residues modulo primes.  Fitting num/den with bounded
per-variable degrees is a vanishing-relation problem: a sample
c = num(u)/den(u) says that

    num(u) + (-c) * den(u) = 0,

so num and den are a relation on the point (u, -c) over the monomials
(a, 0), one per numerator monomial a, and (b, 1), one per denominator
monomial b.  vanishing.relations solves it on the residues of (u, -c)
at each prime and lifts the basis by CRT and rational reconstruction;
a lift is accepted when it also annihilates the fit matrix at one
further prime.  A basis vector proposes the pair; the proposal must
then agree with the black box at fresh random points, compared mod p,
and any disagreement doubles the degree bounds and retries up to a cap.
None of this is a proof: the caller proves what it builds from the
functions (invgen checks consecution and initiation exactly).
"""

from __future__ import annotations

import random
from itertools import product as _cartesian
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from loopinv.polyring import (
    Polynomial, Rational, clear_content, divide, grlex_key, rational, render,
    sign_normalize,
)
from loopinv.vanishing import PRIMES, relations, residue, residue_matrix

DEFAULT_DEGREE_BOUND = 2
BOUND_CAP = 32
FRESH_CHECKS = 3

# a coefficient's residue mod a prime at one point, None where that
# prime cannot read the point
Reader = Callable[[int], Optional[int]]
# a coefficient at a parameter point: its Reader, None if the point failed
Evaluator = Callable[[Tuple[Rational, ...]], Optional[Reader]]


class InterpolationError(RuntimeError):
    pass


class RationalFunction:
    """num/den over the parameter ring, denominator monic under grlex."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise ZeroDivisionError("denominator is the zero polynomial")
        if num.vars != den.vars:
            raise ValueError("numerator and denominator rings differ")
        scale = 1 / den.leading_coefficient()
        self.num = num.scale(scale)
        self.den = den.scale(scale)

    def evaluate(self, point: Sequence[Rational]) -> Rational:
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at the point")
        return self.num.evaluate(point) / d

    def is_polynomial(self) -> bool:
        return self.den.total_degree() == 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction(({render(self.num)}) / ({render(self.den)}))"


def _box_monomials(bounds: Sequence[int]) -> List[Tuple[int, ...]]:
    ranges = [range(b + 1) for b in bounds]
    return sorted(_cartesian(*ranges), key=grlex_key)


def _random_point(m: int, rng: random.Random) -> Tuple[Rational, ...]:
    return tuple(rational(rng.randint(1, 1000), rng.randint(1, 1000))
                 for _ in range(m))


class _SampleStream:
    """Distinct param points with black-box readers, drawn on demand.

    evaluator returns the coefficient's reader at a parameter point, or
    None when that instantiation failed (degenerate run, no unique
    relation on the support); label names the coefficient in error
    messages.  samples keeps every (point, reader) pair drawn so far, so
    a fit at doubled bounds reuses them and draws only the extra ones.
    """

    def __init__(self, evaluator: Evaluator, label: str, m: int,
                 rng: random.Random, failure_budget: int):
        self.evaluator = evaluator
        self.label = label
        self.m = m
        self.rng = rng
        self.failure_budget = failure_budget
        self.samples: List[Tuple[Tuple[Rational, ...], Reader]] = []
        self.seen = set()
        self.failures = 0

    def take(self, count: int) -> List[Tuple[Tuple[Rational, ...], Reader]]:
        while len(self.samples) < count:
            pt = _random_point(self.m, self.rng)
            if pt in self.seen:
                continue
            self.seen.add(pt)
            reader = self.evaluator(pt)
            if reader is None:
                self.failures += 1
                if self.failures > self.failure_budget:
                    raise InterpolationError(
                        f"{self.label}: black-box failures exceeded "
                        f"budget of {self.failure_budget}")
                continue
            self.samples.append((pt, reader))
        return self.samples[:count]


def interpolate_rational(
    evaluator: Evaluator,
    m: int,
    degree_bounds: Optional[Tuple[Sequence[int], Sequence[int]]] = None,
    rng: Optional[random.Random] = None,
    failure_budget: int = 50,
    params: Optional[Sequence[str]] = None,
    label: str = "coefficient",
) -> RationalFunction:
    """The rational function num/den over m parameters that evaluator computes.

    evaluator(point) is None where the point fails, else a reader of
    the coefficient's residue mod a prime (None where that prime cannot
    read the point).  degree_bounds gives the per-parameter degree
    bounds of num and den, one sequence each (default
    DEFAULT_DEGREE_BOUND everywhere); they are where the search starts,
    not a limit.  Each round fits num/den over the box of monomials
    within the bounds to random sample points, and accepts the first fit
    that also agrees with the evaluator at FRESH_CHECKS fresh points.
    Otherwise every bound doubles (a zero bound becomes 1), each capped
    at BOUND_CAP.  rng draws the points
    (default random.Random(0)); params names the parameters (default
    u1..um); label names the coefficient in error messages.

    Raises InterpolationError when the evaluator fails at more than
    failure_budget points, or when no fit agrees in the round whose
    largest bound has reached BOUND_CAP.
    """
    if m < 1:
        raise ValueError("need at least one parameter")
    rng = rng or random.Random(0)
    if degree_bounds is None:
        num_bounds: Tuple[int, ...] = (DEFAULT_DEGREE_BOUND,) * m
        den_bounds: Tuple[int, ...] = (DEFAULT_DEGREE_BOUND,) * m
    else:
        num_bounds, den_bounds = (tuple(degree_bounds[0]), tuple(degree_bounds[1]))
        if len(num_bounds) != m or len(den_bounds) != m:
            raise ValueError("degree bounds must list one entry per parameter")
    if params is None:
        params = tuple(f"u{i + 1}" for i in range(m))
    else:
        params = tuple(params)
        if len(params) != m:
            raise ValueError("params must list one name per parameter")
    stream = _SampleStream(evaluator, label, m, rng, failure_budget)

    while True:
        status, rf = _fit_at_bounds(stream, params, num_bounds, den_bounds)
        if status == "ok":
            return rf
        if max(max(num_bounds), max(den_bounds)) >= BOUND_CAP:
            if status == "nofit":
                raise InterpolationError(
                    f"{label}: samples admit no rational function within "
                    f"degree bound cap {BOUND_CAP}; degenerate instantiations "
                    "suspected")
            raise InterpolationError(
                f"{label}: fresh-point verification kept failing up to "
                f"degree bound cap {BOUND_CAP}")
        num_bounds = tuple(min(2 * b if b else 1, BOUND_CAP) for b in num_bounds)
        den_bounds = tuple(min(2 * b if b else 1, BOUND_CAP) for b in den_bounds)


def _fit_at_bounds(stream, params, num_bounds, den_bounds):
    num_monos = _box_monomials(num_bounds)
    den_monos = _box_monomials(den_bounds)
    fit = stream.take(len(num_monos) + len(den_monos) + 2)

    def points_mod(p):
        # num and den as a relation on the points (u, -c); see the module
        # docstring.  A prime that cannot read every point is skipped
        values = [reader(p) for _, reader in fit]
        coords = None if None in values else residue_matrix([pt for pt, _ in fit], p)
        if coords is None:
            return None
        return np.column_stack([coords, (-np.array(values, dtype=np.int64)) % p])

    basis = relations(points_mod,
                      [a + (0,) for a in num_monos] + [b + (1,) for b in den_monos])
    if not basis:
        # the oversampled points admit no relation at these bounds
        return "nofit", None
    for vec in basis:
        den = _from_coeffs(params, den_monos, vec, len(num_monos))
        if den.is_zero():
            continue
        num = _from_coeffs(params, num_monos, vec)
        rf = RationalFunction(num, den)
        if _agrees(rf, stream, len(fit)):
            return "ok", rf
    return "mismatch", None


def _agrees(rf, stream, fit_count) -> bool:
    # solved points come back for free; the fresh tail is the real test.
    # Each point is compared mod the first prime that reads it and rf
    for pt, reader in stream.take(fit_count + FRESH_CHECKS):
        for p in PRIMES:
            val, num, den = reader(p), _residue_at(rf.num, pt, p), _residue_at(rf.den, pt, p)
            if val is None or num is None or den is None:
                continue
            if den == 0 or num != val * den % p:
                return False
            break
        else:
            return False
    return True


def _residue_at(f: Polynomial, point, p: int) -> Optional[int]:
    """f(point) mod p; None if p divides a denominator of f or the point."""
    coords = [residue(c, p) for c in point]
    if None in coords:
        return None
    total = 0
    for mono, c in f.terms.items():
        v = residue(c, p)
        if v is None:
            return None
        for x, e in zip(coords, mono):
            v = v * pow(x, e, p) % p
        total += v
    return total % p


def _from_coeffs(params, monos, vec: Dict[int, Rational], offset: int = 0) -> Polynomial:
    """Polynomial with coefficient vec[offset + i] at monos[i]."""
    return Polynomial(params, {mono: vec[offset + i] for i, mono in enumerate(monos)
                               if offset + i in vec})


def clear_denominators(template: Sequence[Polynomial],
                       coeffs: Sequence[RationalFunction]) -> Polynomial:
    """Combine sum(coeffs[i] * template[i]) into one polynomial.

    Template entries live in the program-variable ring, coefficients in
    the parameter ring; the result ranges over vars then params, scaled
    by the denominators, content-reduced, grlex-lead sign positive.
    """
    if len(template) != len(coeffs):
        raise ValueError("template and coefficient lists differ in length")
    if not template:
        raise ValueError("empty template")
    variables = template[0].vars
    params = coeffs[0].num.vars
    joint = variables + params
    distinct: List[Polynomial] = []
    for rf in coeffs:
        if rf.den.total_degree() != 0 and rf.den not in distinct:
            distinct.append(rf.den)
    common = Polynomial.constant(params, rational(1))
    for d in distinct:
        common = common.mul(d)
    out = Polynomial.zero(joint)
    for mono_poly, rf in zip(template, coeffs):
        cofactor, rem = divide(common, rf.den)
        assert rem.is_zero()
        part = lift_to(rf.num.mul(cofactor), joint).mul(lift_to(mono_poly, joint))
        out = out.add(part)
    return sign_normalize(clear_content(out))


def lift_to(f: Polynomial, joint: Tuple[str, ...]) -> Polynomial:
    """f read in the larger ring joint, which lists every variable of f."""
    slots = [joint.index(v) for v in f.vars]
    terms = {}
    for mono, c in f.terms.items():
        big = [0] * len(joint)
        for s, a in zip(slots, mono):
            big[s] = a
        terms[tuple(big)] = c
    return Polynomial(joint, terms)
