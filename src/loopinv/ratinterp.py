"""Recover rational-function coefficients from black-box residues.

A black box hands back one unknown coefficient at chosen parameter
points, as its residues modulo primes.  Recovery first reads the
coefficient's degrees in each parameter, then fits it once, at exactly
those degrees.

The black box is two calls on lists of point numbers, so that it can
solve the points of one call together: probe(ids) says which points
did not fail, and residues(ids, p) gives the coefficient mod p at each
point (None where p cannot read it).  The fit and its fresh checks draw
the pool's random points in batches, each as large as reads one at a
time would surely reach: no more than it takes to fill the samples or
to exceed the failure budget.  So batches draw the same points in the
same order as single reads, count failures in that order and raise at
the same one.  The fit asks for all its points at a prime in one call.
The detection lines read one point at a time, since each line stops at
the first points that agree.

Degrees.  On the line through a random base point parallel to one
parameter's axis, the coefficient is a rational function of that
parameter alone.  Thiele's continued fraction interpolates it on the
residues at one prime, one point at a time, and stops once ZETA further
points agree with its current convergent (early termination).  The
convergent's numerator and denominator, divided by their gcd mod p,
give the degrees in that parameter; Thiele alone gives only the
diagonal ones.  A base point at which a leading coefficient vanishes
can only lower a degree, so a fit that fails retries from a fresh base
point.  Degree bounds from the caller are a hint: the fit runs at them
first, and the degrees are detected only if that fit fails.

Fit.  Fitting num/den with bounded per-variable degrees is a
vanishing-relation problem: a sample c = num(u)/den(u) says that

    num(u) + (-c) * den(u) = 0,

so num and den are a relation on the point (u, -c) over the monomials
(a, 0), one per numerator monomial a, and (b, 1), one per denominator
monomial b.  vanishing.relations solves it on the residues of (u, -c)
at each prime and lifts the basis by CRT and rational reconstruction;
a lift is accepted when it also annihilates the fit matrix at one
further prime.  A basis vector proposes the pair; the proposal is then
evaluated exactly at fresh random points, and each value must agree with
the black box's residue mod the first prime that reads both.
None of this is a proof: the caller proves what it builds from the
functions (invgen checks consecution and initiation exactly).
"""

from __future__ import annotations

import random
from itertools import product as _cartesian
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from loopinv.polyring import (
    Polynomial, Rational, clear_content, divide, grlex_key, rational, render,
    sign_normalize,
)
from loopinv.vanishing import PRIMES, eval_matrix, relations, residue, residue_matrix

FRESH_CHECKS = 3
# further points that must agree with a line's convergent to end it
ZETA = 3
# points one line reads before giving up
LINE_CAP = 128
# base points detection tries before giving up
BASE_POINTS = 3

Point = Tuple[Rational, ...]
# which of a PointPool's points, given by their numbers, did not fail
Probe = Callable[[List[int]], List[bool]]
# a coefficient's residues mod a prime at points that did not fail, None
# where the prime cannot read the point
Residues = Callable[[List[int], int], List[Optional[int]]]


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


def _random_point(m: int, rng: random.Random) -> Point:
    return tuple(rational(rng.randint(1, 1000), rng.randint(1, 1000))
                 for _ in range(m))


class PointPool:
    """Parameter points over m parameters, each numbered once.

    random(k) is the number of the k-th point drawn from
    random.Random(seed) that was new to the pool.  line(base, axis, j) is the number of the j-th
    point, from 0, of the line through point base parallel to parameter
    axis, base left out.  Each line draws its coordinates from its own
    generator, seeded by seed, base and axis, so every reader of a line
    sees the same points however far others have extended it.  pool[i]
    is the point numbered i.  Every fit that shares a pool reads the
    same points, so callers key their caches by the number and hash
    each point once, when the pool first draws it.
    """

    def __init__(self, m: int, seed: int = 0):
        if m < 1:
            raise ValueError("need at least one parameter")
        self.m = m
        self.seed = seed
        self.rng = random.Random(seed)
        self.points: List[Point] = []
        self.ids: Dict[Point, int] = {}
        self.draws: List[int] = []
        self.lines: Dict[Tuple[int, int], Tuple[random.Random, Set[Rational], List[int]]] = {}

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def number(self, point: Point) -> int:
        """The number of point, assigned now if the pool has not seen it."""
        i = self.ids.get(point)
        if i is None:
            i = self.ids[point] = len(self.points)
            self.points.append(point)
        return i

    def random(self, k: int) -> int:
        while len(self.draws) <= k:
            new = len(self.points)
            if self.number(_random_point(self.m, self.rng)) == new:
                self.draws.append(new)
        return self.draws[k]

    def line(self, base: int, axis: int, j: int) -> int:
        if (base, axis) not in self.lines:
            self.lines[base, axis] = (random.Random(f"{self.seed}:{base}:{axis}"),
                                      {self.points[base][axis]}, [])
        rng, seen, ids = self.lines[base, axis]
        while len(ids) <= j:
            t = rational(rng.randint(1, 1000), rng.randint(1, 1000))
            if t not in seen:
                seen.add(t)
                pt = self.points[base]
                ids.append(self.number(pt[:axis] + (t,) + pt[axis + 1:]))
        return ids[j]


class _BlackBox:
    """One coefficient's black box on a pool's points, within a budget of
    failed points.

    samples keeps the numbers of the pool's random points probed so far
    that did not fail, in draw order, so a later fit reuses them and
    draws only the extra ones.  label names the coefficient in error
    messages.
    """

    def __init__(self, probe: Probe, residues: Residues, pool: PointPool,
                 label: str, failure_budget: int):
        self._probe = probe
        self.residues = residues
        self.pool = pool
        self.label = label
        self.failure_budget = failure_budget
        self.samples: List[int] = []
        self.draws = 0
        self.failures = 0

    def probe(self, ids: List[int]) -> List[bool]:
        """Which of the points ids did not fail, one batch, with failures
        counted in order: the first one beyond the budget raises."""
        good = self._probe(ids)
        for ok in good:
            if not ok:
                self.failures += 1
                if self.failures > self.failure_budget:
                    raise InterpolationError(
                        f"{self.label}: black-box failures exceeded "
                        f"budget of {self.failure_budget}")
        return good

    def take(self, count: int) -> List[int]:
        """The first count samples, drawing the pool's random points in
        batches.  A batch holds only points that reads one at a time
        would reach too: fewer draws could neither fill the samples nor
        exceed the failure budget.  So the same points are drawn, and
        the same failure raises."""
        while len(self.samples) < count:
            need = min(count - len(self.samples),
                       self.failure_budget - self.failures + 1)
            ids = [self.pool.random(self.draws + k) for k in range(need)]
            self.draws += need
            self.samples += [i for i, ok in zip(ids, self.probe(ids)) if ok]
        return self.samples[:count]


def interpolate_rational(
    probe: Probe,
    residues: Residues,
    pool: PointPool,
    degree_bounds: Optional[Tuple[Sequence[int], Sequence[int]]] = None,
    failure_budget: int = 50,
    params: Optional[Sequence[str]] = None,
    label: str = "coefficient",
) -> RationalFunction:
    """The rational function num/den over pool.m parameters that a black
    box computes.

    The black box reads the pool's points, given by their numbers:
    probe(ids) returns, per point, whether it did not fail, and
    residues(ids, p), asked only at points that did not fail, the
    coefficient's residue mod p at each (None where p cannot read the
    point).  A fit over the box of monomials within per-parameter bounds
    is accepted when it also agrees with the black box at FRESH_CHECKS
    fresh random points of the pool.
    degree_bounds, the per-parameter bounds of num and den, one sequence
    each, is a hint: when given, the first fit runs at it.  Otherwise, or
    if that fit fails, the degrees are detected on the lines through a
    base point (see the module docstring): the first random sample, then
    a fresh one per retry, BASE_POINTS in all, each retry fitting at the
    per-parameter maximum of the degrees detected so far.  params names
    the parameters (default u1..um); label names the coefficient in
    error messages.

    Raises InterpolationError when the black box fails at more than
    failure_budget points, when a line reads LINE_CAP points without
    terminating, or when no fit agrees from any base point.
    """
    m = pool.m
    if degree_bounds is not None:
        degree_bounds = (tuple(degree_bounds[0]), tuple(degree_bounds[1]))
        if len(degree_bounds[0]) != m or len(degree_bounds[1]) != m:
            raise ValueError("degree bounds must list one entry per parameter")
    if params is None:
        params = tuple(f"u{i + 1}" for i in range(m))
    else:
        params = tuple(params)
        if len(params) != m:
            raise ValueError("params must list one name per parameter")
    box = _BlackBox(probe, residues, pool, label, failure_budget)
    if degree_bounds is not None:
        rf = _fit(box, params, degree_bounds)
        if rf is not None:
            return rf
    bounds = None
    for n in range(BASE_POINTS):
        base = box.take(len(box.samples) + 1 if n else 1)[-1]
        found = _detect(box, base, params)
        if bounds is not None:
            found = tuple(tuple(map(max, new, old)) for new, old in zip(found, bounds))
            if found == bounds:
                continue
        bounds = found
        rf = _fit(box, params, bounds)
        if rf is not None:
            return rf
    raise InterpolationError(
        f"{label}: no fit at the detected degrees (numerator {bounds[0]}, "
        f"denominator {bounds[1]}) agreed at fresh points, from "
        f"{BASE_POINTS} base points")


def _detect(box: _BlackBox, base: int, params):
    """Per-parameter (numerator, denominator) degrees of the coefficient
    on the lines through point base parallel to each axis."""
    degrees = [_line_degrees(box, base, axis, params[axis])
               for axis in range(box.pool.m)]
    return tuple(d[0] for d in degrees), tuple(d[1] for d in degrees)


def _line_degrees(box: _BlackBox, base: int, axis: int,
                  param: str) -> Tuple[int, int]:
    """The coefficient's degrees in one parameter, on the line through
    base parallel to its axis.

    The line is read mod the first prime that reads its first point that
    did not fail, and skips the points that prime cannot read.  base
    itself is left out: it can be the anchoring point, whose states at
    each prime come from its exact run rather than a residue run, so the
    primes that read it need not be those that read the line's points.
    """
    cf = None
    agreeing = 0
    for j in range(LINE_CAP):
        i = box.pool.line(base, axis, j)
        if not box.probe([i])[0]:
            continue
        if cf is None:
            p = next((q for q in PRIMES if box.residues([i], q)[0] is not None), None)
            if p is None:
                continue
            cf = _Thiele(p)
        [f], t = box.residues([i], cf.p), residue(box.pool[i][axis], cf.p)
        if f is None:
            continue
        if cf.agrees(t, f):
            agreeing += 1
            if agreeing == ZETA:
                return cf.degrees()
        else:
            agreeing = 0
            cf.add(t, f)
    raise InterpolationError(
        f"{box.label}: no rational function of {param} agreed at {ZETA} "
        f"further points within {LINE_CAP} points of a line")


class _Thiele:
    """Thiele's continued fraction c0 + (t - t0)/(c1 + (t - t1)/(c2 + ...))
    through points mod p, extended one point at a time in O(n).

    The convergent is kept as num/den, coefficient lists mod p with the
    constant term first, through the recurrence
    P_n = c_n P_{n-1} + (t - t_{n-1}) P_{n-2}, the same for the
    denominator.  prev holds (P_{n-1}, Q_{n-1}).
    """

    def __init__(self, p: int):
        self.p = p
        self.ts: List[int] = []
        self.cs: List[int] = []
        self.num: List[int] = []
        self.den: List[int] = []
        self.prev = ([1], [0])

    def agrees(self, t: int, f: int) -> bool:
        """Whether the convergent takes the value f at t."""
        if not self.ts:
            return False
        d = _horner(self.den, t, self.p)
        return d != 0 and _horner(self.num, t, self.p) == f * d % self.p

    def add(self, t: int, f: int) -> None:
        """Extend through (t, f); a point at which a reciprocal difference
        is undefined mod p is dropped."""
        p = self.p
        r = f
        for tj, cj in zip(self.ts, self.cs):
            if r == cj:
                return
            r = (t - tj) * pow(r - cj, -1, p) % p
        if not self.ts:
            num, den = [r], [1]
        else:
            num = _step(r, self.num, self.prev[0], self.ts[-1], p)
            den = _step(r, self.den, self.prev[1], self.ts[-1], p)
            self.prev = (self.num, self.den)
        self.num, self.den = num, den
        self.ts.append(t)
        self.cs.append(r)

    def degrees(self) -> Tuple[int, int]:
        """Degrees of the convergent's numerator and denominator, in lowest
        terms mod p."""
        num, den = _trim(self.num), _trim(self.den)
        if not num:
            return 0, 0
        g = _gcd_degree(num, den, self.p)
        return len(num) - 1 - g, len(den) - 1 - g


def _step(c: int, f: List[int], g: List[int], tj: int, p: int) -> List[int]:
    """c*f + (t - tj)*g mod p."""
    out = [c * x % p for x in f] + [0] * (len(g) + 1 - len(f))
    for k, x in enumerate(g):
        out[k] = (out[k] - tj * x) % p
        out[k + 1] = (out[k + 1] + x) % p
    return out


def _horner(f: List[int], t: int, p: int) -> int:
    v = 0
    for c in reversed(f):
        v = (v * t + c) % p
    return v


def _trim(f: List[int]) -> List[int]:
    n = len(f)
    while n and f[n - 1] == 0:
        n -= 1
    return f[:n]


def _gcd_degree(f: List[int], g: List[int], p: int) -> int:
    """Degree of gcd(f, g) mod p, for trimmed f and g, f nonzero."""
    while g:
        f, g = g, _remainder(f, g, p)
    return len(f) - 1


def _remainder(f: List[int], g: List[int], p: int) -> List[int]:
    f = list(f)
    inv = pow(g[-1], -1, p)
    while len(f) >= len(g):
        c = f[-1] * inv % p
        shift = len(f) - len(g)
        for k, x in enumerate(g):
            f[shift + k] = (f[shift + k] - c * x) % p
        f = _trim(f)
    return f


def _fit(box: _BlackBox, params, bounds) -> Optional[RationalFunction]:
    """The first basis vector of the fit over the box within bounds, a
    (numerator, denominator) pair of per-parameter bounds, that agrees
    at the fresh checks; None if none does."""
    num_monos = _box_monomials(bounds[0])
    den_monos = _box_monomials(bounds[1])
    monos = [a + (0,) for a in num_monos] + [b + (1,) for b in den_monos]
    fit = box.take(len(monos) + 2)

    def matrix(p):
        # num and den as a relation on the points (u, -c); see the module
        # docstring.  A prime that cannot read every point is skipped
        values = box.residues(fit, p)
        coords = None if None in values else residue_matrix([box.pool[i] for i in fit], p)
        if coords is None:
            return None
        points = np.column_stack([coords, (-np.array(values, dtype=np.int64)) % p])
        return eval_matrix(points, monos, p)

    basis = relations(matrix, len(monos))
    for vec in basis:
        den = _from_coeffs(params, den_monos, vec, len(num_monos))
        if den.is_zero():
            continue
        num = _from_coeffs(params, num_monos, vec)
        rf = RationalFunction(num, den)
        if _agrees(rf, box, len(fit)):
            return rf
    return None


def _agrees(rf, box: _BlackBox, fit_count) -> bool:
    # only the fresh tail: relations already checked the lift on every
    # solved point at a further prime.  rf's exact value at each point is
    # compared with the black box mod the first prime that reads both
    for i in box.take(fit_count + FRESH_CHECKS)[fit_count:]:
        try:
            value = rf.evaluate(box.pool[i])
        except ZeroDivisionError:       # the denominator vanishes there
            return False
        for p in PRIMES:
            val, [want] = residue(value, p), box.residues([i], p)
            if val is None or want is None:
                continue
            if val != want:
                return False
            break
        else:
            return False
    return True


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
    one = common = Polynomial.constant(params, rational(1))
    for d in distinct:
        common = common.mul(d)
    out = Polynomial.zero(joint)
    for mono_poly, rf in zip(template, coeffs):
        if rf.den == common:
            cofactor = one
        else:
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
