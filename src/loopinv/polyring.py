"""Sparse multivariate polynomial arithmetic over exact rationals.

Representation:

  * a monomial is a tuple of non-negative integer exponents, one slot per
    ring variable, e.g. (2, 1) for x^2*y in a ring declared as (x, y);
  * a polynomial is a Polynomial object holding the variable tuple and a
    dict mapping monomials to nonzero Rational coefficients (canonical
    sparse form: zero coefficients are never stored).

Evaluation runs on integers.  On first use a polynomial caches its
integer form: the lcm L of its coefficients' denominators, each
variable's top exponent t_i, and every term's coefficient times L.  At
x_i = n_i/d_i (d_i > 0) its value is N/D with D = L*prod d_i^t_i, and N
sums each integer coefficient times prod n_i^e_i * d_i^(t_i - e_i).  So
a value costs integer products and one Rational, and a guard reads the
sign of N alone.  The integer form is the one exact evaluator: sampling,
guards, content clearing and the vanishing walk's certificate all read
it.

Term order is graded lexicographic: total degree first, ties broken
lexicographically with the first declared variable greatest.  So in a ring
(x, y) we have y < x and x*y^2 < x^2*y.

Printed term order is different from the comparison order: the canonical
text rendering sorts terms descending by pure lexicographic precedence,
which reproduces the fixed golden layouts (degree-1 terms in the greatest
variable print before higher-degree terms in lesser variables).
"""

from __future__ import annotations

from fractions import Fraction as Rational
from math import gcd, lcm
from operator import add
from typing import Dict, Mapping, Sequence, Tuple

Exponents = Tuple[int, ...]

ZERO_DEGREE = float("-inf")   # sentinel; callers branch on is_zero first


def rational(num, den=1) -> Rational:
    """Build a reduced Rational from ints, strings, or Rationals."""
    if den == 1:
        return Rational(num)          # one-arg form also accepts "p/q" strings
    return Rational(num, den)


def split(point: Sequence) -> Tuple[list, list]:
    """Numerators and positive denominators of a point's coordinates."""
    point = [c if isinstance(c, Rational) else Rational(c) for c in point]
    return [c.numerator for c in point], [c.denominator for c in point]


def grlex_key(m: Exponents):
    """Sort key realizing graded lex with the first variable greatest."""
    return (sum(m), m)


def monomial_mul(m1: Exponents, m2: Exponents) -> Exponents:
    return tuple(map(add, m1, m2))


def monomial_divides(m1: Exponents, m2: Exponents) -> bool:
    """True iff m1 divides m2 componentwise."""
    return all(a <= b for a, b in zip(m1, m2))


def monomial_div(m1: Exponents, m2: Exponents) -> Exponents:
    """m1 / m2; caller guarantees divisibility."""
    return tuple(a - b for a, b in zip(m1, m2))


class Polynomial:
    """Immutable-by-convention sparse polynomial over a declared ring."""

    __slots__ = ("vars", "terms", "_form")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponents, Rational]):
        self.vars: Tuple[str, ...] = tuple(variables)
        n = len(self.vars)
        clean: Dict[Exponents, Rational] = {}
        for mono, coeff in terms.items():
            if len(mono) != n:
                raise ValueError("ring mismatch: monomial arity != variable count")
            # Rationals are immutable, so one already reduced is shared
            c = coeff if isinstance(coeff, Rational) else Rational(coeff)
            if c != 0:
                clean[tuple(mono)] = c
        self.terms = clean
        self._form = None     # integer form, built on first use by integer_form()

    # --- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], c) -> "Polynomial":
        return cls(variables, {(0,) * len(tuple(variables)): Rational(c)})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Polynomial":
        variables = tuple(variables)
        i = variables.index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {mono: Rational(1)})

    @classmethod
    def monomial(cls, variables: Sequence[str], mono: Exponents, coeff=1) -> "Polynomial":
        return cls(variables, {tuple(mono): Rational(coeff)})

    # --- predicates and views ----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial)
                and self.vars == other.vars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Polynomial({render(self)!r})"

    def coefficient(self, mono: Exponents) -> Rational:
        return self.terms.get(tuple(mono), Rational(0))

    # --- ring operations ---------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.vars != other.vars:
            raise ValueError("ring mismatch: %r vs %r" % (self.vars, other.vars))

    def add(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, 0) + c
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
        return Polynomial(self.vars, out)

    def negate(self) -> "Polynomial":
        return Polynomial(self.vars, {m: -c for m, c in self.terms.items()})

    def sub(self, other: "Polynomial") -> "Polynomial":
        return self.add(other.negate())

    def scale(self, c) -> "Polynomial":
        c = Rational(c)
        if c == 0:
            return Polynomial.zero(self.vars)
        return Polynomial(self.vars, {m: c * v for m, v in self.terms.items()})

    def mul(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial(self.vars, _mul_terms(self.terms, other.terms, {}))

    def pow(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result.mul(base)
            base = base.mul(base) if k > 1 else base
            k >>= 1
        return result

    __add__ = add
    __sub__ = sub
    __mul__ = mul
    __neg__ = negate

    # --- evaluation and composition ----------------------------------

    def integer_form(self):
        """The cached (L, tops, [(c*L, [(i, e_i, tops[i] - e_i), ...]), ...])
        of the module docstring, one factor per variable i that occurs."""
        if self._form is None:
            lcm_den = lcm(*(int(c.denominator) for c in self.terms.values()))
            tops = [max((m[i] for m in self.terms), default=0)
                    for i in range(len(self.vars))]
            self._form = (lcm_den, tops, [
                (int(c.numerator) * (lcm_den // int(c.denominator)),
                 [(i, e, t - e) for i, (e, t) in enumerate(zip(m, tops)) if t])
                for m, c in self.terms.items()])
        return self._form

    def evaluate(self, point: Sequence) -> Rational:
        """Exact value at ints, Rationals or "p/q" strings: one Rational(N, D)."""
        return Rational(*self.evaluate_split(*split(point)))

    def evaluate_split(self, nums: Sequence[int], dens: Sequence[int]) -> Tuple[int, int]:
        """(N, D) with value N/D at x_i = nums[i]/dens[i]; every dens[i] > 0
        gives D > 0, so N carries the sign.  N/D need not be reduced."""
        if len(nums) != len(self.vars):
            raise ValueError("dimension mismatch")
        den, tops, terms = self.integer_form()
        total = 0
        for v, factors in terms:
            for i, e, f in factors:
                v *= nums[i] ** e * dens[i] ** f
            total += v
        for d, t in zip(dens, tops):
            den *= d ** t
        return total, den

    def substitute(self, images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Exact composition; every variable of self needs an image.

        All images must live in one common target ring.  Each term's
        product of image powers is added into one accumulator dict, and
        each image's powers are built once, as term dicts, on first use.
        """
        target = None
        for name in self.vars:
            if name not in images:
                raise ValueError(f"no image for variable {name}")
            img = images[name]
            if target is None:
                target = img.vars
            elif img.vars != target:
                raise ValueError("images live in different rings")
        assert target is not None
        unit = (0,) * len(target)
        one = {unit: Rational(1)}
        # powers[name][e] holds the terms of images[name]**e
        powers = {name: [one] for name in self.vars}
        out: Dict[Exponents, Rational] = {}
        for mono, coeff in self.terms.items():
            factors = []
            for name, e in zip(self.vars, mono):
                if e:
                    table = powers[name]
                    while len(table) <= e:
                        table.append(_mul_terms(table[-1], images[name].terms, {}))
                    factors.append(table[e])
            term = {unit: coeff}
            for factor in factors[:-1]:
                term = _mul_terms(term, factor, {})
            _mul_terms(term, factors[-1] if factors else one, out)
        return Polynomial(target, out)

    # --- degrees, leading data, division -----------------------------

    def total_degree(self):
        if not self.terms:
            return ZERO_DEGREE
        return max(sum(m) for m in self.terms)

    def leading_monomial(self) -> Exponents:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def leading_coefficient(self) -> Rational:
        return self.terms[self.leading_monomial()]


def _mul_terms(a: Mapping[Exponents, Rational], b: Mapping[Exponents, Rational],
               out: Dict[Exponents, Rational]) -> Dict[Exponents, Rational]:
    """Add the product of term dicts a and b into out and return it; zero
    sums stay in out until Polynomial() drops them."""
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = monomial_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return out


def divide(f: Polynomial, g: Polynomial) -> Tuple[Polynomial, Polynomial]:
    """Single-divisor division: f = q*g + r, no term of r divisible by lm(g).

    Divisibility test for the callers is r.is_zero().
    """
    f._check(g)
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    lm_g = g.leading_monomial()
    lc_g = g.terms[lm_g]
    q: Dict[Exponents, Rational] = {}
    r: Dict[Exponents, Rational] = {}
    work = dict(f.terms)
    # strip the grlex-largest remaining term each round; termination is the
    # usual well-ordering argument on the leading monomial
    while work:
        mono = max(work, key=grlex_key)
        coeff = work.pop(mono)
        if monomial_divides(lm_g, mono):
            qm = monomial_div(mono, lm_g)
            qc = coeff / lc_g
            q[qm] = q.get(qm, Rational(0)) + qc
            for m2, c2 in g.terms.items():
                if m2 == lm_g:
                    continue
                mm = monomial_mul(qm, m2)
                s = work.get(mm, Rational(0)) - qc * c2
                if s == 0:
                    work.pop(mm, None)
                else:
                    work[mm] = s
        else:
            r[mono] = coeff
    return Polynomial(f.vars, q), Polynomial(f.vars, r)


# --- canonical text rendering ----------------------------------------
#
# Terms print descending by pure lexicographic precedence (first declared
# variable greatest), which is what the golden layouts fix; the sign
# convention for normalized output elsewhere is grlex-leading-coefficient
# positive.  The two orders genuinely differ: grlex ranks 2*y^6 above x,
# the printed layout puts -12*x first.

def _coeff_str(c: Rational) -> str:
    return str(c)


def _mono_str(variables: Tuple[str, ...], mono: Exponents) -> str:
    parts = []
    for name, e in zip(variables, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def render(f: Polynomial) -> str:
    """Canonical text: "-12*x + 2*y^6 - 6*y^5 + 5*y^4 - y^2" layout."""
    if f.is_zero():
        return "0"
    out = []
    for mono in sorted(f.terms, key=lambda m: m, reverse=True):
        c = f.terms[mono]
        ms = _mono_str(f.vars, mono)
        neg = c < 0
        mag = -c if neg else c
        if not ms:
            body = _coeff_str(mag)
        elif mag == 1:
            body = ms
        else:
            body = f"{_coeff_str(mag)}*{ms}"
        if not out:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(out)


def clear_content(f: Polynomial) -> Polynomial:
    """Scale by the positive rational that makes coefficients coprime integers.

    The grlex-leading coefficient keeps its sign.
    """
    if f.is_zero():
        return f
    lcm_den, _, terms = f.integer_form()
    return f.scale(Rational(lcm_den, gcd(*(v for v, _ in terms))))


def sign_normalize(f: Polynomial) -> Polynomial:
    """Flip sign if needed so the grlex-leading coefficient is positive."""
    if f.is_zero():
        return f
    return f.negate() if f.leading_coefficient() < 0 else f
