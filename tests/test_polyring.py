from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from loopinv.polyring import (
    Polynomial, Rational, ZERO_DEGREE, clear_content, divide, grlex_key,
    monomial_div, monomial_divides, monomial_mul, rational, render,
    sign_normalize,
)

VARS2 = ("x", "y")
VARS3 = ("x", "y", "z")


def poly2(terms):
    return Polynomial(VARS2, {m: rational(c) for m, c in terms.items()})


# strategy: sparse polynomials in 2 vars, small support, small coefficients
coeffs = st.integers(min_value=-9, max_value=9)
monos2 = st.tuples(st.integers(0, 4), st.integers(0, 4))
polys2 = st.dictionaries(monos2, coeffs, max_size=5).map(poly2)
points2 = st.tuples(st.fractions(min_value=-5, max_value=5),
                    st.fractions(min_value=-5, max_value=5))


# --- ordering ---------------------------------------------------------

def test_grlex_degree_dominates():
    assert grlex_key((0, 3)) > grlex_key((2, 0))
    assert grlex_key((1, 0)) < grlex_key((0, 2))


def test_grlex_ties_first_variable_greatest():
    # same total degree: the earlier declared variable decides
    assert grlex_key((2, 1)) > grlex_key((1, 2))
    assert grlex_key((0, 3)) < grlex_key((1, 2))
    assert grlex_key((2, 2)) == grlex_key((2, 2))


@given(monos2, monos2, monos2)
def test_grlex_order_kept_under_translation(a, b, c):
    # multiplying both sides by a monomial preserves the comparison
    ka, kb = grlex_key(a), grlex_key(b)
    kac, kbc = grlex_key(monomial_mul(a, c)), grlex_key(monomial_mul(b, c))
    assert (ka < kb, ka == kb, ka > kb) == (kac < kbc, kac == kbc, kac > kbc)


@given(monos2, monos2)
def test_monomial_division_roundtrip(a, b):
    prod = monomial_mul(a, b)
    assert monomial_divides(a, prod)
    assert monomial_div(prod, a) == b


# --- ring axioms ------------------------------------------------------

@given(polys2, polys2)
def test_add_commutes(f, g):
    assert f.add(g) == g.add(f)


@given(polys2, polys2, polys2)
@settings(max_examples=50)
def test_mul_associates_and_distributes(f, g, h):
    assert f.mul(g.mul(h)) == f.mul(g).mul(h)
    assert f.mul(g.add(h)) == f.mul(g).add(f.mul(h))


@given(polys2)
def test_additive_inverse(f):
    assert f.add(f.negate()).is_zero()


@given(polys2)
def test_no_zero_coefficients_stored(f):
    assert all(c != 0 for c in f.terms.values())


@given(polys2, polys2)
@settings(max_examples=50)
def test_results_stay_reduced_positive_denominator(f, g):
    from math import gcd
    h = f.mul(g).add(f.scale(rational(3, 7)))
    for c in h.terms.values():
        assert c.denominator > 0
        assert gcd(int(c.numerator), int(c.denominator)) == 1


@given(polys2, polys2, points2)
@settings(max_examples=50)
def test_evaluate_is_ring_morphism(f, g, pt):
    assert f.add(g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)
    assert f.mul(g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)


def _fraction_value(f, point):
    """Term-by-term Fraction evaluation, the reference for evaluate."""
    point = [Fraction(c) for c in point]
    total = Fraction(0)
    for mono, coeff in f.terms.items():
        term = Fraction(coeff)
        for x, e in zip(point, mono):
            term *= x ** e
        total += term
    return total


fracs = st.fractions(min_value=-50, max_value=50, max_denominator=30)


@st.composite
def polys_and_points(draw):
    """A polynomial in 1-4 variables with rational coefficients (zero and
    constant ones included) and a point of ints, Fractions and "p/q"
    strings."""
    n = draw(st.integers(1, 4))
    variables = ("x", "y", "z", "w")[:n]
    monos = st.tuples(*[st.integers(0, 3)] * n)
    f = Polynomial(variables, draw(st.one_of(
        st.just({}),
        st.builds(lambda c: {(0,) * n: c}, fracs),
        st.dictionaries(monos, fracs, max_size=6))))
    coord = st.one_of(st.integers(-20, 20), fracs,
                      fracs.map(lambda q: f"{q.numerator}/{q.denominator}"))
    return f, draw(st.lists(coord, min_size=n, max_size=n))


@given(polys_and_points())
@settings(max_examples=200)
def test_evaluate_matches_fraction_reference(case):
    f, point = case
    twin = Polynomial(f.vars, f.terms)
    before = (f == twin, hash(f))
    value = f.evaluate(point)
    assert isinstance(value, Rational)
    assert value == _fraction_value(f, point)
    # the cached integer form is invisible to equality and hashing
    assert (f == twin, hash(f)) == before == (True, hash(twin))
    assert f.evaluate(point) == value
    # clear_content reads the same integer form
    g = clear_content(f)
    if not f.is_zero():
        ratio = {c / g.terms[m] for m, c in f.terms.items()}
        assert len(ratio) == 1 and ratio.pop() > 0
        assert all(c.denominator == 1 for c in g.terms.values())
        assert gcd(*(int(c) for c in g.terms.values())) == 1


def test_evaluate_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        poly2({(1, 0): 1}).evaluate((1,))


# --- degrees and leading data ----------------------------------------

def test_total_degree_and_zero_sentinel():
    f = poly2({(2, 3): 1, (4, 0): -2})
    assert f.total_degree() == 5
    assert Polynomial.zero(VARS2).total_degree() == ZERO_DEGREE


def test_leading_monomial_uses_grlex():
    f = poly2({(1, 0): -12, (0, 6): 2})
    assert f.leading_monomial() == (0, 6)
    assert f.leading_coefficient() == 2


def test_make_monic():
    # the monic form that golden comparisons build: scaled by 1 / lc
    f = poly2({(0, 2): 4, (1, 0): 2})
    m = f.scale(1 / f.leading_coefficient())
    assert m.leading_coefficient() == 1
    assert m.coefficient((1, 0)) == rational(1, 2)
    with pytest.raises(ValueError):
        Polynomial.zero(VARS2).leading_coefficient()


# --- division ---------------------------------------------------------

def test_divide_exact_case():
    x = Polynomial.variable(VARS2, "x")
    y = Polynomial.variable(VARS2, "y")
    g = x.add(y)
    f = g.mul(g).mul(x.sub(y))
    q, r = divide(f, g)
    assert r.is_zero()
    assert q == g.mul(x.sub(y))


def test_divide_recovers_constructed_quotient():
    # build g = f*(x^2 + 3y) + x by explicit expansion, then divide back;
    # the leftover x is itself divisible by lm(f) = x, so division absorbs
    # it too: q picks up the extra 1 and the remainder is -y - 1
    x = Polynomial.variable(VARS2, "x")
    y = Polynomial.variable(VARS2, "y")
    one = Polynomial.constant(VARS2, 1)
    f = x.add(y).add(one)
    g = f.mul(x.pow(2).add(y.scale(3))).add(x)
    q, r = divide(g, f)
    assert q == x.pow(2).add(y.scale(3)).add(one)
    assert r == y.negate().sub(one)
    assert q.mul(f).add(r) == g


def test_divide_self_is_unit():
    f = poly2({(2, 1): 3, (0, 0): -7})
    q, r = divide(f, f)
    assert q == Polynomial.constant(VARS2, 1)
    assert r.is_zero()


def test_divide_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divide(poly2({(1, 0): 1}), Polynomial.zero(VARS2))


@given(polys2, polys2)
@settings(max_examples=100)
def test_divide_identity_and_remainder_form(f, g):
    if g.is_zero():
        return
    q, r = divide(f, g)
    # oracle: recombine through independent ring ops
    assert q.mul(g).add(r) == f
    lm = g.leading_monomial()
    assert all(not monomial_divides(lm, m) for m in r.terms)


# --- substitution -----------------------------------------------------

def test_substitute_composes_transition():
    x = Polynomial.variable(VARS2, "x")
    y = Polynomial.variable(VARS2, "y")
    one = Polynomial.constant(VARS2, 1)
    f = poly2({(1, 0): 2, (0, 2): 1})          # 2x + y^2
    img = f.substitute({"x": x.add(y.pow(5)), "y": y.add(one)})
    expect = x.add(y.pow(5)).scale(2).add(y.add(one).pow(2))
    assert img == expect


@given(polys2, polys2, polys2, points2)
@settings(max_examples=50)
def test_substitute_commutes_with_evaluate(f, gx, gy, pt):
    composed = f.substitute({"x": gx, "y": gy})
    assert composed.evaluate(pt) == f.evaluate((gx.evaluate(pt), gy.evaluate(pt)))


def test_substitute_missing_image_raises():
    f = poly2({(1, 1): 1})
    with pytest.raises(ValueError):
        f.substitute({"x": Polynomial.variable(VARS2, "x")})


# --- rendering and normalization -------------------------------------

def test_render_golden_layout():
    f = poly2({(1, 0): -12, (0, 6): 2, (0, 5): -6, (0, 4): 5, (0, 2): -1})
    assert render(f) == "-12*x + 2*y^6 - 6*y^5 + 5*y^4 - y^2"


def test_render_unit_coefficients_and_constants():
    vars4 = ("x", "y", "u", "v")
    f = Polynomial(vars4, {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1})
    assert render(f) == "x*u + y*v"
    assert render(Polynomial.zero(VARS2)) == "0"
    assert render(Polynomial.constant(VARS2, rational(-3, 4))) == "-3/4"
    g = poly2({(0, 0): 5, (1, 0): 1})
    assert render(g) == "x + 5"


def test_render_orders_by_variable_precedence_not_degree():
    # x before any pure power of y, regardless of total degree
    f = poly2({(0, 6): 2, (1, 0): -12})
    assert render(f).startswith("-12*x")


def test_clear_content_and_sign():
    f = poly2({(1, 0): rational(-2, 3), (0, 2): rational(-1, 3), (0, 0): rational(1, 3)})
    g = sign_normalize(clear_content(f))
    # grlex leading term is the y^2 one; its coefficient ends positive
    assert g.terms == {(1, 0): 2, (0, 2): 1, (0, 0): -1}


@given(polys2)
def test_sign_normalize_idempotent(f):
    g = sign_normalize(f)
    assert sign_normalize(g) == g
    if not f.is_zero():
        assert g.leading_coefficient() > 0
