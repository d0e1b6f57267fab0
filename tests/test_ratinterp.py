import random

import pytest

from loopinv.polyring import Polynomial, rational, render
from loopinv.ratinterp import (
    InterpolationError, RationalFunction, clear_denominators,
    interpolate_rational,
)
from loopinv.vanishing import residue


def _residues(fn):
    """The black box that reads the exact values of fn mod each prime."""
    def evaluator(pt):
        value = fn(pt)
        return None if value is None else (lambda p: residue(value, p))
    return evaluator


def _poly(variables, text_terms):
    f = Polynomial.zero(variables)
    for mono, c in text_terms.items():
        f = f.add(Polynomial.monomial(variables, mono, rational(c)))
    return f


def test_constant_black_box():
    rf = interpolate_rational(_residues(lambda pt: rational(-2)), 2,
                              rng=random.Random(1))
    params = rf.num.vars
    assert rf.num == Polynomial.constant(params, rational(-2))
    assert rf.den == Polynomial.constant(params, rational(1))
    assert rf.is_polynomial()


def test_ratio_of_parameters():
    rf = interpolate_rational(_residues(lambda pt: pt[0] / pt[1]), 2,
                              degree_bounds=((1, 1), (1, 1)),
                              rng=random.Random(2))
    params = rf.num.vars
    assert rf.num == _poly(params, {(1, 0): 1})
    assert rf.den == _poly(params, {(0, 1): 1})


def test_polynomial_over_linear():
    target = lambda u: (3 * u * u + 1) / (u + 2)
    rf = interpolate_rational(_residues(lambda pt: target(pt[0])), 1,
                              degree_bounds=((2,), (1,)),
                              rng=random.Random(3))
    params = rf.num.vars
    assert rf.num == _poly(params, {(2,): 3, (0,): 1})
    assert rf.den == _poly(params, {(1,): 1, (0,): 2})
    for k in (5, 17, 123):
        u = rational(k)
        assert rf.evaluate((u,)) == target(u)


def test_escalation_finds_higher_degree():
    target = lambda u: (3 * u * u + 1) / (u + 2)
    rf = interpolate_rational(_residues(lambda pt: target(pt[0])), 1,
                              degree_bounds=((1,), (1,)),
                              rng=random.Random(4))
    params = rf.num.vars
    assert rf.num == _poly(params, {(2,): 3, (0,): 1})
    assert rf.den == _poly(params, {(1,): 1, (0,): 2})


def test_cap_exceeded_reports_label():
    with pytest.raises(InterpolationError) as e:
        interpolate_rational(_residues(lambda pt: pt[0] ** 33), 1,
                             degree_bounds=((32,), (0,)),
                             rng=random.Random(5), label="stubborn")
    assert "stubborn" in str(e.value)


def test_failure_budget():
    with pytest.raises(InterpolationError) as e:
        interpolate_rational(_residues(lambda pt: None), 1,
                             rng=random.Random(6), failure_budget=5, label="dead")
    assert "dead" in str(e.value)
    assert "budget" in str(e.value)


def test_determinism():
    make = lambda: interpolate_rational(
        _residues(lambda pt: (pt[0] + pt[1]) / pt[1]), 2,
        degree_bounds=((1, 1), (1, 1)), rng=random.Random(9))
    assert make() == make()


def test_agreement_beyond_interpolation_points():
    fn = lambda pt: (pt[0] ** 2 - pt[1]) / (pt[0] + pt[1])
    rf = interpolate_rational(_residues(fn), 2, degree_bounds=((2, 2), (1, 1)),
                              rng=random.Random(10))
    probe = random.Random(77)
    for _ in range(5):
        pt = (rational(probe.randint(1, 500), probe.randint(1, 500)),
              rational(probe.randint(1, 500), probe.randint(1, 500)))
        assert rf.evaluate(pt) == fn(pt)


def test_gcd_style_coefficient_instantiation():
    # the conserved-bilinear coefficient -1/(2ab), read at one probe
    rf = interpolate_rational(
        _residues(lambda pt: rational(-1) / (2 * pt[0] * pt[1])), 2,
        degree_bounds=((0, 0), (1, 1)), rng=random.Random(11))
    assert rf.evaluate((rational(93, 122), rational(301, 992))) == rational(-1952, 903)
    params = rf.num.vars
    assert rf.den == _poly(params, {(1, 1): 1})
    assert rf.num == Polynomial.constant(params, rational(-1, 2))


def _rf_const(params, c):
    return RationalFunction(Polynomial.constant(params, rational(c)),
                            Polynomial.constant(params, rational(1)))


def test_clear_denominators_bilinear():
    variables = ("x", "y", "u", "v")
    params = ("a", "b")
    one = Polynomial.constant(variables, rational(1))
    xu = _poly(variables, {(1, 0, 1, 0): 1})
    yv = _poly(variables, {(0, 1, 0, 1): 1})
    minus_half_ab = RationalFunction(
        Polynomial.constant(params, rational(-1, 2)),
        _poly(params, {(1, 1): 1}))
    out = clear_denominators([one, xu, yv],
                             [_rf_const(params, 1), minus_half_ab, minus_half_ab])
    assert render(out) == "x*u + y*v - 2*a*b"


def test_clear_denominators_polynomial_coeffs():
    variables = ("x",)
    params = ("a",)
    one = Polynomial.constant(variables, rational(1))
    x = Polynomial.variable(variables, "x")
    four_a = RationalFunction(_poly(params, {(1,): 4}),
                              Polynomial.constant(params, rational(1)))
    out = clear_denominators([one, x], [four_a, _rf_const(params, 6)])
    assert render(out) == "3*x + 2*a"


def test_clear_denominators_scaling_invariance():
    variables = ("x", "y", "u", "v")
    params = ("a", "b")
    one = Polynomial.constant(variables, rational(1))
    xu = _poly(variables, {(1, 0, 1, 0): 1})
    yv = _poly(variables, {(0, 1, 0, 1): 1})
    base = [_rf_const(params, 1),
            RationalFunction(Polynomial.constant(params, rational(-1, 2)),
                             _poly(params, {(1, 1): 1})),
            RationalFunction(Polynomial.constant(params, rational(-1, 2)),
                             _poly(params, {(1, 1): 1}))]
    s = rational(7, 3)
    scaled = [RationalFunction(rf.num.scale(s), rf.den) for rf in base]
    assert clear_denominators([one, xu, yv], base) == \
        clear_denominators([one, xu, yv], scaled)


def test_zero_denominator_rejected():
    params = ("a",)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(Polynomial.constant(params, rational(1)),
                         Polynomial.zero(params))
