import contextlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from loopinv import ratinterp
from loopinv.polyring import Polynomial, rational, render
from loopinv.ratinterp import (
    LINE_CAP, InterpolationError, PointPool, RationalFunction,
    clear_denominators, interpolate_rational,
)
from loopinv.vanishing import residue


def _black_box(fn, pool):
    """The black box that reads the exact values of fn mod each prime at
    the pool's points; a point fails where fn is None."""
    def probe(ids):
        return [fn(pool[i]) is not None for i in ids]

    def residues(ids, p):
        return [residue(fn(pool[i]), p) for i in ids]
    return probe, residues


def _interpolate(fn, pool, **kwargs):
    return interpolate_rational(*_black_box(fn, pool), pool, **kwargs)


@contextlib.contextmanager
def _fits():
    """The (numerator, denominator) bounds of every fit that
    interpolate_rational runs, in order."""
    seen = []
    real = ratinterp._fit

    def recording(box, params, bounds):
        seen.append(bounds)
        return real(box, params, bounds)

    with mock.patch.object(ratinterp, "_fit", recording):
        yield seen


def _degrees(f):
    return tuple(max((mono[i] for mono in f.terms), default=0)
                 for i in range(len(f.vars)))


def _poly(variables, text_terms):
    f = Polynomial.zero(variables)
    for mono, c in text_terms.items():
        f = f.add(Polynomial.monomial(variables, mono, rational(c)))
    return f


def test_constant_black_box():
    rf = _interpolate(lambda pt: rational(-2), PointPool(2, 1))
    params = rf.num.vars
    assert rf.num == Polynomial.constant(params, rational(-2))
    assert rf.den == Polynomial.constant(params, rational(1))
    assert rf.den.total_degree() == 0


def test_ratio_of_parameters():
    rf = _interpolate(lambda pt: pt[0] / pt[1], PointPool(2, 2),
                      degree_bounds=((1, 1), (1, 1)))
    params = rf.num.vars
    assert rf.num == _poly(params, {(1, 0): 1})
    assert rf.den == _poly(params, {(0, 1): 1})


def test_polynomial_over_linear():
    target = lambda u: (3 * u * u + 1) / (u + 2)
    rf = _interpolate(lambda pt: target(pt[0]), PointPool(1, 3),
                      degree_bounds=((2,), (1,)))
    params = rf.num.vars
    assert rf.num == _poly(params, {(2,): 3, (0,): 1})
    assert rf.den == _poly(params, {(1,): 1, (0,): 2})
    for k in (5, 17, 123):
        u = rational(k)
        assert rf.evaluate((u,)) == target(u)


def test_too_small_hint_falls_back_to_detection():
    target = lambda u: (3 * u * u + 1) / (u + 2)
    with _fits() as fits:
        rf = _interpolate(lambda pt: target(pt[0]), PointPool(1, 4),
                          degree_bounds=((1,), (1,)))
    params = rf.num.vars
    assert rf.num == _poly(params, {(2,): 3, (0,): 1})
    assert rf.den == _poly(params, {(1,): 1, (0,): 2})
    # the hint's fit fails; the next fit runs at the detected degrees
    assert fits == [((1,), (1,)), ((2,), (1,))]


def test_cap_exceeded_reports_label():
    # u^LINE_CAP needs LINE_CAP + 1 points on its line before any agree
    with pytest.raises(InterpolationError) as e:
        _interpolate(lambda pt: pt[0] ** LINE_CAP, PointPool(1, 5),
                     label="stubborn")
    assert "stubborn" in str(e.value)
    assert f"within {LINE_CAP} points of a line" in str(e.value)


def _value(terms, pt):
    total = rational(0)
    for mono, c in terms.items():
        v = rational(c)
        for x, e in zip(pt, mono):
            v *= x ** e
        total += v
    return total


@st.composite
def rational_functions(draw):
    # num/den over m = 1 or 2 parameters, each degree in each parameter <= 4
    m = draw(st.integers(1, 2))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 4)] * m),
                            st.integers(-5, 5).filter(bool), max_size=4)
    return m, draw(terms), draw(terms.filter(bool))


@given(rational_functions())
@settings(max_examples=100, deadline=None)
def test_detected_degrees_are_the_functions(case):
    m, num, den = case

    def fn(pt):
        d = _value(den, pt)
        return None if d == 0 else _value(num, pt) / d

    with _fits() as fits:
        rf = _interpolate(fn, PointPool(m, 13))
    params = rf.num.vars
    assert rf.num.mul(_poly(params, den)) == _poly(params, num).mul(rf.den)
    # one fit, at the per-parameter degrees of the function in lowest terms
    assert fits == [(_degrees(rf.num), _degrees(rf.den))]


def test_unlucky_base_point_retries_from_a_fresh_one():
    # the denominator's leading coefficient in u2 vanishes at the first
    # base point, so the u2 line reads the denominator as constant there
    pool = PointPool(2, 14)
    b1 = pool[pool.random(0)][0]
    fn = lambda pt: 1 / ((pt[0] - b1) * pt[1] + 1)
    with _fits() as fits:
        rf = _interpolate(fn, pool)
    assert fits == [((0, 0), (1, 0)), ((0, 0), (1, 1))]
    params = rf.num.vars
    assert rf.num == Polynomial.constant(params, rational(1))
    assert rf.den == _poly(params, {(1, 1): 1, (0, 1): -b1, (0, 0): 1})


def test_failure_budget():
    with pytest.raises(InterpolationError) as e:
        _interpolate(lambda pt: None, PointPool(1, 6),
                     failure_budget=5, label="dead")
    assert "dead" in str(e.value)
    assert "budget" in str(e.value)


def _one_at_a_time(pool, fails, budget, counts):
    """What reading one point at a time draws and keeps: (drawn numbers,
    samples after each count, and the count at which the budget broke)."""
    drawn, kept, out, failures = [], [], [], 0
    for count in counts:
        while len(kept) < count:
            i = pool.random(len(drawn))
            drawn.append(i)
            if i in fails:
                failures += 1
                if failures > budget:
                    return drawn, out, count
            else:
                kept.append(i)
        out.append(kept[:count])
    return drawn, out, None


@pytest.mark.parametrize("fail_at, budget", [
    ((), 0), ((1, 2, 5), 3), ((0, 3, 4, 6, 7), 4), ((2, 3, 4, 5), 3), ((0, 1, 2), 2),
])
def test_take_draws_what_one_at_a_time_draws(fail_at, budget):
    pool = PointPool(1, 5)
    fails = {pool.random(k) for k in fail_at}
    counts = [2, 2, 5, 6, 9]
    drawn, kept, broke = _one_at_a_time(PointPool(1, 5), fails, budget, counts)
    batches = []

    def probe(ids):
        batches.append(ids)
        return [i not in fails for i in ids]

    box = ratinterp._BlackBox(probe, None, pool, "c", budget)
    got = []
    with contextlib.ExitStack() as stack:
        if broke is not None:
            error = stack.enter_context(pytest.raises(InterpolationError))
        for count in counts:
            got.append(box.take(count))
            assert not fails & set(box.samples)
    assert got == kept
    assert [i for batch in batches for i in batch] == drawn
    assert box.failures == len(fails & set(drawn))
    if broke is not None:
        assert f"budget of {budget}" in str(error.value)
        assert len(got) == counts.index(broke)


def test_determinism():
    make = lambda: _interpolate(
        lambda pt: (pt[0] + pt[1]) / pt[1], PointPool(2, 9),
        degree_bounds=((1, 1), (1, 1)))
    assert make() == make()


def test_agreement_beyond_interpolation_points():
    fn = lambda pt: (pt[0] ** 2 - pt[1]) / (pt[0] + pt[1])
    rf = _interpolate(fn, PointPool(2, 10),
                      degree_bounds=((2, 2), (1, 1)))
    probe = random.Random(77)
    for _ in range(5):
        pt = (rational(probe.randint(1, 500), probe.randint(1, 500)),
              rational(probe.randint(1, 500), probe.randint(1, 500)))
        assert rf.evaluate(pt) == fn(pt)


def test_gcd_style_coefficient_instantiation():
    # the conserved-bilinear coefficient -1/(2ab), read at one probe
    rf = _interpolate(
        lambda pt: rational(-1) / (2 * pt[0] * pt[1]), PointPool(2, 11),
        degree_bounds=((0, 0), (1, 1)))
    assert rf.evaluate((rational(93, 122), rational(301, 992))) == rational(-1952, 903)
    params = rf.num.vars
    assert rf.den == _poly(params, {(1, 1): 1})
    assert rf.num == Polynomial.constant(params, rational(-1, 2))


@pytest.mark.parametrize("case, accepted", [
    ("zero_denominator", False), ("differs_at_one_point", False),
    ("true_function", True),
])
def test_fresh_point_checks(case, accepted):
    params = ("u",)
    u = Polynomial.variable(params, "u")
    num, den = u + Polynomial.constant(params, 1), u * u + Polynomial.constant(params, 3)
    pool = PointPool(1, 21)
    box = ratinterp._BlackBox(*_black_box(lambda pt: (pt[0] + 1) / (pt[0] ** 2 + 3), pool),
                              pool, "c", 0)
    t = [pool[i][0] for i in box.take(ratinterp.FRESH_CHECKS)]
    at = [u - Polynomial.constant(params, ti) for ti in t]
    if case == "zero_denominator":
        # the same function away from the last point, where den is 0
        num, den = num * at[-1], den * at[-1]
    elif case == "differs_at_one_point":
        # num/den + (u - t0)(u - t1): off by a nonzero value at t2 only
        num = num + at[0] * at[1] * den
    assert ratinterp._agrees(RationalFunction(num, den), box, 0) is accepted


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
