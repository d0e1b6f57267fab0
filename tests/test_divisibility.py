import random
from pathlib import Path

import pytest

from loopinv.divisibility import (
    SAMPLE_SPACE, LineTransform, UnivariatePolynomial, filter_and_verify,
    random_line, to_univariate, univariate_divides,
)
from loopinv.executor import ExecutionConfig, collect_samples
from loopinv.frontend import parse_program, to_transition_system
from loopinv.polyring import Polynomial, divide, rational
from loopinv.vanishing import buchberger_moeller

PROGRAMS = Path(__file__).resolve().parents[1] / "programs"

GOLDEN_POWERSUM = "-12*x + 2*y^6 - 6*y^5 + 5*y^4 - y^2"


def _system(name):
    return to_transition_system(parse_program((PROGRAMS / name).read_text()))


def _uni(*coeffs):
    return UnivariatePolynomial([rational(c) for c in coeffs])


def _random_poly(rng, variables, max_deg=3, max_terms=4):
    f = Polynomial.zero(variables)
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in variables)
        f = f.add(Polynomial.monomial(variables, mono, rational(rng.randint(-9, 9))))
    return f


def test_random_line_shapes():
    t = random_line(1, random.Random(0))
    assert t.B == () and t.p == ()
    t = random_line(3, random.Random(5))
    assert len(t.B) == 2 and len(t.p) == 2
    assert SAMPLE_SPACE == 1 << 20
    assert all(1 <= c <= SAMPLE_SPACE for c in t.B + t.p)


def test_random_line_determinism_and_spread():
    a = random_line(3, random.Random(11))
    b = random_line(3, random.Random(11))
    assert (a.B, a.p) == (b.B, b.p)
    seen = {random_line(3, random.Random(s)).B + random_line(3, random.Random(s)).p
            for s in range(100)}
    assert len(seen) == 100
    with pytest.raises(ValueError):
        random_line(0, random.Random(0))


def test_to_univariate_basic():
    x1 = Polynomial.variable(("x1", "x2"), "x1")
    x2 = Polynomial.variable(("x1", "x2"), "x2")
    t = LineTransform([rational(3)], [rational(1)])
    assert to_univariate(x1, t) == _uni(0, 1)
    assert to_univariate(x1.add(x2), t) == _uni(-1, 4)
    assert to_univariate(Polynomial.zero(("x1", "x2")), t).is_zero()
    with pytest.raises(ValueError):
        to_univariate(Polynomial.variable(("x",), "x"), t)


def test_to_univariate_is_multiplicative():
    rng = random.Random(7)
    variables = ("x", "y", "z")
    for _ in range(100):
        f = _random_poly(rng, variables)
        h = _random_poly(rng, variables)
        t = random_line(3, rng)
        left = to_univariate(f.mul(h), t)
        assert left == to_univariate(f, t).mul(to_univariate(h, t))


def test_univariate_division_cases():
    assert univariate_divides(_uni(-1, 1), _uni(-1, 0, 1))
    assert not univariate_divides(_uni(-1, 1), _uni(1, 0, 1))
    assert univariate_divides(_uni(-1, 1), _uni())
    assert univariate_divides(_uni(5), _uni(2, 3))
    assert not univariate_divides(_uni(0, 1), _uni(3))
    with pytest.raises(ZeroDivisionError):
        univariate_divides(_uni(), _uni(1))


def test_true_multiples_always_pass_stage1():
    rng = random.Random(13)
    variables = ("x", "y", "z")
    checked = 0
    for _ in range(60):
        f = _random_poly(rng, variables)
        h = _random_poly(rng, variables)
        if f.is_zero() or h.is_zero():
            continue
        t = random_line(3, rng)
        ft = to_univariate(f, t)
        if ft.is_zero():
            continue
        assert univariate_divides(ft, to_univariate(f.mul(h), t))
        checked += 1
    assert checked >= 50


def _powersum_basis():
    ts = _system("powersum.loop")
    pts = collect_samples(ts, [0, 0], ExecutionConfig(36, 500))
    return ts, buchberger_moeller(pts, variables=ts.V)


def test_powersum_filter_keeps_exactly_one():
    ts, vb = _powersum_basis()
    updates = [tr.update for tr in ts.transitions]
    verified, r1, r2 = filter_and_verify(vb.basis, updates, random.Random(99))
    assert len(verified) == 1
    assert len(r1) + len(r2) == 5
    eta, quotients = verified[0]
    golden = parse_program(
        f"vars x, y; init x := 0, y := 0; loop x := {GOLDEN_POWERSUM}; end"
    ).body[0].exprs[0]
    assert eta == golden.make_monic()
    assert len(quotients) == 1
    # identity recheck by independent expansion
    q = quotients[0]
    assert eta.substitute(updates[0]) == q.mul(eta)
    assert q.total_degree() >= 0


def test_stage1_rejections_agree_with_exact_division():
    ts, vb = _powersum_basis()
    updates = [tr.update for tr in ts.transitions]
    _, r1, _ = filter_and_verify(vb.basis, updates, random.Random(99))
    assert r1      # the non-invariant candidates fall at the cheap stage
    for eta in r1:
        remainders = [divide(eta.substitute(u), eta)[1] for u in updates]
        assert any(not r.is_zero() for r in remainders)


def test_conserved_bilinear_verifies_with_unit_quotient():
    ts = _system("gcd_pair.loop")
    variables = ts.V
    x, y, u, v = (Polynomial.variable(variables, n) for n in variables)
    eta = x.mul(u).add(y.mul(v)).sub(Polynomial.constant(variables, rational(378)))
    updates = [tr.update for tr in ts.transitions]
    verified, r1, r2 = filter_and_verify([eta], updates, random.Random(4))
    assert not r1 and not r2
    (_, quotients), = verified
    one = Polynomial.constant(variables, rational(1))
    assert quotients == [one, one]


def test_collapse_to_zero_gets_zero_quotient():
    variables = ("x",)
    eta = Polynomial.variable(variables, "x")
    update = {"x": Polynomial.zero(variables)}
    verified, r1, r2 = filter_and_verify([eta], [update], random.Random(0))
    (got, quotients), = verified
    assert got == eta
    assert quotients[0].is_zero()


def test_filter_determinism():
    ts, vb = _powersum_basis()
    updates = [tr.update for tr in ts.transitions]
    a = filter_and_verify(vb.basis, updates, random.Random(3))
    b = filter_and_verify(vb.basis, updates, random.Random(3))
    assert a == b


def test_filter_input_validation():
    variables = ("x",)
    x = Polynomial.variable(variables, "x")
    ident = {"x": x}
    with pytest.raises(ValueError):
        filter_and_verify([x], [], random.Random(0))
    with pytest.raises(ValueError):
        filter_and_verify([Polynomial.zero(variables)], [ident], random.Random(0))
    with pytest.raises(ValueError):
        filter_and_verify([Polynomial.constant(variables, rational(2))],
                          [ident], random.Random(0))
