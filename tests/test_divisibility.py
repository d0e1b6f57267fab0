import random
from pathlib import Path

import pytest

from loopinv import cli, divisibility
from loopinv.divisibility import (
    LINE, SAMPLE_SPACE, LineTransform, consecution, filter_and_verify,
    random_line, to_univariate, univariate_divides,
)
from loopinv.executor import collect_samples
from loopinv.frontend import parse_program, to_transition_system
from loopinv.polyring import Polynomial, divide, rational
from loopinv.vanishing import VanishingWalk, buchberger_moeller

ROOT = Path(__file__).resolve().parents[1]
PROGRAMS = ROOT / "programs"

GOLDEN_POWERSUM = "-12*x + 2*y^6 - 6*y^5 + 5*y^4 - y^2"


def _system(name):
    return to_transition_system(parse_program((PROGRAMS / name).read_text()))


def _uni(*coeffs):
    return Polynomial(LINE, {(k,): rational(c) for k, c in enumerate(coeffs)})


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


def _convolve(a, b):
    out = [rational(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _dense_restriction(f, t):
    """Reference restriction to t's line, on dense coefficient lists
    indexed by the power of Z, without trailing zeros."""
    images = [[rational(0), rational(1)]] + [[-p, b] for b, p in zip(t.B, t.p)]
    powers = [[[rational(1)]] for _ in images]      # powers[i][a] = images[i]^a
    acc = []
    for mono, coeff in f.terms.items():
        term = [coeff]
        for i, a in enumerate(mono):
            while len(powers[i]) <= a:
                powers[i].append(_convolve(powers[i][-1], images[i]))
            term = _convolve(term, powers[i][a])
        acc += [rational(0)] * (len(term) - len(acc))
        for k, c in enumerate(term):
            acc[k] += c
    while acc and acc[-1] == 0:
        acc.pop()
    return acc


def _dense_divides(ft, gt):
    """Reference long division of dense lists; ft has no trailing zero."""
    rem = list(gt)
    while len(rem) >= len(ft):
        factor = rem[-1] / ft[-1]
        shift = len(rem) - len(ft)
        for k, c in enumerate(ft):
            rem[shift + k] -= factor * c
        while rem and rem[-1] == 0:
            rem.pop()
    return not rem


def test_restriction_and_division_match_the_dense_reference():
    rng = random.Random(21)
    verdicts = {True: 0, False: 0}
    for _ in range(200):
        n = rng.randint(1, 4)
        names = tuple(f"x{i+1}" for i in range(n))
        f, h = _random_poly(rng, names), _random_poly(rng, names)
        t = random_line(n, rng)
        pairs = [(to_univariate(g, t), _dense_restriction(g, t)) for g in (f, h, f.mul(h))]
        for got, dense in pairs:
            assert got.vars == LINE
            assert got.terms == {(k,): c for k, c in enumerate(dense) if c}
        (ft, dense_f), (ht, dense_h), (fht, dense_fh) = pairs
        if ft.is_zero():
            continue
        assert univariate_divides(ft, fht) and _dense_divides(dense_f, dense_fh)
        verdict = univariate_divides(ft, ht)
        assert verdict == _dense_divides(dense_f, dense_h)
        verdicts[verdict] += 1
    assert min(verdicts.values()) >= 10


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
    pts = collect_samples(ts, [0, 0], 36)
    return ts, buchberger_moeller(VanishingWalk(pts, ts.V), len(pts))


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
    assert eta == golden.scale(1 / golden.leading_coefficient())
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


def test_consecution_returns_exact_quotients_or_none():
    ts = _system("gcd_pair.loop")
    x, y, u, v = (Polynomial.variable(ts.V, n) for n in ts.V)
    updates = [tr.update for tr in ts.transitions]
    one = Polynomial.constant(ts.V, rational(1))
    conserved = x.mul(u).add(y.mul(v))
    assert consecution(conserved, updates) == [one, one]
    assert consecution(x.mul(u), updates) is None


def _stage1_first(candidates, transitions, rng):
    """The filter as it ran when the line test came first: each candidate
    meets a fresh line per transition until one refutes it, and only the
    survivors are divided."""
    verified, rejected_univariate, rejected_multivariate = [], [], []
    for eta in candidates:
        images = [eta.substitute(update) for update in transitions]
        survived = True
        for image in images:
            t = random_line(len(eta.vars), rng)
            ft = to_univariate(eta, t)
            if ft.is_zero():
                continue
            if not univariate_divides(ft, to_univariate(image, t)):
                survived = False
                break
        if not survived:
            rejected_univariate.append(eta)
            continue
        quotients = []
        for image in images:
            q, r = divide(image, eta)
            if not r.is_zero():
                rejected_multivariate.append(eta)
                break
            quotients.append(q)
        else:
            verified.append((eta, quotients))
    return verified, rejected_univariate, rejected_multivariate


def _gcd_pair_candidates():
    # the degree-2 basis at (a, b) = (213/7, 95/3), guard suspended as in
    # the probes, with the conserved x*u + y*v - 2ab placed among the rejections
    program = parse_program((PROGRAMS / "gcd_pair.loop").read_text())
    ts = to_transition_system(program)
    point = (rational(213, 7), rational(95, 3))
    init = [program.init[v].evaluate(point) for v in ts.V]
    pts = collect_samples(ts, init, 15, ignore_guard=True)
    basis = buchberger_moeller(VanishingWalk(pts, ts.V), 2).basis
    x, y, u, v = (Polynomial.variable(ts.V, n) for n in ts.V)
    conserved = x.mul(u).add(y.mul(v)).sub(
        Polynomial.constant(ts.V, 2 * point[0] * point[1]))
    return basis[:2] + [conserved] + basis[2:], [tr.update for tr in ts.transitions]


def _powersum_candidates():
    ts, vb = _powersum_basis()
    return list(vb.basis), [tr.update for tr in ts.transitions]


@pytest.mark.parametrize("shuffled", [False, True])
@pytest.mark.parametrize("inputs", [_gcd_pair_candidates, _powersum_candidates],
                         ids=["gcd_pair", "powersum"])
def test_division_first_keeps_the_stage1_first_stream(inputs, shuffled):
    candidates, updates = inputs()
    if shuffled:
        random.Random(5).shuffle(candidates)
    for seed in range(4):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = filter_and_verify(candidates, updates, rng)
        assert got == _stage1_first(candidates, updates, ref_rng)
        assert got[0] and got[1]
        assert rng.random() == ref_rng.random()


class _UnitLines(random.Random):
    """Draws every line coefficient as 1, so every line is x2 -> Z - 1."""

    draws = 0

    def randint(self, a, b):
        self.draws += 1
        return 1


def test_rejection_no_line_refutes_is_multivariate():
    variables = ("x", "y")
    x, y = (Polynomial.variable(variables, n) for n in variables)
    one = Polynomial.constant(variables, rational(1))
    eta = x.sub(y).sub(one)         # vanishes on the line x -> Z, y -> Z - 1
    steps = [{"x": x.add(one), "y": y.mul(y)}, {"x": x, "y": y}]
    rng, ref_rng = _UnitLines(), _UnitLines()
    got = filter_and_verify([eta], steps, rng)
    assert got == ([], [], [eta]) == _stage1_first([eta], steps, ref_rng)
    assert rng.draws == ref_rng.draws == 2 * len(steps)


@pytest.mark.parametrize("argv", [
    ["--program", "programs/powersum.loop", "--degree", "7"],
    ["--program", "loopbench/programs/family2.loop", "--degree", "3"],
    ["--program", "programs/countdown.loop", "--degree", "2"],
], ids=["powersum_d7", "table1_k2_d3", "countdown_d2"])
def test_verified_candidates_are_never_restricted_to_a_line(argv, monkeypatch, capsys):
    # every candidate of these runs verifies, numeric and symbolic alike
    monkeypatch.chdir(ROOT)
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out

    def refuse(f, t):
        raise AssertionError("a verified candidate was restricted to a line")

    monkeypatch.setattr(divisibility, "to_univariate", refuse)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == plain


def test_line_test_never_calls_the_stage2_name(monkeypatch):
    # the benchmark times divisibility.divide as consecution's own divisions
    candidates, updates = _gcd_pair_candidates()
    _, r1, _ = filter_and_verify(candidates, updates, random.Random(0))
    eta = r1[0]
    images = [eta.substitute(update) for update in updates]

    def refuse(f, g):
        raise AssertionError("the line test called divisibility.divide")

    monkeypatch.setattr(divisibility, "divide", refuse)
    assert univariate_divides(_uni(-1, 1), _uni(-1, 0, 1))
    assert not univariate_divides(_uni(-1, 1), _uni(1, 0, 1))
    assert divisibility._line_refutes(eta, images, random.Random(0))
