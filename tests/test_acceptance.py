"""End-to-end acceptance checks, one test (and one pytest line) per
criterion.  Pipelines run once in module-scoped fixtures and later
criteria reuse those results, so the file is meant to run whole.

Runtime budgets are asserted inside each criterion from single-run wall
time.  All value comparisons are exact; nothing is approximate.
"""

import contextlib
import io
import json
import random
import time
from math import comb
from pathlib import Path

import pytest

from loopinv.cli import CliConfig, run
from loopinv.divisibility import (
    SAMPLE_SPACE, random_line, to_univariate, univariate_divides,
)
from loopinv.executor import collect_samples
from loopinv.frontend import parse_program, to_transition_system
from loopinv.invgen import invgen_numeric
from loopinv.polyring import (
    Polynomial, clear_content, divide, grlex_key, rational, render,
    sign_normalize,
)
from loopinv.vanishing import PointSet, VanishingWalk, buchberger_moeller

PKG = Path(__file__).resolve().parent.parent
POWERSUM = PKG / "programs" / "powersum.loop"
COUNTDOWN = PKG / "programs" / "countdown.loop"
GCD_PAIR = PKG / "programs" / "gcd_pair.loop"

GOLDEN_EX1 = "-12*x + 2*y^6 - 6*y^5 + 5*y^4 - y^2"
GOLDEN_EX2 = "2*x + r^2 - r - a"
GOLDEN_EX3 = "x*u + y*v - 2*a*b"

# Expected sweep rows: the conserved quantity for each power-sum family
# member, independently checkable against Faulhaber's formula and
# against initiation (every row vanishes at x = a, y = b).
TABLE_ROWS = {
    1: "y^2 - y - 2*x + b - b^2 + 2*a",
    2: "-6*x + y - 3*y^2 + 2*y^3 - b + 3*b^2 - 2*b^3 + 6*a",
    3: "-4*x + y^2 - 2*y^3 + y^4 - b^2 + 2*b^3 - b^4 + 4*a",
    4: "6*y^5 - 30*x - y + 10*y^3 - 15*y^4 + b - 10*b^3 + 15*b^4 - 6*b^5"
       " + 30*a",
    5: "-12*x - y^2 + 5*y^4 - 6*y^5 + 2*y^6 + b^2 - 5*b^4 + 6*b^5 - 2*b^6"
       " + 12*a",
    6: "21*y^5 - 42*x + y + 6*y^7 - 7*y^3 - 21*y^6 - b + 7*b^3 - 21*b^5"
       " + 21*b^6 - 6*b^7 + 42*a",
    7: "-24*x + 2*y^2 - 7*y^4 + 14*y^6 - 12*y^7 + 3*y^8 - 2*b^2 + 7*b^4"
       " - 14*b^6 + 12*b^7 - 3*b^8 + 24*a",
    8: "-90*x - 3*y + 20*y^3 - 42*y^5 + 10*y^9 + 60*y^7 - 45*y^8 + 3*b"
       " - 20*b^3 + 42*b^5 - 60*b^7 + 45*b^8 - 10*b^9 + 90*a",
    9: "-20*x - 3*y^2 + 10*y^4 - 14*y^6 - 10*y^9 + 2*y^10 + 15*y^8 + 3*b^2"
       " - 10*b^4 + 14*b^6 - 15*b^8 + 10*b^9 - 2*b^10 + 20*a",
    10: "-66*x + 5*y - 33*y^3 + 66*y^5 + 55*y^9 - 33*y^10 - 66*y^7 + 6*y^11"
        " - 5*b + 33*b^3 - 66*b^5 + 66*b^7 - 55*b^9 + 33*b^10 - 6*b^11"
        " + 66*a",
    11: "-24*x + 10*y^2 - 33*y^4 + 44*y^6 + 22*y^10 - 33*y^8 - 12*y^11"
        " + 2*y^12 - 10*b^2 + 33*b^4 - 44*b^6 + 33*b^8 - 22*b^10 + 12*b^11"
        " - 2*b^12 + 24*a",
    12: "-2730*x - 691*y + 210*y^13 + 4550*y^3 - 9009*y^5 - 5005*y^9"
        " + 8580*y^7 + 2730*y^11 - 1365*y^12 + 691*b - 4550*b^3 + 9009*b^5"
        " - 8580*b^7 + 5005*b^9 - 2730*b^11 + 1365*b^12 - 210*b^13 + 2730*a",
    13: "-420*x - 210*y^13 - 691*y^2 + 2275*y^4 + 30*y^14 - 3003*y^6"
        " - 1001*y^10 + 2145*y^8 + 455*y^12 + 691*b^2 - 2275*b^4 + 3003*b^6"
        " - 2145*b^8 + 1001*b^10 - 455*b^12 + 210*b^13 - 30*b^14 + 420*a",
    14: "-90*x + 105*y + 105*y^13 - 691*y^3 + 6*y^15 + 1365*y^5 + 715*y^9"
        " - 45*y^14 - 1287*y^7 - 273*y^11 - 105*b + 691*b^3 - 1365*b^5"
        " + 1287*b^7 - 715*b^9 + 273*b^11 - 105*b^13 + 45*b^14 - 6*b^15"
        " + 90*a",
    15: "-48*x + 420*y^2 - 24*y^15 - 1382*y^4 + 60*y^14 + 1820*y^6"
        " + 572*y^10 - 1287*y^8 + 3*y^16 - 182*y^12 - 420*b^2 + 1382*b^4"
        " - 1820*b^6 + 1287*b^8 - 572*b^10 + 182*b^12 - 60*b^14 + 24*b^15"
        " - 3*b^16 + 48*a",
}

# canonical renderings pinned literally for the spot rows
SPOT_ROWS = {
    1: "-2*x + y^2 - y + 2*a - b^2 + b",
    4: "-30*x + 6*y^5 - 15*y^4 + 10*y^3 - y + 30*a - 6*b^5 + 15*b^4"
       " - 10*b^3 + b",
    12: "-2730*x + 210*y^13 - 1365*y^12 + 2730*y^11 - 5005*y^9 + 8580*y^7"
        " - 9009*y^5 + 4550*y^3 - 691*y + 2730*a - 210*b^13 + 1365*b^12"
        " - 2730*b^11 + 5005*b^9 - 8580*b^7 + 9009*b^5 - 4550*b^3 + 691*b",
    15: "-48*x + 3*y^16 - 24*y^15 + 60*y^14 - 182*y^12 + 572*y^10"
        " - 1287*y^8 + 1820*y^6 - 1382*y^4 + 420*y^2 + 48*a - 3*b^16"
        " + 24*b^15 - 60*b^14 + 182*b^12 - 572*b^10 + 1287*b^8 - 1820*b^6"
        " + 1382*b^4 - 420*b^2",
}


# --- plumbing ---------------------------------------------------------

def _cli(**kwargs):
    buf = io.StringIO()
    cfg = CliConfig(output_format="json", **kwargs)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = run(cfg)
    elapsed = time.perf_counter() - t0
    raw = buf.getvalue()
    return {"code": code, "raw": raw, "doc": json.loads(raw),
            "elapsed": elapsed, "kwargs": kwargs}


def _parse_expr(expr, names):
    decl = ", ".join(names)
    inits = ", ".join(f"{n} := 0" for n in names)
    rest = ", ".join(names[1:])
    src = (f"vars {decl};\n"
           f"init {inits};\n"
           f"loop\n  ({decl}) := ({expr}, {rest});\nend\n")
    p = parse_program(src)
    return to_transition_system(p).transitions[0].update[names[0]]


def _norm(f):
    return sign_normalize(clear_content(f))


def _poly_from_json(entry, names):
    total = Polynomial.zero(tuple(names))
    for term in entry["terms"]:
        num, den = term["coefficient"].split("/")
        total = total.add(Polynomial.monomial(
            tuple(names), tuple(term["exponents"]),
            rational(int(num), int(den))))
    assert render(total) == entry["text"]
    return total


def _lift(f, joint):
    slots = [joint.index(v) for v in f.vars]
    out = Polynomial.zero(joint)
    for mono, c in f.terms.items():
        big = [0] * len(joint)
        for s, e in zip(slots, mono):
            big[s] = e
        out = out.add(Polynomial.monomial(joint, tuple(big), c))
    return out


def _family_source(k):
    return ("vars x, y;\n"
            "params a, b;\n"
            "init x := a, y := b;\n"
            "loop\n"
            f"  (x, y) := (x + y^{k}, y + 1);\n"
            "end\n")


def _random_poly(rng, names, max_deg, terms):
    out = Polynomial.zero(names)
    n = len(names)
    for _ in range(terms):
        budget = rng.randint(0, max_deg)
        mono = [0] * n
        for _ in range(budget):
            mono[rng.randrange(n)] += 1
        coeff = rational(rng.randint(-9, 9))
        if coeff != 0:
            out = out.add(Polynomial.monomial(names, tuple(mono), coeff))
    return out


def _reduce(f, basis):
    changed = True
    while changed:
        changed = False
        for g in basis:
            q, r = divide(f, g)
            if not q.is_zero():
                f = r
                changed = True
    return f


# --- pipeline fixtures (each runs once for the whole file) ------------

@pytest.fixture(scope="module")
def ex1():
    res = _cli(program_path=str(POWERSUM), degree_bound=7)
    res["program"] = parse_program(POWERSUM.read_text())
    res["names"] = ("x", "y")
    return res


@pytest.fixture(scope="module")
def ex2():
    res = _cli(program_path=str(COUNTDOWN), degree_bound=2)
    res["program"] = parse_program(COUNTDOWN.read_text())
    res["names"] = ("x", "r", "a")
    return res


@pytest.fixture(scope="module")
def ex3():
    res = _cli(program_path=str(GCD_PAIR), degree_bound=2)
    res["program"] = parse_program(GCD_PAIR.read_text())
    res["names"] = ("x", "y", "u", "v", "a", "b")
    return res


def _table1(root, pinned):
    # rows k = 1..15, with the answer's shape as --interp-* bounds or
    # without, so that ratinterp detects each coefficient's degrees
    rows = []
    for k in range(1, 16):
        path = root / f"family_{k}.loop"
        path.write_text(_family_source(k))
        bounds = {"interp_bounds": ((0, 0), (1, k + 1))} if pinned else {}
        res = _cli(program_path=str(path), degree_bound=k + 1, **bounds)
        res["k"] = k
        res["program"] = parse_program(path.read_text())
        res["names"] = ("x", "y", "a", "b")
        rows.append(res)
    return rows


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    return _table1(tmp_path_factory.mktemp("family"), pinned=True)


@pytest.fixture(scope="module")
def sweep_unpinned(tmp_path_factory):
    return _table1(tmp_path_factory.mktemp("family_unpinned"), pinned=False)


# --- criteria ---------------------------------------------------------

def test_criterion_1_example1_end_to_end(ex1):
    assert ex1["elapsed"] < 5.0
    doc = ex1["doc"]
    assert ex1["code"] == 0
    [inv] = doc["invariants"]
    assert inv["poly"]["text"] == GOLDEN_EX1
    assert doc["candidates"] == 6
    assert doc["min_degree"] == 6
    assert doc["samples"] == 36
    pts = invgen_numeric(ex1["program"], 7).samples
    assert (33, 3) in pts.points
    assert (280741825, 35) in pts.points


def test_criterion_2_example2_symbolic(ex2):
    assert ex2["elapsed"] < 10.0
    assert ex2["code"] == 0
    [inv] = ex2["doc"]["invariants"]
    assert inv["poly"]["text"] == GOLDEN_EX2


def test_criterion_3_example3_symbolic(ex3):
    assert ex3["elapsed"] < 60.0
    assert ex3["code"] == 0
    [inv] = ex3["doc"]["invariants"]
    assert inv["poly"]["text"] == GOLDEN_EX3
    # the instantiated, minimal-monomial-normalized coefficient of x*u
    eta = _poly_from_json(inv["poly"], ex3["names"])
    values = (rational(93, 122), rational(301, 992))
    collapsed = {}
    for mono, c in eta.terms.items():
        head, tail = mono[:4], mono[4:]
        scale = rational(1)
        for v, e in zip(values, tail):
            scale *= v ** e
        collapsed[head] = collapsed.get(head, rational(0)) + c * scale
    collapsed = {m: c for m, c in collapsed.items() if c != 0}
    t1 = min(collapsed, key=grlex_key)
    assert collapsed[(1, 0, 1, 0)] / collapsed[t1] == rational(-1952, 903)


def test_criterion_4_table1_sweep(sweep):
    for res in sweep:
        k = res["k"]
        assert res["code"] == 0, f"k={k} found no invariant"
        [inv] = res["doc"]["invariants"]
        expected = render(_norm(_parse_expr(TABLE_ROWS[k], res["names"])))
        assert inv["poly"]["text"] == expected, f"k={k} row mismatch"
    for k, pinned in SPOT_ROWS.items():
        [inv] = sweep[k - 1]["doc"]["invariants"]
        assert inv["poly"]["text"] == pinned
    small = sum(res["elapsed"] for res in sweep if res["k"] <= 6)
    total = sum(res["elapsed"] for res in sweep)
    assert small < 60.0
    assert total < 1800.0


def test_criterion_4_table1_sweep_unpinned(sweep, sweep_unpinned):
    for res, pinned in zip(sweep_unpinned, sweep):
        k = res["k"]
        assert res["code"] == 0, f"k={k} found no invariant"
        [inv] = res["doc"]["invariants"]
        expected = render(_norm(_parse_expr(TABLE_ROWS[k], res["names"])))
        assert inv["poly"]["text"] == expected, f"k={k} row mismatch"
        # the detected degrees are the pinned bounds, so the fit reads the
        # same points and the report is the pinned run's, byte for byte
        assert res["raw"] == pinned["raw"], f"k={k} differs from the pinned run"
        assert res["elapsed"] < 10.0, f"k={k} took {res['elapsed']:.1f} s"


def test_criterion_5_bm_property_suite():
    rng = random.Random(2024)
    t0 = time.perf_counter()
    for _ in range(200):
        n = rng.randint(1, 4)
        size = rng.randint(1, 25)
        names = tuple("wxyz"[:n])
        pts = [tuple(rational(rng.randint(-8, 8), rng.randint(1, 3))
                     for _ in range(n)) for _ in range(size)]
        S = PointSet(pts)
        b = buchberger_moeller(VanishingWalk(S, names), len(S))
        assert len(b.normal_set) == len(S)
        for f in b.basis:
            assert f.leading_coefficient() == 1
            for p in S.points:
                assert f.evaluate(p) == 0
        lms = [f.leading_monomial() for f in b.basis]
        for i, f in enumerate(b.basis):
            for j, lm in enumerate(lms):
                if i != j:
                    for mono in f.terms:
                        assert not all(x >= y for x, y in zip(mono, lm))
        # membership oracle agreement, both directions
        combo = Polynomial.zero(names)
        for g in b.basis[:4]:
            combo = combo.add(g.mul(_random_poly(rng, names, 1, 2)))
        assert _reduce(combo, b.basis).is_zero()
        probe = _random_poly(rng, names, 2, 3)
        if any(probe.evaluate(p) != 0 for p in S.points):
            assert not _reduce(probe, b.basis).is_zero()
    assert time.perf_counter() - t0 < 120.0


def test_criterion_6_filter_never_rejects_true_divisors():
    rng = random.Random(77)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(500):
        n = rng.randint(1, 4)
        names = tuple(f"x{i+1}" for i in range(n))
        f = Polynomial.zero(names)
        while f.is_zero():
            f = _random_poly(rng, names, 3, rng.randint(1, 4))
        h = Polynomial.zero(names)
        while h.is_zero():
            h = _random_poly(rng, names, 3, rng.randint(1, 4))
        g = f.mul(h)
        t = random_line(n, rng)
        ft = to_univariate(f, t)
        if ft.is_zero():
            continue      # no verdict from this line; not a rejection
        assert univariate_divides(ft, to_univariate(g, t))
        checked += 1
    assert checked >= 450
    assert time.perf_counter() - t0 < 60.0


def _false_pass_bound(e1, e2, W):
    return 1 - (1 - rational(2 * e1 * e2, W)) \
        * (1 - rational(e1, W)) * (1 - rational(e2, W))


def test_criterion_7_filter_false_pass_rate_bounded():
    rng = random.Random(0)
    t0 = time.perf_counter()
    W = SAMPLE_SPACE
    groups = {}
    false_passes = 0
    trials = 0
    while trials < 1000:
        n = rng.randint(2, 4)
        names = tuple(f"x{i+1}" for i in range(n))
        f = _random_poly(rng, names, rng.randint(1, 5), rng.randint(2, 4))
        g = _random_poly(rng, names, rng.randint(2, 6), rng.randint(2, 5))
        if f.is_zero() or g.is_zero() or f.total_degree() == 0:
            continue
        if g.total_degree() < f.total_degree():
            f, g = g, f
        if f.total_degree() == 0:
            continue
        _, rem = divide(g, f)
        if rem.is_zero():
            continue      # accidentally divisible; not a valid trial
        t = random_line(n, rng)
        ft, gt = to_univariate(f, t), to_univariate(g, t)
        key = (f.total_degree(), g.total_degree())
        hit = (not ft.is_zero()) and univariate_divides(ft, gt)
        total, hits = groups.get(key, (0, 0))
        groups[key] = (total + 1, hits + (1 if hit else 0))
        false_passes += 1 if hit else 0
        trials += 1
    assert rational(false_passes, trials) < rational(1, 100)
    for (e1, e2), (total, hits) in groups.items():
        assert rational(hits, total) <= _false_pass_bound(e1, e2, W), \
            f"group ({e1},{e2}): {hits}/{total}"
    assert time.perf_counter() - t0 < 120.0


def _check_consecution_and_trajectories(res, parametric):
    program = res["program"]
    names = res["names"]
    ts = to_transition_system(program)
    nvars = len(ts.V)
    e = res["kwargs"]["degree_bound"]
    target = 2 * comb(nvars + e, nvars)
    rng = random.Random(31)
    for inv in res["doc"]["invariants"]:
        eta = _poly_from_json(inv["poly"], names)
        quotients = [_parse_expr(q, names) for q in inv["quotients"]]
        assert len(quotients) == len(ts.transitions)
        for tr, q in zip(ts.transitions, quotients):
            update = {v: _lift(tr.update[v], names) for v in ts.V}
            for u in program.params:
                update[u] = Polynomial.variable(names, u)
            # eta(V') - q(V) * eta(V) must cancel identically
            assert eta.substitute(update).sub(q.mul(eta)).is_zero()
        for _ in range(2):
            point = tuple(rational(rng.randint(1, 60), rng.randint(1, 9))
                          for _ in program.params)
            init = [program.init[v].evaluate(point) for v in ts.V]
            pts = collect_samples(ts, init, target, ignore_guard=parametric)
            if pts.shortfall:
                # short only where the orbit is exhausted: no transition is
                # enabled at the last state, or its successor was collected
                last = pts.points[-1]
                enabled = [tr for tr in ts.transitions if all(
                    (parametric and atom.loop_level) or atom.holds(last)
                    for atom in tr.guard)]
                if pts.stop == "loop exit":
                    assert enabled == []
                else:
                    assert pts.stop == "revisit"
                    [tr] = enabled
                    assert tuple(tr.update[v].evaluate(last) for v in ts.V) in pts.points
            for state in pts.points:
                assert eta.evaluate(tuple(state) + point) == 0


def test_criterion_8_consecution_identity(ex1, ex2, ex3, sweep):
    _check_consecution_and_trajectories(ex1, parametric=False)
    _check_consecution_and_trajectories(ex2, parametric=True)
    _check_consecution_and_trajectories(ex3, parametric=True)
    for res in sweep:
        _check_consecution_and_trajectories(res, parametric=True)


def test_criterion_9_determinism(ex1, ex2, ex3, sweep):
    for res in (ex1, ex2, ex3, *sweep):
        again = _cli(**res["kwargs"])
        assert again["raw"] == res["raw"]
        assert again["code"] == res["code"]
