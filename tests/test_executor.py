import operator
from fractions import Fraction
from itertools import product
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopinv.executor import (
    AmbiguityError, ExecutionConfig, collect_samples, format_trace,
    residue_samples,
)
from loopinv.frontend import Transition, TransitionSystem, parse_program, to_transition_system
from loopinv.polyring import Polynomial, rational
from loopinv.vanishing import PRIMES, residue_matrix

P1_SRC = """\
vars x, y;
init x := 0, y := 0;
guard true;
loop
  (x, y) := (x + y^5, y + 1);
end
"""

P2_SRC = """\
vars x, r;
params a;
init x := a/2, r := 0;
guard x > r;
loop
  (x, r) := (x - r, r + 1);
end
"""

P3_SRC = """\
vars x, y, u, v;
params a, b;
init x := a, y := b, u := b, v := a;
guard x != y;
loop
  if x > y then
    (x, y, u, v) := (x - y, y, u, u + v);
  else
    (x, y, u, v) := (x, y - x, u + v, v);
  end
end
"""


def _system(src):
    return to_transition_system(parse_program(src))


def _instantiate(src, values):
    """The program's start state at the parameter values."""
    program = parse_program(src)
    vals = [rational(v) for v in values]
    return [program.init[v].evaluate(vals) for v in program.vars]


def test_accumulator_trajectory_exact():
    ts = _system(P1_SRC)
    pts = collect_samples(ts, _instantiate(P1_SRC, ()), ExecutionConfig(36, 500))
    assert len(pts.points) == 36
    assert not pts.shortfall
    # independent reference: plain iteration outside the polynomial layer
    x, y = 0, 0
    expected = []
    for _ in range(36):
        expected.append((x, y))
        x, y = x + y**5, y + 1
    assert [tuple(int(c) for c in pt) for pt in pts.points] == expected
    as_set = {tuple(int(c) for c in pt) for pt in pts.points}
    assert (33, 3) in as_set
    assert (235306401, 34) in as_set
    assert (280741825, 35) in as_set


def test_guard_exit_shortfall():
    ts = _system(P2_SRC)
    pts = collect_samples(ts, _instantiate(P2_SRC, (10,)), ExecutionConfig(6, 100))
    assert pts.shortfall
    states = [tuple(pt) for pt in pts.points]
    assert states == [(5, 0), (5, 1), (4, 2), (2, 3)]
    for x, r in states:
        assert 2 * x + r * r - r - 10 == 0


def test_ignore_guard_continues_past_exit():
    ts = _system(P2_SRC)
    cfg = ExecutionConfig(6, 100, ignore_guard=True)
    pts = collect_samples(ts, _instantiate(P2_SRC, (10,)), cfg)
    assert not pts.shortfall
    states = [tuple(pt) for pt in pts.points]
    assert states == [(5, 0), (5, 1), (4, 2), (2, 3), (-1, 4), (-5, 5)]
    for x, r in states:
        assert 2 * x + r * r - r - 10 == 0


def test_gcd_conservation():
    ts = _system(P3_SRC)
    a, b = 21, 9
    pts = collect_samples(ts, _instantiate(P3_SRC, (a, b)), ExecutionConfig(12, 100))
    assert pts.shortfall
    states = [tuple(pt) for pt in pts.points]
    assert states[0] == (21, 9, 9, 21)
    assert len(states) == 5
    for x, y, u, v in states:
        assert x * u + y * v == 2 * a * b
    # run ends where both operands agree
    assert states[-1][0] == states[-1][1] == 3


def test_branch_tests_survive_ignore_guard():
    # suspending the while-condition must not suspend branch selection:
    # at x == y neither branch fires, so the run still stops there
    ts = _system(P3_SRC)
    cfg = ExecutionConfig(12, 100, ignore_guard=True)
    pts = collect_samples(ts, _instantiate(P3_SRC, (21, 9)), cfg)
    base = collect_samples(ts, _instantiate(P3_SRC, (21, 9)), ExecutionConfig(12, 100))
    assert pts.points == base.points


def test_fixed_point_stops_collection():
    src = "vars x; init x := 0; loop x := x; end"
    ts = _system(src)
    pts = collect_samples(ts, _instantiate(src, ()), ExecutionConfig(5, 50))
    assert [tuple(pt) for pt in pts.points] == [(0,)]
    assert pts.shortfall


def test_cycle_hits_step_cap():
    src = "vars x; init x := 1; loop x := -x; end"
    ts = _system(src)
    pts = collect_samples(ts, _instantiate(src, ()), ExecutionConfig(5, 40))
    assert {tuple(pt) for pt in pts.points} == {(1,), (-1,)}
    assert pts.shortfall


def test_ambiguous_transitions_rejected():
    variables = ("x",)
    update = {"x": Polynomial.variable(variables, "x")}
    ts = TransitionSystem(variables,
                          [Transition(update, []), Transition(dict(update), [])])
    with pytest.raises(AmbiguityError):
        collect_samples(ts, [0], ExecutionConfig(3, 10))


def test_rational_states_and_trace_format():
    ts = _system(P2_SRC)
    pts = collect_samples(ts, _instantiate(P2_SRC, (7,)), ExecutionConfig(4, 100))
    lines = format_trace(pts).split("\n")
    assert lines[0] == "7/2\t0"
    assert lines[1] == "7/2\t1"
    assert lines[2] == "5/2\t2"


ROOT = Path(__file__).resolve().parent.parent
RELOP_TESTS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
               ">=": operator.ge, "==": operator.eq, "!=": operator.ne}


def _fraction_value(poly, point):
    """Term-by-term Fraction evaluation, independent of Polynomial.evaluate."""
    total = Fraction(0)
    for mono, coeff in poly.terms.items():
        term = Fraction(coeff)
        for x, e in zip(point, mono):
            term *= Fraction(x) ** e
        total += term
    return total


def _fraction_run(ts, init, cfg):
    """collect_samples' loop stepped on Fractions: (states, shortfall)."""
    state = tuple(Fraction(c) for c in init)
    collected, distinct, steps = [state], {state}, 0
    while len(distinct) < cfg.target_count and steps < cfg.max_steps:
        enabled = [tr for tr in ts.transitions if all(
            (cfg.ignore_guard and atom.loop_level)
            or RELOP_TESTS[atom.relop](_fraction_value(atom.poly, state), 0)
            for atom in tr.guard)]
        assert len(enabled) <= 1
        if not enabled:
            break
        new_state = tuple(_fraction_value(enabled[0].update[v], state) for v in ts.V)
        steps += 1
        if new_state == state:
            break
        if new_state not in distinct:
            distinct.add(new_state)
            collected.append(new_state)
        state = new_state
    return collected, len(distinct) < cfg.target_count


@pytest.mark.parametrize("path", ["programs/powersum.loop", "programs/countdown.loop",
                                  "programs/gcd_pair.loop",
                                  "loopbench/programs/family8.loop"])
def test_trajectory_matches_fraction_stepper(path):
    program = parse_program((ROOT / path).read_text())
    ts = to_transition_system(program)
    rng = Random(path)
    exits = 0
    for _ in range(5):
        # parameters, or the start itself where the program has none
        point = [Fraction(rng.randint(-60, 60), rng.randint(1, 12))
                 for _ in (program.params or ts.V)]
        init = ([_fraction_value(program.init[v], point) for v in ts.V] if program.params
                else point)
        for ignore_guard in (False, True):
            cfg = ExecutionConfig(15, 60, ignore_guard=ignore_guard)
            got = collect_samples(ts, init, cfg)
            states, shortfall = _fraction_run(ts, init, cfg)
            assert [tuple(pt) for pt in got.points] == states
            assert got.shortfall == shortfall
            exits += shortfall and not ignore_guard
    if path == "programs/countdown.loop":
        # a loop exit: some starts leave the guard before 15 states
        assert exits > 0


def test_determinism():
    ts = _system(P3_SRC)
    a = collect_samples(ts, _instantiate(P3_SRC, (21, 9)), ExecutionConfig(12, 100))
    b = collect_samples(ts, _instantiate(P3_SRC, (21, 9)), ExecutionConfig(12, 100))
    assert a.points == b.points
    assert format_trace(a) == format_trace(b)


def test_config_validation():
    with pytest.raises(ValueError):
        ExecutionConfig(0, 10)
    with pytest.raises(ValueError):
        ExecutionConfig(10, 5)
    ts = _system("vars x; init x := 0; loop x := x + 1; end")
    with pytest.raises(ValueError):
        collect_samples(ts, [0, 0], ExecutionConfig(3, 10))


# --- residue trajectories -----------------------------------------------

fractions = st.builds(rational, st.integers(-9, 9), st.integers(1, 9))


@st.composite
def one_transition_loops(draw):
    """A guard-free loop with one transition in 1-2 variables: each
    update is a polynomial of degree <= 2 with up to three small rational
    terms, started at a small rational state."""
    n = draw(st.integers(1, 2))
    variables = ("x", "y")[:n]
    monos = [m for m in product(range(3), repeat=n) if sum(m) <= 2]
    update = {v: Polynomial(variables, draw(st.dictionaries(
        st.sampled_from(monos), fractions, max_size=3))) for v in variables}
    init = draw(st.lists(fractions, min_size=n, max_size=n))
    return TransitionSystem(variables, [Transition(update, [])]), init


@given(one_transition_loops(), st.integers(2, 7))
@settings(max_examples=80, deadline=None)
def test_residue_trajectory_matches_exact_run(case, count):
    ts, init = case
    cfg = ExecutionConfig(count, 10 * count, ignore_guard=True)
    p = PRIMES[0]
    got = residue_samples(ts, init, cfg, p)
    exact = collect_samples(ts, init, cfg)
    coords = residue_matrix(exact.points, p)
    if got is None:
        # the exact run stops short, or its states coincide mod p
        assert exact.shortfall or len(np.unique(coords, axis=0)) < len(coords)
    else:
        assert not exact.shortfall
        assert np.array_equal(got, coords)


def test_residue_run_falls_back_where_states_coincide():
    # x and x + PRIMES[0] are distinct rationals but one residue mod PRIMES[0]
    src = f"vars x; init x := 1/3; loop x := x + {PRIMES[0]}; end"
    ts = _system(src)
    init = _instantiate(src, ())
    cfg = ExecutionConfig(4, 50, ignore_guard=True)
    assert residue_samples(ts, init, cfg, PRIMES[0]) is None
    exact = collect_samples(ts, init, cfg)
    assert not exact.shortfall
    assert np.array_equal(residue_samples(ts, init, cfg, PRIMES[1]),
                          residue_matrix(exact.points, PRIMES[1]))


def test_residue_run_skips_a_prime_dividing_an_update_coefficient():
    # 1/PRIMES[0] has no residue mod PRIMES[0]; the start has one
    src = (f"vars x, y; init x := 0, y := 1; "
           f"loop (x, y) := (x + y/{PRIMES[0]}, y + 1); end")
    ts = _system(src)
    init = _instantiate(src, ())
    cfg = ExecutionConfig(4, 50, ignore_guard=True)
    assert residue_samples(ts, init, cfg, PRIMES[0]) is None
    exact = collect_samples(ts, init, cfg)
    assert not exact.shortfall
    assert np.array_equal(residue_samples(ts, init, cfg, PRIMES[1]),
                          residue_matrix(exact.points, PRIMES[1]))


def test_residue_run_needs_a_guard_free_step():
    # a live loop guard or a branch needs the exact run
    cfg = ExecutionConfig(4, 50, ignore_guard=True)
    ts = _system(P3_SRC)
    assert residue_samples(ts, _instantiate(P3_SRC, (21, 9)), cfg, PRIMES[0]) is None
    ts = _system(P2_SRC)
    init = _instantiate(P2_SRC, (7,))
    assert residue_samples(ts, init, ExecutionConfig(4, 50), PRIMES[0]) is None
    assert np.array_equal(residue_samples(ts, init, cfg, PRIMES[0]),
                          residue_matrix(collect_samples(ts, init, cfg).points, PRIMES[0]))
