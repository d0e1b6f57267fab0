import operator
from fractions import Fraction
from itertools import product
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopinv import executor
from loopinv.executor import (
    AmbiguityError, collect_samples, format_trace, residue_samples,
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
    pts = collect_samples(ts, _instantiate(P1_SRC, ()), 36)
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
    pts = collect_samples(ts, _instantiate(P2_SRC, (10,)), 6)
    assert pts.shortfall
    assert pts.stop == "loop exit"
    states = [tuple(pt) for pt in pts.points]
    assert states == [(5, 0), (5, 1), (4, 2), (2, 3)]
    for x, r in states:
        assert 2 * x + r * r - r - 10 == 0


def test_ignore_guard_continues_past_exit():
    ts = _system(P2_SRC)
    pts = collect_samples(ts, _instantiate(P2_SRC, (10,)), 6, ignore_guard=True)
    assert not pts.shortfall
    states = [tuple(pt) for pt in pts.points]
    assert states == [(5, 0), (5, 1), (4, 2), (2, 3), (-1, 4), (-5, 5)]
    for x, r in states:
        assert 2 * x + r * r - r - 10 == 0


def test_gcd_conservation():
    ts = _system(P3_SRC)
    a, b = 21, 9
    pts = collect_samples(ts, _instantiate(P3_SRC, (a, b)), 12)
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
    pts = collect_samples(ts, _instantiate(P3_SRC, (21, 9)), 12, ignore_guard=True)
    base = collect_samples(ts, _instantiate(P3_SRC, (21, 9)), 12)
    assert pts.points == base.points


def test_fixed_point_stops_collection():
    src = "vars x; init x := 0; loop x := x; end"
    ts = _system(src)
    pts = collect_samples(ts, _instantiate(src, ()), 5)
    assert [tuple(pt) for pt in pts.points] == [(0,)]
    assert pts.shortfall
    assert pts.stop == "revisit"


def test_cycle_stops_at_first_revisit(monkeypatch):
    src = "vars x; init x := 1; loop x := -x; end"
    ts = _system(src)
    calls = []
    real = executor._enabled
    monkeypatch.setattr(executor, "_enabled",
                        lambda *args: calls.append(1) or real(*args))
    pts = collect_samples(ts, _instantiate(src, ()), 5)
    assert {tuple(pt) for pt in pts.points} == {(1,), (-1,)}
    assert pts.shortfall
    assert pts.stop == "revisit"
    # one step to -1 and one back to 1, none round the cycle again
    assert len(calls) == 2


def test_ambiguous_transitions_rejected():
    variables = ("x",)
    update = {"x": Polynomial.variable(variables, "x")}
    ts = TransitionSystem(variables,
                          [Transition(update, []), Transition(dict(update), [])])
    with pytest.raises(AmbiguityError):
        collect_samples(ts, [0], 3)


def test_rational_states_and_trace_format():
    ts = _system(P2_SRC)
    pts = collect_samples(ts, _instantiate(P2_SRC, (7,)), 4)
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


def _fraction_run(ts, init, target, ignore_guard, cap=60):
    """A reference run stepped on Fractions, with its own stop rule: at
    target states, at a loop exit, at a consecutive repeat, or after cap
    steps.  Returns (states, stop) in collect_samples' terms; a run the
    cap ends has cycled, since cap steps through new states would pass
    target."""
    state = tuple(Fraction(c) for c in init)
    collected, distinct, steps = [state], {state}, 0
    while len(distinct) < target and steps < cap:
        enabled = [tr for tr in ts.transitions if all(
            (ignore_guard and atom.loop_level)
            or RELOP_TESTS[atom.relop](_fraction_value(atom.poly, state), 0)
            for atom in tr.guard)]
        assert len(enabled) <= 1
        if not enabled:
            return collected, "loop exit"
        new_state = tuple(_fraction_value(enabled[0].update[v], state) for v in ts.V)
        steps += 1
        if new_state == state:
            break
        if new_state not in distinct:
            distinct.add(new_state)
            collected.append(new_state)
        state = new_state
    return collected, None if len(distinct) == target else "revisit"


# loops whose every run revisits a state: a 2-cycle and a swap
CYCLES = {"cycle": "vars x; init x := 1; loop x := -x; end",
          "swap": "vars x, y; init x := 1, y := 2; loop (x, y) := (y, x); end"}


@pytest.mark.parametrize("path", ["programs/powersum.loop", "programs/countdown.loop",
                                  "programs/gcd_pair.loop",
                                  "loopbench/programs/family8.loop", "cycle", "swap"])
def test_trajectory_matches_fraction_stepper(path):
    program = parse_program(CYCLES.get(path) or (ROOT / path).read_text())
    ts = to_transition_system(program)
    rng = Random(path)
    stops = []
    for _ in range(5):
        # parameters, or the start itself where the program has none
        point = [Fraction(rng.randint(-60, 60), rng.randint(1, 12))
                 for _ in (program.params or ts.V)]
        init = ([_fraction_value(program.init[v], point) for v in ts.V] if program.params
                else point)
        for ignore_guard in (False, True):
            got = collect_samples(ts, init, 15, ignore_guard)
            states, stop = _fraction_run(ts, init, 15, ignore_guard)
            assert [tuple(pt) for pt in got.points] == states
            assert got.stop == stop
            stops.append(stop)
    if path == "programs/countdown.loop":
        # a loop exit: some starts leave the guard before 15 states
        assert "loop exit" in stops
    if path in CYCLES:
        assert stops == ["revisit"] * 10


def test_determinism():
    ts = _system(P3_SRC)
    a = collect_samples(ts, _instantiate(P3_SRC, (21, 9)), 12)
    b = collect_samples(ts, _instantiate(P3_SRC, (21, 9)), 12)
    assert a.points == b.points
    assert format_trace(a) == format_trace(b)


def test_config_validation():
    ts = _system("vars x; init x := 0; loop x := x + 1; end")
    with pytest.raises(ValueError):
        collect_samples(ts, [0], 0)
    with pytest.raises(ValueError):
        collect_samples(ts, [0, 0], 3)


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
    p = PRIMES[0]
    got = residue_samples(ts, init, count, True, p)
    exact = collect_samples(ts, init, count, ignore_guard=True)
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
    assert residue_samples(ts, init, 4, True, PRIMES[0]) is None
    exact = collect_samples(ts, init, 4, ignore_guard=True)
    assert not exact.shortfall
    assert np.array_equal(residue_samples(ts, init, 4, True, PRIMES[1]),
                          residue_matrix(exact.points, PRIMES[1]))


def test_residue_run_skips_a_prime_dividing_an_update_coefficient():
    # 1/PRIMES[0] has no residue mod PRIMES[0]; the start has one
    src = (f"vars x, y; init x := 0, y := 1; "
           f"loop (x, y) := (x + y/{PRIMES[0]}, y + 1); end")
    ts = _system(src)
    init = _instantiate(src, ())
    assert residue_samples(ts, init, 4, True, PRIMES[0]) is None
    exact = collect_samples(ts, init, 4, ignore_guard=True)
    assert not exact.shortfall
    assert np.array_equal(residue_samples(ts, init, 4, True, PRIMES[1]),
                          residue_matrix(exact.points, PRIMES[1]))


def test_residue_run_needs_a_guard_free_step():
    # a live loop guard or a branch needs the exact run
    ts = _system(P3_SRC)
    assert residue_samples(ts, _instantiate(P3_SRC, (21, 9)), 4, True, PRIMES[0]) is None
    ts = _system(P2_SRC)
    init = _instantiate(P2_SRC, (7,))
    assert residue_samples(ts, init, 4, False, PRIMES[0]) is None
    assert np.array_equal(residue_samples(ts, init, 4, True, PRIMES[0]),
                          residue_matrix(collect_samples(ts, init, 4, True).points, PRIMES[0]))
