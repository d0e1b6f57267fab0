import pytest

from loopinv.executor import (
    AmbiguityError, ExecutionConfig, collect_samples, format_trace,
)
from loopinv.frontend import Transition, TransitionSystem, parse_program, to_transition_system
from loopinv.polyring import Polynomial, rational

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


def _instantiate(ts, values):
    vals = [rational(v) for v in values]
    return [ts.theta[v].evaluate(vals) for v in ts.V]


def test_accumulator_trajectory_exact():
    ts = _system(P1_SRC)
    pts = collect_samples(ts, _instantiate(ts, ()), ExecutionConfig(36, 500))
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
    pts = collect_samples(ts, _instantiate(ts, (10,)), ExecutionConfig(6, 100))
    assert pts.shortfall
    states = [tuple(pt) for pt in pts.points]
    assert states == [(5, 0), (5, 1), (4, 2), (2, 3)]
    for x, r in states:
        assert 2 * x + r * r - r - 10 == 0


def test_ignore_guard_continues_past_exit():
    ts = _system(P2_SRC)
    cfg = ExecutionConfig(6, 100, ignore_guard=True)
    pts = collect_samples(ts, _instantiate(ts, (10,)), cfg)
    assert not pts.shortfall
    states = [tuple(pt) for pt in pts.points]
    assert states == [(5, 0), (5, 1), (4, 2), (2, 3), (-1, 4), (-5, 5)]
    for x, r in states:
        assert 2 * x + r * r - r - 10 == 0


def test_gcd_conservation():
    ts = _system(P3_SRC)
    a, b = 21, 9
    pts = collect_samples(ts, _instantiate(ts, (a, b)), ExecutionConfig(12, 100))
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
    pts = collect_samples(ts, _instantiate(ts, (21, 9)), cfg)
    base = collect_samples(ts, _instantiate(ts, (21, 9)), ExecutionConfig(12, 100))
    assert pts.points == base.points


def test_fixed_point_stops_collection():
    ts = _system("vars x; init x := 0; loop x := x; end")
    pts = collect_samples(ts, _instantiate(ts, ()), ExecutionConfig(5, 50))
    assert [tuple(pt) for pt in pts.points] == [(0,)]
    assert pts.shortfall


def test_cycle_hits_step_cap():
    ts = _system("vars x; init x := 1; loop x := -x; end")
    pts = collect_samples(ts, _instantiate(ts, ()), ExecutionConfig(5, 40))
    assert {tuple(pt) for pt in pts.points} == {(1,), (-1,)}
    assert pts.shortfall


def test_ambiguous_transitions_rejected():
    variables = ("x",)
    update = {"x": Polynomial.variable(variables, "x")}
    ts = TransitionSystem(variables,
                          [Transition(update, []), Transition(dict(update), [])],
                          {"x": Polynomial.constant((), 0)})
    with pytest.raises(AmbiguityError):
        collect_samples(ts, [0], ExecutionConfig(3, 10))


def test_rational_states_and_trace_format():
    ts = _system(P2_SRC)
    pts = collect_samples(ts, _instantiate(ts, (7,)), ExecutionConfig(4, 100))
    lines = format_trace(pts).split("\n")
    assert lines[0] == "7/2\t0"
    assert lines[1] == "7/2\t1"
    assert lines[2] == "5/2\t2"


def test_determinism():
    ts = _system(P3_SRC)
    a = collect_samples(ts, _instantiate(ts, (21, 9)), ExecutionConfig(12, 100))
    b = collect_samples(ts, _instantiate(ts, (21, 9)), ExecutionConfig(12, 100))
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
