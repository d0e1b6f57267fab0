import random
from typing import List

import pytest

from loopinv.frontend import (
    Assign, Atom, If, ParseError, parse_program, to_transition_system,
)
from loopinv.polyring import Polynomial, rational, render

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


def test_parse_first_program():
    p = parse_program(P1_SRC)
    assert p.vars == ("x", "y")
    assert p.params == ()
    assert p.guard == []
    assert len(p.body) == 1
    stmt = p.body[0]
    assert isinstance(stmt, Assign)
    assert stmt.targets == ("x", "y")
    assert render(stmt.exprs[0]) == "x + y^5"
    assert render(stmt.exprs[1]) == "y + 1"
    zero = Polynomial.constant((), 0)
    assert p.init == {"x": zero, "y": zero}


def test_parse_params_and_rational_init():
    p = parse_program(P2_SRC)
    assert p.params == ("a",)
    assert render(p.init["x"]) == "1/2*a"
    assert len(p.guard) == 1
    assert p.guard[0].relop == ">"
    assert render(p.guard[0].poly) == "x - r"
    assert p.guard[0].loop_level


def test_parse_branching_program():
    p = parse_program(P3_SRC)
    assert len(p.body) == 1
    stmt = p.body[0]
    assert isinstance(stmt, If)
    assert len(stmt.cond) == 1
    assert stmt.cond[0].relop == ">"
    assert not stmt.cond[0].loop_level
    assert stmt.else_body is not None


def test_single_transition_for_straight_line():
    ts = to_transition_system(parse_program(P1_SRC))
    assert ts.V == ("x", "y")
    assert len(ts.transitions) == 1
    tr = ts.transitions[0]
    assert tr.guard == []
    assert render(tr.update["x"]) == "x + y^5"
    assert render(tr.update["y"]) == "y + 1"


def test_branch_flattening_with_strict_complement():
    ts = to_transition_system(parse_program(P3_SRC))
    assert len(ts.transitions) == 2
    t_then, t_else = ts.transitions
    assert [a.relop for a in t_then.guard] == ["!=", ">"]
    assert [a.relop for a in t_else.guard] == ["!=", "<"]
    # both branch atoms sit on the same polynomial as the guard
    assert render(t_then.guard[1].poly) == "x - y"
    assert render(t_else.guard[1].poly) == "x - y"
    assert t_then.guard[0].loop_level and not t_then.guard[1].loop_level
    assert render(t_then.update["x"]) == "x - y"
    assert render(t_then.update["v"]) == "u + v"
    assert render(t_else.update["y"]) == "-x + y"
    assert render(t_else.update["u"]) == "u + v"


def test_sequential_assignments_compose():
    src = """\
vars x, y;
init x := 1, y := 2;
loop
  x := x + y;
  y := x;
end
"""
    ts = to_transition_system(parse_program(src))
    tr = ts.transitions[0]
    # y reads the already-updated x
    assert render(tr.update["x"]) == "x + y"
    assert render(tr.update["y"]) == "x + y"


def test_nonpolynomial_division_rejected():
    with pytest.raises(ParseError) as e:
        parse_program("vars x, y; init x := 0, y := 0; loop x := y/x; end")
    assert "non-polynomial" in str(e.value)


def test_error_positions_and_cases():
    with pytest.raises(ParseError) as e:
        parse_program("vars x;\ninit x := 0;\nloop\n  z := 1;\nend")
    assert "undeclared" in str(e.value)
    assert e.value.line == 4
    with pytest.raises(ParseError):
        parse_program("vars x; init x := 0; loop (x) := (1, 2); end")
    with pytest.raises(ParseError):
        parse_program("vars x; init x := 0, x := 1; loop x := x; end")
    with pytest.raises(ParseError):
        parse_program("vars x, y; init x := 0; loop x := x; end")
    with pytest.raises(ParseError):
        parse_program("vars x; init x := y; loop x := x; end")
    with pytest.raises(ParseError):
        parse_program("vars x; init x := 0; loop x := x; end extra")
    with pytest.raises(ParseError):
        parse_program("vars x; init x := 1/0; loop x := x; end")


def test_guard_defaults_to_true():
    p = parse_program("vars x; init x := 0; loop x := x + 1; end")
    assert p.guard == []


# --- canonical rendering, for the round trip -----------------------------

def _atom_str(a: Atom) -> str:
    return f"{render(a.poly)} {a.relop} 0"


def _cond_str(atoms: List[Atom]) -> str:
    if not atoms:
        return "true"
    return " && ".join(_atom_str(a) for a in atoms)


def _stmt_lines(stmt, indent: str) -> List[str]:
    if isinstance(stmt, Assign):
        if len(stmt.targets) == 1:
            return [f"{indent}{stmt.targets[0]} := {render(stmt.exprs[0])};"]
        ts = ", ".join(stmt.targets)
        es = ", ".join(render(e) for e in stmt.exprs)
        return [f"{indent}({ts}) := ({es});"]
    lines = [f"{indent}if {_cond_str(stmt.cond)} then"]
    for s in stmt.then_body:
        lines.extend(_stmt_lines(s, indent + "  "))
    if stmt.else_body is not None:
        lines.append(f"{indent}else")
        for s in stmt.else_body:
            lines.extend(_stmt_lines(s, indent + "  "))
    lines.append(f"{indent}end")
    return lines


def render_program(p) -> str:
    lines = [f"vars {', '.join(p.vars)};"]
    if p.params:
        lines.append(f"params {', '.join(p.params)};")
    inits = ", ".join(f"{v} := {render(p.init[v])}" for v in p.vars)
    lines.append(f"init {inits};")
    lines.append(f"guard {_cond_str(p.guard)};")
    lines.append("loop")
    for s in p.body:
        lines.extend(_stmt_lines(s, "  "))
    lines.append("end")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("src", [P1_SRC, P2_SRC, P3_SRC])
def test_render_parse_round_trip(src):
    p = parse_program(src)
    again = parse_program(render_program(p))
    assert again == p
    # twice through the renderer is a fixed point
    assert render_program(again) == render_program(p)


def _interpret_body(stmts, env):
    """Reference interpreter: statement-by-statement, no flattening."""
    env = dict(env)
    for stmt in stmts:
        if isinstance(stmt, Assign):
            vals = [e.evaluate([env[v] for v in e.vars]) for e in stmt.exprs]
            for name, v in zip(stmt.targets, vals):
                env[name] = v
        else:
            state = None
            taken = all(a.holds([env[v] for v in a.poly.vars]) for a in stmt.cond)
            if taken:
                env = _interpret_body(stmt.then_body, env)
            elif stmt.else_body is not None:
                env = _interpret_body(stmt.else_body, env)
    return env


def test_flattening_preserves_semantics():
    rng = random.Random(42)
    for src in (P1_SRC, P3_SRC):
        p = parse_program(src)
        ts = to_transition_system(p)
        for _ in range(200):
            state = tuple(rational(rng.randint(-20, 20)) for _ in p.vars)
            env = dict(zip(p.vars, state))
            enabled = [tr for tr in ts.transitions
                       if all(a.holds(state) for a in tr.guard)]
            if not enabled:
                continue      # loop exit state; body never runs
            assert len(enabled) == 1
            via_transition = tuple(enabled[0].update[v].evaluate(state) for v in p.vars)
            via_ast = _interpret_body(p.body, env)
            assert via_transition == tuple(via_ast[v] for v in p.vars)


def test_transition_updates_mention_only_declared_vars():
    for src in (P1_SRC, P2_SRC, P3_SRC):
        p = parse_program(src)
        ts = to_transition_system(p)
        for tr in ts.transitions:
            for poly in tr.update.values():
                assert poly.vars == p.vars
