"""Loop-program DSL: parsing and translation to a transition system.

Program shape:

    vars x, y;            # program variables, precedence order
    params a, b;          # optional symbolic initial values
    init x := a, y := b;
    guard true;           # optional; omitted means true
    loop
      (x, y) := (x + y^5, y + 1);
    end

Statements are simultaneous tuple assignments, single assignments, and
if/then/else blocks.  Conditions are conjunctions of polynomial atoms.
Expressions admit +, -, *, ^ with literal non-negative exponents, and /
by a nonzero constant.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from loopinv.polyring import (
    Polynomial, Rational, clear_content, rational, render, sign_normalize, split,
)

RELOPS = ("<", "<=", ">", ">=", "==", "!=")

_NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class Atom:
    """Polynomial relational atom, stored as poly relop 0.

    loop_level marks atoms that came from the while-guard; branch atoms
    keep deciding control flow even when guard checking is off.
    """

    __slots__ = ("poly", "relop", "loop_level")

    def __init__(self, poly: Polynomial, relop: str, loop_level: bool = False):
        if relop not in RELOPS:
            raise ValueError(f"unknown relational operator {relop!r}")
        self.poly = poly
        self.relop = relop
        self.loop_level = loop_level

    def negated(self) -> "Atom":
        return Atom(self.poly, _NEGATED[self.relop], self.loop_level)

    def holds(self, values: Sequence) -> bool:
        return self.holds_split(*split(values))

    def holds_split(self, nums: Sequence[int], dens: Sequence[int]) -> bool:
        """holds() at x_i = nums[i]/dens[i], dens[i] > 0, by the sign of N."""
        v = self.poly.evaluate_split(nums, dens)[0]
        if self.relop == "<":
            return v < 0
        if self.relop == "<=":
            return v <= 0
        if self.relop == ">":
            return v > 0
        if self.relop == ">=":
            return v >= 0
        if self.relop == "==":
            return v == 0
        return v != 0

    def __eq__(self, other):
        return (isinstance(other, Atom) and self.poly == other.poly
                and self.relop == other.relop and self.loop_level == other.loop_level)

    def __repr__(self):
        return f"Atom({render(self.poly)} {self.relop} 0)"


class Assign:
    """Simultaneous assignment; a single `x := e` is a 1-tuple."""

    __slots__ = ("targets", "exprs")

    def __init__(self, targets: Tuple[str, ...], exprs: Tuple[Polynomial, ...]):
        self.targets = targets
        self.exprs = exprs

    def __eq__(self, other):
        return (isinstance(other, Assign) and self.targets == other.targets
                and self.exprs == other.exprs)


class If:
    __slots__ = ("cond", "then_body", "else_body")

    def __init__(self, cond: List[Atom], then_body: list, else_body: Optional[list]):
        self.cond = cond
        self.then_body = then_body
        self.else_body = else_body

    def __eq__(self, other):
        return (isinstance(other, If) and self.cond == other.cond
                and self.then_body == other.then_body
                and self.else_body == other.else_body)


class LoopProgram:
    __slots__ = ("vars", "params", "init", "guard", "body")

    def __init__(self, vars, params, init, guard, body):
        self.vars = tuple(vars)
        self.params = tuple(params)
        self.init = init          # var -> Polynomial over params
        self.guard = guard        # list of Atom over vars; empty means true
        self.body = body

    def __eq__(self, other):
        return (isinstance(other, LoopProgram) and self.vars == other.vars
                and self.params == other.params and self.init == other.init
                and self.guard == other.guard and self.body == other.body)


class Transition:
    __slots__ = ("update", "guard")

    def __init__(self, update: Dict[str, Polynomial], guard: List[Atom]):
        self.update = update
        self.guard = guard


class TransitionSystem:
    __slots__ = ("V", "transitions")

    def __init__(self, V, transitions):
        self.V = tuple(V)
        self.transitions = transitions


# --- lexer ------------------------------------------------------------

_PUNCT = (":=", "<=", ">=", "==", "!=", "&&",
          "(", ")", ",", ";", "+", "-", "*", "/", "^", "<", ">", "=")


class _Lexer:
    def __init__(self, text: str):
        self.tokens: List[Tuple[str, str, int, int]] = []
        line, col = 1, 1
        i = 0
        while i < len(text):
            ch = text[i]
            if ch == "\n":
                line += 1
                col = 1
                i += 1
                continue
            if ch in " \t\r":
                i += 1
                col += 1
                continue
            if ch == "#":
                while i < len(text) and text[i] != "\n":
                    i += 1
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ID", text[i:j], line, col))
                col += j - i
                i = j
                continue
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.tokens.append(("INT", text[i:j], line, col))
                col += j - i
                i = j
                continue
            for op in _PUNCT:
                if text.startswith(op, i):
                    self.tokens.append(("OP", op, line, col))
                    col += len(op)
                    i += len(op)
                    break
            else:
                raise ParseError(f"unexpected character {ch!r}", line, col)
        self.tokens.append(("EOF", "", line, col))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok


# --- parser -----------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.lx = _Lexer(text)
        self.vars: Tuple[str, ...] = ()
        self.params: Tuple[str, ...] = ()

    def fail(self, msg: str, tok=None):
        tok = tok or self.lx.peek()
        raise ParseError(msg, tok[2], tok[3])

    def expect(self, kind, value=None):
        tok = self.lx.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value or kind
            self.fail(f"expected {want!r}, found {tok[1]!r}", tok)
        return tok

    def accept(self, kind, value=None):
        tok = self.lx.peek()
        if tok[0] == kind and (value is None or tok[1] == value):
            return self.lx.next()
        return None

    def keyword(self, word):
        tok = self.lx.next()
        if tok[0] != "ID" or tok[1] != word:
            self.fail(f"expected keyword {word!r}, found {tok[1]!r}", tok)

    # sections ---------------------------------------------------------

    def program(self) -> LoopProgram:
        self.keyword("vars")
        self.vars = tuple(self.idlist())
        self.expect("OP", ";")
        if self.lx.peek()[:2] == ("ID", "params"):
            self.lx.next()
            self.params = tuple(self.idlist())
            self.expect("OP", ";")
            dup = set(self.vars) & set(self.params)
            if dup:
                self.fail(f"name declared as both var and param: {sorted(dup)[0]}")
        self.keyword("init")
        init = self.assignlist()
        self.expect("OP", ";")
        missing = [v for v in self.vars if v not in init]
        if missing:
            self.fail(f"missing initializer for variable {missing[0]}")
        guard: List[Atom] = []
        if self.lx.peek()[:2] == ("ID", "guard"):
            self.lx.next()
            guard = self.cond(self.vars, loop_level=True)
            self.expect("OP", ";")
        self.keyword("loop")
        body = self.stmts()
        self.keyword("end")
        if self.lx.peek()[0] != "EOF":
            self.fail("trailing input after program end")
        return LoopProgram(self.vars, self.params, init, guard, body)

    def idlist(self) -> List[str]:
        out = [self.expect("ID")[1]]
        while self.accept("OP", ","):
            out.append(self.expect("ID")[1])
        return out

    def assignlist(self) -> Dict[str, Polynomial]:
        # init assignments; right-hand sides range over params only
        out: Dict[str, Polynomial] = {}
        while True:
            tok = self.expect("ID")
            name = tok[1]
            if name not in self.vars:
                self.fail(f"assignment to undeclared variable {name}", tok)
            if name in out:
                self.fail(f"variable {name} initialized twice", tok)
            self.expect("OP", ":=")
            out[name] = self.expr(self.params)
            if not self.accept("OP", ","):
                return out

    # statements -------------------------------------------------------

    def stmts(self) -> list:
        out = []
        while True:
            tok = self.lx.peek()
            if tok[0] == "ID" and tok[1] in ("end", "else"):
                return out
            if tok[0] == "EOF":
                return out
            out.append(self.stmt())

    def stmt(self):
        if self.lx.peek()[:2] == ("ID", "if"):
            self.lx.next()
            cond = self.cond(self.vars)
            self.keyword("then")
            then_body = self.stmts()
            else_body = None
            if self.accept("ID", "else"):
                else_body = self.stmts()
            self.keyword("end")
            return If(cond, then_body, else_body)
        if self.accept("OP", "("):
            targets = tuple(self.idlist())
            self.expect("OP", ")")
            self.expect("OP", ":=")
            self.expect("OP", "(")
            exprs = [self.expr(self.vars)]
            while self.accept("OP", ","):
                exprs.append(self.expr(self.vars))
            self.expect("OP", ")")
            self.expect("OP", ";")
            if len(targets) != len(exprs):
                self.fail(f"{len(targets)} targets but {len(exprs)} expressions")
            for name in targets:
                if name not in self.vars:
                    self.fail(f"assignment to undeclared variable {name}")
            if len(set(targets)) != len(targets):
                self.fail("repeated target in simultaneous assignment")
            return Assign(targets, tuple(exprs))
        tok = self.expect("ID")
        name = tok[1]
        if name not in self.vars:
            self.fail(f"assignment to undeclared variable {name}", tok)
        self.expect("OP", ":=")
        e = self.expr(self.vars)
        self.expect("OP", ";")
        return Assign((name,), (e,))

    # conditions and expressions ---------------------------------------

    def cond(self, ring, loop_level=False) -> List[Atom]:
        if self.lx.peek()[:2] == ("ID", "true"):
            self.lx.next()
            return []
        atoms = [self.atom(ring, loop_level)]
        while self.accept("OP", "&&"):
            atoms.append(self.atom(ring, loop_level))
        return atoms

    def atom(self, ring, loop_level) -> Atom:
        left = self.expr(ring)
        tok = self.lx.next()
        if tok[0] != "OP" or tok[1] not in ("<", "<=", ">", ">=", "==", "!=", "="):
            self.fail("expected relational operator", tok)
        relop = "==" if tok[1] == "=" else tok[1]
        right = self.expr(ring)
        return Atom(left.sub(right), relop, loop_level)

    def expr(self, ring) -> Polynomial:
        ring = tuple(ring)
        node = self.term(ring)
        while True:
            if self.accept("OP", "+"):
                node = node.add(self.term(ring))
            elif self.accept("OP", "-"):
                node = node.sub(self.term(ring))
            else:
                return node

    def term(self, ring) -> Polynomial:
        node = self.factor(ring)
        while True:
            if self.accept("OP", "*"):
                node = node.mul(self.factor(ring))
            elif self.accept("OP", "/"):
                tok = self.lx.peek()
                divisor = self.factor(ring)
                const = _constant_value(divisor)
                if const is None:
                    self.fail("non-polynomial expression: division by a non-constant", tok)
                if const == 0:
                    self.fail("division by zero", tok)
                node = node.scale(1 / const)
            else:
                return node

    def factor(self, ring) -> Polynomial:
        if self.accept("OP", "-"):
            return self.factor(ring).negate()
        node = self.base(ring)
        if self.accept("OP", "^"):
            tok = self.expect("INT")
            return node.pow(int(tok[1]))
        return node

    def base(self, ring) -> Polynomial:
        tok = self.lx.next()
        if tok[0] == "INT":
            return Polynomial.constant(ring, rational(int(tok[1])))
        if tok[0] == "ID":
            if tok[1] in ring:
                return Polynomial.variable(ring, tok[1])
            self.fail(f"unknown name {tok[1]!r} in this context", tok)
        if tok[:2] == ("OP", "("):
            node = self.expr(ring)
            self.expect("OP", ")")
            return node
        self.fail("expected expression", tok)


def _constant_value(f: Polynomial) -> Optional[Rational]:
    if f.is_zero():
        return Rational(0)
    if all(sum(m) == 0 for m in f.terms):
        return next(iter(f.terms.values()))
    return None


def parse_program(text: str) -> LoopProgram:
    return _Parser(text).program()


# --- transition system ------------------------------------------------

def _identity_update(variables) -> Dict[str, Polynomial]:
    return {v: Polynomial.variable(variables, v) for v in variables}


def _apply_assign(update: Dict[str, Polynomial], stmt: Assign,
                  variables) -> Dict[str, Polynomial]:
    # composed update: new rhs are written in terms of the initial state
    out = dict(update)
    for name, e in zip(stmt.targets, stmt.exprs):
        out[name] = e.substitute(update)
    return out


def _paths(stmts, update, variables):
    """Flatten a statement list into (branch atoms, composed update) paths."""
    paths = [([], update)]
    for stmt in stmts:
        if isinstance(stmt, Assign):
            paths = [(atoms, _apply_assign(u, stmt, variables)) for atoms, u in paths]
            continue
        new_paths = []
        for atoms, u in paths:
            for sub_atoms, sub_u in _paths(stmt.then_body, u, variables):
                new_paths.append((atoms + stmt.cond + sub_atoms, sub_u))
            # negation of a conjunction: first i-1 atoms hold, atom i fails
            else_body = stmt.else_body if stmt.else_body is not None else []
            for i in range(len(stmt.cond)):
                neg_prefix = stmt.cond[:i] + [stmt.cond[i].negated()]
                for sub_atoms, sub_u in _paths(else_body, u, variables):
                    new_paths.append((atoms + neg_prefix + sub_atoms, sub_u))
        paths = new_paths
    return paths


def _zero_set_key(f: Polynomial):
    g = sign_normalize(clear_content(f))
    return frozenset(g.terms.items())


def _strictify(guard: List[Atom], branch: List[Atom]) -> List[Atom]:
    """Sharpen non-strict branch atoms against loop-level disequalities.

    With x != y in force, the negation of x > y is x < y, not x <= y.
    """
    keys = {_zero_set_key(a.poly) for a in guard if a.relop == "!="}
    out = []
    for a in branch:
        if a.relop in ("<=", ">=") and _zero_set_key(a.poly) in keys:
            out.append(Atom(a.poly, a.relop.rstrip("="), a.loop_level))
        else:
            out.append(a)
    return out


def to_transition_system(p: LoopProgram) -> TransitionSystem:
    """One transition per maximal branch path through the loop body."""
    transitions = []
    for atoms, update in _paths(p.body, _identity_update(p.vars), p.vars):
        guard = list(p.guard) + _strictify(p.guard, atoms)
        transitions.append(Transition(update, guard))
    return TransitionSystem(p.vars, transitions)
