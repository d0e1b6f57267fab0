"""Polynomial-scale consecution checks for invariant candidates.

A candidate eta passes for a transition with update map U when
eta(U(V)) = q(V) * eta(V) for some polynomial q.  consecution decides
that by exact multivariate division, and nothing else decides it.

A rejected candidate is also labelled by a randomized one-variable
shadow of the same question: restrict both polynomials to a random line

    x1 -> Z,   xi -> Bi*Z - pi   (i >= 2)

and test univariate divisibility there, with each Bi and pi drawn from
{1, ..., SAMPLE_SPACE}.  The restriction is Polynomial.substitute into
the one-variable ring LINE = ("Z",), and the test is polyring.divide's
remainder there.  Restriction is a ring morphism, so divisibility
survives it: a divisible candidate passes every line, and a rejection
that some line refutes counts as univariate, the rest as multivariate.
The line test never changes what passes.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from loopinv import polyring
from loopinv.polyring import Polynomial, Rational, divide, rational

SAMPLE_SPACE = 1 << 20

LINE = ("Z",)     # the ring of a candidate restricted to a line

# a candidate's images under the update maps, and its quotients or None
Check = Tuple[List[Polynomial], Optional[List[Polynomial]]]


class LineTransform:
    """Random line through which divisibility questions are shadowed.

    B and p each hold n-1 entries, for variables 2..n; the first
    variable becomes Z itself with no affine shift.
    """

    __slots__ = ("B", "p")

    def __init__(self, B: Sequence[Rational], p: Sequence[Rational]):
        if len(B) != len(p):
            raise ValueError("B and p must have matching length")
        self.B = tuple(B)
        self.p = tuple(p)


def random_line(n: int, rng: random.Random) -> LineTransform:
    """Draw B then p, each uniform over {1, ..., SAMPLE_SPACE}."""
    if n < 1:
        raise ValueError("need at least one variable")
    B = tuple(rational(rng.randint(1, SAMPLE_SPACE)) for _ in range(n - 1))
    p = tuple(rational(rng.randint(1, SAMPLE_SPACE)) for _ in range(n - 1))
    return LineTransform(B, p)


def to_univariate(f: Polynomial, t: LineTransform) -> Polynomial:
    """Exact image of f in the ring LINE under x1 -> Z, xi -> Bi*Z - pi."""
    n = len(f.vars)
    if n != len(t.B) + 1:
        raise ValueError("transform arity does not match polynomial")
    images = {f.vars[0]: Polynomial.variable(LINE, "Z")}
    for name, b, p in zip(f.vars[1:], t.B, t.p):
        images[name] = Polynomial(LINE, {(1,): b, (0,): -p})
    return f.substitute(images)


def univariate_divides(ft: Polynomial, gt: Polynomial) -> bool:
    """True iff gt is an exact multiple of ft."""
    # polyring.divide, not this module's divide: loopbench times the
    # latter as consecution's own divisions
    return polyring.divide(gt, ft)[1].is_zero()


def consecution(eta: Polynomial,
                transitions: Sequence[Dict[str, Polynomial]]) -> Optional[List[Polynomial]]:
    """The quotients q with eta(U(V)) = q(V) * eta(V) exactly, one per
    transition's update map U, or None if some division leaves a
    remainder."""
    return check(eta, transitions)[1]


def check(eta: Polynomial, transitions: Sequence[Dict[str, Polynomial]]) -> Check:
    """eta's images eta(U(V)), one per transition's update map U, and
    consecution's quotients of them (None if some division leaves a
    remainder)."""
    images = [eta.substitute(update) for update in transitions]
    return images, _quotients(eta, images)


def _quotients(eta: Polynomial, images: Sequence[Polynomial]) -> Optional[List[Polynomial]]:
    quotients: List[Polynomial] = []
    for image in images:
        q, r = divide(image, eta)
        if not r.is_zero():
            return None
        quotients.append(q)
    return quotients


def filter_and_verify(
    candidates: Sequence[Polynomial],
    transitions: Sequence[Dict[str, Polynomial]],
    rng: random.Random,
    checked: Optional[Dict[Polynomial, Check]] = None,
):
    """Split candidates into (verified, rejected_univariate, rejected_multivariate).

    verified entries are (eta, quotients) from consecution's exact
    division.  A rejected candidate is restricted to a fresh line per
    transition until one refutes it (rejected_univariate), else it is
    rejected_multivariate.  A verified one draws the same lines unused,
    since it passes each, so the caller's seeded rng advances as if every
    candidate were restricted.  All three lists keep the input order.
    checked holds what check returned for candidates the caller already
    checked against these transitions; they are not substituted or
    divided again.
    """
    if not transitions:
        raise ValueError("no transitions to check against")
    checked = checked or {}
    verified: List[Tuple[Polynomial, List[Polynomial]]] = []
    rejected_univariate: List[Polynomial] = []
    rejected_multivariate: List[Polynomial] = []
    for eta in candidates:
        if eta.is_zero():
            raise ValueError("zero candidate")
        if eta.total_degree() == 0:
            # BM on a non-empty sample set never emits one; a constant
            # scales only under q = const, which makes eta = 0 useless
            raise ValueError("constant candidate")
        images, quotients = checked.get(eta) or check(eta, transitions)
        if quotients is not None:
            for _ in images:
                random_line(len(eta.vars), rng)
            verified.append((eta, quotients))
        elif _line_refutes(eta, images, rng):
            rejected_univariate.append(eta)
        else:
            rejected_multivariate.append(eta)
    return verified, rejected_univariate, rejected_multivariate


def _line_refutes(eta: Polynomial, images: Sequence[Polynomial],
                  rng: random.Random) -> bool:
    """True at the first image whose restriction to a fresh line is not
    a multiple of eta's; one line is drawn per image up to there."""
    for image in images:
        t = random_line(len(eta.vars), rng)
        ft = to_univariate(eta, t)
        if ft.is_zero():
            continue      # line lies inside eta's zero set; no verdict
        if not univariate_divides(ft, to_univariate(image, t)):
            return True
    return False
