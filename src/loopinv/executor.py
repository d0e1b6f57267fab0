"""Loop execution: run a transition system and collect sample states.

collect_samples runs exactly.  States are tuples of Rationals in
declared variable order.  Each step splits the state once into integer
numerators and denominators, evaluates every transition's guard exactly
as the sign of an integer numerator, and fires the unique enabled one,
building one Rational per updated coordinate; a state where none is
enabled is a loop exit.

residue_samples runs the same trajectory, or a prefix of it, on residues
modulo a prime, for the symbolic probes.  Guards have no meaning mod p,
so it runs only where sampling evaluates no guard atom: one transition,
its loop guard suspended.  It stands in for the exact run only when its
states are pairwise distinct mod p, so that they are the exact run's
states reduced; otherwise the caller falls back to the exact run.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from loopinv.frontend import TransitionSystem
from loopinv.polyring import Rational, split
from loopinv.vanishing import PointSet, residue


class AmbiguityError(RuntimeError):
    """More than one transition enabled at a state."""


def _enabled(ts: TransitionSystem, state, ignore_guard: bool):
    """The transition enabled at state, a (numerators, denominators) split."""
    hits = []
    for tr in ts.transitions:
        ok = True
        for atom in tr.guard:
            if ignore_guard and atom.loop_level:
                continue      # the while-condition is suspended, branch tests are not
            if not atom.holds_split(*state):
                ok = False
                break
        if ok:
            hits.append(tr)
    if len(hits) > 1:
        state = tuple(Rational(n, d) for n, d in zip(*state))
        raise AmbiguityError(f"{len(hits)} transitions enabled at state {state}")
    return hits[0] if hits else None


def collect_samples(ts: TransitionSystem, init: Sequence, target: int,
                    ignore_guard: bool = False) -> PointSet:
    """The first target states of the trajectory, exactly evaluated.

    The system is deterministic, so a state it reaches again starts a
    cycle through states already collected.  Collection stops at target
    states, at a loop exit, or at the first revisited state; stop names
    the reason, None when target was reached.
    """
    if target < 1:
        raise ValueError("target must be at least 1")
    state: Tuple[Rational, ...] = tuple(Rational(c) for c in init)
    if len(state) != len(ts.V):
        raise ValueError("initial state dimension mismatch")
    collected = [state]
    point = split(state)      # once per state, for guards, updates and the key
    distinct = {tuple(zip(*point))}  # int pairs hash without Fraction's modular inverse
    stop = None
    while len(collected) < target:
        tr = _enabled(ts, point, ignore_guard)
        if tr is None:
            stop = "loop exit"
            break
        state = tuple(Rational(*tr.update[v].evaluate_split(*point)) for v in ts.V)
        point = split(state)
        key = tuple(zip(*point))
        if key in distinct:
            stop = "revisit"
            break
        distinct.add(key)
        collected.append(state)
    return PointSet(collected, stop=stop, distinct=True)


def residue_samples(ts: TransitionSystem, init: Sequence, target: int,
                    ignore_guard: bool, p: int) -> Optional[np.ndarray]:
    """The states collect_samples returns, reduced mod p and computed on
    residues: one int64 row per state, in trajectory order.

    Returns None where this cannot stand in for the exact run: sampling
    would evaluate a guard atom (more than one transition, or a loop
    guard that is not suspended), p divides a denominator of the start
    or of an update coefficient, or two of the first target states
    coincide mod p.  States distinct mod p are distinct rationals, so
    then the exact run collects exactly these states: it revisits none.
    """
    if len(ts.transitions) != 1:
        return None
    [tr] = ts.transitions
    if not all(ignore_guard and atom.loop_level for atom in tr.guard):
        return None
    state = tuple(residue(Rational(c), p) for c in init)
    # each update as (coefficient residue, exponents) terms
    updates = [[(residue(c, p), mono) for mono, c in tr.update[v].terms.items()]
               for v in ts.V]
    if None in state or any(c is None for terms in updates for c, _ in terms):
        return None
    rows = [state]
    seen = {state}
    while len(rows) < target:
        new_state = []
        for terms in updates:
            total = 0
            for c, mono in terms:
                for x, e in zip(state, mono):
                    if e:
                        c = c * pow(x, e, p) % p
                total += c
            new_state.append(total % p)
        state = tuple(new_state)
        if state in seen:
            return None
        seen.add(state)
        rows.append(state)
    return np.array(rows, dtype=np.int64)


def format_trace(points: PointSet) -> str:
    """One state per line, coordinates tab-separated in reduced form."""
    return "\n".join("\t".join(str(c) for c in pt) for pt in points.points)
