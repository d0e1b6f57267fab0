import random
from collections import Counter
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loopinv.vanishing as vanishing
from loopinv.executor import collect_samples
from loopinv.frontend import parse_program, to_transition_system
from loopinv.invgen import _ProbeRunner
from loopinv.polyring import (
    Polynomial, divide, grlex_key, monomial_divides, rational, render,
)
from loopinv.ratinterp import _random_point
from loopinv.vanishing import (
    PRIMES, PointSet, VanishingWalk, bounded_relations, buchberger_moeller,
    residue, residue_matrix, support_relation,
)

ROOT = Path(__file__).resolve().parent.parent


def program_samples(path, point, n):
    """The first n distinct states of the program at ROOT / path, started
    at the parameter point, with the while-guard suspended."""
    p = parse_program((ROOT / path).read_text())
    ts = to_transition_system(p)
    init = [p.init[v].evaluate(point) for v in ts.V]
    return collect_samples(ts, init, n, ignore_guard=True)


def reduce_mod_basis(f, basis):
    """Normal form of f modulo a Groebner basis, via repeated division."""
    changed = True
    while changed:
        changed = False
        for g in basis:
            q, r = divide(f, g)
            if not q.is_zero():
                f = r
                changed = True
    return f


def ex1_samples(count=36):
    pts = []
    x, y = 0, 0
    for _ in range(count):
        pts.append((x, y))
        x, y = x + y ** 5, y + 1
    return pts


# --- independent all-rational reference -------------------------------
#
# Classical ascending sweep with exact rational elimination only; shares
# no code with the modular-certified implementation under test.

def _reduce_against(rows, v):
    """v minus its part in the span of rows, an echelon list of (vector,
    combination, pivot): each vector is 1 at its pivot, zero at the pivots
    of the rows before it, and equals the sum of combination[j] times the
    j-th normal column.  Returns (residual, {j: c}) with
    v = residual + sum c[j] * column j."""
    r, combo = list(v), {}
    for vec, comb, pivot in rows:
        a = r[pivot]
        if a != 0:
            r = [x - a * y for x, y in zip(r, vec)]
            for j, c in comb.items():
                combo[j] = combo.get(j, 0) + a * c
    return r, combo


def _degree_monos(n, deg):
    if n == 1:
        return [(deg,)]
    out = []
    for first in range(deg, -1, -1):
        out.extend((first,) + rest for rest in _degree_monos(n - 1, deg - first))
    return sorted(out, key=grlex_key)


def exact_bm_reference(points, variables, max_degree=None):
    """Reduced basis and normal set by exact elimination; with max_degree,
    only their part through that degree."""
    points = [tuple(rational(c) for c in p) for p in points]
    n = len(variables)
    s = len(points)
    normal, rows = [], []
    basis, leads = [], []
    deg = 0
    while True:
        candidates = [m for m in _degree_monos(n, deg)
                      if not any(monomial_divides(l, m) for l in leads)]
        if len(normal) == s and not candidates or max_degree is not None and deg > max_degree:
            break
        assert deg <= s + 1
        for mono in candidates:
            r, combo = _reduce_against(rows, [_eval_mono(p, mono) for p in points])
            pivot = next((i for i, x in enumerate(r) if x != 0), None)
            if pivot is None:
                terms = {mono: rational(1)}
                for j, c in sorted(combo.items()):
                    if c != 0:
                        terms[normal[j]] = -c
                basis.append(Polynomial(variables, terms))
                leads.append(mono)
            else:
                # r = column(mono) - sum combo[j] * column j, scaled to 1 at its pivot
                inv = 1 / r[pivot]
                comb = {j: -c * inv for j, c in combo.items()}
                comb[len(normal)] = inv
                rows.append(([x * inv for x in r], comb, pivot))
                normal.append(mono)
        deg += 1
    return basis, normal


def _eval_mono(point, mono):
    out = rational(1)
    for c, e in zip(point, mono):
        out *= c ** e
    return out


# --- point sets -------------------------------------------------------

def test_pointset_dedupes_and_checks_dimension():
    S = PointSet([(1, 2), (1, 2), (3, 4)])
    assert len(S) == 2
    with pytest.raises(ValueError):
        PointSet([(1, 2), (1, 2, 3)])


def test_empty_point_set_rejected():
    with pytest.raises(ValueError):
        VanishingWalk(PointSet([]), ())


# --- pinned small cases -----------------------------------------------

def test_single_point_gives_maximal_ideal():
    b = buchberger_moeller(VanishingWalk(PointSet([(3, 5)]), ("x", "y")), 1)
    assert [render(f) for f in b.basis] == ["y - 5", "x - 3"]
    assert b.normal_set == [(0, 0)]
    assert b.min_degree == 1


def test_three_points_on_parabola():
    pts = [(0, 0), (1, 1), (2, 4)]
    b = buchberger_moeller(VanishingWalk(PointSet(pts), ("x", "y")), len(pts))
    assert len(b.normal_set) == 3
    for f in b.basis:
        for p in pts:
            assert f.evaluate(p) == 0
    # x^2 - y vanishes on the set, so it must reduce to zero
    probe = Polynomial(("x", "y"), {(2, 0): rational(1), (0, 1): rational(-1)})
    assert reduce_mod_basis(probe, b.basis).is_zero()


def test_known_sample_run():
    S = PointSet(ex1_samples())
    b = buchberger_moeller(VanishingWalk(S, ("x", "y")), len(S))
    assert b.basis_size == 6
    assert len(b.normal_set) == 36
    assert b.min_degree == 6
    golden = Polynomial(("x", "y"), {
        (1, 0): rational(-12), (0, 6): rational(2), (0, 5): rational(-6),
        (0, 4): rational(5), (0, 2): rational(-1),
    })
    # the minimum-degree element is the monic form of the golden polynomial
    low = [f for f in b.basis if f.total_degree() == 6]
    assert len(low) == 1
    assert low[0] == golden.scale(1 / golden.leading_coefficient())


def test_degree_cap_keeps_structure():
    S = PointSet(ex1_samples())
    full = buchberger_moeller(VanishingWalk(S, ("x", "y")), len(S))
    capped = buchberger_moeller(VanishingWalk(S, ("x", "y")), 6)
    assert capped.basis_size == full.basis_size == 6
    assert capped.min_degree == full.min_degree == 6
    assert capped.normal_set == full.normal_set
    assert len(capped.basis) == 1
    assert capped.basis[0] == min(full.basis, key=Polynomial.total_degree)
    full_lms = sorted(f.leading_monomial() for f in full.basis)
    capped_lms = sorted([capped.basis[0].leading_monomial()]
                        + capped.closure_leading_monomials)
    assert capped_lms == full_lms


# --- randomized properties -------------------------------------------

coords = st.integers(min_value=-6, max_value=6)
point_lists = st.lists(st.tuples(coords, coords), min_size=1, max_size=10)
point_lists3 = st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=8)


@given(point_lists)
@settings(max_examples=40, deadline=None)
def test_basis_vanishes_and_counts_match(pts):
    S = PointSet(pts)
    b = buchberger_moeller(VanishingWalk(S, ("x", "y")), len(S))
    assert len(b.normal_set) == len(S)
    for f in b.basis:
        assert f.leading_coefficient() == 1
        for p in S.points:
            assert f.evaluate(p) == 0
    lms = [f.leading_monomial() for f in b.basis] + b.closure_leading_monomials
    for i, a in enumerate(lms):
        for j, c in enumerate(lms):
            if i != j:
                assert not monomial_divides(a, c)
    assert b.min_degree == min(sum(m) for m in lms)


@given(point_lists3)
@settings(max_examples=25, deadline=None)
def test_membership_oracle(pts):
    S = PointSet(pts)
    vars3 = ("x", "y", "z")
    b = buchberger_moeller(VanishingWalk(S, vars3), len(S))
    # explicit ideal combination reduces to zero
    combo = Polynomial.zero(vars3)
    for i, g in enumerate(b.basis):
        factor = Polynomial(vars3, {(i % 2, 0, 1): rational(i + 1),
                                    (0, 0, 0): rational(1)})
        combo = combo.add(g.mul(factor))
    assert reduce_mod_basis(combo, b.basis).is_zero()
    # a polynomial that misses a point must not reduce to zero
    p0 = S.points[0]
    miss = Polynomial(vars3, {(0, 0, 0): rational(1)})  # constant 1 never vanishes
    assert not reduce_mod_basis(miss, b.basis).is_zero()


@given(point_lists)
@settings(max_examples=20, deadline=None)
def test_remainder_zero_iff_vanishing(pts):
    S = PointSet(pts)
    b = buchberger_moeller(VanishingWalk(S, ("x", "y")), len(S))
    f = Polynomial(("x", "y"), {(2, 1): rational(3), (1, 0): rational(-2),
                                (0, 0): rational(5)})
    r = reduce_mod_basis(f, b.basis)
    vanishes = all(f.evaluate(p) == 0 for p in S.points)
    assert r.is_zero() == vanishes


@given(point_lists)
@settings(max_examples=20, deadline=None)
def test_bounded_relations_agree_with_full_basis(pts):
    S = PointSet(pts)
    full = buchberger_moeller(VanishingWalk(S, ("x", "y")), len(S))
    cap = full.min_degree
    rel = bounded_relations(VanishingWalk(S, ("x", "y")), cap)
    expect = [f for f in full.basis if f.total_degree() <= cap]
    assert rel == expect


def test_rational_coordinates():
    S = PointSet([(rational(1, 2), rational(1, 3)), (rational(2, 5), rational(7, 2))])
    b = buchberger_moeller(VanishingWalk(S, ("x", "y")), len(S))
    assert len(b.normal_set) == 2
    for f in b.basis:
        for p in S.points:
            assert f.evaluate(p) == 0


def test_deterministic_output():
    pts = ex1_samples(20)
    b1 = buchberger_moeller(VanishingWalk(PointSet(pts), ("x", "y")), len(pts))
    b2 = buchberger_moeller(VanishingWalk(PointSet(pts), ("x", "y")), len(pts))
    assert [render(f) for f in b1.basis] == [render(f) for f in b2.basis]
    assert b1.normal_set == b2.normal_set


@given(point_lists)
@settings(max_examples=25, deadline=None)
def test_agrees_with_exact_elimination_reference(pts):
    S = PointSet(pts)
    b = buchberger_moeller(VanishingWalk(S, ("x", "y")), len(S))
    ref_basis, ref_normal = exact_bm_reference(S.points, ("x", "y"))
    assert [render(f) for f in b.basis] == [render(f) for f in ref_basis]
    assert list(b.normal_set) == ref_normal


@given(st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=6))
@settings(max_examples=15, deadline=None)
def test_agrees_with_exact_elimination_reference_3vars(pts):
    S = PointSet(pts)
    vars3 = ("x", "y", "z")
    b = buchberger_moeller(VanishingWalk(S, vars3), len(S))
    ref_basis, ref_normal = exact_bm_reference(S.points, vars3)
    assert [render(f) for f in b.basis] == [render(f) for f in ref_basis]
    assert list(b.normal_set) == ref_normal


def test_reference_agreement_on_trajectory_samples():
    pts = ex1_samples(15)
    S = PointSet(pts)
    b = buchberger_moeller(VanishingWalk(S, ("x", "y")), len(S))
    ref_basis, ref_normal = exact_bm_reference(S.points, ("x", "y"))
    assert [render(f) for f in b.basis] == [render(f) for f in ref_basis]
    assert list(b.normal_set) == ref_normal


fraction_coords = st.one_of(coords, st.builds(rational, coords, st.integers(1, 5)))


@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.tuples(*[fraction_coords] * n), min_size=1, max_size=20)),
    st.data())
@settings(max_examples=40, deadline=None)
def test_walk_relations_match_exact_reduced_basis(pts, data):
    """The walk keeps no coordinates: each layer's relations are read
    from the factors, in one pass, when the first of them is asked for.
    Walked to its end at one prime and asked in any order, every lead's
    relation, closure leads included, is the residue vector of the exact
    reduced-basis element over the normal set."""
    S = PointSet(pts)
    variables = ("x", "y", "z")[:S.dimension]
    p = PRIMES[0]
    w = vanishing._PrimeWalk(residue_matrix(S.points, p), p)
    while w.frontier is not None:
        w.layer()
    assert w.G is None and len(w.normal) == len(S)
    ref_basis, ref_normal = exact_bm_reference(S.points, variables)
    assert w.normal == ref_normal
    assert w.leads == [f.leading_monomial() for f in ref_basis]
    for i in data.draw(st.permutations(range(len(w.leads)))):
        expect = [residue(ref_basis[i].terms.get(m, 0), p) for m in ref_normal]
        got = w.relation(i).tolist()
        assert got == expect[:len(got)] and not any(expect[len(got):])


def test_capped_walk_computes_no_relation_above_the_cap():
    """buchberger_moeller with coeff_degree_cap asks the walks only for
    the relations of the leads it lifts, so the closure leads' relations
    are never computed."""
    S = PointSet(ex1_samples())
    walk = VanishingWalk(S, ("x", "y"))
    capped = buchberger_moeller(walk, 6)
    assert capped.closure_leading_monomials
    computed = [w.leads[i] for w in walk.walks.values() for i in w.relations]
    assert computed and all(sum(m) <= 6 for m in computed)


def test_exhausted_budget_names_what_it_was_lifting(monkeypatch):
    """A coefficient of 2^50 + 1 needs more than three 30-bit primes to
    reconstruct; with only three, the failure says what was being
    lifted and points at coeff_degree_cap."""
    monkeypatch.setattr(vanishing, "PRIMES", PRIMES[:3])
    S = PointSet([(0,), (1,), (2 ** 50,)])
    with pytest.raises(RuntimeError) as err:
        buchberger_moeller(VanishingWalk(S, ("x",)), len(S))
    message = str(err.value)
    assert message.startswith("prime budget exhausted without certification: ")
    assert "lifting 1 element(s) of lead degree up to 3" in message
    assert "coeff_degree_cap" in message


# --- certified nullspace on points ---------------------------------------

def exact_nullspace(rows, ncols):
    """Reduced-echelon nullspace basis by exact-rational Gauss-Jordan, one
    dense vector per free column, ascending."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [rational(0)] * ncols
        v[fc] = rational(1)
        for i, pc in enumerate(pivots):
            v[pc] = -mat[i][fc]
        basis.append(v)
    return basis


def _dense(vectors, ncols):
    return [[v.get(c, rational(0)) for c in range(ncols)] for v in vectors]


def _eval_rows(points, monos):
    """The exact evaluation matrix, one row per point."""
    return [[_eval_mono(p, m) for m in monos] for p in points]


def _eval_matrix_of(points, monos):
    """matrix(p) for relations: the evaluation matrix of monos at points
    mod p, None where p divides a denominator."""
    def matrix(p):
        coords = residue_matrix(points, p)
        return None if coords is None else vanishing.eval_matrix(coords, monos, p)
    return matrix


def _matches_exact_elimination(points, monos):
    got = vanishing.relations(_eval_matrix_of(points, monos), len(monos))
    ncols = len(monos)
    assert _dense(got, ncols) == exact_nullspace(_eval_rows(points, monos), ncols)
    return got


def _tracing_rref(monkeypatch):
    """The primes that vanishing.rref_mod_p reduces, in call order."""
    reduced = []
    real = vanishing.rref_mod_p
    monkeypatch.setattr(vanishing, "rref_mod_p",
                        lambda M, p: reduced.append(p) or real(M, p))
    return reduced


fractions = st.builds(rational, st.integers(-9, 9), st.integers(1, 9))


@st.composite
def point_monomial_sets(draw):
    """Up to 7 points (repeats allowed, so rank can drop) in 1-3
    variables, and up to 7 distinct monomials of degree <= 3 in any order."""
    n = draw(st.integers(1, 3))
    points = draw(st.lists(st.tuples(*[fractions] * n), min_size=1, max_size=7))
    monos = [m for d in range(4) for m in _degree_monos(n, d)]
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=7, unique=True))
    return points, chosen


@given(point_monomial_sets())
@settings(max_examples=60, deadline=None)
def test_certified_nullspace_matches_exact_elimination(case):
    _matches_exact_elimination(*case)


def _q(points):
    return [tuple(rational(c) for c in p) for p in points]


@pytest.mark.parametrize("rows, nullity", [
    # rows: (points, monomials), a matrix row per point and a column per monomial
    ((_q([(1,), (2,), (3,)]), [(0,), (1,)]), 0),                     # tall, zero nullity
    ((_q([(0, 0), (1, 1), (2, 2)]), [(0, 0), (0, 1), (1, 0)]), 1),   # rank-deficient
    ((_q([(0, 0), (0, 1)]), [(1, 0), (2, 0), (1, 1)]), 3),           # zero matrix
    ((_q([("1/2", 3), ("2/3", 5)]), [(0, 0), (0, 1), (1, 0), (1, 1)]), 2),  # wide
])
def test_certified_nullspace_shapes(rows, nullity):
    got = _matches_exact_elimination(*rows)
    assert len(got) == nullity


def test_prime_dividing_a_denominator_is_skipped(monkeypatch):
    p0 = PRIMES[0]
    reduced = _tracing_rref(monkeypatch)
    # x^2 - (2 + 1/p0) x + 2/p0 vanishes at both points
    got = _matches_exact_elimination(_q([(rational(1, p0),), (2,)]),
                                     [(0,), (1,), (2,)])
    assert len(got) == 1
    assert p0 not in reduced
    assert reduced[0] == PRIMES[1]


def test_bad_prime_fails_certificate_and_escalates(monkeypatch):
    p0 = PRIMES[0]
    reduced = _tracing_rref(monkeypatch)
    # the points coincide mod p0: {1, x} has rank 2 over Q and 1 mod p0,
    # and p0's free vector x does not annihilate the matrix mod PRIMES[1]
    got = _matches_exact_elimination(_q([(0,), (p0,)]), [(0,), (1,)])
    assert got == []
    # the round escalated past p0, and reduced each prime once
    assert reduced == list(PRIMES[:2])


def test_escalation_reuses_reductions(monkeypatch):
    """No (prime, matrix shape) pair is reduced twice within one call.
    On Table-1 k = 8's anchor samples at degree 9 one walk settles the
    structure: bounded_relations lifts every lead through its layer, and
    buchberger_moeller's closure leads lie above the last normal
    monomial."""
    pts = program_samples("loopbench/programs/family8.loop",
                          _random_point(2, random.Random(0)), 55)
    reduced = []
    real = vanishing.rref_mod_p
    monkeypatch.setattr(vanishing, "rref_mod_p",
                        lambda M, p: reduced.append((p, M.shape)) or real(M, p))
    for call in (bounded_relations, buchberger_moeller):
        reduced.clear()
        walk = VanishingWalk(pts, ("x", "y"))
        call(walk, 9)
        assert list(walk.walks) == [PRIMES[0]]
        # the call escalated past the first batch of two primes
        assert len({p for p, _ in reduced}) > 2
        assert max(Counter(reduced).values()) == 1


def test_anchoring_probe_reduces_each_layer_once(monkeypatch):
    """The anchoring probe's bounded_relations and buchberger_moeller run
    over one walk, so no (prime, layer) is reduced twice."""
    path = "loopbench/programs/family8.loop"
    program = parse_program((ROOT / path).read_text())
    point = _random_point(2, random.Random(0))
    pts = program_samples(path, point, 55)
    runner = _ProbeRunner(program, to_transition_system(program), 9, 0, True)
    reduced = []
    real = vanishing.rref_mod_p
    monkeypatch.setattr(vanishing, "rref_mod_p",
                        lambda M, p: reduced.append((p, M.shape)) or real(M, p))
    assert runner._search(point, pts)
    assert runner.reference_report.min_degree == 9
    # a layer's matrix is (candidates, points left + candidates), and every
    # layer but the last leaves fewer points, so at one prime the shape
    # names the layer
    assert len({p for p, _ in reduced}) > 2
    assert max(Counter(reduced).values()) == 1


# --- bad primes in the walk ---------------------------------------------

def _walk_matches_reference(S, variables, cap=None):
    """buchberger_moeller at cap (default |S|) against the exact
    reference: the lifted elements, the closure leads and the normal set."""
    walk = VanishingWalk(S, variables)
    cap = len(S) if cap is None else cap
    b = buchberger_moeller(walk, cap)
    ref_basis, ref_normal = exact_bm_reference(S.points, variables)
    lifted = [f for f in ref_basis if sum(f.leading_monomial()) <= cap]
    assert [render(f) for f in b.basis] == [render(f) for f in lifted]
    assert b.closure_leading_monomials == [f.leading_monomial()
                                           for f in ref_basis[len(lifted):]]
    assert list(b.normal_set) == ref_normal
    return walk


def test_walk_drops_a_prime_that_loses_rank():
    # (0, 1) and (p0, 1) coincide mod p0, so its walk ends one point short
    p0 = PRIMES[0]
    S = PointSet([(0, 1), (p0, 1), (1, 2)])
    walk = _walk_matches_reference(S, ("x", "y"))
    assert len(walk.walks[p0].normal) < len(S)


def test_walk_skips_a_prime_dividing_a_denominator():
    p0 = PRIMES[0]
    S = PointSet([(rational(1, p0), 1), (2, 3), (5, 7), (1, 1)])
    walk = _walk_matches_reference(S, ("x", "y"))
    assert walk.walks[p0] is None


def test_walk_in_four_variables():
    # gcd_pair from a rational start: the walk crosses 8 layers in 4 variables
    S = program_samples("programs/gcd_pair.loop", _random_point(2, random.Random(0)), 15)
    walk = _walk_matches_reference(S, ("x", "y", "u", "v"))
    assert {w.degree for w in walk.walks.values()} == {8}


# --- reduced-basis leaders and the support solve ----------------------

@given(point_lists3, st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_basis_leaders_match_divisor_scan(pts, degree):
    # the one-variable-divisor rule picks exactly the dependent monomials
    # that no other dependent monomial divides
    S = PointSet(pts)
    monos = [m for d in range(degree + 1) for m in _degree_monos(3, d)]
    # a basis vector's largest key is its free column
    free = {monos[max(vec)]
            for vec in vanishing.relations(_eval_matrix_of(S.points, monos), len(monos))}
    normal = set(monos) - free
    for fm in free:
        scan = not any(m != fm and monomial_divides(m, fm) for m in free)
        assert vanishing._leads_basis_element(fm, normal) == scan


def test_support_relation_two_relations_is_none():
    # two points on x = 1: both x - 1 and x^2 - 1 live on {1, y, x, x^2}
    S = PointSet([(1, 2), (1, 3)])
    assert support_relation(residue_matrix(S.points, PRIMES[0])[None],
                            [(0, 0), (0, 1), (1, 0), (2, 0)], PRIMES[0]) == [None]


def test_support_relation_zero_t1_is_none():
    # the diagonal's one relation on {1, y, x} is x - y, with no constant
    S = PointSet([(1, 1), (2, 2), (3, 3)])
    assert support_relation(residue_matrix(S.points, PRIMES[0])[None],
                            [(0, 0), (0, 1), (1, 0)], PRIMES[0]) == [None]


@pytest.mark.parametrize("samples, degree", [
    (ex1_samples(), 6),
    (program_samples("programs/countdown.loop", (rational(7, 3),), 6).points, 2),
])
def test_support_relation_matches_bounded_relations(samples, degree):
    S = PointSet(samples)
    [f] = bounded_relations(VanishingWalk(S, ("x", "y")), degree)
    t1 = min(f.terms, key=grlex_key)
    p = PRIMES[0]
    expect = {m: residue(c / f.terms[t1], p) for m, c in f.terms.items()}
    assert support_relation(residue_matrix(S.points, p)[None], list(f.terms), p) == [expect]


def test_stacked_support_relation_matches_one_set_at_a_time(monkeypatch):
    # on {1, y, x, x^2}: y = x^2 + 1 and y = (x^2 + 9x - 4)/6 pin one
    # relation each; the diagonal's one relation x - y has a zero T1
    # coefficient; points on x = 1 carry two relations
    support = [(0, 0), (0, 1), (1, 0), (2, 0)]
    sets = [[(1, 2), (2, 5), (3, 10)], [(1, 1), (2, 2), (3, 3)],
            [(1, 2), (1, 3), (1, 5)], [(1, 1), (2, 3), (4, 6)]]
    p = PRIMES[0]
    stack = np.stack([residue_matrix([tuple(map(rational, pt)) for pt in pts], p)
                      for pts in sets])
    dims = []
    real = vanishing.rref_mod_p
    monkeypatch.setattr(vanishing, "rref_mod_p",
                        lambda M, q: dims.append(M.ndim) or real(M, q))
    one_at_a_time = [support_relation(coords[None], support, p)[0] for coords in stack]
    assert [r is None for r in one_at_a_time] == [False, True, True, False]
    assert dims == [2] * len(sets)
    assert support_relation(stack, support, p) == one_at_a_time
    # the stack was reduced without vanishing.rref_mod_p, which takes
    # one matrix
    assert dims == [2] * len(sets)
    assert support_relation(stack[:0], support, p) == []


# --- the walk's product kernel ------------------------------------------

@pytest.mark.parametrize("p", [PRIMES[0], PRIMES[-1]])
@pytest.mark.parametrize("inner", [1, 31, 32, 33, 63, 64, 65, 129, 255, 256, 257, 513])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_mulmod_matches_integer_reference(p, inner, data):
    """out - A @ B mod p against Python integers, for operands in the
    relaxed range (-p, 2p): canonical residues, relaxed ones, and the
    extremes p - 1, 2p - 1 and -p + 1, which give the largest float64
    partial sums.  The result is congruent to the reference and again in
    (-p, 2p).  Every shape with out no larger than A is reduced per 2^6
    inner terms, below 2^6 * 2^31 * 2^16 = 2^53; for inner sizes up to
    129 the same fill is also run with out wider than A, which is reduced
    once per 2^5 inner terms of A @ low and (2^15 A mod p) @ high, below
    2^5 * 2^31 * 2^15 + 2^5 * 2^31 * 2^16 < 2^53.  The inner sizes
    straddle one and several blocks of either kind."""
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    fill = data.draw(st.sampled_from(["residues", "relaxed", "extremes", "top"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def entries(shape):
        if fill == "top":
            return np.full(shape, 2 * p - 1, dtype=np.int64)
        if fill == "extremes":
            return rng.choice(np.array([p - 1, 2 * p - 1, -p + 1]), size=shape)
        return rng.integers(0 if fill == "residues" else -p + 1,
                            p if fill == "residues" else 2 * p, size=shape, dtype=np.int64)

    shapes = [(rows, cols)]
    if inner <= 129:
        shapes.append((rows, inner + data.draw(st.integers(1, 4))))
    for rows, cols in shapes:
        A, B = entries((rows, inner)), entries((inner, cols))
        C = np.zeros((rows, cols), dtype=np.int64)
        if data.draw(st.booleans()):
            C = entries((rows, cols))
        got = vanishing._mulmod(C.astype(np.float64), A.astype(np.float64),
                                B.astype(np.float64), p)
        # object arrays multiply as Python integers
        expect = (C.astype(object) - A.astype(object) @ B.astype(object)) % p
        assert got.dtype == np.float64 and (np.floor(got) == got).all()
        assert ((-p < got) & (got < 2 * p)).all()
        assert [[int(x) % p for x in row] for row in got.tolist()] == expect.tolist()


@given(st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=20), st.randoms())
@settings(max_examples=30, deadline=None)
def test_walk_ignores_point_order(pts, rnd):
    """The walk keeps its pivot points first by permuting the points; a
    shuffled point set gives the same normal set, leads and basis."""
    S = PointSet(pts)
    shuffled = list(S.points)
    rnd.shuffle(shuffled)
    variables = ("x", "y", "z")
    got = VanishingWalk(PointSet(shuffled), variables).certified(None, len(S))
    assert got == VanishingWalk(S, variables).certified(None, len(S))


# --- escalation -----------------------------------------------------------

def test_escalation_adds_one_prime_per_round():
    asked = []
    assert vanishing._escalating(lambda n: asked.append(n) or (n if n == 5 else None), 2) == 5
    assert asked == [2, 3, 4, 5]
    asked.clear()
    with pytest.raises(RuntimeError, match="prime budget exhausted"):
        vanishing._escalating(asked.append, 1)
    assert asked == list(range(1, len(PRIMES) + 1))


def test_certificate_refuses_a_corrupted_lift(monkeypatch):
    """A lifted element whose lead coefficient is off by one does not
    vanish on the samples: the exact certificate refuses the round, the
    next round adds one prime, and only exact elements are kept."""
    S = PointSet(ex1_samples())
    variables = ("x", "y")
    real_lift, real_round = vanishing._lift, VanishingWalk._round
    corrupted, rounds = [], []

    def corrupting(residues, moduli):
        vec = real_lift(residues, moduli)
        if vec is not None and not corrupted:
            vec[next(iter(vec))] += 1       # the lead comes first
            corrupted.append(Polynomial(variables, vec))
        return vec

    def recording(self, through, lift, nprimes):
        out = real_round(self, through, lift, nprimes)
        rounds.append((nprimes, out is not None))
        return out

    monkeypatch.setattr(vanishing, "_lift", corrupting)
    monkeypatch.setattr(VanishingWalk, "_round", recording)
    walk = VanishingWalk(S, variables)
    normal, _, basis = walk.certified(6, 6)
    assert rounds == [(2, False), (3, True)]
    ref_basis, ref_normal = exact_bm_reference(S.points, variables, 6)
    assert [render(f) for f in basis] == [render(f) for f in ref_basis]
    assert list(normal) == ref_normal
    assert corrupted and corrupted[0] not in walk.elements.values()


def _bernoulli(m):
    """Bernoulli numbers B_0..B_m, with B_1 = -1/2."""
    B = [rational(1)]
    for k in range(1, m + 1):
        B.append(-sum(comb(k + 1, j) * B[j] for j in range(k)) / (k + 1))
    return B


def test_powersum25_at_degree_26_walks_one_prime():
    """x += y^25: the first walk settles the structure, since its
    degree-26 lead is lifted and the others are above its last normal
    monomial; two primes reduce on the lead's support instead of
    walking, and the certified element is Faulhaber's formula."""
    program = parse_program((ROOT / "loopbench/programs/powersum25.loop").read_text())
    ts = to_transition_system(program)
    init = [program.init[v].evaluate(()) for v in ts.V]
    pts = collect_samples(ts, init, comb(len(ts.V) + 26, 26))
    walk = VanishingWalk(pts, ts.V)
    b = buchberger_moeller(walk, 26)
    assert b.min_degree == 26
    assert list(walk.walks) == [PRIMES[0]]
    assert {p for p, _ in walk.reductions} == {PRIMES[1], PRIMES[2]}
    # 26 * sum_{i<y} i^25 = sum_{j<26} C(26, j) B_j y^(26-j)
    B = _bernoulli(25)
    terms = {(1, 0): rational(-26)}
    terms.update(((0, 26 - j), comb(26, j) * B[j]) for j in range(26) if B[j])
    assert [render(f) for f in b.basis] == [render(Polynomial(ts.V, terms))]


# --- added primes reduce on the support -------------------------------------

GCD_PAIR = ("programs/gcd_pair.loop", 15, ("x", "y", "u", "v"))


@pytest.mark.parametrize("path, count, variables, degree", [
    # Table-1 k = 8's anchor samples at a rational start, through its bound
    ("loopbench/programs/family8.loop", 55, ("x", "y"), 9),
    # gcd_pair's whole basis
    GCD_PAIR + (None,),
])
def test_added_primes_reduce_instead_of_walking(path, count, variables, degree):
    S = program_samples(path, _random_point(2, random.Random(0)), count)
    walk = VanishingWalk(S, variables)
    normal, _, basis = walk.certified(degree, degree or len(S))
    ref_basis, ref_normal = exact_bm_reference(S.points, variables, degree)
    assert [render(f) for f in basis] == [render(f) for f in ref_basis]
    assert list(normal) == ref_normal
    # one walk settles the structure: every later prime is reduced, once
    assert list(walk.walks) == [PRIMES[0]]
    reduced = [p for p, _ in walk.reductions]
    assert reduced == list(PRIMES[1:1 + len(reduced)]) and reduced


def test_added_prime_walks_when_the_support_misses_a_monomial(monkeypatch):
    """A reduction on a support without one of the leads' normal
    monomials does not free exactly the leads, so the added prime walks,
    and the certified basis is the same."""
    real = VanishingWalk._reduced

    def dropping(self, p, support, leads):
        normal = [m for m in support if m not in leads]
        return real(self, p, tuple(m for m in support if m != normal[-1]), leads)

    monkeypatch.setattr(VanishingWalk, "_reduced", dropping)
    path, count, variables = GCD_PAIR
    S = program_samples(path, _random_point(2, random.Random(0)), count)
    walk = _walk_matches_reference(S, variables)
    assert len(walk.walks) > 2
    assert all(walk.walks[p] is not None for p, _ in walk.reductions)


# --- when one walk settles the structure ----------------------------------

@pytest.mark.parametrize("cap", [1, 2, 3])
def test_false_lead_below_a_full_normal_set_is_refused(cap):
    """(0, 0), (1, 1 + p0), (2, 2) lie on x = y mod p0, so p0's walk
    reaches |S| with normal set {1, y, y^2} and a false degree-1 lead x.
    Its unlifted leads lie above y^2, so the one walk settles the
    structure only if x - y certifies; it does not, so further primes
    walk until the exact structure {1, y, x} wins."""
    p0 = PRIMES[0]
    S = PointSet([(0, 0), (1, 1 + p0), (2, 2)])
    walk = _walk_matches_reference(S, ("x", "y"), cap)
    assert walk.walks[p0].leads[0] == (1, 0) and len(walk.walks[p0].normal) == len(S)
    assert len(walk.walks) > 1
    assert exact_bm_reference(S.points, ("x", "y"))[1] == [(0, 0), (0, 1), (1, 0)]


@pytest.mark.parametrize("cap, walks", [(2, 2), (3, 2), (8, 1)])
def test_closure_leads_below_the_last_normal_monomial_need_two_walks(cap, walks):
    """gcd_pair's samples: at caps 2 and 3 an unlifted lead lies below
    the last normal monomial, so the structure rests on two agreeing
    walks; at cap 8 every lead is lifted and one walk settles it."""
    path, count, variables = GCD_PAIR
    S = program_samples(path, _random_point(2, random.Random(0)), count)
    walk = _walk_matches_reference(S, variables, cap)
    assert list(walk.walks) == list(PRIMES[:walks])
