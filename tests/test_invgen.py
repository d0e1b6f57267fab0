import json
import random
from pathlib import Path

import pytest

import loopinv.invgen as invgen
from loopinv import cli
from loopinv.frontend import parse_program, to_transition_system
from loopinv.invgen import (
    _ProbeRunner, _verify_parametric, invgen_numeric, invgen_symbolic,
)
from loopinv.polyring import Polynomial, divide, grlex_key, rational, render
from loopinv.ratinterp import InterpolationError, RationalFunction
from loopinv.executor import collect_samples, residue_samples
from loopinv.vanishing import PRIMES, residue, residue_matrix, support_relation

ROOT = Path(__file__).resolve().parents[1]
PROGRAMS = ROOT / "programs"
FAMILY8 = ROOT / "loopbench/programs/family8.loop"


def _program(name):
    return parse_program((PROGRAMS / name).read_text())


def _reduce(f, basis):
    changed = True
    while changed and not f.is_zero():
        changed = False
        for g in basis:
            q, r = divide(f, g)
            if not q.is_zero():
                f = r
                changed = True
    return f


def test_powersum_numeric_golden():
    report = invgen_numeric(_program("powersum.loop"), 7, seed=17)
    assert report.candidates_total == 6
    assert report.min_degree == 6
    assert report.sample_count == 36
    assert not report.shortfall
    assert len(report.invariants) == 1
    poly, quotients = report.invariants[0]
    assert render(poly) == "-12*x + 2*y^6 - 6*y^5 + 5*y^4 - y^2"
    assert report.rejected_stage1 + report.rejected_stage2 == 0
    assert report.nonexistence_note is None
    ts = to_transition_system(_program("powersum.loop"))
    assert poly.substitute(ts.transitions[0].update) == quotients[0].mul(poly)


def test_constant_loop_fixed_point():
    report = invgen_numeric(parse_program("vars x; init x := 0; loop x := x; end"), 1)
    assert report.shortfall
    assert any(render(poly) == "x" for poly, _ in report.invariants)


def _gcd_src(a, b):
    return f"""\
vars x, y, u, v;
init x := {a}, y := {b}, u := {b}, v := {a};
guard x != y;
loop
  if x > y then
    (x, y, u, v) := (x - y, y, u, u + v);
  else
    (x, y, u, v) := (x, y - x, u + v, v);
  end
end
"""


def test_gcd_numeric_instantiation():
    report = invgen_numeric(parse_program(_gcd_src("783/65", "262/121")), 2, seed=5)
    assert len(report.invariants) == 1
    poly, _ = report.invariants[0]
    terms = dict(poly.terms)
    c_xu = terms[(1, 0, 1, 0)]
    c_yv = terms[(0, 1, 0, 1)]
    c_1 = terms[(0, 0, 0, 0)]
    assert c_xu == c_yv
    # normalized form is 1 - (1/2ab) xu - (1/2ab) yv
    two_ab = 2 * rational(783, 65) * rational(262, 121)
    assert c_xu / c_1 == -1 / two_ab


def test_gcd_numeric_degenerate_instantiation():
    # subtractive runs keep most coordinates frozen, so the first
    # iterates can sit on a low-dimensional slice: the sample ideal then
    # has many spurious degree-2 elements and the conserved bilinear is
    # a combination of basis elements rather than one of them; every
    # candidate gets rejected, which is the sound outcome
    from loopinv.executor import collect_samples
    from loopinv.vanishing import VanishingWalk, buchberger_moeller

    program = parse_program(_gcd_src("287/253", "751/890"))
    report = invgen_numeric(program, 2, seed=5)
    assert report.sample_count == 15
    assert not report.shortfall
    assert report.invariants == []
    assert report.nonexistence_note is not None
    assert report.rejected_stage1 + report.rejected_stage2 > 1
    # the bilinear is still in the sample ideal, just not basis-emitted
    ts = to_transition_system(program)
    init = [program.init[v].evaluate(()) for v in ts.V]
    pts = collect_samples(ts, init, 15)
    vb = buchberger_moeller(VanishingWalk(pts, ts.V), len(pts))
    a, b = rational(287, 253), rational(751, 890)
    variables = ("x", "y", "u", "v")
    from loopinv.polyring import Polynomial
    x, y, u, v = (Polynomial.variable(variables, n) for n in variables)
    bilinear = x.mul(u).add(y.mul(v)).sub(
        Polynomial.constant(variables, 2 * a * b))
    assert _reduce(bilinear, vb.basis).is_zero()


def test_numeric_rejects_parametric_programs():
    with pytest.raises(ValueError):
        invgen_numeric(_program("countdown.loop"), 2)
    with pytest.raises(ValueError):
        invgen_symbolic(_program("powersum.loop"), 2)
    with pytest.raises(ValueError):
        invgen_numeric(_program("powersum.loop"), 0)


def test_countdown_symbolic():
    report = invgen_symbolic(_program("countdown.loop"), 2, seed=23)
    assert len(report.invariants) == 1
    poly, quotients = report.invariants[0]
    assert render(poly) == "2*x + r^2 - r - a"
    assert all(q.total_degree() == 0 for q in quotients)
    assert report.nonexistence_note is None
    assert report.instantiations > 1


def test_gcd_symbolic():
    report = invgen_symbolic(_program("gcd_pair.loop"), 2, seed=23)
    assert len(report.invariants) == 1
    poly, quotients = report.invariants[0]
    assert render(poly) == "x*u + y*v - 2*a*b"
    assert len(quotients) == 2


@pytest.mark.parametrize("seed", range(10))
def test_gcd_symbolic_reference_matches_numeric_run(seed):
    # at every seed here but 0 and 7 the first instantiation that samples
    # in full is degenerate and verifies nothing (at seed 1 its ideal has
    # a degree-1 element and 7 basis elements); the report must describe
    # the instantiation it names, not that one
    report = invgen_symbolic(_program("gcd_pair.loop"), 2, seed=seed)
    assert [render(poly) for poly, _ in report.invariants] == ["x*u + y*v - 2*a*b"]
    a, b = report.reference_instantiation
    numeric = invgen_numeric(parse_program(_gcd_src(a, b)), 2,
                             ignore_guard=True)

    def fields(r):
        return (r.min_degree, r.candidates_total, r.rejected_stage1,
                r.rejected_stage2, r.sample_count, r.shortfall)

    assert fields(report) == fields(numeric)
    assert report.samples.points == numeric.samples.points


def test_parametric_initiation_is_exact():
    # 2*x + r^2 - r - c*a passes countdown's consecution for every c;
    # only the initiation identity pins c = 1
    program = _program("countdown.loop")
    ts = to_transition_system(program)
    joint = ts.V + program.params
    for c, verdict in ((1, None), (2, "initiation"), (0, "initiation")):
        eta = Polynomial(joint, {(1, 0, 0): rational(2), (0, 2, 0): rational(1),
                                 (0, 1, 0): rational(-1), (0, 0, 1): rational(-c)})
        checked = _verify_parametric(eta, program, ts)
        if verdict is None:
            assert checked[0] == eta
        else:
            assert checked == verdict
    wrong = Polynomial(joint, {(1, 0, 0): rational(1), (0, 0, 1): rational(-1)})
    assert _verify_parametric(wrong, program, ts) == "consecution"


def test_linear_powersum_family_smallest():
    src = """\
vars x, y;
params a, b;
init x := a, y := b;
loop
  (x, y) := (x + y, y + 1);
end
"""
    report = invgen_symbolic(parse_program(src), 2, seed=23)
    rendered = {render(poly) for poly, _ in report.invariants}
    assert "-2*x + y^2 - y + 2*a - b^2 + b" in rendered


def test_symbolic_monotone_in_degree():
    for name, golden in (("countdown.loop", "2*x + r^2 - r - a"),
                         ("gcd_pair.loop", "x*u + y*v - 2*a*b")):
        report = invgen_symbolic(_program(name), 3, seed=31)
        rendered = {render(poly) for poly, _ in report.invariants}
        assert golden in rendered


def test_numeric_monotone_in_degree():
    low = invgen_numeric(_program("powersum.loop"), 7, seed=17)
    high = invgen_numeric(_program("powersum.loop"), 8, seed=17)
    high_polys = [poly for poly, _ in high.invariants]
    for poly, _ in low.invariants:
        assert _reduce(poly, high_polys).is_zero()


def test_initiation_holds():
    report = invgen_numeric(_program("powersum.loop"), 7, seed=3)
    for poly, _ in report.invariants:
        assert poly.evaluate((rational(0), rational(0))) == 0


def test_nonexistence_note_structure():
    # shift by an irrational-free but non-algebraic-on-samples update:
    # x grows like 2^n, whose first iterates satisfy no degree-1 relation
    # with enough samples
    src = "vars x; init x := 1; loop x := 2*x; end"
    report = invgen_numeric(parse_program(src), 1, seed=0)
    assert report.invariants == []
    note = report.nonexistence_note
    assert note is not None
    assert note["degree_bound"] == 1
    assert note["min_vanishing_degree"] == report.min_degree
    assert "degree" in note["claim"]


def test_symbolic_determinism():
    a = invgen_symbolic(_program("countdown.loop"), 2, seed=7)
    b = invgen_symbolic(_program("countdown.loop"), 2, seed=7)
    assert [(render(p), [render(q) for q in qs]) for p, qs in a.invariants] == \
        [(render(p), [render(q) for q in qs]) for p, qs in b.invariants]
    assert a.instantiations == b.instantiations


# --- modular probes -------------------------------------------------------

COINCIDING = (f"vars x, y;\n"
              f"params a;\n"
              f"init x := a, y := a + 1;\n"
              f"loop\n"
              f"  (x, y) := (x + {PRIMES[0]}, y + {PRIMES[0]});\n"
              f"end\n")


def test_probe_falls_back_to_the_exact_run(monkeypatch):
    # every state is (a, a + 1) mod PRIMES[0]: the residue run falls back
    # to the exact run, made once per point, which PRIMES[0] cannot read
    program = parse_program(COINCIDING)
    ts = to_transition_system(program)
    runner = _ProbeRunner(program, ts, 1, 0, True)
    assert runner.anchor() is not None
    runs = []
    real = invgen.collect_samples
    monkeypatch.setattr(invgen, "collect_samples",
                        lambda *args: runs.append(args) or real(*args))
    point = runner.pool.number((rational(5, 11),))
    assert runner.probe([point]) == [frozenset(runner.track_keys)]
    assert runner.residues([point], PRIMES[0]) == [None]
    assert runner.residues([point], PRIMES[1])[0]
    assert len(runs) == 1
    assert runner.runs[point].points == real(*runs[0]).points
    report = invgen_symbolic(program, 1)
    assert [render(poly) for poly, _ in report.invariants] == ["x - y + 1"]


def test_wrong_reconstruction_fails_the_exact_proof(monkeypatch):
    # a fit that is off by one in one coefficient must cost the invariant,
    # and the note names the exact check that caught it
    real = invgen.interpolate_rational
    calls = []

    def perturbed(*args, **kwargs):
        rf = real(*args, **kwargs)
        calls.append(rf)
        if len(calls) > 1:
            return rf
        return RationalFunction(rf.num.add(rf.den), rf.den)

    monkeypatch.setattr(invgen, "interpolate_rational", perturbed)
    program = parse_program("vars x, y;\nparams a, b;\ninit x := a, y := b;\n"
                            "loop\n  (x, y) := (x + y^2, y + 1);\nend\n")
    report = invgen_symbolic(program, 3, interp_cfg=((0, 0), (1, 3)))
    assert calls
    assert report.invariants == []
    failures = report.nonexistence_note["failures"]
    assert any("consecution failed" in f or "initiation failed" in f
               for f in failures)


def test_failed_fit_is_noted_and_costs_the_invariant(monkeypatch, capsys, tmp_path):
    # Table-1 k = 2 has one invariant: a coefficient whose fit fails costs
    # it, the run exits 1, and the note carries the fit's message
    real = invgen.interpolate_rational
    labels = []

    def failing(*args, label, **kwargs):
        labels.append(label)
        if len(labels) == 1:
            raise InterpolationError(f"{label}: planted failure")
        return real(*args, label=label, **kwargs)

    monkeypatch.setattr(invgen, "interpolate_rational", failing)
    path = tmp_path / "k2.loop"
    path.write_text("vars x, y;\nparams a, b;\ninit x := a, y := b;\n"
                    "loop\n  (x, y) := (x + y^2, y + 1);\nend\n")
    code = cli.main(["--program", str(path), "--degree", "3", "--format", "json",
                     "--interp-num-deg", "0,0", "--interp-den-deg", "1,3"])
    doc = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_NONE
    assert doc["invariants"] == []
    assert doc["nonexistence"]["failures"] == [f"{labels[0]}: planted failure"]


# --- the probes' prefix read ----------------------------------------------

def _anchored_runner(path, e):
    """A probe runner whose tracks are fixed, as invgen_symbolic fixes them."""
    program = parse_program(path.read_text())
    runner = _ProbeRunner(program, to_transition_system(program), e, 0, True)
    assert runner.anchor() is not None
    return runner


def _full_run_solve(runner, i, p):
    """The tracks' relations mod p on the whole residue run of point i, or
    on its exact run where residue_samples cannot stand in for it."""
    init = runner._init(runner.pool[i])
    coords = residue_samples(runner.ts, init, runner.target, runner.ignore_guard, p)
    if coords is None:
        pts = collect_samples(runner.ts, init, runner.target, runner.ignore_guard)
        coords = residue_matrix(pts.points, p)
    return {key: rel for key in runner.track_keys
            if (rel := support_relation(coords[None], key[0], p)[0]) is not None}


@pytest.mark.parametrize("path, degree", [(FAMILY8, 9), (PROGRAMS / "countdown.loop", 2),
                                          (PROGRAMS / "gcd_pair.loop", 2)])
def test_probe_prefix_read_matches_full_run(monkeypatch, path, degree):
    runner = _anchored_runner(path, degree)
    rows = []
    # coords is a stack of point sets, each of coords.shape[1] states
    monkeypatch.setattr(invgen, "support_relation",
                        lambda coords, *args: rows.append(coords.shape[1]) or support_relation(coords, *args))
    for k in range(20, 25):
        i = runner.pool.random(k)
        for p in PRIMES[:3]:
            assert runner.residues([i], p) == [_full_run_solve(runner, i, p)]
    # family8 reads |support| + 3 = 14 of its 55 states, gcd_pair 6 of
    # its 15; countdown has 6
    assert max(rows) <= min(runner.target,
                            max(len(key[0]) for key in runner.track_keys) + 3)


def test_probe_rereads_the_full_run_when_the_prefix_fails(monkeypatch):
    runner = _anchored_runner(FAMILY8, 9)
    s = runner.target
    rows = []

    def full_only(coords, support, p):
        rows.append(coords.shape[1])
        if coords.shape[1] == s:
            return support_relation(coords, support, p)
        return [None] * len(coords)

    monkeypatch.setattr(invgen, "support_relation", full_only)
    runs = []
    real = invgen.collect_samples
    monkeypatch.setattr(invgen, "collect_samples",
                        lambda *args: runs.append(args) or real(*args))
    i = runner.pool.random(30)
    [got] = runner.residues([i], PRIMES[0])
    # the full read is the point's exact run, made once
    assert [args[1:] for args in runs] == [
        (runner._init(runner.pool[i]), runner.target, runner.ignore_guard)]
    assert got and got == _full_run_solve(runner, i, PRIMES[0])
    assert rows[0] < s and rows[-1] == s


@pytest.mark.parametrize("path, degree", [(FAMILY8, 9), (PROGRAMS / "countdown.loop", 2)])
def test_batch_reads_match_one_point_at_a_time(monkeypatch, path, degree):
    batched, single = _anchored_runner(path, degree), _anchored_runner(path, degree)
    ids = [batched.pool.random(k) for k in range(20, 32)]
    assert [single.pool.random(k) for k in range(20, 32)] == ids
    assert batched.probe(ids) == [single.probe([i])[0] for i in ids]
    # points asked for together at a prime are read in one _read, whose
    # support solves stack them
    reads, stacks = [], []
    real_read = batched._read
    monkeypatch.setattr(batched, "_read",
                        lambda ids, p: reads.append((list(ids), p)) or real_read(ids, p))
    monkeypatch.setattr(invgen, "support_relation",
                        lambda coords, *args: stacks.append(len(coords)) or support_relation(coords, *args))
    assert batched.residues(ids, PRIMES[1]) == [single.residues([i], PRIMES[1])[0] for i in ids]
    assert reads == [(ids, PRIMES[1])]
    assert max(stacks) > 1
    assert all((i, PRIMES[1]) in batched.mod for i in ids)
    for i in ids:
        for p in PRIMES[:2]:
            assert batched.residues([i], p) == single.residues([i], p)
    assert len(batched.cache) == len(single.cache)


@pytest.mark.parametrize("path, degree", [(FAMILY8, 9), (PROGRAMS / "countdown.loop", 2),
                                          (PROGRAMS / "gcd_pair.loop", 2)])
def test_anchor_read_mod_p_matches_its_invariants(path, degree):
    # the anchoring point is read mod p like every other point, and gives
    # the residues of its report's invariants scaled to T1 = 1
    runner = _anchored_runner(path, degree)
    report = runner.reference_report
    anchor = runner.pool.number(report.reference_instantiation)
    for p in PRIMES[:2]:
        expected = {}
        for eta, _ in report.invariants:
            t1 = eta.terms[min(eta.terms, key=grlex_key)]
            expected[frozenset(eta.terms), eta.leading_monomial()] = {
                mono: residue(c / t1, p) for mono, c in eta.terms.items()}
        assert runner.residues([anchor], p) == [expected]


def test_anchor_counts_when_no_fit_reads_it(capsys, tmp_path):
    # the one track, x, has no coefficient to fit, so no fit reads a point;
    # the anchoring point is still an instantiation probed
    path = tmp_path / "doubling.loop"
    path.write_text("vars x, y; params a; init x := 0, y := a; "
                    "loop (x, y) := (2*x, y + 1); end\n")
    assert cli.main(["--program", str(path), "--degree", "1"]) == 0
    assert "instantiations probed: 1\n" in capsys.readouterr().out


# --- one read per prime, and fit reuse --------------------------------------

def test_no_point_is_solved_alone_at_a_further_prime(monkeypatch, capsys):
    # Table-1 k = 2 without bounds: detection reads the anchoring point as
    # its base at PRIMES[0], and the fit asks for it at PRIMES[1] together
    # with its other points
    stacks = []
    monkeypatch.setattr(invgen, "support_relation",
                        lambda coords, support, p: stacks.append((p, len(coords)))
                        or support_relation(coords, support, p))
    path = ROOT / "loopbench/programs/family2.loop"
    assert cli.main(["--program", str(path), "--degree", "3"]) == 0
    assert "invariant: " in capsys.readouterr().out
    assert any(p == PRIMES[1] for p, _ in stacks)
    assert (PRIMES[1], 1) not in stacks


@pytest.mark.parametrize("args, fits, coefficients", [
    (["loopbench/programs/family10.loop", "--degree", "11",
      "--interp-num-deg", "0,0", "--interp-den-deg", "1,11"], 6, 8),
    (["programs/gcd_pair.loop", "--degree", "2"], 1, 2),
])
def test_equal_coefficients_share_one_fit(monkeypatch, capsys, args, fits, coefficients):
    # a coefficient whose residues equal an earlier one's takes its
    # function, and prints what fitting it again prints
    argv = ["--program", str(ROOT / args[0])] + args[1:]
    calls = []
    real = invgen.interpolate_rational
    monkeypatch.setattr(invgen, "interpolate_rational",
                        lambda *a, **k: calls.append(k["label"]) or real(*a, **k))
    assert cli.main(argv) == 0
    shared = capsys.readouterr().out
    assert len(calls) == fits
    calls.clear()
    monkeypatch.setattr(invgen, "_fit_track",
                        lambda runner, key, monos, fit: [fit(key, mono) for mono in monos])
    assert cli.main(argv) == 0
    assert len(calls) == coefficients
    assert capsys.readouterr().out == shared
