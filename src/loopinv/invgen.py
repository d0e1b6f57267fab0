"""End-to-end invariant generation pipelines.

Numeric pipeline: execute the loop exactly, build the vanishing-ideal
basis of the samples, keep candidates within the degree bound, and
verify polynomial-scale consecution per transition.

Symbolic pipeline: instantiate the parameters with random rationals, run
the numeric pipeline until one instantiation verifies invariants, which
fixes their supports; every instantiation, that one included, is then
read modulo primes, where it solves for the unique sample relation on
each support, and each coefficient is recovered as a rational function
of the parameters from those residues.  The interpolation asks for a
list of points at one prime, and the points of one call are solved
together; a coefficient that agrees with an earlier one of its invariant
wherever that invariant was read shares its function.  The parametric
result is then proved exactly (consecution, and initiation as an
identity in the parameters), so a residue never reaches a report
unproved.  The while-guard is suspended during symbolic sampling by
default (branch conditions still apply), because parameter
instantiations are generic rationals for which the guard rarely delimits
anything meaningful.
"""

from __future__ import annotations

import hashlib
import random
from math import comb
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from loopinv.divisibility import consecution, filter_and_verify
from loopinv.executor import collect_samples, residue_samples
from loopinv.frontend import LoopProgram, to_transition_system
from loopinv.polyring import (
    Polynomial, clear_content, grlex_key, rational, render,
    sign_normalize,
)
from loopinv.ratinterp import (
    InterpolationError, PointPool, RationalFunction, clear_denominators,
    interpolate_rational, lift_to,
)
from loopinv.vanishing import (
    PRIMES, PointSet, VanishingWalk, bounded_relations, buchberger_moeller,
    residue_matrix, support_relation,
)

# degenerate instantiations are common for branchy programs (early
# iterates can sit on a low-dimensional slice), so budgets stay generous
PROBE_RETRY_CAP = 60
PROBE_FAILURE_BUDGET = 200


class InvariantReport:
    """What one pipeline run found, and the samples it found it on.

    samples is the PointSet the run collected (in symbolic mode, at
    reference_instantiation, the parameter point whose verified
    invariants anchored the supports), or None when no instantiation
    verified anything.  instantiations counts the parameter points
    probed; it is 0 in numeric mode.
    """

    __slots__ = ("invariants", "min_degree", "degree_bound", "candidates_total",
                 "rejected_stage1", "rejected_stage2", "samples",
                 "nonexistence_note", "instantiations", "reference_instantiation")

    def __init__(self, invariants, min_degree, degree_bound, candidates_total,
                 rejected_stage1, rejected_stage2, samples,
                 nonexistence_note=None, instantiations=0,
                 reference_instantiation=None):
        # list of (Polynomial, quotients); quotients is always a list of
        # exact quotients, one per transition
        self.invariants = invariants
        self.min_degree = min_degree
        self.degree_bound = degree_bound
        self.candidates_total = candidates_total
        self.rejected_stage1 = rejected_stage1
        self.rejected_stage2 = rejected_stage2
        self.samples: Optional[PointSet] = samples
        self.nonexistence_note = nonexistence_note
        self.instantiations = instantiations
        self.reference_instantiation = reference_instantiation

    @property
    def sample_count(self) -> int:
        return 0 if self.samples is None else len(self.samples)

    @property
    def stop(self) -> Optional[str]:
        return None if self.samples is None else self.samples.stop

    @property
    def shortfall(self) -> bool:
        return self.stop is not None


def _derived_seed(seed: int, tag: str) -> int:
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _nonexistence(min_degree, e) -> dict:
    return {
        "min_vanishing_degree": min_degree,
        "degree_bound": e,
        "claim": (f"every polynomial vanishing on the samples has degree >= "
                  f"{min_degree}, so no invariant of lower degree exists; "
                  f"no candidate of degree <= {e} passed verification"),
    }


def _report(walk: VanishingWalk, ts, e: int, rng: random.Random) -> InvariantReport:
    """The report of one run on the walk's samples: their vanishing-ideal
    basis, lifted through degree e, and the elements that pass
    filter_and_verify under rng, each content-cleared with a positive
    grlex-leading coefficient."""
    vb = buchberger_moeller(walk, e)
    verified, r1, r2 = filter_and_verify(
        vb.basis, [tr.update for tr in ts.transitions], rng)
    pts = walk.samples
    invariants = []
    for eta, quotients in verified:
        out = sign_normalize(clear_content(eta))
        assert out.evaluate(pts.points[0]) == 0
        invariants.append((out, quotients))
    note = None if invariants else _nonexistence(vb.min_degree, e)
    return InvariantReport(invariants, vb.min_degree, e, vb.basis_size,
                           len(r1), len(r2), pts, note)


def invgen_numeric(p: LoopProgram, e: int, seed: int = 0, *,
                   ignore_guard: bool = False) -> InvariantReport:
    if p.params:
        raise ValueError("program has symbolic parameters; use invgen_symbolic")
    if e < 1:
        raise ValueError("degree bound must be at least 1")
    ts = to_transition_system(p)
    init = [p.init[v].evaluate(()) for v in ts.V]
    # one sample per monomial of degree <= e
    pts = collect_samples(ts, init, comb(len(ts.V) + e, e), ignore_guard)
    return _report(VanishingWalk(pts, ts.V), ts, e,
                   random.Random(_derived_seed(seed, "filter")))


# --- symbolic pipeline ------------------------------------------------

class _ProbeRunner:
    """Memoized probes at parameter instantiations.

    Every coefficient's interpolation reads the points of one PointPool,
    so one probe per instantiation (and prime) serves them all, and
    every cache keys a point by its number in the pool.  A track is an
    invariant's (support, leading monomial); a probe yields, per track,
    its coefficients mod p scaled so that the minimal support monomial
    T1 has coefficient 1.

    anchor probes random points exactly, one at a time, until one verifies
    an invariant: each searches its degree-bounded relations for one that
    passes consecution, and the first that finds one anchors the reference
    report (the only probe whose rejections filter_and_verify labels) and
    fixes the tracks.  Every point, the anchoring one included, is then
    read modulo primes by one rule.  Its states at p are its first
    count = min(s, max |support| + 3) states: from
    executor.residue_samples where that can stand in for the exact run,
    else from the point's exact run, made once (the anchor attempts keep
    theirs).  The support solve mod p runs on them per track, and only
    where they do not pin every track are all s states of the exact run
    solved.  The black box of each coefficient is probe(ids) and
    residues(ids, p): the points that one call asks for and p has not
    read are read together, and their state sets of one length share one
    stacked support_relation per track.

    A reduced-basis element is, up to scale, the only relation its
    support spans on its samples, and so on the states read wherever the
    normal set keeps full rank mod p: the solve returns the true
    specialization's residues.  The interpolated result is proved exactly
    afterwards, so no per-probe consecution check is needed.

    Which tracks a point pins is decided once.  The anchoring point pins
    every track, a failed anchor attempt none, and any other point the
    tracks read at its first good prime: the first at which its states
    reduce to pairwise distinct residues.  A later prime that disagrees
    reads the track as None there, so the fits drop that prime.
    """

    def __init__(self, p: LoopProgram, ts, e, seed, ignore_guard):
        self.p = p
        self.ts = ts
        self.e = e
        self.seed = seed
        self.target = comb(len(ts.V) + e, e)
        self.ignore_guard = ignore_guard
        self.pool = PointPool(len(p.params), _derived_seed(seed, "points"))
        # the tracks each probed point pins
        self.cache: Dict[int, FrozenSet] = {}
        # the exact runs made, the anchor attempts' among them
        self.runs: Dict[int, PointSet] = {}
        # (point, prime) -> {track: {monomial: residue}}, None where the
        # prime cannot read the point
        self.mod: Dict[Tuple[int, int], Optional[dict]] = {}
        self.reference_report: Optional[InvariantReport] = None
        self.track_keys: List[Tuple[frozenset, tuple]] = []

    def _point_tag(self, point) -> str:
        return ",".join(str(c) for c in point)

    def _init(self, point) -> list:
        return [self.p.init[v].evaluate(point) for v in self.ts.V]

    def anchor(self) -> Optional[InvariantReport]:
        """The reference report, from the first of PROBE_RETRY_CAP fresh
        random points whose exact probe verifies invariants; None when
        none does."""
        for k in range(PROBE_RETRY_CAP):
            i = self.pool.random(k)
            pts = self.runs[i] = collect_samples(
                self.ts, self._init(self.pool[i]), self.target, self.ignore_guard)
            self.cache[i] = frozenset(() if pts.shortfall else self._search(self.pool[i], pts))
            if self.reference_report is not None:
                break
        return self.reference_report

    def probe(self, ids: Sequence[int]) -> List[FrozenSet]:
        """The tracks whose coefficients each of the pool's points ids
        pins.  The points of ids not read before are read together,
        first at PRIMES[0], and those that a prime cannot read go on to
        the next one, again together.  The anchoring point, whose tracks
        are known, joins the first call that asks for it at PRIMES[0];
        the failed anchor attempts pin nothing and are never read."""
        new = [i for i in dict.fromkeys(ids) if i not in self.cache
               or (self.cache[i] and (i, PRIMES[0]) not in self.mod)]
        for p in PRIMES:
            if not new:
                break
            self._read(new, p)
            for i in new:
                if i not in self.cache and self.mod[i, p] is not None:
                    self.cache[i] = frozenset(self.mod[i, p])
            new = [i for i in new if i not in self.cache]
        for i in new:
            self.cache[i] = frozenset()
        return [self.cache[i] for i in ids]

    def residues(self, ids: Sequence[int], p: int) -> List[Optional[dict]]:
        """Per point of ids, {track: {monomial: residue}} mod p for the
        tracks it pins at p; None when p cannot read the point.  The
        points that p has not read yet are read together."""
        self._read(ids, p)
        return [self.mod[i, p] for i in ids]

    def _read(self, ids: Sequence[int], p: int) -> None:
        """Read at p each point of ids that p has not read, into mod: the
        tracks' relations on its first count states, and on all s states
        of its exact run where those do not pin every track."""
        ids = [i for i in dict.fromkeys(ids) if (i, p) not in self.mod]
        if not ids:
            return
        s = self.target
        count = min(s, 3 + max(len(k[0]) for k in self.track_keys))
        coords = {}
        for i in ids:
            rows = None if i in self.runs else residue_samples(
                self.ts, self._init(self.pool[i]), count, self.ignore_guard, p)
            coords[i] = self._exact_rows(i, count, p) if rows is None else rows
        self._solve(coords, p)
        if count < s:
            self._solve({i: self._exact_rows(i, s, p) for i in coords
                         if self.mod[i, p] is not None
                         and len(self.mod[i, p]) < len(self.track_keys)}, p)

    def _exact_rows(self, i: int, count: int, p: int) -> Optional[np.ndarray]:
        """The first count states of point i's exact run, made once, as
        residues mod p; None where they are not pairwise distinct residues,
        and no rows where the run falls short of s states."""
        if i not in self.runs:
            self.runs[i] = collect_samples(
                self.ts, self._init(self.pool[i]), self.target, self.ignore_guard)
        pts = self.runs[i]
        if pts.shortfall:
            return np.zeros((0, len(self.ts.V)), dtype=np.int64)
        rows = residue_matrix(pts.points[:count], p)
        if rows is None or len(set(map(tuple, rows.tolist()))) < len(rows):
            return None
        return rows

    def _solve(self, coords: Dict[int, Optional[np.ndarray]], p: int) -> None:
        """Into mod, the tracks' relations mod p on each point's residue
        rows, one stacked support solve per track and row count.  None
        rows leave the point unread at p, and no rows pin nothing."""
        groups: Dict[int, List[int]] = {}
        for i, rows in coords.items():
            if rows is None:
                self.mod[i, p] = None
            else:
                self.mod[i, p] = {}
                if len(rows):
                    groups.setdefault(len(rows), []).append(i)
        for ids in groups.values():
            stack = np.stack([coords[i] for i in ids])
            for key in self.track_keys:
                for i, coeffs in zip(ids, support_relation(stack, key[0], p)):
                    if coeffs is not None:
                        self.mod[i, p][key] = coeffs

    def _search(self, point, pts) -> list:
        """The tracks of one instantiation's verified invariants; anchors
        the reference report on the first probe that finds any."""
        walk = VanishingWalk(pts, self.ts.V)
        updates = [tr.update for tr in self.ts.transitions]
        # exact division alone decides; only the anchoring probe's
        # rejections are labelled, since only its report is kept
        if all(consecution(eta, updates) is None
               for eta in bounded_relations(walk, self.e)):
            return []
        run_seed = _derived_seed(self.seed, "probe:" + self._point_tag(point))
        report = _report(walk, self.ts, self.e, random.Random(run_seed))
        report.reference_instantiation = point
        self.reference_report = report
        self.track_keys = [(frozenset(eta.terms), eta.leading_monomial())
                           for eta, _ in report.invariants]
        return self.track_keys


def invgen_symbolic(p: LoopProgram, e: int, seed: int = 0,
                    interp_cfg: Optional[Tuple[Sequence[int], Sequence[int]]] = None,
                    *, ignore_guard: Optional[bool] = None) -> InvariantReport:
    if not p.params:
        raise ValueError("program has no parameters; use invgen_numeric")
    if e < 1:
        raise ValueError("degree bound must be at least 1")
    m = len(p.params)
    if interp_cfg is not None:
        num_bounds, den_bounds = tuple(interp_cfg[0]), tuple(interp_cfg[1])
        if len(num_bounds) != m or len(den_bounds) != m:
            raise ValueError("interpolation bounds must list one entry per parameter")
        bounds: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = (num_bounds, den_bounds)
    else:
        bounds = None
    suspend_guard = True if ignore_guard is None else ignore_guard
    ts = to_transition_system(p)
    runner = _ProbeRunner(p, ts, e, seed, suspend_guard)

    # the reference instantiation fixes the aligned supports
    report = runner.anchor()
    if report is None:
        note = {"degree_bound": e,
                "claim": ("no instantiation produced a verified invariant at "
                          f"this degree bound within {PROBE_RETRY_CAP} tries")}
        return InvariantReport([], None, e, 0, 0, 0, None, note,
                               len(runner.cache))

    invariants = []
    failures: List[str] = []
    variables = ts.V
    one = Polynomial.constant(p.params, rational(1))

    def fit(key, mono):
        def residues(ids, q):
            return [None if tracks is None or key not in tracks else tracks[key][mono]
                    for tracks in runner.residues(ids, q)]
        # a point fails where its run is degenerate or the track has no
        # unique relation on its support
        return interpolate_rational(
            lambda ids: [key in tracks for tracks in runner.probe(ids)], residues,
            runner.pool, degree_bounds=bounds,
            failure_budget=PROBE_FAILURE_BUDGET, params=p.params,
            label=f"coefficient of {_mono_text(variables, mono)}")

    for key in sorted(runner.track_keys, key=lambda k: (k[1], sorted(k[0]))):
        support, lm = key
        template_monos = sorted(support, key=grlex_key)
        try:
            coeffs = [RationalFunction(one, one)] + _fit_track(
                runner, key, template_monos[1:], fit)
        except InterpolationError as err:
            failures.append(str(err))
            continue
        template = [Polynomial.monomial(variables, mn, rational(1))
                    for mn in template_monos]
        cleared = clear_denominators(template, coeffs)
        checked = _verify_parametric(cleared, p, ts)
        if isinstance(checked, str):
            failures.append(f"{checked} failed for {render(cleared)}")
            continue
        invariants.append(checked)

    # the anchoring probe's report, now with the parametric invariants
    report.invariants = invariants
    if not invariants:
        report.nonexistence_note = {
            "degree_bound": e,
            "claim": "no parametric invariant found at this degree bound",
            "failures": failures}
    report.instantiations = len(runner.cache)
    return report


def _fit_track(runner: _ProbeRunner, key, monos, fit) -> List[RationalFunction]:
    """fit(key, mono) for each coefficient of the track, in order.

    Every coefficient of a track reads the same points, and a fit
    depends only on the values it reads, so a coefficient whose residues
    equal an earlier one's wherever the runner holds the track, which
    covers every value that fit read, takes its function without fitting
    again.
    """
    fitted: List[Tuple[tuple, RationalFunction]] = []
    out = []
    for mono in monos:
        for prior, rf in fitted:
            if all(tracks[key][mono] == tracks[key][prior]
                   for tracks in runner.mod.values() if tracks and key in tracks):
                break
        else:
            rf = fit(key, mono)
            fitted.append((mono, rf))
        out.append(rf)
    return out


def _mono_text(variables, mono) -> str:
    return render(Polynomial.monomial(variables, mono, rational(1)))


def _verify_parametric(cleared, p, ts):
    """Exact consecution with inert params, and initiation as the exact
    identity cleared(init(a), a) = 0 in Q[a].

    Consecution alone does not pin the interpolated coefficients (when
    q = 1, adding any polynomial in the params alone keeps it), so
    initiation is what proves them.  Returns (cleared, quotients), or the
    name of the check that failed.
    """
    joint = ts.V + p.params
    extended = []
    for tr in ts.transitions:
        update = {v: lift_to(tr.update[v], joint) for v in ts.V}
        for u in p.params:
            update[u] = Polynomial.variable(joint, u)
        extended.append(update)
    quotients = consecution(cleared, extended)
    if quotients is None:
        return "consecution"
    start = dict(p.init)      # each init is a polynomial in the params
    for u in p.params:
        start[u] = Polynomial.variable(p.params, u)
    if not cleared.substitute(start).is_zero():
        return "initiation"
    return cleared, quotients
