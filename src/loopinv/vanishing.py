"""Vanishing ideal of a finite rational point set, computed modulo primes
and certified exactly.

VanishingWalk(S, variables) holds distinct points S in Q^n and is the
only way into the ideal of polynomials vanishing on them: over one walk,
bounded_relations(walk, d) reads the reduced Groebner basis elements
(graded lex) of lead degree <= d, and buchberger_moeller(walk, cap) the
whole basis's structure (normal set, leads, minimum degree) with the
elements of lead degree <= cap (every lead has degree <= |S|).  The walk
runs the Buchberger-Moeller ideal-of-points algorithm once per 30-bit
prime, one degree layer at a time.  A layer's candidates are the
monomials whose one-variable divisors are all normal; every other
monomial is a multiple of a known lead and is never evaluated.  A
candidate's column is a normal divisor's column times one coordinate.
The layer's block is reduced against the prime's echelon basis of the
normal set in one product over the free points, then eliminated on its
own by rref_mod_p: independent candidates become normal, and each
dependent one leads a reduced-basis element.  The new normal vectors
then reduce the old ones at their pivot points in one in-place rank
update.  The basis lives in one s x s float64 matrix per prime, its
vectors' values at the s points, permuted so that the pivot points come
first, as residues relaxed to (-p, 2p): the products are exact on 15-bit
slices and reduced in place by a floor (_mulmod).  Where the output is
the larger operand, as in the rank update, it is reduced once per block,
and the extra reduction falls on the smaller operand.  Residues are made
canonical only where they leave the walk.  The vectors' coordinates over
the normal monomials are not kept: each layer stores small factors of
their update, and a lead's residues are read from them only when its
element is lifted, so leads above a coefficient degree cap cost no
coordinates.  The walk ends at the first layer without candidates.
Walks are kept, so retries and later calls continue them.

The elements up to a coefficient degree cap are lifted by CRT and
rational reconstruction and certified exactly: Polynomial.evaluate_split
gives each a zero numerator at every point.  The structure (normal set
and leads) is settled, given that certificate, when (a) two walks agree
on it, (b) one walk holds it and every lead is lifted, as in
bounded_relations, or (c) one walk holds it, its normal set has |S|
monomials, and every unlifted lead is greater than its last normal
monomial N.  Cases (b) and (c) rest on rank
functions.  Mod p, the evaluation vectors of the monomials <= t never
have larger rank than over Q, and a walk's normal set is where its rank
function steps.  A certified element makes its lead, and so every
multiple of it, dependent over Q on smaller monomials.  Below N in (c),
and through the walked layers in (b), every non-normal monomial is such
a multiple, so the rank over Q is at most the number of normal monomials
up to t, which is the rank mod p; at or above N both ranks are |S|.
Equal rank functions give equal normal sets, so the leads and the
minimum degree are exact.  In (a) the unlifted leads rest on two
agreeing primes.  Once the structure is settled, a prime that has not
walked does not walk (Zippel's sparse modular technique): one reduction
on the union of the leads' supports, as the walks see them, gives the
lifted leads' residues when its free columns are exactly those leads;
otherwise (a bad prime, or a coefficient zero at every walk) it walks.
The reduced basis is unique, so any residue path gives what exact
elimination gives.

The symbolic probes' solves run on residues only.  support_relation
reduces the evaluation matrices of a support at a stack of sample sets,
each given by its residues mod one prime, in one stacked elimination
(rref_mod_p_stack; a stack of one goes through rref_mod_p), so the
probes of one batch share it.  relations, the nullspace of ratinterp's
interpolation fit, reduces a matrix given by its residues mod each
prime (the fit builds it with eval_matrix), one whole reduction per
prime, lifts its basis with the walk's _lift, and accepts the lift when
it also annihilates the matrix at one further prime.  Neither result is exact by construction: what the symbolic
pipeline builds from them is proved over Q before it is reported.
Both read their nullspaces off the reduced matrix with _nullspace.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from loopinv._kernel import rref_mod_p, rref_mod_p_stack
from loopinv.polyring import Exponents, Polynomial, Rational, grlex_key, split

# 30-bit primes, largest first; products of two residues fit in int64
PRIMES = (
    1073741789, 1073741783, 1073741741, 1073741723, 1073741719, 1073741717, 1073741689, 1073741671,
    1073741663, 1073741651, 1073741621, 1073741567, 1073741561, 1073741527, 1073741503, 1073741477,
    1073741467, 1073741441, 1073741419, 1073741399, 1073741387, 1073741381, 1073741371, 1073741329,
    1073741311, 1073741309, 1073741287, 1073741237, 1073741213, 1073741197, 1073741189, 1073741173,
    1073741101, 1073741077, 1073741047, 1073740963, 1073740951, 1073740933, 1073740909, 1073740879,
    1073740853, 1073740847, 1073740819, 1073740807, 1073740793, 1073740783, 1073740781, 1073740697,
    1073740693, 1073740691, 1073740649, 1073740609, 1073740571, 1073740567, 1073740543, 1073740541,
    1073740537, 1073740529, 1073740523, 1073740517, 1073740501, 1073740489, 1073740477, 1073740463,
    1073740439, 1073740403, 1073740391, 1073740379, 1073740249, 1073740201, 1073740189, 1073740183,
    1073740177, 1073740163, 1073740147, 1073740139, 1073740133, 1073740127, 1073740123, 1073740079,
    1073740067, 1073740061, 1073740049, 1073740013, 1073739983, 1073739949, 1073739937, 1073739917,
    1073739911, 1073739893, 1073739883, 1073739881, 1073739859, 1073739853, 1073739817, 1073739767,
    1073739749, 1073739739, 1073739721, 1073739683, 1073739679, 1073739649, 1073739631, 1073739619,
    1073739617, 1073739599, 1073739577, 1073739559, 1073739523, 1073739493, 1073739473, 1073739451,
    1073739449, 1073739437, 1073739421, 1073739379, 1073739367, 1073739361, 1073739353, 1073739347,
    1073739313, 1073739311, 1073739307, 1073739187, 1073739179, 1073739169, 1073739167, 1073739151,
)


class PointSet:
    """Finite set of rational points; duplicates dropped, order preserved.

    stop is set by sample collection when it gathered fewer points than
    asked for: "loop exit" or "revisit", the reason the run ended early;
    shortfall says whether it did.  distinct says that points are already
    distinct tuples of Rationals of one dimension, taken as they are.
    """

    __slots__ = ("points", "dimension", "stop")

    def __init__(self, points: Sequence[Sequence], stop: Optional[str] = None,
                 distinct: bool = False):
        self.stop = stop
        if distinct:
            self.points = tuple(points)
            self.dimension = len(self.points[0]) if self.points else 0
            return
        seen = set()
        kept: List[Tuple[Rational, ...]] = []
        dim = None
        for pt in points:
            # sample states arrive as Rationals already; wrap only the rest
            tup = tuple(c if isinstance(c, Rational) else Rational(c) for c in pt)
            if dim is None:
                dim = len(tup)
            elif len(tup) != dim:
                raise ValueError("points of mixed dimension")
            if tup not in seen:
                seen.add(tup)
                kept.append(tup)
        self.points = tuple(kept)
        self.dimension = dim if dim is not None else 0

    def __len__(self):
        return len(self.points)

    @property
    def shortfall(self) -> bool:
        return self.stop is not None


class VanishingIdealBasis:
    """Reduced Groebner basis of the ideal of a point set.

    basis holds the elements of lead degree up to the coefficient degree
    cap, lifted to exact rationals and certified.  The elements above the
    cap appear only through closure_leading_monomials: their leading
    monomials are known, their coefficients were never lifted.  Every
    lead has degree <= |S|, so a cap of |S| leaves that list empty.
    basis_size counts both kinds.
    """

    __slots__ = ("basis", "normal_set", "min_degree", "closure_leading_monomials")

    def __init__(self, basis: List[Polynomial], normal_set: List[Exponents],
                 min_degree: int, closure_leading_monomials: List[Exponents]):
        self.basis = basis
        self.normal_set = normal_set
        self.min_degree = min_degree
        self.closure_leading_monomials = closure_leading_monomials

    @property
    def basis_size(self) -> int:
        return len(self.basis) + len(self.closure_leading_monomials)


def residue_matrix(points: Sequence[Sequence[Rational]], p: int) -> Optional[np.ndarray]:
    """Point coordinates as int64 residues mod p, one row per point; None
    if p divides a denominator."""
    out = np.zeros((len(points), len(points[0])), dtype=np.int64)
    # denominators repeat (a trajectory's coordinates share them), so
    # each distinct one is inverted once
    inverses: Dict[int, int] = {}
    for i, pt in enumerate(points):
        for j, c in enumerate(pt):
            den = int(c.denominator)
            inv = inverses.get(den)
            if inv is None:
                if den % p == 0:
                    return None
                inv = inverses[den] = pow(den, -1, p)
            out[i, j] = int(c.numerator) % p * inv % p
    return out


def residue(c: Rational, p: int) -> Optional[int]:
    """c mod p; None if p divides its denominator."""
    den = int(c.denominator)
    if den % p == 0:
        return None
    return int(c.numerator) * pow(den, -1, p) % p


def eval_matrix(coords: np.ndarray, monos: Sequence[Exponents], p: int) -> np.ndarray:
    """Monomial evaluation matrix mod p at the points whose residues are
    the rows of coords, one row per point; coords may carry a leading
    stack axis, and the result then carries it too.

    Each column is a product of per-variable power columns, so the
    monomial list need not be closed under division.
    """
    *lead, n = coords.shape
    exps = np.array(monos, dtype=np.intp).reshape(len(monos), n)
    top = int(exps.max(initial=0))
    M = np.ones((*lead, len(monos)), dtype=np.int64)
    for i in range(n):
        # powers[..., e] = x_i^e mod p at every point
        powers = np.ones((*lead, top + 1), dtype=np.int64)
        for e in range(1, top + 1):
            powers[..., e] = powers[..., e - 1] * coords[..., i] % p
        # in place: the kernel reduces rows, so M must stay row-major
        M *= powers[..., exps[:, i]]
        M %= p
    return M


_SPLIT = float(1 << 15)
_BLOCK = 1 << 6


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, into (-p, 2p), for float64 integers below 2^53
    in magnitude: the rounding of x / p moves the floor by one at most."""
    t = x * (1.0 / p)
    np.floor(t, out=t)
    t *= p
    x -= t
    return x


def _mulmod(out: np.ndarray, A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """out <- (out - A @ B) mod p, in place, and returns out, for float64
    matrices of integers in (-p, 2p), p < 2^30 (A and B may be int64
    residues); out stays in (-p, 2p).  The products are exact: B splits
    into a 15-bit low slice and a signed high slice below 2^16 in
    magnitude.  When out is the larger operand, the extra reduction moves
    to A: A @ B = A @ low + A' @ high with A' = 2^15 A mod p, and out is
    reduced once per 2^5 inner terms, which sum to less than
    2^5 * 2^31 * 2^15 + 2^5 * 2^31 * 2^16 < 2^53.  Otherwise the high
    product is reduced before it is scaled: a block of 2^6 terms sums to
    less than 2^6 * 2^31 * 2^16 = 2^53."""
    high = np.floor(B * (1.0 / _SPLIT))
    low = B - high * _SPLIT
    if out.size > A.size:
        A2 = _reduce(A * _SPLIT, p)
        for lo in range(0, A.shape[1], _BLOCK // 2):
            block = slice(lo, lo + _BLOCK // 2)
            out -= A[:, block] @ low[block]
            out -= A2[:, block] @ high[block]
            _reduce(out, p)
        return out
    for lo in range(0, A.shape[1], _BLOCK):
        block = slice(lo, lo + _BLOCK)
        h = _reduce(A[:, block] @ high[block], p)
        h *= _SPLIT
        h += A[:, block] @ low[block]
        out -= h
        _reduce(out, p)
    return out


def _nullspace(R: np.ndarray, pivots: List[int], t: int, p: int) -> List[Dict[int, int]]:
    """Normal-form nullspace vectors of the reduced matrix, one per free column.

    Vector for free column j: coefficient 1 at j, -R[i, j] at pivot column
    pivots[i], zero elsewhere.
    """
    pivot_set = set(pivots)
    vecs = []
    for j in range(t):
        if j in pivot_set:
            continue
        v = {j: 1}
        for i, pc in enumerate(pivots):
            if pc > j:
                break
            a = int(R[i, j])
            if a:
                v[pc] = (-a) % p
        vecs.append(v)
    return vecs


def _crt(residues: List[int], moduli: List[int]) -> Tuple[int, int]:
    """Combine congruences; returns (value, product of moduli)."""
    x, m = residues[0], moduli[0]
    for r, p in zip(residues[1:], moduli[1:]):
        # x + m * k == r (mod p)
        k = (r - x) * pow(m, -1, p) % p
        x += m * k
        m *= p
    return x % m, m


def _rational_reconstruct(u: int, m: int) -> Optional[Rational]:
    """Lift u mod m to n/d with |n|, d <= sqrt(m/2), gcd(n, d) = 1."""
    bound = math.isqrt(m // 2)
    r0, r1 = m, u % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or math.gcd(r1, abs(s1)) != 1:
        return None
    if s1 < 0:
        r1, s1 = -r1, -s1
    return Rational(r1, s1)


def _lift(residues: Sequence[Dict], moduli: Sequence[int]) -> Optional[Dict]:
    """One vector from its residues modulo each prime ({key: residue},
    absent keys zero) by CRT and rational reconstruction; None when a
    reconstruction fails."""
    vec = {}
    for key in dict.fromkeys(k for res in residues for k in res):
        q = _rational_reconstruct(*_crt([res.get(key, 0) for res in residues], moduli))
        if q is None:
            return None
        if q != 0:
            vec[key] = q
    return vec


def _majority(candidates, rank=len):
    """The structure of best rank that most candidates share, and the
    items of those candidates, from (item, structure) pairs.  Primes can
    only lose rank, so the best rank is the most faithful."""
    best = max(rank(st) for _, st in candidates)
    counts = Counter(st for _, st in candidates if rank(st) == best)
    structure = max(counts, key=counts.get)
    return structure, [item for item, st in candidates if st == structure]


def _escalating(attempt: Callable[[int], Optional[object]], nprimes: int):
    """The first of attempt(nprimes), attempt(nprimes + 1), ... that is
    not None: each failed round adds one prime.  Callers keep each
    prime's reductions across rounds, so a round reduces only the prime
    it adds."""
    for n in range(nprimes, len(PRIMES) + 1):
        out = attempt(n)
        if out is not None:
            return out
    raise RuntimeError("prime budget exhausted without certification")


def relations(matrix: Callable[[int], Optional[np.ndarray]],
              t: int) -> List[Dict[int, Rational]]:
    """Nullspace of a matrix with t columns, given by its residues:
    matrix(p) is the int64 matrix mod p, or None where p cannot read it.

    Returns its reduced-echelon basis, one vector {column: nonzero
    coefficient} per free column, ascending.  Each prime reduces the
    whole matrix once and keeps it, so an escalation round reduces only
    the prime it adds; a prime that cannot read the matrix is skipped.
    Over a prime field the rank only drops, so the primes of best rank
    are lifted, by CRT and rational reconstruction, and the lift is
    accepted when it also annihilates the matrix at one further prime; a
    round ends at the first vector that does not reconstruct.  A check at
    one prime is not a proof: callers prove what they build from the
    result.  The first round uses one prime.
    """
    reduced: Dict[int, Optional[Tuple[np.ndarray, Tuple[int, ...]]]] = {}

    def attempt(nprimes):
        per_prime = []
        for p in PRIMES[:nprimes]:
            if p not in reduced:
                M = matrix(p)
                reduced[p] = None if M is None else (M, tuple(rref_mod_p(M, p)))
            if reduced[p] is not None:
                R, pivots = reduced[p]
                per_prime.append(((p, R), pivots))
        if not per_prime:
            return None
        pivots, agreeing = _majority(per_prime)
        residues = [_nullspace(R, pivots, t, p) for p, R in agreeing]
        moduli = [p for p, _ in agreeing]
        basis = []
        for i in range(t - len(pivots)):
            vec = _lift([res[i] for res in residues], moduli)
            if vec is None:
                return None
            basis.append(vec)
        return basis if _annihilates(matrix, basis, PRIMES[nprimes:]) else None

    return _escalating(attempt, 1)


def _annihilates(matrix, basis: List[Dict[int, Rational]], primes) -> bool:
    """Whether every vector of basis is in the nullspace of matrix(q) mod
    q, at the first of the primes that can read both."""
    if not basis:
        return True
    for q in primes:
        vecs = [{c: residue(coeff, q) for c, coeff in vec.items()} for vec in basis]
        M = None if any(None in v.values() for v in vecs) else matrix(q)
        if M is None:
            continue
        V = np.zeros((M.shape[1], len(vecs)), dtype=np.int64)
        for j, v in enumerate(vecs):
            for c, r in v.items():
                V[c, j] = r
        return not (_mulmod(np.zeros((len(M), len(vecs))), M.astype(np.float64), V, q) % q).any()
    return False


def _leads_basis_element(m: Exponents, normal) -> bool:
    """Whether a monomial outside the order ideal `normal` leads a
    reduced-basis element: exactly when it is a minimal non-normal
    monomial, i.e. each of its one-variable divisors is normal."""
    return all(e == 0 or m[:i] + (e - 1,) + m[i + 1:] in normal
               for i, e in enumerate(m))


class _PrimeWalk:
    """One prime's walk.  normal and leads list the normal monomials and
    the reduced-basis leading monomials found so far, ascending;
    relation(i) gives the residues c with leads[i] + sum c[j] * normal[j]
    vanishing at every point mod p.  While layers remain, the points (rows
    of coords) are kept permuted with the pivot points first, and one
    float64 matrix G, s x s, holds as integers in (-p, 2p) the normal
    set's reduced evaluation vectors in G[:, :r]: vector i is one at its
    own pivot point i and zero at the other pivot points, and only its
    rows at the free points, G[r:], are kept up to date.  frontier maps
    the last layer's normal monomials to their columns of V.

    The vectors' coordinates over the normal monomials, an r x r matrix
    C, are not kept.  A layer that adds q vectors appends (r, B, F) to
    factors, from which C @ x is read (_coordinates); a layer with
    dependent candidates keeps what its relations need in dependents, by
    degree, until the first of them is asked for."""

    def __init__(self, coords: np.ndarray, p: int):
        s, n = coords.shape
        self.p, self.coords, self.degree = p, coords, 0
        one = (0,) * n                     # layer 0: the constant, always normal
        self.normal, self.normal_set = [one], {one}
        self.leads: List[Exponents] = []
        self.relations: Dict[int, np.ndarray] = {}
        self.dependents: Dict[int, tuple] = {}
        self.factors: List[tuple] = []
        self.G = np.zeros((s, s))
        self.G[:, 0] = 1
        self.V, self.frontier = np.ones((s, 1), dtype=np.int64), {one: 0}

    def layer(self) -> None:
        """Walk the next degree layer, or end the walk if it is empty."""
        p, coords, G = self.p, self.coords, self.G
        s, n = coords.shape
        nxt = {u[:i] + (u[i] + 1,) + u[i + 1:] for u in self.frontier for i in range(n)}
        cands = sorted((t for t in nxt if _leads_basis_element(t, self.normal_set)),
                       key=grlex_key)
        if not cands:
            # every further monomial is a multiple of a lead
            self.frontier = self.G = self.V = None
            return
        self.degree += 1
        first = [next(i for i, e in enumerate(t) if e) for t in cands]
        parents = [self.frontier[t[:i] + (t[i] - 1,) + t[i + 1:]] for t, i in zip(cands, first)]
        V = self.V[:, parents] * coords[:, first] % p
        # V = eval(basis) @ V[:r] + W, with W zero at the pivot points: one
        # product gives W at the m free points
        r, k = len(self.normal), len(cands)
        m = s - r
        W = _mulmod(V[r:].astype(np.float64), G[r:, :r], V[:r], p)

        # the layer's own elimination: row j is candidate j's residual on
        # the free points, joined to a reversed identity.  Rows 0..q-1
        # then pivot at points and involve only independent candidates; each
        # later row is a relation pivoting at its dependent candidate's own
        # identity column, so it involves only smaller candidates
        Z = np.zeros((k, m + k), dtype=np.int64)
        Z[:, :m] = W.T % p
        Z[np.arange(k), m + k - 1 - np.arange(k)] = 1
        if m:
            pivots = rref_mod_p(Z, p)
        else:   # no point is left: every candidate depends on the normal set
            Z, pivots = np.eye(k, dtype=np.int64), list(range(k))
        q = sum(1 for c in pivots if c < m)
        Y = Z[:, m:][:, ::-1]                # Y[row, j]: candidate j's coefficient
        # V[:r] @ Y^T: each row's combination of the candidates at the
        # pivot points, where the basis vectors are the unit vectors, so
        # -C @ KY is the row's part over the old normal monomials
        KY = _mulmod(np.zeros((r, k)), V[:r], -Y.T, p) % p
        dependent = sorted((m + k - 1 - c, row) for row, c in enumerate(pivots) if c >= m)
        new = sorted(set(range(k)) - {j for j, _ in dependent})
        if dependent:
            rows = [row for _, row in dependent]
            self.dependents[self.degree] = (len(self.leads), len(self.factors),
                                            KY[:, rows], Y[rows][:, new])
            self.leads.extend(cands[j] for j, _ in dependent)
        if q:
            # rows 0..q-1 are the new normal vectors on the free points;
            # append them, move their pivot points to rows r..r+q-1, and
            # reduce the old vectors there
            G[r:, r:r + q] = Z[:q, :m].T
            src = {}
            for i, c in enumerate(pivots[:q]):
                src[i], src[c] = src.get(c, c), src.get(i, i)
            to, fro = r + np.array(list(src)), r + np.array(list(src.values()))
            for M in (G, coords, V):
                M[to] = M[fro]
            B = G[r:r + q, :r] % p
            self.factors.append((r, B, np.concatenate([KY[:, :q], Y[:q, new].T])))
            _mulmod(G[r + q:, :r], G[r + q:, r:r + q], B, p)
            self.normal.extend(cands[j] for j in new)
            self.normal_set.update(cands[j] for j in new)
        self.V, self.frontier = V, {cands[j]: j for j in new}

    def relation(self, i: int) -> np.ndarray:
        """The residues c of leads[i]; the first request for one of a
        layer's relations computes all of that layer's in one pass."""
        if i not in self.relations:
            first, count, x, tails = self.dependents.pop(sum(self.leads[i]))
            old = self._coordinates(count, x)
            for col, tail in enumerate(tails):
                self.relations[first + col] = np.concatenate([old[:, col], tail])
        return self.relations[i]

    def _coordinates(self, count: int, x: np.ndarray) -> np.ndarray:
        """-C @ x as canonical int64 residues, for C the coordinates of the
        reduced vectors after the first count factors and x a float64
        matrix of residues with one row per vector, which it overwrites.

        A layer's factors are B, the old vectors at the new pivot points
        before the update, and F = [M; Yn], with M = V[:r] @ Y[:q]^T and
        Yn = Y[:q, new]^T.  The new vectors' coordinates are
        [-C_old @ M; Yn], and the update takes the old ones to
        [C_old @ (I + M @ B); -Yn @ B], so with z = x_new - B @ x_old,
        C @ x is C_old @ (x_old - M @ z) over the old monomials and Yn @ z
        over the new ones: one product [x_old; 0] - F @ z gives the next
        factor's x and this factor's part of -C @ x."""
        p = self.p
        for r, B, F in reversed(self.factors[:count]):
            top = x[:len(F)]
            z = _mulmod(top[r:], B, top[:r], p).copy()
            top[r:] = 0
            _mulmod(top, F, z, p)
        x[0] *= -1                         # layer 0: C = [1]
        return (x % p).astype(np.int64)


class VanishingWalk:
    """The point set S, in the ring over variables, with its walks, one
    per walked prime, the added primes' reductions, and the reduced-basis
    elements certified so far.  All are kept, so escalation rounds and
    later calls continue where earlier ones stopped: bounded_relations and
    then buchberger_moeller over one walk reduce each layer once per
    walked prime."""

    def __init__(self, S: PointSet, variables: Sequence[str]):
        if len(S) == 0:
            raise ValueError("empty point set")
        if len(variables) != S.dimension:
            raise ValueError("variable count does not match point dimension")
        self.samples = S
        self.variables = tuple(variables)
        self.walks: Dict[int, Optional[_PrimeWalk]] = {}
        self.reductions: Dict[Tuple[int, Tuple[Exponents, ...]], Optional[dict]] = {}
        self.elements: Dict[Exponents, Polynomial] = {}
        self.split_points = None        # polyring.split of each point, on first use
        self.pending: List[Exponents] = []      # the leads the last round lifted

    def certified(self, through: Optional[int], lift: int):
        """(normal set, leads, elements) of the walk through layer
        `through` (None: to its end); elements are the reduced-basis
        elements of the leads of degree <= lift, ascending.
        Primes walk until the structure is settled (see the module
        docstring); a prime added later reduces on the leads' supports,
        and walks when that reduction does not match."""
        # walks and reductions persist, so starting again from two primes
        # costs none, and a call whose leads are already certified needs no more
        try:
            return _escalating(partial(self._round, through, lift), 2)
        except RuntimeError as exc:
            degree = max(map(sum, self.pending), default=0)
            raise RuntimeError(
                f"{exc}: lifting {len(self.pending)} element(s) of lead degree up to "
                f"{degree}; coeff_degree_cap leaves the elements above it unlifted") from None

    def _walked(self, p, through):
        """p's walk through layer `through` (None: to its end); None where
        p cannot read the points or its whole walk lost rank."""
        if p not in self.walks:
            coords = residue_matrix(self.samples.points, p)
            self.walks[p] = None if coords is None else _PrimeWalk(coords, p)
        w = self.walks[p]
        while w is not None and w.frontier is not None and (through is None or w.degree < through):
            w.layer()
        if w is None or through is None and len(w.normal) < len(self.samples):
            return None     # a bad prime: it lost rank
        return w

    def _reduced(self, p, support, leads):
        """{lead: residues} of the leads at p from one reduction of the
        support's evaluation matrix; None where p cannot read the points or
        the free columns are not exactly the leads."""
        if (p, support) not in self.reductions:
            coords = residue_matrix(self.samples.points, p)
            M = None if coords is None else eval_matrix(coords, support, p)
            # rref_mod_p reduces M in place; a free column's vector has its largest key there
            self.reductions[p, support] = None if M is None else {
                support[max(v)]: {support[j]: c for j, c in v.items()}
                for v in _nullspace(M, rref_mod_p(M, p), len(support), p)}
        free = self.reductions[p, support]
        return free if free and list(free) == leads else None

    def _round(self, through, lift, nprimes):
        def upto(monos, degree):
            return tuple(m for m in monos if degree is None or sum(m) <= degree)

        def shape(w):
            return upto(w.normal, through), upto(w.leads, through)

        def rank(st):       # a walk's rank is the size of its normal set
            return len(st[0])

        def settled(structures):
            """Whether the majority structure is settled, given that its
            lifted elements certify (see the module docstring)."""
            (normal, leads), agreeing = _majority(structures, rank)
            unlifted = leads[len(upto(leads, lift)):]
            return (len(agreeing) > 1 or not unlifted
                    or len(normal) == len(self.samples)
                    and grlex_key(unlifted[0]) > grlex_key(normal[-1]))

        structures, added = [], []
        for p in PRIMES[:nprimes]:
            # once the structure is settled, a prime not walked yet is only reduced
            if p not in self.walks and structures and settled(structures):
                added.append(p)
            elif (w := self._walked(p, through)) is not None:
                structures.append((w, shape(w)))
        if not structures or not settled(structures):
            return None
        (normal, leads), agreeing = _majority(structures, rank)
        lifted = upto(leads, lift)
        pending = self.pending = [lead for lead in lifted if lead not in self.elements]

        def residues_of(w):
            return {lead: {lead: 1, **{w.normal[j]: c
                                       for j, c in enumerate(w.relation(i).tolist()) if c}}
                    for i, lead in enumerate(lifted) if lead not in self.elements}

        residues = [residues_of(w) for w in agreeing]
        moduli = [w.p for w in agreeing]
        # the union of the leads' supports, as far as the walks see them
        support = tuple(sorted({m for res in residues for vec in res.values() for m in vec},
                               key=grlex_key))
        for p in added if pending else ():
            res = self._reduced(p, support, pending)
            if res is None:     # a bad prime, or a support the walks miss: walk p
                w = self._walked(p, through)
                if w is None or shape(w) != (normal, leads):
                    continue
                res = residues_of(w)
            residues.append(res)
            moduli.append(p)
        fresh = {}
        for lead in pending:
            vec = _lift([res[lead] for res in residues], moduli)
            if vec is None:
                return None
            fresh[lead] = Polynomial(self.variables, vec)
        if fresh and self.split_points is None:
            self.split_points = [split(pt) for pt in self.samples.points]
        # D > 0 at every point, so a zero numerator is an exact zero
        if not all(f.evaluate_split(nums, dens)[0] == 0
                   for f in fresh.values() for nums, dens in self.split_points):
            return None
        # a certified lead set pins the structure, so only now are the
        # elements known to be reduced-basis elements
        self.elements.update(fresh)
        return normal, leads, [self.elements[m] for m in lifted]


def buchberger_moeller(walk: VanishingWalk, coeff_degree_cap: int) -> VanishingIdealBasis:
    """Reduced Groebner basis of the vanishing ideal of the walk's points.

    Walks primes to their ends until the structure is settled, as
    certified does; a walk that ends with fewer than |S| normal
    monomials is dropped.  The elements of lead degree <=
    coeff_degree_cap are lifted to exact rationals and certified; the
    elements above it are reported through their leading monomials only.
    Closure elements of point sets from long trajectories can carry
    coefficients of astronomical height that no caller consumes; the cap
    keeps those unlifted without touching what is certified.  Every lead
    has degree <= |S|, so a cap of |S| lifts them all.
    """
    normal, leads, basis = walk.certified(None, coeff_degree_cap)
    return VanishingIdealBasis(basis, list(normal), min(sum(m) for m in leads),
                               list(leads[len(basis):]))


def bounded_relations(walk: VanishingWalk, max_degree: int) -> List[Polynomial]:
    """Certified complete list of degree-bounded vanishing relations.

    Returns every reduced-basis element of the walk's points with leading
    monomial of total degree <= max_degree, exact and in ascending
    leading-monomial order: the walk stopped after layer max_degree.
    Every lead through that layer is lifted, so one walk settles the
    structure.  buchberger_moeller over the same walk later walks on
    from here.
    """
    return walk.certified(max_degree, max_degree)[2]


def support_relation(coords: np.ndarray, support: Sequence[Exponents],
                     p: int) -> List[Optional[Dict[Exponents, int]]]:
    """The unique vanishing relation mod p, spanned by the support, of
    each point set in the stack coords, if any: coords[k] holds one
    set's residues mod p, one row per point, and every set has as many
    points.

    The evaluation matrices of the support are reduced together, one
    stacked elimination (a stack of one goes through rref_mod_p).  For
    each set whose nullspace is one-dimensional and whose vector has a
    nonzero coefficient at T1, the smallest support monomial, the result
    is that vector scaled to T1 coefficient 1, as {monomial: residue}
    over the whole support (zeros included).  Otherwise it is None: the
    samples do not pin one relation on this support mod p.
    """
    monos = sorted(support, key=grlex_key)
    M = eval_matrix(coords, monos, p)
    if len(M) == 1:
        reduced = [rref_mod_p(M[0], p)]
    else:
        reduced = rref_mod_p_stack(M, p)
    return [_t1_relation(R, pivots, monos, p) for R, pivots in zip(M, reduced)]


def _t1_relation(R: np.ndarray, pivots: List[int], monos: List[Exponents],
                 p: int) -> Optional[Dict[Exponents, int]]:
    """The nullspace vector of the reduced matrix R, scaled to T1
    coefficient 1, when it is the only one and its T1 coefficient is
    nonzero; else None."""
    if len(monos) - len(pivots) != 1:
        return None
    [vec] = _nullspace(R, pivots, len(monos), p)
    t1 = vec.get(0)
    if t1 is None:
        return None
    scale = pow(t1, -1, p)
    return {m: vec.get(j, 0) * scale % p for j, m in enumerate(monos)}
