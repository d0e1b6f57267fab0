"""Vanishing ideal of a finite rational point set, and the certified
modular nullspace that computes it.

Given distinct points S in Q^n, compute the reduced Groebner basis of the
ideal of polynomials vanishing on S, together with the normal set (the
monomial basis of the quotient ring) and the minimum basis degree.

The classical method reduces monomial evaluation vectors one at a time by
exact rational elimination.  Rational arithmetic makes that elimination
the bottleneck: intermediate coefficient heights blow up long before the
output does.  ModularNullspace runs the elimination modulo a batch of
30-bit primes instead, lifts the nullspace vectors by CRT and rational
reconstruction, and hands each lifted vector to an exact certificate
supplied by the caller.  The certificate is airtight:

  * over a prime field the matrix rank can only drop, never rise, so the
    modular nullspace dimension is an upper bound on the exact one;
  * each lifted vector is checked, exactly, to lie in the nullspace, so
    the verified vectors are exact nullspace members, and they are
    linearly independent because each carries leading coefficient 1 at a
    distinct free column and zeros at the others;
  * when every lifted vector passes, the two bounds meet, which forces
    the exact elimination to have the same pivot structure and exactly
    these reduced-echelon nullspace vectors.

Bad primes and failed reconstructions are detected by the certificate
failing and are retried with a doubled prime batch; they never corrupt
the output.  Each prime's reduction is kept, so a retry reduces only the
primes it adds.  The result is bit-for-bit what exact elimination
returns, at a fraction of the cost.

Two callers share the routine.  The Buchberger-Moeller sweep here
certifies that each lifted vector, read as a polynomial, vanishes on
every point.  The rational-function interpolation fit in ratinterp
certifies that each lifted vector annihilates every fitted row over Q.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from loopinv._kernel import rref_mod_p
from loopinv.polyring import Exponents, Polynomial, Rational, grlex_key

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

    shortfall is set by sample collection when fewer points than asked
    for could be gathered.
    """

    __slots__ = ("points", "dimension", "shortfall")

    def __init__(self, points: Sequence[Sequence], shortfall: bool = False):
        seen = set()
        kept: List[Tuple[Rational, ...]] = []
        dim = None
        for pt in points:
            tup = tuple(Rational(c) for c in pt)
            if dim is None:
                dim = len(tup)
            elif len(tup) != dim:
                raise ValueError("points of mixed dimension")
            if tup not in seen:
                seen.add(tup)
                kept.append(tup)
        self.points = tuple(kept)
        self.dimension = dim if dim is not None else 0
        self.shortfall = shortfall

    def __len__(self):
        return len(self.points)


class VanishingIdealBasis:
    """Reduced Groebner basis of the ideal of a point set.

    basis holds the elements whose coefficient vectors were lifted to
    exact rationals and certified.  When a coefficient degree cap was
    requested, elements with leading monomial above the cap appear only
    through closure_leading_monomials: their leading monomials are known,
    their coefficients were never lifted.  Without a cap that list is
    empty.  basis_size counts both kinds.
    """

    __slots__ = ("basis", "normal_set", "min_degree", "closure_leading_monomials")

    def __init__(self, basis: List[Polynomial], normal_set: List[Exponents],
                 min_degree: int, closure_leading_monomials: Optional[List[Exponents]] = None):
        self.basis = basis
        self.normal_set = normal_set
        self.min_degree = min_degree
        self.closure_leading_monomials = closure_leading_monomials or []

    @property
    def basis_size(self) -> int:
        return len(self.basis) + len(self.closure_leading_monomials)


def monomials_through(n: int, max_deg: int) -> List[Exponents]:
    """All exponent vectors of total degree <= max_deg, ascending grlex."""
    if n == 0:
        return [()]
    out: List[Exponents] = []

    def layer(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            layer(prefix + (e,), remaining - e, slots - 1)

    for d in range(max_deg + 1):
        layer((), d, n)
    return sorted(out, key=grlex_key)


def residue_matrix(rows: Sequence[Sequence[Rational]], p: int) -> Optional[np.ndarray]:
    """Rational matrix as int64 residues mod p; None if p divides a denominator."""
    out = np.zeros((len(rows), len(rows[0])), dtype=np.int64)
    # denominators repeat (a trajectory's coordinates share them), so
    # each distinct one is inverted once
    inverses: Dict[int, int] = {}
    for i, row in enumerate(rows):
        for j, c in enumerate(row):
            den = int(c.denominator)
            inv = inverses.get(den)
            if inv is None:
                if den % p == 0:
                    return None
                inv = inverses[den] = pow(den, p - 2, p)
            out[i, j] = int(c.numerator) % p * inv % p
    return out


def _eval_matrix(points, monos: List[Exponents], p: int) -> Optional[np.ndarray]:
    """Monomial evaluation matrix mod p, one row per point; None if p
    divides a coordinate denominator.

    Each column is a product of per-variable power columns, so the
    monomial list need not be closed under division.
    """
    coords = residue_matrix(points, p)
    if coords is None:
        return None
    s, n = coords.shape
    exps = np.array(monos, dtype=np.intp).reshape(len(monos), n)
    top = int(exps.max(initial=0))
    M = np.ones((s, len(monos)), dtype=np.int64)
    for i in range(n):
        # powers[:, e] = x_i^e mod p at every point
        powers = np.ones((s, top + 1), dtype=np.int64)
        for e in range(1, top + 1):
            powers[:, e] = powers[:, e - 1] * coords[:, i] % p
        # in place: the kernel reduces rows, so M must stay row-major
        M *= powers[:, exps[:, i]]
        M %= p
    return M


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
        k = (r - x) * pow(m % p, p - 2, p) % p
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


def _power_tables(points, tops: Sequence[int]) -> List[List[List[int]]]:
    """table[point][var][e] = num^e * den^(top - e), e <= top = tops[var],
    for the coordinate num/den: its e-th power over the denominator
    den^top shared by every power of that coordinate."""
    tables = []
    for pt in points:
        per_var = []
        for c, top in zip(pt, tops):
            num, den = int(c.numerator), int(c.denominator)
            nums, dens = [1], [1]
            for _ in range(top):
                nums.append(nums[-1] * num)
                dens.append(dens[-1] * den)
            per_var.append([nums[e] * dens[top - e] for e in range(top + 1)])
        tables.append(per_var)
    return tables


def _vanishes_everywhere(coeffs: Dict[Exponents, Rational], tables) -> bool:
    # with integer coefficients and power tables, each point's value is
    # the exact value times a positive integer, so integer zero tests suffice
    lcm = math.lcm(*(int(c.denominator) for c in coeffs.values()))
    terms = [(mono, int(c.numerator) * (lcm // int(c.denominator)))
             for mono, c in coeffs.items()]
    for per_var in tables:
        total = 0
        for mono, c in terms:
            for row, e in zip(per_var, mono):
                c *= row[e]
            total += c
        if total:
            return False
    return True


class _Attempt:
    """Outcome of one round: "ok", "escalate" (more primes needed) or
    "more_monomials" (rank below the caller's min_rank).

    vectors maps each lifted free column to its certified nullspace
    vector, {column: nonzero coefficient}.
    """

    __slots__ = ("status", "rank", "pivots", "vectors", "free_cols")

    def __init__(self, status, rank=0, pivots=None, vectors=None, free_cols=None):
        self.status = status
        self.rank = rank
        self.pivots = pivots
        self.vectors = vectors
        self.free_cols = free_cols


class ModularNullspace:
    """Certified nullspace of one rational matrix, computed modulo primes.

    residues(p) builds the matrix mod p as an int64 array, or returns
    None when p divides one of its denominators; that prime is skipped.
    Each prime's reduction (the reduced matrix and its pivots) is kept, so
    a later round with a larger batch reduces only the primes it adds.
    """

    __slots__ = ("residues", "ncols", "reduced")

    def __init__(self, residues: Callable[[int], Optional[np.ndarray]], ncols: int):
        self.residues = residues
        self.ncols = ncols
        self.reduced: Dict[int, Optional[Tuple[np.ndarray, Tuple[int, ...]]]] = {}

    def solve(self, nprimes: int, certify: Callable[[Dict[int, Rational]], bool],
              prefix_len: Optional[int] = None, min_rank: int = 0) -> _Attempt:
        """One round with the first nprimes primes.

        certify gets each lifted vector and must check, exactly, that it
        lies in the nullspace.  Vectors are lifted and certified only for
        free columns inside the prefix (the first prefix_len columns).
        Because elimination is leftmost-greedy, the rref of the prefix
        block equals the prefix of the full rref, so the counting
        certificate applies to the prefix on its own: every lifted prefix
        vector verifying exactly pins the prefix pivot structure and
        proves the lifted set complete.
        """
        t = self.ncols
        if prefix_len is None:
            prefix_len = t
        per_prime = []
        for p in PRIMES[:nprimes]:
            if p not in self.reduced:
                M = self.residues(p)
                self.reduced[p] = None if M is None else (M, tuple(rref_mod_p(M, p)))
            if self.reduced[p] is not None:
                per_prime.append((p,) + self.reduced[p])
        if not per_prime:
            return _Attempt("escalate")

        # primes can only lose rank, so the best-rank structure is the most
        # faithful; among equals take the most common
        best_rank = max(len(st) for _, _, st in per_prime)
        counts: Dict[Tuple[int, ...], int] = {}
        for _, _, st in per_prime:
            if len(st) == best_rank:
                counts[st] = counts.get(st, 0) + 1
        structure = max(counts, key=lambda st: counts[st])
        agreeing = [(p, R) for p, R, st in per_prime if st == structure]

        if best_rank < min_rank:
            return _Attempt("more_monomials", rank=best_rank)
        pivots = list(structure)
        pivot_set = set(pivots)
        free_cols = [j for j in range(t) if j not in pivot_set]

        # structure past the prefix is reported without lifted coefficients;
        # insist on two independently agreeing primes for it
        if prefix_len < t and any(j >= prefix_len for j in free_cols) and len(agreeing) < 2:
            return _Attempt("escalate")

        vec_residues = [_nullspace(R, pivots, t, p) for p, R in agreeing]
        moduli = [p for p, _ in agreeing]
        vectors: Dict[int, Dict[int, Rational]] = {}
        for vi, j in enumerate(free_cols):
            if j >= prefix_len:
                continue
            vec: Dict[int, Rational] = {}
            for col in vec_residues[0][vi]:
                res = [vecs[vi].get(col, 0) for vecs in vec_residues]
                u, m = _crt(res, moduli)
                q = _rational_reconstruct(u, m)
                if q is None:
                    return _Attempt("escalate")
                if q != 0:
                    vec[col] = q
            if not certify(vec):
                return _Attempt("escalate")
            vectors[j] = vec

        return _Attempt("ok", pivots=pivots, vectors=vectors, free_cols=free_cols)

    def certified(self, certify: Callable[[Dict[int, Rational]], bool],
                  nprimes: int = 2) -> _Attempt:
        """Double the prime batch from nprimes until every vector certifies."""
        while True:
            att = self.solve(nprimes, certify)
            if att.status == "ok":
                return att
            if nprimes >= len(PRIMES):
                raise RuntimeError("prime budget exhausted without certification")
            nprimes = min(2 * nprimes, len(PRIMES))


def _sweep_system(points, monos: List[Exponents], table_deg: int):
    """The sweep's nullspace problem over one monomial list, and its
    certificate: the vector, read as a polynomial, vanishes on every point.
    Only monomials of degree <= table_deg can appear in certified vectors."""
    lifted = [m for m in monos if sum(m) <= table_deg]
    tables = _power_tables(points, [max(col) for col in zip(*lifted)])
    system = ModularNullspace(partial(_eval_matrix, points, monos), len(monos))
    return system, lambda vec: _vanishes_everywhere(_coeffs(monos, vec), tables)


def _leads_basis_element(m: Exponents, normal) -> bool:
    """Whether a monomial outside the order ideal `normal` leads a
    reduced-basis element: exactly when it is a minimal non-normal
    monomial, i.e. each of its one-variable divisors is normal."""
    return all(e == 0 or m[:i] + (e - 1,) + m[i + 1:] in normal
               for i, e in enumerate(m))


def _coeffs(monos: List[Exponents], vec: Dict[int, Rational]) -> Dict[Exponents, Rational]:
    return {monos[c]: q for c, q in vec.items()}


def buchberger_moeller(S: PointSet,
                       variables: Optional[Sequence[str]] = None,
                       coeff_degree_cap: Optional[int] = None) -> VanishingIdealBasis:
    """Reduced Groebner basis of the vanishing ideal of S.

    Monomials are swept in ascending order; a monomial whose evaluation
    vector is independent of its predecessors joins the normal set, and a
    dependent one contributes the dependency as a basis polynomial.  The
    sweep stops once the normal set counts |S| monomials and the whole
    border of the normal set has been processed.

    variables names the polynomial ring; defaults to x1..xn.

    coeff_degree_cap, when given, bounds the leading-monomial degree up
    to which coefficient vectors are lifted to exact rationals; basis
    elements above the cap are reported through their leading monomials
    only.  Closure elements of point sets from long trajectories can
    carry coefficients of astronomical height that no caller consumes;
    the cap keeps those unlifted without touching what is certified.
    """
    if len(S) == 0:
        raise ValueError("empty point set")
    points = S.points
    n = S.dimension
    s = len(points)
    if variables is None:
        variables = tuple(f"x{i+1}" for i in range(n))
    else:
        variables = tuple(variables)
        if len(variables) != n:
            raise ValueError("variable count does not match point dimension")

    # smallest sweep degree whose monomial count reaches |S|
    D = 0
    while len(monomials_through(n, D)) < s:
        D += 1
    D = max(D, 1)

    nprimes = 2
    last_rank = -1
    system = None
    while True:
        if system is None:
            # the per-prime reductions hold for this sweep degree only
            monos = monomials_through(n, D)
            if coeff_degree_cap is None:
                prefix_len = len(monos)
                table_deg = D
            else:
                prefix_len = sum(1 for m in monos if sum(m) <= coeff_degree_cap)
                table_deg = min(D, coeff_degree_cap)
            system, certify = _sweep_system(points, monos, table_deg)
        att = system.solve(nprimes, certify, prefix_len, min_rank=s)
        if att.status == "more_monomials":
            # rank must grow with the sweep degree until it reaches |S|;
            # a stall means every prime in the batch lost rank
            if att.rank <= last_rank and nprimes < len(PRIMES):
                nprimes = min(2 * nprimes, len(PRIMES))
            else:
                D += 1
                system = None
            last_rank = att.rank
            continue
        if att.status == "escalate":
            if nprimes >= len(PRIMES):
                raise RuntimeError("prime budget exhausted without certification")
            nprimes = min(2 * nprimes, len(PRIMES))
            continue
        pivot_monos = [monos[j] for j in att.pivots]
        if pivot_monos and max(sum(m) for m in pivot_monos) >= D:
            # border of the normal set sticks out past the sweep; widen it
            D += 1
            system = None
            continue
        normal = set(pivot_monos)
        basis: List[Polynomial] = []
        closure: List[Exponents] = []
        all_lm_degrees: List[int] = []
        for j in att.free_cols:
            fm = monos[j]
            if not _leads_basis_element(fm, normal):
                continue
            all_lm_degrees.append(sum(fm))
            if j < prefix_len:
                basis.append(Polynomial(variables, _coeffs(monos, att.vectors[j])))
            else:
                closure.append(fm)
        min_degree = min(all_lm_degrees)
        return VanishingIdealBasis(basis, pivot_monos, min_degree, closure)


def bounded_relations(S: PointSet, max_degree: int,
                      variables: Optional[Sequence[str]] = None) -> List[Polynomial]:
    """Certified complete list of degree-bounded vanishing relations.

    Returns every reduced-basis element with leading monomial of total
    degree <= max_degree, exact and in ascending leading-monomial order.
    Unlike the full sweep this never walks the border of the normal set,
    so it stays cheap when only low-degree relations matter.
    """
    if len(S) == 0:
        raise ValueError("empty point set")
    points = S.points
    n = S.dimension
    if variables is None:
        variables = tuple(f"x{i+1}" for i in range(n))
    else:
        variables = tuple(variables)
        if len(variables) != n:
            raise ValueError("variable count does not match point dimension")

    monos = monomials_through(n, max_degree)
    system, certify = _sweep_system(points, monos, max_degree)
    att = system.certified(certify)
    normal = {monos[j] for j in att.pivots}
    return [Polynomial(variables, _coeffs(monos, att.vectors[j]))
            for j in att.free_cols if _leads_basis_element(monos[j], normal)]


def support_relation(S: PointSet,
                     support: Sequence[Exponents]) -> Optional[Dict[Exponents, Rational]]:
    """The unique vanishing relation of S spanned by the support, if any.

    Solves the certified nullspace of the |S| x |support| evaluation
    matrix.  When it is one-dimensional and its vector has a nonzero
    coefficient at T1, the smallest support monomial, returns that
    vector scaled to T1 coefficient 1, as {monomial: coefficient} over
    the whole support (zeros included).  Otherwise returns None: the
    samples do not pin one relation on this support.
    """
    if len(S) == 0:
        raise ValueError("empty point set")
    monos = sorted(support, key=grlex_key)
    system, certify = _sweep_system(S.points, monos, max(sum(m) for m in monos))
    att = system.certified(certify)
    if len(att.free_cols) != 1:
        return None
    vec = att.vectors[att.free_cols[0]]
    t1 = vec.get(0)
    if t1 is None:
        return None
    return {m: vec.get(j, Rational(0)) / t1 for j, m in enumerate(monos)}
