import numpy as np
from hypothesis import given, settings, strategies as st

from loopinv._kernel import BACKEND, rref_mod_p, rref_mod_p_stack
from loopinv.vanishing import PRIMES


def reference_rref(rows, cols, p):
    """Plain mod-p reduced row echelon form of a list of rows: each column
    takes the first nonzero row at or below the current one as pivot."""
    M = [list(row) for row in rows]
    pivots = []
    r = 0
    for c in range(cols):
        i = next((i for i in range(r, len(M)) if M[i][c]), None)
        if i is None:
            continue
        M[r], M[i] = M[i], M[r]
        inv = pow(M[r][c], p - 2, p)
        M[r] = [x * inv % p for x in M[r]]
        for k in range(len(M)):
            if k != r and M[k][c]:
                f = M[k][c]
                M[k] = [(x - f * y) % p for x, y in zip(M[k], M[r])]
        pivots.append(c)
        r += 1
    return pivots, M


def _low_rank(draw, rows, cols, p):
    # a product of rows x rank and rank x cols factors, so that rank
    # deficiency and pivots past the first columns are common
    rank = draw(st.integers(0, 14))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    A = [[draw(entry) for _ in range(rank)] for _ in range(rows)]
    B = [[draw(entry) for _ in range(cols)] for _ in range(rank)]
    return [[sum(A[i][t] * B[t][j] for t in range(rank)) % p for j in range(cols)]
            for i in range(rows)]


@st.composite
def matrices(draw):
    p = draw(st.sampled_from([2, 5, 997, PRIMES[0], PRIMES[-1]]))
    rows, cols = (draw(st.integers(0, 14)) for _ in range(2))
    return _low_rank(draw, rows, cols, p), rows, cols, p


@st.composite
def stacks(draw):
    # same-shape matrices of independent ranks, so that members differ in
    # rank and in pivot rows
    p = draw(st.sampled_from([2, 5, 997, PRIMES[0]]))
    rows, cols = (draw(st.integers(0, 14)) for _ in range(2))
    members = [_low_rank(draw, rows, cols, p) for _ in range(draw(st.integers(0, 5)))]
    return members, rows, cols, p


def test_fallback_rref_known_case():
    p = 7
    M = np.array([[2, 4, 1], [1, 2, 3], [3, 6, 4]], dtype=np.int64)
    pivots = rref_mod_p(M, p)
    assert pivots == [0, 2]
    # reduced form: pivot columns are unit vectors, row order preserved
    assert M[0].tolist() == [1, 2, 0]
    assert M[1].tolist() == [0, 0, 1]
    assert M[2].tolist() == [0, 0, 0]


def test_fallback_handles_empty_and_zero():
    assert rref_mod_p(np.zeros((0, 4), dtype=np.int64), 5) == []
    assert rref_mod_p(np.zeros((3, 0), dtype=np.int64), 5) == []
    M = np.zeros((2, 3), dtype=np.int64)
    assert rref_mod_p(M, 5) == []
    assert not M.any()


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_kernel_matches_reference_rref(case):
    rows_in, rows, cols, p = case
    M = np.array(rows_in, dtype=np.int64).reshape(rows, cols)
    pivots, reduced = reference_rref(rows_in, cols, p)
    assert rref_mod_p(M, p) == pivots
    assert M.tolist() == reduced


def test_backend_reports_a_known_choice():
    assert BACKEND == "python"


def test_lazy_updates_stay_inside_int64():
    """Ten pivot rows [e_i | p - 1 ...] clear columns of p - 1 entries from
    the rows below, so ten rank-1 updates of (p - 1)^2, just under 2^60,
    land on the same entries: more than int64 holds unreduced.  The rows
    below end in distinct entries, so that a wrapped sum shows."""
    p, k, extra = PRIMES[0], 10, 4
    rows_in = [[int(i == j) if j < k else p - 1 for j in range(k + extra)] for i in range(k)]
    rows_in += [[p - 1] * k + [p - 1 - (i * extra + j) ** 3 for j in range(extra)]
                for i in range(3)]
    M = np.array(rows_in, dtype=np.int64)
    pivots, reduced = reference_rref(rows_in, k + extra, p)
    assert rref_mod_p(M, p) == pivots == list(range(k + 3))
    assert M.tolist() == reduced


@given(stacks())
@settings(max_examples=200, deadline=None)
def test_stack_matches_reference_rref_matrix_by_matrix(case):
    members, rows, cols, p = case
    M = np.array(members, dtype=np.int64).reshape(len(members), rows, cols)
    pivots = rref_mod_p_stack(M, p)
    assert len(pivots) == len(members)
    for rows_in, got, reduced in zip(members, pivots, M):
        want, expect = reference_rref(rows_in, cols, p)
        assert got == want
        assert reduced.tolist() == expect


def test_stack_lazy_updates_stay_inside_int64():
    """The case above, stacked with a copy whose rows are permuted, so the
    two members take their pivots from different rows."""
    p, k, extra = PRIMES[0], 10, 4
    rows_in = [[int(i == j) if j < k else p - 1 for j in range(k + extra)] for i in range(k)]
    rows_in += [[p - 1] * k + [p - 1 - (i * extra + j) ** 3 for j in range(extra)]
                for i in range(3)]
    members = [rows_in, rows_in[::-1]]
    M = np.array(members, dtype=np.int64)
    for rows_in, got, reduced in zip(members, rref_mod_p_stack(M, p), M):
        want, expect = reference_rref(rows_in, k + extra, p)
        assert got == want
        assert reduced.tolist() == expect
