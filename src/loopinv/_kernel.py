"""Row reduction over a prime field.

rref_mod_p reduces one matrix; rref_mod_p_stack reduces a stack of
same-shape matrices, each exactly as rref_mod_p would, with one numpy
operation per column for the whole stack.  Both stay because small
matrices cost numpy call overhead, not arithmetic.  Measured with numpy
2.4 on a 2-core x86-64 Xeon (best of 5, copying the input included):

    input                               rref_mod_p       stacked
    one 13 x 10 support matrix          0.20 ms          0.52 ms
    one 25 x 375 walk block             1.34 ms          2.20 ms
    31 support matrices, 13 x 10 each   6.29 ms (31)     0.99 ms

so a stack of one goes to rref_mod_p.
"""

import numpy as np

# loopbench/worker.py records this in every result's environment block;
# it stays a constant so that results from different commits compare
# without an environment-differs warning.
BACKEND = "python"

# rank-1 updates left unreduced: each subtracts less than 2^60, and int64
# holds 8 of them
LAZY_UPDATES = 7


def rref_mod_p(M, p):
    """Reduce M to reduced row echelon form mod p, in place, and return
    the pivot column indices.

    M is an int64 matrix with entries in [0, p).  Pivots are chosen
    leftmost-greedy: each column takes the first nonzero row at or below
    the current one.  Pivot rows are scaled to 1 and every other row is
    cleared in the pivot column.  p must stay below 2^30, so that a
    product of two residues is below 2^60: entries stay unreduced for up
    to LAZY_UPDATES rank-1 updates, and only the pivot's column and row
    are reduced before they are used.
    """
    rows, cols = M.shape
    pivots = []
    r = pending = 0
    for c in range(cols):
        if r == rows:
            break
        M[:, c] %= p
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
        # the pivot row is zero left of c, so only columns c.. change
        row = M[r, c:]
        row %= p
        row *= pow(int(row[0]), -1, p)
        row %= p
        col = M[:, c].copy()
        col[r] = 0
        if col.any():
            if pending == LAZY_UPDATES:
                M[:, c:] %= p
                pending = 0
            M[:, c:] -= col[:, None] * row
            pending += 1
        pivots.append(c)
        r += 1
    if pending:
        M %= p
    return pivots


def rref_mod_p_stack(M, p):
    """Reduce each matrix of the int64 stack M (shape P x rows x cols,
    entries in [0, p)) as rref_mod_p does, in place, and return one
    pivot list per matrix.

    Each matrix keeps its own pivot row, so matrices of one stack may
    differ in rank and in pivot rows.  A column costs one update for the
    whole stack, and each matrix takes at most one update per column, so
    the stack's LAZY_UPDATES bound holds for every matrix.
    """
    P, rows, cols = M.shape
    pivots = [[] for _ in range(P)]
    r = np.zeros(P, dtype=np.intp)
    below = np.arange(rows)
    pending = 0
    for c in range(cols):
        if r.min(initial=rows) == rows:
            break
        col = M[:, :, c]
        col %= p
        # the first nonzero row at or below each matrix's current row
        nonzero = (col != 0) & (below >= r[:, None])
        ks = np.flatnonzero(nonzero.any(axis=1))
        if ks.size == 0:
            continue
        rk = r[ks]
        i = nonzero[ks].argmax(axis=1)
        swap = i != rk
        if swap.any():
            k, a, b = ks[swap], rk[swap], i[swap]
            M[k, a], M[k, b] = M[k, b], M[k, a].copy()
        # pivot rows are zero left of c, so only columns c.. change
        row = M[ks, rk, c:] % p
        row *= np.array(_inverses(row[:, 0].tolist(), p), dtype=np.int64)[:, None]
        row %= p
        M[ks, rk, c:] = row
        col = M[ks, :, c]
        col[np.arange(ks.size), rk] = 0
        if pending == LAZY_UPDATES:
            M[:, :, c:] %= p
            pending = 0
        M[ks, :, c:] -= col[:, :, None] * row[:, None, :]
        pending += 1
        for k in ks.tolist():
            pivots[k].append(c)
        r[ks] += 1
    if pending:
        M %= p
    return pivots


def _inverses(xs, p):
    """The inverses mod p of the nonzero residues xs, with one pow for
    all of them (Montgomery's trick)."""
    prefix = []
    acc = 1
    for x in xs:
        prefix.append(acc)
        acc = acc * x % p
    inv = pow(acc, -1, p)
    out = [0] * len(xs)
    for k in range(len(xs) - 1, -1, -1):
        out[k] = prefix[k] * inv % p
        inv = inv * xs[k] % p
    return out
