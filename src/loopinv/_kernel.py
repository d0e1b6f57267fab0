"""Row reduction over a prime field: the one elimination kernel."""

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
