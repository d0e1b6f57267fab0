"""Row reduction over a prime field: the one elimination kernel."""

import numpy as np

# loopbench/worker.py records this in every result's environment block;
# it stays a constant so that results from different commits compare
# without an environment-differs warning.
BACKEND = "python"


def rref_mod_p(M, p):
    """Reduce M to reduced row echelon form mod p, in place, and return
    the pivot column indices.

    M is an int64 matrix with entries in [0, p).  Pivots are chosen
    leftmost-greedy: each column takes the first nonzero row at or below
    the current one.  Pivot rows are scaled to 1 and every other row is
    cleared in the pivot column.  p must stay below 2^30 so that products
    of two residues fit int64.
    """
    rows, cols = M.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
        inv = pow(int(M[r, c]), p - 2, p)
        M[r] = M[r] * inv % p
        col = M[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            M[hit] = (M[hit] - np.outer(col[hit], M[r])) % p
        pivots.append(c)
        r += 1
    return pivots
