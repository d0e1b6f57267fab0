import random

import numpy as np
import pytest

from loopinv._kernel import BACKEND
from loopinv._rowred_py import rref_mod_p as py_rref

try:
    from loopinv._rowred import rref_mod_p as c_rref
except ImportError:
    c_rref = None


def _random_matrix(rng, rows, cols, p):
    data = [rng.randrange(p) for _ in range(rows * cols)]
    return np.array(data, dtype=np.int64).reshape(rows, cols)


def test_fallback_rref_known_case():
    p = 7
    M = np.array([[2, 4, 1], [1, 2, 3], [3, 6, 4]], dtype=np.int64)
    pivots = py_rref(M, p)
    assert pivots == [0, 2]
    # reduced form: pivot columns are unit vectors, row order preserved
    assert M[0].tolist() == [1, 2, 0]
    assert M[1].tolist() == [0, 0, 1]
    assert M[2].tolist() == [0, 0, 0]


def test_fallback_handles_empty_and_zero():
    assert py_rref(np.zeros((0, 4), dtype=np.int64), 5) == []
    assert py_rref(np.zeros((3, 0), dtype=np.int64), 5) == []
    M = np.zeros((2, 3), dtype=np.int64)
    assert py_rref(M, 5) == []
    assert not M.any()


@pytest.mark.skipif(c_rref is None, reason="compiled kernel not built")
def test_compiled_matches_fallback_on_random_matrices():
    rng = random.Random(42)
    primes = [2, 3, 5, 997, (1 << 29) + 11, (1 << 30) - 35]
    for _ in range(300):
        rows = rng.randint(0, 14)
        cols = rng.randint(0, 14)
        p = rng.choice(primes)
        M = _random_matrix(rng, rows, cols, p)
        A, B = M.copy(), M.copy()
        assert c_rref(A, p) == py_rref(B, p)
        assert (A == B).all()


def test_backend_reports_a_known_choice():
    assert BACKEND in ("compiled", "python")

