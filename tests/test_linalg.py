import random
from fractions import Fraction as Q

import pytest

from helpers import mat_mul
from qtwist import SingularMatrixError
from qtwist.linalg import identity, inverse, nullspace, rank


def test_identity_inverse():
    assert inverse(identity(3)) == identity(3)


def test_scalar_inverse():
    assert inverse([[2]]) == [[Q(1, 2)]]


def test_inverse_exact_random():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = [[Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        if rank(m) < n:
            continue
        assert mat_mul(m, inverse(m)) == identity(n)
        assert mat_mul(inverse(m), m) == identity(n)


def test_singular_raises():
    with pytest.raises(SingularMatrixError):
        inverse([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        inverse([[1, 2, 3], [4, 5, 6]])


def test_rank_examples():
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank(identity(3)) == 3
    assert rank([[1, 2], [2, 4], [3, 6]]) == 1


def test_nullspace():
    vecs = nullspace([[1, 2], [2, 4]])
    assert len(vecs) == 1
    v = vecs[0]
    assert v[0] + 2 * v[1] == 0 and any(v)


def test_nullspace_full_rank_empty():
    assert nullspace(identity(2)) == []
