"""Exact dense linear algebra over the rationals.

Small helper kit: fraction-free (Bareiss) elimination on integer numerators
for ranks, inverses and kernels.  Matrices are plain lists of lists of
rationals; every result is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import ShapeError, SingularMatrixError

Q = Fraction


def as_fractions(rows):
    """Copy a matrix, coercing every entry to Fraction."""
    out = [[Q(v) for v in row] for row in rows]
    if out and any(len(row) != len(out[0]) for row in out):
        raise ShapeError("ragged matrix")
    return out


def identity(n):
    return [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]


def integers(tensor):
    """Nested sequences of ints and Fractions as nested lists of integers over their least common
    denominator: ``(nums, den)``."""
    leaves = tensor
    while leaves and isinstance(leaves[0], (list, tuple)):
        leaves = [v for t in leaves for v in t]
    den = lcm(*(v.denominator for v in leaves))

    def scale(t):
        return [scale(v) for v in t] if isinstance(t, (list, tuple)) else t.numerator * (den // t.denominator)

    return scale(tensor), den


def _bareiss(mat, above=False):
    """Fraction-free elimination of an integer matrix, in place.

    Clears each pivot's column below the pivot, and above it too when `above`
    (Gauss-Jordan: every pivot then equals the last, d, and the reduced row
    echelon form is the matrix over d).  The two-term Bareiss update keeps
    each entry a minor of the input, so every division is exact.  Returns the
    list of (row, col) pivot positions.
    """
    rows, cols = len(mat), len(mat[0]) if mat else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        p = next((i for i in range(r, rows) if mat[i][c]), None)
        if p is None:
            continue
        if p != r:
            mat[r], mat[p] = mat[p], mat[r]
        pivot_row, piv = mat[r], mat[r][c]
        for i in range(rows) if above else range(r + 1, rows):
            if i == r:
                continue
            row, head = mat[i], mat[i][c]
            for j in range(c + 1, cols):
                row[j] = (piv * row[j] - head * pivot_row[j]) // prev
            if above:
                # Left of c the pivot row is zero, so an entry there only takes the new pivot's scale.
                for j in range(c):
                    row[j] = piv * row[j] // prev
            row[c] = 0
        prev = piv
        pivots.append((r, c))
        r += 1
    return pivots


def rank(rows):
    """Exact rank of a (possibly rectangular) rational matrix."""
    return len(_bareiss(integers(as_fractions(rows))[0]))


def inverse_nums(nums):
    """The inverse of a square integer matrix as ``(adj, d)``: it is ``adj / d``.

    Fraction-free Gauss-Jordan elimination of ``[nums | I]`` leaves
    ``[d I | adj]``.  Raises SingularMatrixError when no inverse exists
    (including the non-square case).
    """
    n = len(nums)
    if n == 0 or any(len(row) != n for row in nums):
        raise SingularMatrixError("matrix is not square")
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(nums)]
    # elimination spills into the right block when the left block is singular
    if _bareiss(aug, above=True)[:n] != [(i, i) for i in range(n)]:
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in aug], aug[0][0]


def inverse(rows):
    """Exact inverse of a square rational matrix (`inverse_nums` of its numerators).

    Raises SingularMatrixError when no inverse exists (including the
    non-square case).
    """
    nums, den = integers(as_fractions(rows))
    adj, d = inverse_nums(nums)
    return [[Q(den * v, d) for v in row] for row in adj]


def nullspace(rows):
    """Exact kernel basis vectors (deterministic free-column order), read off the reduced row
    echelon form that `_bareiss` leaves over its last pivot."""
    mat = integers(as_fractions(rows))[0]
    pivots = _bareiss(mat, above=True)
    cols = len(mat[0]) if mat else 0
    d = mat[pivots[-1][0]][pivots[-1][1]] if pivots else 1
    basis = []
    for fc in sorted(set(range(cols)) - {c for _, c in pivots}):
        vec = [Q(0)] * cols
        vec[fc] = Q(1)
        for r, pc in pivots:
            vec[pc] = Q(-mat[r][fc], d)
        basis.append(vec)
    return basis
