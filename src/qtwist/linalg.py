"""Exact dense linear algebra over the rationals.

Small helper kit: fraction-free (Bareiss) forward elimination for ranks and
inverses, plus reduced row echelon form for kernel extraction.  Matrices are
plain lists of lists; every entry is coerced to `fractions.Fraction`, so all
results are exact.
"""

from __future__ import annotations

from fractions import Fraction

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


def _bareiss_forward(mat):
    """Fraction-free forward elimination, in place.

    Returns the list of (row, col) pivot positions.  The two-term Bareiss
    update keeps intermediate entries as small as exact arithmetic allows.
    """
    rows, cols = len(mat), len(mat[0]) if mat else 0
    pivots = []
    prev = Q(1)
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        p = next((i for i in range(r, rows) if mat[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            mat[r], mat[p] = mat[p], mat[r]
        piv = mat[r][c]
        for i in range(r + 1, rows):
            head = mat[i][c]
            for j in range(c + 1, cols):
                mat[i][j] = (piv * mat[i][j] - head * mat[r][j]) / prev
            mat[i][c] = Q(0)
        prev = piv
        pivots.append((r, c))
        r += 1
    return pivots


def rank(rows):
    """Exact rank of a (possibly rectangular) rational matrix."""
    mat = as_fractions(rows)
    if not mat or not mat[0]:
        return 0
    return len(_bareiss_forward(mat))


def inverse(rows):
    """Exact inverse of a square rational matrix.

    Fraction-free forward elimination on the augmented matrix followed by
    exact back substitution.  Raises SingularMatrixError when no inverse
    exists (including the non-square case).
    """
    mat = as_fractions(rows)
    n = len(mat)
    if n == 0 or any(len(row) != n for row in mat):
        raise SingularMatrixError("matrix is not square")
    aug = [mat[i][:] + [Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]
    pivots = _bareiss_forward(aug)
    # elimination spills into the right block when the left block is singular
    if pivots[: n] != [(i, i) for i in range(n)]:
        raise SingularMatrixError("matrix is singular")
    # full rank forces pivot (r, c) = (i, i); solve the triangular system,
    # overwriting the right block rows bottom-up with the solution
    for i in range(n - 1, -1, -1):
        piv = aug[i][i]
        for j in range(n, 2 * n):
            acc = aug[i][j]
            for k in range(i + 1, n):
                acc -= aug[i][k] * aug[k][j]
            aug[i][j] = acc / piv
    return [row[n:] for row in aug]


def rref(rows):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    mat = as_fractions(rows)
    if not mat or not mat[0]:
        return mat, []
    rows_n, cols = len(mat), len(mat[0])
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows_n:
            break
        p = next((i for i in range(r, rows_n) if mat[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            mat[r], mat[p] = mat[p], mat[r]
        piv = mat[r][c]
        mat[r] = [v / piv for v in mat[r]]
        for i in range(rows_n):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


def nullspace(rows):
    """Exact kernel basis vectors (deterministic free-column order)."""
    mat, pivots = rref(rows)
    if not mat or not mat[0]:
        return []
    cols = len(mat[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Q(0)] * cols
        vec[fc] = Q(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(vec)
    return basis
