"""Exact linear algebra over the rationals.

Everything in this package runs on ``fractions.Fraction``; matrices are plain
lists of lists and vectors are tuples.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

Q = Fraction

Matrix = list[list[Fraction]]


def row_reduce(a: Matrix) -> tuple[list[int], Matrix]:
    """Gauss-Jordan elimination with exact pivoting.

    Returns the pivot columns of ``a`` and an invertible transform ``e`` with
    ``e @ a`` in reduced row echelon form: its first ``len(pivots)`` rows hold
    the pivots, in order, and its remaining rows are zero.
    """
    rows, cols = len(a), len(a[0]) if a else 0
    # augmented [a | I], reduced in place
    aug = [[Q(x) for x in row] + [Q(1) if i == j else Q(0) for j in range(rows)]
           for i, row in enumerate(a)]
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot = next((k for k in range(r, rows) if aug[k][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv_p = Q(1) / aug[r][c]
        aug[r] = [x * inv_p for x in aug[r]]
        for k in range(rows):
            if k != r and aug[k][c] != 0:
                factor = aug[k][c]
                aug[k] = [x - factor * y for x, y in zip(aug[k], aug[r])]
        pivots.append(c)
    return pivots, [row[cols:] for row in aug]


def invert(a: Matrix) -> Matrix:
    """Inverse by Gauss-Jordan elimination with exact pivoting.

    Raises ``ValueError`` on a singular matrix.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("not square")
    pivots, e = row_reduce(a)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return e


def solve_exact(a: Matrix, rhs: list[Fraction]) -> list[Fraction]:
    """Solve a*x = rhs for a consistent (possibly non-square) system.

    Gaussian elimination to reduced row echelon form; free variables are set
    to zero.  Raises ``ValueError`` if the system is inconsistent.
    """
    if len(rhs) != len(a):
        raise ValueError("incompatible shapes")
    pivots, e = row_reduce(a)
    y = [sum((w * Q(b) for w, b in zip(row, rhs)), Q(0)) for row in e]
    if any(y[len(pivots):]):
        raise ValueError("inconsistent system")
    x = [Q(0)] * (len(a[0]) if a else 0)
    for c, value in zip(pivots, y):
        x[c] = value
    return x

