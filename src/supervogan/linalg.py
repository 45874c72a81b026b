"""Exact linear algebra over the rationals.

Matrices are plain lists of lists of ``fractions.Fraction`` and vectors are
tuples; no floating point anywhere.  The one elimination loop, ``bareiss``,
runs fraction-free Gauss-Jordan on ``int``s and returns the integer transform
and the last pivot; the package calls nothing else here.  ``row_reduce``,
behind the public ``invert`` and ``solve_exact``, clears each row's
denominators before it and divides after it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InvariantViolation

Q = Fraction

Matrix = list[list[Fraction]]


def bareiss(rows: list[list[int]], scales: list[int]) -> tuple[list[int], list[list[int]], int]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of ``[rows | diag(scales)]``
    over ``int``; the one elimination loop.

    Returns the pivot columns, the eliminated right-hand block ``t`` and the
    last pivot ``d``.  The left-hand block ends as ``d`` times the reduced
    row echelon form of ``rows`` in its first ``len(pivots)`` rows and zero
    below, and ``t`` is the transform that made it times ``diag(scales)``:
    for unit scales and a square nonsingular ``rows``, ``rows @ t`` is ``d``
    times the identity.  Every step divides exactly by the previous pivot.
    A row with 0 in the pivot column is left as it is when the pivot equals
    the previous one, since the step would give it back unchanged: on the
    expansion bases of the root census families, four row steps in five.
    ``scales`` is permuted in place along with the rows.
    """
    count, cols = len(rows), len(rows[0]) if rows else 0
    aug = [
        [*row, *(s if i == j else 0 for j in range(count))]
        for i, (row, s) in enumerate(zip(rows, scales))
    ]
    pivots: list[int] = []
    prev = 1
    for c in range(cols):
        r = len(pivots)
        if r == count:
            break
        pivot = next((k for k in range(r, count) if aug[k][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        scales[r], scales[pivot] = scales[pivot], scales[r]
        top = aug[r]
        p = top[c]
        for k in range(count):
            f = aug[k][c]
            # (p * row - 0 * top) / prev is the row itself when p == prev
            if k != r and (f or p != prev):
                new = [p * x - f * y for x, y in zip(aug[k], top)]
                if prev != 1:
                    if any(x % prev for x in new):
                        raise InvariantViolation(
                            f"fraction-free elimination: pivot {prev} does not divide row {k}"
                        )
                    new = [x // prev for x in new]
                aug[k] = new
        prev = p
        pivots.append(c)
    return pivots, [row[cols:] for row in aug], prev


def row_reduce(a: Matrix) -> tuple[list[int], Matrix]:
    """Gauss-Jordan elimination with exact pivoting.

    Returns the pivot columns of ``a`` and an invertible transform ``e`` with
    ``e @ a`` in reduced row echelon form: its first ``len(pivots)`` rows hold
    the pivots, in order, and its remaining rows are zero.

    Row i is scaled to integers by the lcm s_i of its denominators, and the
    identity beside it by the same s_i, so ``bareiss`` on ``[s a | s]`` keeps
    the transform exact.  Each pivot row of its transform is divided by the
    last pivot d, and each zero row by d times its own scale, which gives the
    transform Gauss-Jordan over ``Fraction`` gives.
    """
    scales = [lcm(*(x.denominator for x in row)) for row in a]
    pivots, t, d = bareiss(
        [[x.numerator * (s // x.denominator) for x in row] for row, s in zip(a, scales)],
        scales,
    )
    rank = len(pivots)
    return pivots, [
        [Q(x, d if k < rank else d * scales[k]) for x in row] for k, row in enumerate(t)
    ]


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
