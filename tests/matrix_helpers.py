"""Exact matrix helpers that only the tests need: products, identities,
symmetry and rank, on the ``Fraction`` matrices of ``supervogan.linalg``."""

from supervogan.linalg import Matrix, Q, row_reduce


def identity(n: int) -> Matrix:
    return [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b or len(a[0]) != len(b):
        raise ValueError("incompatible shapes")
    cols = len(b[0])
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Q(0)) for j in range(cols)]
        for i in range(len(a))
    ]


def is_symmetric(a: Matrix) -> bool:
    n = len(a)
    return all(len(row) == n for row in a) and all(
        a[i][j] == a[j][i] for i in range(n) for j in range(i)
    )


def matrix_rank(a: Matrix) -> int:
    return len(row_reduce(a)[0])
