"""Exact matrix helpers that only the tests need: products, identities,
symmetry, rank, and a plain ``Fraction`` Gauss-Jordan elimination to check
``supervogan.linalg.row_reduce`` against."""

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


def fraction_gauss_jordan(a: Matrix) -> tuple[list[int], Matrix]:
    """Reference elimination in ``Fraction`` arithmetic throughout: reduce
    ``[a | I]``, pivoting on the first nonzero entry at or below the current
    row; return the pivot columns and the transform block."""
    rows, cols = len(a), len(a[0]) if a else 0
    aug = [[Q(x) for x in row] + [Q(int(i == j)) for j in range(rows)] for i, row in enumerate(a)]
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        k = next((k for k in range(r, rows) if aug[k][c] != 0), None)
        if k is None:
            continue
        aug[r], aug[k] = aug[k], aug[r]
        p = aug[r][c]
        aug[r] = [x / p for x in aug[r]]
        for i in range(rows):
            f = aug[i][c]
            if i != r and f != 0:
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
    return pivots, [row[cols:] for row in aug]


def is_rref(m: Matrix, pivots: list[int]) -> bool:
    """``m`` is in reduced row echelon form with these pivot columns: row i
    leads with a 1 at ``pivots[i]`` that is alone in its column, pivots
    increase, and the rows past the pivots are zero."""
    if pivots != sorted(set(pivots)):
        return False
    for i, row in enumerate(m):
        if i >= len(pivots):
            if any(row):
                return False
            continue
        c = pivots[i]
        if any(row[:c]) or row[c] != 1 or any(m[k][c] for k in range(len(m)) if k != i):
            return False
    return True
