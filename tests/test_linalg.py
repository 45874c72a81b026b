"""Exact rational linear algebra."""

from fractions import Fraction

import pytest

from matrix_helpers import identity, is_symmetric, mat_mul, matrix_rank
from supervogan.linalg import invert, row_reduce, solve_exact

Q = Fraction


def test_identity_and_mat_mul():
    a = [[Q(1), Q(2)], [Q(3), Q(4)]]
    assert mat_mul(a, identity(2)) == a
    assert mat_mul(identity(2), a) == a
    b = [[Q(0), Q(1)], [Q(1), Q(0)]]
    assert mat_mul(a, b) == [[Q(2), Q(1)], [Q(4), Q(3)]]


def test_invert_roundtrip():
    a = [[Q(2), Q(1), Q(0)], [Q(1), Q(3), Q(1)], [Q(0), Q(1), Q(-2)]]
    inv = invert(a)
    assert mat_mul(a, inv) == identity(3)
    assert mat_mul(inv, a) == identity(3)
    # entries stay exact fractions
    assert all(isinstance(x, Q) for row in inv for x in row)


def test_invert_singular():
    a = [[Q(1), Q(2)], [Q(2), Q(4)]]
    with pytest.raises(ValueError):
        invert(a)


def test_is_symmetric():
    assert is_symmetric([[Q(0), Q(5)], [Q(5), Q(2)]])
    assert not is_symmetric([[Q(0), Q(5)], [Q(-5), Q(2)]])


def test_solve_exact():
    a = [[Q(2), Q(1)], [Q(1), Q(3)]]
    x = solve_exact(a, [Q(5), Q(10)])
    assert x == [Q(1), Q(3)]


def test_solve_exact_underdetermined_sets_free_vars_to_zero():
    a = [[Q(1), Q(1)]]
    x = solve_exact(a, [Q(7)])
    assert len(x) == 2
    assert a[0][0] * x[0] + a[0][1] * x[1] == Q(7)
    assert x[1] == 0


def test_solve_exact_inconsistent():
    a = [[Q(1), Q(1)], [Q(2), Q(2)]]
    with pytest.raises(ValueError):
        solve_exact(a, [Q(1), Q(3)])


def test_invert_and_solve_exact_reject_mismatched_shapes():
    with pytest.raises(ValueError, match="not square"):
        invert([[Q(1), Q(2)]])
    with pytest.raises(ValueError, match="incompatible shapes"):
        solve_exact([[Q(1), Q(2)], [Q(3), Q(4)]], [Q(1)])


def test_matrix_rank():
    assert matrix_rank([[Q(1), Q(2)], [Q(2), Q(4)]]) == 1
    assert matrix_rank(identity(4)) == 4
    assert matrix_rank([[Q(0), Q(0)], [Q(0), Q(0)]]) == 0


@pytest.mark.parametrize(
    "a",
    [
        [[2, 1], [1, 3]],
        [[1, 1]],
        [[1, 2], [2, 4], [3, 6]],
        [[0, 2, 4, 1], [0, 1, 2, 0], [0, 3, 6, 1]],
        [[0, 0], [0, 0]],
    ],
)
def test_row_reduce_transform_gives_reduced_echelon_form(a):
    a = [[Q(x) for x in row] for row in a]
    pivots, e = row_reduce(a)
    r = mat_mul(e, a)
    assert pivots == sorted(pivots)
    for k, row in enumerate(r):
        if k < len(pivots):
            lead = next(j for j, x in enumerate(row) if x != 0)
            assert lead == pivots[k] and row[lead] == 1
            assert all(r[i][lead] == 0 for i in range(len(r)) if i != k)
        else:
            assert not any(row)
    assert _det(e) != 0


def _det(m):
    """Laplace expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )
