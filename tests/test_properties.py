"""Hypothesis property tests for the exact linear algebra and flip calculus."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from supervogan import (
    FamilyId,
    NotAnEvenRoot,
    build_diagram,
    enumerate_vogan,
    equivalent,
    flip,
    noncompact_parity,
)
from matrix_helpers import fraction_gauss_jordan, identity, is_rref, mat_mul, matrix_rank
from supervogan.linalg import bareiss, invert, row_reduce, solve_exact

Q = Fraction

rationals = st.builds(
    Q,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=9),
)


@st.composite
def square_matrices(draw, max_size=4):
    n = draw(st.integers(min_value=1, max_value=max_size))
    return [[draw(rationals) for _ in range(n)] for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_invert_roundtrip(m):
    n = len(m)
    if matrix_rank([row[:] for row in m]) < n:
        return  # singular draws carry no inverse to test
    inv = invert(m)
    assert mat_mul(inv, m) == identity(n)
    assert mat_mul(m, inv) == identity(n)


@st.composite
def integer_matrices(draw, max_size=4):
    n = draw(st.integers(min_value=1, max_value=max_size))
    return [[draw(st.integers(min_value=-9, max_value=9)) for _ in range(n)] for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(integer_matrices())
def test_bareiss_gives_an_integer_inverse_up_to_its_last_pivot(n):
    """On an integer matrix with unit scales, ``n @ r`` is d times the
    identity exactly when the matrix is nonsingular."""
    size = len(n)
    pivots, r, d = bareiss([row[:] for row in n], [1] * size)
    assert all(type(x) is int for row in r for x in row)
    rank = matrix_rank([[Q(x) for x in row] for row in n])
    assert len(pivots) == rank
    if rank == size:
        product = [[sum(map(int.__mul__, row, col)) for col in zip(*r)] for row in n]
        assert product == [[d if i == j else 0 for j in range(size)] for i in range(size)]


@settings(max_examples=60, deadline=None)
@given(square_matrices(), st.data())
def test_solve_matches_multiplication(m, data):
    n = len(m)
    x = [data.draw(rationals) for _ in range(n)]
    rhs = [sum((m[i][j] * x[j] for j in range(n)), Q(0)) for i in range(n)]
    got = solve_exact(m, rhs)
    back = [sum((m[i][j] * got[j] for j in range(n)), Q(0)) for i in range(n)]
    assert back == rhs  # any exact solution must reproduce the rhs


wide_rationals = st.builds(
    Q,
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=1, max_value=40),
)


@st.composite
def rational_matrices(draw, max_size=5):
    """Any shape up to max_size; half the draws are a product of two thin
    factors, so rank-deficient and zero matrices come up often."""
    rows = draw(st.integers(min_value=1, max_value=max_size))
    cols = draw(st.integers(min_value=1, max_value=max_size))
    if draw(st.booleans()):
        return [[draw(wide_rationals) for _ in range(cols)] for _ in range(rows)]
    k = draw(st.integers(min_value=0, max_value=min(rows, cols) - 1))
    if k == 0:
        return [[Q(0)] * cols for _ in range(rows)]
    left = [[draw(rationals) for _ in range(k)] for _ in range(rows)]
    right = [[draw(rationals) for _ in range(cols)] for _ in range(k)]
    return mat_mul(left, right)


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
def test_row_reduce_matches_fraction_gauss_jordan(a):
    pivots, e = row_reduce(a)
    ref_pivots, ref_e = fraction_gauss_jordan(a)
    assert pivots == ref_pivots
    assert e == ref_e
    assert all(type(x) is Q for row in e for x in row)
    assert is_rref(mat_mul(e, a), pivots)
    assert len(fraction_gauss_jordan(e)[0]) == len(a)  # e is invertible


SMALL_FAMILIES = [
    FamilyId("A", 2, 1),
    FamilyId("B", 2, 1),
    FamilyId("B0", 0, 2),
    FamilyId("C", 0, 2),
    FamilyId("D", 2, 1),
    FamilyId("D21alpha", alpha=Q(1)),
    FamilyId("F4"),
    FamilyId("G3"),
]

ALL_STATES = [
    vd for fam in SMALL_FAMILIES for vd in enumerate_vogan(build_diagram(fam))
]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(ALL_STATES), st.data())
def test_flip_is_involutive(vd, data):
    if not vd.painted:
        return
    at = data.draw(st.sampled_from(sorted(vd.painted)))
    once = flip(vd, at)
    assert flip(once, at) == vd
    assert equivalent(vd, once)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(ALL_STATES), st.data())
def test_parity_additive_on_even_sums(vd, data):
    diagram = vd.diagram
    roots = [diagram.root(i) for i in diagram.even_indices()]
    a = data.draw(st.sampled_from(roots))
    b = data.draw(st.sampled_from(roots))
    total = a + b
    try:
        p = noncompact_parity(diagram, vd.painted, total)
    except NotAnEvenRoot:
        return  # the sum left the even root system
    pa = noncompact_parity(diagram, vd.painted, a)
    pb = noncompact_parity(diagram, vd.painted, b)
    assert p == (pa + pb) % 2
