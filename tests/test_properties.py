"""Hypothesis property tests for the exact linear algebra and flip calculus."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from supervogan import (
    FamilyId,
    InvariantViolation,
    NotAnEvenRoot,
    build_diagram,
    enumerate_vogan,
    equivalent,
    flip,
    noncompact_parity,
)
from matrix_helpers import fraction_gauss_jordan, identity, is_rref, mat_mul, matrix_rank
from supervogan.algebra import weight
from supervogan.linalg import bareiss, invert, row_reduce, solve_exact
from test_algebra import exact_form

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


def eliminate_every_row(rows, scales):
    """Fraction-free Gauss-Jordan on ``[rows | diag(scales)]`` that steps every
    row at every pivot, as ``bareiss`` did before it left unchanged rows
    alone: ``(pivots, t, d)``, and ``scales`` permuted with the rows."""
    count, cols = len(rows), len(rows[0])
    aug = [
        row + [s if i == j else 0 for j in range(count)]
        for i, (row, s) in enumerate(zip(rows, scales))
    ]
    pivots, prev = [], 1
    for c in range(cols):
        r = len(pivots)
        found = [k for k in range(r, count) if aug[k][c]]
        if r == count or not found:
            continue
        k = found[0]
        aug[r], aug[k] = aug[k], aug[r]
        scales[r], scales[k] = scales[k], scales[r]
        top, p = aug[r], aug[r][c]
        for k in range(count):
            if k != r:
                new = [p * x - aug[k][c] * y for x, y in zip(aug[k], top)]
                assert all(x % prev == 0 for x in new)
                aug[k] = [x // prev for x in new]
        prev = p
        pivots.append(c)
    return pivots, [row[cols:] for row in aug], prev


@st.composite
def sparse_integer_matrices(draw):
    """Mostly zeros in -2..2, up to 12 columns, square or with up to two more
    rows than columns (A(m,n)'s coordinates have one vanishing row)."""
    cols = draw(st.integers(min_value=1, max_value=12))
    count = cols + draw(st.integers(min_value=0, max_value=2))
    entry = st.sampled_from((0, 0, 0, 0, 0, 0, -2, -1, 1, 2))
    rows = [[draw(entry) for _ in range(cols)] for _ in range(count)]
    scales = [draw(st.integers(min_value=1, max_value=4)) for _ in range(count)]
    return rows, scales


@settings(max_examples=300, deadline=None)
@given(sparse_integer_matrices())
def test_bareiss_gives_what_stepping_every_row_gives(drawn):
    """Leaving a row with 0 in the pivot column alone when the pivot equals
    the previous one changes no output: pivots, transform, last pivot and
    the permuted scales all match an elimination that steps every row."""
    rows, scales = drawn
    ours, theirs = scales[:], scales[:]
    got = bareiss([row[:] for row in rows], ours)
    assert got == eliminate_every_row([row[:] for row in rows], theirs)
    assert ours == theirs


def test_bareiss_still_checks_that_the_previous_pivot_divides():
    """Over integers every step divides exactly; entries off the integers
    break that, and the check still fires on a row it steps, one with 0 in
    the pivot column under a new pivot included."""
    with pytest.raises(InvariantViolation, match="does not divide row 0"):
        bareiss([[Q(1, 2), 1], [1, 1]], [1, 1])
    # row 0 has 0 in column 1, but the pivot 1/6 differs from the last, 1/2
    with pytest.raises(InvariantViolation, match="does not divide row 0"):
        bareiss([[Q(1, 2), 0], [0, Q(1, 3)]], [1, 1])


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


# ints and Fractions, integral ones included, whose sums and multiples
# are often integral
exact_numbers = st.one_of(st.integers(min_value=-9, max_value=9), rationals)


@st.composite
def weight_coordinates(draw):
    """Two weights' coordinates, ``(e_a, d_a, e_b, d_b)``, in one space."""
    shape = draw(st.integers(min_value=0, max_value=3)), draw(st.integers(min_value=0, max_value=3))
    return [[draw(exact_numbers) for _ in range(size)] for size in shape * 2]


@settings(max_examples=200, deadline=None)
@given(weight_coordinates(), exact_numbers)
def test_weight_arithmetic_is_fraction_arithmetic_in_exact_form(coords, c):
    """``a + b``, ``a - b``, ``-a`` and ``a.scale(c)`` equal the same sums
    and products taken over ``Fraction``, and hold each coordinate as an
    ``int`` where integral, else as a ``Fraction``."""
    e_a, d_a, e_b, d_b = coords
    a, b = weight(e_a, d_a), weight(e_b, d_b)
    assert exact_form(a.coords()) and exact_form(b.coords())
    e_a, d_a, e_b, d_b = [[Q(x) for x in part] for part in coords]
    cases = [
        (a + b, [x + y for x, y in zip(e_a, e_b)], [x + y for x, y in zip(d_a, d_b)]),
        (a - b, [x - y for x, y in zip(e_a, e_b)], [x - y for x, y in zip(d_a, d_b)]),
        (-a, [-x for x in e_a], [-x for x in d_a]),
        (a.scale(c), [Q(c) * x for x in e_a], [Q(c) * x for x in d_a]),
    ]
    for v, e_part, d_part in cases:
        assert v.e_part == tuple(e_part) and v.d_part == tuple(d_part)
        assert exact_form(v.coords()), v


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
