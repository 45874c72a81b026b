"""The integer root layer against a plain ``Fraction`` oracle.

``root_expansion`` sums over ``int`` and ``noncompact_parity`` reads two node
masks per even root.  Here every root and its negative, on every family of
``EXPANSION_GRID``, is expanded again by ``fraction_gauss_jordan`` (pure
``Fraction`` elimination, no code shared with ``linalg.row_reduce``), and
each parity is the painted coefficients' sum mod 2 over that expansion.
Root hashes and the order of ``generate_roots`` are checked against the
plain dataclass definitions they shortcut.
"""

import random
from itertools import combinations

import pytest

from matrix_helpers import fraction_gauss_jordan
from supervogan import build_diagram, generate_roots, noncompact_parity, root_expansion
from test_algebra import EXPANSION_GRID, Q

SAMPLED_PAINTINGS = 64


def oracle_expansions(diagram, vectors):
    """Each vector's coefficients over the nodes, solved in ``Fraction``
    arithmetic.  D(2,1;alpha) is expanded over its even nodes, whose roots
    are independent; its odd node gets 0."""
    if diagram.family.kind == "D21alpha":
        basis = diagram.even_indices()
    else:
        basis = range(len(diagram))
    basis = list(basis)
    columns = [diagram.root(i).coords() for i in basis]
    pivots, e = fraction_gauss_jordan([list(row) for row in zip(*columns)])
    assert pivots == list(range(len(basis)))
    out = []
    for v in vectors:
        y = [sum((w * x for w, x in zip(row, v.coords())), Q(0)) for row in e]
        assert not any(y[len(basis):]), f"{v} is outside the span"
        coeffs = [Q(0)] * len(diagram)
        for i, c in zip(basis, y):
            coeffs[i] = c
        out.append(tuple(coeffs))
    return out


def paintings(diagram, seed):
    """Every set of nodes up to 8 nodes; above that a seeded sample."""
    nodes = range(len(diagram))
    if len(diagram) <= 8:
        return [frozenset(p) for r in range(len(diagram) + 1) for p in combinations(nodes, r)]
    rng = random.Random(seed)
    return [frozenset(i for i in nodes if rng.random() < 0.5) for _ in range(SAMPLED_PAINTINGS)]


@pytest.mark.parametrize("fam", EXPANSION_GRID, ids=lambda f: f.display())
def test_root_expansion_matches_fraction_elimination(fam):
    diagram = build_diagram(fam)
    signed = [v for r in generate_roots(diagram).all_positive() for v in (r, -r)]
    for v, want in zip(signed, oracle_expansions(diagram, signed)):
        assert root_expansion(diagram, v) == want


@pytest.mark.parametrize("fam", EXPANSION_GRID, ids=lambda f: f.display())
def test_noncompact_parity_is_the_painted_coefficient_sum_mod_2(fam):
    diagram = build_diagram(fam)
    signed = [v for r in generate_roots(diagram).even() for v in (r, -r)]
    coeffs = oracle_expansions(diagram, signed)
    assert all(c.denominator == 1 for row in coeffs for c in row)
    coeffs = [[c.numerator for c in row] for row in coeffs]
    for painted in paintings(diagram, seed=len(diagram)):
        for v, row in zip(signed, coeffs):
            assert noncompact_parity(diagram, painted, v) == sum(row[i] for i in painted) % 2


@pytest.mark.parametrize("fam", EXPANSION_GRID, ids=lambda f: f.display())
def test_root_hashes_and_order_are_the_dataclass_ones(fam):
    """A root hashes as the tuple of its two ``Fraction`` parts, and each
    part of ``generate_roots`` is sorted under the dataclass order."""
    rs = generate_roots(build_diagram(fam))
    for r in rs.all_positive():
        for v in (r, -r):
            assert hash(v) == hash((v.e_part, v.d_part))
    for part in (rs.even_1, rs.even_2, rs.odd):
        assert list(part) == sorted(part)
