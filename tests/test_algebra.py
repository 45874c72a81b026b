"""Diagram construction, Cartan data, dual bases, roots, parity."""

import dataclasses
import importlib
import pickle
from fractions import Fraction

import pytest

from supervogan import (
    EVEN,
    ODD_ISO,
    ODD_NONISO,
    FamilyId,
    InvalidFamily,
    InvariantViolation,
    NotAnEvenRoot,
    build_diagram,
    block_sign,
    cartan_matrix,
    dual_basis,
    even_blocks,
    generate_roots,
    node_count,
    noncompact_parity,
    root_expansion,
    validate_family,
    weight,
)

Q = Fraction


def q(rows):
    return tuple(tuple(Q(x) for x in row) for row in rows)


# ---------------------------------------------------------------- families


def test_family_display():
    assert FamilyId("A", 2, 1).display() == "A(2,1)"
    assert FamilyId("B0", 0, 3).display() == "B(0,3)"
    assert FamilyId("C", 0, 3).display() == "C(4)"
    assert FamilyId("D21alpha", alpha=Q(-1, 2)).display() == "D(2,1;-1/2)"
    assert FamilyId("F4").display() == "F(4)"


def test_family_normalization():
    # constructor arguments that the kind itself determines are overridden
    assert FamilyId("B0", 3, 2) == FamilyId("B0", 0, 2)
    assert FamilyId("D21alpha", alpha=1) == FamilyId("D21alpha", 2, 1, Q(1))
    assert FamilyId("F4", 9, 9) == FamilyId("F4")
    assert isinstance(FamilyId("D21alpha", alpha=2).alpha, Q)


@pytest.mark.parametrize(
    "fam",
    [
        FamilyId("A", 0, 0),
        FamilyId("B", 0, 1),
        FamilyId("B", 1, 0),
        FamilyId("B0", 0, 0),
        FamilyId("C", 0, 0),
        FamilyId("D", 1, 1),
        FamilyId("D", 2, 0),
        FamilyId("D21alpha", alpha=0),
        FamilyId("D21alpha", alpha=-1),
    ],
)
def test_invalid_families(fam):
    with pytest.raises(InvalidFamily):
        validate_family(fam)


def test_node_counts():
    assert len(build_diagram(FamilyId("A", 2, 1))) == 4
    assert len(build_diagram(FamilyId("B", 2, 2))) == 4
    assert len(build_diagram(FamilyId("B0", 0, 3))) == 3
    assert len(build_diagram(FamilyId("C", 0, 3))) == 4
    assert len(build_diagram(FamilyId("D", 3, 2))) == 5
    assert len(build_diagram(FamilyId("D21alpha", alpha=1))) == 4
    assert len(build_diagram(FamilyId("F4"))) == 4
    assert len(build_diagram(FamilyId("G3"))) == 3


def test_node_kinds():
    d = build_diagram(FamilyId("A", 2, 1))
    assert [n.kind for n in d.nodes] == [EVEN, EVEN, ODD_ISO, EVEN]
    d = build_diagram(FamilyId("B0", 0, 3))
    assert [n.kind for n in d.nodes] == [EVEN, EVEN, ODD_NONISO]
    d = build_diagram(FamilyId("G3"))
    assert [n.kind for n in d.nodes] == [ODD_ISO, EVEN, EVEN]


# ---------------------------------------------------------- Cartan matrices


def test_cartan_a11():
    data = cartan_matrix(build_diagram(FamilyId("A", 1, 1)))
    assert data.matrix == q([[2, -1, 0], [-1, 0, 1], [0, -1, 2]])
    assert data.eps == (Q(1), Q(1), Q(-1))
    assert data.symmetrized == q([[2, -1, 0], [-1, 0, 1], [0, 1, -2]])


def test_cartan_b11():
    data = cartan_matrix(build_diagram(FamilyId("B", 1, 1)))
    assert data.matrix == q([[0, -1], [-2, 2]])
    assert data.eps == (Q(1), Q(1, 2))


def test_cartan_g3():
    data = cartan_matrix(build_diagram(FamilyId("G3")))
    assert data.matrix == q([[0, -1, 0], [-1, 2, -3], [0, -1, 2]])
    assert data.eps == (Q(1), Q(1), Q(3))


def test_cartan_f4():
    data = cartan_matrix(build_diagram(FamilyId("F4")))
    assert data.matrix == q(
        [[0, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
    )
    assert data.eps == (Q(1, 2), Q(1, 2), Q(1), Q(1))


def all_families(max_m=4, max_n=4):
    fams = [FamilyId("A", m, n) for m in range(max_m) for n in range(max_n) if m + n >= 1]
    fams += [FamilyId("B", m, n) for m in range(1, max_m) for n in range(1, max_n)]
    fams += [FamilyId("B0", 0, n) for n in range(1, max_n)]
    fams += [FamilyId("C", 0, n) for n in range(1, max_n)]
    fams += [FamilyId("D", m, n) for m in range(2, max_m) for n in range(1, max_n)]
    fams += [
        FamilyId("D21alpha", alpha=a)
        for a in (Q(1), Q(2), Q(1, 2), Q(-2), Q(-1, 2), Q(3, 7))
    ]
    fams += [FamilyId("F4"), FamilyId("G3")]
    return fams


def test_node_count_matches_built_diagram():
    for fam in all_families(7, 7):
        assert node_count(fam) == len(build_diagram(fam)), fam.display()


def test_equal_diagrams_hash_equal():
    for fam in all_families():
        a, b = build_diagram(fam), build_diagram(fam)
        assert a is not b
        assert a == b
        assert hash(a) == hash(b) == hash((a.nodes, a.family))
        assert hash(a) == hash(a)
        assert [f.name for f in dataclasses.fields(a)] == ["nodes", "family"]
        assert repr(a) == f"Diagram(nodes={a.nodes!r}, family={a.family!r})"
        clone = pickle.loads(pickle.dumps(a))
        assert clone == a and hash(clone) == hash(a)


def test_cartan_matrix_rejects_asymmetric_gram(monkeypatch):
    module = importlib.import_module("supervogan.algebra")
    diagram = build_diagram(FamilyId("B", 1, 1))
    gram = module.gram_matrix(diagram)
    skewed = (gram[0], (gram[1][0] + 1,) + gram[1][1:])
    monkeypatch.setattr(module, "gram_matrix", lambda d: skewed)
    module.cartan_matrix.cache_clear()
    try:
        with pytest.raises(InvariantViolation):
            module.cartan_matrix(diagram)
    finally:
        module.cartan_matrix.cache_clear()


def test_noncompact_parity_rejects_fractional_coefficient(monkeypatch):
    module = importlib.import_module("supervogan.algebra")
    diagram = build_diagram(FamilyId("B", 1, 1))
    root = generate_roots(diagram).even()[0]
    monkeypatch.setattr(
        module, "root_expansion", lambda d, v: tuple(Q(1, 2) for _ in d.nodes)
    )
    with pytest.raises(InvariantViolation):
        module.noncompact_parity(diagram, frozenset(diagram.even_indices()), root)


@pytest.mark.parametrize("fam", all_families(), ids=lambda f: f.display())
def test_symmetrization_identity(fam):
    """diag(eps) * A equals the Gram matrix of the simple roots, exactly."""
    diagram = build_diagram(fam)
    data = cartan_matrix(diagram)
    n = len(diagram)
    gram = [
        [diagram.root(i).inner(diagram.root(j)) for j in range(n)] for i in range(n)
    ]
    for i in range(n):
        for j in range(n):
            assert data.eps[i] * data.matrix[i][j] == gram[i][j]
            assert data.symmetrized[i][j] == gram[i][j]


def test_a_family_eps_sign_pattern():
    for m in range(4):
        for n in range(4):
            if m + n < 1:
                continue
            data = cartan_matrix(build_diagram(FamilyId("A", m, n)))
            signs = [1 if e > 0 else -1 for e in data.eps]
            assert signs == [1] * (m + 1) + [-1] * n


# ------------------------------------------------------- blocks and duality


def test_even_blocks_layout():
    d = build_diagram(FamilyId("D", 3, 2))
    assert even_blocks(d) == ((0,), (2, 3, 4))
    d = build_diagram(FamilyId("A", 2, 1))
    assert even_blocks(d) == ((0, 1), (3,))
    d = build_diagram(FamilyId("D21alpha", alpha=1))
    assert even_blocks(d) == ((0,), (2,), (3,))


def test_block_signs():
    d = build_diagram(FamilyId("A", 2, 1))
    assert block_sign(d, (0, 1)) == 1
    assert block_sign(d, (3,)) == -1
    d = build_diagram(FamilyId("B", 2, 2))
    signs = [block_sign(d, b) for b in even_blocks(d)]
    assert sorted(signs) == [-1, 1]


@pytest.mark.parametrize("fam", all_families(), ids=lambda f: f.display())
def test_dual_basis_duality(fam):
    """<omega_j, alpha_k> = delta_jk / eps_k inside each even block."""
    diagram = build_diagram(fam)
    data = cartan_matrix(diagram)
    for block in even_blocks(diagram):
        duals = dual_basis(diagram, block)
        for a, j in enumerate(block):
            for b, k in enumerate(block):
                expect = Q(0) if j != k else 1 / data.eps[k]
                assert duals[a].inner(diagram.root(k)) == expect


@pytest.mark.parametrize("fam", all_families(), ids=lambda f: f.display())
def test_dual_basis_positivity(fam):
    """Nonneg combinations of one block's duals pair s-positively."""
    diagram = build_diagram(fam)
    for block in even_blocks(diagram):
        s = block_sign(diagram, block)
        duals = dual_basis(diagram, block)
        combos = list(duals)
        if len(duals) > 1:
            total = duals[0]
            for w in duals[1:]:
                total = total + w
            combos.append(total)
            combos.append(duals[0] + duals[-1].scale(Q(3, 2)))
        for x in combos:
            for y in combos:
                assert s * x.inner(y) > 0


# ----------------------------------------------------------------- roots


def test_dimension_bookkeeping():
    # rank + |even roots| + |odd roots| = dim of the superalgebra
    cases = [
        (FamilyId("A", 1, 0), 2, 8),
        (FamilyId("A", 2, 1), 4, 24),
        (FamilyId("A", 1, 1), 2, 14),  # quotient family: rank drops to 2n
        (FamilyId("A", 2, 2), 4, 34),
        (FamilyId("B", 1, 1), 2, 12),
        (FamilyId("B", 2, 2), 4, 10 + 10 + 20),
        (FamilyId("B0", 0, 2), 2, 14),
        (FamilyId("C", 0, 2), 3, 19),
        (FamilyId("D", 2, 1), 3, 17),
        (FamilyId("D", 3, 2), 5, 15 + 10 + 24),
        (FamilyId("D21alpha", alpha=Q(2)), 3, 17),
        (FamilyId("F4"), 4, 40),
        (FamilyId("G3"), 3, 31),
    ]
    for fam, rank, dim in cases:
        rs = generate_roots(build_diagram(fam))
        total = rank + 2 * len(rs.even()) + 2 * len(rs.odd)
        assert total == dim, fam.display()


def test_b01_roots():
    rs = generate_roots(build_diagram(FamilyId("B0", 0, 1)))
    assert [v.coords() for v in rs.odd] == [(Q(1),)]
    assert [v.coords() for v in rs.even()] == [(Q(2),)]


def test_b11_odd_roots():
    rs = generate_roots(build_diagram(FamilyId("B", 1, 1)))
    odd = {v.coords() for v in rs.odd}
    assert odd == {(Q(0), Q(1)), (Q(1), Q(1)), (Q(-1), Q(1))}


@pytest.mark.parametrize(
    "fam", [FamilyId("F4"), FamilyId("D21alpha", alpha=Q(1, 2))], ids=lambda f: f.display()
)
def test_negation_and_subtraction_match_scaling(fam):
    """-v and a - b agree exactly, hash included, with scaling by -1."""
    roots = generate_roots(build_diagram(fam)).all_positive()
    assert any(x.denominator != 1 for v in roots for x in v.coords())
    for a in roots:
        neg = a.scale(Q(-1))
        assert -a == neg and hash(-a) == hash(neg)
        assert all(isinstance(x, Fraction) for x in (-a).coords())
        for b in roots:
            diff = a + b.scale(Q(-1))
            assert a - b == diff and hash(a - b) == hash(diff)
            assert all(isinstance(x, Fraction) for x in (a - b).coords())


def test_root_expansion_roundtrip():
    diagram = build_diagram(FamilyId("B", 2, 1))
    for v in generate_roots(diagram).all_positive():
        coeffs = root_expansion(diagram, v)
        acc = None
        for c, node in zip(coeffs, diagram.nodes):
            term = node.root.scale(c)
            acc = term if acc is None else acc + term
        assert acc == v
        assert all(c == int(c) for c in coeffs)


def test_root_expansion_d21_drops_dependent_leg():
    diagram = build_diagram(FamilyId("D21alpha", alpha=Q(1, 2)))
    coeffs = root_expansion(diagram, diagram.root(2))
    assert coeffs == (Q(0), Q(0), Q(1), Q(0))
    with pytest.raises(ValueError):
        root_expansion(diagram, weight([1, 2, 3], [0, 0]))


def test_noncompact_parity_basics():
    diagram = build_diagram(FamilyId("A", 3, 0))
    rs = generate_roots(diagram)
    # empty painting -> everything compact
    for v in rs.even():
        assert noncompact_parity(diagram, frozenset(), v) == 0
    # painted {1}: alpha_2 itself is noncompact
    assert noncompact_parity(diagram, frozenset({1}), diagram.root(1)) == 1
    assert noncompact_parity(diagram, frozenset({1}), diagram.root(0)) == 0


def test_noncompact_parity_rejects_odd_roots():
    diagram = build_diagram(FamilyId("A", 1, 1))
    rs = generate_roots(diagram)
    with pytest.raises(NotAnEvenRoot):
        noncompact_parity(diagram, frozenset(), rs.odd[0])
    with pytest.raises(NotAnEvenRoot):
        noncompact_parity(diagram, frozenset(), weight([5, 5], [0, 0]))


@pytest.mark.parametrize(
    "fam",
    [f for f in all_families(4, 4) if f.kind in ("A", "B", "B0", "C", "D")],
    ids=lambda f: f.display(),
)
def test_parity_is_additive_on_even_roots(fam):
    """parity(beta+gamma) = parity(beta) XOR parity(gamma) when all three are
    even roots, for every painting of even nodes."""
    diagram = build_diagram(fam)
    if len(diagram) > 5:
        pytest.skip("covered at smaller rank")
    rs = generate_roots(diagram)
    evens = set(rs.even()) | {-v for v in rs.even()}
    import itertools

    paintable = [i for i in diagram.even_indices()]
    for r in range(len(paintable) + 1):
        for painted in itertools.combinations(paintable, r):
            ps = frozenset(painted)
            for beta in evens:
                for gamma in evens:
                    if (beta + gamma) in evens:
                        left = noncompact_parity(diagram, ps, beta + gamma)
                        right = noncompact_parity(diagram, ps, beta) ^ noncompact_parity(
                            diagram, ps, gamma
                        )
                        assert left == right
