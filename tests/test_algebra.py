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
    BadIndex,
    Diagram,
    FamilyId,
    InvalidFamily,
    InvariantViolation,
    NotAnEvenRoot,
    SingularBlock,
    SingularNormalization,
    SupervoganError,
    WeightVector,
    automorphisms,
    build_diagram,
    block_sign,
    cartan_matrix,
    dual_basis,
    enumerate_real_forms,
    enumerate_vogan,
    even_blocks,
    flip_orbit,
    generate_roots,
    node_count,
    noncompact_parity,
    reduce,
    render_ascii,
    root_expansion,
    table_report,
    validate_family,
    weight,
)
from supervogan.algebra import (
    RANK_GUARD,
    RankGuardExceeded,
    check_rank_guard,
    read_alpha,
)
from supervogan.classify import classify
from supervogan.vogan import VoganDiagram, identity_involution

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


INVALID_FAMILIES = [
    lambda: FamilyId("A", 0, 0),
    lambda: FamilyId("B", 0, 1),
    lambda: FamilyId("B", 1, 0),
    lambda: FamilyId("B0", 0, 0),
    lambda: FamilyId("C", 0, 0),
    lambda: FamilyId("D", 1, 1),
    lambda: FamilyId("D", 2, 0),
    lambda: FamilyId("D21alpha", alpha=0),
    lambda: FamilyId("D21alpha", alpha=-1),
    lambda: FamilyId("A", 2, 1, alpha=Q(1, 2)),  # alpha belongs to D(2,1;alpha) alone
    lambda: FamilyId("F4", alpha=Q(1)),
    lambda: FamilyId(10**5000),  # a kind that is no string, and too long to print
]


@pytest.mark.parametrize(
    "make", INVALID_FAMILIES, ids=[f"fam{i}" for i in range(len(INVALID_FAMILIES))]
)
def test_invalid_families(make):
    # FamilyId validates itself: no invalid family can be constructed
    with pytest.raises(InvalidFamily):
        make()


@pytest.mark.parametrize(
    "make",
    [
        lambda: FamilyId("D21alpha", alpha=10**5000),
        lambda: FamilyId("D21alpha", alpha=Q(1, 10**5000)),
        lambda: FamilyId("A", 10**5000, 1),
        lambda: FamilyId("A", -(10**5000), 1),
        lambda: FamilyId("A", True, 1),  # equals A(1,1) but displays A(True,1)
        lambda: FamilyId("C", 0, 2.0),
        # alpha is an int or a Fraction; text goes through read_alpha
        lambda: FamilyId("D21alpha", alpha="x"),
        lambda: FamilyId("D21alpha", alpha=float("nan")),
        lambda: FamilyId("D21alpha", alpha=[1]),
        lambda: FamilyId("D21alpha", alpha=0.1),  # would read as 3602879701896397/2**55
        lambda: FamilyId("D21alpha", alpha=True),  # equals 1 but is no number
    ],
    ids=[
        "huge-alpha",
        "huge-alpha-denominator",
        "huge-m",
        "huge-negative-m",
        "bool-m",
        "float-n",
        "text-alpha",
        "nan-alpha",
        "list-alpha",
        "float-alpha",
        "bool-alpha",
    ],
)
def test_families_that_cannot_display_or_alias_another_are_invalid(make):
    with pytest.raises(InvalidFamily):
        make()


def test_the_parameter_bound_admits_every_readable_alpha():
    texts = ["9" * 64, "9" * 61 + "e64", "-" + "9" * 60 + "e64", "." + "0" * 58 + "1e-64", "1/" + "9" * 62]
    for text in texts:
        validate_family(FamilyId("D21alpha", alpha=read_alpha(text)))
    fam = FamilyId("A", 3000, 0)
    validate_family(fam)
    with pytest.raises(RankGuardExceeded):
        check_rank_guard(fam)


@pytest.mark.parametrize(
    "fam", [FamilyId("A", 6, 6), FamilyId("A", 10**100, 0)], ids=["A(6,6)", "A(10**100,0)"]
)
def test_build_diagram_refuses_families_above_the_guard_before_building(fam):
    before = build_diagram.cache_info()
    with pytest.raises(RankGuardExceeded, match=f"guard allows {RANK_GUARD}"):
        build_diagram(fam)
    after = build_diagram.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


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


def textbook_simple_system(fam):
    """Kac's distinguished simple system of a classical family, as a list of
    ``(root, kind)``; a root is a dict from ("e", i) or ("d", j), 1-based, to
    its coefficient.  Returns the system and the (epsilon | delta) dimensions."""
    m, n = fam.m, fam.n

    def diff(x, i, y, j):
        return {(x, i): 1, (y, j): -1}

    def chain(x, count):  # x_1 - x_2, ..., x_{count-1} - x_count
        return [(diff(x, i, x, i + 1), EVEN) for i in range(1, count)]

    if fam.kind == "A":
        odd = [(diff("e", m + 1, "d", 1), ODD_ISO)]
        return chain("e", m + 1) + odd + chain("d", n + 1), (m + 1, n + 1)
    if fam.kind == "B0":
        return chain("d", n) + [({("d", n): 1}, ODD_NONISO)], (0, n)
    if fam.kind == "C":
        return [(diff("e", 1, "d", 1), ODD_ISO)] + chain("d", n) + [({("d", n): 2}, EVEN)], (1, n)
    end = {("e", m): 1} if fam.kind == "B" else {("e", m - 1): 1, ("e", m): 1}
    return chain("d", n) + [(diff("d", n, "e", 1), ODD_ISO)] + chain("e", m) + [(end, EVEN)], (m, n)


TEXTBOOK_FAMILIES = (
    [FamilyId("A", m, n) for m in range(8) for n in range(8) if 1 <= m + n <= 7]
    + [FamilyId("B", m, n) for m in range(1, 8) for n in range(1, 8) if m + n <= 8]
    + [FamilyId("B0", 0, n) for n in range(1, 9)]
    + [FamilyId("C", 0, n) for n in range(1, 8)]
    + [FamilyId("D", m, n) for m in range(2, 8) for n in range(1, 7) if m + n <= 8]
)


@pytest.mark.parametrize("fam", TEXTBOOK_FAMILIES, ids=lambda f: f.display())
def test_classical_simple_systems_match_the_textbook(fam):
    system, (e_dim, d_dim) = textbook_simple_system(fam)
    expected = [
        (
            weight(
                [coeffs.get(("e", i), 0) for i in range(1, e_dim + 1)],
                [coeffs.get(("d", j), 0) for j in range(1, d_dim + 1)],
            ),
            kind,
        )
        for coeffs, kind in system
    ]
    nodes = build_diagram(fam).nodes
    assert [node.index for node in nodes] == list(range(len(expected)))
    assert [(node.root, node.kind) for node in nodes] == expected


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


def guard_families():
    """Every family the rank guard admits, with D(2,1;alpha) for six alphas."""
    return [
        fam
        for fam in all_families(RANK_GUARD, RANK_GUARD + 1)
        if node_count(fam) <= RANK_GUARD
    ]


def test_integer_gram_matches_weight_vector_inner_products():
    fams = guard_families()
    assert len(fams) == 229
    for fam in fams:
        diagram = build_diagram(fam)
        expected = tuple(
            tuple(a.root.inner(b.root) for b in diagram.nodes) for a in diagram.nodes
        )
        assert cartan_matrix(diagram).symmetrized == expected, fam.display()


def test_gram_cartan_and_block_inverses_hold_only_fractions():
    def fractions_only(rows):
        return all(type(x) is Fraction for row in rows for x in row)

    for fam in guard_families():
        diagram = build_diagram(fam)
        data = cartan_matrix(diagram)
        assert fractions_only(data.matrix), fam.display()
        assert fractions_only([data.eps]), fam.display()
        assert fractions_only(data.symmetrized), fam.display()
        for block in even_blocks(diagram):
            duals = [w.e_part + w.d_part for w in dual_basis(diagram, block)]
            assert fractions_only(duals), (fam.display(), block)


def test_node_count_matches_built_diagram():
    # the unguarded builder: A(6,6) has 13 nodes
    for fam in all_families(7, 7):
        assert node_count(fam) == len(build_diagram.__wrapped__(fam)), fam.display()


def test_equal_diagrams_hash_equal():
    for fam in all_families():
        # build_diagram interns; __wrapped__ builds a second diagram apart
        a, b = build_diagram(fam), build_diagram.__wrapped__(fam)
        assert a is not b
        assert a == b
        assert hash(a) == hash(b) == hash((a.nodes, a.family))
        assert hash(a) == hash(a)
        assert [f.name for f in dataclasses.fields(a)] == ["nodes", "family"]
        assert repr(a) == f"Diagram(nodes={a.nodes!r}, family={a.family!r})"
        clone = pickle.loads(pickle.dumps(a))
        assert clone == a and hash(clone) == hash(a)


FAMILY_ENTRIES = {
    "build_diagram": build_diagram,
    "check_rank_guard": check_rank_guard,
    "node_count": node_count,
    "validate_family": validate_family,
}
NOT_FAMILIES = ["C(4)", "C", None, ["C", 0, 3], ("C", 0, 3)]


@pytest.mark.parametrize("value", NOT_FAMILIES, ids=repr)
@pytest.mark.parametrize("entry", FAMILY_ENTRIES)
def test_a_family_entry_refuses_what_is_not_a_family_id(entry, value):
    """A ``FamilyId`` is checked before it is read, or looked up: a list is
    unhashable."""
    with pytest.raises(InvalidFamily, match="is not a FamilyId"):
        FAMILY_ENTRIES[entry](value)


def _a_root():
    return build_diagram(FamilyId("C", 0, 3)).root(1)


DIAGRAM_ENTRIES = {
    "automorphisms": automorphisms,
    "block_sign": lambda d: block_sign(d, (1,)),
    "cartan_matrix": cartan_matrix,
    "dual_basis": lambda d: dual_basis(d, (1,)),
    "enumerate_real_forms": enumerate_real_forms,
    "enumerate_vogan": enumerate_vogan,
    "even_blocks": even_blocks,
    "generate_roots": generate_roots,
    "noncompact_parity": lambda d: noncompact_parity(d, frozenset(), _a_root()),
    "root_expansion": lambda d: root_expansion(d, _a_root()),
    "table_report": table_report,
    "VoganDiagram": lambda d: VoganDiagram(d, identity_involution(4), ()),
}
NOT_DIAGRAMS = [None, "C(4)", FamilyId("C", 0, 3), ["C", 0, 3]]


@pytest.mark.parametrize("value", NOT_DIAGRAMS, ids=repr)
@pytest.mark.parametrize("entry", DIAGRAM_ENTRIES)
def test_a_diagram_entry_refuses_what_is_not_a_diagram(entry, value):
    """Every entry point that takes a ``Diagram`` reads a stored value first,
    and the store raises BadIndex for anything that holds no record."""
    with pytest.raises(BadIndex, match="is not a Diagram"):
        DIAGRAM_ENTRIES[entry](value)


def test_diagram_requires_a_family():
    nodes = build_diagram(FamilyId("C", 0, 3)).nodes
    with pytest.raises(InvalidFamily):
        Diagram(nodes, None)


def test_cartan_matrix_rejects_asymmetric_gram(monkeypatch):
    module = importlib.import_module("supervogan.algebra")
    diagram = build_diagram(FamilyId("B", 1, 1))
    record = module.gram_record(diagram)
    rows = record.rows
    skewed = record._replace(rows=(rows[0], (rows[1][0] + 1,) + rows[1][1:]))
    monkeypatch.setattr(module, "gram_record", lambda d: skewed)
    build_diagram.cache_clear()
    try:
        with pytest.raises(InvariantViolation):
            module.cartan_matrix(diagram)
    finally:
        build_diagram.cache_clear()


def test_noncompact_parity_rejects_fractional_coefficient(monkeypatch):
    module = importlib.import_module("supervogan.algebra")
    diagram = build_diagram(FamilyId("B", 1, 1))
    root = generate_roots(diagram).even()[0]
    # every coefficient 1/2, as (numerators, denominator)
    monkeypatch.setattr(
        module, "_integer_expansion", lambda d, v: (tuple(1 for _ in d.nodes), 2)
    )
    build_diagram.cache_clear()
    try:
        # the parity table checks every coefficient as it is built, so an
        # empty painting, which reads none of them, raises too
        for painted in (frozenset(), frozenset(diagram.even_indices())):
            with pytest.raises(InvariantViolation, match="non-integer coefficient 1/2 at node 0"):
                module.noncompact_parity(diagram, painted, root)
    finally:
        build_diagram.cache_clear()


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


def test_singular_block_raises():
    """A(3,0) with node 0's root replaced by node 1's, e2 - e3: the Gram
    matrix of the even block (0, 1, 2) has two equal rows."""
    diagram = build_diagram(FamilyId("A", 3, 0))
    nodes = (dataclasses.replace(diagram.nodes[0], root=diagram.root(1)),) + diagram.nodes[1:]
    singular = Diagram(nodes, diagram.family)
    assert even_blocks(singular) == ((0, 1, 2),)
    with pytest.raises(SingularBlock):
        dual_basis(singular, (0, 1, 2))


def isolated_isotropic_node():
    """A(1,1) with its odd node's root replaced by e1 + e2 + d1 + d2: still
    isotropic, and orthogonal to e1 - e2 and d1 - d2, so its Cartan row has
    no entry to normalize by."""
    diagram = build_diagram(FamilyId("A", 1, 1))
    root = weight((1, 1), (1, 1))
    assert root.inner(root) == 0
    assert all(root.inner(diagram.root(i)) == 0 for i in (0, 2))
    nodes = (diagram.nodes[0], dataclasses.replace(diagram.nodes[1], root=root), diagram.nodes[2])
    return Diagram(nodes, diagram.family)


@pytest.mark.parametrize(
    "call",
    [
        cartan_matrix,
        lambda d: flip_orbit(VoganDiagram(d, identity_involution(len(d)), frozenset({0}))),
        lambda d: reduce(VoganDiagram(d, identity_involution(len(d)), frozenset({0, 2}))),
        enumerate_real_forms,
        even_blocks,
        lambda d: root_expansion(d, d.root(0)),
        lambda d: render_ascii(VoganDiagram(d, identity_involution(len(d)), frozenset())),
        lambda d: noncompact_parity(d, frozenset(), generate_roots(d).even()[0]),
    ],
    ids=[
        "cartan_matrix",
        "flip_orbit",
        "reduce",
        "enumerate_real_forms",
        "even_blocks",
        "root_expansion",
        "render_ascii",
        "noncompact_parity",
    ],
)
def test_isolated_isotropic_node_raises_singular_normalization(call):
    """The Gram record's build rejects the diagram, so every reader of it
    raises, however little of the record it reads."""
    with pytest.raises(SingularNormalization):
        call(isolated_isotropic_node())


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


def _dot(x, y):
    return sum((a * b for a, b in zip(x, y)), Q(0))


def _residual(orthogonal, v):
    """``v`` minus its projection on the span of mutually orthogonal vectors."""
    rest = list(v)
    for b in orthogonal:
        c = _dot(v, b) / _dot(b, b)
        rest = [x - c * y for x, y in zip(rest, b)]
    return rest


def _orthogonal_basis(vectors):
    """Gram-Schmidt under the plain dot product: a span test independent of
    the row reduction behind ``root_expansion``."""
    basis = []
    for v in vectors:
        u = _residual(basis, v)
        if any(u):
            basis.append(u)
    return basis


def _combination(diagram, coeffs):
    """The sum of ``coeffs`` times the simple roots."""
    acc = diagram.root(0).scale(Q(0))
    for c, node in zip(coeffs, diagram.nodes):
        if c:
            acc = acc + node.root.scale(c)
    return acc


EXPANSION_GRID = (
    [f for f in all_families(8, 8) if node_count(f) <= 8]
    + [FamilyId("D21alpha", alpha=a) for a in (Q(-3), Q(3, 5))]
    + [
        FamilyId("C", 0, 11),
        FamilyId("B", 6, 6),
        FamilyId("D", 6, 6),
        FamilyId("B0", 0, 12),
        FamilyId("A", 11, 0),
    ]
)


@pytest.mark.parametrize("fam", EXPANSION_GRID, ids=lambda f: f.display())
def test_root_expansion_roundtrip(fam):
    """Every root and its negative is the sum of its coefficients times the
    simple roots, and a unit coordinate vector is rejected exactly when it
    lies outside their span."""
    diagram = build_diagram(fam)
    rs = generate_roots(diagram)
    odd = set(rs.odd)
    for root in rs.all_positive():
        for v in (root, -root):
            coeffs = root_expansion(diagram, v)
            assert _combination(diagram, coeffs) == v
            if fam.kind == "D21alpha" and root in odd:
                # expanded over the even nodes: odd roots get half-integers
                assert coeffs[1] == 0
                assert all((2 * c).denominator == 1 for c in coeffs)
            else:
                assert all(c.denominator == 1 for c in coeffs)
                assert all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)
    span = _orthogonal_basis(node.root.coords() for node in diagram.nodes)
    e_dim, size = len(diagram.root(0).e_part), len(diagram.root(0).coords())
    for k in range(size):
        unit = tuple(Q(int(j == k)) for j in range(size))
        v = weight(unit[:e_dim], unit[e_dim:])
        if not any(_residual(span, unit)):
            assert _combination(diagram, root_expansion(diagram, v)) == v
        else:
            with pytest.raises(ValueError):
                root_expansion(diagram, v)


def test_root_expansion_d21_drops_dependent_leg():
    diagram = build_diagram(FamilyId("D21alpha", alpha=Q(1, 2)))
    coeffs = root_expansion(diagram, diagram.root(2))
    assert coeffs == (Q(0), Q(0), Q(1), Q(0))
    # the odd node is the dropped leg: half a signed sum of the even nodes
    assert root_expansion(diagram, diagram.root(1)) == (Q(1, 2), Q(0), Q(-1, 2), Q(-1, 2))
    with pytest.raises(ValueError):
        root_expansion(diagram, weight([1, 2, 3], [0, 0]))


@pytest.mark.parametrize(
    "alpha", [Q(1), Q(-2), Q(2), Q(-3), Q(1, 2), Q(3, 7)], ids=str
)
def test_d21_painted_node_makes_its_own_sl2_noncompact(alpha):
    """On D(2,1;alpha) each even node carries one sl(2): painting node i makes
    exactly the positive even root on node i noncompact, and ``classify``
    names that painting with exactly one sl(2,R)."""
    diagram = build_diagram(FamilyId("D21alpha", alpha=alpha))
    even = generate_roots(diagram).even()
    for i in diagram.even_indices():
        painted = frozenset({i})
        noncompact = [v for v in even if noncompact_parity(diagram, painted, v)]
        assert noncompact in ([diagram.root(i)], [-diagram.root(i)])
        vd = VoganDiagram(diagram, identity_involution(len(diagram)), painted)
        assert classify(vd).even_parts.count("sl(2,R)") == len(noncompact)


def test_weight_vectors_built_apart_hash_equal():
    """Equal weights from ``weight``, from arithmetic and from a pickle round
    trip compare and hash equal; the hash is cached on first use."""
    half = Q(1, 2)
    direct = weight([1, -1, half], [0, 2])
    summed = weight([1, 0, 0], [0, 1]) - weight([0, 1, 0], [0, -1]) + weight(
        [0, 0, 1], [0, 0]
    ).scale(half)
    negated = -weight([-1, 1, -half], [0, -2])
    for v in (summed, negated):
        assert v == direct and hash(v) == hash(direct)
    for v in (direct, summed, negated):
        hash(v)  # caches the hash before pickling
        back = pickle.loads(pickle.dumps(v))
        assert back == direct and hash(back) == hash(direct)
        assert len({back, direct, summed, negated}) == 1


def test_weight_takes_only_exact_coordinates():
    """An ``int`` (not a ``bool``) or a ``Fraction``, or a SupervoganError.
    Before, ``0.1`` was stored as its binary fraction, and the others raised
    a bare ``ValueError``, ``TypeError`` or ``OverflowError``."""
    for e_part, d_part in [
        ((0.1,), (0,)),
        ("a", "b"),
        (5, (0,)),
        ((1e400,), (0,)),
        ((True,), (0,)),
        ((1,), None),
        ((1,), ("1",)),
        ((1,), (complex(1, 0),)),
    ]:
        with pytest.raises(SupervoganError):
            weight(e_part, d_part)
    v = weight([1, Q(1, 10)], iter([-2]))
    assert v == WeightVector((Q(1), Q(1, 10)), (Q(-2),))
    assert all(type(x) is Q for x in v.coords())


def test_generate_roots_is_shared_per_diagram():
    diagram = build_diagram(FamilyId("B", 2, 1))
    first = generate_roots(diagram)
    assert generate_roots(diagram) is first
    assert generate_roots(build_diagram(FamilyId("B", 2, 1))) is first
    # a clear drops the record of a diagram still held too
    build_diagram.cache_clear()
    again = generate_roots(diagram)
    assert again == first and again is not first


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


@pytest.mark.parametrize("fam", all_families(), ids=lambda f: f.display())
def test_noncompact_parity_rejects_every_odd_root_and_a_non_root(fam):
    diagram = build_diagram(fam)
    rs = generate_roots(diagram)
    painted = frozenset(diagram.even_indices())
    for v in rs.odd + tuple(-r for r in rs.odd):
        with pytest.raises(NotAnEvenRoot):
            noncompact_parity(diagram, painted, v)
    non_root = rs.even()[0].scale(Q(3))
    # a hashable that is no weight is not negated, an unhashable one is not
    # looked up, and a non-root's negation is no root either
    for v in (non_root, -non_root, rs.even()[0].coords(), list(rs.even()[0].coords())):
        with pytest.raises(NotAnEvenRoot):
            noncompact_parity(diagram, painted, v)


@pytest.mark.parametrize(
    "fam",
    # guard_families holds F(4), G(3) and D(2,1;1/2) already
    guard_families() + [FamilyId("D21alpha", alpha=a) for a in (Q(-3, 5), Q(7))],
    ids=lambda f: f.display(),
)
def test_roots_hash_as_rebuilt_weights_and_read_parity_through_negation(fam):
    """``generate_roots`` sets each root's hash from its sort key: a weight
    rebuilt from the same coordinates must hash and compare equal.  The
    parity table holds positive roots only; a root, its rebuilt copy and
    both negations read the same parity."""
    diagram = build_diagram(fam)
    rs = generate_roots(diagram)
    for r in rs.all_positive():
        rebuilt = weight(r.e_part, r.d_part)
        assert rebuilt == r and hash(rebuilt) == hash(r)
    for painted in (frozenset(), frozenset(diagram.even_indices())):
        for r in rs.even():
            rebuilt = weight(r.e_part, r.d_part)
            parities = {noncompact_parity(diagram, painted, v) for v in (r, rebuilt, -r, -rebuilt)}
            assert len(parities) == 1


def test_noncompact_parity_rejects_painted_indices_outside_the_diagram():
    """B(1,1) has nodes 0 and 1: -1 must not read the last node, and 2 or 7
    must not fall through to an IndexError."""
    diagram = build_diagram(FamilyId("B", 1, 1))
    for v in generate_roots(diagram).even():
        for painted in ({-1}, {2}, {7}, {0, 7}, {-1, 1}):
            with pytest.raises(BadIndex):
                noncompact_parity(diagram, frozenset(painted), v)
        assert noncompact_parity(diagram, frozenset({0, 1}), v) in (0, 1)


def test_root_expansion_rejects_weights_of_another_shape():
    """B(2,1) has a 2|1 weight space; a 1|1 or 3|1 weight is no weight of it,
    even where its coordinates, run together, would expand."""
    diagram = build_diagram(FamilyId("B", 2, 1))
    assert root_expansion(diagram, weight([1, 0], [0])) == (Q(0), Q(1), Q(1))
    for v in (weight([1], [0]), weight([1, 0, 0], [0]), weight([1, 0], []), weight([1, 0], [0, 0])):
        with pytest.raises(ValueError):
            root_expansion(diagram, v)
        with pytest.raises(NotAnEvenRoot):
            noncompact_parity(diagram, frozenset(), v)


@pytest.mark.parametrize(
    "fam",
    [f for f in all_families(4, 4) if f.kind in ("A", "B", "B0", "C", "D")],
    ids=lambda f: f.display(),
)
def test_parity_is_additive_on_even_roots(fam):
    """parity(beta+gamma) = parity(beta) XOR parity(gamma) when all three are
    even roots, for every painting of even nodes."""
    diagram = build_diagram(fam)
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
