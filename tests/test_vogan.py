"""Painted diagrams: involutions, flips, orbits, reduction, equivalence."""

import gc
import importlib
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from supervogan import (
    EVEN,
    BadIndex,
    DiagramInvolution,
    FamilyId,
    FamilyMismatch,
    FlipAtOddNode,
    FlipAtUnpainted,
    InvariantViolation,
    VoganDiagram,
    automorphisms,
    block_sign,
    build_diagram,
    canonical_block_painting,
    dual_basis,
    enumerate_real_forms,
    enumerate_vogan,
    even_blocks,
    equivalent,
    flip,
    flip_orbit,
    identity_involution,
    node_count,
    SupervoganError,
    classify,
    document_json,
    emit_document,
    reduce,
    reduce_with_trail,
    render_ascii,
    render_dot,
    root_expansion,
    table_report,
)
from test_acceptance import families
from test_algebra import all_families, guard_families
from test_flip_kernel import set_orbit

Q = Fraction

ADMISSIBLE_ALPHAS = (Q(1), Q(2), Q(1, 2), Q(-2), Q(-1, 2), Q(3, 7), Q(-3, 5), Q(5))


def vd_of(fam, painted=(), inv_name="identity"):
    diagram = build_diagram(fam)
    inv = next(g for g in automorphisms(diagram) if g.name == inv_name)
    return VoganDiagram(diagram, inv, frozenset(painted))


# ------------------------------------------------------------ automorphisms


def test_automorphism_names_a_family():
    assert [g.name for g in automorphisms(build_diagram(FamilyId("A", 2, 2)))] == [
        "identity",
        "reversal",
    ]
    # the reversal is only a symmetry when both sides have equal length
    assert [g.name for g in automorphisms(build_diagram(FamilyId("A", 2, 1)))] == [
        "identity"
    ]


def test_automorphism_names_other_families():
    assert [g.name for g in automorphisms(build_diagram(FamilyId("B", 2, 2)))] == [
        "identity"
    ]
    assert [g.name for g in automorphisms(build_diagram(FamilyId("C", 0, 3)))] == [
        "identity"
    ]
    assert [g.name for g in automorphisms(build_diagram(FamilyId("D", 3, 2)))] == [
        "identity",
        "swap",
    ]
    assert [g.name for g in automorphisms(build_diagram(FamilyId("F4")))] == [
        "identity"
    ]
    assert [g.name for g in automorphisms(build_diagram(FamilyId("G3")))] == [
        "identity"
    ]


def test_d_swap_exchanges_fork_tips():
    diagram = build_diagram(FamilyId("D", 3, 1))
    swap = next(g for g in automorphisms(diagram) if g.name == "swap")
    n = len(diagram)
    assert swap.perm[n - 2] == n - 1 and swap.perm[n - 1] == n - 2
    assert all(swap.perm[i] == i for i in range(n - 2))


def test_d21_leg_swaps_at_special_alpha():
    """A leg transposition survives exactly when two leg norms coincide."""

    def swap_pair(alpha):
        diagram = build_diagram(FamilyId("D21alpha", alpha=Q(alpha)))
        swaps = [g for g in automorphisms(diagram) if g.name == "swap"]
        if not swaps:
            return None
        (g,) = swaps
        return tuple(i for i in range(len(diagram)) if g.perm[i] != i)

    assert swap_pair(1) == (2, 3)
    assert swap_pair(-2) == (0, 2)
    assert swap_pair(Q(-1, 2)) == (0, 3)
    assert swap_pair(Q(3, 5)) is None
    assert swap_pair(2) is None


def test_automorphisms_are_involutive_symmetries():
    for fam in [
        FamilyId("A", 3, 3),
        FamilyId("D", 4, 1),
        FamilyId("D21alpha", alpha=1),
    ]:
        diagram = build_diagram(fam)
        for g in automorphisms(diagram):
            n = len(diagram)
            assert sorted(g.perm) == list(range(n))
            assert all(g.perm[g.perm[i]] == i for i in range(n))
            for i in range(n):
                assert diagram.nodes[g.perm[i]].kind == diagram.nodes[i].kind
                for j in range(n):
                    lhs = diagram.root(g.perm[i]).inner(diagram.root(g.perm[j]))
                    rhs = diagram.root(i).inner(diagram.root(j))
                    assert abs(lhs) == abs(rhs)


@pytest.mark.parametrize(
    "fam",
    list(
        dict.fromkeys(guard_families() + [FamilyId("D21alpha", alpha=a) for a in ADMISSIBLE_ALPHAS])
    ),
    ids=lambda fam: fam.display(),
)
def test_automorphisms_list_at_most_one_nontrivial_involution(fam):
    """``equivalent`` relabels by the listed perms alone, which is right
    while they are a group: the identity and one involution are."""
    inv = automorphisms(build_diagram(fam))
    assert inv[0].name == "identity"
    assert len(inv) <= 2


# ------------------------------------------------------------- construction


def test_vogan_rejects_bad_paintings():
    diagram = build_diagram(FamilyId("A", 2, 1))
    ident = identity_involution(4)
    with pytest.raises(BadIndex):
        VoganDiagram(diagram, ident, frozenset({9}))
    with pytest.raises(BadIndex):
        VoganDiagram(diagram, ident, frozenset({2}))  # the isotropic node
    diagram = build_diagram(FamilyId("A", 2, 2))
    rev = next(g for g in automorphisms(diagram) if g.name == "reversal")
    with pytest.raises(BadIndex):
        VoganDiagram(diagram, rev, frozenset({0}))  # moved by the involution


def test_vogan_normalizes_the_painting_and_rejects_foreign_input():
    """A painting given as any collection of node indices is stored as a
    frozenset; non-integer indices and involutions that are not symmetries
    of the diagram are ``BadIndex``, never a bare ``TypeError`` or a wrong
    answer further on."""
    diagram = build_diagram(FamilyId("B", 2, 2))
    ident = identity_involution(len(diagram))
    for painted in [(0, 0), [0], {0}]:
        vd = VoganDiagram(diagram, ident, painted)
        assert vd.painted == frozenset({0}) and type(vd.painted) is frozenset
        assert hash(vd) == hash(VoganDiagram(diagram, ident, frozenset({0})))
        assert reduce(vd) == reduce(VoganDiagram(diagram, ident, frozenset({0})))
    for painted in [{1.0}, {"0"}, {True}]:
        with pytest.raises(BadIndex, match="not an integer"):
            VoganDiagram(diagram, ident, painted)
    foreign = [
        DiagramInvolution("x", (1, 0, 2, 3)),  # swaps the odd node with an even one
        DiagramInvolution("reversal", tuple(range(len(diagram)))),
        identity_involution(len(diagram) + 1),
    ]
    for inv in foreign:
        with pytest.raises(BadIndex, match="not a symmetry"):
            VoganDiagram(diagram, inv, frozenset())
    # an equal copy of a listed symmetry is that symmetry
    diagram = build_diagram(FamilyId("A", 2, 2))
    rev = DiagramInvolution("reversal", tuple(reversed(range(len(diagram)))))
    assert VoganDiagram(diagram, rev, frozenset()).involution in automorphisms(diagram)


def test_vogan_and_flip_reject_malformed_arguments_with_bad_index():
    """A painting that is no collection of hashable indices, an involution
    that is no ``DiagramInvolution`` and a flip index that is no ``int`` are
    ``BadIndex``: before, ``TypeError`` or ``AttributeError`` escaped, and
    ``flip(vd, True)`` flipped at node 1."""
    diagram = build_diagram(FamilyId("B", 2, 2))
    ident = identity_involution(len(diagram))
    for painted in [None, 3, [[0]]]:
        with pytest.raises(BadIndex, match="not a set of node indices"):
            VoganDiagram(diagram, ident, painted)
    with pytest.raises(BadIndex, match="not a DiagramInvolution"):
        VoganDiagram(diagram, "identity", frozenset())
    vd = VoganDiagram(diagram, ident, frozenset({0, 2}))
    for at in ["a", 2.0, True, None]:
        with pytest.raises(BadIndex, match="not an integer"):
            flip(vd, at)
    with pytest.raises(FlipAtOddNode):  # the int 1 still reaches the odd node
        flip(vd, 1)


def test_involutions_reject_malformed_perms_and_sizes_with_bad_index():
    """A perm must be an iterable of ``int`` node indices (a ``bool`` is not
    one) permuting 0..n-1, and a size a positive ``int``: before, ``None``
    and ``5`` raised a bare ``TypeError``, and ``(0, 0, 1, 2)``, size -1 and
    size ``True`` were accepted."""
    for perm in [None, 5, (0, 0, 1, 2), (0, 2), (), (True, 0), (1.0, 0), "10"]:
        with pytest.raises(BadIndex):
            DiagramInvolution("x", perm)
    for size in [-1, 0, True, 2.0, "3", None]:
        with pytest.raises(BadIndex):
            identity_involution(size)
    # any iterable of indices is stored as a tuple
    assert DiagramInvolution("x", [1, 0, 2]) == DiagramInvolution("x", (1, 0, 2))
    assert identity_involution(1).perm == (0,)


def test_dual_basis_and_block_sign_reject_bad_components_with_bad_index():
    """A component node out of range, an empty component and an isotropic
    node are ``BadIndex``; before, the first two raised a bare
    ``IndexError``, and an isotropic node a ``ZeroDivisionError`` or a
    sign."""
    diagram = build_diagram(FamilyId("B", 2, 2))
    for component in [(0, 99), (99,), (), (-1,), (True,), None]:
        with pytest.raises(BadIndex):
            dual_basis(diagram, component)
        with pytest.raises(BadIndex):
            block_sign(diagram, component)
    # node 1 is the odd isotropic node: no eps_1 to divide by, and no sign
    for component in [(0, 1), (1,), (1, 2)]:
        with pytest.raises(BadIndex, match="isotropic"):
            dual_basis(diagram, component)
        with pytest.raises(BadIndex, match="isotropic"):
            block_sign(diagram, component)
    # any iterable of nodes is read once, as a tuple
    block = even_blocks(diagram)[0]
    assert block_sign(diagram, iter(block)) == block_sign(diagram, block)
    assert dual_basis(diagram, iter(block)) == dual_basis(diagram, block)


def test_canonical_block_painting_takes_a_vogan_diagram():
    """Anything but a ``VoganDiagram`` is ``BadIndex``; the diagram's own
    constructor checks its painting and involution.  The answer paints one
    vertex of each painted even block and nothing else."""
    diagram = build_diagram(FamilyId("B", 2, 2))
    assert even_blocks(diagram) == ((0,), (2, 3))
    ident = identity_involution(len(diagram))
    for foreign in [None, frozenset({2}), (diagram, (2, 3), {2}), diagram, ident]:
        with pytest.raises(BadIndex, match="not a VoganDiagram"):
            canonical_block_painting(foreign)
    assert canonical_block_painting(VoganDiagram(diagram, ident, frozenset())) == frozenset()
    for painted in [{0}, {2}, {2, 3}, {0, 3}, {0, 2, 3}]:
        canon = canonical_block_painting(VoganDiagram(diagram, ident, painted))
        for block in even_blocks(diagram):
            assert len(canon & set(block)) == bool(painted & set(block)), (painted, block)
        assert canon <= {0, 2, 3}


# Each public call that takes a VoganDiagram, given ``bad`` in its place;
# ``good`` is a VoganDiagram of the same diagram for the other argument.
VOGAN_ENTRIES = {
    "flip": lambda bad, good: flip(bad, 0),
    "flip_orbit": lambda bad, good: flip_orbit(bad),
    "reduce": lambda bad, good: reduce(bad),
    "reduce_with_trail": lambda bad, good: reduce_with_trail(bad),
    "equivalent/first": lambda bad, good: equivalent(bad, good),
    "equivalent/second": lambda bad, good: equivalent(good, bad),
    "canonical_block_painting": lambda bad, good: canonical_block_painting(bad),
    "classify": lambda bad, good: classify(bad),
    "render_ascii": lambda bad, good: render_ascii(bad),
    "render_dot": lambda bad, good: render_dot(bad),
    "document_json": lambda bad, good: document_json(bad),
    "emit_document": lambda bad, good: emit_document(bad),
}
NOT_VOGAN = ("x", None, 0, (1, 2))


@pytest.mark.parametrize("bad", NOT_VOGAN, ids=repr)
@pytest.mark.parametrize("entry", VOGAN_ENTRIES)
def test_entry_points_refuse_what_is_not_a_vogan_diagram(entry, bad):
    """``BadIndex``, checked once on entry; before, every entry point but
    ``canonical_block_painting`` raised a bare ``AttributeError``."""
    diagram = build_diagram(FamilyId("B", 2, 2))
    good = VoganDiagram(diagram, identity_involution(len(diagram)), frozenset({0}))
    with pytest.raises(BadIndex, match="not a VoganDiagram"):
        VOGAN_ENTRIES[entry](bad, good)


@pytest.mark.parametrize("bad", NOT_VOGAN, ids=repr)
def test_root_expansion_refuses_what_is_not_a_weight(bad):
    """A ``SupervoganError``, where it raised ``AttributeError`` on ``e_part``;
    a weight of the wrong shape stays a ``ValueError``."""
    diagram = build_diagram(FamilyId("B", 2, 2))
    with pytest.raises(SupervoganError, match="not a WeightVector"):
        root_expansion(diagram, bad)


def test_enumerate_counts():
    # one involution: 2^(fixed even nodes); reversal of A(2,2) fixes no even node
    assert len(enumerate_vogan(build_diagram(FamilyId("A", 2, 1)))) == 2**3
    assert len(enumerate_vogan(build_diagram(FamilyId("A", 2, 2)))) == 2**4 + 1
    # A(1,1) reversal fixes the odd node only
    assert len(enumerate_vogan(build_diagram(FamilyId("A", 1, 1)))) == 2**2 + 1
    # D(3,1): identity fixes all 3 even nodes, swap fixes 1
    assert len(enumerate_vogan(build_diagram(FamilyId("D", 3, 1)))) == 2**3 + 2**1
    assert len(enumerate_vogan(build_diagram(FamilyId("B0", 0, 2)))) == 2
    assert len(enumerate_vogan(build_diagram(FamilyId("D21alpha", alpha=1)))) == 2**3 + 2


def test_enumerate_is_deterministic_and_ordered():
    items = enumerate_vogan(build_diagram(FamilyId("B", 2, 1)))
    paintings = [tuple(sorted(v.painted)) for v in items]
    assert paintings == sorted(paintings, key=lambda p: (len(p), p))
    assert items == enumerate_vogan(build_diagram(FamilyId("B", 2, 1)))


# --------------------------------------------------------------------- flips


def test_flip_requires_painted_even_fixed_node():
    v = vd_of(FamilyId("A", 2, 1), painted={0})
    with pytest.raises(BadIndex):
        flip(v, 17)
    with pytest.raises(FlipAtOddNode):
        flip(v, 2)
    with pytest.raises(FlipAtUnpainted):
        flip(v, 1)


def test_flip_keeps_site_painted_and_is_involutive():
    for fam in [FamilyId("A", 3, 2), FamilyId("B", 2, 2), FamilyId("D", 3, 2)]:
        for v in enumerate_vogan(build_diagram(fam)):
            for at in sorted(v.painted):
                w = flip(v, at)
                assert at in w.painted
                assert flip(w, at) == v


def test_flip_toggle_pattern_b_chain():
    # B(2,1): even block is a 2-node chain ending in a short root.  Flipping
    # the long root toggles its neighbor; flipping the short one (Cartan
    # entry -2 toward the chain) toggles nothing.
    v = vd_of(FamilyId("B", 2, 1), painted={1})
    assert flip(v, 1).painted == frozenset({1, 2})
    v = vd_of(FamilyId("B", 2, 1), painted={2})
    assert flip(v, 2).painted == frozenset({2})


def test_flip_never_crosses_the_odd_node():
    # A(1,1): the two even nodes sit on opposite sides of the isotropic node;
    # their Cartan pairing is 0, so a flip on one side leaves the other alone.
    v = vd_of(FamilyId("A", 1, 1), painted={0, 2})
    assert flip(v, 0).painted == frozenset({0, 2})


# ----------------------------------------------------------- orbits / reduce


def test_flip_orbit_partition_b21_block():
    diagram = build_diagram(FamilyId("B", 2, 1))
    orbits = set()
    for v in enumerate_vogan(diagram):
        orbit = frozenset(w.painted for w in flip_orbit(v))
        orbits.add(orbit)
    named = {frozenset({frozenset()}),
             frozenset({frozenset({1}), frozenset({1, 2})}),
             frozenset({frozenset({2})})}
    assert named <= orbits


@pytest.mark.parametrize(
    "fam",
    [f for f in all_families(6, 7) if node_count(f) <= 6 and f.kind != "D21alpha"]
    + [FamilyId("D21alpha", alpha=a) for a in ADMISSIBLE_ALPHAS],
    ids=lambda f: f.display(),
)
def test_canonical_block_painting_is_the_reduced_painting(fam):
    """The Borel-de Siebenthal step on every painting of every involution:
    the canonical painting is the one ``reduce`` walks to, and it paints at
    most one node of each even block."""
    diagram = build_diagram(fam)
    blocks = [set(b) for b in even_blocks(diagram)]
    for vd in enumerate_vogan(diagram):
        canon = canonical_block_painting(vd)
        assert canon == reduce(vd).painted, (vd.involution.name, sorted(vd.painted))
        assert all(len(canon & b) <= 1 for b in blocks), (vd.involution.name, sorted(vd.painted))


def test_canonical_block_painting_prefers_interior():
    # 2-node symplectic-style block (1, 2): canonical singleton is the long end
    assert canonical_block_painting(vd_of(FamilyId("C", 0, 2), {1, 2})) == frozenset({2})
    # 3-node linear block (0, 1, 2): {0,2} collapses to the middle
    assert canonical_block_painting(vd_of(FamilyId("A", 3, 0), {0, 2})) == frozenset({1})


@pytest.mark.parametrize(
    "fam", families(6, 6, ADMISSIBLE_ALPHAS), ids=lambda f: f.display()
)
def test_admissible_vertices_match_dual_basis_inner_products(fam):
    """Under every involution, each block orbit with two or more single
    vertices is reduced to the lowest of them that is admissible, failing
    that the lowest: i is admissible when its dual-basis vector is minimal,
    s <w_i - w_j, w_j> <= 0 for every j in the block, the Borel-de
    Siebenthal normal form.  The vectors are built here, not read off the
    chooser."""
    diagram = build_diagram.__wrapped__(fam)  # unguarded: A(6,6) has 13 nodes
    for block in even_blocks(diagram):
        w = dual_basis(diagram, block)
        s = block_sign(diagram, block)
        admissible = {
            i
            for a, i in enumerate(block)
            if all(s * (w[a] - w[b]).inner(w[b]) <= 0 for b in range(len(block)))
        }
        for inv in automorphisms(diagram):
            seen = set()
            for i in block:
                if i not in inv.fixed_set or i in seen:
                    continue
                orbit = flip_orbit(VoganDiagram(diagram, inv, {i}))
                singles = sorted(j for vd in orbit if len(vd.painted) == 1 for j in vd.painted)
                seen.update(singles)
                if len(singles) > 1:
                    expect = next((j for j in singles if j in admissible), singles[0])
                    assert canonical_block_painting(orbit[0]) == {expect}, (inv.name, singles)


@pytest.mark.parametrize(
    "fam",
    [f for f in guard_families() if f not in families(6, 6, ADMISSIBLE_ALPHAS)],
    ids=lambda f: f.display(),
)
def test_admissible_vertices_match_dual_basis_on_the_rest_of_the_guard(fam):
    """The same oracle on every guard family with m or n above 6: even
    blocks of up to 11 nodes, whose names do not show which single vertex
    won."""
    test_admissible_vertices_match_dual_basis_inner_products(fam)


def test_reduce_worked_example():
    v = vd_of(FamilyId("A", 3, 0), painted={0, 2})
    reduced, trail = reduce_with_trail(v)
    assert reduced.painted == frozenset({1})
    assert [m.at for m in trail] == [0, 1]
    # replaying the trail lands on the canonical painting
    cur = v
    for move in trail:
        cur = flip(cur, move.at)
    assert cur == reduced


def test_reduce_empty_painting_is_fixed():
    v = vd_of(FamilyId("B", 2, 2))
    reduced, trail = reduce_with_trail(v)
    assert reduced == v and trail == ()


@pytest.mark.parametrize(
    "fam",
    [
        FamilyId("A", 2, 2),
        FamilyId("B", 2, 2),
        FamilyId("C", 0, 3),
        FamilyId("D", 3, 1),
        FamilyId("D21alpha", alpha=Q(1)),
        FamilyId("F4"),
        FamilyId("G3"),
        FamilyId("B0", 0, 3),
    ],
    ids=lambda f: f.display(),
)
def test_reduce_properties(fam):
    diagram = build_diagram(fam)
    for v in enumerate_vogan(diagram):
        reduced, trail = reduce_with_trail(v)
        assert reduce(v) == reduced
        # idempotent
        again, trail2 = reduce_with_trail(reduced)
        assert again == reduced and trail2 == ()
        # reachable: replay the trail
        cur = v
        for move in trail:
            cur = flip(cur, move.at)
        assert cur == reduced
        # equivalent to the input
        assert equivalent(v, reduced)


def test_reduce_at_most_one_painted_per_block():
    from supervogan import even_blocks

    for fam in [FamilyId("A", 3, 2), FamilyId("D", 3, 2), FamilyId("B", 2, 2)]:
        diagram = build_diagram(fam)
        for v in enumerate_vogan(diagram):
            reduced = reduce(v)
            for block in even_blocks(diagram):
                assert len(reduced.painted & set(block)) <= 1


# ----------------------------------------------------------------- equivalent


def test_equivalent_examples():
    v = vd_of(FamilyId("A", 3, 0), painted={0, 2})
    w = vd_of(FamilyId("A", 3, 0), painted={1})
    assert equivalent(v, w)
    u = vd_of(FamilyId("A", 3, 0), painted={0})
    assert not equivalent(u, w)


def test_equivalent_uses_diagram_symmetries():
    # mirror paintings of A(2,2) under the identity involution are equivalent
    # through the reversal relabeling
    v = vd_of(FamilyId("A", 2, 2), painted={0})
    w = vd_of(FamilyId("A", 2, 2), painted={4})
    assert equivalent(v, w)


def test_equivalent_family_mismatch():
    v = vd_of(FamilyId("A", 1, 1))
    w = vd_of(FamilyId("B", 1, 1))
    with pytest.raises(FamilyMismatch):
        equivalent(v, w)


def test_equivalent_is_equivalence_relation():
    diagram = build_diagram(FamilyId("B", 2, 1))
    items = enumerate_vogan(diagram)
    rel = {
        (i, j): equivalent(items[i], items[j])
        for i in range(len(items))
        for j in range(len(items))
    }
    for i in range(len(items)):
        assert rel[(i, i)]
        for j in range(len(items)):
            assert rel[(i, j)] == rel[(j, i)]
            for k in range(len(items)):
                if rel[(i, j)] and rel[(j, k)]:
                    assert rel[(i, k)]


def oracle_classes(diagram):
    """Each (perm, painting) state's class under flips and relabelings, as a
    closure of sets.  A flip at painted node i toggles the other fixed even
    nodes j with a_ij = 2 (a_i, a_j) / (a_i, a_i) an odd integer, read off
    the nodes' coordinates; the relabelings are the group the automorphism
    perms generate, each acting by g perm g^-1 and g(painting)."""
    roots = [(node.root.e_part, node.root.d_part) for node in diagram.nodes]

    def inner(u, v):
        return sum(a * b for a, b in zip(u[0], v[0])) - sum(a * b for a, b in zip(u[1], v[1]))

    def odd_entry(i, j):
        a = Fraction(2 * inner(roots[i], roots[j]), inner(roots[i], roots[i]))
        return a.denominator == 1 and a.numerator % 2 == 1

    n = len(roots)
    even = [i for i, node in enumerate(diagram.nodes) if node.kind == EVEN]
    group = {g.perm for g in automorphisms(diagram)}
    while (more := group | {tuple(a[i] for i in b) for a in group for b in group}) != group:
        group = more

    def moves(state):
        perm, painted = state
        fixed = [j for j in even if perm[j] == j]
        for i in painted:
            yield perm, painted ^ {j for j in fixed if j != i and odd_entry(i, j)}
        for g in group:
            conj = [0] * n
            for i in range(n):
                conj[g[i]] = g[perm[i]]
            yield tuple(conj), frozenset(g[i] for i in painted)

    states = {
        (perm, frozenset(painted))
        for perm in group
        if all(perm[perm[i]] == i for i in range(n))
        for r in range(n + 1)
        for painted in combinations([j for j in even if perm[j] == j], r)
    }
    label = {}
    for start in states:
        if start in label:
            continue
        cls = {start}
        while (grown := cls | {m for s in cls for m in moves(s)}) != cls:
            cls = grown
        label.update(dict.fromkeys(cls, start))
    return label


@pytest.mark.parametrize(
    "fam",
    list(
        dict.fromkeys(
            [f for f in all_families(5, 6) if node_count(f) <= 5]
            + [FamilyId("D21alpha", alpha=a) for a in ADMISSIBLE_ALPHAS]
        )
    ),
    ids=lambda fam: fam.display(),
)
def test_equivalent_matches_a_closure_oracle_on_every_pair(fam):
    """``equivalent`` on every pair of paintings, under every involution,
    against classes closed in sets from the flip rule and the relabelings."""
    diagram = build_diagram(fam)
    label = oracle_classes(diagram)
    items = enumerate_vogan(diagram)
    keys = [label[(vd.involution.perm, vd.painted)] for vd in items]
    # the oracle's states are exactly the enumerated paintings
    assert len(label) == len(items)
    for v, kv in zip(items, keys):
        for w, kw in zip(items, keys):
            assert equivalent(v, w) == (kv == kw), (sorted(v.painted), sorted(w.painted))


def block_orbits(diagram):
    """Every nonempty block orbit under each involution, as (perm, orbit),
    by ``set_orbit`` on the paintings of each block's fixed nodes."""
    out = set()
    for inv in automorphisms(diagram):
        for block in even_blocks(diagram):
            nodes = [i for i in block if i in inv.fixed_set]
            for r in range(1, len(nodes) + 1):
                for part in combinations(nodes, r):
                    out.add((inv.perm, set_orbit(diagram, inv.perm, frozenset(part))))
    return out


def counted_walks(module, monkeypatch):
    """The starts of every ``_painting_orbit`` walk from now on."""
    real, starts = module._painting_orbit, []

    def counted(masks, start):
        starts.append(start)
        return real(masks, start)

    monkeypatch.setattr(module, "_painting_orbit", counted)
    return starts


@pytest.mark.parametrize(
    "fam",
    [FamilyId("A", 3, 3), FamilyId("B", 3, 3), FamilyId("D", 4, 3), FamilyId("C", 0, 6)],
    ids=lambda fam: fam.display(),
)
def test_reduce_walks_the_orbit_once(fam, monkeypatch):
    """Reducing every painting walks once per nonempty block orbit, when
    the record is built, and a second pass walks nothing: trails are read
    off the block distances in the diagram's record."""
    module = importlib.import_module("supervogan.vogan")
    paintings = enumerate_vogan(build_diagram(fam))
    orbits = block_orbits(paintings[0].diagram)
    build_diagram.cache_clear()
    walks = counted_walks(module, monkeypatch)
    for vd in paintings:
        module.reduce_with_trail(vd)
    assert len(walks) == len(orbits)
    walks.clear()
    for vd in paintings:
        module.reduce_with_trail(vd)
    assert walks == []


@pytest.mark.parametrize("fam", [FamilyId("D", 6, 6), FamilyId("B", 6, 6)], ids=lambda f: f.display())
def test_reducing_every_painting_walks_each_block_orbit_once(fam, monkeypatch):
    """Flips never mix blocks, so the record walks block orbits alone: no
    walk starts on two blocks, one walk labels each nonempty block orbit,
    and the record it leaves is plain data."""
    module = importlib.import_module("supervogan.vogan")
    diagram = build_diagram(fam)
    paintings = enumerate_vogan(diagram)
    orbits = block_orbits(diagram)
    blocks = [sum(1 << i for i in block) for block in even_blocks(diagram)]
    build_diagram.cache_clear()
    walks = counted_walks(module, monkeypatch)
    for vd in paintings:
        module.reduce_with_trail(vd)
    assert all(sum(1 for b in blocks if start & b) == 1 for start in walks)
    assert len(walks) == len(orbits)
    for inv in automorphisms(diagram):
        assert not any(map(callable, module._kernel(diagram, inv.fixed_set)))


@pytest.mark.parametrize("fam", guard_families(), ids=lambda fam: fam.display())
def test_cold_table_walks_block_orbits_only(fam, monkeypatch):
    """A cold table of every family the rank guard admits walks no orbit,
    not even a block orbit: its orbits are listed and named from the block
    classes of each block's single vertices, which no walk fills."""
    module = importlib.import_module("supervogan.vogan")
    walks = counted_walks(module, monkeypatch)
    build_diagram.cache_clear()
    try:
        table_report(build_diagram(fam))
    finally:
        build_diagram.cache_clear()  # no later test reads a record built here
    assert walks == []


def test_reducing_every_painting_of_c12_grows_the_store_by_at_most_64_kb():
    """The tables are flat arrays, one entry per painting mask: dicts keyed
    by painting would take several times the bound."""
    build_diagram.cache_clear()
    paintings = enumerate_vogan(build_diagram(FamilyId("C", 0, 11)))
    tracemalloc.start()
    try:
        # a full collection also empties the interpreter's free lists, which
        # would otherwise keep the walks' freed tuples and dicts traced
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for vd in paintings:
            reduce_with_trail(vd)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown <= 64 * 1024, grown
