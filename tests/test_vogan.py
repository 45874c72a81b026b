"""Painted diagrams: involutions, flips, orbits, reduction, equivalence."""

import importlib
from fractions import Fraction

import pytest

from supervogan import (
    BadIndex,
    FamilyId,
    FamilyMismatch,
    FlipAtOddNode,
    FlipAtUnpainted,
    InvariantViolation,
    VoganDiagram,
    automorphisms,
    build_diagram,
    canonical_block_painting,
    enumerate_vogan,
    equivalent,
    flip,
    flip_orbit,
    identity_involution,
    reduce,
    reduce_with_trail,
)

Q = Fraction


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


def test_canonical_block_painting_prefers_interior():
    # 2-node symplectic-style block: canonical singleton is the long end
    diagram = build_diagram(FamilyId("C", 0, 2))
    block = (1, 2)
    assert canonical_block_painting(diagram, block, frozenset({1, 2})) == frozenset(
        {2}
    )
    # 3-node linear block: {0,2} collapses to the middle
    diagram = build_diagram(FamilyId("A", 3, 0))
    assert canonical_block_painting(diagram, (0, 1, 2), frozenset({0, 2})) == frozenset(
        {1}
    )


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


def test_reduce_rejects_a_target_outside_the_orbit(monkeypatch):
    module = importlib.import_module("supervogan.vogan")
    # a flip keeps the flipped node painted, so no orbit holds the empty painting
    monkeypatch.setattr(module, "canonical_block_painting", lambda *args: frozenset())
    with pytest.raises(InvariantViolation):
        module.reduce_with_trail(vd_of(FamilyId("C", 0, 3), painted=(1, 2)))
