"""Block-orbit classes in closed form against orbits walked here.

``vogan._block_targets`` groups each block part's single vertices into
classes by a count of Kac coordinates, without a walk.  The oracle here
walks the orbit of each single vertex itself, breadth first, straight from
the flip rule: "a flip at a painted node toggles every other fixed even
node whose Cartan entry in the flipped node's row is an odd integer".  The
two must fix each other: a node's class is the set of single vertices in
its orbit, and its target is the one of them with the longest simple root,
the lowest on a tie, the length read off the weights themselves.

It covers every family the rank guard admits and D(2,1;alpha) at each of
the eight ``ADMISSIBLE_ALPHAS``, under every involution, in well under a
second.
"""

import importlib

import pytest

from supervogan import (
    EVEN,
    FamilyId,
    InvariantViolation,
    automorphisms,
    build_diagram,
    cartan_matrix,
    classify,
    enumerate_vogan,
)
from supervogan.vogan import _block_targets
from test_algebra import guard_families
from test_vogan import ADMISSIBLE_ALPHAS


def single_vertex_orbits(diagram, perm):
    """Each fixed even node i of the involution ``perm`` mapped to the nodes
    j whose single painting lies in the flip orbit of i's, by a breadth-first
    walk over node masks from one single vertex of each orbit."""
    a = cartan_matrix(diagram).matrix
    fixed_even = [j for j, node in enumerate(diagram.nodes) if node.kind == EVEN and perm[j] == j]
    toggles = {
        at: sum(
            1 << j
            for j in fixed_even
            if j != at and a[at][j].denominator == 1 and a[at][j].numerator % 2
        )
        for at in fixed_even
    }
    out = {}
    for i in fixed_even:
        if i in out:
            continue
        seen = {1 << i}
        queue = [1 << i]
        for cur in queue:  # grows while it is read: first in, first out
            for at in fixed_even:
                if cur >> at & 1 and cur ^ toggles[at] not in seen:
                    seen.add(cur ^ toggles[at])
                    queue.append(cur ^ toggles[at])
        singles = frozenset(j for j in fixed_even if 1 << j in seen)
        out.update(dict.fromkeys(singles, singles))
    return out


def mismatches(diagram):
    """Every (involution name, node) whose class or target under
    ``_block_targets`` differs from its walked orbit's, an even node of no
    orbit that gets a target included."""
    lengths = [abs(node.root.inner(node.root)) for node in diagram.nodes]
    out = []
    for inv in automorphisms(diagram):
        targets = _block_targets(diagram, inv.fixed_set)
        orbits = single_vertex_orbits(diagram, inv.perm)
        for i, target in enumerate(targets):
            if i not in orbits:
                if target:
                    out.append((inv.name, i))
                continue
            cls = frozenset(j for j, t in enumerate(targets) if t == target)
            want = min(orbits[i], key=lambda j: (-lengths[j], j))
            if cls != orbits[i] or target != 1 << want:
                out.append((inv.name, i))
    return out


FAMILIES = guard_families() + [FamilyId("D21alpha", alpha=a) for a in ADMISSIBLE_ALPHAS]


@pytest.mark.parametrize("fam", list(dict.fromkeys(FAMILIES)), ids=lambda fam: fam.display())
def test_block_classes_are_the_walked_block_orbits(fam):
    assert mismatches(build_diagram(fam)) == []


def test_the_oracle_splits_each_kind_as_the_theory_does():
    """The walk itself, on one block of each kind, its nodes counted from 0
    along the block: A_4 pairs p with 3 - p; C_4 pairs 0 with 2 and keeps
    its long root alone; D_4 has four orbits and D_5 three, its prongs
    one; the fixed chain of D_5's swap is an A_3; G_2 is one orbit."""

    def orbits(fam, size, inv="identity"):
        """The walked orbits of the last ``size`` nodes' block."""
        diagram = build_diagram(fam)
        perm = next(g for g in automorphisms(diagram) if g.name == inv).perm
        walked = single_vertex_orbits(diagram, perm)
        start = len(diagram) - size
        return {frozenset(j - start for j in walked[i]) for i in walked if i >= start}

    def sets(*groups):
        return set(map(frozenset, groups))

    assert orbits(FamilyId("A", 1, 4), 4) == sets({0, 3}, {1, 2})
    assert orbits(FamilyId("C", 0, 4), 4) == sets({0, 2}, {1}, {3})
    assert orbits(FamilyId("D", 4, 1), 4) == sets({0}, {1}, {2}, {3})
    assert orbits(FamilyId("D", 5, 1), 5) == sets({0}, {1, 2}, {3, 4})
    assert orbits(FamilyId("D", 5, 1), 5, "swap") == sets({0, 2}, {1})
    assert orbits(FamilyId("G3"), 2) == sets({0, 1})


def test_the_kernel_rejects_classes_that_are_not_the_orbits(monkeypatch):
    """Classes that move C(5)'s node 3 from its orbit {1, 3} to node 2's
    keep the same targets, so the kernel's walks still fill every block
    painting; the build finds node 3 reached from node 1, not from its
    class's target, and raises, so neither naming nor reducing reads them."""
    module = importlib.import_module("supervogan.vogan")
    real = module._block_targets

    def moved(diagram, fixed):
        targets = list(real(diagram, fixed))
        assert targets[1:5] == [1 << 1, 1 << 2, 1 << 1, 1 << 4]
        targets[3] = targets[2]
        return tuple(targets)

    diagram = build_diagram(FamilyId("C", 0, 4))
    vd = next(vd for vd in enumerate_vogan(diagram) if vd.painted == {3})
    monkeypatch.setattr(module, "_block_targets", moved)
    build_diagram.cache_clear()  # a cold store: the record is built under the patch
    try:
        with pytest.raises(InvariantViolation, match="not its block orbits"):
            classify(vd)
        with pytest.raises(InvariantViolation, match="not its block orbits"):
            module.reduce_with_trail(vd)
    finally:
        build_diagram.cache_clear()  # later tests get a whole record
