"""Painted diagrams, their flip calculus, and reduction to canonical form.

A painting marks even nodes whose root vectors act noncompactly; a flip at a
painted node re-chooses the Cartan involution through that node's reflection
and toggles exactly the fixed even neighbours paired with it by an odd
integer.  Reduction walks the flip orbit to a painting with at most one
painted node per even block, chosen by the dual-basis minimality rule.

One kernel does every flip.  Inside it a painting is an ``int`` bitmask, bit
i for node i, and a flip at node i is one XOR with node i's toggle mask.  The
masks are derived once per (diagram, fixed nodes) from the Cartan matrix, and
the orbit BFS expands flips in ascending node order, so every trail is a
shortest one and its tie-breaks are deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional

from .algebra import (
    EVEN,
    Diagram,
    block_sign,
    cartan_matrix,
    dual_basis,
    even_blocks,
    gram_matrix,
)
from .errors import (
    BadIndex,
    FamilyMismatch,
    FlipAtOddNode,
    FlipAtUnpainted,
    InvariantViolation,
)


@dataclass(frozen=True)
class DiagramInvolution:
    """Involutive diagram symmetry; ``perm`` maps each node index to its image."""

    name: str
    perm: tuple[int, ...]

    def fixed(self) -> tuple[int, ...]:
        return tuple(i for i, j in enumerate(self.perm) if i == j)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.perm))


def identity_involution(size: int) -> DiagramInvolution:
    return DiagramInvolution("identity", tuple(range(size)))


def _preserves_diagram(diagram: Diagram, perm: tuple[int, ...]) -> bool:
    """Involutive, kind-preserving, and Gram-preserving up to entrywise sign."""
    size = len(diagram)
    if sorted(perm) != list(range(size)):
        return False
    if any(perm[perm[i]] != i for i in range(size)):
        return False
    g = gram_matrix(diagram)
    for i in range(size):
        if diagram.nodes[perm[i]].kind != diagram.nodes[i].kind:
            return False
        for j in range(size):
            if abs(g[perm[i]][perm[j]]) != abs(g[i][j]):
                return False
    return True


@lru_cache(maxsize=None)
def automorphisms(diagram: Diagram) -> tuple[DiagramInvolution, ...]:
    """Identity plus every nontrivial involutive symmetry the diagram admits."""
    size = len(diagram)
    out = [identity_involution(size)]
    fam = diagram.family
    candidates: list[tuple[str, tuple[int, ...]]] = []
    if fam is not None:
        if fam.kind == "A":
            candidates.append(("reversal", tuple(reversed(range(size)))))
        elif fam.kind == "D":
            perm = list(range(size))
            perm[-1], perm[-2] = perm[-2], perm[-1]
            candidates.append(("swap", tuple(perm)))
        elif fam.kind == "D21alpha":
            for a, b in ((0, 2), (0, 3), (2, 3)):
                perm = list(range(size))
                perm[a], perm[b] = perm[b], perm[a]
                candidates.append(("swap", tuple(perm)))
    for name, perm in candidates:
        if _preserves_diagram(diagram, perm):
            out.append(DiagramInvolution(name, perm))
    return tuple(out)


@dataclass(frozen=True)
class VoganDiagram:
    """Diagram + involutive symmetry + painting of symmetry-fixed even nodes."""

    diagram: Diagram
    involution: DiagramInvolution
    painted: frozenset[int]

    def __post_init__(self):
        fixed = set(self.involution.fixed())
        for i in self.painted:
            if not 0 <= i < len(self.diagram):
                raise BadIndex(f"painted index {i} out of range")
            if self.diagram.nodes[i].kind != EVEN:
                raise BadIndex(f"painted index {i} is not an even node")
            if i not in fixed:
                raise BadIndex(f"painted index {i} is not fixed by the involution")

    def fixed_even_nodes(self) -> tuple[int, ...]:
        fixed = set(self.involution.fixed())
        return tuple(i for i in self.diagram.even_indices() if i in fixed)


def enumerate_vogan(diagram: Diagram) -> tuple[VoganDiagram, ...]:
    """All paintings of all involutions, identity first, in deterministic order."""
    out = []
    for inv in automorphisms(diagram):
        fixed_even = [
            i for i in diagram.even_indices() if inv.perm[i] == i
        ]
        for r in range(len(fixed_even) + 1):
            for combo in combinations(fixed_even, r):
                out.append(VoganDiagram(diagram, inv, frozenset(combo)))
    return tuple(out)


def _odd_integer(x) -> bool:
    return x.denominator == 1 and x.numerator % 2 != 0


# ----------------------------------------------------------------------------
# The flip kernel (see the module docstring).


def _mask(nodes: Iterable[int]) -> int:
    return sum(1 << i for i in nodes)


def _bits(mask: int) -> Iterable[int]:
    """Set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _nodes(mask: int) -> frozenset[int]:
    return frozenset(_bits(mask))


def _sort_key(mask: int) -> tuple[int, list[int]]:
    """Fewest painted nodes first, then lexicographic on the sorted nodes."""
    return mask.bit_count(), list(_bits(mask))


@lru_cache(maxsize=None)
def _toggle_masks(diagram: Diagram, fixed: frozenset[int]) -> tuple[int, ...]:
    """Per node, the fixed even nodes paired with it by an odd integer in its
    Cartan row, as a mask: exactly what a flip there toggles."""
    a = cartan_matrix(diagram).matrix
    even = [j for j in diagram.even_indices() if j in fixed]
    return tuple(
        _mask(j for j in even if j != at and _odd_integer(a[at][j]))
        for at in range(len(diagram))
    )


def _flips(masks: tuple[int, ...], cur: int) -> Iterable[tuple[int, int]]:
    """(node, result) for a flip at each painted node of ``cur``, lowest first."""
    for at in _bits(cur):
        yield at, cur ^ masks[at]


def flip(vd: VoganDiagram, at: int) -> VoganDiagram:
    """Flip at a painted node: it stays painted, eligible neighbours toggle."""
    if not 0 <= at < len(vd.diagram):
        raise BadIndex(f"flip index {at} out of range")
    if vd.diagram.nodes[at].kind != EVEN:
        raise FlipAtOddNode(f"node {at} is odd; flips act on even nodes")
    if at not in vd.painted:
        raise FlipAtUnpainted(f"node {at} is not painted")
    masks = _toggle_masks(vd.diagram, frozenset(vd.involution.fixed()))
    new = _mask(vd.painted) ^ masks[at]
    return VoganDiagram(vd.diagram, vd.involution, _nodes(new))


@dataclass(frozen=True)
class FlipMove:
    at: int


def _painting_orbit(
    diagram: Diagram, fixed: frozenset[int], start: int
) -> dict[int, Optional[tuple[int, int]]]:
    """BFS over flips; maps each reachable painting to (parent painting, flip index)."""
    masks = _toggle_masks(diagram, fixed)
    parents: dict[int, Optional[tuple[int, int]]] = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for at, nxt in _flips(masks, cur):
            if nxt not in parents:
                parents[nxt] = (cur, at)
                queue.append(nxt)
    return parents


def flip_orbit(vd: VoganDiagram) -> tuple[VoganDiagram, ...]:
    """Every Vogan diagram reachable from ``vd`` by flips, deterministically ordered."""
    fixed = frozenset(vd.involution.fixed())
    parents = _painting_orbit(vd.diagram, fixed, _mask(vd.painted))
    return tuple(
        VoganDiagram(vd.diagram, vd.involution, _nodes(p))
        for p in sorted(parents, key=_sort_key)
    )


@lru_cache(maxsize=None)
def _admissible_vertices(diagram: Diagram, block: tuple[int, ...]) -> frozenset[int]:
    """Block vertices i whose dual-basis vector is minimal:
    sign * <w_i - w_j, w_j> <= 0 for every j in the block, the sign making
    the comparison definite on both sides of the weight space."""
    omegas = dual_basis(diagram, block)
    s = block_sign(diagram, block)
    inner = [[a.inner(b) for b in omegas] for a in omegas]
    return frozenset(
        i
        for ki, i in enumerate(block)
        if all(s * (inner[ki][kj] - inner[kj][kj]) <= 0 for kj in range(len(block)))
    )


def canonical_block_painting(
    diagram: Diagram,
    block: tuple[int, ...],
    painted: frozenset[int],
    fixed: Optional[frozenset[int]] = None,
) -> frozenset[int]:
    """Canonical representative of a block painting's flip orbit.

    Prefers a reachable single painted vertex that is admissible (see
    ``_admissible_vertices``), the lowest such; failing that the lowest
    reachable single vertex, and failing that the smallest painting.
    """
    if not painted:
        return frozenset()
    if fixed is None:
        fixed = frozenset(block)
    orbit = _painting_orbit(diagram, fixed, _mask(painted))
    singles = sorted(p.bit_length() - 1 for p in orbit if p.bit_count() == 1)
    if not singles:
        return _nodes(min(orbit, key=_sort_key))
    admissible = _admissible_vertices(diagram, tuple(block))
    winners = [i for i in singles if i in admissible]
    return frozenset({winners[0] if winners else singles[0]})


def reduce_with_trail(vd: VoganDiagram) -> tuple[VoganDiagram, tuple[FlipMove, ...]]:
    """Reduce to the canonical painting; also return the flip sequence used.

    Flips never mix blocks, so the canonical target is assembled per block and
    then located inside the full orbit.
    """
    fixed = frozenset(vd.involution.fixed())
    target: set[int] = set()
    for block in even_blocks(vd.diagram):
        part = vd.painted & set(block)
        target |= canonical_block_painting(vd.diagram, block, frozenset(part), fixed)
    goal = _mask(target)
    parents = _painting_orbit(vd.diagram, fixed, _mask(vd.painted))
    if goal not in parents:
        raise InvariantViolation(
            f"canonical painting {sorted(target)} is not in the flip orbit "
            f"of {sorted(vd.painted)}"
        )
    moves: list[FlipMove] = []
    cur = goal
    while parents[cur] is not None:
        cur, at = parents[cur]
        moves.append(FlipMove(at))
    moves.reverse()
    return VoganDiagram(vd.diagram, vd.involution, frozenset(target)), tuple(moves)


def reduce(vd: VoganDiagram) -> VoganDiagram:
    return reduce_with_trail(vd)[0]


def _conjugate(g: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    ginv = [0] * len(g)
    for i, j in enumerate(g):
        ginv[j] = i
    return tuple(g[perm[ginv[i]]] for i in range(len(g)))


def equivalent(vd1: VoganDiagram, vd2: VoganDiagram) -> bool:
    """True when flips plus diagram relabelings carry vd1 to vd2."""
    if vd1.diagram != vd2.diagram:
        a = vd1.diagram.family.display() if vd1.diagram.family else "block"
        b = vd2.diagram.family.display() if vd2.diagram.family else "block"
        raise FamilyMismatch(f"cannot compare {a} with {b}")
    diagram = vd1.diagram
    autos = automorphisms(diagram)
    start = (vd1.involution.perm, _mask(vd1.painted))
    goal = (vd2.involution.perm, _mask(vd2.painted))
    seen = {start}
    queue = deque([start])
    while queue:
        perm, painted = queue.popleft()
        if (perm, painted) == goal:
            return True
        fixed = frozenset(i for i, j in enumerate(perm) if i == j)
        states = [(perm, nxt) for _, nxt in _flips(_toggle_masks(diagram, fixed), painted)]
        states += [
            (_conjugate(g.perm, perm), _mask(g.perm[i] for i in _bits(painted)))
            for g in autos
        ]
        for state in states:
            if state not in seen:
                seen.add(state)
                queue.append(state)
    return goal in seen
