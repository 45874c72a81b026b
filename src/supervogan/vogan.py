"""Painted diagrams, their flip calculus, and reduction to canonical form.

The painting order is kept here alone: under each involution, identity
first, ``_paintings`` lists fewest painted nodes first, then lexicographic.

A painting marks even nodes whose root vectors act noncompactly; a flip at a
painted node re-chooses the Cartan involution through that node's reflection
and toggles exactly the fixed even neighbours paired with it by an odd
integer.  Flips never mix even blocks, so a flip orbit is the product of its
blocks' orbits.  ``_block_target``, the Borel-de Siebenthal step, picks each
painted block's one painted node, its orbit's single vertex of the longest
simple root (the lowest on a tie), and their union, the orbit key, is the
orbit's canonical painting and the one way an orbit is known:
``flip_orbits`` keeps the first painting of each key, ``equivalent``
compares keys, ``reduce_with_trail`` reduces to it, and
``canonical_block_painting``, its public face, returns it.

One kernel does every flip; its state is one record per (diagram, fixed
nodes), ``_kernel``, built once and kept in the diagram's record, which
``build_diagram.cache_clear()`` drops.  Inside the kernel a painting is an
``int`` bitmask, bit i for node i, and a flip at node i is one XOR with the
record's ``masks[i]``, read off the integer Gram rows of
``algebra.gram_record``.  Walks only fill its two flat tables, ``targets``
and ``dist``, indexed by painting mask: each block painting's target,
filled for its block orbit by one walk, and each painting's flip distance
to its orbit's canonical painting, filled for a whole orbit by one walk
from that painting the first time the orbit is reduced.  Only the public
``flip_orbit`` walks an orbit without filling a table.  The record also
holds ``key``, the orbit key, and ``moves``, one ``FlipMove`` per node.

``reduce_with_trail`` reads the trail greedily, flipping at each step the
lowest painted node whose flip lowers the distance by one: the
lexicographically least shortest trail, the one a breadth-first walk from
the painting records.  The orbit BFS expands flips in ascending node order,
so its tie-breaks are deterministic.  A root's length is read off the Gram
rows' diagonal.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Iterable, Iterator
from weakref import ref

from .algebra import (
    EVEN,
    Diagram,
    cartan_scales,
    even_blocks,
    gram_record,
    stored,
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
    fixed_set: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            perm = tuple(self.perm)
        except TypeError:
            raise BadIndex(f"perm {self.perm!r} is not an iterable of node indices") from None
        # type(), not isinstance(): a bool is an int to isinstance
        if not perm or any(type(i) is not int for i in perm) or sorted(perm) != [*range(len(perm))]:
            raise BadIndex(f"perm {self.perm!r} does not permute the nodes 0..n-1 of a diagram")
        object.__setattr__(self, "perm", perm)
        fixed = frozenset(i for i, j in enumerate(perm) if i == j)
        object.__setattr__(self, "fixed_set", fixed)

    def fixed(self) -> tuple[int, ...]:
        return tuple(sorted(self.fixed_set))


def identity_involution(size: int) -> DiagramInvolution:
    if type(size) is not int or size < 1:
        raise BadIndex(f"size {size!r} is not a positive integer")
    return DiagramInvolution("identity", tuple(range(size)))


def _preserves_diagram(diagram: Diagram, perm: tuple[int, ...]) -> bool:
    """Kind-preserving, and Gram-preserving up to entrywise sign; every
    candidate ``automorphisms`` builds is an involution."""
    size = len(diagram)
    g = gram_record(diagram).rows
    for i in range(size):
        if diagram.nodes[perm[i]].kind != diagram.nodes[i].kind:
            return False
        for j in range(size):
            if abs(g[perm[i]][perm[j]]) != abs(g[i][j]):
                return False
    return True


@stored
def automorphisms(diagram: Diagram) -> tuple[DiagramInvolution, ...]:
    """Identity plus every nontrivial involutive symmetry the diagram admits."""
    size = len(diagram)
    out = [identity_involution(size)]
    kind = diagram.family.kind
    candidates: list[tuple[str, tuple[int, ...]]] = []
    if kind == "A":
        candidates.append(("reversal", tuple(reversed(range(size)))))
    elif kind == "D":
        perm = list(range(size))
        perm[-1], perm[-2] = perm[-2], perm[-1]
        candidates.append(("swap", tuple(perm)))
    elif kind == "D21alpha":
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
        if type(self.painted) is not frozenset:
            try:
                object.__setattr__(self, "painted", frozenset(self.painted))
            except TypeError:  # not iterable, or an index that is not hashable
                raise BadIndex(f"painting {self.painted!r} is not a set of node indices") from None
        inv, nodes = self.involution, self.diagram.nodes
        if not isinstance(inv, DiagramInvolution):
            raise BadIndex(f"involution {inv!r} is not a DiagramInvolution")
        # the identity is a symmetry of every diagram; any other is looked up
        identity = inv.name == "identity" and len(inv.fixed_set) == len(inv.perm) == len(nodes)
        if not identity and inv not in automorphisms(self.diagram):
            family = self.diagram.family.display()
            raise BadIndex(f"{inv.name} {list(inv.perm)} is not a symmetry of {family}")
        fixed = inv.fixed_set
        for i in self.painted:
            if type(i) is not int:
                raise BadIndex(f"painted index {i!r} is not an integer")
            if not 0 <= i < len(nodes):
                raise BadIndex(f"painted index {i} out of range")
            if nodes[i].kind != EVEN:
                raise BadIndex(f"painted index {i} is not an even node")
            if i not in fixed:
                raise BadIndex(f"painted index {i} is not fixed by the involution")


def check_vogan(vd) -> None:
    """Raise BadIndex unless ``vd`` is a ``VoganDiagram``, whose constructor
    checked its painting; each entry point that takes one checks it first."""
    if not isinstance(vd, VoganDiagram):
        raise BadIndex(f"{vd!r} is not a VoganDiagram")


def _made(diagram: Diagram, inv: DiagramInvolution, mask: int) -> VoganDiagram:
    """``VoganDiagram(diagram, inv, _nodes(mask))`` without the constructor's
    checks, for a mask the kernel made: a painting of fixed even nodes of
    ``inv``, one of ``automorphisms(diagram)``."""
    vd = object.__new__(VoganDiagram)
    vd.__dict__.update(diagram=diagram, involution=inv, painted=_nodes(mask))
    return vd


def _paintings(diagram: Diagram, inv: DiagramInvolution) -> Iterator[int]:
    """The painting order: every painting of the involution's fixed even
    nodes, as a mask, fewest painted nodes first, then lexicographic on the
    sorted nodes."""
    bits = [1 << i for i in diagram.even_indices() if i in inv.fixed_set]
    return map(sum, chain.from_iterable(combinations(bits, r) for r in range(len(bits) + 1)))


def enumerate_vogan(diagram: Diagram) -> tuple[VoganDiagram, ...]:
    """All paintings of all involutions, identity first, in painting order."""
    return tuple(
        _made(diagram, inv, mask) for inv in automorphisms(diagram) for mask in _paintings(diagram, inv)
    )


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


@dataclass(frozen=True)
class FlipMove:
    at: int


_Kernel = namedtuple("Kernel", "masks targets dist moves key")


@stored
def _kernel(diagram: Diagram, fixed: frozenset[int]) -> _Kernel:
    """The flip kernel's record under the fixed nodes ``fixed`` (see the
    module docstring).  ``masks[i]`` holds the fixed even nodes paired with
    node i by an odd integer in its Cartan row: exactly what a flip there
    toggles.  The entry a_ij = c n_ij / q is read off the integer Gram rows
    n (``cartan_scales``): it is an odd integer, q (2k + 1), exactly when
    c n_ij = q mod 2q (for either sign of q, as Python's ``%`` takes the
    sign of the modulus).  ``_block_target`` fills ``targets`` with each
    nonempty block painting's target, and ``reduce_with_trail`` fills
    ``dist`` with each painting's flip distance to its orbit's canonical
    painting, plus one; 0 marks an entry not yet filled (no nonempty block
    painting has the target 0).  ``key(mask)`` ORs the targets of
    ``mask``'s block parts; each block orbit holds one target, so two
    paintings share a key exactly when they share an orbit."""
    rows = gram_record(diagram).rows
    even = [j for j in diagram.even_indices() if j in fixed]
    masks = tuple(
        _mask(j for j in even if j != at and c * row[j] % (2 * q) == q)
        for at, (row, (c, q)) in enumerate(zip(rows, cartan_scales(diagram)))
    )
    size = 1 << len(diagram)
    targets, dist = array("I", [0]) * size, array("I", [0]) * size
    blocks = [(block, _mask(block)) for block in even_blocks(diagram)]
    # the record is kept on the diagram: a weak reference back makes no
    # cycle, so a diagram no one holds is freed at once, record and all
    held = ref(diagram)

    def key(mask: int) -> int:
        goal = 0
        for block, block_mask in blocks:
            part = mask & block_mask
            if part:
                goal |= targets[part] or _block_target(held(), fixed, block, part)
        return goal

    return _Kernel(masks, targets, dist, tuple(map(FlipMove, range(len(diagram)))), key)


def flip(vd: VoganDiagram, at: int) -> VoganDiagram:
    """Flip at a painted node: it stays painted, eligible neighbours toggle."""
    check_vogan(vd)
    if type(at) is not int:  # not isinstance(): a bool is an int to isinstance
        raise BadIndex(f"flip index {at!r} is not an integer")
    if not 0 <= at < len(vd.diagram):
        raise BadIndex(f"flip index {at} out of range")
    if vd.diagram.nodes[at].kind != EVEN:
        raise FlipAtOddNode(f"node {at} is odd; flips act on even nodes")
    if at not in vd.painted:
        raise FlipAtUnpainted(f"node {at} is not painted")
    # fixed even nodes XOR a mask of fixed even nodes: valid by construction
    masks = _kernel(vd.diagram, vd.involution.fixed_set).masks
    return _made(vd.diagram, vd.involution, _mask(vd.painted) ^ masks[at])


def _painting_orbit(diagram: Diagram, fixed: frozenset[int], start: int) -> dict[int, int]:
    """BFS over flips; maps each painting reachable from ``start`` to its flip
    distance from it, in the order the walk reaches them."""
    masks = _kernel(diagram, fixed).masks
    dist = {start: 0}
    queue = [start]
    for cur in queue:  # a list iterated while it grows: first in, first out
        step, rest = dist[cur] + 1, cur
        # a flip at each painted node of cur, lowest first (_bits, inlined)
        while rest:
            low = rest & -rest
            nxt = cur ^ masks[low.bit_length() - 1]
            if nxt not in dist:
                dist[nxt] = step
                queue.append(nxt)
            rest ^= low
    return dist


def flip_orbit(vd: VoganDiagram) -> tuple[VoganDiagram, ...]:
    """Every Vogan diagram reachable from ``vd`` by flips, in painting order:
    the walked masks sorted by painted-node count, then by sorted nodes."""
    check_vogan(vd)
    orbit = _painting_orbit(vd.diagram, vd.involution.fixed_set, _mask(vd.painted))
    return tuple(
        _made(vd.diagram, vd.involution, p)
        for p in sorted(orbit, key=lambda p: (p.bit_count(), tuple(_bits(p))))
    )


def flip_orbits(diagram: Diagram) -> Iterator[VoganDiagram]:
    """Every flip orbit once, by its first painting in ``enumerate_vogan``
    order: the first painting of each orbit key (``_kernel``'s ``key``)."""
    for inv in automorphisms(diagram):
        key = _kernel(diagram, inv.fixed_set).key
        firsts: dict[int, int] = {}  # canonical painting: first painting
        for mask in _paintings(diagram, inv):
            firsts.setdefault(key(mask), mask)
        yield from (_made(diagram, inv, mask) for mask in firsts.values())


def _block_target(
    diagram: Diagram, fixed: frozenset[int], block: tuple[int, ...], part: int
) -> int:
    """The Borel-de Siebenthal step: the canonical painting, as a mask, of
    ``block``'s nonempty painting ``part``, read off the targets table or
    filled there for the whole block orbit by one walk.  It is the orbit's
    single vertex of the longest simple root (largest |n_ii| in
    ``gram_record``'s rows), the lowest on a tie: read off the orbit alone,
    so two paintings share a target exactly when they share an orbit.
    Every nonempty block orbit holds a single vertex; one that does not
    raises ``InvariantViolation``."""
    targets = _kernel(diagram, fixed).targets
    target = targets[part]
    if not target:
        orbit = _painting_orbit(diagram, fixed, part)
        singles = [p for p in orbit if p.bit_count() == 1]
        if not singles:
            raise InvariantViolation(
                f"the flip orbit of block {list(block)} holds no single vertex"
            )
        rows = gram_record(diagram).rows
        at = min((p.bit_length() - 1 for p in singles), key=lambda i: (-abs(rows[i][i]), i))
        target = 1 << at
        for p in orbit:
            targets[p] = target
    return target


def canonical_block_painting(vd: VoganDiagram) -> frozenset[int]:
    """The canonical painting of ``vd``'s flip orbit, its orbit key (see
    ``_kernel``): on each painted even block, the one vertex
    ``_block_target`` chooses.  Raises BadIndex unless ``vd`` is a
    ``VoganDiagram``, whose constructor checked its painting."""
    check_vogan(vd)
    return _nodes(_kernel(vd.diagram, vd.involution.fixed_set).key(_mask(vd.painted)))


def reduce_with_trail(vd: VoganDiagram) -> tuple[VoganDiagram, tuple[FlipMove, ...]]:
    """Reduce to the canonical painting; also return the flip sequence used:
    the lexicographically least shortest one, read off the distances table
    (see the module docstring)."""
    check_vogan(vd)
    diagram, fixed = vd.diagram, vd.involution.fixed_set
    masks, _, dist, moves, key = _kernel(diagram, fixed)
    start = _mask(vd.painted)
    goal = key(start)
    if not dist[goal]:
        for p, d in _painting_orbit(diagram, fixed, goal).items():
            dist[p] = d + 1
    trail: list[FlipMove] = []
    cur, left = start, dist[start]
    while left > 1:
        left -= 1
        # the lowest painted node whose flip lowers the distance by one
        # (_bits, inlined); the walk that filled the distances leaves one
        rest = cur
        while rest:
            low = rest & -rest
            at = low.bit_length() - 1
            if dist[cur ^ masks[at]] == left:
                break
            rest ^= low
        cur ^= masks[at]
        trail.append(moves[at])
    # an unfilled start, or one whose distances lead elsewhere, is not in
    # the goal's orbit
    if cur != goal:
        raise InvariantViolation(
            f"canonical painting {sorted(_bits(goal))} is not in the flip orbit "
            f"of {sorted(vd.painted)}"
        )
    return _made(diagram, vd.involution, goal), tuple(trail)


def reduce(vd: VoganDiagram) -> VoganDiagram:
    return reduce_with_trail(vd)[0]


def equivalent(vd1: VoganDiagram, vd2: VoganDiagram) -> bool:
    """True when flips plus diagram relabelings carry vd1 to vd2.

    Read off orbit keys: a relabeling g among the automorphisms carries flip
    orbits to flip orbits, so vd1 ~ vd2 iff, for some g with
    g perm1 g^-1 = perm2, the painting g(painted1) has vd2's key under vd2's
    involution.  Each diagram lists at most one nontrivial involution, so
    the automorphisms are already a group (a test checks this)."""
    check_vogan(vd1)
    check_vogan(vd2)
    if vd1.diagram != vd2.diagram:
        a, b = vd1.diagram.family.display(), vd2.diagram.family.display()
        raise FamilyMismatch(f"cannot compare {a} with {b}")
    p1, p2 = vd1.involution.perm, vd2.involution.perm
    key = _kernel(vd2.diagram, vd2.involution.fixed_set).key
    target = key(_mask(vd2.painted))
    return any(
        all(p2[g[i]] == g[j] for i, j in enumerate(p1))  # g p1 = p2 g
        and key(_mask(g[i] for i in vd1.painted)) == target
        for g in (inv.perm for inv in automorphisms(vd1.diagram))
    )
