"""Painted diagrams, their flip calculus, and reduction to canonical form.

The painting order is kept here alone: involutions identity first, and
under each ``_paintings`` lists fewest painted nodes first, then
lexicographic.

A painting marks even nodes whose root vectors act noncompactly; a flip at a
painted node re-chooses the Cartan involution through that node's reflection
and toggles exactly the fixed even neighbours paired with it by an odd
integer.  Flips never mix even blocks, so a flip orbit is the product of its
blocks' orbits.  The Borel-de Siebenthal step picks each painted block's
one painted node, its orbit's single vertex of the longest simple root (the
lowest on a tie), and their union, the orbit key, is the orbit's canonical
painting and the one way an orbit is known: ``_orbit_keys`` lists every
orbit once, as the product of its block orbits, with its first painting and
its key (``classify.enumerate_real_forms`` names the keys), ``equivalent``
compares keys, ``reduce_with_trail`` reduces to it, and
``canonical_block_painting``, its public face, returns it.

Which single vertices share a block orbit is a count of Kac coordinates
(Kac, *Infinite-Dimensional Lie Algebras*, ch. 8): ``_block_targets``
reads it off the integer Gram rows of ``algebra.gram_record``, one class
and target per block orbit, and ``_orbit_keys`` lists orbits from the
classes without a walk, so a table builds no kernel.

One kernel does every flip; its state is one record per (diagram, fixed
nodes), ``_kernel``, built once and kept in the diagram's record, which
``build_diagram.cache_clear()`` drops.  Inside the kernel a painting is an
``int`` bitmask, bit i for node i, and a flip at node i is one XOR with the
record's ``masks[i]``, read off the Gram rows.  The record is plain data,
complete and checked when built: one walk per class, from its target,
fills its two flat tables, indexed by block painting, ``targets`` (the
orbit's target) and ``dist`` (the flip distance to it), and checks the
classes against the orbits it walks; nothing is filled or checked later,
and only the public ``flip_orbit`` walks again.  ``_orbit_key`` ORs a
painting's block targets into its orbit key; the record holds nothing that
refers back to its diagram, so a diagram no one holds is freed at once.

``reduce_with_trail`` reads the trail greedily off the block distances,
flipping at each step the lowest painted node whose flip lowers the
distance by one: the lexicographically least shortest trail, the one a
breadth-first walk from the painting records; every other painting has a
flip one nearer, so it ends on the orbit key.  The orbit BFS expands flips
in ascending node order, so its tie-breaks are deterministic.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Iterable, Iterator

from .algebra import EVEN, Diagram, even_blocks, gram_record, stored
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
        if not isinstance(self.diagram, Diagram):
            raise BadIndex(f"{self.diagram!r} is not a Diagram")
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


def _paintings(nodes: Iterable[int]) -> Iterator[int]:
    """The painting order: every painting of ``nodes``, ascending, as a
    mask, fewest painted nodes first, then lexicographic on the sorted
    nodes."""
    bits = [1 << i for i in nodes]
    return map(sum, chain.from_iterable(combinations(bits, r) for r in range(len(bits) + 1)))


def enumerate_vogan(diagram: Diagram) -> tuple[VoganDiagram, ...]:
    """All paintings of all involutions, identity first, in painting order:
    under each, the paintings of its fixed even nodes."""
    return tuple(
        _made(diagram, inv, mask)
        for inv in automorphisms(diagram)
        for mask in _paintings(i for i in diagram.even_indices() if i in inv.fixed_set)
    )


# ----------------------------------------------------------------------------
# The flip kernel (see the module docstring).


def _mask(nodes: Iterable[int]) -> int:
    return sum(1 << i for i in nodes)


def _bits(mask: int) -> list[int]:
    """Set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _nodes(mask: int) -> frozenset[int]:
    return frozenset(_bits(mask))


def _order(mask: int) -> tuple[int, list[int]]:
    """A painting's place in the painting order of ``_paintings``."""
    return mask.bit_count(), _bits(mask)


@dataclass(frozen=True)
class FlipMove:
    at: int


_Kernel = namedtuple("Kernel", "masks blocks targets dist moves")


def _line(links: dict[int, list[int]], line: list[int]) -> list[int]:
    """``line``, a path of linked nodes, continued along ``links`` to its end."""
    while step := [j for j in links[line[-1]] if j not in line]:
        line.append(step[0])
    return line


def _reversed_pairs(line: list[int]) -> list[list[int]]:
    """``line``'s nodes grouped with their mirror images: q with -1 - q."""
    return [[line[q], line[-1 - q]] for q in range((len(line) + 1) // 2)]


@stored
def _block_targets(diagram: Diagram, fixed: frozenset[int]) -> tuple[int, ...]:
    """Each fixed even node's block-orbit target under the fixed nodes
    ``fixed``, as a mask, and 0 at every other node: the single vertex of
    the longest root (largest |n_ii|) in the node's class, the lowest on a
    tie.  A class holds the single vertices of one block orbit, counted by
    the Kac coordinates of a painting's element of order two (Kac,
    *Infinite-Dimensional Lie Algebras*, ch. 8; Chuah and Hu, J. Algebra
    279, 2004), and read off the integer Gram rows: a block part's type
    comes from its links, the fork and its end root's norm.  Along a chain
    of positions 1..k (1..r), the classes are:

    - A_k: {p, k+1-p}; a D swap's fixed nodes and D(2,1;alpha)'s A_1
      blocks are A chains;
    - B_r (short end root r): {p};
    - C_r (long end root r): {p, r-p}, and {r};
    - D_r (prongs r-1 and r): {1} and {p, r-p} on the chain 1..r-2, and
      the prongs one class when r is odd, two when it is even;
    - G_2: one class."""
    rows = gram_record(diagram).rows
    out = [0] * len(diagram)
    for block in even_blocks(diagram):
        part = [i for i in block if i in fixed]
        if not part:
            continue
        norm = {i: abs(rows[i][i]) for i in part}
        links = {i: [j for j in part if j != i and rows[i][j]] for i in part}
        fork = [i for i in part if len(links[i]) == 3]
        if fork:  # D_r, r >= 4: the chain from its far end, then the prongs
            (at,) = fork
            arm, *prongs = sorted(links[at], key=lambda j: len(links[j]) == 1)
            chain = _line(links, [at, arm])[::-1]
            classes = [chain[:1], *_reversed_pairs(chain[1:])]
            classes += [prongs] if len(part) % 2 else [[j] for j in prongs]
        else:  # a path, from an end that shares its neighbour's norm
            ends = [i for i in part if len(links[i]) < 2]
            start = min(ends, key=lambda i: any(norm[j] != norm[i] for j in links[i]))
            line = _line(links, [start])
            first, last = norm[line[0]], norm[line[-1]]
            if first == last:  # A_k
                classes = _reversed_pairs(line)
            elif max(first, last) == 3 * min(first, last):  # G_2
                classes = [line]
            elif last < first:  # B_r
                classes = [[i] for i in line]
            else:  # C_r
                classes = [*_reversed_pairs(line[:-1]), line[-1:]]
        for cls in classes:
            target = 1 << min(cls, key=lambda i: (-norm[i], i))
            for i in cls:
                out[i] = target
    return tuple(out)


@stored
def _kernel(diagram: Diagram, fixed: frozenset[int]) -> _Kernel:
    """The flip kernel's record under the fixed nodes ``fixed`` (see the
    module docstring).  ``masks[i]`` holds the fixed even nodes paired with
    node i by an odd integer in its Cartan row: exactly what a flip there
    toggles.  The entry a_ij = c n_ij / q is read off the integer Gram rows
    n and their ``scales``: it is an odd integer, q (2k + 1), exactly when
    c n_ij = q mod 2q (for either sign of q, as Python's ``%`` takes the
    sign of the modulus).  ``blocks[i]`` masks node i's even block, if any.

    One walk from each class target of ``_block_targets`` fills
    ``targets`` and ``dist`` for its block orbit, and the build checks the
    closed form: the walks stay in their blocks, fill the 2**k - 1
    paintings of a block's k fixed even nodes exactly when each block orbit
    holds a single vertex (Borel-de Siebenthal), and reach each single
    vertex from its own class target exactly when the classes are the
    block orbits; otherwise the build raises InvariantViolation."""
    rows, _, scales, _, _ = gram_record(diagram)
    even = [j for j in diagram.even_indices() if j in fixed]
    masks = tuple(
        _mask(j for j in even if j != at and c * row[j] % (2 * q) == q)
        for at, (row, (c, q)) in enumerate(zip(rows, scales))
    )
    classes = _block_targets(diagram, fixed)
    size = 1 << len(diagram)
    targets, dist = array("I", [0]) * size, array("I", [0]) * size
    filled = 0
    for start in dict.fromkeys(classes[i] for i in even):
        orbit = _painting_orbit(masks, start)
        filled += len(orbit)
        for p, d in orbit.items():
            targets[p], dist[p] = start, d
    blocks = even_blocks(diagram)
    if filled != sum((1 << len(fixed.intersection(block))) - 1 for block in blocks):
        family = diagram.family.display()
        raise InvariantViolation(f"a block orbit of {family} holds no single vertex")
    if any(targets[1 << i] != classes[i] for i in even):
        family = diagram.family.display()
        raise InvariantViolation(f"the block classes of {family} are not its block orbits")
    owner = {i: _mask(block) for block in blocks for i in block}
    block_of = tuple(owner.get(i, 0) for i in range(len(diagram)))
    return _Kernel(masks, block_of, targets, dist, tuple(map(FlipMove, range(len(diagram)))))


def _orbit_key(kernel: _Kernel, mask: int) -> int:
    """The orbit key of painting ``mask``: the OR of its block parts'
    targets.  Each block orbit holds one target (``_kernel`` checks it), so
    two paintings share a key exactly when they share an orbit."""
    _, blocks, targets, _, _ = kernel
    goal = 0
    while mask:
        part = mask & blocks[(mask & -mask).bit_length() - 1]
        goal |= targets[part]
        mask ^= part
    return goal


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


def _painting_orbit(masks: tuple[int, ...], start: int) -> dict[int, int]:
    """BFS over the flips of a kernel's ``masks``; maps each painting
    reachable from ``start`` to its flip distance from it, in the order the
    walk reaches them."""
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
    masks = _kernel(vd.diagram, vd.involution.fixed_set).masks
    orbit = _painting_orbit(masks, _mask(vd.painted))
    return tuple(_made(vd.diagram, vd.involution, p) for p in sorted(orbit, key=_order))


def _orbit_keys(diagram: Diagram) -> list[tuple[DiagramInvolution, int, int]]:
    """Every flip orbit once, in ``enumerate_vogan`` order of its first
    painting, as (involution, first painting, canonical painting), masks.

    Read off the block classes alone, without a walk.  Every nonempty block
    orbit holds a single vertex, so its first painting is its lowest one:
    each block's orbits are listed from its fixed single vertices,
    ascending, by their class targets (``_block_targets``).
    An orbit is the product of its block orbits: its canonical painting is
    the union of their targets, and its first painting the union of their
    first ones, since the fewest painted nodes are the fewest on each
    block, and of two paintings of one size the least node of their
    symmetric difference, which lies in one block, decides the order."""
    out = []
    for inv in automorphisms(diagram):
        fixed = inv.fixed_set
        targets = _block_targets(diagram, fixed)
        orbits = {0: 0}  # first painting: canonical painting
        for block in even_blocks(diagram):
            firsts = {0: 0}  # each block orbit's target: its first painting
            for i in block:
                if i in fixed:
                    firsts.setdefault(targets[i], 1 << i)
            orbits = {f | g: t | u for f, t in orbits.items() for u, g in firsts.items()}
        out += ((inv, first, orbits[first]) for first in sorted(orbits, key=_order))
    return out


def canonical_block_painting(vd: VoganDiagram) -> frozenset[int]:
    """The canonical painting of ``vd``'s flip orbit, its orbit key (see
    ``_orbit_key``): on each painted even block, its block orbit's target.
    Raises BadIndex unless ``vd`` is a ``VoganDiagram``, whose constructor
    checked its painting."""
    check_vogan(vd)
    return _nodes(_orbit_key(_kernel(vd.diagram, vd.involution.fixed_set), _mask(vd.painted)))


def reduce_with_trail(vd: VoganDiagram) -> tuple[VoganDiagram, tuple[FlipMove, ...]]:
    """Reduce to the canonical painting; also return the flip sequence used:
    the lexicographically least shortest one, read off the block distances
    (see the module docstring)."""
    check_vogan(vd)
    masks, blocks, _, dist, moves = _kernel(vd.diagram, vd.involution.fixed_set)
    cur = _mask(vd.painted)
    trail: list[FlipMove] = []
    # after each flip, the lowest painted node whose flip lowers its block's
    # distance, so the total, by one (it moves by at most one; _bits, inlined)
    rest = cur
    while rest:
        low = rest & -rest
        at = low.bit_length() - 1
        part = cur & blocks[at]
        if dist[part ^ masks[at]] < dist[part]:
            cur ^= masks[at]
            trail.append(moves[at])
            rest = cur
        else:
            rest ^= low
    # distances from each block orbit's target: the descent ends on the key
    return _made(vd.diagram, vd.involution, cur), tuple(trail)


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
    kernel = _kernel(vd2.diagram, vd2.involution.fixed_set)
    target = _orbit_key(kernel, _mask(vd2.painted))
    return any(
        all(p2[g[i]] == g[j] for i, j in enumerate(p1))  # g p1 = p2 g
        and _orbit_key(kernel, _mask(g[i] for i in vd1.painted)) == target
        for g in (inv.perm for inv in automorphisms(vd1.diagram))
    )
