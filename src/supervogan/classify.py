"""Naming the real form determined by a painted diagram.

Every even block is first driven to its canonical painting (at most one
painted vertex) with the same flip machinery used by reduction, then looked
up in the classical block dictionary.  Sides whose even root system is not
fully spanned by diagram nodes (the bottom long root of a symplectic side,
or a lone sl(2) summand) are handled by superimposing the missing vertex;
its paint state is forced by the partner side, never free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .algebra import (
    EVEN,
    Diagram,
    FamilyId,
    Node,
    WeightVector,
    adjacency,
    cartan_matrix,
    even_blocks,
    gram_matrix,
)
from .errors import InvalidFamily, InvariantViolation, UnreducedInput
from .linalg import Q
from .vogan import VoganDiagram, canonical_block_painting, enumerate_vogan, flip_orbit


@dataclass(frozen=True)
class EvenBlockRealForm:
    """Classified even block: its type, rank, and real-form name."""

    block_type: str  # "A", "B", "C", "D", "G2"
    rank: int
    name: str


@dataclass(frozen=True)
class RealFormDescriptor:
    family: FamilyId
    involution: str
    super_name: str
    even_parts: tuple[str, ...]

    def even_display(self) -> str:
        return " + ".join(self.even_parts)


# ----------------------------------------------------------------------------
# Block dictionary helpers.  Signatures are printed smallest first; compact
# forms drop the zero slot, while super names keep zeros for a uniform shape.


def _minmax(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def _su_name(total: int, p: Optional[int]) -> str:
    if p is None or p == 0 or p == total:
        return f"su({total})"
    a, b = _minmax(p, total - p)
    return f"su({a},{b})"


def _so_name(total: int, a: int, b: int) -> str:
    if a == 0:
        return f"so({total})"
    a, b = _minmax(a, b)
    return f"so({a},{b})"


def _sp_name(n: int, pos: Optional[int]) -> str:
    """Symplectic side of rank n: pos is the canonical vertex, n meaning the
    long root, 1..n-1 a chain vertex, None unpainted."""
    if pos is None:
        return f"sp({n})"
    if pos == n:
        return f"sp({2 * n},R)"
    q = min(pos, n - pos)
    return f"sp({q},{n - q})"


def _single_vertex(canon: frozenset[int]) -> int:
    """The one vertex of a block's canonical painting (Borel-de Siebenthal)."""
    if len(canon) != 1:
        raise InvariantViolation(
            f"canonical block painting {sorted(canon)} is not a single vertex"
        )
    return next(iter(canon))


# ----------------------------------------------------------------------------
# The symplectic side with its superimposed long vertex.


@lru_cache(maxsize=None)
def _sp_side_diagram(n: int) -> Diagram:
    """Rank-n symplectic simple system on the negative side: the chain
    d_i - d_{i+1} plus the long root 2 d_n."""
    nodes = []
    for i in range(n - 1):
        d = [Q(0)] * n
        d[i], d[i + 1] = Q(1), Q(-1)
        nodes.append(Node(i, WeightVector((), tuple(d)), EVEN))
    d = [Q(0)] * n
    d[n - 1] = Q(2)
    nodes.append(Node(n - 1, WeightVector((), tuple(d)), EVEN))
    return Diagram(tuple(nodes), None)


def _sp_side_position(n: int, chain_painted: frozenset[int], long_painted: bool) -> Optional[int]:
    """Canonical vertex (1-based; n = long root) of the symplectic side.

    ``chain_painted`` holds 0-based chain positions (0 .. n-2)."""
    painting = set(chain_painted)
    if long_painted:
        painting.add(n - 1)
    if not painting:
        return None
    diagram = _sp_side_diagram(n)
    canon = canonical_block_painting(diagram, tuple(range(n)), frozenset(painting))
    return _single_vertex(canon) + 1


# ----------------------------------------------------------------------------
# Generic single-block classification (public utility).


def classify_block(
    diagram: Diagram,
    block: tuple[int, ...],
    painted: frozenset[int],
    block_type: Optional[str] = None,
) -> EvenBlockRealForm:
    """Name the real form of one even block with at most one painted vertex.

    Raises UnreducedInput when more than one block vertex is painted; callers
    reduce first.  ``block_type`` overrides detection for the ambiguous rank-2
    asymmetric case (B versus C).
    """
    inside = sorted(set(painted) & set(block))
    if len(inside) > 1:
        raise UnreducedInput(
            f"block {block} carries {len(inside)} painted vertices; reduce first"
        )
    order, kind = _block_order(diagram, block)
    if block_type is not None:
        kind = block_type
    rank = len(block)
    pos = None if not inside else order.index(inside[0]) + 1
    if kind == "G2":
        name = "G2,0" if pos is None else "G2,2"
    elif kind == "A":
        name = _su_name(rank + 1, pos)
    elif kind == "B":
        total = 2 * rank + 1
        name = _so_name(total, 0, total) if pos is None else _so_name(total, 2 * pos, total - 2 * pos)
    elif kind == "C":
        name = _sp_name(rank, pos)
    elif kind == "D":
        total = 2 * rank
        if pos is None:
            name = _so_name(total, 0, total)
        elif pos >= rank - 1:
            name = f"so*({total})"
        else:
            name = _so_name(total, 2 * pos, total - 2 * pos)
    else:  # pragma: no cover
        raise InvalidFamily(f"unknown block type {kind!r}")
    return EvenBlockRealForm(kind, rank, name)


def _block_order(diagram: Diagram, block: tuple[int, ...]) -> tuple[list[int], str]:
    """Path order of a block with its detected type.

    B puts its short end last, C its long end last, D its two prongs last;
    A blocks keep an arbitrary orientation (the naming is symmetric).  The
    rank-2 asymmetric block and the 3-node prong are each compatible with two
    types; detection defaults to B and A, and callers override.
    """
    g = gram_matrix(diagram)
    adj = {i: [j for j in adjacency(diagram)[i] if j in block] for i in block}
    if len(block) == 1:
        return list(block), "A"
    a = cartan_matrix(diagram).matrix
    entries = {abs(a[i][j]) for i in block for j in adj[i]}
    if 3 in entries:
        order = sorted(block, key=lambda i: abs(g[i][i]))
        return order, "G2"
    prong_root = [i for i in block if len(adj[i]) == 3]
    if prong_root:
        prongs = sorted(j for j in adj[prong_root[0]] if len(adj[j]) == 1)
        start = next(i for i in block if len(adj[i]) == 1 and i not in prongs)
        order = _walk(adj, start, forbidden=set(prongs))
        return order + prongs, "D"
    ends = sorted(i for i in block if len(adj[i]) == 1)
    norms = {i: abs(g[i][i]) for i in block}
    lo, hi = min(norms.values()), max(norms.values())
    if lo == hi:
        return _walk(adj, ends[0]), "A"
    if len(block) == 2:
        short = min(block, key=lambda i: norms[i])
        other = next(i for i in block if i != short)
        return [other, short], "B"
    special = next(
        i for i in ends if sum(1 for j in block if norms[j] == norms[i]) == 1
    )
    start = next(i for i in ends if i != special)
    order = _walk(adj, start)
    kind = "B" if norms[special] == lo else "C"
    return order, kind


def _walk(adj, start, forbidden=frozenset()):
    order = [start]
    seen = {start} | set(forbidden)
    cur = start
    while True:
        nxt = [j for j in adj[cur] if j not in seen]
        if not nxt:
            return order
        cur = nxt[0]
        seen.add(cur)
        order.append(cur)


# ----------------------------------------------------------------------------
# Family-level classification.


def classify(vd: VoganDiagram) -> RealFormDescriptor:
    """Real form named by a painted diagram; constant on flip orbits."""
    fam = vd.diagram.family
    if fam is None:
        raise InvalidFamily("classification needs a named family")
    kind = fam.kind
    if kind == "A":
        return _classify_a(vd, fam)
    if kind in ("B", "B0"):
        return _classify_b(vd, fam)
    if kind == "C":
        return _classify_c(vd, fam)
    if kind == "D":
        return _classify_d(vd, fam)
    if kind == "D21alpha":
        return _classify_d21(vd, fam)
    if kind == "F4":
        return _classify_f4(vd, fam)
    if kind == "G3":
        return _classify_g3(vd, fam)
    raise InvalidFamily(f"unknown family kind {kind!r}")  # pragma: no cover


def _chain_position(
    diagram: Diagram,
    block: tuple[int, ...],
    painted: frozenset[int],
    first_position_index: int,
    fixed: Optional[frozenset[int]] = None,
) -> Optional[int]:
    """Canonical painted vertex of a block, as a 1-based position along it."""
    part = frozenset(painted & set(block))
    canon = canonical_block_painting(diagram, block, part, fixed)
    if not canon:
        return None
    return _single_vertex(canon) - first_position_index + 1


def _classify_a(vd: VoganDiagram, fam: FamilyId) -> RealFormDescriptor:
    m, n = fam.m, fam.n
    M, N = m + 1, n + 1
    if vd.involution.name == "reversal":
        if N % 2 == 0:
            return RealFormDescriptor(
                fam, "reversal", f"psl({N}|{N};H)", (f"su*({N})", f"su*({N})")
            )
        return RealFormDescriptor(
            fam, "reversal", f"psl({N}|{N};R)", (f"sl({N},R)", f"sl({N},R)")
        )
    d = vd.diagram
    p_e = (
        _chain_position(d, tuple(range(m)), vd.painted, 0) if m >= 1 else None
    )
    p_d = (
        _chain_position(d, tuple(range(m + 1, m + 1 + n)), vd.painted, m + 1)
        if n >= 1
        else None
    )
    pair_e = _minmax(p_e or 0, M - (p_e or 0))
    pair_d = _minmax(p_d or 0, N - (p_d or 0))
    if m == n:
        pairs = sorted([pair_e, pair_d])
        super_name = f"psu({pairs[0][0]},{pairs[0][1]}|{pairs[1][0]},{pairs[1][1]})"
        evens = tuple(_su_name(M, a) for (a, _) in pairs)
        return RealFormDescriptor(fam, "identity", super_name, evens)
    super_name = f"su({pair_e[0]},{pair_e[1]}|{pair_d[0]},{pair_d[1]})"
    evens = []
    if M > 1:
        evens.append(_su_name(M, pair_e[0]))
    if N > 1:
        evens.append(_su_name(N, pair_d[0]))
    evens.append("iR")
    return RealFormDescriptor(fam, "identity", super_name, tuple(evens))


def _classify_b(vd: VoganDiagram, fam: FamilyId) -> RealFormDescriptor:
    m, n = fam.m, fam.n
    d = vd.diagram
    chain = frozenset(i for i in vd.painted if i <= n - 2)
    # the orthogonal side is never quaternionic, so the superimposed long
    # vertex of the symplectic side is always painted
    sp_pos = _sp_side_position(n, chain, long_painted=True)
    sp = _sp_name(n, sp_pos)
    if fam.kind == "B0":
        return RealFormDescriptor(fam, "identity", f"osp(1|{2 * n};R)", (sp,))
    p = _chain_position(d, tuple(range(n, n + m)), vd.painted, n)
    total = 2 * m + 1
    pair = _minmax(2 * (p or 0), total - 2 * (p or 0))
    so = _so_name(total, pair[0], pair[1])
    super_name = f"osp({pair[0]},{pair[1]}|{2 * n};R)"
    return RealFormDescriptor(fam, "identity", super_name, (sp, so))


def _classify_c(vd: VoganDiagram, fam: FamilyId) -> RealFormDescriptor:
    n = fam.n
    d = vd.diagram
    pos = _chain_position(d, tuple(range(1, n + 1)), vd.painted, 1)
    sp = _sp_name(n, pos)
    if pos == n:
        super_name = f"osp(2|{2 * n};R)"
    elif pos is None:
        super_name = f"osp(2|{2 * n};H)"
    else:
        q = min(pos, n - pos)
        super_name = f"osp(2|{2 * q},{2 * n - 2 * q};H)"
    return RealFormDescriptor(fam, "identity", super_name, ("so*(2)", sp))


def _classify_d(vd: VoganDiagram, fam: FamilyId) -> RealFormDescriptor:
    m, n = fam.m, fam.n
    d = vd.diagram
    chain = frozenset(i for i in vd.painted if i <= n - 2)
    block = tuple(range(n, n + m))
    if vd.involution.name == "swap":
        fixed = frozenset(i for i in block if vd.involution.perm[i] == i)
        p = _chain_position(d, block, vd.painted, n, fixed)
        pair = _minmax(2 * (p or 0) + 1, 2 * m - 2 * (p or 0) - 1)
        so = _so_name(2 * m, pair[0], pair[1])
        quaternionic = False
    elif m == 2:
        bits = (block[0] in vd.painted, block[1] in vd.painted)
        if bits == (False, False):
            pair, so, quaternionic = (0, 4), "so(4)", False
        elif bits == (True, True):
            pair, so, quaternionic = (2, 2), "so(2,2)", False
        else:
            pair, so, quaternionic = None, "so*(4)", True
    else:
        p = _chain_position(d, block, vd.painted, n)
        if p is None:
            pair, so, quaternionic = (0, 2 * m), f"so({2 * m})", False
        elif p >= m - 1:
            pair, so, quaternionic = None, f"so*({2 * m})", True
        else:
            pair = _minmax(2 * p, 2 * m - 2 * p)
            so, quaternionic = _so_name(2 * m, pair[0], pair[1]), False
    sp_pos = _sp_side_position(n, chain, long_painted=not quaternionic)
    sp = _sp_name(n, sp_pos)
    if quaternionic:
        if sp_pos is None:
            super_name = f"osp({2 * m}|{2 * n};H)"
        else:
            q = min(sp_pos, n - sp_pos)
            super_name = f"osp({2 * m}|{2 * q},{2 * n - 2 * q};H)"
    else:
        super_name = f"osp({pair[0]},{pair[1]}|{2 * n};R)"
    return RealFormDescriptor(fam, vd.involution.name, super_name, (sp, so))


def _classify_d21(vd: VoganDiagram, fam: FamilyId) -> RealFormDescriptor:
    a = fam.alpha
    if vd.involution.name == "swap":
        return RealFormDescriptor(
            fam, "swap", f"D(2,1;{a};2)", ("sl(2,C)", "sl(2,R)")
        )
    k = len(vd.painted)
    if k <= 1:
        return RealFormDescriptor(
            fam, "identity", f"D(2,1;{a};1)", ("su(2)", "su(2)", "sl(2,R)")
        )
    return RealFormDescriptor(
        fam, "identity", f"D(2,1;{a};0)", ("sl(2,R)", "sl(2,R)", "sl(2,R)")
    )


_F4_LEVEL = {(0, 7): 0, (1, 6): 3, (2, 5): 2, (3, 4): 1}


def _classify_f4(vd: VoganDiagram, fam: FamilyId) -> RealFormDescriptor:
    d = vd.diagram
    # block positions run away from the odd node; the Bourbaki count is reversed
    pos = _chain_position(d, (1, 2, 3), vd.painted, 1)
    p = None if pos is None else 4 - pos
    pair = _minmax(2 * (p or 0), 7 - 2 * (p or 0))
    so = _so_name(7, pair[0], pair[1])
    level = _F4_LEVEL[pair]
    return RealFormDescriptor(
        fam, "identity", f"F(4;{level})", ("sl(2,R)", so)
    )


def _classify_g3(vd: VoganDiagram, fam: FamilyId) -> RealFormDescriptor:
    painted = vd.painted & {1, 2}
    if painted:
        return RealFormDescriptor(fam, "identity", "G(3,1)", ("sl(2,R)", "G2,2"))
    return RealFormDescriptor(fam, "identity", "G(3,0)", ("sl(2,R)", "G2,0"))


def enumerate_real_forms(diagram: Diagram) -> tuple[RealFormDescriptor, ...]:
    """Distinct real forms over all painted diagrams, in first-seen order.

    ``classify`` is constant on flip orbits, so it runs once per orbit, on
    the orbit's first painting in enumeration order.
    """
    seen: dict[str, RealFormDescriptor] = {}
    covered: set[VoganDiagram] = set()
    for vd in enumerate_vogan(diagram):
        if vd in covered:
            continue
        covered.update(flip_orbit(vd))
        desc = classify(vd)
        seen.setdefault(desc.super_name, desc)
    return tuple(seen.values())


# ----------------------------------------------------------------------------
# Reference table: expected real forms per family, with normalized spellings.


@dataclass(frozen=True)
class TableReport:
    family: FamilyId
    complex_name: str
    complex_even: str
    computed: tuple[RealFormDescriptor, ...]
    expected: tuple[tuple[str, tuple[str, ...]], ...]
    missing: tuple[str, ...]
    unexpected: tuple[str, ...]
    even_mismatches: tuple[str, ...]
    notes: tuple[str, ...]

    def clean(self) -> bool:
        return not (self.missing or self.unexpected or self.even_mismatches)


_NOTES = (
    "signature pairs are printed smallest entry first",
    "super names keep zero signature slots; even-part names drop them",
    "quaternionic symplectic slots of signature (0, 2n) are shortened to ;H",
)


def _complex_names(fam: FamilyId) -> tuple[str, str]:
    k, m, n = fam.kind, fam.m, fam.n
    if k == "A":
        M, N = m + 1, n + 1
        if m == n:
            return f"psl({N}|{N})", f"sl({N},C) + sl({N},C)"
        parts = []
        if M > 1:
            parts.append(f"sl({M},C)")
        if N > 1:
            parts.append(f"sl({N},C)")
        parts.append("C")
        return f"sl({M}|{N})", " + ".join(parts)
    if k == "B":
        return f"osp({2 * m + 1}|{2 * n})", f"so({2 * m + 1},C) + sp({2 * n},C)"
    if k == "B0":
        return f"osp(1|{2 * n})", f"sp({2 * n},C)"
    if k == "C":
        return f"osp(2|{2 * n})", f"so(2,C) + sp({2 * n},C)"
    if k == "D":
        return f"osp({2 * m}|{2 * n})", f"so({2 * m},C) + sp({2 * n},C)"
    if k == "D21alpha":
        return f"D(2,1;{fam.alpha})", "sl(2,C) + sl(2,C) + sl(2,C)"
    if k == "F4":
        return "F(4)", "sl(2,C) + so(7,C)"
    if k == "G3":
        return "G(3)", "sl(2,C) + G2(C)"
    raise InvalidFamily(k)  # pragma: no cover


def _expected_rows(fam: FamilyId, diagram: Diagram) -> list[tuple[str, tuple[str, ...]]]:
    from .vogan import automorphisms

    k, m, n = fam.kind, fam.m, fam.n
    rows: list[tuple[str, tuple[str, ...]]] = []

    def add(name: str, evens: tuple[str, ...]) -> None:
        if name not in {r[0] for r in rows}:
            rows.append((name, evens))

    if k == "A":
        M, N = m + 1, n + 1
        if m == n:
            for p in range(M + 1):
                for q in range(N + 1):
                    pairs = sorted([_minmax(p, M - p), _minmax(q, N - q)])
                    add(
                        f"psu({pairs[0][0]},{pairs[0][1]}|{pairs[1][0]},{pairs[1][1]})",
                        tuple(_su_name(M, a) for (a, _) in pairs),
                    )
            if N % 2 == 0:
                add(f"psl({N}|{N};H)", (f"su*({N})",) * 2)
            else:
                add(f"psl({N}|{N};R)", (f"sl({N},R)",) * 2)
        else:
            for p in range(M + 1):
                for q in range(N + 1):
                    pe, pd = _minmax(p, M - p), _minmax(q, N - q)
                    evens = []
                    if M > 1:
                        evens.append(_su_name(M, pe[0]))
                    if N > 1:
                        evens.append(_su_name(N, pd[0]))
                    evens.append("iR")
                    add(f"su({pe[0]},{pe[1]}|{pd[0]},{pd[1]})", tuple(evens))
            evens = []
            if M > 1:
                evens.append(f"sl({M},R)")
            if N > 1:
                evens.append(f"sl({N},R)")
            evens.append("R")
            add(f"sl({M}|{N};R)", tuple(evens))
            if M % 2 == 0 and N % 2 == 0:
                add(f"sl({M}|{N};H)", (f"su*({M})", f"su*({N})", "R"))
    elif k in ("B", "B0"):
        if k == "B0":
            add(f"osp(1|{2 * n};R)", (f"sp({2 * n},R)",))
        else:
            total = 2 * m + 1
            for p in range(m + 1):
                pair = _minmax(2 * p, total - 2 * p)
                add(
                    f"osp({pair[0]},{pair[1]}|{2 * n};R)",
                    (f"sp({2 * n},R)", _so_name(total, pair[0], pair[1])),
                )
    elif k == "C":
        add(f"osp(2|{2 * n};R)", ("so*(2)", f"sp({2 * n},R)"))
        add(f"osp(2|{2 * n};H)", ("so*(2)", f"sp({n})"))
        for q in range(1, n // 2 + 1):
            add(
                f"osp(2|{2 * q},{2 * n - 2 * q};H)",
                ("so*(2)", f"sp({q},{n - q})"),
            )
    elif k == "D":
        total = 2 * m
        r_pairs = [(0, total)]
        if m == 2:
            r_pairs.append((2, 2))
        else:
            for p in range(1, m - 1):
                r_pairs.append(_minmax(2 * p, total - 2 * p))
        for pair in r_pairs:
            add(
                f"osp({pair[0]},{pair[1]}|{2 * n};R)",
                (f"sp({2 * n},R)", _so_name(total, pair[0], pair[1])),
            )
        for p in range(m):
            pair = _minmax(2 * p + 1, total - 2 * p - 1)
            add(
                f"osp({pair[0]},{pair[1]}|{2 * n};R)",
                (f"sp({2 * n},R)", _so_name(total, pair[0], pair[1])),
            )
        add(f"osp({total}|{2 * n};H)", (f"sp({n})", f"so*({total})"))
        for q in range(1, n // 2 + 1):
            add(
                f"osp({total}|{2 * q},{2 * n - 2 * q};H)",
                (f"sp({q},{n - q})", f"so*({total})"),
            )
    elif k == "D21alpha":
        a = fam.alpha
        add(f"D(2,1;{a};1)", ("su(2)", "su(2)", "sl(2,R)"))
        add(f"D(2,1;{a};0)", ("sl(2,R)", "sl(2,R)", "sl(2,R)"))
        if len(automorphisms(diagram)) > 1:
            add(f"D(2,1;{a};2)", ("sl(2,C)", "sl(2,R)"))
    elif k == "F4":
        add("F(4;0)", ("sl(2,R)", "so(7)"))
        add("F(4;3)", ("sl(2,R)", "so(1,6)"))
        add("F(4;2)", ("sl(2,R)", "so(2,5)"))
        add("F(4;1)", ("sl(2,R)", "so(3,4)"))
    elif k == "G3":
        add("G(3,0)", ("sl(2,R)", "G2,0"))
        add("G(3,1)", ("sl(2,R)", "G2,2"))
    return rows


def table_report(diagram: Diagram) -> TableReport:
    fam = diagram.family
    if fam is None:
        raise InvalidFamily("table needs a named family")
    computed = enumerate_real_forms(diagram)
    expected = tuple(_expected_rows(fam, diagram))
    computed_by_name = {d.super_name: d for d in computed}
    expected_names = {name for name, _ in expected}
    missing = tuple(
        name for name, _ in expected if name not in computed_by_name
    )
    unexpected = tuple(
        d.super_name for d in computed if d.super_name not in expected_names
    )
    even_mismatches = tuple(
        name
        for name, evens in expected
        if name in computed_by_name
        and sorted(evens) != sorted(computed_by_name[name].even_parts)
    )
    cx, cx_even = _complex_names(fam)
    return TableReport(
        fam,
        cx,
        cx_even,
        computed,
        expected,
        missing,
        unexpected,
        even_mismatches,
        _NOTES,
    )
