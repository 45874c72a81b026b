"""Naming the real form determined by a painted diagram.

Each side of g0 is read off the epsilon half of the even blocks, where the
invariant form is positive, or the delta half, where it is negative
(``_halves``), and driven to its canonical painting by
``canonical_block_painting``, the reduction's own choice of one painted
vertex per painted block; that vertex's position along its block is then
named by ``_side``, the one dictionary of su, so, sp and G2 forms.
``classify`` looks up the family's namer and builds the one descriptor; a
namer that reads a position computes the canonical painting once per call
and reads every side off it, and the namers of B(0,n), D(2,1;alpha) and the
A(n,n) reversal, which read no position, never compute it.
``enumerate_real_forms`` hands the same namers each orbit's canonical
painting, which ``vogan._orbit_keys`` reads off each block's classes of
single vertices, one per block orbit, counted in closed form by
``vogan._block_targets`` (Kac, *Infinite-Dimensional Lie Algebras*, ch.
8); it computes none and walks no orbit, so a cold table builds no flip
kernel.

The symplectic side of B(m,n), B(0,n) and D(m,n) is the delta chain plus
the long root 2 delta_n, which no diagram node carries.  No flip toggles
that superimposed root: the Cartan entry from the chain's end to it is -2,
which is even.  So its paint is constant on the flip orbit, and the
orthogonal side forces it.  Painted, the side is sp(2n,R) and no orbit
walk is needed; unpainted, the chain's canonical vertex gives sp(q,n-q).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

from .algebra import Diagram, FamilyId, even_blocks, gram_record, stored
from .errors import InvalidFamily
from .vogan import (
    VoganDiagram,
    _made,
    _orbit_keys,
    automorphisms,
    canonical_block_painting,
    check_vogan,
)

Pair = Optional[tuple[int, int]]
# a namer's answer: the super name and the even parts
_Name = tuple[str, tuple[str, ...]]
_Halves = namedtuple("Halves", "eps delta")


@dataclass(frozen=True)
class RealFormDescriptor:
    family: FamilyId
    involution: str
    super_name: str
    even_parts: tuple[str, ...]

    def even_display(self) -> str:
        return " + ".join(self.even_parts)


# ----------------------------------------------------------------------------
# The side namer.  Signatures are printed smallest first; compact forms drop
# the zero slot, while super names keep zeros for a uniform shape.


def _side(kind: str, size: int, pos: Optional[int]) -> tuple[Pair, str]:
    """Signature pair and even-part name of one side of the even part.

    ``kind`` is "su", "so", "so'" (so(2m) under the outer swap of its D_m
    block), "sp" or "G2"; ``size`` is the n of su(n), so(n) or sp(n).
    ``pos`` is the side's canonical painted vertex, 1-based along its chain,
    or None when the side is unpainted: for sp(n), n is the long root; for
    so(2m), m-1 and m are the prongs.  The pair is None when the name has no
    signature: so*(2m), sp(2n,R) and G2.
    """
    p = pos or 0
    if kind == "G2":
        return None, "G2,0" if pos is None else "G2,2"
    if kind == "sp":
        if pos == size:
            return None, f"sp({2 * size},R)"
        q = min(p, size - p)
        return (q, size - q), f"sp({size})" if q == 0 else f"sp({q},{size - q})"
    if kind == "so" and size % 2 == 0 and p >= max(size // 2 - 1, 2):
        return None, f"so*({size})"
    negative = {"su": p, "so": 2 * p, "so'": 2 * p + 1}[kind]
    a, b = sorted((negative, size - negative))
    group = kind.rstrip("'")
    return (a, b), f"{group}({size})" if a == 0 else f"{group}({a},{b})"


def _osp(so_size: int, so_pair: Pair, n: int, sp_pair: Pair) -> str:
    """Super name osp(so|sp;R) or osp(so|sp;H) of the sides so(so_size) and
    sp(n); an orthogonal side without a pair prints its size alone, and a
    symplectic side without one, sp(2n,R), makes the form real."""
    left = str(so_size) if so_pair is None else f"{so_pair[0]},{so_pair[1]}"
    if sp_pair is None:
        return f"osp({left}|{2 * n};R)"
    if sp_pair[0] == 0:
        return f"osp({left}|{2 * n};H)"
    return f"osp({left}|{2 * sp_pair[0]},{2 * sp_pair[1]};H)"


@stored
def _halves(diagram: Diagram) -> _Halves:
    """The even blocks of positive norm (the epsilon half of g0) and those of
    negative norm (the delta half), each in node order."""
    rows, blocks = gram_record(diagram).rows, even_blocks(diagram)
    return _Halves(
        tuple(b for b in blocks if rows[b[0]][b[0]] > 0),
        tuple(b for b in blocks if rows[b[0]][b[0]] < 0),
    )


def _chain_position(canon: frozenset[int], half: tuple[tuple[int, ...], ...]) -> Optional[int]:
    """Canonical painted vertex of a half's one block, as a 1-based position
    along the block, read off the canonical painting ``canon``.  A half with
    no block (a side of rank one) has no position.
    """
    if not half:
        return None
    (block,) = half
    return next((k for k, i in enumerate(block, 1) if i in canon), None)


# ----------------------------------------------------------------------------
# Family-level classification: which half holds each side, and the family's
# spelling of the super name.


def classify(vd: VoganDiagram) -> RealFormDescriptor:
    """Real form named by a painted diagram; constant on flip orbits."""
    check_vogan(vd)
    fam = vd.diagram.family
    super_name, even_parts = _NAMERS[fam.kind](vd, fam, False)
    return RealFormDescriptor(fam, vd.involution.name, super_name, even_parts)


def _canon(vd: VoganDiagram, canonical: bool) -> frozenset[int]:
    """The canonical painting of ``vd``'s flip orbit: ``vd``'s own painting
    when the namer's caller says it is ``canonical``."""
    return vd.painted if canonical else canonical_block_painting(vd)


# Each namer takes (vd, fam, canonical): a painting, its family, and
# whether the painting is already its orbit's canonical painting.


def _name_a(vd: VoganDiagram, fam: FamilyId, canonical: bool) -> _Name:
    m, n = fam.m, fam.n
    M, N = m + 1, n + 1
    if vd.involution.name == "reversal":
        if N % 2 == 0:
            return f"psl({N}|{N};H)", (f"su*({N})", f"su*({N})")
        return f"psl({N}|{N};R)", (f"sl({N},R)", f"sl({N},R)")
    canon, (eps, delta) = _canon(vd, canonical), _halves(vd.diagram)
    e = _side("su", M, _chain_position(canon, eps))
    f = _side("su", N, _chain_position(canon, delta))
    if m == n:
        (pe, name_e), (pf, name_f) = sorted([e, f])
        return f"psu({pe[0]},{pe[1]}|{pf[0]},{pf[1]})", (name_e, name_f)
    (pe, name_e), (pf, name_f) = e, f
    evens = [name for size, name in ((M, name_e), (N, name_f)) if size > 1] + ["iR"]
    return f"su({pe[0]},{pe[1]}|{pf[0]},{pf[1]})", tuple(evens)


def _name_c(vd: VoganDiagram, fam: FamilyId, canonical: bool) -> _Name:
    n = fam.n
    pos = _chain_position(_canon(vd, canonical), _halves(vd.diagram).delta)
    sp_pair, sp = _side("sp", n, pos)
    return _osp(2, None, n, sp_pair), ("so*(2)", sp)


def _name_osp(vd: VoganDiagram, fam: FamilyId, canonical: bool) -> _Name:
    """B(m,n), B(0,n) and D(m,n): the orthogonal side so(2m+1) or so(2m) on
    the epsilon half, and the symplectic side sp(n), the delta chain plus 2
    delta_n.  B(0,n) has no orthogonal side: its so(1) is left out, and
    2 delta_n is always painted, so it has one form."""
    m, n = fam.m, fam.n
    if fam.kind == "B0":
        sp_pair, sp = _side("sp", n, n)
        return _osp(1, None, n, sp_pair), (sp,)
    canon, (eps, delta) = _canon(vd, canonical), _halves(vd.diagram)
    size = 2 * m if fam.kind == "D" else 2 * m + 1
    if vd.involution.name == "swap":
        # the swap fixes no prong, and D2 = A1 + A1 is its two prongs alone
        so_pair, so = _side("so'", size, _chain_position(canon, eps) if len(eps) == 1 else None)
    elif len(eps) == 2:
        # D2 = A1 + A1 has no chain.  One painted node is a prong, so*(4);
        # both painted give so(2,2), the form of chain position 1 in every D_m
        count = sum(i in vd.painted for (i,) in eps)
        so_pair, so = _side("so", 4, {0: None, 1: 2, 2: 1}[count])
    else:
        so_pair, so = _side("so", size, _chain_position(canon, eps))
    # 2 delta_n is painted unless the orthogonal side is so*(2m), the one
    # orthogonal side without a signature pair
    sp_pair, sp = _side("sp", n, n if so_pair else _chain_position(canon, delta))
    return _osp(size, so_pair, n, sp_pair), (sp, so)


def _name_d21(vd: VoganDiagram, fam: FamilyId, canonical: bool) -> _Name:
    a = fam.alpha
    if vd.involution.name == "swap":
        return f"D(2,1;{a};2)", ("sl(2,C)", "sl(2,R)")
    if len(vd.painted) <= 1:
        return f"D(2,1;{a};1)", ("su(2)", "su(2)", "sl(2,R)")
    return f"D(2,1;{a};0)", ("sl(2,R)", "sl(2,R)", "sl(2,R)")


_F4_LEVEL = {(0, 7): 0, (1, 6): 3, (2, 5): 2, (3, 4): 1}


def _name_f4(vd: VoganDiagram, fam: FamilyId, canonical: bool) -> _Name:
    # block positions run away from the odd node; the Bourbaki count is reversed
    pos = _chain_position(_canon(vd, canonical), _halves(vd.diagram).eps)
    pair, so = _side("so", 7, None if pos is None else 4 - pos)
    # g1 = C^2 (x) S is of real type, so C^2 has the type of the spinor S of
    # so(p,q): real, sl(2,R), for p - q = +-1 mod 8; quaternionic, su(2), for +-3
    sl2 = "sl(2,R)" if (pair[1] - pair[0]) % 8 in (1, 7) else "su(2)"
    return f"F(4;{_F4_LEVEL[pair]})", (sl2, so)


def _name_g3(vd: VoganDiagram, fam: FamilyId, canonical: bool) -> _Name:
    pos = _chain_position(_canon(vd, canonical), _halves(vd.diagram).eps)
    return f"G(3,{0 if pos is None else 1})", ("sl(2,R)", _side("G2", 2, pos)[1])


_NAMERS = {
    "A": _name_a,
    "B": _name_osp,
    "B0": _name_osp,
    "C": _name_c,
    "D": _name_osp,
    "D21alpha": _name_d21,
    "F4": _name_f4,
    "G3": _name_g3,
}


def enumerate_real_forms(diagram: Diagram) -> tuple[RealFormDescriptor, ...]:
    """Distinct real forms over all painted diagrams, in first-seen order.

    The name is constant on flip orbits, so each orbit is named once, in
    enumeration order of its first painting, from the canonical painting
    ``vogan._orbit_keys`` lists with it, by the namer ``classify`` uses; a
    descriptor is built only for a new name.
    """
    orbits = _orbit_keys(diagram)  # first: a non-Diagram raises BadIndex
    fam = diagram.family
    namer = _NAMERS[fam.kind]
    seen: dict[str, RealFormDescriptor] = {}
    for inv, _, canon in orbits:
        super_name, even_parts = namer(_made(diagram, inv, canon), fam, True)
        if super_name not in seen:
            seen[super_name] = RealFormDescriptor(fam, inv.name, super_name, even_parts)
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
    """Reference rows, spelled here with their own signature arithmetic and
    f-strings.  They share no code with the namer ``classify`` uses, so
    ``table`` checks that namer rather than repeating it."""
    k, m, n = fam.kind, fam.m, fam.n
    rows: list[tuple[str, tuple[str, ...]]] = []

    def add(name: str, evens: tuple[str, ...]) -> None:
        if name not in {r[0] for r in rows}:
            rows.append((name, evens))

    if k == "A":
        M, N = m + 1, n + 1
        # su(p,M-p) with its smaller slot first: p runs up to M/2
        for p in range(M // 2 + 1):
            for q in range(N // 2 + 1):
                su_m = f"su({M})" if p == 0 else f"su({p},{M - p})"
                su_n = f"su({N})" if q == 0 else f"su({q},{N - q})"
                if m == n:
                    (a, su_a), (b, su_b) = sorted([(p, su_m), (q, su_n)])
                    add(f"psu({a},{M - a}|{b},{N - b})", (su_a, su_b))
                else:
                    evens = ([su_m] if M > 1 else []) + ([su_n] if N > 1 else [])
                    add(f"su({p},{M - p}|{q},{N - q})", tuple(evens + ["iR"]))
        if m == n:
            if N % 2 == 0:
                add(f"psl({N}|{N};H)", (f"su*({N})",) * 2)
            else:
                add(f"psl({N}|{N};R)", (f"sl({N},R)",) * 2)
        else:
            evens = []
            if M > 1:
                evens.append(f"sl({M},R)")
            if N > 1:
                evens.append(f"sl({N},R)")
            evens.append("R")
            add(f"sl({M}|{N};R)", tuple(evens))
            if M % 2 == 0 and N % 2 == 0:
                add(f"sl({M}|{N};H)", (f"su*({M})", f"su*({N})", "R"))
    elif k == "B0":
        add(f"osp(1|{2 * n};R)", (f"sp({2 * n},R)",))
    elif k in ("B", "D"):
        total = 2 * m + 1 if k == "B" else 2 * m
        # so(x,total-x): x = 2p for an inner form; D adds the outer forms
        # x = 2p+1 and stops the inner ones before the prongs (D2: x = 2)
        if k == "B":
            xs = [2 * p for p in range(m + 1)]
        else:
            xs = [0] + ([2] if m == 2 else [2 * p for p in range(1, m - 1)])
            xs += [2 * p + 1 for p in range(m)]
        for x in xs:
            a, b = sorted((x, total - x))
            so = f"so({total})" if a == 0 else f"so({a},{b})"
            add(f"osp({a},{b}|{2 * n};R)", (f"sp({2 * n},R)", so))
        if k == "D":
            add(f"osp({total}|{2 * n};H)", (f"sp({n})", f"so*({total})"))
            for q in range(1, n // 2 + 1):
                add(
                    f"osp({total}|{2 * q},{2 * n - 2 * q};H)",
                    (f"sp({q},{n - q})", f"so*({total})"),
                )
    elif k == "C":
        add(f"osp(2|{2 * n};R)", ("so*(2)", f"sp({2 * n},R)"))
        add(f"osp(2|{2 * n};H)", ("so*(2)", f"sp({n})"))
        for q in range(1, n // 2 + 1):
            add(
                f"osp(2|{2 * q},{2 * n - 2 * q};H)",
                ("so*(2)", f"sp({q},{n - q})"),
            )
    elif k == "D21alpha":
        a = fam.alpha
        add(f"D(2,1;{a};1)", ("su(2)", "su(2)", "sl(2,R)"))
        add(f"D(2,1;{a};0)", ("sl(2,R)", "sl(2,R)", "sl(2,R)"))
        if len(automorphisms(diagram)) > 1:
            add(f"D(2,1;{a};2)", ("sl(2,C)", "sl(2,R)"))
    elif k == "F4":
        add("F(4;0)", ("sl(2,R)", "so(7)"))
        add("F(4;3)", ("su(2)", "so(1,6)"))
        add("F(4;2)", ("su(2)", "so(2,5)"))
        add("F(4;1)", ("sl(2,R)", "so(3,4)"))
    elif k == "G3":
        add("G(3,0)", ("sl(2,R)", "G2,0"))
        add("G(3,1)", ("sl(2,R)", "G2,2"))
    return rows


def table_report(diagram: Diagram) -> TableReport:
    computed = enumerate_real_forms(diagram)
    fam = diagram.family
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
