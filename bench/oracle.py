"""Checks made apart from supervogan: closed forms, a name grammar, exact solves.

Nothing here imports supervogan.  The checks read the program's outputs as
plain data (strings, JSON, tuples of ``Fraction`` coordinates) and compare
them with dimensions and counts from the classification literature, or with
properties the method must have.  Each function returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Optional, Sequence


@dataclass(frozen=True)
class Fam:
    """A family as the benchmark names it.

    ``kind`` is one of A, B, C, D, D21, F4, G3.  A(m,n) and D(m,n) keep both
    parameters; B(0,n) is kind B with m = 0; C(k) stores k in ``m``; D(2,1;a)
    stores a in ``alpha``.
    """

    kind: str
    m: int = 0
    n: int = 0
    alpha: Optional[Fraction] = None

    def spec(self) -> str:
        if self.kind in ("A", "B", "D"):
            return f"{self.kind}({self.m},{self.n})"
        if self.kind == "C":
            return f"C({self.m})"
        if self.kind == "D21":
            return f"D(2,1;{self.alpha})"
        return {"F4": "F(4)", "G3": "G(3)"}[self.kind]


# ----------------------------------------------------------------------------
# Closed forms: dimensions, ranks and class counts.


def _so(n: int) -> int:
    return n * (n - 1) // 2


def _sp(n: int) -> int:
    """Dimension of sp(2n)."""
    return n * (2 * n + 1)


def even_dim(f: Fam) -> int:
    """dim g0 of the complex superalgebra."""
    if f.kind == "A":
        big, small = f.m + 1, f.n + 1
        if big == small:
            return 2 * (big * big - 1)
        return (big * big - 1) + (small * small - 1) + 1
    if f.kind == "B":
        return _so(2 * f.m + 1) + _sp(f.n)
    if f.kind == "C":
        return 1 + _sp(f.m - 1)
    if f.kind == "D":
        return _so(2 * f.m) + _sp(f.n)
    return {"D21": 9, "F4": 24, "G3": 17}[f.kind]


def odd_dim(f: Fam) -> int:
    if f.kind == "A":
        return 2 * (f.m + 1) * (f.n + 1)
    if f.kind == "B":
        return (2 * f.m + 1) * 2 * f.n
    if f.kind == "C":
        return 4 * (f.m - 1)
    if f.kind == "D":
        return 2 * f.m * 2 * f.n
    return {"D21": 8, "F4": 16, "G3": 14}[f.kind]


def rank(f: Fam) -> int:
    """Dimension of a Cartan subalgebra (of psl(n|n) for A(n,n))."""
    if f.kind == "A":
        return 2 * f.m if f.m == f.n else f.m + f.n + 1
    if f.kind in ("B", "D"):
        return f.m + f.n
    if f.kind == "C":
        return f.m
    return {"D21": 3, "F4": 4, "G3": 3}[f.kind]


SWAP_ALPHAS = (Fraction(1), Fraction(-2), Fraction(-1, 2))


def class_count(f: Fam) -> int:
    """Number of real forms the involutions of the distinguished diagram reach."""
    if f.kind == "A":
        if f.m != f.n:
            raise ValueError("A(m,n) with m != n has no complete table")
        k = (f.n + 1) // 2 + 1
        return k * (k + 1) // 2 + 1
    if f.kind == "B":
        return 1 if f.m == 0 else f.m + 1
    if f.kind == "C":
        return (f.m - 1) // 2 + 2
    if f.kind == "D":
        return f.m + 2 + f.n // 2
    if f.kind == "D21":
        return 3 if f.alpha in SWAP_ALPHAS else 2
    return {"F4": 4, "G3": 2}[f.kind]


# ----------------------------------------------------------------------------
# The grammar of even-part names and their real dimensions.

_NAME = re.compile(
    r"^(?:(?P<head>su\*|so\*|su|so|sp|sl)\((?P<args>[0-9]+(?:,(?:[0-9]+|R|C))?)\)"
    r"|(?P<g2>G2,[02])|(?P<line>iR|R))$"
)


def name_dim(name: str) -> int:
    """Real dimension of a real form named in the package's grammar.

    Raises ValueError for a name outside the grammar.
    """
    match = _NAME.match(name)
    if match is None:
        raise ValueError(f"not a real-form name: {name!r}")
    if match.group("g2"):
        return 14
    if match.group("line"):
        return 1
    head = match.group("head")
    first, _, second = match.group("args").partition(",")
    a = int(first)
    if second in ("R", "C"):
        if head == "sl":
            dim = a * a - 1
            return 2 * dim if second == "C" else dim
        if head == "sp" and second == "R" and a % 2 == 0:
            return _sp(a // 2)
        raise ValueError(f"not a real-form name: {name!r}")
    total = a + int(second) if second else a
    if head in ("su", "su*"):
        if head == "su*" and (second or total % 2):
            raise ValueError(f"not a real-form name: {name!r}")
        return total * total - 1
    if head in ("so", "so*"):
        if head == "so*" and (second or total % 2):
            raise ValueError(f"not a real-form name: {name!r}")
        return _so(total)
    if head == "sp":
        return _sp(total)
    raise ValueError(f"not a real-form name: {name!r}")


def check_even_parts(f: Fam, parts: Sequence[str], where: str) -> list[str]:
    """The real dimensions of the even-part names add up to dim g0."""
    try:
        total = sum(name_dim(p) for p in parts)
    except ValueError as exc:
        return [f"{where}: {exc}"]
    want = even_dim(f)
    if total != want:
        return [f"{where}: even parts {list(parts)} have dimension {total}, dim g0 is {want}"]
    return []


def check_table(f: Fam, doc: dict) -> list[str]:
    """A ``table --format json`` reply: one row per reachable form, dims add up."""
    where = f"table {f.spec()}"
    problems = []
    if doc.get("family") != f.spec():
        problems.append(f"{where}: reply names family {doc.get('family')!r}")
    if doc.get("clean") is not True:
        problems.append(f"{where}: table is not clean")
    names = [row["name"] for row in doc.get("computed", [])]
    if len(set(names)) != len(names):
        problems.append(f"{where}: repeated real forms {names}")
    want = class_count(f)
    if len(names) != want:
        problems.append(f"{where}: {len(names)} real forms, the closed form gives {want}")
    for row in doc.get("computed", []):
        problems += check_even_parts(f, row["even_parts"], f"{where} {row['name']}")
    return problems


# ----------------------------------------------------------------------------
# Root systems, from coordinates alone.

Vector = tuple  # of Fraction


def inner(a_e: Vector, a_d: Vector, b_e: Vector, b_d: Vector) -> Fraction:
    """The split form: +1 on e-coordinates, -1 on d-coordinates."""
    return sum((x * y for x, y in zip(a_e, b_e)), Fraction(0)) - sum(
        (x * y for x, y in zip(a_d, b_d)), Fraction(0)
    )


@lru_cache(maxsize=None)
def _solve(columns: tuple, target: Vector) -> Optional[tuple]:
    """The unique x with sum x_j columns_j = target, or None if there is none
    or it is not unique.  Cached: the root checks and the parity oracle solve
    for the same roots."""
    rows = len(target)
    width = len(columns)
    aug = [[Fraction(columns[j][r]) for j in range(width)] + [Fraction(target[r])] for r in range(rows)]
    r = 0
    for c in range(width):
        p = next((k for k in range(r, rows) if aug[k][c] != 0), None)
        if p is None:
            return None
        aug[r], aug[p] = aug[p], aug[r]
        lead = aug[r][c]
        aug[r] = [x / lead for x in aug[r]]
        for k in range(rows):
            if k != r and aug[k][c] != 0:
                factor = aug[k][c]
                aug[k] = [x - factor * y for x, y in zip(aug[k], aug[r])]
        r += 1
    if any(aug[k][width] != 0 for k in range(r, rows)):
        return None
    return tuple(aug[i][width] for i in range(width))


def independent(columns: Sequence[Vector]) -> bool:
    return _solve(tuple(columns), tuple(Fraction(0) for _ in columns[0])) is not None


def integral_expansions(simple: Sequence[Vector], v: Vector) -> list[list[Fraction]]:
    """Expansions of ``v`` over the simple roots, with every coefficient an
    integer of one sign.

    When the simple roots are dependent (the four-node star of D(2,1;a)),
    each largest independent subset is tried, the other nodes getting 0.
    """
    size = len(simple)
    for width in range(size, 0, -1):
        subsets = [
            keep
            for keep in combinations(range(size), width)
            if independent([simple[i] for i in keep])
        ]
        if not subsets:
            continue
        found = []
        for keep in subsets:
            x = _solve(tuple(simple[i] for i in keep), tuple(v))
            if x is None:
                continue
            coeffs = [Fraction(0)] * size
            for i, c in zip(keep, x):
                coeffs[i] = c
            if all(c.denominator == 1 for c in coeffs) and (
                all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)
            ):
                found.append(coeffs)
        return found
    return []


def check_roots(
    f: Fam,
    simple: Sequence[Vector],
    even: Sequence[Vector],
    odd: Sequence[Vector],
) -> list[str]:
    """rank + 2(#even + #odd) = dim g, and every even root is an integral
    one-signed combination of the simple roots.  Vectors are full coordinate
    tuples (e-part then d-part)."""
    where = f"roots {f.spec()}"
    problems = []
    total = rank(f) + 2 * (len(even) + len(odd))
    want = even_dim(f) + odd_dim(f)
    if total != want:
        problems.append(f"{where}: rank + 2(#even + #odd) = {total}, dim g is {want}")
    if len(set(even)) != len(even) or len(set(odd)) != len(odd):
        problems.append(f"{where}: repeated roots")
    for v in even:
        if not integral_expansions(simple, v):
            problems.append(f"{where}: even root {v} is no integral one-signed sum of simple roots")
    return problems


def expansion(simple: Sequence[Vector], v: Vector) -> Optional[tuple]:
    """The unique expansion of ``v`` over linearly independent simple roots."""
    return _solve(tuple(simple), tuple(v))


def parity(coeffs: Sequence[Fraction], painted) -> int:
    """Noncompactness of a root: its painted coefficients summed, mod 2."""
    return int(sum(coeffs[i] for i in painted)) % 2


# ----------------------------------------------------------------------------
# Paintings and flip trails.


def even_blocks(kinds: Sequence[str], simple_e: Sequence[Vector], simple_d: Sequence[Vector]) -> list[set[int]]:
    """Connected components of the even nodes, joined when their roots are
    not orthogonal."""
    even = [i for i, k in enumerate(kinds) if k == "even"]
    blocks: list[set[int]] = []
    for i in even:
        touching = [
            b
            for b in blocks
            if any(inner(simple_e[i], simple_d[i], simple_e[j], simple_d[j]) != 0 for j in b)
        ]
        merged = {i}.union(*touching) if touching else {i}
        blocks = [b for b in blocks if b not in touching] + [merged]
    return blocks


def check_reduced(blocks: Sequence[set[int]], painted, where: str) -> list[str]:
    """A reduced painting has at most one painted node per even block."""
    return [
        f"{where}: block {sorted(b)} keeps {len(b & set(painted))} painted nodes"
        for b in blocks
        if len(b & set(painted)) > 1
    ]


# ----------------------------------------------------------------------------
# The ascii replies of the CLI.


def ascii_field(reply: str, prefix: str) -> Optional[str]:
    """The rest of the first line that starts with ``prefix``."""
    for line in reply.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def painted_list(text: str) -> list[int]:
    """``[1,3]`` as 0-based node indices."""
    inner_text = text.strip()[1:-1]
    return [int(x) - 1 for x in inner_text.split(",") if x]


def flip_orbit_sizes(
    kinds: Sequence[str],
    simple_e: Sequence[Vector],
    simple_d: Sequence[Vector],
    fixed: Sequence[int],
    paintings: Sequence,
) -> list[int]:
    """The size of each painting's flip orbit, from the flip rule alone.

    A flip at a painted node toggles the fixed even nodes whose Cartan entry
    in its row, 2<a_at, a_j>/<a_at, a_at>, is an odd integer.  Used to draw
    samples with the same spread of orbit sizes, and so of cost, on every
    seed.
    """
    fixed_even = [i for i in fixed if kinds[i] == "even"]
    masks = {}
    for at in fixed_even:
        norm = inner(simple_e[at], simple_d[at], simple_e[at], simple_d[at])
        mask = 0
        for j in fixed_even:
            entry = 2 * inner(simple_e[at], simple_d[at], simple_e[j], simple_d[j]) / norm
            if j != at and entry.denominator == 1 and entry.numerator % 2:
                mask |= 1 << j
        masks[at] = mask
    size_of: dict[int, int] = {}
    out = []
    for painted in paintings:
        start = sum(1 << i for i in painted)
        if start not in size_of:
            orbit = {start}
            frontier = [start]
            while frontier:
                cur = frontier.pop()
                for at in fixed_even:
                    if cur >> at & 1:
                        nxt = cur ^ masks[at]
                        if nxt not in orbit:
                            orbit.add(nxt)
                            frontier.append(nxt)
            for member in orbit:
                size_of[member] = len(orbit)
        out.append(size_of[start])
    return out
