"""Distinguished root data for the basic classical families.

Every quantity is exact: weights live in a split coordinate space with
inner product ``<e_i, e_j> = delta_ij``, ``<d_i, d_j> = -delta_ij`` and all
coordinates are ``fractions.Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .errors import (
    InvalidFamily,
    InvariantViolation,
    NotAnEvenRoot,
    SingularBlock,
    SingularNormalization,
)
from .linalg import Matrix, Q, invert, solve_exact

# Node kinds, also used verbatim in the JSON document schema.
EVEN = "even"
ODD_ISO = "odd_isotropic"
ODD_NONISO = "odd_nonisotropic"


@dataclass(frozen=True, order=True)
class WeightVector:
    """Vector in the split weight space; e-coordinates carry +1, d-coordinates -1."""

    e_part: tuple[Fraction, ...]
    d_part: tuple[Fraction, ...]

    def __add__(self, other: "WeightVector") -> "WeightVector":
        return WeightVector(
            tuple(a + b for a, b in zip(self.e_part, other.e_part)),
            tuple(a + b for a, b in zip(self.d_part, other.d_part)),
        )

    def __sub__(self, other: "WeightVector") -> "WeightVector":
        return WeightVector(
            tuple(a - b for a, b in zip(self.e_part, other.e_part)),
            tuple(a - b for a, b in zip(self.d_part, other.d_part)),
        )

    def __neg__(self) -> "WeightVector":
        return WeightVector(
            tuple(-a for a in self.e_part),
            tuple(-a for a in self.d_part),
        )

    def scale(self, c: Fraction) -> "WeightVector":
        return WeightVector(
            tuple(c * a for a in self.e_part),
            tuple(c * a for a in self.d_part),
        )

    def inner(self, other: "WeightVector") -> Fraction:
        pos = sum((a * b for a, b in zip(self.e_part, other.e_part)), Q(0))
        neg = sum((a * b for a, b in zip(self.d_part, other.d_part)), Q(0))
        return pos - neg

    def is_zero(self) -> bool:
        return not any(self.e_part) and not any(self.d_part)

    def coords(self) -> tuple[Fraction, ...]:
        return self.e_part + self.d_part


def weight(e_part: Sequence, d_part: Sequence) -> WeightVector:
    """Coerce raw number sequences into an exact WeightVector."""
    return WeightVector(
        tuple(Q(x) for x in e_part),
        tuple(Q(x) for x in d_part),
    )


@dataclass(frozen=True, order=True)
class FamilyId:
    """Family tag plus parameters; ``alpha`` only for kind ``D21alpha``.

    Parameters that the kind determines are normalized away so equal families
    compare equal however they were constructed.
    """

    kind: str
    m: int = 0
    n: int = 0
    alpha: Optional[Fraction] = None

    def __post_init__(self):
        if self.kind == "D21alpha":
            object.__setattr__(self, "m", 2)
            object.__setattr__(self, "n", 1)
            if self.alpha is not None and not isinstance(self.alpha, Fraction):
                object.__setattr__(self, "alpha", Fraction(self.alpha))
        elif self.kind in ("F4", "G3"):
            object.__setattr__(self, "m", 0)
            object.__setattr__(self, "n", 0)
        elif self.kind == "B0":
            object.__setattr__(self, "m", 0)

    def display(self) -> str:
        if self.kind == "A":
            return f"A({self.m},{self.n})"
        if self.kind == "B":
            return f"B({self.m},{self.n})"
        if self.kind == "B0":
            return f"B(0,{self.n})"
        if self.kind == "C":
            return f"C({self.n + 1})"
        if self.kind == "D":
            return f"D({self.m},{self.n})"
        if self.kind == "D21alpha":
            return f"D(2,1;{self.alpha})"
        if self.kind == "F4":
            return "F(4)"
        if self.kind == "G3":
            return "G(3)"
        raise InvalidFamily(f"unknown family kind {self.kind!r}")


def validate_family(fam: FamilyId) -> None:
    """Raise InvalidFamily unless ``fam`` names a member of the eight families."""
    k = fam.kind
    if k == "A":
        if fam.m < 0 or fam.n < 0 or fam.m + fam.n < 1:
            raise InvalidFamily(f"A(m,n) needs m,n >= 0 and m+n >= 1, got {fam.display()}")
    elif k == "B":
        if fam.m < 1 or fam.n < 1:
            raise InvalidFamily(f"B(m,n) needs m >= 1 and n >= 1, got {fam.display()}")
    elif k == "B0":
        if fam.m != 0 or fam.n < 1:
            raise InvalidFamily(f"B(0,n) needs n >= 1, got {fam.display()}")
    elif k == "C":
        if fam.n < 1:
            raise InvalidFamily("C(k) needs k >= 2")
    elif k == "D":
        if fam.m < 2 or fam.n < 1:
            raise InvalidFamily(f"D(m,n) needs m >= 2 and n >= 1, got {fam.display()}")
    elif k == "D21alpha":
        if fam.alpha is None or fam.alpha in (0, -1):
            raise InvalidFamily("D(2,1;alpha) needs alpha outside {0, -1}")
    elif k in ("F4", "G3"):
        pass
    else:
        raise InvalidFamily(f"unknown family kind {k!r}")


def node_count(fam: FamilyId) -> int:
    """Number of nodes of ``fam``'s distinguished diagram, without building it."""
    return {
        "A": fam.m + fam.n + 1,
        "B": fam.m + fam.n,
        "B0": fam.n,
        "C": fam.n + 1,
        "D": fam.m + fam.n,
        "D21alpha": 4,
        "F4": 4,
        "G3": 3,
    }[fam.kind]


@dataclass(frozen=True, order=True)
class Node:
    index: int
    root: WeightVector
    kind: str  # EVEN / ODD_ISO / ODD_NONISO


@dataclass(frozen=True)
class Diagram:
    """Decorated simple system.  ``family`` is None for synthetic block diagrams."""

    nodes: tuple[Node, ...]
    family: Optional[FamilyId] = None

    def __hash__(self) -> int:
        # Diagrams key every cache; hash the nested Fraction tuples only once.
        try:
            return self._hash
        except AttributeError:
            h = hash((self.nodes, self.family))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self):
        # str hashes differ between processes: never carry the cached one
        return {"nodes": self.nodes, "family": self.family}

    def __len__(self) -> int:
        return len(self.nodes)

    def root(self, i: int) -> WeightVector:
        return self.nodes[i].root

    def even_indices(self) -> tuple[int, ...]:
        return tuple(n.index for n in self.nodes if n.kind == EVEN)

    def odd_indices(self) -> tuple[int, ...]:
        return tuple(n.index for n in self.nodes if n.kind != EVEN)


@lru_cache(maxsize=None)
def gram_matrix(diagram: Diagram) -> tuple[tuple[Fraction, ...], ...]:
    rows = []
    for a in diagram.nodes:
        rows.append(tuple(a.root.inner(b.root) for b in diagram.nodes))
    return tuple(rows)


@lru_cache(maxsize=None)
def adjacency(diagram: Diagram) -> tuple[tuple[int, ...], ...]:
    """Neighbour lists: i ~ j iff the simple roots are non-orthogonal."""
    g = gram_matrix(diagram)
    size = len(diagram)
    return tuple(
        tuple(j for j in range(size) if j != i and g[i][j] != 0) for i in range(size)
    )


# ----------------------------------------------------------------------------
# Construction of the eight families.


def _chain(count: int, use_d: bool, e_dim: int, d_dim: int):
    """Difference chain x_1 - x_2, x_2 - x_3, ... with ``count`` members."""
    out = []
    for i in range(count):
        e = [Q(0)] * e_dim
        d = [Q(0)] * d_dim
        tgt = d if use_d else e
        tgt[i] = Q(1)
        tgt[i + 1] = Q(-1)
        out.append(WeightVector(tuple(e), tuple(d)))
    return out


def _unit(pos: int, use_d: bool, e_dim: int, d_dim: int, value=1) -> WeightVector:
    e = [Q(0)] * e_dim
    d = [Q(0)] * d_dim
    (d if use_d else e)[pos] = Q(value)
    return WeightVector(tuple(e), tuple(d))


def build_diagram(fam: FamilyId) -> Diagram:
    """Distinguished simple system of ``fam`` with exactly one odd node."""
    validate_family(fam)
    k, m, n = fam.kind, fam.m, fam.n
    nodes: list[Node] = []

    def add(root: WeightVector, kind: str) -> None:
        nodes.append(Node(len(nodes), root, kind))

    if k == "A":
        ed, dd = m + 1, n + 1
        for r in _chain(m, False, ed, dd):
            add(r, EVEN)
        add(_unit(m, False, ed, dd) - _unit(0, True, ed, dd), ODD_ISO)
        for r in _chain(n, True, ed, dd):
            add(r, EVEN)
    elif k == "B":
        ed, dd = m, n
        for r in _chain(n - 1, True, ed, dd):
            add(r, EVEN)
        add(_unit(n - 1, True, ed, dd) - _unit(0, False, ed, dd), ODD_ISO)
        for r in _chain(m - 1, False, ed, dd):
            add(r, EVEN)
        add(_unit(m - 1, False, ed, dd), EVEN)
    elif k == "B0":
        ed, dd = 0, n
        for r in _chain(n - 1, True, ed, dd):
            add(r, EVEN)
        add(_unit(n - 1, True, ed, dd), ODD_NONISO)
    elif k == "C":
        ed, dd = 1, n
        add(_unit(0, False, ed, dd) - _unit(0, True, ed, dd), ODD_ISO)
        for r in _chain(n - 1, True, ed, dd):
            add(r, EVEN)
        add(_unit(n - 1, True, ed, dd, 2), EVEN)
    elif k == "D":
        ed, dd = m, n
        for r in _chain(n - 1, True, ed, dd):
            add(r, EVEN)
        add(_unit(n - 1, True, ed, dd) - _unit(0, False, ed, dd), ODD_ISO)
        for r in _chain(m - 2, False, ed, dd):
            add(r, EVEN)
        add(_unit(m - 2, False, ed, dd) - _unit(m - 1, False, ed, dd), EVEN)
        add(_unit(m - 2, False, ed, dd) + _unit(m - 1, False, ed, dd), EVEN)
    elif k == "D21alpha":
        a = fam.alpha
        eps1, eps2, eps3 = _d21_epsilons(a)
        sign = Q(1) if 1 + a > 0 else Q(-1)
        add(eps1.scale(2 * sign), EVEN)
        add(eps1 - eps2 - eps3, ODD_ISO)
        add(eps2.scale(Q(2)), EVEN)
        add(eps3.scale(Q(2)), EVEN)
    elif k == "F4":
        ed, dd = 3, 3
        delta = weight((0, 0, 0), (1, 1, 1))
        e1, e2, e3 = (_unit(i, False, ed, dd) for i in range(3))
        add((delta - e1 - e2 - e3).scale(Q(1, 2)), ODD_ISO)
        add(e3, EVEN)
        add(e2 - e3, EVEN)
        add(e1 - e2, EVEN)
    elif k == "G3":
        ed, dd = 3, 2
        delta = weight((0, 0, 0), (1, 1))
        e1, e2, e3 = (_unit(i, False, ed, dd) for i in range(3))
        add(delta + e2 - e3, ODD_ISO)
        add(e1 - e2, EVEN)
        add(e2 + e3 - e1.scale(Q(2)), EVEN)
    else:  # pragma: no cover - validate_family already rejects
        raise InvalidFamily(k)

    return Diagram(tuple(nodes), fam)


def _d21_epsilons(a: Fraction) -> tuple[WeightVector, WeightVector, WeightVector]:
    """Exact orthogonal triple with norms -(1+a), 1, a in a (3|2) space."""
    eps2 = weight((1, 0, 0), (0, 0))
    eps3 = WeightVector(
        (Q(0), (a + 1) / 2, Q(0)),
        ((a - 1) / 2, Q(0)),
    )
    eps1 = WeightVector(
        (Q(0), Q(0), -a / 2),
        (Q(0), -(2 + a) / 2),
    )
    return eps1, eps2, eps3


# ----------------------------------------------------------------------------
# Cartan matrix with exact symmetrizer.


@dataclass(frozen=True)
class CartanData:
    matrix: tuple[tuple[Fraction, ...], ...]
    eps: tuple[Fraction, ...]
    symmetrized: tuple[tuple[Fraction, ...], ...]


@lru_cache(maxsize=None)
def cartan_matrix(diagram: Diagram) -> CartanData:
    """Cartan matrix normalized so that diag(eps) @ matrix equals the Gram matrix.

    Rows of non-isotropic nodes are the usual ``2<a_i,a_j>/<a_i,a_i>``; rows of
    isotropic nodes are scaled so the largest entry in absolute value is 1.
    """
    g = gram_matrix(diagram)
    size = len(diagram)
    a_rows: list[tuple[Fraction, ...]] = []
    eps: list[Fraction] = []
    for i in range(size):
        if g[i][i] != 0:
            a_rows.append(tuple(2 * g[i][j] / g[i][i] for j in range(size)))
            eps.append(g[i][i] / 2)
        else:
            scale = max(abs(x) for x in g[i])
            if scale == 0:
                raise SingularNormalization(
                    f"isotropic node {i} is orthogonal to the whole diagram"
                )
            a_rows.append(tuple(g[i][j] / scale for j in range(size)))
            eps.append(scale)
    sym = tuple(
        tuple(eps[i] * a_rows[i][j] for j in range(size)) for i in range(size)
    )
    if sym != g or sym != tuple(zip(*sym)):
        raise InvariantViolation(
            "diag(eps) times the Cartan matrix is not the symmetric Gram matrix"
        )
    return CartanData(tuple(a_rows), tuple(eps), sym)


# ----------------------------------------------------------------------------
# Even blocks and their dual bases.


@lru_cache(maxsize=None)
def even_blocks(diagram: Diagram) -> tuple[tuple[int, ...], ...]:
    """Connected components of the subdiagram spanned by the even nodes."""
    adj = adjacency(diagram)
    even = set(diagram.even_indices())
    seen: set[int] = set()
    blocks: list[tuple[int, ...]] = []
    for start in sorted(even):
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in adj[i]:
                if j in even and j not in seen:
                    seen.add(j)
                    stack.append(j)
        blocks.append(tuple(sorted(comp)))
    return tuple(blocks)


def block_sign(diagram: Diagram, component: Sequence[int]) -> int:
    """+1 on the positive-definite side, -1 on the negative-definite side."""
    g0 = diagram.root(component[0]).inner(diagram.root(component[0]))
    return 1 if g0 > 0 else -1


def dual_basis(diagram: Diagram, component: Sequence[int]) -> tuple[WeightVector, ...]:
    """Vectors w_j in the span of the component with <w_j, a_k> = delta_jk / eps_k."""
    comp = list(component)
    g = gram_matrix(diagram)
    sub = [[g[i][j] for j in comp] for i in comp]
    try:
        inv = invert([row[:] for row in sub])
    except ValueError as exc:
        raise SingularBlock(f"block {tuple(comp)} has singular Gram matrix") from exc
    eps = [g[i][i] / 2 for i in comp]
    out = []
    for j in range(len(comp)):
        acc = WeightVector(
            tuple(Q(0) for _ in diagram.root(0).e_part),
            tuple(Q(0) for _ in diagram.root(0).d_part),
        )
        for i in range(len(comp)):
            acc = acc + diagram.root(comp[i]).scale(inv[j][i] / eps[j])
        out.append(acc)
    return tuple(out)


# ----------------------------------------------------------------------------
# Root systems.


@dataclass(frozen=True)
class RootSystem:
    """Positive roots, split into the two even summands and the odd part."""

    even_1: tuple[WeightVector, ...]
    even_2: tuple[WeightVector, ...]
    odd: tuple[WeightVector, ...]

    def even(self) -> tuple[WeightVector, ...]:
        return self.even_1 + self.even_2

    def all_positive(self) -> tuple[WeightVector, ...]:
        return self.even_1 + self.even_2 + self.odd


def _pairs_pm(units: list[WeightVector], with_sum: bool):
    """i<j differences (and sums when with_sum) of an orthogonal unit family."""
    diffs, sums = [], []
    for i in range(len(units)):
        for j in range(i + 1, len(units)):
            diffs.append(units[i] - units[j])
            sums.append(units[i] + units[j])
    return diffs + (sums if with_sum else [])


def generate_roots(diagram: Diagram) -> RootSystem:
    """Positive roots of the family in the same coordinates as the diagram."""
    fam = diagram.family
    if fam is None:
        raise InvalidFamily("root generation needs a named family")
    k, m, n = fam.kind, fam.m, fam.n
    ed = len(diagram.root(0).e_part)
    dd = len(diagram.root(0).d_part)
    e = [_unit(i, False, ed, dd) for i in range(ed)]
    d = [_unit(i, True, ed, dd) for i in range(dd)]

    if k == "A":
        even_1 = _pairs_pm(e, with_sum=False)
        even_2 = _pairs_pm(d, with_sum=False)
        odd = [ei - dj for ei in e for dj in d]
    elif k == "B":
        even_1 = _pairs_pm(e, with_sum=True) + list(e)
        even_2 = _pairs_pm(d, with_sum=True) + [x.scale(Q(2)) for x in d]
        odd = list(d) + [di - ej for di in d for ej in e] + [di + ej for di in d for ej in e]
    elif k == "B0":
        even_1 = []
        even_2 = _pairs_pm(d, with_sum=True) + [x.scale(Q(2)) for x in d]
        odd = list(d)
    elif k == "C":
        even_1 = []
        even_2 = _pairs_pm(d, with_sum=True) + [x.scale(Q(2)) for x in d]
        odd = [e[0] - dj for dj in d] + [e[0] + dj for dj in d]
    elif k == "D":
        even_1 = _pairs_pm(e, with_sum=True)
        even_2 = _pairs_pm(d, with_sum=True) + [x.scale(Q(2)) for x in d]
        odd = [di - ej for di in d for ej in e] + [di + ej for di in d for ej in e]
    elif k == "D21alpha":
        eps1, eps2, eps3 = _d21_epsilons(fam.alpha)
        even_1 = [eps2.scale(Q(2)), eps3.scale(Q(2))]
        even_2 = [eps1.scale(Q(2))]
        odd = [eps1 + eps2.scale(s2) + eps3.scale(s3) for s2 in (Q(1), Q(-1)) for s3 in (Q(1), Q(-1))]
    elif k == "F4":
        delta = weight((0, 0, 0), (1, 1, 1))
        even_1 = _pairs_pm(e, with_sum=True) + list(e)
        even_2 = [delta]
        odd = [
            (delta + e[0].scale(s1) + e[1].scale(s2) + e[2].scale(s3)).scale(Q(1, 2))
            for s1 in (Q(1), Q(-1))
            for s2 in (Q(1), Q(-1))
            for s3 in (Q(1), Q(-1))
        ]
    elif k == "G3":
        delta = weight((0, 0, 0), (1, 1))
        shorts = [e[0] - e[1], e[2] - e[0], e[2] - e[1]]
        longs = [
            e[1] + e[2] - e[0].scale(Q(2)),
            e[0] + e[2] - e[1].scale(Q(2)),
            e[2].scale(Q(2)) - e[0] - e[1],
        ]
        even_1 = shorts + longs
        even_2 = [delta.scale(Q(2))]
        odd = [delta] + [delta + s for s in shorts] + [delta - s for s in shorts]
    else:  # pragma: no cover
        raise InvalidFamily(k)

    return RootSystem(
        tuple(sorted(even_1)), tuple(sorted(even_2)), tuple(sorted(odd))
    )


@lru_cache(maxsize=None)
def _root_index(diagram: Diagram):
    """Sets of all (+/-) even and odd roots, for membership tests."""
    rs = generate_roots(diagram)
    even = set(rs.even()) | {-r for r in rs.even()}
    odd = set(rs.odd) | {-r for r in rs.odd}
    return even, odd


@lru_cache(maxsize=None)
def _expansion_basis(diagram: Diagram) -> tuple[int, ...]:
    """Node indices forming the canonical spanning subset for expansions.

    The four-node star of D(2,1;alpha) carries one dependent node (index 0);
    every other family's simple roots are independent.
    """
    if diagram.family is not None and diagram.family.kind == "D21alpha":
        return tuple(range(1, len(diagram)))
    return tuple(range(len(diagram)))


@lru_cache(maxsize=None)
def root_expansion(diagram: Diagram, v: WeightVector) -> tuple[Fraction, ...]:
    """Coefficients of ``v`` over the nodes (dependent nodes get coefficient 0).

    Raises ValueError when ``v`` is outside the span of the simple roots.
    """
    basis = _expansion_basis(diagram)
    cols = [diagram.root(i).coords() for i in basis]
    dim = len(cols[0])
    mat = [[cols[j][r] for j in range(len(basis))] for r in range(dim)]
    sol = solve_exact(mat, list(v.coords()))
    out = [Q(0)] * len(diagram)
    for pos, i in enumerate(basis):
        out[i] = sol[pos]
    return tuple(out)


def noncompact_parity(diagram: Diagram, painted: frozenset[int], v: WeightVector) -> int:
    """Parity (0 compact, 1 noncompact) of an even root under a painting.

    The parity is the painted-coefficient sum mod 2, which makes it additive:
    for even roots a, b, a+b with a+b a root, parities satisfy the XOR law.
    """
    even, odd = _root_index(diagram)
    if v in odd or v not in even:
        raise NotAnEvenRoot(f"{v} is not an even root of {diagram.family.display()}")
    coeffs = root_expansion(diagram, v)
    total = 0
    for i in painted:
        c = coeffs[i]
        if c.denominator != 1:
            raise InvariantViolation(
                f"{v} has the non-integer coefficient {c} at node {i}"
            )
        total += int(c)
    return total % 2
