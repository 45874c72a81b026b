"""Distinguished root data for the basic classical families.

Every quantity is exact: weights live in a split coordinate space with
inner product ``<e_i, e_j> = delta_ij``, ``<d_i, d_j> = -delta_ij``, and
each coordinate is held in exact form, an ``int`` where integral and a
``fractions.Fraction`` elsewhere; ``_exact`` is the one normalizer, called
by ``weight`` and the weight arithmetic.  An ``int`` compares, hashes and
orders as the equal ``Fraction`` does, so a weight's coordinates are its
key.  Each diagram keeps one integer Gram record (``gram_record``), the
one place where its simple roots become integers: every simple root
scaled by one lcm s of their denominators, the Gram matrix as ``int``
rows over den = s**2, and each row's Cartan scale; its build rejects an
isotropic node orthogonal to the whole diagram.  Every package path reads
that record: even blocks, diagram symmetries, flip masks, the root lengths
that pick canonical vertices, rendered bonds and, through the integer
transform of ``linalg.bareiss``, the root expansions.  An expansion is
summed over ``int``, each weight scaled by the lcm of its denominators;
``root_expansion`` wraps it in ``Fraction``s, and ``noncompact_parity``
keeps one node mask per positive even root, of its odd coefficients,
checked integral as the table is built, reads a negative root through
its negation and a painting's parity as one masked popcount.  It checks a
painting once per ``frozenset`` object: the diagram's record keeps the
last one and its node mask, and any other iterable is checked on every
call.  ``cartan_matrix`` and ``dual_basis`` hold ``Fraction``s read off the
record, ``dual_basis`` inverting its block through ``linalg.invert``; no
package path calls them.

The classical families A, B, B(0,n), C and D are built from their word in
epsilon and delta (``_word``): simple roots and positive roots alike, each
coordinate set to an ``int``, not summed.  D(2,1;alpha), F(4) and G(3)
keep hand-written weights, made through ``weight``.

Data derived from a diagram is kept in a record on the ``Diagram`` by the
``stored`` functions, here and in ``vogan``, so it lives and dies with its
diagram.  ``build_diagram`` interns the diagrams of the last ``STORE_BOUND``
families requested; ``build_diagram.cache_clear()`` empties it and drops
every record, on diagrams a caller still holds too.

Each family is checked once: constructing an invalid ``FamilyId`` raises
``InvalidFamily``, and ``build_diagram`` raises ``RankGuardExceeded`` above
``RANK_GUARD`` nodes before building (``build_diagram.__wrapped__`` builds
any size).
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import update_wrapper
from itertools import chain, count
from math import lcm
from operator import attrgetter, mul
from typing import Optional, Sequence
from weakref import WeakValueDictionary

from .errors import (
    BadIndex,
    InvalidFamily,
    InvariantViolation,
    NotAnEvenRoot,
    ParseError,
    RankGuardExceeded,
    SingularBlock,
    SingularNormalization,
    SupervoganError,
)
from .linalg import Q, bareiss, invert

# Node kinds, also used verbatim in the JSON document schema.
EVEN = "even"
ODD_ISO = "odd_isotropic"
ODD_NONISO = "odd_nonisotropic"


@dataclass(frozen=True, order=True)
class WeightVector:
    """Vector in the split weight space; e-coordinates carry +1, d-coordinates -1.
    Each coordinate is an ``int`` where integral, else a ``Fraction``."""

    e_part: tuple[int | Fraction, ...]
    d_part: tuple[int | Fraction, ...]

    def __hash__(self) -> int:
        # Roots key sets and caches, and noncompact_parity hashes a root on
        # every call: hash the coordinates only once.  Number hashes are the
        # same in every process, so pickles may carry it.
        try:
            return self._hash
        except AttributeError:
            h = hash((self.e_part, self.d_part))
            object.__setattr__(self, "_hash", h)
            return h

    def __add__(self, other: "WeightVector") -> "WeightVector":
        return WeightVector(
            _exact([a + b for a, b in zip(self.e_part, other.e_part)]),
            _exact([a + b for a, b in zip(self.d_part, other.d_part)]),
        )

    def __sub__(self, other: "WeightVector") -> "WeightVector":
        return WeightVector(
            _exact([a - b for a, b in zip(self.e_part, other.e_part)]),
            _exact([a - b for a, b in zip(self.d_part, other.d_part)]),
        )

    def __neg__(self) -> "WeightVector":
        return WeightVector(tuple([-a for a in self.e_part]), tuple([-a for a in self.d_part]))

    def scale(self, c: int | Fraction) -> "WeightVector":
        """``c`` times this weight.  Raises SupervoganError unless ``c`` is an
        ``int`` (not a ``bool``) or a ``Fraction``."""
        if type(c) is not int and not isinstance(c, Fraction):
            raise SupervoganError(f"scale factor {c!r} is neither an int nor a Fraction")
        return WeightVector(
            _exact([c * a for a in self.e_part]),
            _exact([c * a for a in self.d_part]),
        )

    def inner(self, other: "WeightVector") -> Fraction:
        pos = sum((a * b for a, b in zip(self.e_part, other.e_part)), Q(0))
        neg = sum((a * b for a, b in zip(self.d_part, other.d_part)), Q(0))
        return pos - neg

    def coords(self) -> tuple[Fraction, ...]:
        return self.e_part + self.d_part


def _exact(part) -> tuple:
    """``part``'s ``int``s and ``Fraction``s in exact form: each integral one
    as an ``int``, the rest as they are."""
    return tuple([x.numerator if x.denominator == 1 else x for x in part])


def _scaled(part: tuple, s: int) -> tuple[int, ...]:
    """A part of ``int``s and ``Fraction``s times ``s``, a multiple of the
    denominators of its ``Fraction``s, each coordinate an ``int``."""
    return tuple([x * s if type(x) is int else x.numerator * (s // x.denominator) for x in part])


def _denominator(values) -> int:
    """The lcm of the denominators of ``values``, ``int``s and ``Fraction``s."""
    return lcm(*[x.denominator for x in values if type(x) is not int])


def _coordinates(part: Sequence) -> tuple[int | Fraction, ...]:
    try:
        coords = tuple(part)
    except TypeError:
        raise SupervoganError(f"coordinates {part!r} are not a sequence of numbers") from None
    for x in coords:
        # type(), not isinstance(): a bool is an int to isinstance
        if type(x) is not int and not isinstance(x, Fraction):
            raise SupervoganError(f"coordinate {x!r} is neither an int nor a Fraction")
    return _exact(coords)


def weight(e_part: Sequence, d_part: Sequence) -> WeightVector:
    """Coerce sequences of exact coordinates into a WeightVector, each
    integral one held as an ``int``.  Raises SupervoganError unless every
    coordinate is an ``int`` (not a ``bool``) or a ``Fraction``."""
    return WeightVector(_coordinates(e_part), _coordinates(d_part))


@dataclass(frozen=True, order=True)
class FamilyId:
    """Family tag plus parameters; ``alpha`` only for kind ``D21alpha``.

    Parameters that the kind determines are normalized away so equal families
    compare equal however they were constructed; then ``validate_family``
    checks the result, so constructing an invalid family raises InvalidFamily.
    """

    kind: str
    m: int = 0
    n: int = 0
    alpha: Optional[Fraction] = None

    def __post_init__(self):
        if self.kind == "D21alpha":
            object.__setattr__(self, "m", 2)
            object.__setattr__(self, "n", 1)
            if type(self.alpha) is int:
                object.__setattr__(self, "alpha", Fraction(self.alpha))
        elif self.kind in ("F4", "G3"):
            object.__setattr__(self, "m", 0)
            object.__setattr__(self, "n", 0)
        elif self.kind in ("B0", "C"):
            object.__setattr__(self, "m", 0)
        validate_family(self)

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
        raise InvalidFamily(f"unknown family kind {self.kind!r}")  # pragma: no cover


ALPHA_MAX_CHARS = 64
ALPHA_MAX_EXPONENT = 64


def read_alpha(text: str, source: Optional[str] = None, at: int = 0) -> Fraction:
    """The rational ``alpha`` of D(2,1;alpha) written as ``text``: p, p/q or a
    decimal with an optional exponent, as ``Fraction`` reads it.

    The text and its exponent are bounded before ``Fraction`` sees them, so
    every accepted alpha has at most a few hundred digits: it prints, and
    ``table`` runs on it, in bounded time.  Errors raise ``ParseError``
    against ``source`` (default ``text``), with ``text`` starting at ``at``,
    and so does a ``text`` that is no ``str``, such as a JSON number.
    """
    if not isinstance(text, str):
        raise ParseError(f"alpha must be a string p/q, not {type(text).__name__}", "", at)
    source = text if source is None else source
    if len(text) > ALPHA_MAX_CHARS:
        raise ParseError(
            f"alpha is longer than {ALPHA_MAX_CHARS} characters", source, at + ALPHA_MAX_CHARS
        )
    mantissa, marker, exponent = text.lower().partition("e")
    if marker:
        try:
            large = abs(int(exponent)) > ALPHA_MAX_EXPONENT
        except ValueError:  # not an exponent: Fraction rejects the text below
            large = False
        if large:
            raise ParseError(
                f"alpha's exponent is outside -{ALPHA_MAX_EXPONENT}..{ALPHA_MAX_EXPONENT}",
                source,
                at + len(mantissa) + 1,
            )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError("expected a rational p/q", source, at) from None


# An alpha that read_alpha accepts has at most ALPHA_MAX_CHARS digits and an
# exponent of at most ALPHA_MAX_EXPONENT, so its numerator and denominator
# stay below this bound.
PARAMETER_BOUND = 10 ** (ALPHA_MAX_CHARS + ALPHA_MAX_EXPONENT)


def validate_family(fam: FamilyId) -> None:
    """Raise InvalidFamily unless ``fam`` names a member of the eight families.

    ``FamilyId`` calls it on construction.  The kind must be a ``str`` and
    ``m``, ``n`` an ``int`` (a ``bool`` or ``1.0`` equals ``1`` but would
    display otherwise), alpha a ``Fraction`` (``FamilyId`` turns an ``int``
    into one; text goes through ``read_alpha``).  Parameters, and alpha's
    numerator and denominator, must lie strictly within +-PARAMETER_BOUND, so
    every accepted family displays; types and bound are checked before
    anything is formatted.
    """
    if not isinstance(fam, FamilyId):
        raise InvalidFamily(f"{fam!r} is not a FamilyId")
    k = fam.kind
    if type(k) is not str:
        raise InvalidFamily(f"family kind must be a string, got {type(k).__name__}")
    # type(), not isinstance(): a bool is an int to isinstance
    if not (type(fam.m) is int and type(fam.n) is int):
        raise InvalidFamily(
            f"family m and n must be int, got {type(fam.m).__name__} "
            f"and {type(fam.n).__name__}"
        )
    bounded = [fam.m, fam.n]
    if k == "D21alpha" and fam.alpha is not None:
        if not isinstance(fam.alpha, Fraction):
            raise InvalidFamily(f"alpha must be int or Fraction, got {type(fam.alpha).__name__}")
        bounded += [fam.alpha.numerator, fam.alpha.denominator]
    if any(abs(x) >= PARAMETER_BOUND for x in bounded):
        raise InvalidFamily(
            f"family parameters must lie within +-10**{ALPHA_MAX_CHARS + ALPHA_MAX_EXPONENT}"
        )
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
    elif k not in ("F4", "G3"):
        raise InvalidFamily(f"unknown family kind {k!r}")
    if k != "D21alpha" and fam.alpha is not None:
        raise InvalidFamily(f"only D(2,1;alpha) takes alpha, got it on {fam.display()}")


def node_count(fam: FamilyId) -> int:
    """Number of nodes of ``fam``'s distinguished diagram, without building it."""
    if not isinstance(fam, FamilyId):
        raise InvalidFamily(f"{fam!r} is not a FamilyId")
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


RANK_GUARD = 12


def check_rank_guard(fam: FamilyId) -> None:
    """Raise RankGuardExceeded when ``fam`` has more than RANK_GUARD nodes."""
    count = node_count(fam)
    if count > RANK_GUARD:
        raise RankGuardExceeded(
            f"{fam.display()} has {count} nodes; the guard allows {RANK_GUARD}"
        )


@dataclass(frozen=True, order=True)
class Node:
    index: int
    root: WeightVector
    kind: str  # EVEN / ODD_ISO / ODD_NONISO


@dataclass(frozen=True)
class Diagram:
    """Decorated simple system of a named family, as ``build_diagram`` makes
    it; every side is named, and every root generated, from its family.

    Each diagram carries a record of the data derived from it, freed with
    the diagram or by ``build_diagram.cache_clear()`` (see the module
    docstring).  Equality and hashing stay by value: an equal diagram built apart, hand-built or
    unpickled, gets the same answers, computed into its own record.
    """

    nodes: tuple[Node, ...]
    family: FamilyId
    _record = None  # the stored values; not a field, so == ignores it

    def __post_init__(self):
        if not isinstance(self.family, FamilyId):
            raise InvalidFamily(f"a diagram needs a FamilyId, got {self.family!r}")

    def __getstate__(self):
        # a record is rebuilt on demand: pickles carry the fields only
        return {"nodes": self.nodes, "family": self.family}

    def __len__(self) -> int:
        return len(self.nodes)

    def root(self, i: int) -> WeightVector:
        return self.nodes[i].root

    def even_indices(self) -> tuple[int, ...]:
        return tuple(n.index for n in self.nodes if n.kind == EVEN)


# ----------------------------------------------------------------------------
# The store: one record per diagram, and the interning of diagrams.

STORE_BOUND = 256

_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")

# Every diagram holding a record, by id (equal diagrams built apart each
# hold their own), so that cache_clear drops all records at once.
_holders: WeakValueDictionary[int, Diagram] = WeakValueDictionary()


def stored(func):
    """``func(diagram, *args)``, computed once and kept in the diagram's record."""

    def read(diagram, *args):
        try:
            values = diagram._record
        except AttributeError:  # checked here, where every diagram path reads first
            raise BadIndex(f"{diagram!r} is not a Diagram") from None
        if values is None:
            values = {}
            object.__setattr__(diagram, "_record", values)
            _holders[id(diagram)] = diagram
        key = (func, args) if args else func
        try:
            return values[key]
        except KeyError:
            value = values[key] = func(diagram, *args)
            return value

    return update_wrapper(read, func)


def _interned(build):
    """``build`` with the diagrams of the last STORE_BOUND families kept, in
    the manner of ``functools.lru_cache``: ``__wrapped__`` is ``build``,
    ``cache_info()`` counts families, ``cache_clear()`` also drops every record."""
    diagrams: OrderedDict[FamilyId, Diagram] = OrderedDict()
    counts = [0, 0]  # hits, misses

    def build_interned(fam: FamilyId) -> Diagram:
        if not isinstance(fam, FamilyId):  # before the lookup: a list is unhashable
            raise InvalidFamily(f"{fam!r} is not a FamilyId")
        diagram = diagrams.get(fam)
        if diagram is None:
            check_rank_guard(fam)
            counts[1] += 1
            diagram = diagrams[fam] = build(fam)
            if len(diagrams) > STORE_BOUND:
                diagrams.popitem(last=False)
        else:
            counts[0] += 1
            diagrams.move_to_end(fam)
        return diagram

    def cache_clear() -> None:
        for diagram in list(_holders.values()):
            object.__setattr__(diagram, "_record", None)
        _holders.clear()
        diagrams.clear()
        counts[:] = [0, 0]

    build_interned.cache_info = lambda: _CacheInfo(*counts, STORE_BOUND, len(diagrams))
    build_interned.cache_clear = cache_clear
    return update_wrapper(build_interned, build)


GramRecord = namedtuple("GramRecord", "rows den scales s coords")


@stored
def gram_record(diagram: Diagram) -> GramRecord:
    """The simple roots over ``int``: ``coords`` holds each root's
    coordinates times s, the lcm of the denominators of all the simple roots'
    coordinates, and ``rows`` their Gram matrix n, with G = n / den and den =
    s**2; both hold only ``int``s, whatever form a hand-built root's
    coordinates take.  ``scales`` holds the Cartan reading of each row,
    ``(c, q)`` with ``a_ij = c n_ij / q``: ``(2, n_ii)`` for a non-isotropic
    node, ``(1, max_j |n_ij|)`` for an isotropic one; a zero row there, an
    isotropic node orthogonal to the whole diagram, raises
    SingularNormalization.
    """
    # a hand-built or unpickled root may hold integral Fractions: in exact
    # form, each part reads as the built root's, type for type
    parts = [(_exact(node.root.e_part), _exact(node.root.d_part)) for node in diagram.nodes]
    s = _denominator(chain.from_iterable(chain.from_iterable(parts)))
    e = [_scaled(e_part, s) for e_part, _ in parts]
    d = [_scaled(d_part, s) for _, d_part in parts]
    size = len(parts)
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            rows[i][j] = rows[j][i] = sum(map(mul, e[i], e[j])) - sum(map(mul, d[i], d[j]))
    scales = tuple(
        (2, row[i]) if row[i] else (1, max(map(abs, row))) for i, row in enumerate(rows)
    )
    for i, (_, q) in enumerate(scales):
        if not q:
            raise SingularNormalization(f"isotropic node {i} is orthogonal to the whole diagram")
    coords = tuple(a + b for a, b in zip(e, d))
    return GramRecord(tuple(map(tuple, rows)), s * s, scales, s, coords)


# ----------------------------------------------------------------------------
# Construction of the eight families.


_ZERO = Q(0)


def _word(fam: FamilyId) -> tuple[str, str]:
    """The distinguished system of a classical family as a word in ``e``
    (epsilon) and ``d`` (delta), in diagram order, and how the diagram ends:
    ``""`` with no further root (A), ``"x"`` the short root of the last letter
    (B, B(0,n)), ``"2x"`` its long root (C), ``"x'+x"`` the fork on the last
    two letters (D).  The i-th ``e`` is the weight space's i-th
    e-coordinate, the j-th ``d`` its j-th d-coordinate."""
    m, n = fam.m, fam.n
    if fam.kind == "A":
        return "e" * (m + 1) + "d" * (n + 1), ""
    if fam.kind == "C":
        return "e" + "d" * n, "2x"
    end = "x'+x" if fam.kind == "D" else "x"
    return "d" * n + "e" * m, end  # m is 0 for B(0,n)


def _weights(word: str):
    """``w(*(letter, coeff))``: the weight of ``word``'s space with the
    ``int`` ``coeff`` (1, -1 or 2) on the coordinate of each letter (a
    position in ``word``), 0 elsewhere."""
    e_dim = word.count("e")
    places = {"e": count(0), "d": count(e_dim)}
    place = [next(places[letter]) for letter in word]

    def w(*terms: tuple[int, int]) -> WeightVector:
        coords = [0] * len(word)
        for letter, coeff in terms:
            coords[place[letter]] = coeff
        return WeightVector(tuple(coords[:e_dim]), tuple(coords[e_dim:]))

    return w


@_interned
def build_diagram(fam: FamilyId) -> Diagram:
    """Distinguished simple system of ``fam`` with exactly one odd node.

    A classical family's simple roots are the differences of the neighbouring
    letters of its word (even within one letter, odd isotropic across),
    followed by its end root; a short delta root is odd non-isotropic.

    Raises RankGuardExceeded, before building, above RANK_GUARD nodes.
    Interned: equal families get the same shared ``Diagram`` object while
    the family is among the last STORE_BOUND requested, so do not count on
    a fresh one.  ``build_diagram.__wrapped__`` is the uninterned, unguarded
    builder; ``build_diagram.cache_clear()`` empties the interning and drops
    every diagram's record.
    """
    k = fam.kind
    nodes: list[Node] = []

    def add(root: WeightVector, kind: str) -> None:
        nodes.append(Node(len(nodes), root, kind))

    if k == "D21alpha":
        a = fam.alpha
        eps1, eps2, eps3 = _d21_epsilons(a)
        sign = 1 if 1 + a > 0 else -1
        add(eps1.scale(2 * sign), EVEN)
        add(eps1 - eps2 - eps3, ODD_ISO)
        add(eps2.scale(2), EVEN)
        add(eps3.scale(2), EVEN)
    elif k == "F4":
        half = Q(1, 2)
        add(weight((-half, -half, -half), (half, half, half)), ODD_ISO)
        add(weight((0, 0, 1), (0, 0, 0)), EVEN)
        add(weight((0, 1, -1), (0, 0, 0)), EVEN)
        add(weight((1, -1, 0), (0, 0, 0)), EVEN)
    elif k == "G3":
        add(weight((0, 1, -1), (1, 1)), ODD_ISO)
        add(weight((1, -1, 0), (0, 0)), EVEN)
        add(weight((-2, 1, 1), (0, 0)), EVEN)
    else:
        word, end = _word(fam)
        w = _weights(word)
        for b in range(1, len(word)):
            add(w((b - 1, 1), (b, -1)), EVEN if word[b - 1] == word[b] else ODD_ISO)
        last = len(word) - 1
        if end == "x":
            add(w((last, 1)), EVEN if word[last] == "e" else ODD_NONISO)
        elif end == "2x":
            add(w((last, 2)), EVEN)
        elif end == "x'+x":
            add(w((last - 1, 1), (last, 1)), EVEN)
    return Diagram(tuple(nodes), fam)


def _d21_epsilons(a: Fraction) -> tuple[WeightVector, WeightVector, WeightVector]:
    """Exact orthogonal triple with norms -(1+a), 1, a in a (3|2) space."""
    eps2 = weight((1, 0, 0), (0, 0))
    eps3 = weight((0, (a + 1) / 2, 0), ((a - 1) / 2, 0))
    eps1 = weight((0, 0, -a / 2), (0, -(2 + a) / 2))
    return eps1, eps2, eps3


# ----------------------------------------------------------------------------
# Cartan matrix with exact symmetrizer.


@dataclass(frozen=True)
class CartanData:
    matrix: tuple[tuple[Fraction, ...], ...]
    eps: tuple[Fraction, ...]
    symmetrized: tuple[tuple[Fraction, ...], ...]


@stored
def cartan_matrix(diagram: Diagram) -> CartanData:
    """Cartan matrix normalized so that diag(eps) @ matrix equals the Gram matrix.

    Rows of non-isotropic nodes are the usual ``2<a_i,a_j>/<a_i,a_i>``; rows of
    isotropic nodes are scaled so the largest entry in absolute value is 1.
    Built from ``gram_record``, whose rows over ``den`` are the Gram matrix
    ``symmetrized``, and whose ``scales`` give each row's scale.
    """
    record = gram_record(diagram)
    g = tuple(tuple(Q(x, record.den) for x in row) for row in record.rows)
    a_rows = tuple(tuple(Q(c * x, q) for x in row) for row, (c, q) in zip(record.rows, record.scales))
    eps = tuple(Q(q, c * record.den) for c, q in record.scales)
    # eps_i a_ij == g_ij, cross-multiplied over the integers
    if any(g[i][j] != g[j][i] for i in range(len(g)) for j in range(i)) or any(
        e.numerator * x.numerator * y.denominator != y.numerator * e.denominator * x.denominator
        for e, a_row, g_row in zip(eps, a_rows, g)
        for x, y in zip(a_row, g_row)
    ):
        raise InvariantViolation(
            "diag(eps) times the Cartan matrix is not the symmetric Gram matrix"
        )
    return CartanData(a_rows, eps, g)


# ----------------------------------------------------------------------------
# Even blocks and their dual bases.


@stored
def even_blocks(diagram: Diagram) -> tuple[tuple[int, ...], ...]:
    """Connected components of the subdiagram spanned by the even nodes,
    two nodes joined when their simple roots are non-orthogonal."""
    g = gram_record(diagram).rows
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
            for j in even:
                if g[i][j] and j not in seen:
                    seen.add(j)
                    stack.append(j)
        blocks.append(tuple(sorted(comp)))
    return tuple(blocks)


def _component(diagram: Diagram, component: Sequence[int]) -> tuple[int, ...]:
    """``component`` as a tuple.  Raises BadIndex unless it is a nonempty
    iterable of ``int`` node indices in ``0..len(diagram)-1`` (the indices
    checked by ``_painted_mask``) whose Gram diagonal entries are nonzero:
    an isotropic node has no eps_i to divide by, and no definite side."""
    rows = gram_record(diagram).rows
    try:
        nodes = tuple(component)
    except TypeError:
        raise BadIndex(f"component {component!r} is not an iterable of node indices") from None
    if not _painted_mask(diagram, nodes):
        raise BadIndex(f"component {component!r} holds no node")
    if not all(rows[i][i] for i in nodes):
        raise BadIndex(f"component {component!r} holds an isotropic node")
    return nodes


def block_sign(diagram: Diagram, component: Sequence[int]) -> int:
    """+1 on the positive-definite side, -1 on the negative-definite side."""
    first = _component(diagram, component)[0]
    return 1 if gram_record(diagram).rows[first][first] > 0 else -1


def dual_basis(diagram: Diagram, component: Sequence[int]) -> tuple[WeightVector, ...]:
    """Vectors w_j in the span of the component with <w_j, a_k> = delta_jk / eps_k:
    w_j = sum_k (G^-1)_jk a_k / eps_j for its Gram matrix G, read off
    ``gram_record``, and eps_j = G_jj / 2.  Raises SingularBlock when G is singular."""
    component = _component(diagram, component)
    record = gram_record(diagram)
    gram = [[Q(record.rows[i][j], record.den) for j in component] for i in component]
    try:
        inv = invert(gram)
    except ValueError:
        raise SingularBlock(f"block {component} has singular Gram matrix") from None
    eps = [row[j] / 2 for j, row in enumerate(gram)]
    zero = diagram.root(0).scale(0)
    return tuple(
        sum((diagram.root(i).scale(x / e) for x, i in zip(row, component)), zero)
        for row, e in zip(inv, eps)
    )


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


@stored
def generate_roots(diagram: Diagram) -> RootSystem:
    """Positive roots of the family in the same coordinates as the diagram.

    A classical family's roots are x_a - x_b for every letter a before b of
    its word; outside A also x_a + x_b and the long roots 2 delta_j, and for
    B and B(0,n) the short roots x_a.
    """
    fam = diagram.family
    k = fam.kind
    if k == "D21alpha":
        eps1, eps2, eps3 = _d21_epsilons(fam.alpha)
        even_1 = [eps2.scale(2), eps3.scale(2)]
        even_2 = [eps1.scale(2)]
        odd = [eps1 + eps2.scale(s2) + eps3.scale(s3) for s2 in (1, -1) for s3 in (1, -1)]
    elif k == "F4":
        delta = weight((0, 0, 0), (1, 1, 1))
        e = [weight(row, (0, 0, 0)) for row in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        signs = (1, -1)
        even_1 = e + [e[i] + e[j].scale(s) for i, j in ((0, 1), (0, 2), (1, 2)) for s in signs]
        even_2 = [delta]
        odd = [
            (delta + e[0].scale(s1) + e[1].scale(s2) + e[2].scale(s3)).scale(Q(1, 2))
            for s1 in signs
            for s2 in signs
            for s3 in signs
        ]
    elif k == "G3":
        delta = weight((0, 0, 0), (1, 1))
        e = [weight(row, (0, 0)) for row in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        shorts = [e[0] - e[1], e[2] - e[0], e[2] - e[1]]
        longs = [
            e[1] + e[2] - e[0].scale(2),
            e[0] + e[2] - e[1].scale(2),
            e[2].scale(2) - e[0] - e[1],
        ]
        even_1 = shorts + longs
        even_2 = [delta.scale(2)]
        odd = [delta] + [delta + s for s in shorts] + [delta - s for s in shorts]
    else:
        word, end = _word(fam)
        w = _weights(word)
        even_1, even_2, odd = [], [], []
        part = {"ee": even_1, "dd": even_2}
        for b, y in enumerate(word):
            for a, x in enumerate(word[:b]):
                roots = part.get(x + y, odd)
                roots.append(w((a, 1), (b, -1)))
                if end:
                    roots.append(w((a, 1), (b, 1)))
            if end and y == "d":
                even_2.append(w((b, 2)))
            if end == "x":
                (even_1 if y == "e" else odd).append(w((b, 1)))

    # the dataclass order, without building a tuple per comparison
    order = attrgetter("e_part", "d_part")
    return RootSystem(*(tuple(sorted(part, key=order)) for part in (even_1, even_2, odd)))


@stored
def _expansion_operator(diagram: Diagram):
    """The expansion solve, factored once per diagram, over the integers.

    ``linalg.bareiss`` on the expansion basis as columns, scaled by s in
    ``gram_record``, gives an integer transform t and last pivot d: the k-th
    pivot node's coefficient of v is s (t v)_k / d, and rows past the rank
    vanish on the span.  Per coordinate r this returns column r of t, sparse
    and split in two: ``(node, s t_kr)`` pairs for the pivot rows and ``(k,
    t_kr)`` pairs for the vanishing ones; non-pivot basis nodes get 0.  Also
    returned: d and the weight space's shape, ``(len(e_part), len(d_part))``.
    """
    # The four-node star of D(2,1;alpha) is dependent: its odd node is half a
    # signed sum of the three even ones, which span the weight space of the
    # roots.  Expanding over the even nodes makes every even root +/- one even
    # simple root, so a painted even node is seen by its own sl(2).  Every
    # other family's simple roots are independent.
    if diagram.family.kind == "D21alpha":
        basis = diagram.even_indices()
    else:
        basis = tuple(range(len(diagram)))
    record = gram_record(diagram)
    mat = [list(row) for row in zip(*(record.coords[i] for i in basis))]
    pivots, t, d = bareiss(mat, [1] * len(mat))
    rank = len(pivots)
    s = record.s
    solve, vanish = [], []
    for r in range(len(mat)):
        solve.append(tuple((basis[pivots[k]], s * t[k][r]) for k in range(rank) if t[k][r]))
        vanish.append(tuple((k, t[k][r]) for k in range(rank, len(mat)) if t[k][r]))
    root = diagram.root(0)
    return tuple(solve), tuple(vanish), d, (len(root.e_part), len(root.d_part))


def _integer_expansion(diagram: Diagram, v: WeightVector) -> tuple[tuple[int, ...], int]:
    """``(c, den)``: ``v``'s coefficient at node i is ``c[i] / den``, summed in
    ``int``s over ``v`` scaled by the lcm s of its denominators.  Raises as
    ``root_expansion`` does."""
    solve, vanish, d, shape = _expansion_operator(diagram)
    if (len(v.e_part), len(v.d_part)) != shape:
        raise ValueError(f"{v} is not a weight of the {shape[0]}|{shape[1]} space")
    coords = v.e_part + v.d_part
    fractions = [x.denominator for x in coords if type(x) is not int]
    s = lcm(*fractions)
    out = [0] * len(diagram)
    residual = [0] * len(vanish)
    # a built root holds ints alone and is read as it stands; a hand-built
    # one may hold Fractions, integral ones too, each scaled to an int
    for r, x in enumerate(_scaled(coords, s) if fractions else coords):
        if x:
            for i, w in solve[r]:
                out[i] += w * x
            for k, w in vanish[r]:
                residual[k] += w * x
    if any(residual):
        raise ValueError(f"{v} is outside the span of the simple roots")
    return tuple(out), d * s


def root_expansion(diagram: Diagram, v: WeightVector) -> tuple[Fraction, ...]:
    """Coefficients of ``v`` over the nodes (dependent nodes get coefficient 0).

    For D(2,1;alpha) the expansion is over the even nodes, so the odd node
    gets 0 and the odd roots get half-integer coefficients.

    Raises ValueError when ``v`` is outside the span of the simple roots,
    or is not a weight of the diagram's shape, and SupervoganError when it
    is not a ``WeightVector``.
    """
    if not isinstance(v, WeightVector):
        raise SupervoganError(f"{v!r} is not a WeightVector")
    coeffs, den = _integer_expansion(diagram, v)
    return tuple([Q(c, den) if c else _ZERO for c in coeffs])


class _ParityTable:
    """``masks``: every positive even root mapped to the node mask of its
    odd coefficients.  ``last``: the last frozenset painting that
    ``noncompact_parity`` checked, with its node mask, as one tuple."""

    __slots__ = ("masks", "last")

    def __init__(self, masks: dict[WeightVector, int]):
        self.masks = masks
        self.last = (frozenset(), 0)


@stored
def _even_root_masks(diagram: Diagram) -> _ParityTable:
    """Every positive even root mapped to the node mask of its odd
    coefficients, over its integer expansion; raises InvariantViolation,
    once per diagram, if any coefficient is not an integer.  A negative
    root has the same mask, so ``noncompact_parity`` reads it through its
    negation.  The returned table's ``last`` starts as the empty painting."""
    table = {}
    for r in generate_roots(diagram).even():
        odd = 0
        coeffs, den = _integer_expansion(diagram, r)
        for i, c in enumerate(coeffs):
            if c % den:
                raise InvariantViolation(
                    f"{r} has the non-integer coefficient {Q(c, den)} at node {i}"
                )
            if (c // den) & 1:
                odd |= 1 << i
        table[r] = odd
    return _ParityTable(table)


def _painted_mask(diagram: Diagram, painted) -> int:
    """The node mask of ``painted``, an iterable of node indices.  Raises
    BadIndex for a painting that is not iterable, and for an index that is
    not an ``int`` (a ``bool`` included) or is outside ``0..len(diagram)-1``."""
    size = len(diagram.nodes)
    try:
        nodes = iter(painted)
    except TypeError:
        raise BadIndex(f"painting {painted!r} is not an iterable of node indices") from None
    mask = 0
    for i in nodes:
        if type(i) is not int:
            raise BadIndex(f"painted index {i!r} is not an integer")
        if not 0 <= i < size:
            raise BadIndex(f"node {i} is out of range 0..{size - 1} of {diagram.family.display()}")
        mask |= 1 << i
    return mask


def noncompact_parity(diagram: Diagram, painted: frozenset[int], v: WeightVector) -> int:
    """Parity (0 compact, 1 noncompact) of an even root under a painting.

    The parity is the painted-coefficient sum mod 2, which makes it additive:
    for even roots a, b, a+b with a+b a root, parities satisfy the XOR law.
    A positive root is looked up directly and a negative one through its
    negation, which has the same parity.
    Raises NotAnEvenRoot unless ``v`` is an even root or the negative of one,
    then BadIndex for a painting that is not an iterable of ``int`` node
    indices in ``0..len(diagram)-1``.

    A census passes one painting for all its roots, so each diagram keeps
    the last ``frozenset`` painting it checked, and its node mask: the same
    frozenset object is checked once, however many roots follow.  Any other
    painting, an equal frozenset built apart or an iterable of another type
    included, is checked on every call.
    """
    table = _even_root_masks(diagram)
    try:
        odd = table.masks.get(v)
    except TypeError:  # v is not hashable
        odd = None
    if odd is None and isinstance(v, WeightVector):
        odd = table.masks.get(-v)
    if odd is None:
        raise NotAnEvenRoot(f"{v} is not an even root of {diagram.family.display()}")
    last = table.last
    # by identity: equal paintings (a set changed since, or {True} for {1})
    # compare and hash equal, and only a frozenset cannot have changed
    if last[0] is painted:
        mask = last[1]
    else:
        mask = _painted_mask(diagram, painted)
        if type(painted) is frozenset:
            table.last = (painted, mask)
    return (mask & odd).bit_count() & 1
