"""``noncompact_parity``'s one-entry memo against an independent oracle.

Each diagram keeps the last ``frozenset`` painting that ``noncompact_parity``
checked, with its node mask, so a census checks its painting once.  Here the
censuses of every family up to 8 nodes run in the orders that would fool a
memo keyed by value: paintings interleaved per root and per census, a ``set``
changed between calls, equal frozensets built apart, ``frozenset({True})``
after ``frozenset({1})``, and the store cleared in between.  Each parity is
checked against the painted coefficients' sum mod 2 over an expansion solved
here by ``fraction_gauss_jordan``, not by ``root_expansion`` or the parity
table.

The four simple roots of D(2,1;alpha) are dependent.  There every even root
is +-2 epsilon_k, plus or minus one even simple root, so a painting makes
noncompact exactly the painted nodes' own roots.
"""

import random
from itertools import combinations

import pytest

from matrix_helpers import fraction_gauss_jordan
from supervogan import (
    BadIndex,
    FamilyId,
    NotAnEvenRoot,
    build_diagram,
    generate_roots,
    node_count,
    noncompact_parity,
)
from supervogan.algebra import _even_root_masks
from test_algebra import Q, all_families
from test_vogan import ADMISSIBLE_ALPHAS

FAMILIES = [
    fam for fam in all_families(8, 9) if node_count(fam) <= 8 and fam.kind != "D21alpha"
]


def oracle_rows(diagram, roots):
    """Each root's integer coefficients over the simple roots, from one
    ``Fraction`` elimination with the simple roots as columns."""
    size = len(diagram)
    columns = [diagram.root(i).coords() for i in range(size)]
    pivots, t = fraction_gauss_jordan([list(row) for row in zip(*columns)])
    assert pivots == list(range(size))
    rows = []
    for v in roots:
        y = [sum((w * x for w, x in zip(row, v.coords())), Q(0)) for row in t]
        assert not any(y[size:]) and all(c.denominator == 1 for c in y)
        rows.append([c.numerator for c in y[:size]])
    return rows


def expected(rows, painted):
    return [sum(row[i] for i in painted) % 2 for row in rows]


def census(diagram, painted, roots):
    return [noncompact_parity(diagram, painted, v) for v in roots]


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.display())
def test_censuses_match_the_oracle_in_any_order(fam):
    diagram = build_diagram(fam)
    roots = [v for r in generate_roots(diagram).even() for v in (r, -r)]
    rows = oracle_rows(diagram, roots)
    rng = random.Random(fam.display())
    a = frozenset(i for i in range(len(diagram)) if rng.random() < 0.5)
    b = frozenset(range(len(diagram))) - a
    want_a, want_b = expected(rows, a), expected(rows, b)

    # interleaved per root, then per census
    for v, pa, pb in zip(roots, want_a, want_b):
        assert [noncompact_parity(diagram, p, v) for p in (a, b, a)] == [pa, pb, pa]
    for p, want in ((a, want_a), (b, want_b), (a, want_a)):
        assert census(diagram, p, roots) == want

    # equal frozensets built apart, per census and per root
    for p, want in ((a, want_a), (b, want_b), (a, want_a)):
        assert census(diagram, frozenset(sorted(p)), roots) == want
    for v, pa, pb in zip(roots, want_a, want_b):
        assert noncompact_parity(diagram, frozenset(sorted(a)), v) == pa
        assert noncompact_parity(diagram, frozenset(sorted(b)), v) == pb

    # one set, changed between calls
    s = set(a)
    for v, pa, pb in zip(roots, want_a, want_b):
        s.clear(), s.update(a)
        assert noncompact_parity(diagram, s, v) == pa
        s.clear(), s.update(b)
        assert noncompact_parity(diagram, s, v) == pb
    assert census(diagram, s, roots) == want_b

    # paintings equal to {1} ({0} on one node) whose index is no int
    k = min(1, len(diagram) - 1)
    one, v = frozenset({k}), roots[0]
    for bad in (frozenset({bool(k)}), frozenset({float(k)})):
        assert bad == one and hash(bad) == hash(one)
        noncompact_parity(diagram, one, v)
        with pytest.raises(BadIndex):
            noncompact_parity(diagram, bad, v)
    s = {k}
    noncompact_parity(diagram, s, v)
    s.clear(), s.add(bool(k))
    with pytest.raises(BadIndex):
        noncompact_parity(diagram, s, v)

    # the store cleared between censuses: the held diagram and a rebuilt one
    assert census(diagram, a, roots) == want_a
    build_diagram.cache_clear()
    assert census(diagram, b, roots) == want_b
    rebuilt = build_diagram(fam)
    assert rebuilt is not diagram
    assert census(rebuilt, a, roots) == want_a
    assert census(diagram, a, roots) == want_a


def test_the_memo_holds_one_frozenset_and_the_store_clear_drops_it():
    diagram = build_diagram(FamilyId("B", 2, 2))
    roots = generate_roots(diagram).even()
    first, second = frozenset({0, 2}), frozenset({3})
    census(diagram, first, roots)
    assert _even_root_masks(diagram).last == (first, 0b101)
    census(diagram, second, roots)
    assert _even_root_masks(diagram).last == (second, 0b1000)
    assert _even_root_masks(diagram).last[0] is second
    census(diagram, [0], roots)  # only a frozenset takes the slot
    census(diagram, {2}, roots)
    assert _even_root_masks(diagram).last[0] is second
    build_diagram.cache_clear()
    assert diagram._record is None


def test_noncompact_parity_rejects_malformed_paintings_with_bad_index():
    """A painting that is not iterable, or holds an index that is no ``int``,
    is ``BadIndex``: before, ``TypeError`` escaped, and ``{True}`` read as
    node 1.  Any iterable of ``int`` is a painting, and an odd root is
    ``NotAnEvenRoot`` before the painting is looked at."""
    diagram = build_diagram(FamilyId("B", 2, 2))
    system = generate_roots(diagram)
    v = system.even()[0]
    for painted in [None, 3, {"a"}, {1.0}, frozenset({True}), [0, None]]:
        with pytest.raises(BadIndex):
            noncompact_parity(diagram, painted, v)
    with pytest.raises(NotAnEvenRoot):
        noncompact_parity(diagram, None, system.odd[0])
    want = census(diagram, frozenset({0, 3}), system.even())
    for painted in ([0, 3], (3, 0), {0, 3}, range(0, 4, 3)):
        assert census(diagram, painted, system.even()) == want
    assert [noncompact_parity(diagram, iter([0, 3]), r) for r in system.even()] == want


@pytest.mark.parametrize("alpha", ADMISSIBLE_ALPHAS, ids=str)
def test_d21_paintings_make_exactly_their_own_roots_noncompact(alpha):
    diagram = build_diagram(FamilyId("D21alpha", alpha=alpha))
    roots = [v for r in generate_roots(diagram).even() for v in (r, -r)]
    even = diagram.even_indices()
    assert len(roots) == 6
    paintings = [frozenset(p) for k in (1, 2, 3) for p in combinations(even, k)]
    wants = []
    for p in paintings:
        own = {diagram.root(i) for i in p} | {-diagram.root(i) for i in p}
        want = [int(v in own) for v in roots]
        assert sum(want) == 2 * len(p)
        wants.append(want)
    for p, want in zip(paintings, wants):
        assert census(diagram, p, roots) == want
        assert census(diagram, set(p), roots) == want
    for k, v in enumerate(roots):  # interleaved per root
        assert [noncompact_parity(diagram, p, v) for p in paintings] == [w[k] for w in wants]
