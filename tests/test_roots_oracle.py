"""Check generate_roots against an independent string-closure oracle.

The oracle starts from the simple roots and saturates four closure rules
until nothing new appears:

  (a) the set is symmetric under negation,
  (b) for every even root beta and root gamma, the beta-string through gamma
      is unbroken: with p = max{k : gamma - k*beta in the set} the integer
      q = p - <gamma, beta^vee> is >= 0 and gamma + k*beta is a root for
      0 <= k <= q,
  (c) 2*beta is a root for every odd non-isotropic beta,
  (d) for isotropic beta and odd gamma with <beta,gamma> != 0, exactly one
      of gamma+beta, gamma-beta is a root.  Rule (d) is applied only at a
      fixpoint of (a)-(c), where every positive-norm even root is already
      present (those factors are string-generated from their even simple
      roots); so if both candidates are absent and <beta,gamma> < 0, the
      positive-norm candidate gamma-beta cannot be a root and gamma+beta is.

After stabilizing, the string and exactly-one axioms are asserted on the
finished set.  No closed-form root lists and no matrix realizations enter
the oracle, so it is an honest cross-check of the per-family formulas in
generate_roots.
"""

from fractions import Fraction
from math import lcm
from operator import add, mul, sub

import pytest

from supervogan import (
    EVEN,
    ODD_ISO,
    ODD_NONISO,
    FamilyId,
    WeightVector,
    build_diagram,
    generate_roots,
)

Q = Fraction


def _closure(diagram):
    """All roots (both signs) via string closure, with parity bookkeeping.

    Every root is an integer combination of the simple roots, so the
    closure runs on ``int`` tuples: the simple roots' coordinates scaled by
    one lcm of their denominators, e-coordinates first.  Inner products are
    the signed dot product of those tuples; the scale cancels from every
    ratio the rules use.  The returned sets hold ``WeightVector``s again.
    """
    e_dim = len(diagram.root(0).e_part)
    scale = lcm(*(x.denominator for node in diagram.nodes for x in node.root.coords()))

    def inner(u, v):
        return sum(map(mul, u[:e_dim], v[:e_dim])) - sum(map(mul, u[e_dim:], v[e_dim:]))

    def plus(u, v):
        return tuple(map(add, u, v))

    def minus(u, v):
        return tuple(map(sub, u, v))

    def neg(v):
        return tuple(-x for x in v)

    def ratio(gamma, beta, nb):
        """<gamma, beta^vee> = 2<gamma,beta>/<beta,beta>, which must be an integer."""
        twice = 2 * inner(gamma, beta)
        assert twice % nb == 0
        return twice // nb

    # parity: 0 for even, 1 for odd; simple roots seed it, sums follow Z2.
    parity = {}
    for node in diagram.nodes:
        root = tuple(int(x * scale) for x in node.root.coords())
        parity[root] = 0 if node.kind == EVEN else 1
        parity[neg(root)] = parity[root]
    roots = set(parity)

    def norm(v):
        return inner(v, v)

    def add_root(v, par):
        if v not in roots:
            roots.add(v)
            roots.add(neg(v))
            parity[v] = par
            parity[neg(v)] = par
            return True
        return False

    def string_round():
        changed = False
        evens = [b for b in roots if parity[b] == 0]
        for beta in evens:
            nb = norm(beta)
            assert nb != 0
            minus_beta = neg(beta)
            for gamma in list(roots):
                if gamma == beta or gamma == minus_beta:
                    continue
                p = 0
                cur = minus(gamma, beta)
                while cur in roots:
                    p += 1
                    cur = minus(cur, beta)
                # p may still be an undercount here, so q may come out too
                # small; extending by max(q, 0) converges to the fixpoint.
                q = p - ratio(gamma, beta, nb)
                cur = gamma
                for _ in range(max(q, 0)):
                    cur = plus(cur, beta)
                    changed |= add_root(cur, parity[gamma])
        for beta in list(roots):
            if parity[beta] == 1 and norm(beta) != 0:
                changed |= add_root(tuple(2 * x for x in beta), 0)
        return changed

    def isotropic_round():
        changed = False
        odds = [b for b in roots if parity[b] == 1]
        for beta in odds:
            if norm(beta) != 0:
                continue
            minus_beta = neg(beta)
            for gamma in odds:
                if gamma == beta or gamma == minus_beta:
                    continue
                if inner(gamma, beta) >= 0:
                    continue
                if plus(gamma, beta) in roots or minus(gamma, beta) in roots:
                    continue
                changed |= add_root(plus(gamma, beta), 0)
        return changed

    outer = True
    while outer:
        while string_round():
            pass
        outer = isotropic_round()

    # the string axioms must hold exactly on the stabilized set
    for beta in roots:
        if parity[beta] != 0:
            continue
        nb = norm(beta)
        minus_beta = neg(beta)
        for gamma in roots:
            if gamma == beta or gamma == minus_beta:
                continue
            p = 0
            cur = minus(gamma, beta)
            while cur in roots:
                p += 1
                cur = minus(cur, beta)
            q = p - ratio(gamma, beta, nb)
            assert q >= 0
            cur = gamma
            for _ in range(q):
                cur = plus(cur, beta)
                assert cur in roots

    for beta in roots:
        if parity[beta] != 1 or norm(beta) != 0:
            continue
        minus_beta = neg(beta)
        for gamma in roots:
            if gamma == beta or gamma == minus_beta:
                continue
            if inner(gamma, beta) != 0:
                assert (plus(gamma, beta) in roots) != (minus(gamma, beta) in roots)

    def weight(v):
        return WeightVector(
            tuple(Q(x, scale) for x in v[:e_dim]), tuple(Q(x, scale) for x in v[e_dim:])
        )

    even = {weight(b) for b in roots if parity[b] == 0}
    odd = {weight(b) for b in roots if parity[b] == 1}
    return even, odd


FAMILIES = (
    [FamilyId("A", m, n) for m in range(4) for n in range(4) if m + n >= 1]
    + [FamilyId("B", m, n) for m in range(1, 4) for n in range(1, 4)]
    + [FamilyId("B0", 0, n) for n in range(1, 4)]
    + [FamilyId("C", 0, n) for n in range(1, 4)]
    + [FamilyId("D", m, n) for m in range(2, 4) for n in range(1, 4)]
    + [
        FamilyId("D21alpha", alpha=Q(1)),
        FamilyId("D21alpha", alpha=Q(2)),
        FamilyId("D21alpha", alpha=Q(-1, 2)),
        FamilyId("D21alpha", alpha=Q(3, 5)),
        FamilyId("F4"),
        FamilyId("G3"),
    ]
)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.display())
def test_generate_roots_matches_string_closure(fam):
    diagram = build_diagram(fam)
    even_oracle, odd_oracle = _closure(diagram)
    rs = generate_roots(diagram)

    positive_even = set(rs.even_1) | set(rs.even_2)
    positive_odd = set(rs.odd)
    all_even = positive_even | {-v for v in positive_even}
    all_odd = positive_odd | {-v for v in positive_odd}

    assert all_even == even_oracle
    assert all_odd == odd_oracle
    # positives really are one root per +/- pair
    assert len(all_even) == 2 * len(positive_even)
    assert len(all_odd) == 2 * len(positive_odd)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.display())
def test_even_split_is_closed_under_addition(fam):
    """even_1 and even_2 are unions of irreducible pieces: no root of one
    summand plus a root of the other is ever a root."""
    diagram = build_diagram(fam)
    rs = generate_roots(diagram)
    all_roots = set(rs.even_1) | set(rs.even_2) | set(rs.odd)
    all_roots |= {-v for v in all_roots}
    for a in rs.even_1:
        for b in rs.even_2:
            assert (a + b) not in all_roots
            assert (a - b) not in all_roots


def test_simple_roots_are_roots():
    for fam in FAMILIES:
        diagram = build_diagram(fam)
        rs = generate_roots(diagram)
        positives = set(rs.even_1) | set(rs.even_2) | set(rs.odd)
        for node in diagram.nodes:
            assert node.root in positives
