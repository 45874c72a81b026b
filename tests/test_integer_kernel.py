"""The integer root layer, and the integer Gram readings of the flip and
naming path, against plain ``Fraction`` oracles.

``root_expansion`` sums over ``int`` and ``noncompact_parity`` reads two node
masks per even root.  Here every root and its negative, on every family of
``EXPANSION_GRID``, is expanded again by ``fraction_gauss_jordan`` (pure
``Fraction`` elimination, no code shared with ``linalg.row_reduce``), and
each parity is the painted coefficients' sum mod 2 over that expansion.
Root hashes and the order of ``generate_roots`` are checked against the
plain dataclass definitions they shortcut.

The Gram record, the flip toggle masks and the diagram symmetries are read
over ``int``; here they are checked against inner products of the simple
roots, the ``Fraction`` Cartan matrix, and a permutation check written over
the ``Fraction`` Gram matrix.  No package path touches the ``Fraction``
layer: with ``row_reduce``, ``invert``, ``solve_exact``, ``cartan_matrix``
and the block inverse behind ``dual_basis`` raising, every
CLI verb and a root census still run, and ``table`` runs with ``bareiss``
raising.
"""

import random
import sys
from itertools import combinations

import pytest

from matrix_helpers import fraction_gauss_jordan
from supervogan import (
    EVEN,
    FamilyId,
    automorphisms,
    build_diagram,
    cartan_matrix,
    generate_roots,
    node_count,
    noncompact_parity,
    root_expansion,
    table_report,
)
from supervogan.algebra import gram_record
from supervogan.vogan import _kernel
from test_algebra import EXPANSION_GRID, Q, guard_families
from test_vogan import ADMISSIBLE_ALPHAS

SAMPLED_PAINTINGS = 64


def oracle_expansions(diagram, vectors):
    """Each vector's coefficients over the nodes, solved in ``Fraction``
    arithmetic.  D(2,1;alpha) is expanded over its even nodes, whose roots
    are independent; its odd node gets 0."""
    if diagram.family.kind == "D21alpha":
        basis = diagram.even_indices()
    else:
        basis = range(len(diagram))
    basis = list(basis)
    columns = [diagram.root(i).coords() for i in basis]
    pivots, e = fraction_gauss_jordan([list(row) for row in zip(*columns)])
    assert pivots == list(range(len(basis)))
    out = []
    for v in vectors:
        y = [sum((w * x for w, x in zip(row, v.coords())), Q(0)) for row in e]
        assert not any(y[len(basis):]), f"{v} is outside the span"
        coeffs = [Q(0)] * len(diagram)
        for i, c in zip(basis, y):
            coeffs[i] = c
        out.append(tuple(coeffs))
    return out


def paintings(diagram, seed):
    """Every set of nodes up to 8 nodes; above that a seeded sample."""
    nodes = range(len(diagram))
    if len(diagram) <= 8:
        return [frozenset(p) for r in range(len(diagram) + 1) for p in combinations(nodes, r)]
    rng = random.Random(seed)
    return [frozenset(i for i in nodes if rng.random() < 0.5) for _ in range(SAMPLED_PAINTINGS)]


@pytest.mark.parametrize("fam", EXPANSION_GRID, ids=lambda f: f.display())
def test_root_expansion_matches_fraction_elimination(fam):
    diagram = build_diagram(fam)
    signed = [v for r in generate_roots(diagram).all_positive() for v in (r, -r)]
    for v, want in zip(signed, oracle_expansions(diagram, signed)):
        assert root_expansion(diagram, v) == want


@pytest.mark.parametrize("fam", EXPANSION_GRID, ids=lambda f: f.display())
def test_noncompact_parity_is_the_painted_coefficient_sum_mod_2(fam):
    diagram = build_diagram(fam)
    signed = [v for r in generate_roots(diagram).even() for v in (r, -r)]
    coeffs = oracle_expansions(diagram, signed)
    assert all(c.denominator == 1 for row in coeffs for c in row)
    coeffs = [[c.numerator for c in row] for row in coeffs]
    for painted in paintings(diagram, seed=len(diagram)):
        for v, row in zip(signed, coeffs):
            assert noncompact_parity(diagram, painted, v) == sum(row[i] for i in painted) % 2


@pytest.mark.parametrize("fam", EXPANSION_GRID, ids=lambda f: f.display())
def test_root_hashes_and_order_are_the_dataclass_ones(fam):
    """A root hashes as the tuple of its two ``Fraction`` parts, and each
    part of ``generate_roots`` is sorted under the dataclass order."""
    rs = generate_roots(build_diagram(fam))
    for r in rs.all_positive():
        for v in (r, -r):
            assert hash(v) == hash((v.e_part, v.d_part))
    for part in (rs.even_1, rs.even_2, rs.odd):
        assert list(part) == sorted(part)


CLASSICAL = ("A", "B", "B0", "C", "D")


def test_a_classical_census_builds_no_root_key_from_fractions(monkeypatch):
    """With ``algebra._exact`` raising, a cold census still runs on every
    classical guard family: ``generate_roots``, ``gram_record`` and
    ``noncompact_parity`` on every positive even root read the ``int`` key
    that ``_weights`` set beside each root, and never rebuild it from the
    ``Fraction`` coordinates."""
    from supervogan import algebra

    def forbidden(part):
        raise AssertionError("a classical root's key was rebuilt from its coordinates")

    monkeypatch.setattr(algebra, "_exact", forbidden)
    fams = [f for f in guard_families() if f.kind in CLASSICAL]
    assert len(fams) == 221
    build_diagram.cache_clear()
    try:
        for fam in fams:
            diagram = build_diagram(fam)
            gram_record(diagram)
            painted = frozenset(diagram.even_indices()[::2])
            for v in generate_roots(diagram).even():
                noncompact_parity(diagram, painted, v)
    finally:
        build_diagram.cache_clear()


@pytest.mark.parametrize("fam", [FamilyId("F4"), FamilyId("G3")], ids=lambda fam: fam.display())
def test_an_exceptional_gram_record_builds_no_key_from_fractions(fam, monkeypatch):
    """F(4)'s and G(3)'s simple roots carry the key of their literal
    coordinates, so a cold Gram record of a fresh diagram never rebuilds one
    from the ``Fraction`` coordinates."""
    from supervogan import algebra

    def forbidden(part):
        raise AssertionError("a simple root's key was rebuilt from its coordinates")

    monkeypatch.setattr(algebra, "_exact", forbidden)
    gram_record(build_diagram.__wrapped__(fam))


def coordinate_key(part):
    """A part of the exact key, rebuilt here: each coordinate as an ``int``
    when it is one, else as its ``Fraction``; and the type of each entry."""
    key = tuple(int(x) if x.denominator == 1 else x for x in part)
    return key, tuple(map(type, key))


def test_every_root_keeps_the_key_its_coordinates_give():
    """On every simple and positive root of every guard family and of each
    of ``ADMISSIBLE_ALPHAS``, and on each negative, the key that orders and
    hashes it holds its coordinates, integral ones as ``int``s, and its hash
    is the hash of its two ``Fraction`` parts."""
    from supervogan.algebra import _exact_key

    fams = guard_families() + [FamilyId("D21alpha", alpha=a) for a in ADMISSIBLE_ALPHAS]
    fams = list(dict.fromkeys(fams))
    assert len(fams) == 231
    for fam in fams:
        diagram = build_diagram(fam)
        simple = [node.root for node in diagram.nodes]
        for r in simple + list(generate_roots(diagram).all_positive()):
            for v in (r, -r):
                e, d = _exact_key(v)
                assert (coordinate_key(e), coordinate_key(d)) == (
                    coordinate_key(v.e_part),
                    coordinate_key(v.d_part),
                ), (fam.display(), v)
                assert hash(v) == hash((v.e_part, v.d_part))


def test_a_gram_record_reads_a_root_without_a_key_as_one_with_it():
    """On a diagram whose simple roots carry no key (rebuilt as -(-r), as a
    hand-built or replaced node's root may be), the Gram record equals,
    ``int`` for ``int``, the one made from the keys ``_weights`` set.  B(0,n)
    has no e-part, and G(3) and the classical families need no scale."""
    from dataclasses import replace

    from supervogan.algebra import Diagram

    fams = [FamilyId("B0", 0, n) for n in (1, 2, 5)]
    fams += [FamilyId("A", 2, 1), FamilyId("B", 2, 3), FamilyId("C", n=4), FamilyId("D", 3, 2)]
    fams += [FamilyId("F4"), FamilyId("G3")]
    fams += [FamilyId("D21alpha", alpha=a) for a in ADMISSIBLE_ALPHAS]
    for fam in fams:
        built = build_diagram.__wrapped__(fam)
        nodes = tuple(replace(node, root=-(-node.root)) for node in built.nodes)
        assert not any(hasattr(node.root, "_key") for node in nodes)
        bare = Diagram(nodes, fam)
        assert bare == built
        cold = gram_record.__wrapped__(bare)
        assert cold == gram_record.__wrapped__(built), fam.display()
        assert all(type(x) is int for row in cold.rows + cold.coords for x in row)
        assert all(type(row) is tuple for row in cold.rows + cold.coords)


# ----------------------------------------------------- integer Gram readings

# 60 digits above and below the line; 1 + alpha < 0
LONG_ALPHA = Q(-(7 * 10**59 + 3), 3 * 10**59 + 1)


def gram_families():
    fams = guard_families() + [FamilyId("D21alpha", alpha=a) for a in ADMISSIBLE_ALPHAS]
    fams.append(FamilyId("D21alpha", alpha=LONG_ALPHA))
    return list(dict.fromkeys(fams))


def fraction_gram(diagram):
    return [[a.root.inner(b.root) for b in diagram.nodes] for a in diagram.nodes]


@pytest.mark.parametrize("fam", gram_families(), ids=lambda f: f.display())
def test_integer_readings_match_fraction_oracles(fam):
    diagram = build_diagram(fam)
    g = fraction_gram(diagram)
    size = len(diagram)

    # the integer Gram matrix over its denominator
    record = gram_record(diagram)
    assert all(type(x) is int for row in record.rows for x in row)
    over_den = [[Q(x, record.den) for x in row] for row in record.rows]
    assert over_den == g == [list(row) for row in cartan_matrix(diagram).symmetrized]

    # toggle masks: the odd-integer entries of each Fraction Cartan row
    a = cartan_matrix(diagram).matrix
    for inv in automorphisms(diagram):
        fixed = frozenset(inv.fixed())
        even = [j for j in fixed if diagram.nodes[j].kind == EVEN]
        want = tuple(
            sum(
                1 << j
                for j in even
                if j != i and a[i][j].denominator == 1 and a[i][j].numerator % 2
            )
            for i in range(size)
        )
        assert _kernel(diagram, fixed).masks == want, inv.name

    # symmetries: each candidate relabeling kept iff it is an involution
    # that keeps node kinds and the Fraction Gram matrix up to sign
    def symmetric(perm):
        return (
            all(perm[perm[i]] == i for i in range(size))
            and all(diagram.nodes[perm[i]].kind == diagram.nodes[i].kind for i in range(size))
            and all(
                abs(g[perm[i]][perm[j]]) == abs(g[i][j]) for i in range(size) for j in range(size)
            )
        )

    def swap(a, b):
        perm = list(range(size))
        perm[a], perm[b] = b, a
        return tuple(perm)

    candidates = []
    if fam.kind == "A":
        candidates = [("reversal", tuple(reversed(range(size))))]
    elif fam.kind == "D":
        candidates = [("swap", swap(size - 2, size - 1))]
    elif fam.kind == "D21alpha":
        candidates = [("swap", swap(a, b)) for a, b in ((0, 2), (0, 3), (2, 3))]
    want = [("identity", tuple(range(size)))] + [c for c in candidates if symmetric(c[1])]
    assert [(inv.name, inv.perm) for inv in automorphisms(diagram)] == want


def pin_family_kinds():
    return [
        FamilyId("A", 2, 2),
        FamilyId("A", 2, 1),
        FamilyId("B", 2, 2),
        FamilyId("B0", 0, 3),
        FamilyId("C", 0, 4),
        FamilyId("D", 3, 2),
        FamilyId("D21alpha", alpha=1),
        FamilyId("D21alpha", alpha=Q(3, 2)),
        FamilyId("F4"),
        FamilyId("G3"),
    ]


def forbid_the_fraction_layer(monkeypatch):
    """Make ``linalg.row_reduce``, ``invert`` and ``solve_exact`` and
    ``algebra.cartan_matrix`` raise, wherever the package binds them:
    ``dual_basis`` inverts its block through ``invert``, so it raises too."""
    from supervogan import algebra, linalg

    def forbidden(*args):
        raise AssertionError("a package path called the Fraction layer")

    kernels = [
        ("row_reduce", linalg.row_reduce),
        ("invert", linalg.invert),
        ("solve_exact", linalg.solve_exact),
        ("cartan_matrix", algebra.cartan_matrix),
    ]
    patched = set()
    for name, module in list(sys.modules.items()):
        if name != "supervogan" and not name.startswith("supervogan."):
            continue
        for attr, original in kernels:
            if getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, forbidden)
                patched.add(f"{name}.{attr}")
    assert {f"{original.__module__}.{attr}" for attr, original in kernels} <= patched


def test_the_naming_path_builds_no_fraction_inverse_or_cartan_matrix(monkeypatch):
    """With the ``Fraction`` layer raising, ``table_report`` still runs on a
    fresh store for a family of every kind."""
    forbid_the_fraction_layer(monkeypatch)
    build_diagram.cache_clear()
    try:
        for fam in pin_family_kinds():
            report = table_report(build_diagram(fam))
            assert report.computed, fam.display()
            assert report.clean() or fam.kind == "A" and fam.m != fam.n, fam.display()
    finally:
        build_diagram.cache_clear()


def test_table_runs_no_elimination(monkeypatch):
    """With ``algebra.bareiss`` raising, ``table_report`` still runs on a
    fresh store for every family of up to 8 nodes and every one of
    ``ADMISSIBLE_ALPHAS``: choosing each block orbit's canonical vertex
    inverts no block."""
    from supervogan import algebra

    def forbidden(*args):
        raise AssertionError("table ran an elimination")

    monkeypatch.setattr(algebra, "bareiss", forbidden)
    fams = [f for f in guard_families() if node_count(f) <= 8]
    fams += [FamilyId("D21alpha", alpha=a) for a in ADMISSIBLE_ALPHAS]
    build_diagram.cache_clear()
    try:
        for fam in dict.fromkeys(fams):
            assert table_report(build_diagram(fam)).computed, fam.display()
    finally:
        build_diagram.cache_clear()


def test_no_cli_verb_or_root_census_touches_the_fraction_layer(monkeypatch, capsys):
    """With the ``Fraction`` layer raising, every CLI verb runs in every
    format it takes, and so does a root census (``generate_roots``,
    ``root_expansion`` on every root and its negative, ``noncompact_parity``
    on every even root), on a fresh store for a family of every kind."""
    from supervogan.cli import main

    forbid_the_fraction_layer(monkeypatch)
    build_diagram.cache_clear()
    try:
        for fam in pin_family_kinds():
            spec = fam.display()
            painted = str(build_diagram(fam).even_indices()[0] + 1)
            runs = [["table", spec, "--format", f] for f in ("ascii", "json")]
            for f in ("ascii", "dot", "json"):
                runs += [
                    ["diagram", spec, "--format", f],
                    # DOT draws no name or trail
                    ["enumerate", spec, "--format", f] + ([] if f == "dot" else ["--reduce", "--classify"]),
                ]
                if f != "dot":
                    runs += [
                        ["reduce", spec, "--painted", painted, "--format", f],
                        ["classify", spec, "--painted", painted, "--format", f],
                    ]
            for argv in runs:
                code = main(argv)
                out, err = capsys.readouterr()
                assert code == 0 or argv[0] == "table" and code == 2, (argv, err)
                assert out and not err, argv
        for fam in pin_family_kinds():
            diagram = build_diagram(fam)
            roots = generate_roots(diagram)
            for r in roots.all_positive():
                assert root_expansion(diagram, r) == tuple(-c for c in root_expansion(diagram, -r))
            painted = frozenset(diagram.even_indices())
            assert {noncompact_parity(diagram, painted, r) for r in roots.even()} <= {0, 1}
    finally:
        build_diagram.cache_clear()
