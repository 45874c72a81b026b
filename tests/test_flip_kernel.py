"""The bitmask flip kernel against oracles written here from the flip rule.

Orbits are recomputed in this file with plain sets, straight from the rule
"a flip at a painted node toggles every other fixed even node whose Cartan
entry in the flipped node's row is an odd integer".  Table sizes come from
closed forms, not from the package's reference rows.
"""

import contextlib
import importlib
import io
import json
from collections import deque
from fractions import Fraction
from itertools import combinations

import pytest

from supervogan import (
    EVEN,
    FamilyId,
    VoganDiagram,
    automorphisms,
    build_diagram,
    canonical_block_painting,
    cartan_matrix,
    classify,
    enumerate_real_forms,
    enumerate_vogan,
    even_blocks,
    flip,
    flip_orbit,
    node_count,
    reduce_with_trail,
)
from supervogan.cli import main as cli_main
from supervogan.vogan import _nodes, _orbit_keys
from test_acceptance import ALPHAS
from test_algebra import all_families, guard_families

Q = Fraction


def families_up_to(nodes):
    fams = all_families(nodes, nodes + 1)
    return [build_diagram(fam) for fam in fams if node_count(fam) <= nodes]


# the 12-node families with the largest flip orbits, one to 1,024 paintings
TRAIL_GIANTS = (("C", 0, 11), ("A", 11, 0), ("B", 6, 6), ("D", 6, 6))
# every family the rank guard admits, and D(2,1;alpha) at each alpha
GUARD_AND_ALPHAS = list(
    dict.fromkeys(guard_families() + [FamilyId("D21alpha", alpha=a) for a in ALPHAS])
)


def set_orbit(diagram, perm, painted):
    """Flip orbit of one painting by a set-based BFS over the flip rule."""
    a = cartan_matrix(diagram).matrix
    fixed_even = [
        j for j, node in enumerate(diagram.nodes) if node.kind == EVEN and perm[j] == j
    ]

    def odd_integer(x):
        return x.denominator == 1 and x.numerator % 2 == 1

    seen = {painted}
    queue = deque([painted])
    while queue:
        cur = queue.popleft()
        for at in cur:
            toggled = {j for j in fixed_even if j != at and odd_integer(a[at][j])}
            nxt = frozenset(cur ^ toggled)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)


def bfs_trail(diagram, perm, painted, goal):
    """The flips that a breadth-first walk from ``painted`` records on its
    way to ``goal``, each painting expanding its painted nodes lowest first:
    the flip rule of ``set_orbit``, over node masks for speed."""
    a = cartan_matrix(diagram).matrix
    fixed_even = [
        j for j, node in enumerate(diagram.nodes) if node.kind == EVEN and perm[j] == j
    ]
    toggles = {
        at: sum(
            1 << j
            for j in fixed_even
            if j != at and a[at][j].denominator == 1 and a[at][j].numerator % 2
        )
        for at in fixed_even
    }
    start, end = (sum(1 << i for i in p) for p in (painted, goal))
    parents = {start: None}
    queue = deque([start])
    while end not in parents:
        cur = queue.popleft()
        for at in fixed_even:
            if cur >> at & 1 and cur ^ toggles[at] not in parents:
                parents[cur ^ toggles[at]] = (cur, at)
                queue.append(cur ^ toggles[at])
    trail = []
    while parents[end]:
        end, at = parents[end]
        trail.append(at)
    return trail[::-1]


@pytest.mark.parametrize(
    "diagram",
    families_up_to(8) + [build_diagram(FamilyId(*f)) for f in TRAIL_GIANTS],
    ids=lambda d: d.family.display(),
)
def test_reduce_reads_the_trail_a_walk_from_the_painting_records(diagram):
    """``reduce_with_trail`` reads its trail greedily off distances to the
    canonical painting; on every painting of every involution it is the
    trail a breadth-first walk rooted at the painting itself records."""
    for vd in enumerate_vogan(diagram):
        reduced, trail = reduce_with_trail(vd)
        expected = bfs_trail(diagram, vd.involution.perm, vd.painted, reduced.painted)
        assert [m.at for m in trail] == expected, (vd.involution.name, sorted(vd.painted))


def test_reduce_reads_the_trail_past_the_rank_guard():
    """Above the guard's 12 nodes, where no diagram the CLI builds goes, the
    trail still reads as the walk records it."""
    diagram = build_diagram.__wrapped__(FamilyId("C", 0, 12))  # unguarded: C(13)
    identity = automorphisms(diagram)[0]
    flipped = set()
    for painted in [{12}, {1, 12}, {3, 7, 12}, {2, 3, 4, 5, 12}, set(range(1, 13))]:
        reduced, trail = reduce_with_trail(VoganDiagram(diagram, identity, frozenset(painted)))
        assert [m.at for m in trail] == bfs_trail(diagram, identity.perm, painted, reduced.painted)
        flipped.update(m.at for m in trail)
    assert 12 in flipped


def test_the_kernel_makes_its_paintings_without_re_checking_them(monkeypatch, capsys):
    """The paintings ``enumerate_vogan`` lists and ``reduce_with_trail`` and
    ``flip`` return are made from masks of valid paintings, so the
    constructor's checks, kept for paintings from outside, never run on
    them: not even when each trail is replayed flip by flip."""
    checks, check = [], VoganDiagram.__post_init__
    monkeypatch.setattr(VoganDiagram, "__post_init__", lambda vd: checks.append(vd) or check(vd))
    assert cli_main(["enumerate", "D(10,2)", "--reduce", "--classify"]) == 0
    assert capsys.readouterr().out.startswith("D(10,2): 2560 painted diagrams")
    diagram = build_diagram(FamilyId("D", 10, 2))
    for vd in enumerate_vogan(diagram):
        reduced, trail = reduce_with_trail(vd)
        for move in trail:
            vd = flip(vd, move.at)
        assert vd == reduced
    assert checks == []
    VoganDiagram(diagram, automorphisms(diagram)[0], frozenset({2}))
    assert len(checks) == 1


def orbit_count(diagram):
    covered, count = set(), 0
    for vd in enumerate_vogan(diagram):
        key = (vd.involution.perm, vd.painted)
        if key in covered:
            continue
        count += 1
        covered |= {(vd.involution.perm, p) for p in set_orbit(diagram, *key)}
    return count


@pytest.mark.parametrize("fam", GUARD_AND_ALPHAS, ids=lambda fam: fam.display())
def test_every_block_orbit_holds_a_single_vertex(fam):
    """The Borel-de Siebenthal step on set orbits: under every involution,
    every nonempty painting of an even block is flip-equivalent to a single
    painted vertex, and ``canonical_block_painting`` returns one of them."""
    diagram = build_diagram(fam)
    for inv in automorphisms(diagram):
        fixed = frozenset(inv.fixed())
        for block in even_blocks(diagram):
            nodes = [i for i in block if i in fixed]
            covered = set()
            for r in range(1, len(nodes) + 1):
                for painted in map(frozenset, combinations(nodes, r)):
                    if painted in covered:
                        continue
                    orbit = set_orbit(diagram, inv.perm, painted)
                    covered |= orbit
                    singles = {p for p in orbit if len(p) == 1}
                    assert singles, (inv.name, block, sorted(painted))
                    canon = canonical_block_painting(VoganDiagram(diagram, inv, painted))
                    assert canon in singles, (inv.name, block, sorted(painted))


def test_flip_orbit_matches_set_bfs():
    checked = 0
    for diagram in families_up_to(7):
        for vd in enumerate_vogan(diagram):
            expected = set_orbit(diagram, vd.involution.perm, vd.painted)
            got = flip_orbit(vd)
            assert len(got) == len(expected)
            assert {w.painted for w in got} == expected
            assert all(w.involution == vd.involution for w in got)
            checked += 1
    assert checked > 2000


def test_flip_orbit_is_in_enumeration_order():
    """``flip_orbit`` lists its orbit as ``enumerate_vogan`` lists the same
    paintings, on every painting of every involution up to 8 nodes."""
    checked = 0
    for diagram in families_up_to(8):
        items = enumerate_vogan(diagram)
        orbits = {}  # (perm, painting): its set-based BFS orbit
        for vd in items:
            perm = vd.involution.perm
            orbit = orbits.get((perm, vd.painted))
            if orbit is None:
                orbit = set_orbit(diagram, perm, vd.painted)
                orbits.update(((perm, p), orbit) for p in orbit)
            expected = tuple(w for w in items if w.involution == vd.involution and w.painted in orbit)
            assert flip_orbit(vd) == expected
            checked += 1
    assert checked > 5000


@pytest.mark.parametrize("fam", GUARD_AND_ALPHAS, ids=lambda fam: fam.display())
def test_flip_orbits_yield_the_first_painting_of_each_set_orbit(fam):
    """``_orbit_keys`` lists, in enumeration order, exactly the paintings of
    ``enumerate_vogan`` that come first in their set-based BFS orbit, each
    with a canonical painting in that orbit."""
    diagram = build_diagram(fam)
    firsts, orbits, covered = [], [], set()
    for vd in enumerate_vogan(diagram):
        perm = vd.involution.perm
        if (perm, vd.painted) not in covered:
            orbit = set_orbit(diagram, perm, vd.painted)
            covered |= {(perm, p) for p in orbit}
            firsts.append((vd.involution, vd.painted))
            orbits.append(orbit)
    keys = _orbit_keys(diagram)
    assert [(inv, _nodes(first)) for inv, first, _ in keys] == firsts
    for (_, _, canon), orbit in zip(keys, orbits):
        assert _nodes(canon) in orbit


def test_enumerate_real_forms_is_first_seen_dedup_of_classify():
    for diagram in families_up_to(8):
        seen = {}
        for vd in enumerate_vogan(diagram):
            desc = classify(vd)
            seen.setdefault(desc.super_name, desc)
        assert enumerate_real_forms(diagram) == tuple(seen.values())


@pytest.mark.parametrize(
    "fam",
    [
        FamilyId("C", 0, 6),
        FamilyId("B", 3, 3),
        FamilyId("D", 4, 3),
        FamilyId("D", 3, 2),
        FamilyId("A", 3, 3),
        FamilyId("B0", 0, 5),
        FamilyId("D21alpha", alpha=Q(1)),
        FamilyId("F4"),
        FamilyId("G3"),
    ],
)
def test_classify_runs_once_per_flip_orbit(fam, monkeypatch):
    """``enumerate_real_forms`` names each flip orbit once, through the
    family's namer, and never names a painting twice."""
    module = importlib.import_module("supervogan.classify")
    namer, calls = module._NAMERS[fam.kind], []

    def counting(vd, *args):
        calls.append(vd)
        return namer(vd, *args)

    monkeypatch.setitem(module._NAMERS, fam.kind, counting)
    diagram = build_diagram(fam)
    module.enumerate_real_forms(diagram)
    assert len(calls) == orbit_count(diagram)
    assert len({(vd.involution.perm, vd.painted) for vd in calls}) == len(calls)


def _a_rows(n):
    k = (n + 1) // 2 + 1
    return k * (k + 1) // 2 + 1


@pytest.mark.parametrize(
    "spec, rows",
    [
        ("C(12)", 11 // 2 + 2),
        ("B(6,6)", 6 + 1),
        ("D(6,6)", 6 + 2 + 6 // 2),
        ("B(0,12)", 1),
        ("D(2,10)", 2 + 2 + 10 // 2),
        ("A(5,5)", _a_rows(5)),
    ],
)
def test_table_at_the_rank_guard(spec, rows):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["table", spec, "--format", "json"])
    assert code == 0
    report = json.loads(out.getvalue())
    assert report["clean"]
    assert len(report["computed"]) == rows
    assert len(report["expected"]) == rows
