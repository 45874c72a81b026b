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

import pytest

from supervogan import (
    EVEN,
    FamilyId,
    build_diagram,
    cartan_matrix,
    classify,
    enumerate_real_forms,
    enumerate_vogan,
    flip_orbit,
)
from supervogan.cli import main as cli_main
from test_algebra import all_families

Q = Fraction


def families_up_to(nodes):
    diagrams = [build_diagram(fam) for fam in all_families(nodes, nodes + 1)]
    return [d for d in diagrams if len(d) <= nodes]


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


def orbit_count(diagram):
    covered, count = set(), 0
    for vd in enumerate_vogan(diagram):
        key = (vd.involution.perm, vd.painted)
        if key in covered:
            continue
        count += 1
        covered |= {(vd.involution.perm, p) for p in set_orbit(diagram, *key)}
    return count


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
    module = importlib.import_module("supervogan.classify")
    calls = []

    def counting(vd):
        calls.append(vd)
        return classify(vd)

    monkeypatch.setattr(module, "classify", counting)
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
