"""``build_diagram`` interns: one shared ``Diagram`` per family.

Equal families reached by different routes get the same object, and the CLI
builds each family once per process.  Code must not rely on that identity:
a diagram equal to the interned one but built apart gets the same answers.
"""

import gc
import os
import pickle
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import supervogan
from supervogan import (
    FamilyId,
    VoganDiagram,
    build_diagram,
    classify,
    document_json,
    enumerate_real_forms,
    enumerate_vogan,
    equivalent,
    flip,
    generate_roots,
    identity_involution,
    node_count,
    parse_document,
    reduce_with_trail,
    render_ascii,
    table_report,
)
from supervogan.algebra import RANK_GUARD, STORE_BOUND, RankGuardExceeded
from supervogan.cli import main, parse_family_spec
from supervogan.vogan import _orbit_keys
from test_acceptance import families

Q = Fraction


def test_equal_families_get_one_diagram():
    assert build_diagram(FamilyId("B0", 0, 5)) is build_diagram(parse_family_spec("B(0,5)"))
    assert build_diagram(parse_family_spec("D(2,1;0.5)")) is build_diagram(
        parse_family_spec("D(2,1;1/2)")
    )
    assert build_diagram(FamilyId("D21alpha", alpha=Q(1, 2))) is build_diagram(
        parse_family_spec("D(2,1;0.5)")
    )


def test_c_families_ignore_m():
    """C(k) has no m, so any m is normalized away, as B(0,n)'s is."""
    assert FamilyId("C", 5, 3) == FamilyId("C", 0, 3)
    assert build_diagram(FamilyId("C", 5, 3)) is build_diagram(FamilyId("C", 0, 3))


def test_a_parsed_document_carries_the_interned_diagram():
    vd = enumerate_vogan(build_diagram(FamilyId("D", 3, 2)))[5]
    assert parse_document(document_json(vd)).diagram is vd.diagram


def _clear_package_caches():
    """Clear every module-level cache of the package."""
    for name, module in list(sys.modules.items()):
        if name.startswith("supervogan") and module is not None:
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def test_the_cli_builds_each_family_once(capsys):
    calls = [
        ["classify", "A(2,2)", "--painted", "1"],
        ["reduce", "A(2,2)", "--painted", "1,2", "--format", "json"],
        ["table", "A(2,2)"],
        ["classify", "D(2,1;3/5)", "--format", "json"],
        ["table", "D(2,1;0.6)", "--format", "json"],
        ["reduce", "D(2,1;6/10)", "--painted", "3"],
        ["table", "G(3)"],
        ["classify", "G(3)", "--painted", "2"],
        ["reduce", "C(4)", "--painted", "2,3"],
        ["classify", "C(4)"],
    ]
    _clear_package_caches()
    before = build_diagram.cache_info().misses
    for argv in calls:
        assert main(argv) == 0
    capsys.readouterr()
    assert build_diagram.cache_info().misses - before == 4


def _answers(diagram):
    report = table_report(diagram)
    forms = enumerate_real_forms(diagram)
    # a sample of paintings: all of them would take seconds at twelve nodes
    paintings = enumerate_vogan(diagram)[::23]
    return (
        (report.computed, report.expected, report.clean()),
        forms,
        [reduce_with_trail(vd) for vd in paintings],
        [classify(vd) for vd in paintings],
    )


@pytest.mark.parametrize(
    "fam",
    families(6, 6, alphas=(Q(1), Q(2), Q(-1, 2), Q(3, 5), Q(-7, 3))),
    ids=lambda fam: fam.display(),
)
def test_a_diagram_built_apart_gets_the_same_answers(fam):
    if node_count(fam) > RANK_GUARD:  # A(6,6): only the unguarded builder makes it
        with pytest.raises(RankGuardExceeded):
            build_diagram(fam)
        return
    apart = build_diagram.__wrapped__(fam)
    interned = build_diagram(fam)
    assert apart == interned and apart is not interned
    # each diagram computes its answers into its own record
    assert _answers(apart) == _answers(interned)


# Bytes the store may grow by.  STORE_BOUND diagrams of D(2,1;alpha) with
# their records measured 0.74-0.91 MB on CPython 3.10-3.13; unbounded, the
# three times as many families of the test kept 2.2-2.6 MB.
GROWTH_BOUND = 1_200_000


def test_the_store_keeps_at_most_store_bound_families():
    build_diagram.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(1, 3 * STORE_BOUND + 1):
            diagram = build_diagram(FamilyId("D21alpha", alpha=Q(k, 7)))
            if k == 1:
                first = weakref.ref(diagram)
            classify(VoganDiagram(diagram, identity_involution(4), frozenset({0})))
        del diagram
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert build_diagram.cache_info().currsize == STORE_BOUND
    assert first() is None
    assert grown < GROWTH_BOUND


@pytest.mark.parametrize("fam", [FamilyId("C", 0, 4), FamilyId("D", 3, 2)], ids=lambda fam: fam.display())
def test_a_dropped_diagram_is_freed_without_the_cycle_collector(fam):
    """No stored value refers back to its diagram, so a diagram no one holds
    is freed at once, record and all, and never waits for a collection of
    reference cycles."""
    diagram = build_diagram.__wrapped__(fam)  # not interned: only this test holds it
    held = weakref.ref(diagram)
    gc.disable()
    try:
        paintings = enumerate_vogan(diagram)
        for vd in paintings:
            classify(vd)
            reduced, trail = reduce_with_trail(vd)
            if trail:
                flip(vd, trail[0].at)
            equivalent(vd, paintings[0])
            render_ascii(vd)
            document_json(vd)
        _orbit_keys(diagram)
        del diagram, paintings, vd, reduced, trail
        assert held() is None
    finally:
        gc.enable()


def test_a_pickle_carries_no_record():
    diagram = build_diagram(FamilyId("B", 2, 1))
    roots = generate_roots(diagram)
    assert "_record" in vars(diagram)
    clone = pickle.loads(pickle.dumps(diagram))
    assert clone == diagram and vars(clone).keys() == {"nodes", "family"}
    assert generate_roots(clone) == roots and generate_roots(clone) is not roots


PICKLE_A_FAMILY = """
import pickle, sys
from fractions import Fraction
from supervogan import FamilyId
fam = FamilyId("D21alpha", alpha=Fraction(3, 5))
hash(fam)
sys.stdout.buffer.write(pickle.dumps(fam))
"""


@pytest.mark.parametrize("seed", ["1", "2"])
def test_a_pickled_family_carries_no_hash(seed):
    """A str hash is salted per process, so a family holds its four fields
    and nothing else: a family pickled in a process with another hash seed
    hashes, compares and interns as a fresh one does here."""
    fields = {"kind", "m", "n", "alpha"}
    fam = FamilyId("D21alpha", alpha=Q(3, 5))
    hash(fam)
    assert vars(fam).keys() == fields
    src = str(Path(supervogan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
    data = subprocess.run(
        [sys.executable, "-c", PICKLE_A_FAMILY], env=env, capture_output=True, check=True
    ).stdout
    back = pickle.loads(data)
    assert vars(back).keys() == fields
    assert back == fam and hash(back) == hash(fam) == hash(FamilyId("D21alpha", alpha=Q(3, 5)))
    assert build_diagram(back) is build_diagram(fam)
    assert pickle.loads(pickle.dumps(build_diagram(fam))).family == back
