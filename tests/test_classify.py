"""Real-form names from reduced painted diagrams, and the family tables."""

import ast
import importlib
import inspect
import itertools
from fractions import Fraction
from time import perf_counter

import pytest

from supervogan import (
    FamilyId,
    InvariantViolation,
    VoganDiagram,
    automorphisms,
    build_diagram,
    canonical_block_painting,
    classify,
    enumerate_real_forms,
    enumerate_vogan,
    even_blocks,
    flip,
    flip_orbit,
    identity_involution,
    table_report,
)
from supervogan import cli
from supervogan.classify import _halves
from supervogan.vogan import _made, _orbit_keys
from test_acceptance import families
from test_algebra import guard_families

Q = Fraction


def vd_of(fam, painted=(), inv_name="identity"):
    diagram = build_diagram(fam)
    inv = next(g for g in automorphisms(diagram) if g.name == inv_name)
    return VoganDiagram(diagram, inv, frozenset(painted))


def names(fam):
    return {d.super_name for d in enumerate_real_forms(build_diagram(fam))}


# ------------------------------------------------------------------ counts


def test_real_form_counts():
    assert len(names(FamilyId("B0", 0, 1))) == 1
    assert len(names(FamilyId("B0", 0, 2))) == 1
    assert len(names(FamilyId("B0", 0, 3))) == 1
    assert len(names(FamilyId("G3"))) == 2
    assert len(names(FamilyId("F4"))) == 4
    assert len(names(FamilyId("D21alpha", alpha=Q(1)))) == 3
    assert len(names(FamilyId("D21alpha", alpha=Q(3, 5)))) == 2
    assert len(names(FamilyId("C", 0, 3))) == 3
    assert len(names(FamilyId("A", 1, 1))) == 4


# ----------------------------------------------------------- specific names


def test_b0_name():
    (form,) = enumerate_real_forms(build_diagram(FamilyId("B0", 0, 2)))
    assert form.super_name == "osp(1|4;R)"
    assert form.even_parts == ("sp(4,R)",)


def test_b_family_names():
    got = {
        d.super_name: d.even_parts
        for d in enumerate_real_forms(build_diagram(FamilyId("B", 2, 2)))
    }
    assert got == {
        "osp(0,5|4;R)": ("sp(4,R)", "so(5)"),
        "osp(2,3|4;R)": ("sp(4,R)", "so(2,3)"),
        "osp(1,4|4;R)": ("sp(4,R)", "so(1,4)"),
    }


def test_c_family_names():
    got = {
        d.super_name: d.even_parts
        for d in enumerate_real_forms(build_diagram(FamilyId("C", 0, 3)))
    }
    assert got == {
        "osp(2|6;H)": ("so*(2)", "sp(3)"),
        "osp(2|2,4;H)": ("so*(2)", "sp(1,2)"),
        "osp(2|6;R)": ("so*(2)", "sp(6,R)"),
    }


def test_d_family_names():
    got = {
        d.super_name: (d.even_parts, d.involution)
        for d in enumerate_real_forms(build_diagram(FamilyId("D", 3, 2)))
    }
    assert got == {
        "osp(0,6|4;R)": (("sp(4,R)", "so(6)"), "identity"),
        "osp(2,4|4;R)": (("sp(4,R)", "so(2,4)"), "identity"),
        "osp(6|4;H)": (("sp(2)", "so*(6)"), "identity"),
        "osp(6|2,2;H)": (("sp(1,1)", "so*(6)"), "identity"),
        "osp(1,5|4;R)": (("sp(4,R)", "so(1,5)"), "swap"),
        "osp(3,3|4;R)": (("sp(4,R)", "so(3,3)"), "swap"),
    }


def test_a_equal_rank_names():
    got = {
        d.super_name: d.even_parts
        for d in enumerate_real_forms(build_diagram(FamilyId("A", 1, 1)))
    }
    assert got == {
        "psu(0,2|0,2)": ("su(2)", "su(2)"),
        "psu(0,2|1,1)": ("su(2)", "su(1,1)"),
        "psu(1,1|1,1)": ("su(1,1)", "su(1,1)"),
        "psl(2|2;H)": ("su*(2)", "su*(2)"),
    }


def test_a_reversal_parity_rule():
    # reversal of A(n,n): H-type only when the side size is even
    forms = enumerate_real_forms(build_diagram(FamilyId("A", 2, 2)))
    rev = [d for d in forms if d.involution == "reversal"]
    assert [d.super_name for d in rev] == ["psl(3|3;R)"]
    assert rev[0].even_parts == ("sl(3,R)", "sl(3,R)")
    forms = enumerate_real_forms(build_diagram(FamilyId("A", 3, 3)))
    rev = [d for d in forms if d.involution == "reversal"]
    assert [d.super_name for d in rev] == ["psl(4|4;H)"]
    assert rev[0].even_parts == ("su*(4)", "su*(4)")


def test_a_unequal_names():
    got = {d.super_name for d in enumerate_real_forms(build_diagram(FamilyId("A", 2, 1)))}
    assert got == {
        "su(0,3|0,2)",
        "su(1,2|0,2)",
        "su(0,3|1,1)",
        "su(1,2|1,1)",
    }
    for d in enumerate_real_forms(build_diagram(FamilyId("A", 2, 1))):
        assert d.even_parts[-1] == "iR"


def test_f4_names():
    got = {
        d.super_name: d.even_parts
        for d in enumerate_real_forms(build_diagram(FamilyId("F4")))
    }
    assert got == {
        "F(4;0)": ("sl(2,R)", "so(7)"),
        "F(4;3)": ("su(2)", "so(1,6)"),
        "F(4;2)": ("su(2)", "so(2,5)"),
        "F(4;1)": ("sl(2,R)", "so(3,4)"),
    }


def test_g3_names():
    got = {
        d.super_name: d.even_parts
        for d in enumerate_real_forms(build_diagram(FamilyId("G3")))
    }
    assert got == {
        "G(3,0)": ("sl(2,R)", "G2,0"),
        "G(3,1)": ("sl(2,R)", "G2,2"),
    }


def test_d21_names():
    got = {
        d.super_name: (d.even_parts, d.involution)
        for d in enumerate_real_forms(build_diagram(FamilyId("D21alpha", alpha=Q(1))))
    }
    assert got == {
        "D(2,1;1;1)": (("su(2)", "su(2)", "sl(2,R)"), "identity"),
        "D(2,1;1;0)": (("sl(2,R)", "sl(2,R)", "sl(2,R)"), "identity"),
        "D(2,1;1;2)": (("sl(2,C)", "sl(2,R)"), "swap"),
    }


def test_d21_k_rule():
    fam = FamilyId("D21alpha", alpha=Q(1))
    assert classify(vd_of(fam)).super_name == "D(2,1;1;1)"
    assert classify(vd_of(fam, {0})).super_name == "D(2,1;1;1)"
    assert classify(vd_of(fam, {2, 3})).super_name == "D(2,1;1;0)"
    assert classify(vd_of(fam, {0, 2, 3})).super_name == "D(2,1;1;0)"


# ----------------------------------------------------------------- behavior


def reference_walk(diagram):
    """The walk ``enumerate_real_forms`` replaced: every painting built as a
    Vogan diagram, each orbit covered through ``flip_orbit``, and ``classify``
    run on the first painting of each orbit.  Returns the representatives and
    the distinct real forms in first-seen order."""
    reps, seen, covered = [], {}, set()
    for vd in enumerate_vogan(diagram):
        if vd in covered:
            continue
        covered.update(flip_orbit(vd))
        reps.append(vd)
        desc = classify(vd)
        seen.setdefault(desc.super_name, desc)
    return reps, tuple(seen.values())


@pytest.mark.parametrize("fam", families(6, 6), ids=lambda f: f.display())
def test_orbit_walk_matches_the_reference_walk(fam):
    diagram = build_diagram.__wrapped__(fam)  # unguarded: A(6,6) has 13 nodes
    reps, forms = reference_walk(diagram)
    assert [_made(diagram, inv, first) for inv, first, _ in _orbit_keys(diagram)] == reps
    assert enumerate_real_forms(diagram) == forms


def test_classify_is_constant_on_flip_orbits():
    for fam in [
        FamilyId("A", 2, 2),
        FamilyId("B", 2, 1),
        FamilyId("C", 0, 3),
        FamilyId("D", 3, 1),
        FamilyId("F4"),
        FamilyId("G3"),
    ]:
        diagram = build_diagram(fam)
        for v in enumerate_vogan(diagram):
            base = classify(v).super_name
            for at in sorted(v.painted):
                assert classify(flip(v, at)).super_name == base


def test_classify_accepts_unreduced_paintings():
    # classify reduces internally: a 2-painted A-chain names the same form
    v = vd_of(FamilyId("A", 3, 0), painted={0, 2})
    w = vd_of(FamilyId("A", 3, 0), painted={1})
    assert classify(v) == classify(w)


def test_classify_block_dictionary():
    # A(3,0) is su(4|1): its first side is the chain of nodes 1..3
    def su_side(painted):
        return classify(vd_of(FamilyId("A", 3, 0), painted)).even_parts[0]

    assert su_side(()) == "su(4)"
    assert su_side({1}) == "su(2,2)"
    assert su_side({0}) == "su(1,3)"

    # C(4) is osp(2|6): its symplectic side is the chain of nodes 2..4
    def sp_side(painted):
        return classify(vd_of(FamilyId("C", 0, 3), painted)).even_parts[1]

    assert sp_side(()) == "sp(3)"
    assert sp_side({3}) == "sp(6,R)"
    assert sp_side({1}) == "sp(1,2)"


# -------------------------------------------------------------------- tables


@pytest.mark.parametrize(
    "fam",
    [
        FamilyId("F4"),
        FamilyId("G3"),
        FamilyId("B0", 0, 2),
        FamilyId("B0", 0, 3),
        FamilyId("D21alpha", alpha=Q(1)),
        FamilyId("D21alpha", alpha=Q(-2)),
        FamilyId("D21alpha", alpha=Q(2, 3)),
        FamilyId("B", 2, 2),
        FamilyId("B", 1, 2),
        FamilyId("C", 0, 3),
        FamilyId("C", 0, 4),
        FamilyId("D", 3, 2),
        FamilyId("D", 2, 2),
        FamilyId("A", 1, 1),
        FamilyId("A", 2, 2),
    ],
    ids=lambda f: f.display(),
)
def test_table_clean(fam):
    report = table_report(build_diagram(fam))
    assert report.missing == ()
    assert report.unexpected == ()
    assert report.even_mismatches == ()
    assert report.clean()


def test_table_a_unequal_reports_unreachable_rows():
    """The distinguished-diagram enumeration cannot reach the split and
    quaternionic forms of sl(m+1|n+1) when m != n; the table says so."""
    report = table_report(build_diagram(FamilyId("A", 2, 1)))
    assert report.missing == ("sl(3|2;R)",)
    assert not report.clean()
    report = table_report(build_diagram(FamilyId("A", 3, 1)))
    assert set(report.missing) == {"sl(4|2;R)", "sl(4|2;H)"}
    assert report.unexpected == ()


def test_every_guard_family_finishes_its_table_in_under_a_second():
    """One cold store, then ``table`` on every family the rank guard admits
    (9 to 12 nodes included).  Only A(m,n) with m != n is unclean, and only
    by the rows its distinguished diagram cannot reach."""
    build_diagram.cache_clear()
    for fam in guard_families():
        start = perf_counter()
        report = table_report(build_diagram(fam))
        assert perf_counter() - start < 1, fam.display()
        assert report.unexpected == () and report.even_mismatches == (), fam.display()
        if fam.kind == "A" and fam.m != fam.n:
            M, N = fam.m + 1, fam.n + 1
            missing = [f"sl({M}|{N};R)"] + ([f"sl({M}|{N};H)"] if M % 2 == N % 2 == 0 else [])
            assert report.missing == tuple(missing), fam.display()
        else:
            assert report.clean(), fam.display()


def test_table_complex_names():
    report = table_report(build_diagram(FamilyId("B", 2, 2)))
    assert report.complex_name == "osp(5|4)"
    report = table_report(build_diagram(FamilyId("A", 2, 2)))
    assert report.complex_name.startswith("psl")


@pytest.mark.parametrize(
    "fam, painted",
    [
        (FamilyId("C", 0, 3), (1, 3)),  # the C(4) chain, nodes 1..3
        # the painted prong makes the orthogonal side so*(6), so the
        # symplectic chain of nodes 0..1 is canonicalised
        (FamilyId("D", 3, 3), (0, 4)),
    ],
)
def test_classify_rejects_a_canonical_painting_of_two_vertices(fam, painted, monkeypatch):
    """A walk that misses the painting's block orbits, as if they held no
    single vertex: the record's build finds block paintings no walk filled
    and raises, so neither naming nor reducing reads a key of two vertices."""
    module = importlib.import_module("supervogan.vogan")
    vd = vd_of(fam, painted)
    parts = {module._mask(vd.painted & set(block)) for block in even_blocks(vd.diagram)}
    walk = module._painting_orbit

    def missing_the_painting(masks, start):
        orbit = walk(masks, start)
        return {} if parts & orbit.keys() else orbit

    monkeypatch.setattr(module, "_painting_orbit", missing_the_painting)
    build_diagram.cache_clear()  # a cold store: the record is built under the patch
    try:
        with pytest.raises(InvariantViolation, match="no single vertex"):
            classify(vd)
        with pytest.raises(InvariantViolation, match="no single vertex"):
            module.reduce_with_trail(vd)
    finally:
        build_diagram.cache_clear()  # later tests get a whole record


def test_classify_checks_no_painting_again(monkeypatch, capsys):
    """A ``VoganDiagram``'s constructor checked its painting, so naming every
    painting of D(10,2) builds no painting mask from a checked index set:
    ``_painted_mask`` is not called, where it once ran twice per side."""
    algebra, vogan = (importlib.import_module(f"supervogan.{m}") for m in ("algebra", "vogan"))
    calls = []
    real = algebra._painted_mask

    def counted(diagram, painted):
        calls.append(painted)
        return real(diagram, painted)

    for module in (algebra, vogan):
        if hasattr(module, "_painted_mask"):
            monkeypatch.setattr(module, "_painted_mask", counted)
    assert cli.main(["enumerate", "D(10,2)", "--classify"]) == 0
    assert capsys.readouterr().out.count("g = ") == 2560
    assert calls == []


@pytest.mark.parametrize("k", range(2, 9))
def test_symplectic_long_root_keeps_its_paint_under_flips(k):
    """What classify relies on for the symplectic side of B, B(0,n) and D:
    on the chain plus long root of C(k), no flip changes the long root's
    paint, and with it painted the canonical painting is that root alone."""
    diagram = build_diagram(FamilyId("C", 0, k - 1))
    block = tuple(range(1, k))
    long_root = k - 1
    for r in range(len(block) + 1):
        for combo in itertools.combinations(block, r):
            vd = VoganDiagram(diagram, identity_involution(k), frozenset(combo))
            painted = long_root in vd.painted
            assert all((long_root in w.painted) == painted for w in flip_orbit(vd))
            if painted:
                assert canonical_block_painting(vd) == frozenset({long_root})


# ------------------------------------------------------------------- halves


def expected_halves(fam):
    """The epsilon and delta halves of the even blocks, written from the
    family's kind, m and n: each block a run of node indices."""
    k, m, n = fam.kind, fam.m, fam.n

    def run(first, last):  # one block of nodes first..last, or none
        return (tuple(range(first, last + 1)),) if first <= last else ()

    if k == "A":
        return run(0, m - 1), run(m + 1, m + n)
    if k == "D" and m == 2:
        return ((n,), (n + 1,)), run(0, n - 2)
    if k in ("B", "D"):
        return run(n, n + m - 1), run(0, n - 2)
    if k == "B0":
        return (), run(0, n - 2)
    if k == "C":
        return (), run(1, n)  # C(k) has n = k - 1
    if k == "F4":
        return ((1, 2, 3),), ()
    if k == "G3":
        return ((1, 2),), ()
    raise AssertionError(k)


def test_halves_are_the_epsilon_and_delta_blocks():
    fams = [fam for fam in guard_families() if fam.kind != "D21alpha"]
    assert {fam.kind for fam in fams} == {"A", "B", "B0", "C", "D", "F4", "G3"}
    for fam in fams:
        assert _halves(build_diagram(fam)) == expected_halves(fam), fam.display()


def test_only_the_reference_rows_count_nodes():
    """Every namer reads its sides off ``_halves``: no function of classify
    but the reference rows and names calls ``range``."""
    tree = ast.parse(inspect.getsource(importlib.import_module("supervogan.classify")))
    counting = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "range"
            for sub in ast.walk(node)
        )
    }
    assert counting == {"_expected_rows"}


def test_classify_keys_a_painting_at_most_once(monkeypatch):
    """A namer that reads a position computes the canonical painting once,
    however many sides it names; B(0,n), D(2,1;alpha) and the A(n,n)
    reversal read no position and compute none."""
    calls = []

    def counted(vd):
        calls.append(vd)
        return canonical_block_painting(vd)

    monkeypatch.setattr(importlib.import_module("supervogan.classify"), "canonical_block_painting", counted)
    expected = {
        "A(2,2)": {"identity": {1}, "reversal": {0}},
        "A(3,1)": {"identity": {1}},
        "B(2,2)": {"identity": {1}},
        "C(4)": {"identity": {1}},
        "D(4,2)": {"identity": {1}, "swap": {1}},
        "F(4)": {"identity": {1}},
        "G(3)": {"identity": {1}},
        "B(0,4)": {"identity": {0}},
        "D(2,1;1)": {"identity": {0}, "swap": {0}},
    }
    for spec, counts in expected.items():
        seen = {}
        for vd in enumerate_vogan(build_diagram(cli.parse_family_spec(spec))):
            calls.clear()
            classify(vd)
            seen.setdefault(vd.involution.name, set()).add(len(calls))
        assert seen == counts, spec
