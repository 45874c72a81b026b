"""Real-form names from reduced painted diagrams, and the family tables."""

import importlib
from fractions import Fraction

import pytest

from supervogan import (
    FamilyId,
    InvariantViolation,
    UnreducedInput,
    VoganDiagram,
    automorphisms,
    build_diagram,
    classify,
    classify_block,
    enumerate_real_forms,
    enumerate_vogan,
    flip,
    identity_involution,
    table_report,
)

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
        "F(4;3)": ("sl(2,R)", "so(1,6)"),
        "F(4;2)": ("sl(2,R)", "so(2,5)"),
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


def test_classify_block_rejects_multiple_painted():
    diagram = build_diagram(FamilyId("A", 3, 0))
    with pytest.raises(UnreducedInput):
        classify_block(diagram, (0, 1, 2), frozenset({0, 2}))


def test_classify_block_dictionary():
    diagram = build_diagram(FamilyId("A", 3, 0))
    block = (0, 1, 2)
    assert classify_block(diagram, block, frozenset()).name == "su(4)"
    assert classify_block(diagram, block, frozenset({1})).name == "su(2,2)"
    assert classify_block(diagram, block, frozenset({0})).name == "su(1,3)"
    diagram = build_diagram(FamilyId("C", 0, 3))
    block = (1, 2, 3)
    assert classify_block(diagram, block, frozenset()).name == "sp(3)"
    assert classify_block(diagram, block, frozenset({3})).name == "sp(6,R)"
    assert classify_block(diagram, block, frozenset({1})).name == "sp(1,2)"


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


def test_table_complex_names():
    report = table_report(build_diagram(FamilyId("B", 2, 2)))
    assert report.complex_name == "osp(5|4)"
    report = table_report(build_diagram(FamilyId("A", 2, 2)))
    assert report.complex_name.startswith("psl")


@pytest.mark.parametrize(
    "fam, painted",
    [
        (FamilyId("C", 0, 3), (1, 3)),  # _chain_position
        (FamilyId("B0", 0, 3), (0,)),  # _sp_side_position
    ],
)
def test_classify_rejects_a_canonical_painting_of_two_vertices(fam, painted, monkeypatch):
    module = importlib.import_module("supervogan.classify")
    monkeypatch.setattr(
        module, "canonical_block_painting", lambda d, block, *rest: frozenset(block[:2])
    )
    with pytest.raises(InvariantViolation):
        module.classify(vd_of(fam, painted))
