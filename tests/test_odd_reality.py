"""The odd part of every named real form is of real type.

A real form g of a complex superalgebra has an odd part that is a real
g0-module, so its complexification g1 is of real type as a module of the
even part.  The type of a tensor product of irreducible modules is the
product of the factors' types: real (R) times real and quaternionic (H)
times quaternionic are real, real times quaternionic is quaternionic.

For B(m,n), B(0,n) and D(m,n), g1 is the vector of the orthogonal side
tensored with the vector of the symplectic side; for D(2,1;alpha) it is
2 (x) 2 (x) 2 over the three sl(2)s; for G(3) it is 2 (x) 7 over sl(2) + G2,
and for F(4) it is 2 (x) S over sl(2) + so(7), with S the 8-dimensional
spinor.  The type of each factor's module is written below, apart from the
package.  C(k), whose so(2) side is reducible, and A(m,n), where g1 = V + V*
is of complex type, are left out.
"""

import re

import pytest

from supervogan import FamilyId, build_diagram, enumerate_real_forms, table_report
from test_algebra import guard_families
from test_vogan import ADMISSIBLE_ALPHAS

R, H = "real", "quaternionic"

# the module of g1 that each even-part name acts on, by name
VECTOR_TYPES = [
    (r"so\(\d+(,\d+)?\)", R),  # the vector of so(p,q)
    (r"sp\(\d+,R\)", R),  # the vector of sp(2n,R)
    (r"sl\(2,R\)", R),
    (r"G2,[02]", R),  # the 7 of G2, both real forms
    (r"sl\(2,C\)", R),  # 2 (x) 2-bar of the two swapped sl(2)s of D(2,1;alpha)
    (r"sp\(\d+(,\d+)?\)", H),  # the vector of sp(p,q) and of compact sp(n)
    (r"so\*\(\d+\)", H),
    (r"su\(2\)", H),
]


def vector_type(name):
    for pattern, kind in VECTOR_TYPES:
        if re.fullmatch(pattern, name):
            return kind
    raise AssertionError(f"no module type for the even part {name!r}")


def spinor_type(name):
    """The spinor of so(p,q): real for p - q = +-1 mod 8, quaternionic for
    p - q = +-3 mod 8 (p + q = 7 here, so p - q is odd)."""
    match = re.fullmatch(r"so\((\d+)(?:,(\d+))?\)", name)
    assert match, name
    p, q = (0, int(match[1])) if match[2] is None else (int(match[1]), int(match[2]))
    return R if (p - q) % 8 in (1, 7) else H


def odd_part_type(kind, even_parts):
    types = [
        spinor_type(name) if kind == "F4" and name.startswith("so(") else vector_type(name)
        for name in even_parts
    ]
    return R if types.count(H) % 2 == 0 else H


def reality_families():
    fams = [f for f in guard_families() if f.kind in ("B", "B0", "D", "F4", "G3")]
    fams += [FamilyId("D21alpha", alpha=a) for a in ADMISSIBLE_ALPHAS]
    return list(dict.fromkeys(fams))


def test_the_type_table_reads_the_rule():
    assert [spinor_type(f"so({p},{7 - p})") for p in (1, 2, 3)] == [H, H, R]
    assert spinor_type("so(7)") == R
    assert odd_part_type("F4", ("sl(2,R)", "so(1,6)")) == H
    assert odd_part_type("F4", ("su(2)", "so(2,5)")) == R
    assert odd_part_type("D", ("sp(1,1)", "so*(6)")) == R
    assert odd_part_type("D21alpha", ("su(2)", "su(2)", "sl(2,R)")) == R
    assert odd_part_type("D21alpha", ("su(2)", "sl(2,R)", "sl(2,R)")) == H


@pytest.mark.parametrize("fam", reality_families(), ids=lambda f: f.display())
def test_every_row_has_an_odd_part_of_real_type(fam):
    diagram = build_diagram(fam)
    rows = [(d.super_name, d.even_parts) for d in enumerate_real_forms(diagram)]
    rows += list(table_report(diagram).expected)
    assert rows
    for name, even_parts in rows:
        assert odd_part_type(fam.kind, even_parts) == R, (name, even_parts)
