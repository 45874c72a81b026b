"""Fuzzed family specs, JSON documents and checked library calls: every
input either parses (or returns) or raises a ``SupervoganError``, and each
one is answered within a fixed time bound.  The alpha strategies lean on
what a rational reader finds hard: large exponents and very long digit
strings."""

import json
from fractions import Fraction
from time import perf_counter

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from supervogan import (
    DiagramInvolution,
    FamilyId,
    SupervoganError,
    VoganDiagram,
    automorphisms,
    block_sign,
    build_diagram,
    canonical_block_painting,
    dual_basis,
    emit_document,
    enumerate_vogan,
    flip,
    generate_roots,
    identity_involution,
    noncompact_parity,
    parse_document,
    weight,
)
from supervogan.cli import parse_family_spec

BOUND_S = 1

small_ints = st.integers(min_value=-3, max_value=20).map(str)
exponents = st.integers(min_value=-(10**9), max_value=10**9)
digit_runs = st.builds(lambda d, k: d * k, st.sampled_from("1907"), st.integers(1, 12_000))

alphas = st.one_of(
    st.fractions(max_denominator=10**6).map(str),
    st.builds("{}e{}".format, st.integers(-(10**6), 10**6), exponents),
    st.builds("{}.{}E{:+d}".format, st.integers(0, 999), st.integers(0, 999), exponents),
    st.builds("{}/{}".format, digit_runs, st.integers(1, 99)),
    digit_runs,
    st.builds("{}e{}".format, digit_runs, st.integers(-80, 80)),
    st.text(alphabet="0123456789/.eE-+_ ", max_size=90),
)

specs = st.one_of(
    st.builds("D(2,1;{})".format, alphas),
    st.builds("{}({},{})".format, st.sampled_from("ABCDFGH"), small_ints, small_ints),
    st.builds("{}({})".format, st.sampled_from("ABCDFGH"), st.one_of(small_ints, digit_runs)),
    st.builds("A({},1)".format, digit_runs),
    st.text(alphabet="ABCDFG(),;/-+.eE_ 0123456789²", max_size=40),
    st.text(max_size=40),
)


def answered(call, arg):
    """Run ``call(arg)``; a typed error counts as an answer.  Returns seconds."""
    start = perf_counter()
    try:
        call(arg)
    except SupervoganError:
        pass
    return perf_counter() - start


@settings(max_examples=300, deadline=None)
@given(specs)
def test_family_specs_parse_or_raise_a_typed_error(text):
    assert answered(parse_family_spec, text) < BOUND_S


def _document(family):
    diagram = build_diagram(family)
    return emit_document(VoganDiagram(diagram, identity_involution(len(diagram)), frozenset()))


BASE_DOCUMENTS = [
    _document(FamilyId("D21alpha", alpha=2)),
    _document(FamilyId("A", 2, 1)),
    _document(FamilyId("B", 1, 1)),
]

json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(10**30), max_value=10**30),
        st.text(max_size=12),
        alphas,
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=12,
)


@st.composite
def document_texts(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(BASE_DOCUMENTS))))
    choice = draw(st.integers(0, 4))
    if choice == 0:
        doc["family"]["alpha"] = draw(alphas)
    elif choice == 1:
        doc["family"][draw(st.sampled_from(["kind", "m", "n", "alpha"]))] = draw(json_values)
    elif choice == 2:
        doc[draw(st.sampled_from(["schema_version", "family", "nodes", "arrows"]))] = draw(
            json_values
        )
    elif choice == 3:
        # a number past the interpreter's digit limit, or nesting past its recursion limit
        return draw(st.sampled_from(['{"schema_version": ' + "7" * 5000 + "}", "[" * 100_000]))
    else:
        return draw(st.text(max_size=60))
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(document_texts())
def test_documents_parse_or_raise_a_typed_error(text):
    assert answered(parse_document, text) < BOUND_S


# ------------------------------------------------------------ library calls
# Each drawn call is (entry point, family, arguments).  Where an argument is
# an object the package takes on trust (a Diagram, the VoganDiagram that
# ``flip`` flips, an even root), an int picks a real one by position.

B22 = FamilyId("B", 2, 2)
LIBRARY_FAMILIES = [
    B22,
    FamilyId("A", 2, 2),
    FamilyId("A", 3, 1),
    FamilyId("C", 0, 3),
    FamilyId("D", 3, 2),
    FamilyId("B0", 0, 3),
    FamilyId("D21alpha", alpha=Fraction(1)),
    FamilyId("F4"),
    FamilyId("G3"),
]

indices = st.one_of(
    st.integers(min_value=-3, max_value=14),
    st.booleans(),
    st.none(),
    st.floats(),
    st.fractions(max_denominator=3),
    st.text(max_size=3),
)
index_sets = st.one_of(
    indices,
    st.lists(indices, max_size=5),
    st.tuples(indices, indices),
    st.frozensets(st.integers(min_value=-1, max_value=12), max_size=6),
    st.frozensets(indices, max_size=4),
    st.lists(st.lists(indices, max_size=2), max_size=2),
)
perms = st.one_of(
    st.integers(min_value=1, max_value=13).flatmap(lambda n: st.permutations(range(n))),
    index_sets,
)
involutions = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.builds(
        DiagramInvolution,
        st.sampled_from(["identity", "swap", "reversal"]),
        st.integers(min_value=1, max_value=13).flatmap(lambda n: st.permutations(range(n))),
    ),
    st.none(),
    st.text(max_size=3),
)
roots = st.one_of(
    st.integers(min_value=-60, max_value=60),
    st.builds(weight, *[st.lists(st.integers(-2, 2), max_size=4)] * 2),
    index_sets,
)
coordinates = st.one_of(
    st.lists(st.one_of(indices, st.integers(-(10**20), 10**20)), max_size=4), indices
)
families = st.sampled_from(LIBRARY_FAMILIES)


def _vogan(diagram, which, painted):
    autos = automorphisms(diagram)
    inv = autos[which % len(autos)] if type(which) is int else which
    return VoganDiagram(diagram, inv, painted)


def _flip(diagram, which, at):
    items = enumerate_vogan(diagram)
    return flip(items[which % len(items)], at)


def _parity(diagram, painted, v):
    if type(v) is int:
        even = generate_roots(diagram).even()
        v = even[v % len(even)] if v >= 0 else -even[v % len(even)]
    return noncompact_parity(diagram, painted, v)


def _block_painting(diagram, which):
    if type(which) is int and which >= 0:
        items = enumerate_vogan(diagram)
        which = items[which % len(items)]
    return canonical_block_painting(which)


ENTRIES = {
    "VoganDiagram": _vogan,
    "flip": _flip,
    "noncompact_parity": _parity,
    "canonical_block_painting": _block_painting,
    "dual_basis": dual_basis,
    "block_sign": block_sign,
    "DiagramInvolution": lambda diagram, name, perm: DiagramInvolution(name, perm),
    "identity_involution": lambda diagram, size: identity_involution(size),
    "weight": lambda diagram, e_part, d_part: weight(e_part, d_part),
}

library_calls = st.one_of(
    st.tuples(st.just("VoganDiagram"), families, involutions, index_sets),
    st.tuples(st.just("flip"), families, st.integers(0, 10**4), indices),
    st.tuples(st.just("noncompact_parity"), families, index_sets, roots),
    st.tuples(
        st.just("canonical_block_painting"), families, st.one_of(st.integers(0, 10**4), index_sets)
    ),
    st.tuples(st.just("dual_basis"), families, index_sets),
    st.tuples(st.just("block_sign"), families, index_sets),
    st.tuples(st.just("DiagramInvolution"), families, st.text(max_size=3), perms),
    st.tuples(st.just("identity_involution"), families, indices),
    st.tuples(st.just("weight"), families, coordinates, coordinates),
)


@settings(max_examples=400, deadline=None)
@given(library_calls)
# node 1 of B(2,2) is odd and isotropic: its eps is 0
@example(("dual_basis", B22, (0, 1)))
@example(("block_sign", B22, (1,)))
# a list is not hashable, so the root table cannot look it up
@example(("noncompact_parity", B22, frozenset(), [1, 2]))
def test_library_calls_return_or_raise_a_typed_error(call):
    name, fam, *args = call
    diagram = build_diagram(fam)
    assert answered(lambda args: ENTRIES[name](diagram, *args), args) < BOUND_S
