"""Fuzzed family specs and JSON documents: every input either parses or
raises a ``SupervoganError``, and each one is answered within a fixed time
bound.  The alpha strategies lean on what a rational reader finds hard:
large exponents and very long digit strings."""

import json
from time import perf_counter

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from supervogan import (
    FamilyId,
    SupervoganError,
    VoganDiagram,
    build_diagram,
    emit_document,
    identity_involution,
    parse_document,
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
