"""ASCII and DOT rendering, JSON documents, and the document parser."""

import json
import time
from fractions import Fraction

import pytest
from golden_outputs import families

from supervogan import (
    FamilyId,
    ParseError,
    RankGuardExceeded,
    SupervoganError,
    VoganDiagram,
    automorphisms,
    build_diagram,
    classify,
    document_json,
    emit_document,
    enumerate_vogan,
    identity_involution,
    parse_document,
    reduce_with_trail,
    render_ascii,
    render_dot,
)
from supervogan.algebra import node_count
from supervogan.cli import main
from supervogan.render import document_array, to_json

Q = Fraction


def nested(depth):
    """An empty list inside ``depth`` lists, past the recursion limit of
    any printer or writer that recurses."""
    value = []
    for _ in range(depth):
        value = [value]
    return value


def vd_of(fam, painted=(), inv_name="identity"):
    diagram = build_diagram(fam)
    inv = next(g for g in automorphisms(diagram) if g.name == inv_name)
    return VoganDiagram(diagram, inv, frozenset(painted))


# ------------------------------------------------------------------- ascii


def test_ascii_linear_diagrams():
    assert render_ascii(vd_of(FamilyId("A", 1, 1))) == "o---(x)---o"
    assert render_ascii(vd_of(FamilyId("B", 1, 1))) == "(x)=>o"
    assert render_ascii(vd_of(FamilyId("B0", 0, 3))) == "o---o=>(*)"
    assert render_ascii(vd_of(FamilyId("B0", 0, 1))) == "(*)"
    assert render_ascii(vd_of(FamilyId("C", 0, 3))) == "(x)---o---o<=o"
    assert render_ascii(vd_of(FamilyId("F4"))) == "(x)---o<=o---o"
    assert render_ascii(vd_of(FamilyId("G3"))) == "(x)---o<<=o"


def test_ascii_painted_glyph():
    assert render_ascii(vd_of(FamilyId("A", 1, 1), painted={0})) == "*---(x)---o"
    assert render_ascii(vd_of(FamilyId("C", 0, 3), painted={1, 3})) == "(x)---*---o<=*"


def test_ascii_d_fork():
    text = render_ascii(vd_of(FamilyId("D", 3, 2), painted={2}))
    assert text == (
        "            o\n"
        "           /\n"
        "o---(x)---*\n"
        "           \\\n"
        "            o"
    )


def test_ascii_involution_annotation():
    text = render_ascii(vd_of(FamilyId("D", 3, 2), inv_name="swap"))
    assert text.endswith("4 <--> 5")
    text = render_ascii(vd_of(FamilyId("A", 2, 2), inv_name="reversal"))
    assert "1 <--> 5" in text and "2 <--> 4" in text


def test_ascii_d21_fork():
    text = render_ascii(vd_of(FamilyId("D21alpha", alpha=Q(-1, 2)), painted={0, 3}))
    assert text == (
        "        o\n"
        "       /\n"
        "*---(x)\n"
        "       \\\n"
        "        *"
    )


# --------------------------------------------------------------------- dot


def _parse_dot(text):
    """Tiny structural reader for the DOT we emit."""
    lines = text.strip().splitlines()
    assert lines[0].startswith("strict graph ") and lines[0].endswith(" {")
    assert lines[-1] == "}"
    nodes, edges = {}, []
    for line in lines[1:-1]:
        line = line.strip().rstrip(";")
        if line.startswith("node "):
            continue
        if " -- " in line:
            pair, _, attrs = line.partition(" [")
            a, b = pair.split(" -- ")
            edges.append((a, b, attrs.rstrip("]")))
        else:
            name, _, attrs = line.partition(" [")
            nodes[name] = attrs.rstrip("]")
    return nodes, edges


def test_dot_structure():
    text = render_dot(vd_of(FamilyId("B", 1, 1), painted={1}))
    nodes, edges = _parse_dot(text)
    assert set(nodes) == {"n1", "n2"}
    assert 'kind="odd_isotropic"' in nodes["n1"]
    assert 'painted="true"' in nodes["n2"] and 'style="filled"' in nodes["n2"]
    assert len(edges) == 1
    a, b, attrs = edges[0]
    assert {a, b} == {"n1", "n2"} and 'label="2"' in attrs


def test_dot_involution_edges():
    text = render_dot(vd_of(FamilyId("A", 2, 2), inv_name="reversal"))
    nodes, edges = _parse_dot(text)
    inv_edges = [(a, b) for a, b, attrs in edges if 'role="involution"' in attrs]
    assert sorted(inv_edges) == [("n1", "n5"), ("n2", "n4")]
    for a, b, attrs in edges:
        if 'role="involution"' in attrs:
            assert 'style="dashed"' in attrs


def test_dot_custom_graph_name():
    text = render_dot(vd_of(FamilyId("G3")), name="diagram7")
    assert text.startswith("strict graph diagram7 {")


@pytest.mark.parametrize("name", ["two words", "a{b", "7diagram", "", "diagramé", b"diagram", None])
def test_dot_refuses_a_graph_name_graphviz_would_not_read(name):
    """The name is written unquoted into ``strict graph NAME {``: anything
    but an ASCII identifier would make DOT that Graphviz rejects."""
    with pytest.raises(SupervoganError, match="is not an ASCII identifier"):
        render_dot(vd_of(FamilyId("G3")), name=name)


# -------------------------------------------------------------------- json


def test_document_shape():
    doc = emit_document(vd_of(FamilyId("D", 3, 2), painted={2}, inv_name="swap"))
    assert doc["schema_version"] == "1"
    assert doc["family"] == {"kind": "D", "m": 3, "n": 2}
    assert [n["index"] for n in doc["nodes"]] == [1, 2, 3, 4, 5]
    assert doc["nodes"][2]["painted"] is True
    assert doc["arrows"] == [[4, 5]]


def test_document_alpha_serialized_as_string():
    doc = emit_document(vd_of(FamilyId("D21alpha", alpha=Q(-1, 2))))
    assert doc["family"]["alpha"] == "-1/2"


@pytest.mark.parametrize(
    "value",
    [
        [],
        {},
        [[], {}, [[]], {"a": {}}],
        {"a": {"b": [1, [2, [3, {"c": None}]]]}, "d": []},
        "sp(2|1) \u2202 \u00e9 \U0001f600 \"q\" \\ \n\t\x00",
        {"\u00e9": "\u00e9"},
        [True, 1, False, 0, None],
        {"t": True, "one": 1},
        None,
        -7,
        10**40,
    ],
)
def test_to_json_is_json_dumps_with_indent_2(value):
    assert to_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value", [Q(1, 2), 1.5, (1, 2), [1, (2,)], {"a": Q(3)}, {1: "a"}, {None: 1}, set()]
)
def test_to_json_refuses_other_types(value):
    with pytest.raises(TypeError):
        to_json(value)


def test_roundtrip():
    cases = [
        vd_of(FamilyId("D", 3, 2), painted={2}, inv_name="swap"),
        vd_of(FamilyId("D21alpha", alpha=Q(-1, 2)), painted={0, 3}),
        vd_of(FamilyId("A", 2, 2), inv_name="reversal"),
        vd_of(FamilyId("B0", 0, 3)),
    ]
    for v in cases:
        assert parse_document(document_json(v)) == v
        assert parse_document(emit_document(v)) == v


def test_a_c_document_reads_and_writes_m_as_zero():
    """C(k) has no m: a document that gives one reads as the same family."""
    doc = emit_document(vd_of(FamilyId("C", 0, 3), painted={1}))
    doc["family"]["m"] = 5
    vd = parse_document(json.dumps(doc))
    assert vd.diagram is build_diagram(FamilyId("C", 0, 3))
    assert emit_document(vd)["family"] == {"kind": "C", "m": 0, "n": 3}


def test_document_json_carries_realform_and_trail():
    from supervogan import classify, reduce_with_trail

    v = vd_of(FamilyId("A", 3, 0), painted={0, 2})
    reduced, trail = reduce_with_trail(v)
    desc = classify(v)
    payload = json.loads(
        document_json(
            reduced,
            realform={"name": desc.super_name},
            trail=trail,
        )
    )
    assert payload["realform"]["name"] == desc.super_name
    assert payload["trail"] == [1, 2]


def _as_d21_with_alpha(alpha):
    """Mangler: the document becomes D(2,1;1)'s, with ``alpha`` in its family."""

    def mangle(doc):
        doc.clear()
        doc.update(emit_document(vd_of(FamilyId("D21alpha", alpha=1))))
        doc["family"]["alpha"] = alpha

    return mangle


def _as_a22_with_arrows(arrows):
    """Mangler: the document becomes A(2,2)'s, with ``arrows``."""

    def mangle(doc):
        doc.clear()
        doc.update(emit_document(vd_of(FamilyId("A", 2, 2))))
        doc["arrows"] = arrows

    return mangle


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d.__setitem__("schema_version", "9"),
        lambda d: d.__setitem__("family", {"kind": "Z", "m": 1, "n": 1}),
        lambda d: d["nodes"].pop(),
        lambda d: d["nodes"][0].__setitem__("kind", "spooky"),
        lambda d: d["nodes"][0].__setitem__("index", 7),
        lambda d: d.__setitem__("arrows", [[1, 2]]),
        lambda d: d["nodes"][2].__setitem__("painted", True),  # the odd node
        lambda d: d.__setitem__("arrows", [[1]]),
        lambda d: d.__setitem__("arrows", [[1, 99]]),
        lambda d: d["family"].__setitem__("alpha", [1]),
        # alpha only as a JSON string, and only on D(2,1;alpha)
        _as_d21_with_alpha(0.1),
        _as_d21_with_alpha(True),
        lambda d: d["family"].__setitem__("alpha", "1/2"),
        # values JSON cannot encode, which only a dict source can carry
        lambda d: d["family"].__setitem__("m", Q(2)),
        lambda d: d.__setitem__("family", {"kind": "Z", "m": 1, "n": 1, "tags": {7}}),
        # arrows only as a JSON list
        lambda d: d.__setitem__("arrows", None),
        lambda d: d.__setitem__("arrows", 5),
        lambda d: d.__setitem__("arrows", True),
        # a kind that is no string, and too long to print
        lambda d: d.__setitem__("family", {"kind": 10**5000, "m": 1, "n": 1}),
        # arrows emit_document never writes, once read as the identity and
        # as the reversal
        lambda d: d.__setitem__("arrows", [[3, 3]]),
        _as_a22_with_arrows([[1, 5], [2, 4], [2, 4]]),
        # a kind that is no string, nested past the recursion limit of a printer
        lambda d: d.__setitem__("family", {"kind": nested(5000)}),
    ],
)
def test_parse_document_rejects_mangled_documents(mangle):
    doc = emit_document(vd_of(FamilyId("A", 2, 1), painted={0}))
    mangle(doc)
    with pytest.raises(ParseError):
        parse_document(doc)


def test_parse_document_reads_an_arrow_either_way_round():
    doc = emit_document(vd_of(FamilyId("A", 2, 2), inv_name="reversal"))
    assert doc["arrows"] == [[1, 5], [2, 4]]
    doc["arrows"] = [[5, 1], [4, 2]]
    assert parse_document(doc).involution.name == "reversal"


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d["nodes"][0].__setitem__("painted", "false"),
        lambda d: d["nodes"][0].__setitem__("painted", 0),
        lambda d: d["nodes"][0].pop("painted"),
    ],
    ids=["string", "number", "missing"],
)
def test_parse_document_requires_a_boolean_painted_flag(mangle):
    doc = emit_document(vd_of(FamilyId("A", 2, 1)))
    mangle(doc)
    with pytest.raises(ParseError):
        parse_document(doc)


@pytest.mark.parametrize(
    "key, value",
    [("m", 1.9), ("m", 1.0), ("m", "1"), ("m", True), ("n", 1.0), ("n", True)],
)
def test_parse_document_requires_integer_family_parameters(key, value):
    # each value once read as the 1 of B(1,1), the family of the document
    doc = emit_document(vd_of(FamilyId("B", 1, 1)))
    doc["family"][key] = value
    with pytest.raises(ParseError):
        parse_document(doc)


@pytest.mark.parametrize("text", [False, True], ids=["dict", "text"])
@pytest.mark.parametrize("index", [True, 1.0])
def test_parse_document_requires_an_integer_node_index(index, text):
    # each value equals the 1 of node 1, and JSON text keeps its type
    doc = emit_document(vd_of(FamilyId("A", 2, 1)))
    doc["nodes"][0]["index"] = index
    with pytest.raises(ParseError, match="node index must be 1"):
        parse_document(json.dumps(doc) if text else doc)


@pytest.mark.parametrize("text", [False, True], ids=["dict", "text"])
@pytest.mark.parametrize(
    "fam, inv_name, node, message",
    [
        (FamilyId("A", 2, 1), "identity", 3, "node 3 is odd and cannot be painted"),
        (FamilyId("A", 2, 2), "reversal", 1, "node 1 is moved by the involution"),
    ],
    ids=["odd", "moved"],
)
def test_parse_document_names_an_unpaintable_node_from_1(fam, inv_name, node, message, text):
    """A painted node that is odd, or moved by the involution, is named as
    the command line names it, 1-based, at its position among the nodes;
    it was once numbered from 0, at position 0."""
    doc = emit_document(vd_of(fam, inv_name=inv_name))
    doc["nodes"][node - 1]["painted"] = True
    with pytest.raises(ParseError, match=f"^{message} at position {node - 1}: ") as info:
        parse_document(json.dumps(doc) if text else doc)
    assert info.value.pos == node - 1


@pytest.mark.parametrize("pair", [[1.0, 5.0], [True, 5], [1, "5"]])
def test_parse_document_requires_integer_arrow_indices(pair):
    doc = emit_document(vd_of(FamilyId("A", 2, 2), inv_name="reversal"))
    doc["arrows"] = [pair, [2, 4]]
    with pytest.raises(ParseError):
        parse_document(doc)


def test_parse_document_guards_rank_before_building():
    doc = emit_document(vd_of(FamilyId("A", 1, 0)))
    doc["family"] = {"kind": "A", "m": 3000, "n": 0}
    start = time.perf_counter()
    with pytest.raises(RankGuardExceeded, match="3001 nodes"):
        parse_document(doc)
    assert time.perf_counter() - start < 0.05
    doc["family"] = {"kind": "B", "m": 6, "n": 6}
    with pytest.raises(ParseError, match="expected 12 nodes"):
        parse_document(doc)


HUGE = 10**5000  # past the interpreter's limit on decimal digits


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d["family"].__setitem__("m", HUGE),
        lambda d: d["family"].__setitem__("m", -HUGE),
        lambda d: d.__setitem__("schema_version", HUGE),
        lambda d: d["nodes"][0].__setitem__("index", HUGE),
        lambda d: d.__setitem__("arrows", [[HUGE, 1]]),
    ],
    ids=["m", "negative-m", "schema-version", "node-index", "arrow"],
)
def test_parse_document_refuses_unprintable_integers_in_dict_sources(mangle):
    doc = emit_document(vd_of(FamilyId("A", 1, 1)))
    mangle(doc)
    with pytest.raises(ParseError):
        parse_document(doc)


def test_parse_document_rejects_bad_json_text():
    with pytest.raises(ParseError):
        parse_document("{not json")


@pytest.mark.parametrize("alpha", ["1e5000", "1e2000000"])
def test_parse_document_rejects_oversized_alpha_fast(alpha):
    doc = emit_document(vd_of(FamilyId("D21alpha", alpha=1)))
    doc["family"]["alpha"] = alpha
    for source in (doc, json.dumps(doc)):
        start = time.perf_counter()
        with pytest.raises(ParseError):
            parse_document(source)
        assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "text",
    ['{"schema_version": ' + "7" * 5000 + "}", "[" * 100_000],
    ids=["integer-past-digit-limit", "nesting-past-recursion-limit"],
)
def test_parse_document_rejects_json_past_interpreter_limits(text):
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_document(text)


def test_parse_document_maps_arrows_to_named_involution():
    v = vd_of(FamilyId("A", 2, 2), inv_name="reversal")
    parsed = parse_document(emit_document(v))
    assert parsed.involution.name == "reversal"


# ------------------------------------------------------------------ frames

# every family of up to 8 nodes, and D(2,1;alpha) for each alpha
FRAME_FAMILIES = [fam for fam in families() if node_count(fam) <= 8]


def reference_document(vd, realform=None, trail=None):
    """``vd``'s document built field by field, apart from the package's writers."""
    fam = vd.diagram.family
    doc = {
        "schema_version": "1",
        "family": {"kind": fam.kind, "m": fam.m, "n": fam.n},
        "nodes": [
            {"index": node.index + 1, "kind": node.kind, "painted": node.index in vd.painted}
            for node in vd.diagram.nodes
        ],
        "arrows": [[i + 1, j + 1] for i, j in enumerate(vd.involution.perm) if i < j],
    }
    if fam.kind == "D21alpha":
        doc["family"]["alpha"] = str(fam.alpha)
    if realform is not None:
        doc["realform"] = realform
    if trail is not None:
        doc["trail"] = [move.at + 1 for move in trail]
    return doc


@pytest.mark.parametrize("fam", FRAME_FAMILIES, ids=lambda fam: fam.display())
def test_documents_are_the_stdlib_encoding_of_emit_document(fam):
    """Every painting of every involution, with and without its real form
    and trail, singly and as one array: the stdlib encoding of the
    reference document, which ``emit_document`` reads back."""
    items = enumerate_vogan(build_diagram(fam))
    triples = []
    for vd in items:
        desc = classify(vd)
        realform = {"name": desc.super_name, "even_parts": list(desc.even_parts), "involution": desc.involution}
        trail = reduce_with_trail(vd)[1]
        for rf, tr in ((None, None), (realform, None), (None, trail), (realform, trail)):
            expected = reference_document(vd, rf, tr)
            assert document_json(vd, rf, tr) == json.dumps(expected, indent=2)
            assert emit_document(vd, rf, tr) == expected
        triples.append((vd, realform, trail))
    chunks = []
    document_array(iter(triples), chunks.append)
    assert "".join(chunks) == json.dumps([reference_document(*t) for t in triples], indent=2)


def test_an_empty_document_array_is_the_empty_list():
    chunks = []
    document_array(iter(()), chunks.append)
    assert "".join(chunks) == json.dumps([], indent=2)


@pytest.mark.parametrize("fam", FRAME_FAMILIES, ids=lambda fam: fam.display())
def test_painting_a_node_turns_one_o_of_the_drawing_into_a_star(fam):
    """Painting node i changes exactly one character of the unpainted
    drawing, an ``o`` into a ``*``, its own; a painting changes those of its
    nodes and no other."""
    diagram = build_diagram(fam)
    for vd in enumerate_vogan(diagram):
        empty = render_ascii(VoganDiagram(diagram, vd.involution, frozenset()))
        text = render_ascii(vd)
        changed = [k for k, (a, b) in enumerate(zip(empty, text)) if a != b]
        assert len(text) == len(empty) and len(changed) == len(vd.painted)
        assert all((empty[k], text[k]) == ("o", "*") for k in changed)
        if len(vd.painted) == 1:
            (node,) = vd.painted
            spot = changed[0]
            for other in enumerate_vogan(diagram):
                if other.involution == vd.involution:
                    assert (render_ascii(other)[spot] == "*") == (node in other.painted)


class _CountingRecord(dict):
    """A diagram record that lists every key stored in it."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


@pytest.mark.parametrize(
    "fam",
    [FamilyId("C", 0, 11), FamilyId("A", 2, 2), FamilyId("D", 3, 2), FamilyId("D21alpha", alpha=Q(-2))],
    ids=lambda fam: fam.display(),
)
def test_enumerate_builds_one_ascii_frame_per_involution(fam, capsys):
    """``enumerate --classify`` writes each diagram's ASCII frame once per
    involution, however many paintings it fills, and a second run none."""
    build_diagram.cache_clear()
    diagram = build_diagram(fam)
    record = _CountingRecord()
    object.__setattr__(diagram, "_record", record)

    def frames():
        return [
            key
            for key in record.stored
            if isinstance(key, tuple) and key[0].__module__ == "supervogan.render"
        ]

    argv = ["enumerate", fam.display(), "--classify"]
    try:
        assert main(argv) == 0
        built = frames()
        assert [args for _, args in built] == [(g.perm, "ascii") for g in automorphisms(diagram)]
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert frames() == built
        assert capsys.readouterr().out == first
        assert first.count("\n[") == len(enumerate_vogan(diagram))
    finally:
        build_diagram.cache_clear()
