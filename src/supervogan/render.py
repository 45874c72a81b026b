"""ASCII and DOT renderings plus the JSON document format.

Node glyphs: ``o`` even, ``*`` even painted, ``(x)`` odd isotropic,
``(*)`` odd non-isotropic.  Multiple bonds carry an arrow pointing at the
node whose Cartan row holds the larger entry in absolute value, read over
``int`` off ``algebra.gram_record`` and ``cartan_scales``.

Each format has one writer, and it runs once per (diagram, involution,
format): ``_frame`` writes the text every painting shares, glyphs, bonds,
arrows, the document's family and nodes, DOT's nodes and edges, as a
%-template with one slot per fixed even node's paint (and DOT's graph
name), and keeps it in the diagram's record.  ``render_ascii``,
``render_dot`` and ``document_json`` are one fill of that frame; a
document's ``realform`` and ``trail`` follow its frame.  ``document_array``
writes a list of documents as it is made, each ``document_json`` text one
level deeper.

Other JSON text is written by ``to_json``, byte-equal to ``json.dumps(value,
indent=2)`` on the types a document holds; ``json`` itself only parses
documents and quotes values in error messages.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Optional, Union

from .algebra import (
    EVEN,
    ODD_ISO,
    ODD_NONISO,
    Diagram,
    FamilyId,
    build_diagram,
    cartan_scales,
    gram_record,
    read_alpha,
    stored,
)
from .errors import InvalidFamily, ParseError, SupervoganError
from .vogan import FlipMove, VoganDiagram, automorphisms, check_vogan

SCHEMA_VERSION = "1"

# A slot while a frame is written; no rendered text holds this character.
_MARK = "\x00"


def _strength(diagram: Diagram, i: int, j: int) -> tuple[int, bool]:
    """The floor of max(|a_ij|, |a_ji|), and whether |a_ji| is the larger:
    both entries over the common denominator |q_i q_j|, in ``int``s."""
    n = abs(gram_record(diagram).rows[i][j])
    scales = cartan_scales(diagram)
    (ci, qi), (cj, qj) = scales[i], scales[j]
    left, right = ci * n * abs(qj), cj * n * abs(qi)
    return max(left, right) // abs(qi * qj), right > left


def _ascii(diagram: Diagram, perm: tuple[int, ...], slots: frozenset[int]) -> tuple[str, list[int]]:
    """The drawing plus one ``i <--> j`` line per involution arrow (1-based),
    and its nodes in the order the text shows them.  A D diagram forks at
    its last two nodes, D(2,1;alpha) at nodes 3 and 4."""
    main, tips = list(range(len(diagram))), []
    if diagram.family.kind == "D":
        main, tips = main[:-2], main[-2:]
    elif diagram.family.kind == "D21alpha":
        main, tips = [0, 1], [2, 3]

    def glyph(i: int) -> str:
        kind = diagram.nodes[i].kind
        if kind == ODD_ISO:
            return "(x)"
        if kind == ODD_NONISO:
            return "(*)"
        return _MARK if i in slots else "o"

    line = glyph(main[0])
    for prev, cur in zip(main, main[1:]):
        strength, at_right = _strength(diagram, prev, cur)
        # the larger entry sits in the row of the shorter root; point at it
        if strength < 2:
            bond = "---"
        elif strength == 2:
            bond = "=>" if at_right else "<="
        else:
            bond = "=>>" if at_right else "<<="
        line += bond + glyph(cur)
    order = main
    if tips:
        w = len(line)
        rows = [" " * (w + 1) + glyph(tips[0]), " " * w + "/", line, " " * w + "\\"]
        line = "\n".join(rows + [" " * (w + 1) + glyph(tips[1])])
        order = tips[:1] + main + tips[1:]
    arrows = [f"{i + 1} <--> {j + 1}" for i, j in enumerate(perm) if i < j]
    return "\n".join([line] + arrows), order


def _dot(diagram: Diagram, perm: tuple[int, ...], slots: frozenset[int]) -> tuple[str, list[int]]:
    """Strict undirected DOT graph with node kinds and bond multiplicities,
    named by a slot."""
    lines = [f"strict graph {_MARK} {{", '  node [shape="circle"];']
    for node in diagram.nodes:
        i = node.index
        attrs = [f'label="{i + 1}"', f'kind="{node.kind}"']
        if node.kind != EVEN:
            attrs.append('shape="doublecircle"')
        attrs.append(_MARK if i in slots else 'painted="false"')
        lines.append(f"  n{i + 1} [{' '.join(attrs)}];")
    rows = gram_record(diagram).rows
    for i in range(len(diagram)):
        for j in range(i + 1, len(diagram)):
            if rows[i][j]:
                label = max(_strength(diagram, i, j)[0], 1)
                lines.append(f'  n{i + 1} -- n{j + 1} [label="{label}"];')
    for i, j in enumerate(perm):
        if i < j:
            lines.append(f'  n{i + 1} -- n{j + 1} [style="dashed" role="involution"];')
    lines.append("}")
    return "\n".join(lines), list(range(len(diagram)))


def _json(diagram: Diagram, perm: tuple[int, ...], slots: frozenset[int]) -> tuple[str, list[int]]:
    """The document of the painting, unclosed after its ``arrows``: each
    slot is written as the string ``_MARK``, then unquoted."""
    text = to_json(_document(diagram, perm, lambda i: _MARK if i in slots else False))
    text = text.replace(encode_basestring_ascii(_MARK), _MARK)
    return text[: -len("\n}")], list(range(len(diagram)))


_WRITERS = {"ascii": _ascii, "dot": _dot, "json": _json}


@stored
def _frame(diagram: Diagram, perm: tuple[int, ...], fmt: str) -> tuple[str, tuple[int, ...]]:
    """``fmt``'s text of ``diagram`` under the involution ``perm``, written
    once: a %-template with a ``%s`` per slot, DOT's graph name first, then
    the fixed even nodes whose paint fills the other slots, in text order."""
    slots = frozenset(i for i in diagram.even_indices() if perm[i] == i)
    text, order = _WRITERS[fmt](diagram, perm, slots)
    return text.replace("%", "%%").replace(_MARK, "%s"), tuple(i for i in order if i in slots)


def _fill(vd: VoganDiagram, fmt: str, on: str, off: str, *head: str) -> str:
    """``vd``'s text in ``fmt``: its frame with ``head`` in the first slots
    and ``on`` or ``off`` in each node's, as the node is painted or not.
    Raises BadIndex unless ``vd`` is a ``VoganDiagram``."""
    check_vogan(vd)
    template, nodes = _frame(vd.diagram, vd.involution.perm, fmt)
    painted = vd.painted
    return template % (*head, *[on if i in painted else off for i in nodes])


def render_ascii(vd: VoganDiagram) -> str:
    """Drawn diagram plus one ``i <--> j`` line per involution arrow (1-based)."""
    return _fill(vd, "ascii", "*", "o")


def render_dot(vd: VoganDiagram, name: str = "diagram") -> str:
    """Strict undirected DOT graph with node kinds and bond multiplicities.
    ``name`` is written unquoted, so it must be an ASCII identifier."""
    if not (isinstance(name, str) and name.isascii() and name.isidentifier()):
        raise SupervoganError(f"DOT graph name {name!r} is not an ASCII identifier")
    return _fill(vd, "dot", 'painted="true" style="filled"', 'painted="false"', name)


# ----------------------------------------------------------------------------
# JSON documents.


def _family_dict(fam: FamilyId) -> dict:
    out: dict = {"kind": fam.kind, "m": fam.m, "n": fam.n}
    if fam.kind == "D21alpha":
        out["alpha"] = str(fam.alpha)
    return out


def _shown(value, show=str) -> str:
    """``show(value)`` for an error message; a dict source may carry an
    integer past the interpreter's limit on decimal digits, which no
    formatter prints."""
    try:
        return show(value)
    except ValueError:
        return "<an integer too long to print>"


def _as_json(value) -> str:
    # a dict source may hold values JSON cannot encode: quote those by repr
    return _shown(value, lambda v: json.dumps(v, default=repr))


def _family_from_dict(data: dict) -> FamilyId:
    if not isinstance(data, dict) or "kind" not in data:
        raise ParseError("malformed family object", _as_json(data), 0)
    kind, m, n = data["kind"], data.get("m", 0), data.get("n", 0)
    alpha = None
    if "alpha" in data:
        # a string only: a JSON number would come in as a float or a bool
        if not isinstance(data["alpha"], str):
            raise ParseError("alpha must be a string p/q", _shown(data["alpha"]), 0)
        alpha = read_alpha(data["alpha"])
    try:
        return FamilyId(kind, m, n, alpha)
    except InvalidFamily as exc:
        raise ParseError(str(exc), _as_json(data), 0) from exc


def to_json(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for what a document
    holds: dicts with ``str`` keys, lists, ``str``, ``int``, ``bool`` and
    ``None``; any other type raises ``TypeError``.  With ``indent`` set,
    CPython's ``json`` (up to 3.13) leaves its C encoder for a pure-Python
    one; here strings still go through the C ``encode_basestring_ascii``."""
    out: list[str] = []
    _write(value, "\n", out)
    return "".join(out)


def _write(value, newline: str, out: list[str]) -> None:
    """Append ``value``'s JSON text to ``out``; ``newline`` is the line break
    plus the indent of the line ``value`` starts on."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, list):
        inner, sep = newline + "  ", "["
        for item in value:
            out.append(sep + inner)
            _write(item, inner, out)
            sep = ","
        out.append(newline + "]" if value else "[]")
    elif isinstance(value, dict):
        inner, sep = newline + "  ", "{"
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + inner + encode_basestring_ascii(key) + ": ")
            _write(item, inner, out)
            sep = ","
        out.append(newline + "}" if value else "{}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _document(diagram: Diagram, perm: tuple[int, ...], painted: Callable[[int], object]) -> dict:
    """A document's fields up to its ``arrows``; ``painted(i)`` is node i's flag."""
    return {
        "schema_version": SCHEMA_VERSION,
        "family": _family_dict(diagram.family),
        "nodes": [
            {"index": node.index + 1, "kind": node.kind, "painted": painted(node.index)}
            for node in diagram.nodes
        ],
        "arrows": [[i + 1, j + 1] for i, j in enumerate(perm) if i < j],
    }


def emit_document(
    vd: VoganDiagram,
    realform: Optional[dict] = None,
    trail: Optional[tuple[FlipMove, ...]] = None,
) -> dict:
    check_vogan(vd)
    doc = _document(vd.diagram, vd.involution.perm, vd.painted.__contains__)
    if realform is not None:
        doc["realform"] = realform
    if trail is not None:
        doc["trail"] = [move.at + 1 for move in trail]
    return doc


def document_json(
    vd: VoganDiagram,
    realform: Optional[dict] = None,
    trail: Optional[tuple[FlipMove, ...]] = None,
) -> str:
    """``to_json(emit_document(vd, realform, trail))``: ``vd``'s JSON frame
    filled, then ``realform`` written by ``_write`` and ``trail``."""
    out = [_fill(vd, "json", "true", "false")]
    if realform is not None:
        out.append(',\n  "realform": ')
        _write(realform, "\n  ", out)
    if trail is not None:
        # a flat list of ints, in one join: trails run to a few dozen flips
        flips = ",\n    ".join([str(move.at + 1) for move in trail])
        out.append(f',\n  "trail": [\n    {flips}\n  ]' if trail else ',\n  "trail": []')
    out.append("\n}")
    return "".join(out)


def document_array(
    documents: Iterable[tuple[VoganDiagram, Optional[dict], Optional[tuple[FlipMove, ...]]]],
    write: Callable[[str], object],
) -> None:
    """Write the JSON array of the documents of ``(vd, realform, trail)``
    triples, as ``to_json`` writes their list, one document at a time: each
    one level deeper, which moves only line breaks, as JSON strings hold no
    raw newline."""
    sep = "["
    for vd, realform, trail in documents:
        write(sep + "\n  " + document_json(vd, realform, trail).replace("\n", "\n  "))
        sep = ","
    write("[]" if sep == "[" else "\n]")


def parse_document(source: Union[str, dict]) -> VoganDiagram:
    """Rebuild a painted diagram from its JSON document."""
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ParseError("invalid JSON", source[:80], exc.pos) from exc
        except (ValueError, RecursionError) as exc:
            # an integer past the digit limit, or nesting past the recursion limit
            raise ParseError("invalid JSON", source[:80], 0) from exc
    else:
        data = source
    if not isinstance(data, dict):
        raise ParseError("document must be an object", str(type(data)), 0)
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(
            "unsupported schema_version", _shown(data.get("schema_version")), 0
        )
    diagram = build_diagram(_family_from_dict(data.get("family", {})))
    nodes = data.get("nodes")
    if not isinstance(nodes, list) or len(nodes) != len(diagram):
        raise ParseError(
            f"expected {len(diagram)} nodes", _shown(nodes)[:80], 0
        )
    painted = set()
    for pos, entry in enumerate(nodes):
        if not isinstance(entry, dict):
            raise ParseError("node entries must be objects", _shown(entry)[:80], pos)
        idx = entry.get("index")
        # type(), not isinstance(): true and 1.0 equal 1 but are no index
        if type(idx) is not int or idx != pos + 1:
            raise ParseError(f"node index must be {pos + 1}", _shown(idx), pos)
        if entry.get("kind") != diagram.nodes[pos].kind:
            raise ParseError(
                f"node {pos + 1} kind must be {diagram.nodes[pos].kind}",
                _shown(entry.get("kind")),
                pos,
            )
        flag = entry.get("painted")
        if not isinstance(flag, bool):
            raise ParseError(f"node {pos + 1} painted must be true or false", _shown(flag), pos)
        if flag and diagram.nodes[pos].kind != EVEN:
            raise ParseError(f"node {pos + 1} is odd and cannot be painted", _shown(flag), pos)
        if flag:
            painted.add(pos)
    arrows = data.get("arrows", [])
    if not isinstance(arrows, list):
        raise ParseError("arrows must be a list of index pairs", _shown(arrows)[:80], 0)
    perm = list(range(len(diagram)))
    for pair in arrows:
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(type(x) is int for x in pair)
        ):
            raise ParseError("arrows must be index pairs", _shown(pair), 0)
        i, j = pair[0] - 1, pair[1] - 1
        if not (0 <= i < len(diagram) and 0 <= j < len(diagram)):
            raise ParseError("arrow index out of range", _shown(pair), 0)
        # an arrow joins two nodes, and no node is named by two arrows
        if i == j or perm[i] != i or perm[j] != j:
            raise ParseError("arrows must join distinct nodes, each at most once", _shown(pair), 0)
        perm[i], perm[j] = j, i
    involution = next(
        (g for g in automorphisms(diagram) if g.perm == tuple(perm)), None
    )
    if involution is None:
        raise ParseError(
            "arrows do not describe a diagram symmetry", _shown(arrows), 0
        )
    moved = sorted(painted - involution.fixed_set)
    if moved:
        raise ParseError(f"node {moved[0] + 1} is moved by the involution", _shown(arrows)[:80], moved[0])
    return VoganDiagram(diagram, involution, frozenset(painted))
