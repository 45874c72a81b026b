"""ASCII and DOT renderings plus the JSON document format.

Node glyphs: ``o`` even, ``*`` even painted, ``(x)`` odd isotropic,
``(*)`` odd non-isotropic.  Multiple bonds carry an arrow pointing at the
node whose Cartan row holds the larger entry in absolute value, read over
``int`` off ``algebra.gram_record`` and ``cartan_scales``.

JSON text is written by ``to_json``, byte-equal to ``json.dumps(value,
indent=2)`` on the types a document holds; ``json`` itself only parses
documents and quotes values in error messages.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Optional, Union

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
)
from .errors import BadIndex, InvalidFamily, ParseError
from .vogan import FlipMove, VoganDiagram, automorphisms

SCHEMA_VERSION = "1"


def _glyph(vd: VoganDiagram, i: int) -> str:
    kind = vd.diagram.nodes[i].kind
    if kind == ODD_ISO:
        return "(x)"
    if kind == ODD_NONISO:
        return "(*)"
    return "*" if i in vd.painted else "o"


def _strength(diagram: Diagram, i: int, j: int) -> tuple[int, bool]:
    """The floor of max(|a_ij|, |a_ji|), and whether |a_ji| is the larger:
    both entries over the common denominator |q_i q_j|, in ``int``s."""
    n = abs(gram_record(diagram).rows[i][j])
    scales = cartan_scales(diagram)
    (ci, qi), (cj, qj) = scales[i], scales[j]
    left, right = ci * n * abs(qj), cj * n * abs(qi)
    return max(left, right) // abs(qi * qj), right > left


def _bond(diagram: Diagram, i: int, j: int) -> str:
    strength, at_right = _strength(diagram, i, j)
    if strength < 2:
        return "---"
    # the larger entry sits in the row of the shorter root; point at it
    if strength >= 3:
        return "=>>" if at_right else "<<="
    return "=>" if at_right else "<="


def _linear_ascii(vd: VoganDiagram, order: list[int]) -> str:
    parts = [_glyph(vd, order[0])]
    for prev, cur in zip(order, order[1:]):
        parts.append(_bond(vd.diagram, prev, cur))
        parts.append(_glyph(vd, cur))
    return "".join(parts)


def _pronged_ascii(vd: VoganDiagram, main: list[int], tips: tuple[int, int]) -> str:
    line = _linear_ascii(vd, main)
    w = len(line)
    return "\n".join(
        [
            " " * (w + 1) + _glyph(vd, tips[0]),
            " " * w + "/",
            line,
            " " * w + "\\",
            " " * (w + 1) + _glyph(vd, tips[1]),
        ]
    )


def render_ascii(vd: VoganDiagram) -> str:
    """Drawn diagram plus one ``i <--> j`` line per involution arrow (1-based)."""
    kind = vd.diagram.family.kind
    size = len(vd.diagram)
    if kind == "D":
        body = _pronged_ascii(vd, list(range(size - 2)), (size - 2, size - 1))
    elif kind == "D21alpha":
        body = _pronged_ascii(vd, [0, 1], (2, 3))
    else:
        body = _linear_ascii(vd, list(range(size)))
    arrows = [
        f"{i + 1} <--> {j + 1}"
        for i, j in enumerate(vd.involution.perm)
        if i < j
    ]
    return "\n".join([body] + arrows)


def render_dot(vd: VoganDiagram, name: str = "diagram") -> str:
    """Strict undirected DOT graph with node kinds and bond multiplicities."""
    diagram = vd.diagram
    lines = [f"strict graph {name} {{", '  node [shape="circle"];']
    for node in diagram.nodes:
        i = node.index
        attrs = [f'label="{i + 1}"', f'kind="{node.kind}"']
        if node.kind != EVEN:
            attrs.append('shape="doublecircle"')
        if i in vd.painted:
            attrs.append('painted="true"')
            attrs.append('style="filled"')
        else:
            attrs.append('painted="false"')
        lines.append(f"  n{i + 1} [{' '.join(attrs)}];")
    size = len(diagram)
    for i in range(size):
        for j in range(i + 1, size):
            if not gram_record(diagram).rows[i][j]:
                continue
            strength, _ = _strength(diagram, i, j)
            attrs = [f'label="{max(strength, 1)}"']
            lines.append(f"  n{i + 1} -- n{j + 1} [{' '.join(attrs)}];")
    for i, j in enumerate(vd.involution.perm):
        if i < j:
            lines.append(
                f'  n{i + 1} -- n{j + 1} [style="dashed" role="involution"];'
            )
    lines.append("}")
    return "\n".join(lines)


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


def emit_document(
    vd: VoganDiagram,
    realform: Optional[dict] = None,
    trail: Optional[tuple[FlipMove, ...]] = None,
) -> dict:
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "family": _family_dict(vd.diagram.family),
        "nodes": [
            {
                "index": node.index + 1,
                "kind": node.kind,
                "painted": node.index in vd.painted,
            }
            for node in vd.diagram.nodes
        ],
        "arrows": [
            [i + 1, j + 1] for i, j in enumerate(vd.involution.perm) if i < j
        ],
    }
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
    return to_json(emit_document(vd, realform, trail))


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
        if idx != pos + 1:
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
        perm[i], perm[j] = j, i
    involution = next(
        (g for g in automorphisms(diagram) if g.perm == tuple(perm)), None
    )
    if involution is None:
        raise ParseError(
            "arrows do not describe a diagram symmetry", _shown(arrows), 0
        )
    try:
        return VoganDiagram(diagram, involution, frozenset(painted))
    except BadIndex as exc:
        raise ParseError(str(exc), json.dumps(sorted(i + 1 for i in painted)), 0) from exc
