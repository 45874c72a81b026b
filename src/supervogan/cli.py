"""Command-line interface.

Verbs: ``diagram``, ``enumerate``, ``reduce``, ``classify``, ``table``.
Family specs follow the grammar ``A(m,n) | B(m,n) | B(0,n) | C(k) | D(m,n) |
D(2,1;p/q) | F(4) | G(3)``; node indices on the command line are 1-based.
Exit codes: 0 success, 1 usage or input error, 2 table mismatches.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from .algebra import EVEN, Diagram, FamilyId, build_diagram, node_count, validate_family
from .classify import RealFormDescriptor, TableReport, classify, enumerate_real_forms, table_report
from .errors import BadIndex, ParseError, RankGuardExceeded, SupervoganError
from .render import document_json, emit_document, render_ascii, render_dot
from .vogan import (
    VoganDiagram,
    automorphisms,
    enumerate_vogan,
    identity_involution,
    reduce_with_trail,
)

RANK_GUARD = 12


def parse_family_spec(text: str) -> FamilyId:
    """Parse a family spec, reporting the offending position on failure."""
    stripped = text.strip()
    base = len(text) - len(text.lstrip())
    if not stripped:
        raise ParseError("empty family spec", text, 0)
    head = stripped[0]
    if head not in "ABCDFG":
        raise ParseError("expected family letter A, B, C, D, F or G", text, base)
    if len(stripped) < 2 or stripped[1] != "(":
        raise ParseError("expected '('", text, base + 1)
    if not stripped.endswith(")"):
        raise ParseError("expected trailing ')'", text, base + len(stripped))
    inner = stripped[2:-1]
    inner_base = base + 2

    def want_int(part: str, pos: int) -> int:
        p = part.strip()
        at = pos + len(part) - len(part.lstrip())
        if not p or not (p.isdigit() or (p[0] == "-" and p[1:].isdigit())):
            raise ParseError("expected an integer", text, at)
        return int(p)

    if head == "F":
        if inner.strip() != "4":
            raise ParseError("the F family is F(4)", text, inner_base)
        fam = FamilyId("F4")
    elif head == "G":
        if inner.strip() != "3":
            raise ParseError("the G family is G(3)", text, inner_base)
        fam = FamilyId("G3")
    elif head == "C":
        k = want_int(inner, inner_base)
        fam = FamilyId("C", 0, k - 1)
    else:
        pre, sep, post = inner.partition(";")
        parts = pre.split(",")
        if len(parts) != 2:
            raise ParseError("expected two parameters m,n", text, inner_base)
        m = want_int(parts[0], inner_base)
        n = want_int(parts[1], inner_base + len(parts[0]) + 1)
        if sep:
            if head != "D" or (m, n) != (2, 1):
                raise ParseError(
                    "only D(2,1;alpha) takes a third parameter",
                    text,
                    inner_base + len(pre),
                )
            alpha_at = inner_base + len(pre) + 1
            try:
                alpha = Fraction(post.strip())
            except (ValueError, ZeroDivisionError):
                raise ParseError("expected a rational p/q", text, alpha_at) from None
            fam = FamilyId("D21alpha", alpha=alpha)
        elif head == "A":
            fam = FamilyId("A", m, n)
        elif head == "B":
            fam = FamilyId("B0", 0, n) if m == 0 else FamilyId("B", m, n)
        else:
            fam = FamilyId("D", m, n)
    validate_family(fam)
    return fam


def _diagram_for(spec: str) -> Diagram:
    fam = parse_family_spec(spec)
    count = node_count(fam)
    if count > RANK_GUARD:
        raise RankGuardExceeded(
            f"{fam.display()} has {count} nodes; the guard allows {RANK_GUARD}"
        )
    return build_diagram(fam)


def _make_vogan(diagram: Diagram, painted_arg: Optional[str], inv_name: str) -> VoganDiagram:
    inv = next((g for g in automorphisms(diagram) if g.name == inv_name), None)
    if inv is None:
        names = ", ".join(g.name for g in automorphisms(diagram))
        raise SupervoganError(
            f"involution {inv_name!r} is not available for "
            f"{diagram.family.display()} (choices: {names})"
        )
    painted = set()
    if painted_arg:
        fixed = set(inv.fixed())
        for token in painted_arg.split(","):
            token = token.strip()
            if not token:
                continue
            if not token.isdigit():
                raise ParseError(
                    "painted nodes must be positive integers",
                    painted_arg,
                    painted_arg.index(token),
                )
            idx = int(token)
            if not 1 <= idx <= len(diagram):
                raise BadIndex(f"node {idx} is out of range 1..{len(diagram)}")
            if diagram.nodes[idx - 1].kind != EVEN:
                raise BadIndex(f"node {idx} is odd and cannot be painted")
            if idx - 1 not in fixed:
                raise BadIndex(f"node {idx} is moved by the involution")
            painted.add(idx - 1)
    return VoganDiagram(diagram, inv, frozenset(painted))


def _emit(args, payload: str) -> None:
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload if payload.endswith("\n") else payload + "\n")
    else:
        print(payload)


def _realform_dict(desc: RealFormDescriptor) -> dict:
    return {
        "name": desc.super_name,
        "even_parts": list(desc.even_parts),
        "involution": desc.involution,
    }


def _painted_display(vd: VoganDiagram) -> str:
    return "[" + ",".join(str(i + 1) for i in sorted(vd.painted)) + "]"


def cmd_diagram(args) -> int:
    diagram = _diagram_for(args.family)
    vd = VoganDiagram(diagram, identity_involution(len(diagram)), frozenset())
    if args.format == "json":
        _emit(args, document_json(vd))
    elif args.format == "dot":
        _emit(args, render_dot(vd))
    else:
        _emit(args, f"{diagram.family.display()}\n{render_ascii(vd)}")
    return 0


def cmd_enumerate(args) -> int:
    diagram = _diagram_for(args.family)
    items = enumerate_vogan(diagram)
    if args.format == "json":
        docs = []
        for vd in items:
            realform = _realform_dict(classify(vd)) if args.classify else None
            if args.reduce:
                reduced, trail = reduce_with_trail(vd)
                docs.append(emit_document(reduced, realform, trail))
            else:
                docs.append(emit_document(vd, realform))
        _emit(args, json.dumps(docs, indent=2))
        return 0
    if args.format == "dot":
        graphs = [render_dot(vd, name=f"diagram{k}") for k, vd in enumerate(items, 1)]
        _emit(args, "\n\n".join(graphs))
        return 0
    lines = [f"{diagram.family.display()}: {len(items)} painted diagrams"]
    for k, vd in enumerate(items, 1):
        lines.append("")
        lines.append(
            f"[{k}] involution={vd.involution.name} painted={_painted_display(vd)}"
        )
        lines.append(render_ascii(vd))
        if args.reduce:
            reduced, trail = reduce_with_trail(vd)
            flips = ", ".join(str(move.at + 1) for move in trail) or "none"
            lines.append(
                f"reduced painted={_painted_display(reduced)} (flips: {flips})"
            )
        if args.classify:
            desc = classify(vd)
            lines.append(f"g = {desc.super_name}   g0 = {desc.even_display()}")
    _emit(args, "\n".join(lines))
    return 0


def cmd_reduce(args) -> int:
    diagram = _diagram_for(args.family)
    vd = _make_vogan(diagram, args.painted, args.involution)
    reduced, trail = reduce_with_trail(vd)
    if args.format == "json":
        _emit(args, document_json(reduced, trail=trail))
        return 0
    if args.format == "dot":
        _emit(args, render_dot(reduced))
        return 0
    flips = ", ".join(str(move.at + 1) for move in trail) or "none"
    lines = [
        f"{diagram.family.display()} painted={_painted_display(vd)} "
        f"involution={vd.involution.name}",
        render_ascii(vd),
        "",
        f"flips: {flips}",
        f"reduced painted={_painted_display(reduced)}",
        render_ascii(reduced),
    ]
    _emit(args, "\n".join(lines))
    return 0


def cmd_classify(args) -> int:
    diagram = _diagram_for(args.family)
    vd = _make_vogan(diagram, args.painted, args.involution)
    desc = classify(vd)
    if args.format == "json":
        _emit(args, document_json(vd, realform=_realform_dict(desc)))
        return 0
    if args.format == "dot":
        _emit(args, render_dot(vd))
        return 0
    lines = [
        f"{diagram.family.display()} painted={_painted_display(vd)} "
        f"involution={vd.involution.name}",
        render_ascii(vd),
        "",
        f"g = {desc.super_name}",
        f"g0 = {desc.even_display()}",
    ]
    _emit(args, "\n".join(lines))
    return 0


def _render_table(report: TableReport) -> str:
    lines = [
        f"family: {report.family.display()}",
        f"complexified: {report.complex_name}   even part: {report.complex_even}",
        "",
    ]
    computed_by_name = {d.super_name: d for d in report.computed}
    width = max(
        [len(name) for name, _ in report.expected]
        + [len(d.super_name) for d in report.computed]
        + [1]
    )
    for name, evens in report.expected:
        if name in report.even_mismatches:
            got = computed_by_name[name]
            mark = f"EVEN-PART MISMATCH (computed {got.even_display()})"
        elif name in computed_by_name:
            mark = "ok"
        else:
            mark = "MISSING"
        lines.append(f"  g = {name:<{width}}   g0 = {' + '.join(evens):<30} [{mark}]")
    for d in report.computed:
        if d.super_name in {n for n, _ in report.expected}:
            continue
        lines.append(
            f"  g = {d.super_name:<{width}}   g0 = {d.even_display():<30} [UNEXPECTED]"
        )
    lines.append("")
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append(f"result: {'clean' if report.clean() else 'MISMATCHES'}")
    return "\n".join(lines)


def cmd_table(args) -> int:
    diagram = _diagram_for(args.family)
    report = table_report(diagram)
    if args.format == "json":
        payload = {
            "family": report.family.display(),
            "complex_name": report.complex_name,
            "complex_even": report.complex_even,
            "computed": [
                {"name": d.super_name, "even_parts": list(d.even_parts)}
                for d in report.computed
            ],
            "expected": [
                {"name": name, "even_parts": list(evens)}
                for name, evens in report.expected
            ],
            "missing": list(report.missing),
            "unexpected": list(report.unexpected),
            "even_mismatches": list(report.even_mismatches),
            "notes": list(report.notes),
            "clean": report.clean(),
        }
        _emit(args, json.dumps(payload, indent=2))
    else:
        _emit(args, _render_table(report))
    return 0 if report.clean() else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supervogan",
        description="Painted-diagram classification of real forms "
        "of the basic classical Lie superalgebras.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("ascii", "dot", "json"),
        default="ascii",
        help="output format (default ascii)",
    )
    common.add_argument("--out", help="write output to this file instead of stdout")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("diagram", parents=[common], help="draw the distinguished diagram")
    p.add_argument("family", help="family spec, e.g. A(2,1) or D(2,1;1/2)")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("enumerate", parents=[common], help="list all painted diagrams")
    p.add_argument("family")
    p.add_argument("--reduce", action="store_true", help="also reduce each diagram")
    p.add_argument("--classify", action="store_true", help="also name each real form")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("reduce", parents=[common], help="reduce a painted diagram")
    p.add_argument("family")
    p.add_argument("--painted", default="", help="comma-separated 1-based node indices")
    p.add_argument("--involution", default="identity", help="identity, reversal or swap")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("classify", parents=[common], help="name the real form")
    p.add_argument("family")
    p.add_argument("--painted", default="", help="comma-separated 1-based node indices")
    p.add_argument("--involution", default="identity", help="identity, reversal or swap")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("table", parents=[common], help="compare against the reference table")
    p.add_argument("family")
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SupervoganError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
