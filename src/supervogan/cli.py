"""Command-line interface.

Verbs: ``diagram``, ``enumerate``, ``reduce``, ``classify``, ``table``.
Family specs follow the grammar ``A(m,n) | B(m,n) | B(0,n) | C(k) | D(m,n) |
D(2,1;p/q) | F(4) | G(3)``; node indices on the command line are 1-based.
Exit codes: 0 success, 1 usage or input error or a closed output pipe, 2
table mismatches.

``argparse`` is the only parser, and ``_VERBS`` its one grammar.  A request
whose first argument names a verb is parsed by that verb's parser alone,
built without the other four; anything left over, and an argument list that
starts with no verb, goes through the full parse, so ``--help`` and every
usage error read exactly as the top-level parser writes them.  ``diagram``,
``reduce`` and ``classify`` share one reply writer; ``enumerate`` writes
each painting as it is made, once every input has been read.  Diagrams and
documents are filled from ``render``'s frames, tables written by
``render.to_json``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from typing import Optional

from .algebra import (
    EVEN,
    Diagram,
    FamilyId,
    build_diagram,
    read_alpha,
)
from .classify import RealFormDescriptor, TableReport, classify, table_report
from .errors import BadIndex, ParseError, SupervoganError
from .render import document_array, document_json, render_ascii, render_dot, to_json
from .vogan import (
    VoganDiagram,
    automorphisms,
    enumerate_vogan,
    identity_involution,
    reduce_with_trail,
)


def parse_family_spec(text: str) -> FamilyId:
    """Parse a family spec, reporting the offending position on failure."""
    if not isinstance(text, str):
        raise ParseError(f"a family spec is a str, not {type(text).__name__}", "", 0)
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
        digits = p[1:] if p[:1] == "-" else p
        # isdigit() alone admits non-ASCII digits such as '²', which int() rejects
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError("expected an integer", text, at)
        try:
            return int(p)
        except ValueError:  # past the interpreter's limit on decimal digits
            raise ParseError("integer has too many digits", text, at) from None

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
            alpha = read_alpha(post.strip(), text, inner_base + len(pre) + 1)
            fam = FamilyId("D21alpha", alpha=alpha)
        elif head == "A":
            fam = FamilyId("A", m, n)
        elif head == "B":
            fam = FamilyId("B0", 0, n) if m == 0 else FamilyId("B", m, n)
        else:
            fam = FamilyId("D", m, n)
    return fam


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
        fixed = inv.fixed_set
        for token in painted_arg.split(","):
            token = token.strip()
            if not token:
                continue
            if not (token.isascii() and token.isdigit()):
                raise ParseError(
                    "painted nodes must be positive integers",
                    painted_arg,
                    painted_arg.index(token),
                )
            # past any node count, and possibly past int()'s limit on digits
            if len(token.lstrip("0")) > len(str(len(diagram))):
                raise BadIndex(f"node {token.lstrip('0')} is out of range 1..{len(diagram)}")
            idx = int(token.lstrip("0") or 0)
            if not 1 <= idx <= len(diagram):
                raise BadIndex(f"node {idx} is out of range 1..{len(diagram)}")
            if diagram.nodes[idx - 1].kind != EVEN:
                raise BadIndex(f"node {idx} is odd and cannot be painted")
            if idx - 1 not in fixed:
                raise BadIndex(f"node {idx} is moved by the involution")
            painted.add(idx - 1)
    return VoganDiagram(diagram, inv, frozenset(painted))


def _output(args):
    """A context giving the ``write`` of the reply's stream: standard
    output, or the file ``--out`` names, opened on entry, once every input
    has been read."""
    return _opened(args.out) if args.out else contextlib.nullcontext(sys.stdout.write)


@contextlib.contextmanager
def _opened(path: str):
    try:
        with open(path, "w") as handle:
            yield handle.write
    except OSError as exc:
        raise SupervoganError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(args, payload: str) -> None:
    with _output(args) as write:
        write(payload + "\n")


def _realform_dict(desc: RealFormDescriptor) -> dict:
    return {
        "name": desc.super_name,
        "even_parts": list(desc.even_parts),
        "involution": desc.involution,
    }


def _painted_display(vd: VoganDiagram) -> str:
    return "[" + ",".join(str(i + 1) for i in sorted(vd.painted)) + "]"


def _flips(trail) -> str:
    return ", ".join(str(move.at + 1) for move in trail) or "none"


def _heading(vd: VoganDiagram) -> list[str]:
    """The opening ASCII lines of a reply about one asked-for painting."""
    return [
        f"{vd.diagram.family.display()} painted={_painted_display(vd)} "
        f"involution={vd.involution.name}",
        render_ascii(vd),
        "",
    ]


def _reply(args, shown: VoganDiagram, text, realform=None, trail=None) -> int:
    """Write a single-painting reply: the JSON document or DOT graph of
    ``shown``, or the ASCII lines ``text()`` builds, only when asked for."""
    if args.format == "json":
        _emit(args, document_json(shown, realform, trail))
    elif args.format == "dot":
        _emit(args, render_dot(shown))
    else:
        _emit(args, "\n".join(text()))
    return 0


def cmd_diagram(args) -> int:
    diagram = build_diagram(parse_family_spec(args.family))
    vd = VoganDiagram(diagram, identity_involution(len(diagram)), frozenset())
    return _reply(args, vd, lambda: [diagram.family.display(), render_ascii(vd)])


def cmd_enumerate(args) -> int:
    """Each painting's text is written as it is made; every input error is
    raised before the first byte."""
    diagram = build_diagram(parse_family_spec(args.family))
    if args.format == "dot" and (args.reduce or args.classify):
        raise SupervoganError("--format dot takes no --reduce or --classify: DOT draws no name or trail")
    items = enumerate_vogan(diagram)

    def named():
        for vd in items:
            desc = classify(vd) if args.classify else None
            reduced, trail = reduce_with_trail(vd) if args.reduce else (vd, None)
            yield vd, desc, reduced, trail

    with _output(args) as write:
        if args.format == "dot":
            sep = ""
            for k, vd in enumerate(items, 1):
                write(sep + render_dot(vd, name=f"diagram{k}"))
                sep = "\n\n"
        elif args.format == "json":
            document_array(
                ((reduced, _realform_dict(desc) if desc else None, trail) for _, desc, reduced, trail in named()),
                write,
            )
        else:
            write(f"{diagram.family.display()}: {len(items)} painted diagrams")
            for k, (vd, desc, reduced, trail) in enumerate(named(), 1):
                lines = [
                    f"[{k}] involution={vd.involution.name} painted={_painted_display(vd)}",
                    render_ascii(vd),
                ]
                if args.reduce:
                    lines.append(f"reduced painted={_painted_display(reduced)} (flips: {_flips(trail)})")
                if desc:
                    lines.append(f"g = {desc.super_name}   g0 = {desc.even_display()}")
                write("\n\n" + "\n".join(lines))
        write("\n")
    return 0


def cmd_reduce(args) -> int:
    diagram = build_diagram(parse_family_spec(args.family))
    vd = _make_vogan(diagram, args.painted, args.involution)
    reduced, trail = reduce_with_trail(vd)

    def text():
        return _heading(vd) + [
            f"flips: {_flips(trail)}",
            f"reduced painted={_painted_display(reduced)}",
            render_ascii(reduced),
        ]

    return _reply(args, reduced, text, trail=trail)


def cmd_classify(args) -> int:
    diagram = build_diagram(parse_family_spec(args.family))
    vd = _make_vogan(diagram, args.painted, args.involution)
    desc = classify(vd)

    def text():
        return _heading(vd) + [f"g = {desc.super_name}", f"g0 = {desc.even_display()}"]

    return _reply(args, vd, text, realform=_realform_dict(desc))


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
    for name in report.unexpected:
        got = computed_by_name[name]
        lines.append(f"  g = {name:<{width}}   g0 = {got.even_display():<30} [UNEXPECTED]")
    lines.append("")
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append(f"result: {'clean' if report.clean() else 'MISMATCHES'}")
    return "\n".join(lines)


def cmd_table(args) -> int:
    diagram = build_diagram(parse_family_spec(args.family))
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
        _emit(args, to_json(payload))
    else:
        _emit(args, _render_table(report))
    return 0 if report.clean() else 2


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose usage errors exit 1, as input errors do;
    exit code 2 means table mismatches.  Subparsers are of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# DOT draws no name, trail or table
_ALL, _NAMED = ("ascii", "dot", "json"), ("ascii", "json")
_OPTIONS = {
    "--painted": {"default": "", "help": "comma-separated 1-based node indices"},
    "--involution": {"default": "identity", "help": "identity, reversal or swap"},
    "--reduce": {"action": "store_true", "help": "also reduce each diagram"},
    "--classify": {"action": "store_true", "help": "also name each real form"},
}
# verb: (command, help, --format choices, the family argument's help, its options)
_VERBS = {
    "diagram": (
        cmd_diagram, "draw the distinguished diagram", _ALL, "family spec, e.g. A(2,1) or D(2,1;1/2)", ()
    ),
    "enumerate": (cmd_enumerate, "list all painted diagrams", _ALL, None, ("--reduce", "--classify")),
    "reduce": (cmd_reduce, "reduce a painted diagram", _NAMED, None, ("--painted", "--involution")),
    "classify": (cmd_classify, "name the real form", _NAMED, None, ("--painted", "--involution")),
    "table": (cmd_table, "compare against the reference table", _NAMED, None, ()),
}


def _add_verb(parser: argparse.ArgumentParser, verb: str) -> argparse.ArgumentParser:
    """Give ``parser`` the arguments of ``verb``, in the order its usage line
    lists them, and the verb's command as ``func``."""
    func, _, formats, family, options = _VERBS[verb]
    parser.add_argument("--format", choices=formats, default="ascii", help="output format (default ascii)")
    parser.add_argument("--out", help="write output to this file instead of stdout")
    parser.add_argument("family", help=family)
    for option in options:
        parser.add_argument(option, **_OPTIONS[option])
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="supervogan",
        description="Painted-diagram classification of real forms "
        "of the basic classical Lie superalgebras.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, summary, *_) in _VERBS.items():
        _add_verb(sub.add_parser(verb, help=summary), verb)
    return parser


@functools.cache
def _parser(verb: Optional[str] = None) -> argparse.ArgumentParser:
    """The full parser, or ``verb``'s parser alone, which reads as the full
    parser's subparser of that name; each built on first use and shared."""
    return build_parser() if verb is None else _add_verb(_Parser(prog=f"supervogan {verb}"), verb)


def _parse_args(argv=None) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, entered at the verb's own parser.

    The full parse hands every argument after the verb to the verb's
    subparser, so when ``argv[0]`` names a verb and its parser leaves
    nothing over, the namespaces agree, and a usage error the verb's parser
    finds reads as it does inside the full parse.  Anything else takes the
    full parse: ``--help``, an unknown verb, and left-over arguments, which
    the top-level parser reports.
    """
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _VERBS:
        args, rest = _parser(argv[0]).parse_known_args(argv[1:], argparse.Namespace(verb=argv[0]))
        if not rest:
            return args
    return _parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return args.func(args)
    except SupervoganError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed the pipe early; point standard output at devnull
        # so the interpreter's final flush fails quietly too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
