"""Command-line interface: spec grammar, verbs, formats, exit codes."""

import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest
from test_algebra import guard_families
from test_render import nested

from supervogan import (
    BadIndex,
    FamilyId,
    FlipMove,
    ParseError,
    SupervoganError,
    build_diagram,
    classify,
    cli,
    document_json,
    emit_document,
    enumerate_vogan,
    parse_document,
)
from supervogan.algebra import node_count, read_alpha
from supervogan.cli import main, parse_family_spec

Q = Fraction
VERBS = ["diagram", "enumerate", "reduce", "classify", "table"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exit_of(parse, argv, capsys):
    """(exit code, stdout, stderr) of a parse that exits."""
    with pytest.raises(SystemExit) as exit_info:
        parse(argv)
    captured = capsys.readouterr()
    return exit_info.value.code, captured.out, captured.err


# ----------------------------------------------------------------- grammar


def test_spec_grammar():
    assert parse_family_spec("A(2,1)") == FamilyId("A", 2, 1)
    assert parse_family_spec("B(3,2)") == FamilyId("B", 3, 2)
    assert parse_family_spec("B(0,3)") == FamilyId("B0", 0, 3)
    assert parse_family_spec("C(4)") == FamilyId("C", 0, 3)
    assert parse_family_spec("D(3,2)") == FamilyId("D", 3, 2)
    assert parse_family_spec("D(2,1;1/2)") == FamilyId("D21alpha", alpha=Q(1, 2))
    assert parse_family_spec("D(2,1;-2)") == FamilyId("D21alpha", alpha=Q(-2))
    assert parse_family_spec("F(4)") == FamilyId("F4")
    assert parse_family_spec("G(3)") == FamilyId("G3")
    assert parse_family_spec("  A(1,1)  ") == FamilyId("A", 1, 1)


@pytest.mark.parametrize(
    "text,pos",
    [
        ("", 0),
        ("H(2)", 0),
        ("A2,1)", 1),
        ("A(2,1", 5),
        ("A(x,1)", 2),
        ("A(2)", 2),
        ("F(5)", 2),
        ("G(2)", 2),
        ("B(1,2;3)", 5),
        ("D(3,1;2)", 5),
        ("D(2,1;x)", 6),
        ("D(2,1;1/0)", 6),
    ],
)
def test_spec_grammar_error_positions(text, pos):
    with pytest.raises(ParseError) as err:
        parse_family_spec(text)
    assert err.value.pos == pos
    assert f"position {pos}" in str(err.value)


def test_spec_grammar_invalid_families():
    from supervogan import InvalidFamily

    for text in ["C(1)", "D(1,1)", "D(2,0)", "A(0,0)", "D(2,1;0)", "D(2,1;-1)"]:
        with pytest.raises(InvalidFamily):
            parse_family_spec(text)


def writing(write, field):
    """``write(vd, **{field: arg})`` on a painted B(2,2) diagram, named as ``write``."""

    def call(arg):
        return write(enumerate_vogan(build_diagram(FamilyId("B", 2, 2)))[-1], **{field: arg})

    call.__name__ = write.__name__
    return call


def alpha_document(alpha):
    doc = {"schema_version": "1", "family": {"kind": "D21alpha", "m": 2, "n": 1, "alpha": alpha}}
    return parse_document({**doc, "nodes": [], "arrows": []})


@pytest.mark.parametrize(
    "call, arg, error, message",
    [
        (parse_family_spec, None, ParseError, "a family spec is a str"),
        (parse_family_spec, 3, ParseError, "a family spec is a str"),
        (parse_family_spec, b"A(1,1)", ParseError, "a family spec is a str"),
        (read_alpha, None, ParseError, "alpha must be a string"),
        (read_alpha, 2, ParseError, "alpha must be a string"),
        (alpha_document, 0.5, ParseError, "alpha must be a string"),
        (alpha_document, True, ParseError, "alpha must be a string"),
        (writing(document_json, "trail"), [1], BadIndex, "not a FlipMove"),
        (writing(emit_document, "trail"), [1], BadIndex, "not a FlipMove"),
        (writing(document_json, "trail"), (FlipMove(0), "1"), BadIndex, "not a FlipMove"),
        (writing(emit_document, "trail"), (FlipMove(0), None), BadIndex, "not a FlipMove"),
        (writing(document_json, "trail"), (FlipMove(99),), BadIndex, "trail node 99 "),
        (writing(emit_document, "trail"), (FlipMove(99), FlipMove(-1)), BadIndex, "trail node 99 "),
        (writing(document_json, "trail"), (FlipMove(0), FlipMove(-1)), BadIndex, "trail node -1 "),
        (writing(emit_document, "trail"), (FlipMove(-1),), BadIndex, "trail node -1 "),
        (writing(document_json, "trail"), (FlipMove(True),), BadIndex, "trail node True "),
        (writing(emit_document, "trail"), (FlipMove(False),), BadIndex, "trail node False "),
        (writing(document_json, "trail"), (FlipMove("1"),), BadIndex, "trail node '1' "),
        (writing(document_json, "realform"), {"name": (1, 2)}, SupervoganError, "realform .* is not JSON"),
        (writing(emit_document, "realform"), {"name": (1, 2)}, SupervoganError, "realform .* is not JSON"),
        (writing(document_json, "realform"), {1: "x"}, SupervoganError, "realform .* is not JSON"),
        (writing(emit_document, "realform"), {("a",): "x"}, SupervoganError, "realform .* is not JSON"),
        (writing(emit_document, "realform"), {"x": Q(1, 2)}, SupervoganError, "realform .* is not JSON"),
        (writing(document_json, "realform"), {"x": 10**5000}, SupervoganError, "realform <a value too long"),
        (writing(emit_document, "realform"), {"x": [10**5000]}, SupervoganError, "realform <a value too long"),
        (writing(document_json, "realform"), {"name": nested(5000)}, SupervoganError, "too deep to print"),
        (writing(emit_document, "realform"), {"name": nested(5000)}, SupervoganError, "too deep to print"),
    ],
)
def test_input_of_the_wrong_type_raises_a_typed_error(call, arg, error, message):
    with pytest.raises(error, match=message):
        call(arg)


# -------------------------------------------------------------------- verbs


def test_diagram_ascii(capsys):
    code, out, err = run(capsys, "diagram", "A(1,1)")
    assert code == 0 and "o---(x)---o" in out


def test_diagram_b01(capsys):
    code, out, err = run(capsys, "diagram", "B(0,1)")
    assert code == 0 and "(*)" in out


def test_diagram_json(capsys):
    code, out, err = run(capsys, "diagram", "D(2,1;1/2)", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["family"] == {"kind": "D21alpha", "m": 2, "n": 1, "alpha": "1/2"}


def test_enumerate_counts_lines(capsys):
    code, out, err = run(capsys, "enumerate", "G(3)")
    assert code == 0 and "4 painted diagrams" in out


def test_enumerate_reduce_classify(capsys):
    code, out, err = run(capsys, "enumerate", "F(4)", "--reduce", "--classify")
    assert code == 0
    for name in ["F(4;0)", "F(4;1)", "F(4;2)", "F(4;3)"]:
        assert name in out
    assert "sl(2,R) + so(3,4)" in out


def test_enumerate_json_is_document_array(capsys):
    code, out, err = run(
        capsys, "enumerate", "B(0,2)", "--format", "json", "--classify"
    )
    docs = json.loads(out)
    assert code == 0 and isinstance(docs, list) and len(docs) == 2
    assert all(d["schema_version"] == "1" for d in docs)
    assert {d["realform"]["name"] for d in docs} == {"osp(1|4;R)"}


def test_reduce_trail(capsys):
    code, out, err = run(capsys, "reduce", "A(3,0)", "--painted", "1,3")
    assert code == 0
    assert "flips: 1, 2" in out
    assert "reduced painted=[2]" in out


def test_reduce_json(capsys):
    code, out, err = run(
        capsys, "reduce", "A(3,0)", "--painted", "1,3", "--format", "json"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["trail"] == [1, 2]
    assert [n["painted"] for n in doc["nodes"]] == [False, True, False, False]


def test_classify_text(capsys):
    code, out, err = run(capsys, "classify", "C(4)", "--painted", "2")
    assert code == 0
    assert "g = osp(2|2,4;H)" in out
    assert "g0 = so*(2) + sp(1,2)" in out


def test_classify_json(capsys):
    code, out, err = run(
        capsys, "classify", "D(3,2)", "--involution", "swap", "--format", "json"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["realform"]["name"] == "osp(1,5|4;R)"
    assert doc["realform"]["even_parts"] == ["sp(4,R)", "so(1,5)"]
    assert doc["arrows"] == [[4, 5]]


def test_classify_with_involution_reversal(capsys):
    code, out, err = run(capsys, "classify", "A(2,2)", "--involution", "reversal")
    assert code == 0 and "psl(3|3;R)" in out


# -------------------------------------------------------------------- table


def test_table_f4_is_clean(capsys):
    code, out, err = run(capsys, "table", "F(4)")
    assert code == 0
    assert "result: clean" in out
    assert out.count("[ok]") == 4


def test_table_json(capsys):
    code, out, err = run(capsys, "table", "G(3)", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["clean"] is True
    assert {row["name"] for row in payload["computed"]} == {"G(3,0)", "G(3,1)"}


def test_table_mismatch_exit_code(capsys):
    # honest gap: distinguished enumeration misses sl(3|2;R)
    code, out, err = run(capsys, "table", "A(2,1)")
    assert code == 2
    assert "MISSING" in out


@pytest.mark.parametrize("fmt", ["ascii", "json"])
def test_table_shows_even_part_mismatches_and_unexpected_rows(capsys, monkeypatch, fmt):
    """A reference table that gives F(4;3) another even part and has no
    F(4;1) row: each reads so, in either format, and the table exits 2."""
    report = cli.table_report(build_diagram(FamilyId("F4")))
    expected = (
        ("F(4;0)", ("sl(2,R)", "so(7)")),
        ("F(4;3)", ("so(3)", "so(1,6)")),
        ("F(4;2)", ("su(2)", "so(2,5)")),
    )
    changed = dataclasses.replace(
        report, expected=expected, unexpected=("F(4;1)",), even_mismatches=("F(4;3)",)
    )
    monkeypatch.setattr(cli, "table_report", lambda diagram: changed)
    code, out, err = run(capsys, "table", "F(4)", "--format", fmt)
    assert (code, err) == (2, "")
    if fmt == "json":
        payload = json.loads(out)
        assert payload["unexpected"] == ["F(4;1)"] and payload["even_mismatches"] == ["F(4;3)"]
        assert payload["missing"] == [] and payload["clean"] is False
        return
    lines = out.splitlines()
    assert "  g = F(4;0)   g0 = sl(2,R) + so(7)                [ok]" in lines
    assert (
        "  g = F(4;3)   g0 = so(3) + so(1,6)                "
        "[EVEN-PART MISMATCH (computed su(2) + so(1,6))]"
    ) in lines
    assert "  g = F(4;1)   g0 = sl(2,R) + so(3,4)              [UNEXPECTED]" in lines
    assert lines[-1] == "result: MISMATCHES"


# ------------------------------------------------------------------- errors


def test_bad_spec_exit(capsys):
    code, out, err = run(capsys, "diagram", "Q(1)")
    assert code == 1 and "position 0" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["bogus"], "invalid choice"),
        (["table"], "required: family"),
        (["table", "A(1,1)", "--nope"], "unrecognized arguments: --nope"),
        ([], "required: verb"),
        (["classify", "B(2,2)", "--format", "xml"], "argument --format: invalid choice"),
        (["classify", "B(2,2)", "--painted"], "expected one argument"),
        (["classify", "B(2,2)", "extra"], "unrecognized arguments: extra"),
    ],
    ids=[
        "unknown-verb",
        "missing-family",
        "unknown-flag",
        "no-arguments",
        "bad-choice",
        "missing-value",
        "extra-positional",
    ],
)
def test_usage_errors_exit_1_not_the_mismatch_code(capsys, argv, message):
    code, out, err = exit_of(main, argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("usage: supervogan") and "error:" in err
    assert message in err
    # verb entry leaves every usage error to the parser that reports it
    assert (code, out, err) == exit_of(cli.build_parser().parse_args, argv, capsys)


@pytest.mark.parametrize("argv", [["--help"]] + [[verb, "--help"] for verb in VERBS], ids=" ".join)
def test_help_still_exits_0(capsys, argv):
    code, out, err = exit_of(main, argv, capsys)
    assert code == 0 and out.startswith(f"usage: {' '.join(['supervogan', *argv[:-1]])} ")
    assert (code, out, err) == exit_of(cli.build_parser().parse_args, argv, capsys)


def test_table_refuses_dot_as_a_usage_error(capsys):
    """``table`` has no DOT writer, so it offers only the formats it writes."""
    argv = ["table", "F(4)", "--format", "dot"]
    code, out, err = exit_of(main, argv, capsys)
    assert (code, out) == (1, "")
    assert "--format {ascii,json}" in err and "argument --format: invalid choice" in err
    assert (code, out, err) == exit_of(cli.build_parser().parse_args, argv, capsys)


@pytest.mark.parametrize(
    "argv",
    [["classify", "C(4)", "--painted", "2"], ["reduce", "C(4)", "--painted", "2,4"]],
    ids=" ".join,
)
def test_a_name_or_a_trail_refuses_dot_as_a_usage_error(capsys, argv):
    """DOT draws no name or trail, so ``classify`` and ``reduce`` offer only
    the formats that carry their answer, through either parse."""
    argv = [*argv, "--format", "dot"]
    code, out, err = exit_of(main, argv, capsys)
    assert (code, out) == (1, "")
    assert "--format {ascii,json}" in err and "argument --format: invalid choice" in err
    assert (code, out, err) == exit_of(cli.build_parser().parse_args, argv, capsys)


@pytest.mark.parametrize("fmt", ["ascii", "dot", "json"])
def test_a_reader_that_closes_the_pipe_early_gets_exit_1_and_no_traceback(fmt):
    src = str(Path(cli.__file__).resolve().parents[1])
    with subprocess.Popen(
        [sys.executable, "-m", "supervogan.cli", "enumerate", "C(12)", "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    ) as proc:
        # a few bytes of far more than a pipe holds: the writer is still writing
        assert len(proc.stdout.read(16)) == 16
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (1, b"")


def test_rank_guard(capsys):
    code, out, err = run(capsys, "enumerate", "A(9,9)")
    assert code == 1 and "12" in err


def test_rank_guard_boundary(capsys):
    # 12 nodes is allowed, 13 is not
    code, out, err = run(capsys, "diagram", "B(6,6)")
    assert code == 0
    code, out, err = run(capsys, "diagram", "B(7,6)")
    assert code == 1


@pytest.mark.parametrize("painted", ["2,,4", ",2,4,", "2, ,4"])
def test_empty_painted_tokens_are_skipped(capsys, painted):
    assert run(capsys, "reduce", "C(4)", "--painted", painted) == run(
        capsys, "reduce", "C(4)", "--painted", "2,4"
    )


def test_paint_odd_node(capsys):
    code, out, err = run(capsys, "classify", "A(2,1)", "--painted", "3")
    assert code == 1 and "odd" in err


def test_paint_out_of_range(capsys):
    code, out, err = run(capsys, "reduce", "A(2,1)", "--painted", "0")
    assert code == 1
    code, out, err = run(capsys, "reduce", "A(2,1)", "--painted", "5")
    assert code == 1 and "range" in err


def test_paint_moved_node(capsys):
    code, out, err = run(
        capsys, "classify", "A(2,2)", "--involution", "reversal", "--painted", "1"
    )
    assert code == 1 and "moved" in err


def test_unknown_involution(capsys):
    code, out, err = run(capsys, "classify", "B(1,1)", "--involution", "swap")
    assert code == 1 and "choices: identity" in err


def test_invalid_family_parameters(capsys):
    code, out, err = run(capsys, "diagram", "D(2,1;0)")
    assert code == 1
    code, out, err = run(capsys, "diagram", "C(1)")
    assert code == 1


@pytest.mark.parametrize(
    "alpha",
    ["1e5000", "1e2000000", "-3.5E-5000", "7" * 5000],
    ids=["1e5000", "1e2000000", "-3.5E-5000", "5000-digits"],
)
def test_oversized_alpha_fails_fast_with_a_parse_error(capsys, alpha):
    start = perf_counter()
    code, out, err = run(capsys, "table", f"D(2,1;{alpha})")
    assert perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "position" in err


@pytest.mark.parametrize(
    "alpha", ["9" * 61 + "e64", "-0." + "0" * 56 + "1e-64"], ids=["large", "small"]
)
def test_the_largest_accepted_alphas_print_and_tabulate(capsys, alpha):
    start = perf_counter()
    code, out, err = run(capsys, "table", f"D(2,1;{alpha})", "--format", "json")
    assert perf_counter() - start < 0.5
    assert code == 0 and json.loads(out)["clean"]


@pytest.mark.parametrize(
    "spec",
    ["A(" + "1" * 5000 + ",1)", "A(\u00b2,1)", "C(\u0663)"],
    ids=["5000-digits", "superscript-two", "arabic-indic-three"],
)
def test_spec_integers_past_int_limits_are_parse_errors(capsys, spec):
    code, out, err = run(capsys, "diagram", spec)
    assert code == 1 and err.startswith("error: ") and "position 2" in err


@pytest.mark.parametrize(
    "painted", ["\u00b2", "1" * 5000], ids=["superscript-two", "5000-digits"]
)
def test_painted_tokens_past_int_limits_are_typed_errors(capsys, painted):
    code, out, err = run(capsys, "classify", "A(2,1)", "--painted", painted)
    assert code == 1 and err.startswith("error: ")


def test_painted_index_behind_5000_leading_zeros_reads_as_its_value(capsys):
    expected = run(capsys, "classify", "A(2,2)", "--painted", "1")
    assert run(capsys, "classify", "A(2,2)", "--painted", "0" * 5000 + "1") == expected


def test_main_builds_its_parser_once(capsys, monkeypatch):
    """A well-formed request builds its verb's parser alone, once, and never
    the full parser; a usage error builds the full parser, which reports it."""
    query = ["classify", "B(2,2)", "--painted", "3", "--format", "json"]
    requests = [query, ["table", "C(4)"], ["reduce", "A(3,0)", "--painted", "1,3"], query]
    fresh = []
    for argv in requests:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli._parser.cache_clear()
    built, build, add_verb = [], cli.build_parser, cli._add_verb
    monkeypatch.setattr(cli, "build_parser", lambda: built.append("full") or build())
    monkeypatch.setattr(cli, "_add_verb", lambda parser, verb: built.append(verb) or add_verb(parser, verb))
    assert [run(capsys, *argv) for argv in requests] == fresh
    assert built == ["classify", "table", "reduce"]
    assert cli._parser.cache_info().hits == 1
    built.clear()
    assert exit_of(main, ["table", "C(4)", "--nope"], capsys)[0] == 1
    # the full parser gives each of its subparsers the verb's arguments
    assert built == ["full", *VERBS]


# -------------------------------------------------------------- verb entry


PARSE_GRID = [
    ["classify", "B(2,2)", "--format=json", "--painted", "3"],
    ["classify", "B(2,2)", "--form", "json", "--painted", "3"],
    ["reduce", "--format", "ascii", "--painted", "2,4", "C(4)"],
    ["reduce", "C(4)", "--painted", "2", "--painted", "2,4", "--format", "ascii", "--format", "json"],
    ["classify", "A(3,0)", "--painted", ""],
    ["classify", "D(2,1;-3/5)", "--painted", "1", "--involution", "identity"],
    ["enumerate", "A(1,1)", "--classify", "--reduce", "--reduce", "--format", "json"],
    ["table", "F(4)", "--out", "table.txt"],
    ["diagram", "G(3)"],
]


@pytest.mark.parametrize("argv", PARSE_GRID, ids=" ".join)
def test_verb_entry_parses_as_the_full_parser(monkeypatch, argv):
    expected = vars(cli.build_parser().parse_args(argv))

    def full_parse(args=None, namespace=None):
        raise AssertionError("took the full parse")

    monkeypatch.setattr(cli._parser(), "parse_args", full_parse)
    assert vars(cli._parse_args(argv)) == expected


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    argv = ["reduce", "C(4)", "--painted", "2,4", "--format", "json"]
    expected = run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["supervogan"] + argv)
    code = main()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected
    assert json.loads(expected[1])["trail"] == [2, 3, 4]


# ------------------------------------------------------------ json replies


def stdlib_encoding(out: str) -> str:
    """The printed document as ``json.dumps(document, indent=2)`` writes it."""
    return json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("fam", guard_families(), ids=lambda fam: fam.display())
def test_json_replies_are_the_stdlib_encoding(capsys, fam):
    spec = fam.display()
    even = ",".join(str(i + 1) for i in build_diagram(fam).even_indices())
    for argv in (
        ["table", spec],
        ["diagram", spec],
        ["classify", spec, "--painted", even],
        ["reduce", spec, "--painted", even],
    ):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert err == "" and out == stdlib_encoding(out)


@pytest.mark.parametrize(
    "fam",
    [fam for fam in guard_families() if node_count(fam) <= 8],
    ids=lambda fam: fam.display(),
)
def test_enumerate_json_is_the_stdlib_encoding(capsys, fam):
    argv = ["enumerate", fam.display(), "--reduce", "--classify", "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert code == 0 and out == stdlib_encoding(out)
    # each painting is named once per flip orbit; its reduced form is in it
    for doc in json.loads(out):
        desc = classify(parse_document(doc))
        assert doc["realform"]["name"] == desc.super_name
        assert doc["realform"]["even_parts"] == list(desc.even_parts)


# ---------------------------------------------------------------------- out


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "diagram.json"
    code, out, err = run(
        capsys, "diagram", "F(4)", "--format", "json", "--out", str(target)
    )
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["family"]["kind"] == "F4"


def test_out_dot_file_roundtrip(tmp_path, capsys):
    target = tmp_path / "diagram.dot"
    code, out, err = run(
        capsys, "enumerate", "D(2,2)", "--format", "dot", "--out", str(target)
    )
    text = target.read_text()
    assert code == 0
    assert text.count("strict graph ") == text.count("}\n")


def test_out_to_an_unwritable_path_is_one_error_line(tmp_path, capsys):
    # a missing directory raises FileNotFoundError, a directory IsADirectoryError
    for target in (tmp_path / "missing" / "out.json", tmp_path):
        code, out, err = run(capsys, "diagram", "F(4)", "--out", str(target))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1 and "Traceback" not in err


def test_enumerate_to_an_unwritable_path_writes_nothing(tmp_path, capsys):
    for target in (tmp_path / "missing" / "out.json", tmp_path):
        for fmt, flags in (("ascii", ["--classify"]), ("json", ["--classify"]), ("dot", [])):
            argv = ["enumerate", "C(4)", *flags, "--format", fmt, "--out", str(target)]
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert err.startswith(f"error: cannot write {target}: ")
            assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("flags", [["--reduce"], ["--classify"], ["--reduce", "--classify"]])
def test_enumerate_refuses_dot_with_a_name_or_a_trail(tmp_path, capsys, flags):
    """The DOT writer has no place for a real form's name or a flip trail,
    so ``enumerate --format dot`` refuses ``--reduce`` and ``--classify``
    with one error line, before it opens its output; it once drew the
    paintings and dropped both."""
    target = tmp_path / "out.dot"
    for out_args in ([], ["--out", str(target)]):
        code, out, err = run(capsys, "enumerate", "C(4)", "--format", "dot", *flags, *out_args)
        assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
        assert "--format dot" in err
        assert not target.exists()


@pytest.mark.parametrize("spec", ["C(", "Q(2)", "C(13)", "A(6,6)", "D(2,1;0)"])
def test_enumerate_input_errors_come_before_the_first_byte(tmp_path, capsys, spec):
    """``enumerate`` writes each painting as it is made, but a bad spec or
    the rank guard stops it before it opens its output or writes a byte."""
    target = tmp_path / "out.txt"
    for fmt in ("ascii", "json", "dot"):
        for out_args in ([], ["--out", str(target)]):
            argv = ["enumerate", spec, "--reduce", "--classify", "--format", fmt, *out_args]
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "") and err.startswith("error: ")
            assert not target.exists()


# ------------------------------------------------------------------- readme


def readme_sessions():
    """Each README ```text block that starts with a ``$ supervogan`` line,
    as (arguments, expected output lines)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sessions = []
    for block in re.findall(r"^```text\n(.*?)^```$", text, re.M | re.S):
        command, *lines = block.splitlines()
        if command.startswith("$ supervogan "):
            sessions.append((shlex.split(command)[2:], lines))
    return sessions


README_SESSIONS = readme_sessions()


def test_the_readme_has_a_session_for_every_verb():
    verbs = {argv[0] for argv, _ in README_SESSIONS}
    assert verbs == {"diagram", "enumerate", "reduce", "classify", "table"}


@pytest.mark.parametrize(
    "argv, expected", README_SESSIONS, ids=[" ".join(argv) for argv, _ in README_SESSIONS]
)
def test_readme_sessions_match_the_cli(capsys, argv, expected):
    """The output shown in the README is the CLI's; a ``...`` line stands for
    any run of lines between the lines shown before and after it."""
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    got = out.splitlines()
    if "..." in expected:
        cut = expected.index("...")
        head, tail = expected[:cut], expected[cut + 1 :]
        assert len(got) >= len(head) + len(tail)
        assert got[: len(head)] == head and got[len(got) - len(tail) :] == tail
    else:
        assert got == expected


@pytest.mark.parametrize(
    "fam",
    [fam for fam in guard_families() if node_count(fam) == 12],
    ids=lambda fam: fam.display(),
)
def test_enumerate_reduce_classify_at_the_rank_guard_takes_under_a_second(capsys, fam):
    """Every orbit and block orbit is walked once, so reducing and naming
    all of a 12-node family's paintings, from a cold store, takes under a
    second."""
    build_diagram.cache_clear()
    start = perf_counter()
    code, out, _ = run(capsys, "enumerate", fam.display(), "--reduce", "--classify")
    assert perf_counter() - start < 1
    assert code == 0 and out.count("reduced painted=") == len(enumerate_vogan(build_diagram(fam)))
