"""Hypothesis property test of the CLI's verb entry: entering at the verb's
parser gives what the full parser gives, on drawn command lines."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st
from test_cli import VERBS

from supervogan import cli


def parse_outcome(parse, argv):
    """The namespace a parse returns, or the (exit code, stdout, stderr) of
    one that exits."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parse(argv))
    except SystemExit as exit_info:
        return exit_info.code, out.getvalue(), err.getvalue()


# each verb's option strings, abbreviated, joined to a value, wrong, and the
# values they take, right and wrong
TOKENS = [
    *("--format", "--out", "--painted", "--involution", "--reduce", "--classify", "-h", "--help"),
    *("--form", "--f", "--o", "--pain", "--inv", "--red", "--cl", "--c", "--he"),
    *("--format=json", "--form=dot", "--painted=2,4", "--involution=swap", "--reduce=1", "--nope"),
    *("ascii", "json", "dot", "xml", "2", "2,4", "", "identity", "swap", "reversal", "t.txt"),
    *("C(4)", "B(2,2)", "F(4)", "extra"),
]


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.tuples(st.sampled_from([*VERBS, "bogus"]), st.lists(st.sampled_from(TOKENS), max_size=7)).map(
            lambda drawn: [drawn[0], *drawn[1]]
        ),
        st.lists(st.sampled_from(TOKENS), max_size=3),
    )
)
def test_verb_entry_agrees_with_the_full_parser_on_every_input(argv):
    """Entry at the verb's parser, or the full parse it falls back to, gives
    what the full parser gives: the same namespace, or the same exit and
    the same bytes on each stream."""
    assert parse_outcome(cli._parse_args, argv) == parse_outcome(cli.build_parser().parse_args, argv)
