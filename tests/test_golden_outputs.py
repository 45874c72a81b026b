"""CLI output stays byte-identical: the committed whole-guard digest
(``golden_outputs.py``), checked here on the families of up to 8 nodes.
The desk set is compared in full text first, so a change there shows its
lines."""

import json

import pytest
from golden_outputs import (
    DESK,
    GOLDEN,
    REQUESTS,
    differences,
    families,
    requests,
    run,
    selected,
)

GOLDEN_DATA = json.loads(GOLDEN.read_text())


def test_the_digest_covers_every_request_once():
    fams = families()
    assert len(fams) == 231
    keys = [" ".join(argv) for fam in fams for argv in requests(fam)]
    assert sorted(keys) == sorted(GOLDEN_DATA["digests"])
    assert len(GOLDEN_DATA["texts"]) == len(DESK) * len(REQUESTS)


@pytest.mark.parametrize("key", sorted(GOLDEN_DATA["texts"]))
def test_desk_outputs_are_unchanged(key):
    code, out, err = GOLDEN_DATA["texts"][key]
    got_code, got_out, got_err = run(key.split(" "))
    assert got_out.splitlines() == out.splitlines()
    assert (got_code, got_out, got_err) == (code, out, err)


def test_outputs_up_to_eight_nodes_are_unchanged():
    assert differences(GOLDEN_DATA, selected(1, 8)) == []
