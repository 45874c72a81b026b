"""The whole-guard output digest, ``tests/golden/outputs.json``.

For every family the rank guard admits (``test_algebra.guard_families``)
and D(2,1;alpha) for each of ``test_vogan.ADMISSIBLE_ALPHAS``, the file
holds one SHA-256 per CLI request, keyed by its argument list, taken over
the exit code, standard output and standard error.  The requests are
``table`` in ASCII and JSON, ``enumerate --classify``, ``enumerate --reduce
--classify --format json`` and ``enumerate --format dot``.  For a small desk
set it also holds the full text, so a failing check can show the lines that
changed.

The digest is built from the code under test: it guards against output
changes, it is not an oracle.  A change meant to alter an output
regenerates the file and names each changed family in CHANGES.md.

    PYTHONPATH=src python tests/golden_outputs.py --write
    PYTHONPATH=src python tests/golden_outputs.py --check --min-nodes 9

``--check`` exits 1 and lists each request whose output differs; the
tier-1 test (``test_golden_outputs.py``) checks the families of up to 8
nodes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from test_algebra import guard_families  # noqa: E402
from test_vogan import ADMISSIBLE_ALPHAS  # noqa: E402

from supervogan import FamilyId, cli  # noqa: E402
from supervogan.algebra import RANK_GUARD, node_count  # noqa: E402

GOLDEN = HERE / "golden" / "outputs.json"

REQUESTS = (
    ("table",),
    ("table", "--format", "json"),
    ("enumerate", "--classify"),
    ("enumerate", "--reduce", "--classify", "--format", "json"),
    ("enumerate", "--format", "dot"),
)

DESK = ("A(2,2)", "B(2,2)", "C(4)", "D(3,2)", "D(2,1;2)", "F(4)", "G(3)")


def families() -> list[FamilyId]:
    """The guard families, then the admissible alphas they do not list."""
    fams = guard_families()
    fams += [
        fam
        for fam in (FamilyId("D21alpha", alpha=a) for a in ADMISSIBLE_ALPHAS)
        if fam not in fams
    ]
    return fams


def requests(fam: FamilyId) -> list[list[str]]:
    spec = fam.display()
    return [[verb, spec, *flags] for verb, *flags in REQUESTS]


def run(argv: list[str]) -> list:
    """[exit code, stdout, stderr] of ``supervogan`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [code, out.getvalue(), err.getvalue()]


def digest(result: list) -> str:
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()


def selected(min_nodes: int, max_nodes: int) -> list[FamilyId]:
    return [fam for fam in families() if min_nodes <= node_count(fam) <= max_nodes]


def differences(golden: dict, fams: list[FamilyId]) -> list[str]:
    """Each request of ``fams`` whose output differs from ``golden``'s."""
    found = []
    for fam in fams:
        for argv in requests(fam):
            key = " ".join(argv)
            if digest(run(argv)) != golden["digests"].get(key):
                found.append(key)
    return found


def build() -> dict:
    digests, texts = {}, {}
    for fam in families():
        for argv in requests(fam):
            result = run(argv)
            key = " ".join(argv)
            digests[key] = digest(result)
            if fam.display() in DESK:
                texts[key] = result
    return {"digests": digests, "texts": texts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="regenerate the file")
    mode.add_argument("--check", action="store_true", help="compare with the file")
    parser.add_argument("--min-nodes", type=int, default=1)
    args = parser.parse_args(argv)
    if args.write:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n")
        return 0
    fams = selected(args.min_nodes, RANK_GUARD)
    found = differences(json.loads(GOLDEN.read_text()), fams)
    print(f"{len(fams)} families, {len(fams) * len(REQUESTS)} requests, {len(found)} differ")
    for key in found:
        print(f"differs: {key}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
