"""``root_expansion`` against the ``Fraction`` oracle on the larger families.

For every family the rank guard admits (``test_algebra.guard_families``)
with at least ``--min-nodes`` nodes, every positive root and its negative is
expanded by ``root_expansion`` and by ``test_integer_kernel.oracle_expansions``
(pure ``Fraction`` elimination, no code shared with ``linalg.bareiss``), and
the two must agree.  Tier-1 runs the same comparison on the families of
``test_algebra.EXPANSION_GRID``, five of which have more than 8 nodes.

    PYTHONPATH=src python tests/check_expansions.py --min-nodes 9

Exits 1 and names each family whose expansions differ.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from test_algebra import guard_families  # noqa: E402
from test_integer_kernel import oracle_expansions  # noqa: E402

from supervogan import build_diagram, generate_roots, node_count, root_expansion  # noqa: E402


def differing(fam) -> int:
    """How many roots of ``fam``, counted with their negatives, the two
    expansions disagree on."""
    diagram = build_diagram(fam)
    signed = [v for r in generate_roots(diagram).all_positive() for v in (r, -r)]
    wants = oracle_expansions(diagram, signed)
    return sum(root_expansion(diagram, v) != want for v, want in zip(signed, wants))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-nodes", type=int, default=1)
    args = parser.parse_args(argv)
    fams = [f for f in guard_families() if node_count(f) >= args.min_nodes]
    bad = 0
    for fam in fams:
        count = differing(fam)
        if count:
            bad += 1
            print(f"{fam.display()}: {count} roots differ")
    print(f"{len(fams)} families, {bad} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
