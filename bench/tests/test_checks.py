"""Tests for the benchmark's own checks and tracer.

Each workload runs on small families and its outputs pass every check; each
check also rejects a deliberately corrupted output.  Run from the root of a
checkout with:

    python3 -m unittest discover -s bench/tests
"""

from __future__ import annotations

import json
import os
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import supervogan.cli  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from oracle import Fam  # noqa: E402
from spans import Caches, Tracer  # noqa: E402


def outputs(workload) -> list:
    workload.begin_round()
    return [(op, workload.run(op)) for op in workload.ops]


class SmallTables(workloads.FamilyTables):
    GRID = (
        Fam("A", 1, 1),
        Fam("A", 2, 2),
        Fam("B", 1, 1),
        Fam("B", 0, 2),
        Fam("C", 4),
        Fam("D", 2, 2),
        Fam("D", 3, 1),
        Fam("D21", alpha=Fraction(1)),
        Fam("D21", alpha=Fraction(2)),
        Fam("F4"),
        Fam("G3"),
    )


class SmallCensus(workloads.RootCensus):
    GRID = (
        Fam("A", 2, 1),
        Fam("A", 1, 1),
        Fam("B", 2, 2),
        Fam("B", 0, 3),
        Fam("C", 4),
        Fam("D", 3, 2),
        Fam("D21", alpha=Fraction(3, 5)),
        Fam("F4"),
        Fam("G3"),
    )
    PER_FAMILY = 3
    XOR_SAMPLES = 10


class SmallQueries(workloads.PaintingQueries):
    FAMILIES = (
        Fam("A", 2, 1),
        Fam("A", 2, 2),
        Fam("B", 0, 2),
        Fam("B", 2, 1),
        Fam("C", 4),
        Fam("D", 2, 2),
        Fam("D", 3, 2),
        Fam("F4"),
        Fam("G3"),
    )
    HEAVY = (Fam("D", 3, 2),)
    PER_HEAVY = 8
    ALPHAS = 5
    PER_ALPHA = 2
    ROUND = 48


class NameGrammar(unittest.TestCase):
    def test_dimensions(self):
        cases = {
            "su(3)": 8,
            "su(2,2)": 15,
            "so(7)": 21,
            "so(1,6)": 21,
            "so*(2)": 1,
            "so*(8)": 28,
            "sp(3)": 21,
            "sp(1,2)": 21,
            "sp(6,R)": 21,
            "su*(4)": 15,
            "sl(3,R)": 8,
            "sl(2,C)": 6,
            "G2,0": 14,
            "G2,2": 14,
            "iR": 1,
            "R": 1,
        }
        for name, dim in cases.items():
            self.assertEqual(oracle.name_dim(name), dim, name)

    def test_rejects_names_outside_the_grammar(self):
        for name in ("su(2", "so*(3)", "sp(3,R)", "so(3,C)", "G2", "sl(3)", ""):
            with self.assertRaises(ValueError, msg=name):
                oracle.name_dim(name)


class Workloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.caches = Caches()

    def setUp(self):
        self.caches.clear()

    def test_family_tables_pass(self):
        wl = SmallTables()
        wl.setup(1)
        self.assertEqual(wl.check(outputs(wl)), [])

    def test_family_tables_reject_a_changed_signature(self):
        wl = SmallTables()
        wl.setup(1)
        pairs = outputs(wl)
        k = next(k for k, (op, _) in enumerate(pairs) if op[0] == Fam("B", 1, 1))
        op, (code, text) = pairs[k]
        self.assertIn('"so(1,2)"', text)
        pairs[k] = (op, (code, text.replace('"so(1,2)"', '"so(2,2)"')))
        problems = wl.check(pairs)
        self.assertEqual(len(problems), 1)
        self.assertIn("dimension", problems[0])

    def test_family_tables_reject_a_missing_row(self):
        wl = SmallTables()
        wl.setup(1)
        pairs = outputs(wl)
        k = next(k for k, (op, _) in enumerate(pairs) if op[0] == Fam("D", 3, 1))
        op, (code, text) = pairs[k]
        doc = json.loads(text)
        doc["computed"].pop()
        pairs[k] = (op, (code, json.dumps(doc)))
        self.assertTrue(any("closed form" in p for p in wl.check(pairs)))

    def test_root_census_passes(self):
        wl = SmallCensus()
        wl.setup(2)
        self.assertEqual(wl.check(outputs(wl)), [])

    def test_root_census_rejects_a_dropped_root(self):
        wl = SmallCensus()
        wl.setup(2)
        pairs = outputs(wl)
        k = wl.GRID.index(Fam("B", 2, 2))
        system = wl.first_roots[k]
        wl.first_roots[k] = type(system)(system.even_1[1:], system.even_2, system.odd)
        problems = wl.check(pairs)
        self.assertTrue(any("rank + 2(#even + #odd)" in p for p in problems), problems)

    def test_root_census_rejects_a_changed_parity(self):
        wl = SmallCensus()
        wl.setup(2)
        pairs = outputs(wl)
        k = next(k for k, (op, _) in enumerate(pairs) if wl.GRID[op[0]] == Fam("C", 4))
        op, out = pairs[k]
        pairs[k] = (op, (1 - out[0],) + out[1:])
        self.assertTrue(any("noncompact roots" in p for p in wl.check(pairs)))

    def test_root_expansions_need_integer_coefficients_of_one_sign(self):
        simple = [(Fraction(1), Fraction(-1), Fraction(0)), (Fraction(0), Fraction(1), Fraction(-1))]
        self.assertTrue(oracle.integral_expansions(simple, (Fraction(1), Fraction(0), Fraction(-1))))
        self.assertFalse(oracle.integral_expansions(simple, (Fraction(1), Fraction(-2), Fraction(1))))
        self.assertFalse(oracle.integral_expansions(simple, (Fraction(1, 2), Fraction(0), Fraction(-1, 2))))

    def test_painting_queries_pass(self):
        wl = SmallQueries()
        wl.setup(3)
        self.assertEqual(len(wl.ops), SmallQueries.ROUND)
        self.assertEqual(wl.check(outputs(wl)), [])

    def test_painting_queries_reject_a_shortened_trail(self):
        wl = SmallQueries()
        wl.setup(3)
        pairs = outputs(wl)
        json_k = next(
            k for k, (op, (_, text)) in enumerate(pairs)
            if op[1] == "reduce" and op[2] == "json" and json.loads(text)["trail"]
        )
        op, (code, text) = pairs[json_k]
        doc = json.loads(text)
        doc["trail"].pop()
        pairs[json_k] = (op, (code, json.dumps(doc, indent=2)))
        ascii_k = next(
            k for k, (op, (_, text)) in enumerate(pairs)
            if op[1] == "reduce" and op[2] == "ascii" and "flips: none" not in text
        )
        op, (code, text) = pairs[ascii_k]
        line = oracle.ascii_field(text, "flips: ")
        shorter = ", ".join(line.split(", ")[:-1]) or "none"
        pairs[ascii_k] = (op, (code, text.replace(f"flips: {line}", f"flips: {shorter}")))
        problems = wl.check(pairs)
        self.assertEqual(sum("replaying flips" in p for p in problems), 2, problems)

    def test_painting_queries_reject_a_changed_painting(self):
        wl = SmallQueries()
        wl.setup(3)
        pairs = outputs(wl)
        k = next(k for k, (op, _) in enumerate(pairs) if op[1] == "classify" and op[2] == "json" and op[4])
        op, (code, text) = pairs[k]
        doc = json.loads(text)
        node = next(n for n in doc["nodes"] if n["painted"])
        node["painted"] = False
        pairs[k] = (op, (code, json.dumps(doc, indent=2)))
        self.assertTrue(any("reply paints" in p for p in wl.check(pairs)))

    def test_reduced_paintings_keep_one_node_per_block(self):
        self.assertEqual(oracle.check_reduced([{0, 1}, {3}], {1, 3}, "x"), [])
        self.assertEqual(len(oracle.check_reduced([{0, 1}, {3}], {0, 1}, "x")), 1)


class Tracing(unittest.TestCase):
    def test_spans_nest_and_wrappers_come_out(self):
        cli = sys.modules["supervogan.cli"]
        vogan = sys.modules["supervogan.vogan"]
        original = vogan.canonical_block_painting
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(vogan.canonical_block_painting, original)
            self.assertIsNot(sys.modules["supervogan.classify"].canonical_block_painting, original)
            code, _ = workloads.call_cli(cli, ["reduce", "C(4)", "--painted", "2,3"])
        finally:
            tracer.uninstall()
        self.assertEqual(code, 0)
        self.assertIs(vogan.canonical_block_painting, original)
        summary = tracer.summary()
        self.assertEqual(summary["cli.main"]["calls"], 1)
        self.assertEqual(summary["vogan.reduce_with_trail"]["calls"], 1)
        self.assertGreater(tracer.trail_flips, 0)
        main = summary["cli.main"]
        self.assertLess(main["self_ms"], main["ms"])
        names = [tracer.names[i] for i in tracer.span_name]
        parents = list(tracer.span_parent)
        self.assertEqual(parents[names.index("cli.main")], -1)
        reduce_parent = parents[names.index("vogan.reduce_with_trail")]
        self.assertEqual(names[reduce_parent], "cli.main")


if __name__ == "__main__":
    unittest.main()
