"""The three workloads: what one operation is, how inputs are drawn, and
how outputs are checked.

A workload object is built by ``setup(seed)``, which a timed run repeats
``SETUPS`` times on freshly imported modules; ``ops`` is one round of
operations, ``run(op)`` performs one and returns its output, and
``check(pairs)`` returns the problems found in one round's (op, output)
pairs.
Workloads with ``cold_rounds`` start every round from empty package caches.
Calls into supervogan go through module attributes at call time, so the
tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction

import oracle
from oracle import Fam



def _modules():
    return {name: sys.modules[f"supervogan.{name}"] for name in ("cli", "render", "classify", "vogan", "algebra")}


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run ``supervogan.cli.main`` with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _coords(node) -> tuple:
    return tuple(node.root.e_part) + tuple(node.root.d_part)


def _painted_arg(painted) -> list[str]:
    return ["--painted", ",".join(str(i + 1) for i in sorted(painted))] if painted else []


# ----------------------------------------------------------------------------


class FamilyTables:
    """One operation is ``table <family> --format json`` through the CLI.

    The grid covers every kind at sizes where the round, not set-up, holds
    the time and no family holds most of it.  A(m,n) with m != n is left
    out because ``table`` exits 2 for it by design.
    """

    cold_rounds = True
    SETUPS = 21
    # Fifteen tables whose costs stand well apart where the percentiles
    # fall: the p50 is the eighth costliest, B(0,5), and the p90 tail the
    # second costliest, D(4,4), in every run of seven or more rounds.
    TAIL = 90
    GRID = (
        Fam("G3"),
        Fam("D21", alpha=Fraction(3, 2)),
        Fam("D21", alpha=Fraction(1)),
        Fam("B", 2, 2),
        Fam("F4"),
        Fam("A", 2, 2),
        Fam("C", 5),
        Fam("B", 0, 5),
        Fam("C", 6),
        Fam("A", 3, 3),
        Fam("D", 2, 5),
        Fam("D", 5, 2),
        Fam("B", 4, 4),
        Fam("D", 4, 4),
        Fam("D", 5, 3),
    )
    WARMUP = ("B(1,1)", "C(3)")

    def setup(self, seed: int) -> None:
        self.sv = _modules()
        cli, algebra = self.sv["cli"], self.sv["algebra"]
        grid = list(self.GRID)
        random.Random(seed).shuffle(grid)
        for fam in grid:
            algebra.build_diagram(cli.parse_family_spec(fam.spec()))
        for spec in self.WARMUP:
            call_cli(cli, ["table", spec, "--format", "json"])
        self.ops = [(fam, ["table", fam.spec(), "--format", "json"]) for fam in grid]

    def begin_round(self) -> None:
        pass

    def run(self, op) -> tuple[int, str]:
        return call_cli(self.sv["cli"], op[1])

    def check(self, pairs) -> list[str]:
        problems = []
        for (fam, _), (code, text) in pairs:
            if code != 0:
                problems.append(f"table {fam.spec()}: exit code {code}")
                continue
            problems += oracle.check_table(fam, json.loads(text))
        return problems


# ----------------------------------------------------------------------------


class RootCensus:
    """One operation is one (family, painting) census: the parity of every
    positive even root under the painting, from ``noncompact_parity``.

    The first census of a family in a round also calls ``generate_roots``
    and pays ``root_expansion``'s exact solves; later ones are cache
    lookups.  Rounds start from empty caches, so every round does the same
    work.
    """

    cold_rounds = True
    SETUPS = 21
    # Ten light families (a census under 1 ms), one middle family and ten
    # heavy ones of 11 or 12 nodes, twenty censuses each.  The p50 then
    # falls among the middle family's censuses, and the p98.8 tail among
    # the heavy families' first censuses, ten per round, at least 100 ms
    # each and three times any later census.
    TAIL = 98.8
    GRID = (
        Fam("D21", alpha=Fraction(-3, 5)),
        Fam("G3"),
        Fam("F4"),
        Fam("A", 2, 2),
        Fam("A", 3, 1),
        Fam("B", 0, 4),
        Fam("B", 3, 2),
        Fam("B", 2, 3),
        Fam("C", 5),
        Fam("D", 3, 3),
        Fam("C", 8),
        Fam("C", 11),
        Fam("C", 12),
        Fam("B", 6, 6),
        Fam("B", 4, 8),
        Fam("B", 2, 10),
        Fam("B", 0, 11),
        Fam("D", 6, 6),
        Fam("D", 4, 8),
        Fam("D", 8, 4),
        Fam("A", 11, 0),
    )
    PER_FAMILY = 20
    XOR_SAMPLES = 40

    def setup(self, seed: int) -> None:
        self.sv = _modules()
        cli, algebra = self.sv["cli"], self.sv["algebra"]
        rng = random.Random(seed)
        self.diagrams = [algebra.build_diagram(cli.parse_family_spec(f.spec())) for f in self.GRID]
        ops = []
        for k, d in enumerate(self.diagrams):
            even = [node.index for node in d.nodes if node.kind == "even"]
            for _ in range(self.PER_FAMILY):
                ops.append((k, frozenset(i for i in even if rng.random() < 0.5)))
        rng.shuffle(ops)
        self.ops = ops
        self.xor_seed = rng.randrange(1 << 30)
        self.first_roots = {}
        self.roots = {}

    def begin_round(self) -> None:
        self.roots = {}

    def run(self, op) -> tuple[int, ...]:
        k, painted = op
        d = self.diagrams[k]
        even = self.roots.get(k)
        if even is None:
            system = self.sv["algebra"].generate_roots(d)
            self.first_roots.setdefault(k, system)
            even = self.roots[k] = system.even()
        parity = self.sv["algebra"].noncompact_parity
        return tuple(parity(d, painted, v) for v in even)

    def check(self, pairs) -> list[str]:
        problems = []
        rng = random.Random(self.xor_seed)
        parity = self.sv["algebra"].noncompact_parity
        by_family: dict[int, list] = {}
        for (k, painted), out in pairs:
            by_family.setdefault(k, []).append((painted, out))
        for k, fam in enumerate(self.GRID):
            d = self.diagrams[k]
            system = self.first_roots[k]
            simple = [_coords(node) for node in d.nodes]
            even = [v.coords() for v in system.even()]
            problems += oracle.check_roots(fam, simple, even, [v.coords() for v in system.odd])
            if oracle.independent(simple):
                coeffs = [oracle.expansion(simple, v) for v in even]
                for painted, out in by_family[k]:
                    want = tuple(oracle.parity(c, painted) for c in coeffs)
                    if out != want:
                        problems.append(
                            f"census {fam.spec()} painted {sorted(painted)}: "
                            f"{sum(out)} noncompact roots, expected {sum(want)}"
                        )
            signed = list(system.even()) + [-v for v in system.even()]
            members = set(signed)
            found = tries = 0
            while found < self.XOR_SAMPLES and tries < 200 * self.XOR_SAMPLES:
                tries += 1
                a, b = rng.choice(signed), rng.choice(signed)
                if a + b not in members:
                    continue
                found += 1
                painted = rng.choice(by_family[k])[0]
                lhs = parity(d, painted, a + b)
                rhs = parity(d, painted, a) ^ parity(d, painted, b)
                if lhs != rhs:
                    problems.append(f"census {fam.spec()}: parity is not additive on {a} + {b}")
        return problems


# ----------------------------------------------------------------------------


class PaintingQueries:
    """One operation is one ``classify`` or ``reduce`` request through the
    CLI, on a painting no other request of the round uses.  JSON replies are
    read back with ``parse_document`` as part of the operation.

    Families cover every kind up to ten nodes, A(m,n) with m != n included,
    plus D(2,1;a) for several dozen a, so the set of distinct diagrams is
    larger than a modest bounded cache.  Set-up warms the per-diagram caches
    with a different set of paintings.
    """

    cold_rounds = False
    SETUPS = 5
    TAIL = 97.5
    FAMILIES = (
        Fam("A", 1, 0), Fam("A", 2, 1), Fam("A", 3, 1), Fam("A", 4, 2), Fam("A", 5, 3),
        Fam("A", 2, 2), Fam("A", 3, 3), Fam("A", 4, 4),
        Fam("B", 0, 2), Fam("B", 0, 4), Fam("B", 0, 6),
        Fam("B", 1, 1), Fam("B", 2, 3), Fam("B", 3, 2), Fam("B", 5, 5),
        Fam("C", 3), Fam("C", 5), Fam("C", 7),
        Fam("D", 2, 1), Fam("D", 2, 3), Fam("D", 3, 2), Fam("D", 4, 4), Fam("D", 5, 5),
        Fam("F4"), Fam("G3"),
    )
    ROUND = 400
    ALPHAS = 36
    PER_ALPHA = 3
    # The ten-node families get many requests, so that the slowest 2.5% of
    # a round is drawn from a large set of costly requests and reads the
    # same whatever the seed.
    HEAVY = (Fam("A", 4, 4), Fam("B", 5, 5), Fam("D", 5, 5))
    PER_HEAVY = 32
    KINDS = (("classify", "ascii"), ("classify", "json"), ("reduce", "ascii"), ("reduce", "json"))

    def setup(self, seed: int) -> None:
        self.sv = _modules()
        cli, algebra, vogan = self.sv["cli"], self.sv["algebra"], self.sv["vogan"]
        rng = random.Random(seed)
        alphas = list(oracle.SWAP_ALPHAS)
        while len(alphas) < self.ALPHAS:
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            if a not in alphas and a not in (0, -1):
                alphas.append(a)
        families = list(self.FAMILIES) + [Fam("D21", alpha=a) for a in alphas]
        self.diagrams = {}
        pools = {}
        for fam in families:
            d = algebra.build_diagram(cli.parse_family_spec(fam.spec()))
            self.diagrams[fam] = d
            pool = []
            vds = vogan.enumerate_vogan(d)
            for inv in vogan.automorphisms(d):
                paintings = [vd.painted for vd in vds if vd.involution == inv]
                sizes = oracle.flip_orbit_sizes(
                    [node.kind for node in d.nodes],
                    [tuple(node.root.e_part) for node in d.nodes],
                    [tuple(node.root.d_part) for node in d.nodes],
                    inv.fixed(),
                    paintings,
                )
                pool += [(size, inv.name, p) for size, p in zip(sizes, paintings)]
            pool.sort(key=lambda item: item[0])
            pools[fam] = [(name, p) for _, name, p in pool]
        quota = {fam: min(self.PER_ALPHA, len(pools[fam])) for fam in families[len(self.FAMILIES):]}
        quota.update({fam: min(self.PER_HEAVY, len(pools[fam])) for fam in self.HEAVY})
        light = [fam for fam in self.FAMILIES if fam not in self.HEAVY]
        grew = True
        while grew:
            grew = False
            for fam in light:
                if quota.get(fam, 0) < len(pools[fam]) and sum(quota.values()) < self.ROUND:
                    quota[fam] = quota.get(fam, 0) + 1
                    grew = True
        # A systematic sample from a seeded offset, over paintings sorted by
        # flip-orbit size, so every seed draws the same mix of cheap and
        # costly requests.
        ops = []
        warm = []
        for fam in families:
            pool, count = pools[fam], quota[fam]
            step = len(pool) / count
            offset = rng.random() * step
            chosen = sorted({int(offset + j * step) for j in range(count)})
            for j, index in enumerate(chosen):
                verb, fmt = self.KINDS[j % len(self.KINDS)]
                inv, painted = pool[index]
                argv = [verb, fam.spec(), "--format", fmt, "--involution", inv] + _painted_arg(painted)
                ops.append((fam, verb, fmt, inv, painted, argv))
            # Warm-up paintings come from the smallest orbits, so set-up
            # costs the same on every seed.
            others = [pool[i] for i in range(len(pool)) if i not in chosen][:4] or pool[:4]
            warm += [(fam, rng.choice(others), kind) for kind in (self.KINDS[0], self.KINDS[3])]
        for fam, (inv, painted), (verb, fmt) in warm:
            call_cli(cli, [verb, fam.spec(), "--format", fmt, "--involution", inv] + _painted_arg(painted))
        rng.shuffle(ops)
        self.ops = ops

    def begin_round(self) -> None:
        pass

    def run(self, op) -> tuple[int, str]:
        code, text = call_cli(self.sv["cli"], op[5])
        if op[2] == "json" and code == 0:
            self.sv["render"].parse_document(text)
        return code, text

    def check(self, pairs) -> list[str]:
        problems = []
        for op, (code, text) in pairs:
            where = " ".join(op[5])
            if code != 0:
                problems.append(f"{where}: exit code {code}")
                continue
            problems += self._check_reply(op, text, where)
        return problems

    def _check_reply(self, op, text: str, where: str) -> list[str]:
        fam, verb, fmt, inv_name, painted, _ = op
        sv = self.sv
        vogan, classify, render = sv["vogan"], sv["classify"], sv["render"]
        d = self.diagrams[fam]
        inv = next(g for g in vogan.automorphisms(d) if g.name == inv_name)
        start = vogan.VoganDiagram(d, inv, painted)
        problems = []
        if fmt == "json":
            doc = json.loads(text)
            trail = [vogan.FlipMove(i - 1) for i in doc["trail"]] if "trail" in doc else None
            again = render.emit_document(render.parse_document(doc), doc.get("realform"), trail)
            if again != doc:
                problems.append(f"{where}: emit_document(parse_document(doc)) differs from doc")
            shown = frozenset(node["index"] - 1 for node in doc["nodes"] if node["painted"])
        if verb == "classify":
            if fmt == "json":
                name, parts = doc["realform"]["name"], doc["realform"]["even_parts"]
                if shown != painted:
                    problems.append(f"{where}: reply paints {sorted(shown)}")
            else:
                name = oracle.ascii_field(text, "g = ")
                parts = (oracle.ascii_field(text, "g0 = ") or "").split(" + ")
            problems += oracle.check_even_parts(fam, parts, where)
            reduced = vogan.reduce(start)
            if classify.classify(reduced).super_name != name:
                problems.append(f"{where}: the reduced painting is named differently from {name}")
            return problems
        if fmt == "json":
            flips = [move.at for move in trail]
            target = shown
        else:
            flip_text = oracle.ascii_field(text, "flips: ")
            flips = [] if flip_text == "none" else [int(x) - 1 for x in flip_text.split(", ")]
            target = frozenset(oracle.painted_list(oracle.ascii_field(text, "reduced painted=")))
        vd = start
        for at in flips:
            vd = vogan.flip(vd, at)
        if vd.painted != target:
            problems.append(f"{where}: replaying flips {flips} reaches {sorted(vd.painted)}, not {sorted(target)}")
        blocks = oracle.even_blocks(
            [node.kind for node in d.nodes],
            [tuple(node.root.e_part) for node in d.nodes],
            [tuple(node.root.d_part) for node in d.nodes],
        )
        problems += oracle.check_reduced(blocks, target, where)
        reduced = vogan.VoganDiagram(d, inv, target)
        if classify.classify(reduced).super_name != classify.classify(start).super_name:
            problems.append(f"{where}: reduction changed the real form")
        return problems


WORKLOADS = {
    "family_tables": FamilyTables,
    "root_census": RootCensus,
    "painting_queries": PaintingQueries,
}
