#!/usr/bin/env python3
"""Benchmark for supervogan: family tables, root census and painting queries.

Usage, from the root of a checkout:

    python3 bench/run.py --workload painting_queries --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The same object, with
detail, is written under ``bench/results/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
# Reported times are scaled to a machine speed at which one calibration
# kernel takes REFERENCE_KERNEL_S (its median on the reference machine), and
# the kernel is timed again whenever CALIBRATE_EVERY_S has passed.  The
# machine's speed drifts by a quarter or more in phases of 5 to 30 s, and
# the kernel drifts with it; see bench/README.md.
REFERENCE_KERNEL_S = 0.0012
CALIBRATE_EVERY_S = 0.05


_VECTOR = tuple(Fraction(i, i + 2) for i in range(24))


def _kernel() -> int:
    """Fixed pure-Python work like the program's: exact fractions, dict
    stores, and hashing of tuples of fractions as cache keys are hashed."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 60):
        f = Fraction(i, i + 3)
        acc += f * f
        key = (f, i, acc.numerator % 97)
        table[hash(key) % 61] = key
    seen = set()
    for i in range(40):
        seen.add(hash(_VECTOR[i % 7:] + (Fraction(i),)))
    return len(table) + len(seen)


class Clock:
    """Wall time scaled by the latest calibration of the machine's speed."""

    def __init__(self):
        self.kernel_s: list[float] = []
        self.last = float("-inf")
        self.factor = 1.0

    def calibrate(self, force: bool = False) -> None:
        if not force and perf_counter() - self.last < CALIBRATE_EVERY_S:
            return
        runs = []
        for _ in range(3):
            t = perf_counter()
            _kernel()
            runs.append(perf_counter() - t)
        kernel = statistics.median(runs)
        self.kernel_s.append(kernel)
        self.factor = REFERENCE_KERNEL_S / kernel
        self.last = perf_counter()

    def scale(self, seconds: float) -> float:
        """Scale a span that just ended; one longer than the calibration
        interval uses the mean of the factors before and after it."""
        if seconds <= CALIBRATE_EVERY_S:
            return seconds * self.factor
        before = self.factor
        self.calibrate(force=True)
        return seconds * (before + self.factor) / 2


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def import_package():
    """Import supervogan afresh from the checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "supervogan", "__init__.py")):
        sys.exit(f"error: no supervogan package under {SRC}")
    for name in [n for n in sys.modules if n == "supervogan" or n.startswith("supervogan.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import supervogan
    import supervogan.cli  # the package does not import its CLI itself

    if os.path.dirname(os.path.dirname(os.path.abspath(supervogan.__file__))) != SRC:
        sys.exit(f"error: imported supervogan from {supervogan.__file__}, not {SRC}")


class Runner:
    """Rounds of one workload, with failures counted and outputs compared."""

    def __init__(self, workload, caches, clock):
        self.workload = workload
        self.caches = caches
        self.clock = clock
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.changed = 0
        self.start_counters: dict[str, tuple[int, int]] = {}
        self.wall_s: list[float] = []

    def round(self, latencies: list[float]) -> float:
        """Run one round; return the sum of its scaled operation times."""
        wl = self.workload
        if wl.cold_rounds:
            self.caches.clear()
        wl.begin_round()
        self.start_counters = self.caches.counters()
        outputs = []
        total = 0.0
        start = perf_counter()
        for op in wl.ops:
            self.clock.calibrate()
            t = perf_counter()
            try:
                out = wl.run(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = f"failed: {type(exc).__name__}: {exc}"
                self.failed += 1
            took = self.clock.scale(perf_counter() - t)
            latencies.append(took)
            total += took
            outputs.append(out)
        self.wall_s.append(perf_counter() - start)
        self.attempted += len(outputs)
        if self.first is None:
            self.first = outputs
        else:
            self.changed += sum(a != b for a, b in zip(outputs, self.first))
        return total

    def problems(self) -> list[str]:
        found = []
        if self.changed:
            found.append(f"{self.changed} outputs differ from the first round's")
        kept = []
        for op, out in zip(self.workload.ops, self.first):
            if isinstance(out, str) and out.startswith("failed: "):
                found.append(out)
            else:
                kept.append((op, out))
        return found + self.workload.check(kept)


def timed(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Whole rounds until ``seconds`` have passed; the end-to-end metrics."""
    latencies: list[float] = []
    rounds: list[float] = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        rounds.append(runner.round(latencies))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "ops_per_s": (len(latencies) / sum(rounds), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (percentile(latencies, runner.workload.TAIL) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, {"round_s": rounds, "round_wall_s": runner.wall_s, "kernel_s": runner.clock.kernel_s}


LAYER_CALLS = (
    "vogan.canonical_block_painting",
    "classify.classify",
    "vogan.reduce_with_trail",
    "algebra.noncompact_parity",
    "linalg.solve_exact",
    "algebra.cartan_matrix",
    "algebra.dual_basis",
    "linalg.invert",
    "cli.main",
)
LAYER_SELF_MS = (
    "vogan.canonical_block_painting",
    "classify.classify",
    "vogan.reduce_with_trail",
    "algebra.noncompact_parity",
    "cli.main",
)
LAYER_MS = (
    "algebra.generate_roots",
    "linalg.solve_exact",
    "algebra.dual_basis",
    "linalg.invert",
    "cli.parse_family_spec",
    "render.render_ascii",
    "render.document_json",
    "render.parse_document",
)
SETUP_MS = ("algebra.build_diagram", "vogan.enumerate_vogan")


def traced(runner: Runner, seconds: float, tracer, setup_summary) -> tuple[dict, dict]:
    """Alternate untraced and traced rounds; per-layer figures are per round.

    Counts come from the first traced round.  Times are the mean over traced
    rounds.  ``algebra.build_diagram.ms`` and ``vogan.enumerate_vogan.ms``
    add the traced set-up, where both also run.
    """
    plain: list[float] = []
    with_spans: list[float] = []
    summaries = []
    first = None
    start = perf_counter()
    while not plain or perf_counter() - start < seconds:
        plain.append(runner.round([]))
        tracer.reset()
        tracer.install()
        try:
            with_spans.append(runner.round([]))
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
        if first is None:
            before, after = runner.start_counters, runner.caches.counters()
            first = {
                "summary": summaries[0],
                "delta": {k: (after[k][0] - before[k][0], after[k][1] - before[k][1]) for k in after},
                "entries": runner.caches.entries(),
                "forms": len(tracer.forms),
                "trail_flips": tracer.trail_flips,
                "spans": tracer.spans(),
            }

    def mean_ms(name: str, key: str) -> float:
        return statistics.fmean(s[name][key] for s in summaries)

    def hit_ratio(cache: str) -> float:
        hits, misses = first["delta"].get(cache, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    calls = first["summary"]
    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = (calls[name]["calls"], "count")
    for name in LAYER_SELF_MS:
        metrics[f"{name}.self_ms"] = (mean_ms(name, "self_ms"), "ms")
    for name in LAYER_MS:
        metrics[f"{name}.ms"] = (mean_ms(name, "ms"), "ms")
    for name in SETUP_MS:
        metrics[f"{name}.ms"] = (setup_summary[name]["ms"] + mean_ms(name, "ms"), "ms")
    classify_calls = calls["classify.classify"]["calls"]
    metrics["classify.forms_per_call"] = (first["forms"] / classify_calls if classify_calls else 0.0, "ratio")
    metrics["vogan.trail_flips"] = (first["trail_flips"], "count")
    metrics["algebra.root_expansion.misses"] = (first["delta"].get("algebra.root_expansion", (0, 0))[1], "count")
    metrics["algebra.root_expansion.hit_ratio"] = (hit_ratio("algebra.root_expansion"), "ratio")
    metrics["algebra.cartan_matrix.hit_ratio"] = (hit_ratio("algebra.cartan_matrix"), "ratio")
    metrics["algebra.cache_entries"] = (first["entries"], "count")
    overhead = statistics.median(with_spans) / statistics.median(plain) - 1
    metrics["trace.overhead_pct"] = (overhead * 100, "%")
    detail = {
        "untraced_round_s": plain,
        "traced_round_s": with_spans,
        "functions": calls,
        "cache_deltas": first["delta"],
        "spans": first["spans"],
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    clock = Clock()
    if args.trace:
        import_package()
        from spans import Caches, Tracer

        caches = Caches()
        tracer = Tracer()
        workload = WORKLOADS[args.workload]()
        tracer.install()
        try:
            workload.setup(args.seed)
        finally:
            tracer.uninstall()
        runner = Runner(workload, caches, clock)
        metrics, detail = traced(runner, args.seconds, tracer, tracer.summary())
    else:
        # Set-up, import included, is repeated on fresh modules; the last
        # one is the one the rounds use.
        setups = []
        for _ in range(WORKLOADS[args.workload].SETUPS):
            clock.calibrate(force=True)
            t = perf_counter()
            import_package()
            workload = WORKLOADS[args.workload]()
            workload.setup(args.seed)
            setups.append(clock.scale(perf_counter() - t))
        from spans import Caches

        runner = Runner(workload, Caches(), clock)
        metrics, detail = timed(runner, args.seconds)
        metrics["setup_s"] = (statistics.median(setups), "s")
        detail["setup_s"] = setups

    problems = runner.problems()
    for line in problems[:20]:
        print(f"check: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(RESULTS, stem + ".json"), "w") as handle:
        json.dump({"result": result, "problems": problems, "detail": detail}, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
