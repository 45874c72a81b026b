"""The records committed next to the code: benchmark result files and the
demos' expected output.

Every ``BENCH_*.json`` at the repository root backs a speed claim, so each
names what changed, the command, the Python, the core count, the machine and
the method, and gives for each workload whether its outputs were correct,
how many operations failed and how many runs each side had; each metric
has, for the parent and the change, a median and that many runs.

Each demo prints the same text on every run; ``demos/expected/<name>.txt``
holds it, and a change to any demo's output fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_there_are_records_to_check():
    assert BENCH_FILES and DEMOS
    assert {p.stem for p in DEMOS} == {p.stem for p in (ROOT / "demos" / "expected").glob("*.txt")}


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_has_its_method_and_every_run(path):
    record = json.loads(path.read_text())
    for key in ("change", "command", "python", "nproc", "machine", "method"):
        assert key in record, f"{path.name} lacks {key!r}"
    assert record["workloads"], f"{path.name} has no workload"
    for name, workload in record["workloads"].items():
        for key in ("correct", "failed", "repeats_per_side"):
            assert key in workload, f"{path.name} {name} lacks {key!r}"
        repeats = workload["repeats_per_side"]
        assert workload["metrics"], f"{path.name} {name} has no metric"
        for metric, values in workload["metrics"].items():
            for side in ("parent", "change"):
                where = f"{path.name} {name} {metric} {side}"
                assert "median" in values[side], f"{where} lacks its median"
                assert len(values[side]["runs"]) == repeats, f"{where}: runs != {repeats}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_its_expected_output(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_text()
