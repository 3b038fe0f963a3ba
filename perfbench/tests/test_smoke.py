"""Smoke test of the benchmark harness on a tiny mesh with one alpha level.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import SEMI_AXIS_JITTER, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    cmd = [sys.executable, str(script), "--workload", "smoke", "--seed", "0",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, group):
    proc = _run(trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["attempted"] >= 1 and summary["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert set(summary["metrics"]) == set(expected)
    for name, unit in expected.items():
        entry = summary["metrics"][name]
        assert entry["unit"] == unit
        assert isinstance(entry["value"], (int, float))
        pattern = rf"^\s+{re.escape(name)} = \S+ {re.escape(unit)}\b"
        assert any(re.match(pattern, ln) for ln in lines[:-1]), name
    assert any(ln.startswith("  failed_share = ") for ln in lines)

    record = json.loads(
        (BENCH / "out" / f"smoke-seed0-trace{trace}.json").read_text())
    assert {"python", "numpy", "scipy", "blas", "threads", "nproc",
            "cpu_model", "git_commit", "seed"} <= set(record["environment"])
    assert record["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    if trace:
        assert record["complete_counts"] is True
        assert {"id", "parent", "name", "run", "start", "end"} <= set(
            record["spans"][0])


def test_seed_sets_the_obstacle_only():
    wl = WORKLOADS["direct-circle"]
    assert wl.obstacle(0) == wl.semi_axes
    assert wl.obstacle(3) == wl.obstacle(3)
    assert wl.obstacle(3) != wl.obstacle(4)
    for seed in range(1, 20):
        for got, nominal in zip(wl.obstacle(seed), wl.semi_axes):
            assert abs(got / nominal - 1.0) <= SEMI_AXIS_JITTER


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(0, cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
