"""Every workload runs to its end at a reduced size, plain and traced, and
prints the metrics BENCHMARK.json names.

Run from the root of a source checkout: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

SCALES = {"mine_10k": 0.1, "rank": 0.15}


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "0",
         "--trace", str(trace), "--scale", str(SCALES[workload])],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(SCALES)


@pytest.mark.parametrize("workload", list(SCALES))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_completes_at_reduced_size(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("rank", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
