"""Quick self-check of the benchmark.

Runs every workload for half a second, untraced and traced, and asserts that
the result line carries exactly the metrics ``BENCHMARK.json`` declares, each
with its declared unit.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int, seconds: str = "0.5"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    report = "\n".join(lines[:-1])
    provenance = json.loads(next(line for line in lines if line.startswith("provenance "))[11:])
    assert {"git_sha", "seed", "held_out_seed", "params", "nproc", "blas_threads", "python", "numpy"} <= set(provenance)
    if trace:
        assert "predictions" in report
    else:
        assert "samples beyond" in report and f"n={result['attempted']}" in report
        ok_frac = 1 - result["failed"] / result["attempted"]
        assert result["metrics"]["ok_frac"]["value"] == pytest.approx(ok_frac, abs=1e-12)


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and perfbench/ present, exit nonzero, print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
