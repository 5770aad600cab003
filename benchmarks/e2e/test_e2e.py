"""Tests of the end-to-end benchmark itself, on tiny inputs.

    pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"),
         "--quick", *args],
        stdout=subprocess.PIPE,
        text=True,
        cwd=cwd,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_declared_metrics_and_passes_checks(workload, trace):
    proc = run_bench("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in line["metrics"].items()
    }
    for m in line["metrics"].values():
        assert math.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())
    doc = json.loads((HERE / "out" / "results.json").read_text())
    result = doc["workloads"][workload]
    assert json.loads(json.dumps(doc)) == doc
    assert result["metrics"] == line["metrics"]
    if trace:
        assert result["checks"]["wrappers_restored"]
        assert result["checks"]["trace_valid"]


def test_traced_operation_leaves_no_wrapper_installed():
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import layers
    import workloads
    from repro.telemetry import validate_chrome_trace

    w = workloads.WORKLOADS["suite_factor"]
    inputs = w.build(0, True)
    with layers.installed(layers.Recorder()):
        assert layers.leftover_wrappers()
    rec = layers.Recorder()
    op = w.op(inputs, 1, rec)
    assert layers.leftover_wrappers() == []
    assert op.failed == 0
    names = {s.name for s in rec.spans}
    assert {"op", "precond.setup", "solvers.idrs", "sparse.spmv"} <= names
    assert validate_chrome_trace(layers.chrome_trace(rec.spans)) == []
    shares = layers.layer_metrics(rec.spans, 1, rec.spans[0].seconds)
    assert 0.0 <= shares["unattributed_frac"] <= 0.05


def test_fails_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
