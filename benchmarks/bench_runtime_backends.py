"""Runtime perf baseline: numpy vs binned vs scipy backends.

The first performance baseline of the execution subsystem
(``repro.runtime``): sweeps every available backend over the paper's
SIZE and BATCH axes plus the adversarial batches, cross-checks them
against the monolithic ``numpy`` reference, and persists both the JSON
baseline (``BENCH_runtime.json`` at the repo root - the same document
``python -m repro bench`` writes, quoted by EXPERIMENTS.md) and a
human-readable table.

Expected shape: the ``binned`` backend's padded flop count drops
strictly below the monolithic charge on every mixed-size batch (the
planner's raison d'etre), the per-block ``scipy`` backend reports zero
padding waste but pays per-block call overhead, no backend diverges
from the reference beyond rounding, and on the small uniform size bins
(4/8/16) the explicit-inverse GEMV apply beats the TRSV apply
wall-clock (schema v3's ``apply_modes`` block).
"""

from __future__ import annotations

import json
from pathlib import Path

from conftest import write_result
from repro.bench.runtime_sweep import format_sweep_summary, run_backend_sweep
from repro.core import random_batch, random_rhs
from repro.runtime import BatchRuntime

SEED = 0


def test_runtime_backend_sweep(benchmark):
    report = run_backend_sweep(quick=False, seed=SEED)

    # persist the JSON baseline at the repo root - the same location
    # (and schema) as ``python -m repro bench``
    repo_root = Path(__file__).resolve().parents[1]
    (repo_root / "BENCH_runtime.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    write_result("runtime_backends.txt", format_sweep_summary(report))

    # the cross-check gate: every backend agrees with the reference
    assert report["passed"], (
        f"backend divergence {report['max_discrepancy']:.3e}"
    )

    # the flop-accounting gate: on every mixed-size case the binned
    # dispatch is charged strictly less than the monolithic loop
    mixed = [
        c for c in report["cases"]
        if c["name"].startswith(("batch/", "adversarial/mixed"))
    ]
    assert mixed
    for case in mixed:
        binned = case["backends"]["binned"]
        assert binned["padded_flops"] < binned["monolithic_padded_flops"]
        # and the numpy path is charged exactly the monolithic amount
        mono = case["backends"]["numpy"]
        assert mono["padded_flops"] == mono["monolithic_padded_flops"]

    # the apply-mode gate: on the uniform SIZE bins the paper's GJE
    # trade-off targets (4/8/16), the explicit-inverse GEMV apply must
    # beat the TRSV apply wall-clock on the numpy reference backend
    for m in (4, 8, 16):
        case = next(
            c for c in report["cases"] if c["name"] == f"size/m={m}"
        )
        modes = case["backends"]["numpy"]["apply_modes"]
        assert modes is not None, f"numpy backend reported no inverse at m={m}"
        assert modes["inverse_apply_seconds"] < modes["factor_apply_seconds"], (
            f"inverse apply lost to TRSV at m={m}: "
            f"{modes['inverse_apply_seconds']:.3e}s vs "
            f"{modes['factor_apply_seconds']:.3e}s"
        )
    # the per-block scipy backend cannot invert; the document records
    # that explicitly rather than omitting the key
    assert report["cases"][0]["backends"]["scipy"]["apply_modes"] is None

    # the layout gate (schema v8): the SoA-vs-AoS kernel block
    # carries one finite timing row per planner size bin
    layout = report["soa_vs_aos"]
    assert [r["tile"] for r in layout] == [4, 8, 16, 32]
    for r in layout:
        assert r["aos_seconds"] > 0.0
        assert r["soa_seconds"] > 0.0
        assert r["speedup"] > 0.0

    # timing anchor: the binned factorization of a large mixed batch
    batch = random_batch(4000, size_range=(1, 32), kind="diag_dominant",
                         seed=SEED)
    rt = BatchRuntime(backend="binned", cache=False)
    fac = benchmark(lambda: rt.factorize(batch, use_cache=False))
    assert fac.ok


def test_runtime_cache_hit_throughput(benchmark):
    """Cached re-setup: the serving-loop scenario the cache exists for."""
    batch = random_batch(2000, size_range=(1, 32), kind="diag_dominant",
                         seed=SEED)
    rhs = random_rhs(batch, seed=SEED + 1)
    rt = BatchRuntime(backend="binned")
    rt.factorize(batch)  # warm the cache

    def serve():
        fac = rt.factorize(batch)
        return fac.solve(rhs)

    benchmark(serve)
    stats = rt.cache_stats
    assert stats.hits >= 1
    assert stats.hit_rate > 0.5
