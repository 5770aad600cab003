"""Backend sweep harness behind ``python -m repro bench``.

Times every requested runtime backend over the paper's two axes - the
SIZE sweep (uniform batches, sizes 4..32) and the BATCH sweep (mixed
variable-size batches of growing count) - and cross-checks all backends
against the ``numpy`` reference on every case, random *and*
adversarial.  The result is a JSON document (``BENCH_runtime.json``)
that doubles as the repo's perf baseline and as a CI smoke gate: any
backend divergence beyond tolerance fails the run.

Schema history
--------------
* v8: the layout block is renamed ``soa_vs_aos`` (``aos_seconds``,
  ``soa_seconds``, ``speedup``) and times the kernels themselves -
  ``lu_factor`` against ``interleaved_lu_factor`` - since the
  ``binned`` backend runs the SoA layout and the ``interleaved``
  backend is gone.
* v7: top-level ``obs`` block
  (:func:`repro.bench.serving_load.run_slo_bench`): the SLO burn-rate
  / flight-recorder bench - alert counts from the scripted
  healthy/overload/recovery scenario (exactly one burn alert and one
  black-box dump expected, plus the number of causal chains
  reconstructable from the dump) and the observability overhead probe
  (fully-enabled tracing+SLO+flight path vs disabled, per-request
  microseconds).  ``passed`` additionally requires the obs gate.
  Consumers that ignore unknown keys read v7 documents as v6.
* v6: top-level ``overload`` block
  (:func:`repro.bench.serving_load.run_overload_bench`): the
  deadline-aware overload sweep - closed-loop client fleets at growing
  offered load against the FIFO baseline and the EDF+quota discipline,
  goodput / admitted-queue-p99 curves, shed and brownout counters.
  ``passed`` additionally requires the overload gate (zero responses
  delivered past deadline under EDF, FIFO violating the SLO at some
  level, EDF holding the SLO at >= 2x that level).  Consumers that
  ignore unknown keys read v6 documents as v5.
* v5: top-level ``serving`` block
  (:mod:`repro.bench.serving_load`): the cross-request coalescing
  benchmark - per-discipline (naive / coalesced / coalesced+cached)
  throughput, coalescing ratio, stage-latency percentiles, the
  concurrency curve, and the solo-rerun leak audit.  The document's
  ``passed`` now also requires the serving block to pass (ratio > 1
  in both coalesced modes, zero leak-audit mismatches).  Consumers
  that ignore unknown keys read v5 documents as v4.
* v4: top-level ``interleaved_vs_binned`` block: per-tile (4/8/16/32)
  best-of-N factorize wall seconds of the ``binned`` (AoS) dispatch
  versus the ``interleaved`` (SoA) layout on uniform batches, plus the
  resulting ``speedup`` - the paper's layout question answered per
  size bin on this host.  Consumers that ignore unknown keys read v4
  documents as v3.
* v3: every per-backend case entry gains an ``apply_modes`` block
  (``null`` for backends that cannot build explicit inverses):
  best-of-N apply wall seconds of the factor (TRSV) path versus the
  explicit-inverse GEMV path on the same LU factors, the invert-stage
  setup cost, and the resulting apply ``speedup``.  Consumers that
  ignore unknown keys read v3 documents as v2; tools diffing
  documents across versions must gate on ``schema.version``.
* v2: initial versioned layout (timings, flop/waste counters,
  differential checks, metrics snapshot, git provenance).
"""

from __future__ import annotations

import platform
import time
from typing import Sequence

import numpy as np

from ..core.batch import BatchedMatrices, BatchedVectors
from ..core.random_batches import random_batch, random_rhs
from ..runtime import BatchRuntime, available_backends
from .series import BATCH_SWEEP, SIZE_SWEEP

__all__ = ["run_backend_sweep", "format_sweep_summary"]

#: version of the BENCH_runtime.json document layout; bump on any
#: structural change so downstream comparisons can gate on it
SCHEMA_VERSION = 8
SCHEMA_NAME = "repro.bench.runtime_sweep"


def _git_sha() -> str | None:
    """Short commit hash of the working tree, None outside git / on
    any failure (the bench document must never fail over provenance)."""
    import os
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None

#: reference backend for the differential cross-check
REFERENCE = "numpy"

#: default agreement tolerance on well-conditioned batches (float64);
#: binned LU is bitwise vs numpy, scipy differs by rounding only
CHECK_TOL = 1e-9

_QUICK_SIZES = (4, 8, 16, 32)
_QUICK_BATCHES = (32, 128)
_FULL_SIZES = tuple(SIZE_SWEEP)
_FULL_BATCHES = tuple(b for b in BATCH_SWEEP if b <= 4000)
_QUICK_ADVERSARIAL_NB = 24
_FULL_ADVERSARIAL_NB = 96


def _discrepancy(a: BatchedVectors, b: BatchedVectors) -> float:
    """Max per-block relative inf-norm distance (padding excluded)."""
    from ..verify.metrics import solution_distance

    d = solution_distance(a, b)
    return float(np.max(d)) if d.size else 0.0


#: best-of repeats of each apply-mode timing (apply is microseconds-
#: scale, so the min over a few runs is the honest steady-state number)
_APPLY_REPEATS = 5


def _best_apply(fac, rhs: BatchedVectors, repeats: int = _APPLY_REPEATS):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fac.solve(rhs)
        best = min(best, time.perf_counter() - t0)
    return best


def _time_apply_modes(
    rt: BatchRuntime,
    fac,
    batch: BatchedMatrices,
    rhs: BatchedVectors,
) -> dict | None:
    """Time TRSV-apply vs explicit-inverse GEMV-apply on the same LU.

    None for backends that cannot invert (their documents record the
    gap explicitly rather than omitting the key).
    """
    if not getattr(rt.backend, "supports_invert", False):
        return None
    fac_inv = rt.factorize(
        batch, method="lu", use_cache=False, apply_mode="inverse"
    )
    if fac_inv.effective_apply_mode != "inverse":
        return None
    t_factor = _best_apply(fac, rhs)
    t_inverse = _best_apply(fac_inv, rhs)
    return {
        "factor_apply_seconds": t_factor,
        "inverse_apply_seconds": t_inverse,
        "invert_seconds": rt.last_report.stage_seconds.get("invert", 0.0),
        "speedup": (
            t_factor / t_inverse if t_inverse > 0.0 else float("inf")
        ),
    }


#: uniform tiles of the SoA-vs-AoS layout comparison - one row per
#: size bin of the default planner
_LAYOUT_TILES = (4, 8, 16, 32)

#: best-of repeats of each layout factorize timing
_LAYOUT_REPEATS = 3


def _time_layouts(quick: bool, seed: int) -> list[dict]:
    """Per-tile LU factorize seconds: AoS cores vs SoA sweeps.

    The paper's layout ablation, timed on the kernels directly
    (``lu_factor`` against ``interleaved_lu_factor``) over uniform
    batches, one per planner size bin; ``speedup`` > 1 means the SoA
    layout - the ``binned`` backend's - won that tile on this host.
    """
    from ..core.batched_lu import lu_factor
    from ..core.interleaved import interleaved_lu_factor

    kernels = {
        "aos": lambda b: lu_factor(b, pivoting="implicit"),
        "soa": interleaved_lu_factor,
    }
    nb = 128 if quick else 1024
    rows = []
    for tile in _LAYOUT_TILES:
        batch = random_batch(
            nb, size=tile, kind="diag_dominant", seed=seed + tile
        )
        seconds = {}
        for name, kernel in kernels.items():
            best = float("inf")
            for _ in range(_LAYOUT_REPEATS):
                t0 = time.perf_counter()
                kernel(batch)
                best = min(best, time.perf_counter() - t0)
            seconds[name] = best
        rows.append(
            {
                "tile": tile,
                "nb": nb,
                "aos_seconds": seconds["aos"],
                "soa_seconds": seconds["soa"],
                "speedup": (
                    seconds["aos"] / seconds["soa"]
                    if seconds["soa"] > 0.0
                    else float("inf")
                ),
            }
        )
    return rows


def _time_backend(
    rt: BatchRuntime, batch: BatchedMatrices, rhs: BatchedVectors
) -> tuple[dict, BatchedVectors]:
    t0 = time.perf_counter()
    fac = rt.factorize(batch, method="lu", use_cache=False)
    t1 = time.perf_counter()
    sol = fac.solve(rhs)
    t2 = time.perf_counter()
    rep = rt.last_report
    useful = rep.useful_flops
    entry = {
        "factor_seconds": t1 - t0,
        "solve_seconds": t2 - t1,
        "useful_flops": useful,
        "padded_flops": rep.padded_flops,
        "padding_waste": rep.padding_waste,
        "monolithic_padded_flops": rep.monolithic_padded_flops,
        "flops_saved": rep.flops_saved,
        "n_bins": len(rep.bins),
        "gflops_useful": (
            useful / (t1 - t0) / 1e9 if t1 > t0 else 0.0
        ),
        "apply_modes": _time_apply_modes(rt, fac, batch, rhs),
    }
    return entry, sol


def _case(
    name: str,
    batch: BatchedMatrices,
    rhs: BatchedVectors,
    backends: Sequence[str],
    tol: float,
) -> dict:
    case = {
        "name": name,
        "nb": batch.nb,
        "tile": batch.tile,
        "backends": {},
        "checks": {},
    }
    solutions: dict[str, BatchedVectors] = {}
    for name_b in backends:
        rt = BatchRuntime(backend=name_b, cache=False)
        entry, sol = _time_backend(rt, batch, rhs)
        case["backends"][name_b] = entry
        solutions[name_b] = sol
    ref = solutions.get(REFERENCE)
    for name_b, sol in solutions.items():
        if ref is None or name_b == REFERENCE:
            continue
        d = _discrepancy(sol, ref)
        case["checks"][name_b] = {
            "max_discrepancy_vs_numpy": d,
            "passed": bool(d <= tol),
        }
    return case


def run_backend_sweep(
    backends: Sequence[str] | None = None,
    quick: bool = False,
    seed: int = 0,
    tol: float = CHECK_TOL,
) -> dict:
    """Sweep backends over SIZE/BATCH axes + adversarial cross-checks.

    Parameters
    ----------
    backends:
        Backend names to compare (default: every available one; the
        ``numpy`` reference is always included).
    quick:
        Trimmed sweep for CI smoke gates (a few seconds end to end).
    seed, tol:
        Batch generator seed and cross-check tolerance.

    Returns
    -------
    dict
        JSON-serialisable report: per-case timings, flop/waste
        counters, and per-backend divergence checks.  ``["passed"]``
        aggregates every check.
    """
    if backends is None:
        backends = available_backends()
    backends = list(dict.fromkeys([REFERENCE, *backends]))
    missing = [b for b in backends if b not in available_backends()]
    if missing:
        raise ValueError(
            f"unavailable backend(s) {missing}; "
            f"available: {available_backends()}"
        )
    sizes = _QUICK_SIZES if quick else _FULL_SIZES
    batch_counts = _QUICK_BATCHES if quick else _FULL_BATCHES
    size_nb = 64 if quick else 512
    cases = []
    for m in sizes:
        batch = random_batch(
            size_nb, size=m, kind="diag_dominant", seed=seed
        )
        rhs = random_rhs(batch, seed=seed + 1)
        cases.append(
            _case(f"size/m={m}", batch, rhs, backends, tol)
        )
    for nb in batch_counts:
        batch = random_batch(
            nb, size_range=(1, 32), kind="diag_dominant", seed=seed + nb
        )
        rhs = random_rhs(batch, seed=seed + nb + 1)
        cases.append(
            _case(f"batch/nb={nb}", batch, rhs, backends, tol)
        )
    # adversarial coverage: decision-boundary batches from repro.verify
    from ..verify.adversarial import (
        graded_batch,
        mixed_size_batch,
        pivot_tie_batch,
    )

    adv_nb = _QUICK_ADVERSARIAL_NB if quick else _FULL_ADVERSARIAL_NB
    adversarial = {
        "adversarial/mixed_size": mixed_size_batch(
            adv_nb, tile=32, seed=seed, kind="diag_dominant"
        ),
        "adversarial/pivot_ties": pivot_tie_batch(adv_nb, size=16, seed=seed),
        # 4 decades of grading: adversarial for pivoting but still far
        # from the rounding floor, so the LAPACK-vs-kernel comparison
        # stays meaningful at the default tolerance
        "adversarial/graded": graded_batch(
            adv_nb, size=16, seed=seed, decades=4.0
        ),
    }
    for name, batch in adversarial.items():
        rhs = random_rhs(batch, seed=seed + 2)
        cases.append(_case(name, batch, rhs, backends, tol))
    from .serving_load import (
        run_overload_bench,
        run_serving_bench,
        run_slo_bench,
    )

    serving = run_serving_bench(quick=quick, seed=seed)
    overload = run_overload_bench(quick=quick, seed=seed)
    obs = run_slo_bench(quick=quick, seed=seed)
    passed = (
        serving["passed"]
        and overload["passed"]
        and obs["passed"]
        and all(
            chk["passed"] for c in cases for chk in c["checks"].values()
        )
    )
    worst = 0.0
    for c in cases:
        for chk in c["checks"].values():
            worst = max(worst, chk["max_discrepancy_vs_numpy"])
    from ..telemetry import metrics_snapshot, to_native

    # the metadata block is deliberately timestamp-free: two runs of
    # the same tree on the same machine produce diffable documents
    return to_native(
        {
            "schema": {"name": SCHEMA_NAME, "version": SCHEMA_VERSION},
            "meta": {
                "harness": "repro bench (runtime backend sweep)",
                "quick": quick,
                "seed": seed,
                "tol": tol,
                "backends": backends,
                "reference": REFERENCE,
                "python": platform.python_version(),
                "numpy": np.__version__,
                "git_sha": _git_sha(),
            },
            "cases": cases,
            "soa_vs_aos": _time_layouts(quick, seed),
            "serving": serving,
            "overload": overload,
            "obs": obs,
            "max_discrepancy": worst,
            "passed": passed,
            "metrics": metrics_snapshot(),
        }
    )


def format_sweep_summary(report: dict) -> str:
    """Fixed-width per-case summary table of a sweep report."""
    from .reporting import format_table

    backends = report["meta"]["backends"]
    headers = ["case", "nb"]
    for b in backends:
        headers += [f"{b} ms", f"{b} waste%", f"{b} apply x"]
    rows = []
    for c in report["cases"]:
        row = [c["name"], c["nb"]]
        for b in backends:
            e = c["backends"][b]
            waste = (
                100.0 * e["padding_waste"] / e["padded_flops"]
                if e["padded_flops"]
                else 0.0
            )
            modes = e.get("apply_modes")
            row += [
                f"{e['factor_seconds'] * 1e3:.2f}",
                f"{waste:.1f}",
                f"{modes['speedup']:.2f}" if modes else "-",
            ]
        rows.append(row)
    status = "PASS" if report["passed"] else "FAIL"
    out = format_table(
        headers,
        rows,
        title=(
            "runtime backend sweep "
            f"[{status}, max divergence {report['max_discrepancy']:.2e}]"
        ),
    )
    layout = report.get("soa_vs_aos")
    if layout:
        out += "\n\n" + format_table(
            ["tile", "nb", "AoS ms", "SoA ms", "speedup"],
            [
                [
                    r["tile"],
                    r["nb"],
                    f"{r['aos_seconds'] * 1e3:.2f}",
                    f"{r['soa_seconds'] * 1e3:.2f}",
                    f"{r['speedup']:.2f}",
                ]
                for r in layout
            ],
            title="SoA vs AoS LU factorize (kernels)",
        )
    serving = report.get("serving")
    if serving:
        from .serving_load import format_serving_summary

        out += "\n\n" + format_serving_summary(serving)
    overload = report.get("overload")
    if overload:
        from .serving_load import format_overload_summary

        out += "\n\n" + format_overload_summary(overload)
    obs = report.get("obs")
    if obs:
        from .serving_load import format_slo_summary

        out += "\n\n" + format_slo_summary(obs)
    return out
