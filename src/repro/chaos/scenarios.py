"""The seeded chaos sweep: end-to-end fault scenarios with a pass/fail
verdict per scenario.

Each scenario builds the paper's pipeline (block-Jacobi setup through
the resilient :class:`~repro.runtime.BatchRuntime`, IDR(4) solve) on a
small FEM-like system, injects one fault class, and holds the outcome
to the acceptance bar of ISSUE 4:

* the solve **completes** - either converged with a normwise backward
  error within 10x of the fault-free run, or carrying a structured
  failure reason (``SolveResult.breakdown``) - no unhandled exception
  ever escapes;
* **zero silent corruption** - a "converged" verdict is re-audited
  against the explicitly recomputed true residual, so a corrupted
  solve cannot claim success;
* the resilience events are **visible** - injected faults must show up
  as fallback/quarantine records on the runtime report, not be
  absorbed invisibly.

Determinism: everything derives from the sweep ``seed`` (matrix,
right-hand side, injector schedules), so a failing scenario replays
exactly.  ``python -m repro verify --chaos seed=N`` runs this sweep as
a verification suite (the ``chaos-smoke`` CI job runs seeds 0-3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..precond import BlockJacobiPreconditioner
from ..runtime import BatchRuntime
from ..runtime.backends import get_backend
from ..solvers import idrs
from ..sparse.generators import fem_block_2d
from .backend import ChaosBackend
from .faults import (
    CorruptBinsInjector,
    CorruptSolveInjector,
    LatencyInjector,
    RaiseInjector,
    poison_cache,
)

__all__ = ["ChaosReport", "ChaosScenarioResult", "run_chaos_suite"]

#: slack factor on the fault-free backward error (acceptance criterion)
BERR_SLACK = 10.0


@dataclass
class ChaosScenarioResult:
    """Verdict of one scenario, with enough detail to replay it."""

    name: str
    passed: bool
    detail: dict = field(default_factory=dict)
    seconds: float = 0.0

    def to_dict(self) -> dict:
        from ..telemetry.serialize import to_native

        return to_native(
            {
                "name": self.name,
                "passed": self.passed,
                "detail": dict(self.detail),
                "seconds": self.seconds,
            }
        )


@dataclass
class ChaosReport:
    """Sweep outcome: per-scenario verdicts plus the shared baseline."""

    seed: int
    baseline_berr: float
    scenarios: list[ChaosScenarioResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.scenarios)

    def failures(self) -> list[ChaosScenarioResult]:
        return [s for s in self.scenarios if not s.passed]

    def to_dict(self) -> dict:
        from ..telemetry.serialize import to_native

        return to_native(
            {
                "seed": self.seed,
                "baseline_berr": self.baseline_berr,
                "passed": self.passed,
                "scenarios": [s.to_dict() for s in self.scenarios],
            }
        )

    def summary(self) -> str:
        lines = [
            f"chaos sweep (seed {self.seed}): "
            f"{sum(s.passed for s in self.scenarios)}/"
            f"{len(self.scenarios)} scenario(s) passed, "
            f"baseline berr {self.baseline_berr:.2e}"
        ]
        for s in self.scenarios:
            mark = "PASS" if s.passed else "FAIL"
            extra = ""
            if not s.passed and "error" in s.detail:
                extra = f" - {s.detail['error']}"
            lines.append(f"  [{mark}] {s.name}{extra}")
        return "\n".join(lines)


def _berr(A, x: np.ndarray, b: np.ndarray) -> float:
    """Normwise backward error (inf-norm, Rigal-Gaches) of ``x``."""
    r = b - A.matvec(x)
    row_sums = np.add.reduceat(
        np.abs(A.values), A.indptr[:-1]
    )
    row_sums[np.diff(A.indptr) == 0] = 0.0
    anorm = float(row_sums.max()) if row_sums.size else 0.0
    denom = anorm * float(np.abs(x).max(initial=0.0)) + float(
        np.abs(b).max(initial=0.0)
    )
    if denom == 0.0:
        return float(np.abs(r).max(initial=0.0))
    return float(np.abs(r).max(initial=0.0)) / denom


def _problem(seed: int, quick: bool):
    """The sweep's test system: FEM-like, 3 dofs/node (blocks of 3)."""
    if quick:
        A = fem_block_2d(8, 8, 3, seed=seed)
    else:
        A = fem_block_2d(16, 16, 3, seed=seed)
    rng = np.random.default_rng([seed, 0xB])
    b = rng.standard_normal(A.n_rows)
    return A, b


def _run_pipeline(
    A,
    b,
    runtime: BatchRuntime,
    maxiter: int = 2000,
    apply_mode: str = "factor",
):
    """Block-Jacobi setup + IDR(4) solve through the given runtime."""
    M = BlockJacobiPreconditioner(
        method="lu",
        max_block_size=8,
        apply_mode=apply_mode,
        runtime=runtime,
    ).setup(A)
    result = idrs(A, b, s=4, M=M, tol=1e-9, maxiter=maxiter)
    return M, result


def _judge(
    name: str,
    A,
    b,
    runtime: BatchRuntime,
    baseline_berr: float,
    require_events: bool = True,
    chaos: ChaosBackend | None = None,
    apply_mode: str = "factor",
) -> ChaosScenarioResult:
    """Run one scenario and hold it to the acceptance bar."""
    t0 = time.perf_counter()
    detail: dict = {}
    try:
        M, result = _run_pipeline(A, b, runtime, apply_mode=apply_mode)
    except Exception as err:  # any escape is an automatic failure
        return ChaosScenarioResult(
            name,
            False,
            {"error": f"unhandled exception: {err!r}"},
            time.perf_counter() - t0,
        )
    report = runtime.last_report
    detail["converged"] = result.converged
    detail["iterations"] = result.iterations
    detail["breakdown"] = result.breakdown
    detail["fallback_events"] = len(report.fallback_events)
    detail["quarantined_bins"] = list(report.quarantined_bins)
    detail["solve_fallbacks"] = report.solve_fallbacks
    detail["backend_used"] = report.backend_used
    if chaos is not None:
        detail["injected_faults"] = len(chaos.events)
    ok = True
    if result.converged:
        # zero-silent-corruption audit: recompute the true residual and
        # the backward error from scratch - a corrupted solution must
        # not be allowed to claim convergence
        berr = _berr(A, result.x, b)
        detail["berr"] = berr
        floor = max(baseline_berr, 1e2 * np.finfo(np.float64).eps)
        if not np.isfinite(berr) or berr > BERR_SLACK * floor:
            ok = False
            detail["error"] = (
                f"silent corruption: converged but backward error "
                f"{berr:.3e} exceeds {BERR_SLACK}x fault-free "
                f"({baseline_berr:.3e})"
            )
    elif result.breakdown is None:
        # non-convergence without a structured reason only passes when
        # it is an honest maxiter stop
        if result.iterations < 2000:
            ok = False
            detail["error"] = (
                "solve gave up early without a structured reason"
            )
    if ok and require_events and chaos is not None and chaos.events:
        visible = (
            bool(report.fallback_events)
            or bool(report.quarantined_bins)
            or report.solve_fallbacks > 0
        )
        if not visible:
            ok = False
            detail["error"] = (
                f"{len(chaos.events)} injected fault(s) left no trace "
                "on the runtime report"
            )
    # setup-report surfacing: the same events must be reachable from
    # the preconditioner's report (ISSUE 4 acceptance)
    if ok and M.report is not None and M.report.runtime is not None:
        if report.fallback_events and not M.report.runtime.fallback_events:
            ok = False  # pragma: no cover - reports share the object
            detail["error"] = "SetupReport lost the resilience events"
    return ChaosScenarioResult(
        name, ok, detail, time.perf_counter() - t0
    )


def _chaos_runtime(
    injectors, seed: int, **kwargs
) -> tuple[BatchRuntime, ChaosBackend]:
    chaos = ChaosBackend(get_backend("binned"), injectors, seed=seed)
    rt = BatchRuntime(backend=chaos, resilient=True, **kwargs)
    return rt, chaos


def run_chaos_suite(seed: int = 0, quick: bool = True) -> ChaosReport:
    """Run every scenario of the seeded sweep and report verdicts.

    ``quick`` shrinks the test system (8x8 mesh, n=192) for the CI
    smoke job; the full sweep uses a 16x16 mesh.
    """
    seed = int(seed)
    A, b = _problem(seed, quick)

    # fault-free baseline: fixes the backward-error bar and proves the
    # resilient configuration itself is transparent on the happy path.
    # A resilient runtime answers from ``binned`` or, for quarantined
    # bins, from ``numpy``; both are correct, and their backward errors
    # differ by rounding, so the bar is the larger of the two.
    rt0 = BatchRuntime(backend="binned", resilient=True)
    t0 = time.perf_counter()
    M0, res0 = _run_pipeline(A, b, rt0)
    binned_berr = _berr(A, res0.x, b)
    _, res_ref = _run_pipeline(A, b, BatchRuntime(backend="numpy"))
    numpy_berr = _berr(A, res_ref.x, b)
    baseline_berr = max(binned_berr, numpy_berr)
    report = ChaosReport(seed=seed, baseline_berr=baseline_berr)
    base = ChaosScenarioResult(
        "baseline",
        bool(
            res0.converged
            and res_ref.converged
            and np.isfinite(baseline_berr)
            and not rt0.last_report.fallback_events
        ),
        {
            "converged": res0.converged,
            "iterations": res0.iterations,
            "berr": binned_berr,
            "numpy_converged": res_ref.converged,
            "numpy_berr": numpy_berr,
            "fallback_events": len(rt0.last_report.fallback_events),
        },
        time.perf_counter() - t0,
    )
    if not base.passed:  # pragma: no cover - the baseline always holds
        base.detail["error"] = "fault-free pipeline failed"
    report.scenarios.append(base)

    # 1. hard factorize faults: the primary raises on every call; the
    # quarantine pass must still produce factors
    rt, chaos = _chaos_runtime(
        [RaiseInjector("factorize", rate=1.0)], seed
    )
    report.scenarios.append(
        _judge("factorize-raise-storm", A, b, rt, baseline_berr,
               chaos=chaos)
    )

    # 2. intermittent factorize faults: rate < 1 exercises the breaker's
    # closed->open->half-open cycling across retries
    rt, chaos = _chaos_runtime(
        [RaiseInjector("factorize", rate=0.6)], seed + 1
    )
    report.scenarios.append(
        _judge("factorize-raise-flaky", A, b, rt, baseline_berr,
               require_events=False, chaos=chaos)
    )

    # 3. silent NaN corruption of factor bins: only the spot check can
    # see this; corrupted bins must be quarantined, not served
    rt, chaos = _chaos_runtime(
        [CorruptBinsInjector(rate=1.0, mode="nan", max_bins=2)], seed
    )
    report.scenarios.append(
        _judge("bin-nan-corruption", A, b, rt, baseline_berr,
               chaos=chaos)
    )

    # 4. Inf corruption variant
    rt, chaos = _chaos_runtime(
        [CorruptBinsInjector(rate=1.0, mode="inf", max_bins=1)], seed
    )
    report.scenarios.append(
        _judge("bin-inf-corruption", A, b, rt, baseline_berr,
               chaos=chaos)
    )

    # 5. cache poisoning: a tenant's solve is answered and stored in
    # its shard, the stored factors are corrupted in place, and the
    # same request comes back - the hit must still answer correctly,
    # through the resilient handle's reference solve
    t0 = time.perf_counter()
    try:
        from ..core.random_batches import random_batch, random_rhs
        from ..serving import CoalescingEngine, Request, TenantCacheShards

        shards = TenantCacheShards()
        engine = CoalescingEngine(
            runtime=BatchRuntime(backend="binned", resilient=True),
            shards=shards,
        )
        batch = random_batch(
            8, size_range=(2, 16), kind="diag_dominant", seed=seed
        )
        req = Request(
            tenant="victim", batch=batch, kind="solve",
            rhs=random_rhs(batch, seed=seed + 1),
        )
        engine.submit(req)
        clean = engine.flush()[0]
        n_poisoned = poison_cache(shards.shard("victim"), seed=seed)
        hit = engine.submit(req).response
        events = [
            e.get("action") for e in hit.handle.shared.report.fallback_events
        ]
        x, x0 = hit.solution.data, clean.solution.data
        err = float(np.abs(x - x0).max()) / float(np.abs(x0).max())
        ok = bool(
            n_poisoned > 0
            and hit.cache_hit
            and hit.status == "ok"
            and np.isfinite(x).all()
            and err
            <= BERR_SLACK
            * max(baseline_berr, 1e2 * np.finfo(np.float64).eps)
            and "reference_solve" in events
        )
        detail = {
            "poisoned_entries": n_poisoned,
            "cache_hit": hit.cache_hit,
            "status": hit.status,
            "relative_error": err,
            "fallback_actions": events,
        }
        if not ok:
            detail["error"] = (
                "poisoned tenant-shard entry answered wrongly or silently"
            )
    except Exception as err:
        ok, detail = False, {"error": f"unhandled exception: {err!r}"}
    report.scenarios.append(
        ChaosScenarioResult(
            "cache-poisoning", ok, detail, time.perf_counter() - t0
        )
    )

    # 6. injected latency: no failure, only stall - the pipeline must
    # complete untouched and the injector must still be accounted for
    rt, chaos = _chaos_runtime(
        [LatencyInjector("factorize", seconds=0.002)], seed
    )
    res = _judge("injected-latency", A, b, rt, baseline_berr,
                 require_events=False, chaos=chaos)
    if res.passed and not chaos.events:  # pragma: no cover
        res.passed = False
        res.detail["error"] = "latency injector never fired"
    report.scenarios.append(res)

    # 7. solve-stage faults: corrupted solve outputs and raising solves
    # must be re-answered from the reference factorization
    rt, chaos = _chaos_runtime(
        [
            CorruptSolveInjector(rate=0.2),
            RaiseInjector("solve", rate=0.1),
        ],
        seed,
    )
    report.scenarios.append(
        _judge("solve-faults", A, b, rt, baseline_berr, chaos=chaos)
    )

    # 8. explicit-inverse apply on a backend that cannot invert: the
    # chaos proxy forwards only factorize/solve, so the factors come
    # from it but ``apply_mode="inverse"`` cannot be honored - the
    # runtime must demote to the TRSV path *visibly* (a stage="invert"
    # fallback event), never silently
    rt, chaos = _chaos_runtime(
        [LatencyInjector("factorize", seconds=0.001)], seed
    )
    res = _judge(
        "inverse-apply-demotion", A, b, rt, baseline_berr,
        require_events=False, chaos=chaos, apply_mode="inverse",
    )
    if res.passed:
        rep = rt.last_report
        res.detail["effective_apply_mode"] = rep.effective_apply_mode
        invert_events = [
            e
            for e in rep.fallback_events
            if e.get("stage") == "invert"
        ]
        res.detail["invert_events"] = len(invert_events)
        if rep.effective_apply_mode != "factor" or not invert_events:
            res.passed = False
            res.detail["error"] = (
                "inverse apply on a non-invert backend was not "
                "visibly demoted to the factor path"
            )
    report.scenarios.append(res)

    # 9. integer status under fault injection: a probe batch with two
    # genuinely singular blocks, factorized under identity degradation
    # through a NaN-corrupting ``binned`` backend (its bins quarantined
    # onto ``numpy``, as in scenario 3), must report the exact merged
    # ``info`` of a clean reference run - integer status is never
    # allowed to drift, however the bins were re-executed
    from ..core.random_batches import random_batch

    t0 = time.perf_counter()
    probe = random_batch(
        24, size_range=(1, 8), kind="diag_dominant", seed=seed + 17
    )
    for i in (3, 11):
        m = int(probe.sizes[i])
        probe.data[i, :m, :m] = 0.0
    ref_fac = BatchRuntime(backend="numpy").factorize(
        probe, on_singular="identity"
    )
    chaos9 = ChaosBackend(
        get_backend("binned"),
        [CorruptBinsInjector(rate=1.0, mode="nan", max_bins=2)],
        seed=seed,
    )
    rt9 = BatchRuntime(backend=chaos9, resilient=True)
    fac = rt9.factorize(probe, on_singular="identity")
    info_identical = bool(
        np.array_equal(fac.info, ref_fac.info)
        and fac.degradation is not None
        and ref_fac.degradation is not None
        and np.array_equal(
            fac.degradation.original_info,
            ref_fac.degradation.original_info,
        )
    )
    detail = {
        "probe_injected_faults": len(chaos9.events),
        "probe_quarantined_bins": list(rt9.last_report.quarantined_bins),
        "info_bit_identical": info_identical,
    }
    if not info_identical:
        detail["error"] = "merged info drifted under fault injection"
    report.scenarios.append(
        ChaosScenarioResult(
            "bin-fault-info-bitwise",
            info_identical,
            detail,
            time.perf_counter() - t0,
        )
    )

    # 10. serving-layer tenant isolation under concurrent load: many
    # tenants coalesced into shared warp-tile bins over a
    # fault-injected backend, one tenant carrying a genuinely singular
    # batch.  The poisoned tenant must fail *alone* (structured
    # ``singular_blocks``), the injected NaN corruption must be
    # quarantined, every healthy tenant's ``info`` and solution must
    # stay bit-identical to a clean solo run of its own batch, and the
    # tainted merged handles must never enter the tenant caches.
    t0 = time.perf_counter()
    try:
        from ..core.random_batches import random_batch, random_rhs
        from ..serving import CoalescingEngine, Request, TenantCacheShards

        chaos10 = ChaosBackend(
            get_backend("binned"),
            [CorruptBinsInjector(rate=1.0, mode="nan", max_bins=1)],
            seed=seed,
        )
        rt10 = BatchRuntime(backend=chaos10, resilient=True)
        shards = TenantCacheShards()
        engine = CoalescingEngine(runtime=rt10, shards=shards)
        healthy = []
        for i in range(6):
            batch = random_batch(
                4, size_range=(2, 16), kind="diag_dominant",
                seed=seed * 100 + i,
            )
            healthy.append(
                Request(
                    tenant=f"tenant-{i}",
                    batch=batch,
                    kind="solve",
                    rhs=random_rhs(batch, seed=seed * 100 + 50 + i),
                )
            )
        poisoned_batch = random_batch(
            3, size=8, kind="diag_dominant", seed=seed + 99
        )
        poisoned_batch.data[1, :8, :8] = 0.0  # one singular block
        requests = healthy + [
            Request(tenant="poisoned", batch=poisoned_batch, kind="setup")
        ]
        for req in requests:
            engine.submit(req)
        responses = engine.flush()
        clean = BatchRuntime(backend="numpy")
        isolated = True
        for req, resp in zip(healthy, responses[:6]):
            ref = clean.factorize(req.batch)
            if (
                resp.status != "ok"
                or not np.array_equal(ref.info, resp.info)
                or not np.array_equal(
                    ref.solve(req.rhs).data, resp.solution.data
                )
            ):
                isolated = False
        p = responses[6]
        detail = {
            "injected_faults": len(chaos10.events),
            "quarantined_bins": list(
                rt10.last_report.quarantined_bins
            ),
            "healthy_bit_identical": isolated,
            "poisoned_status": p.status,
            "poisoned_error": p.error,
            "coalesced_requests": responses[0].coalesced_requests,
            "tainted_cache_entries": shards.stats()["entries"],
        }
        # the poisoned response records the original 7-way merge; the
        # healthy responses record the 6-way re-run that served them
        ok = bool(
            isolated
            and p.status == "failed"
            and p.error == "singular_blocks"
            and p.coalesced_requests == len(requests)
            and responses[0].coalesced_requests == len(healthy)
            and chaos10.events
            and shards.stats()["entries"] == 0
        )
        if not ok:
            detail["error"] = (
                "tenant isolation violated under coalesced fault "
                "injection"
            )
    except Exception as err:
        ok, detail = False, {"error": f"unhandled exception: {err!r}"}
    report.scenarios.append(
        ChaosScenarioResult(
            "serving-tenant-isolation", ok, detail,
            time.perf_counter() - t0,
        )
    )

    # 11. overload storm under latency injection: one bursty tenant
    # submitting at 10x the well-behaved rate against a deadline-aware
    # EDF engine with per-tenant quotas, over a backend with injected
    # factorize latency.  The storm must be absorbed by *its own*
    # quota (it collects the sheds), every well-behaved tenant keeps
    # meeting its deadlines, and - the engine's hard guarantee - no
    # response is ever delivered past its deadline.
    t0 = time.perf_counter()
    try:
        from ..serving import (
            ClosedLoopClient,
            CoalescingEngine,
            CoDelShedder,
            OverloadController,
            ScriptedClock,
            TenantQuotas,
        )

        chaos11 = ChaosBackend(
            get_backend("binned"),
            [LatencyInjector("factorize", seconds=0.001)],
            seed=seed,
        )
        rt11 = BatchRuntime(backend=chaos11, resilient=True)
        dt, cap, think = 0.01, 6, 0.08
        n_good = 5
        clock = ScriptedClock()
        overload = OverloadController(
            quotas=TenantQuotas(
                0.85 * (cap / dt) / (n_good + 1),
                burst_seconds=0.15,
                min_burst=2,
            ),
            shedder=CoDelShedder(target=0.02, interval=0.05),
        )
        engine = CoalescingEngine(
            runtime=rt11,
            max_pending=4096,
            clock=clock,
            scheduling="edf",
            overload=overload,
            max_flush_blocks=cap,
        )

        def _mk(client_seed):
            def make(rng):
                from ..core.random_batches import random_batch, random_rhs

                b = random_batch(
                    2, size_range=(4, 16), kind="diag_dominant",
                    seed=int(rng.integers(2**31)),
                )
                return Request(
                    tenant="x", batch=b, kind="solve",
                    rhs=random_rhs(b, seed=int(rng.integers(2**31))),
                )

            return make

        clients = [
            ClosedLoopClient(
                f"good-{i}", engine, clock, _mk(seed + i),
                think_seconds=think, deadline_seconds=0.1,
                start_delay=i * dt, seed=seed * 101 + i,
            )
            for i in range(n_good)
        ]
        storm = ClosedLoopClient(
            "storm", engine, clock, _mk(seed + 999),
            think_seconds=think / 10.0, deadline_seconds=0.1,
            seed=seed * 101 + 999,
        )
        clients.append(storm)
        for _ in range(200):
            for c in clients:
                c.tick()
            engine.flush()
            clock.advance(dt)
        good = clients[:n_good]
        good_sheds = sum(
            sum(c.stats["rejected"].values()) for c in good
        )
        storm_sheds = sum(storm.stats["rejected"].values())
        violations = sum(c.stats["violations"] for c in clients)
        detail = {
            "injected_faults": len(chaos11.events),
            "good_completed": [c.stats["completed"] for c in good],
            "good_sheds": good_sheds,
            "storm_completed": storm.stats["completed"],
            "storm_sheds": storm_sheds,
            "storm_shed_reasons": dict(storm.stats["rejected"]),
            "late_deliveries": violations,
            "late_deliveries_prevented": engine.stats[
                "late_deliveries_prevented"
            ],
        }
        ok = bool(
            violations == 0
            and all(c.stats["completed"] > 0 for c in good)
            and all(c.stats["violations"] == 0 for c in good)
            and storm_sheds > 0
            and storm_sheds > good_sheds
            and chaos11.events
        )
        if not ok:
            detail["error"] = (
                "overload storm leaked onto well-behaved tenants or "
                "a response was delivered past its deadline"
            )
    except Exception as err:
        ok, detail = False, {"error": f"unhandled exception: {err!r}"}
    report.scenarios.append(
        ChaosScenarioResult(
            "overload-storm", ok, detail, time.perf_counter() - t0
        )
    )

    return report
