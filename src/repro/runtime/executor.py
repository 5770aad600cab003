"""The batch runtime: plan -> backend dispatch -> report.

:class:`BatchRuntime` is the execution subsystem between the batched
kernels and everything that calls them (the block-Jacobi
preconditioner, the CLI, the serving engine).  One ``factorize`` call:

1. plans the size-binned execution (:mod:`repro.runtime.planner`);
2. dispatches the plan to the selected backend
   (:mod:`repro.runtime.backends`), surviving execution faults when
   resilience is configured: a raising or corrupting backend first
   gets its failing bins quarantined to the reference ``numpy``
   backend (healthy bins keep their fast path), then the configured
   fallback chain takes the whole batch, with a per-backend circuit
   breaker deciding who may even be tried;
3. builds explicit inverses when the apply mode asks for them;
4. emits a :class:`~repro.runtime.stats.RuntimeReport` with per-stage
   wall time, per-bin padding-waste counters, and every resilience
   event that occurred.

Every call factorizes: the runtime keeps no factorization cache.  The
serving layer caches per tenant
(:class:`~repro.serving.shards.TenantCacheShards`).

The returned :class:`RuntimeFactorization` handle answers ``solve``
calls (timed into the same report) and exposes the merged
``info``/``degradation`` status with exactly the kernels' semantics, so
callers built against the raw kernels port over unchanged.  Semantic
outcomes are never masked: ``on_singular="raise"`` propagates
:class:`~repro.core.degradation.SingularBlockError` with the merged
source-ordered status through the chain and the quarantine path alike.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.batch import BatchedMatrices, BatchedVectors
from ..core.degradation import (
    DegradationRecord,
    OnSingular,
    SingularBlockError,
)
from .backends import (
    METHODS,
    Backend,
    BackendFactorization,
    NumpyBackend,
    _binned_stats,
    get_backend,
    merge_bin_status,
)
from .autotune import tune_apply_mode
from .cache import CacheStats
from .planner import DEFAULT_BINS, ExecutionPlan, plan_batch
from .resilience import (
    COMPOSITE_BACKEND,
    BinExecution,
    BreakerBoard,
    RuntimeExecutionError,
    single_bin_plan,
    spot_check_factorization,
)
from ..obs.flight import record_flight
from ..telemetry.metrics import get_metrics
from ..telemetry.tracer import get_tracer
from .stats import RuntimeReport

__all__ = ["APPLY_MODES", "BatchRuntime", "RuntimeFactorization"]

#: how a handle answers solves: via the stored factorization
#: (triangular sweeps), via explicit inverses (one batched GEMV per
#: bin), or measured per bin at setup time
APPLY_MODES = ("factor", "inverse", "auto")


def _no_cache(name: str, value) -> None:
    """Reject a request for runtime caching: only ``False`` is valid."""
    if value is not False:
        raise TypeError(
            f"{name}={value!r}: BatchRuntime keeps no factorization "
            "cache; cache per tenant with "
            "repro.serving.TenantCacheShards"
        )


def _note_fallback(report: RuntimeReport, event: dict) -> None:
    """Record a resilience deviation on the report, the metrics
    registry, the flight recorder, and (when tracing) the event
    stream - one call site per deviation keeps the views consistent.
    Quarantines funnel through here too (``action:
    quarantined_to_numpy``), so the black box always explains *why* a
    launch was tainted."""
    report.fallback_events.append(event)
    get_metrics().counter(
        "repro_fallback_events_total",
        "Resilient-executor deviations by stage and backend",
    ).inc(
        stage=str(event.get("stage", "?")),
        backend=str(event.get("backend", "?")),
    )
    record_flight("runtime_fallback", **event)
    tr = get_tracer()
    if tr.enabled:
        tr.event("runtime.fallback", **event)


@dataclass
class RuntimeFactorization:
    """A factorized batch, ready to answer solves.

    Carries the plan it was executed under, the backend's opaque state,
    and the merged source-ordered status.  ``report`` describes the
    call that created the handle.

    In resilient mode a solve that raises or returns non-finite output
    on healthy blocks falls back to a lazily-built reference
    factorization (``numpy`` backend on the pristine source batch) and
    records the event on the report.
    """

    plan: ExecutionPlan
    backend: Backend
    method: str
    result: BackendFactorization
    report: RuntimeReport
    on_singular: OnSingular | None = None
    resilient: bool = False
    apply_mode: str = "factor"
    effective_apply_mode: str = "factor"
    inverse: object | None = None
    _solves: int = field(default=0, repr=False)
    _reference: tuple | None = field(default=None, repr=False)

    @property
    def info(self) -> np.ndarray:
        """Per-block factorization status, source order (LAPACK style)."""
        return self.result.info

    @property
    def degradation(self) -> DegradationRecord | None:
        return self.result.degradation

    @property
    def ok(self) -> bool:
        return self.result.ok

    @property
    def nb(self) -> int:
        return self.plan.nb

    @property
    def solves(self) -> int:
        """How many solves this handle has answered (reuse depth)."""
        return self._solves

    @property
    def nbytes(self) -> int:
        """Estimated resident bytes of this handle: the pristine source
        copy, the per-bin factor storage (backends factor the plan's
        bin batches in place, so their buffers *are* the factors), and
        any explicit inverses.  Used by the tenant shards' byte
        budget."""
        total = int(self.plan.source.data.nbytes)
        total += int(self.plan.source.sizes.nbytes)
        for b in self.plan.bins:
            total += int(b.batch.data.nbytes)
        if self.inverse is not None:
            for state in self.inverse.units():
                if state is not None:
                    total += int(state.inverses.data.nbytes)
        return total

    def solve(self, rhs: BatchedVectors) -> BatchedVectors:
        """Solve against every block, timed into the handle's report."""
        if rhs.nb != self.plan.nb or rhs.tile != self.plan.source_tile:
            raise ValueError(
                f"rhs geometry ({rhs.nb}, {rhs.tile}) does not match the "
                f"factorized batch ({self.plan.nb}, {self.plan.source_tile})"
            )
        mode = (
            self.effective_apply_mode
            if self.inverse is not None
            else "factor"
        )
        t0 = time.perf_counter()
        with self.report.timer().stage("solve"):
            if not self.resilient:
                out = self._mode_solve(rhs, mode)
            else:
                out = self._resilient_solve(rhs, mode)
        get_metrics().histogram(
            "repro_apply_seconds",
            "Wall seconds per preconditioner apply, by apply mode",
        ).observe(time.perf_counter() - t0, mode=mode)
        self._solves += 1
        self.report.solves += 1
        return out

    def _mode_solve(self, rhs: BatchedVectors, mode: str) -> BatchedVectors:
        if mode != "factor" and self.inverse is not None:
            return self.backend.apply_inverse(
                self.inverse, self.result.state, self.plan, rhs
            )
        return self.backend.solve(self.result.state, self.plan, rhs)

    # -- resilient solve path ---------------------------------------------

    def _resilient_solve(
        self, rhs: BatchedVectors, mode: str = "factor"
    ) -> BatchedVectors:
        err: BaseException | None = None
        out = None
        try:
            with np.errstate(all="ignore"):
                out = self._mode_solve(rhs, mode)
        except Exception as e:
            err = e
        if out is not None and self._solve_corrupted(out, rhs):
            err = RuntimeExecutionError(
                "non-finite solve output on blocks with clean info"
            )
            out = None
        if out is None and mode != "factor":
            # the inverse path failed or produced garbage: quarantine
            # the apply onto the factorization (TRSV) path before
            # escalating to the reference factorization
            _note_fallback(
                self.report,
                {
                    "stage": "solve",
                    "backend": self.backend.name,
                    "error": repr(err),
                    "action": "inverse_to_factor",
                },
            )
            try:
                with np.errstate(all="ignore"):
                    out = self._mode_solve(rhs, "factor")
            except Exception as e:
                err = e
            if out is not None and self._solve_corrupted(out, rhs):
                err = RuntimeExecutionError(
                    "non-finite solve output on blocks with clean info"
                )
                out = None
        if out is None:
            out = self._reference_solve(rhs)
            self.report.solve_fallbacks += 1
            _note_fallback(
                self.report,
                {
                    "stage": "solve",
                    "backend": self.backend.name,
                    "error": repr(err),
                    "action": "reference_solve",
                },
            )
        return out

    def _solve_corrupted(
        self, out: BatchedVectors, rhs: BatchedVectors
    ) -> bool:
        """Non-finite output on a healthy block with finite input proves
        the stored factors (or the solve path) are damaged."""
        src = self.plan.source
        mask = np.arange(src.tile)[None, :] < src.sizes[:, None]
        rhs_finite = np.isfinite(np.where(mask, rhs.data, 0.0)).all(axis=1)
        out_finite = np.isfinite(np.where(mask, out.data, 0.0)).all(axis=1)
        healthy = self.result.info == 0
        return bool((healthy & rhs_finite & ~out_finite).any())

    def _reference_solve(self, rhs: BatchedVectors) -> BatchedVectors:
        """Solve via a lazily-built reference (numpy) factorization of
        the pristine source batch, with the handle's policy semantics
        (``"raise"`` maps to None: the original factorization already
        proved the batch clean)."""
        if self._reference is None:
            ref = NumpyBackend()
            ref_plan = ExecutionPlan(source=self.plan.source)
            policy = (
                None if self.on_singular == "raise" else self.on_singular
            )
            ref_fac = ref.factorize(ref_plan, self.method, policy)
            self._reference = (ref, ref_plan, ref_fac)
        ref, ref_plan, ref_fac = self._reference
        return ref.solve(ref_fac.state, ref_plan, rhs)


class BatchRuntime:
    """Size-binned, multi-backend executor for batched kernels.

    Parameters
    ----------
    backend:
        Registered backend name (``"binned"`` - the default, which
        runs the SoA kernels for ``lu``/``gh``/``ght`` -, ``"numpy"``,
        the monolithic AoS reference, or ``"scipy"``) or a ready
        :class:`~repro.runtime.backends.Backend` instance.
    bins:
        Nominal bin ladder for the planner (default: the warp-tile
        ladder 4/8/16/32); ``None`` bins by exact size.
    tight:
        Execute bins at the largest size present instead of the
        nominal ceiling (default True; see the planner).
    fallback:
        Ordered fallback chain of backend names (or instances) tried
        when the primary backend fails on the whole batch, e.g.
        ``("numpy", "scipy")`` for the documented
        ``binned -> numpy -> scipy`` chain; the primary and repeated
        names are skipped.  None (default) disables the chain.
    quarantine:
        Retry failing/corrupted size bins in isolation (primary
        backend first, then the reference ``numpy`` backend) instead of
        abandoning the whole batch.  Defaults to on exactly when
        resilience is configured (``fallback`` given or ``validate``
        forced on).
    validate:
        Run the finite-factor spot check on factorization results
        and solve outputs.  Defaults to match ``quarantine``.
    breaker_threshold, breaker_cooldown:
        Per-backend circuit breaker: consecutive failures that trip it
        open, and seconds before a half-open probe is allowed.
    clock:
        Monotonic time source for the breakers (injectable for tests).

    Attributes
    ----------
    last_report:
        The :class:`~repro.runtime.stats.RuntimeReport` of the most
        recent ``factorize`` call.
    """

    def __init__(
        self,
        backend: str | Backend = "binned",
        bins=DEFAULT_BINS,
        tight: bool = True,
        cache: bool = False,  # benchmarks/e2e/workloads.py passes False
        fallback: Sequence[str | Backend] | None = None,
        quarantine: bool | None = None,
        validate: bool | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        clock=time.monotonic,
    ):
        _no_cache("cache", cache)
        if isinstance(backend, Backend):
            self.backend = backend
        else:
            self.backend = get_backend(backend)
        self.bins = None if bins is None else tuple(int(b) for b in bins)
        self.tight = bool(tight)
        self._fallbacks: list[Backend] = []
        if fallback is not None:
            seen = {self.backend.name}
            for entry in fallback:
                b = entry if isinstance(entry, Backend) else get_backend(entry)
                if b.name in seen:
                    continue
                seen.add(b.name)
                self._fallbacks.append(b)
        resilient_default = fallback is not None or bool(validate)
        self.quarantine = (
            resilient_default if quarantine is None else bool(quarantine)
        )
        self.validate = (
            (self.quarantine or fallback is not None)
            if validate is None
            else bool(validate)
        )
        self._breakers = BreakerBoard(
            failure_threshold=breaker_threshold,
            cooldown_seconds=breaker_cooldown,
            clock=clock,
        )
        self._reference = NumpyBackend()
        self.last_report: RuntimeReport | None = None

    @property
    def resilient(self) -> bool:
        """Whether any resilience mechanism is configured."""
        return bool(self._fallbacks) or self.quarantine or self.validate

    @property
    def breakers(self) -> BreakerBoard:
        return self._breakers

    # -- execution --------------------------------------------------------

    def factorize(
        self,
        batch: BatchedMatrices,
        method: str = "lu",
        on_singular: OnSingular | None = None,
        use_cache: bool = False,  # benchmarks/e2e/workloads.py passes False
        apply_mode: str = "factor",
    ) -> RuntimeFactorization:
        """Factorize a batch through plan -> backend.

        The source batch is never mutated (callers keep their data, and
        tenant-cache keys over it stay valid).  Raises
        :class:`~repro.core.degradation.SingularBlockError` under
        ``on_singular="raise"`` with the merged source-ordered status,
        and :class:`~repro.runtime.resilience.RuntimeExecutionError`
        when every configured execution avenue failed.

        ``apply_mode`` selects how the returned handle answers solves:
        ``"factor"`` (default, the triangular/factor apply),
        ``"inverse"`` (explicit per-bin inverses applied by one batched
        GEMV - built in an extra timed ``invert`` stage), or ``"auto"``
        (both paths measured per bin, the faster one kept).  When the
        producing backend cannot build inverses (``scipy``, a chaos
        wrapper, the quarantine composite) or singular blocks stayed
        unresolved, the handle falls back to the factor apply and the
        deviation is recorded on the report.
        """
        _no_cache("use_cache", use_cache)
        if method not in METHODS:
            raise ValueError(
                f"unknown method {method!r}; expected one of {METHODS}"
            )
        if apply_mode not in APPLY_MODES:
            raise ValueError(
                f"unknown apply_mode {apply_mode!r}; expected one of "
                f"{APPLY_MODES}"
            )
        report = RuntimeReport(
            backend=self.backend.name,
            method=method,
            nb=batch.nb,
            source_tile=batch.tile,
            apply_mode=apply_mode,
        )
        tr = get_tracer()
        top = (
            tr.begin(
                "runtime.factorize",
                cat="runtime",
                backend=self.backend.name,
                method=method,
                nb=batch.nb,
                tile=batch.tile,
            )
            if tr.enabled
            else None
        )
        try:
            handle = self._factorize_inner(
                batch, method, on_singular, apply_mode, report
            )
        finally:
            if top is not None:
                tr.end(top)
        return handle

    def _factorize_inner(
        self, batch, method, on_singular, apply_mode, report
    ) -> RuntimeFactorization:
        timer = report.timer()
        with timer.stage("plan"):
            plan = plan_batch(batch, bins=self.bins, tight=self.tight)
        with timer.stage("factor"):
            result, producer = self._execute(
                plan, method, on_singular, report
            )
        if producer is COMPOSITE_BACKEND:
            report.bins = _binned_stats(plan, method)
            for i, b in enumerate(report.bins):
                if i in report.quarantined_bins:
                    b.quarantined = True
                    b.fallback = True
        else:
            report.bins = producer.bin_stats(plan, method)
            if producer is not self.backend:
                for b in report.bins:
                    b.fallback = True
        if report.padded_flops:
            get_metrics().gauge(
                "repro_padding_waste_ratio",
                "Padded-over-useful flop waste of the last factorization",
            ).set(
                report.padding_waste / report.padded_flops,
                backend=self.backend.name,
            )
        if self.resilient:
            report.breakers = self._breakers.snapshot()
        inverse, effective_mode = self._build_inverse(
            plan, producer, result, apply_mode, report, timer
        )
        handle = RuntimeFactorization(
            plan=plan,
            backend=producer,
            method=method,
            result=result,
            report=report,
            on_singular=on_singular,
            resilient=self.resilient,
            apply_mode=apply_mode,
            effective_apply_mode=effective_mode,
            inverse=inverse,
        )
        self.last_report = report
        return handle

    def solve(
        self, fac: RuntimeFactorization, rhs: BatchedVectors
    ) -> BatchedVectors:
        """Convenience alias for ``fac.solve(rhs)``."""
        return fac.solve(rhs)

    def _build_inverse(
        self, plan, producer, result, apply_mode, report, timer
    ):
        """Explicit-inverse construction (+ tuning) for the handle.

        Returns ``(inverse, effective_mode)``.  Falls back to the
        factor apply - with a recorded deviation - whenever the
        producing backend cannot invert (scipy, chaos wrappers, the
        quarantine composite) or singular blocks stayed unresolved.
        """
        report.effective_apply_mode = "factor"
        if apply_mode == "factor":
            return None, "factor"
        reason = None
        if producer is COMPOSITE_BACKEND:
            reason = "quarantined_composite"
        elif not getattr(producer, "supports_invert", False):
            reason = "backend_no_invert"
        elif not result.ok:
            reason = "unresolved_singular_blocks"
        if reason is not None:
            _note_fallback(
                report,
                {
                    "stage": "invert",
                    "backend": getattr(producer, "name", "?"),
                    "error": reason,
                    "action": "factor_apply",
                },
            )
            return None, "factor"
        with timer.stage("invert"):
            inverse = producer.invert(result.state, plan)
        effective = "inverse"
        if apply_mode == "auto":
            with timer.stage("tune"):
                tuning = tune_apply_mode(
                    result.state,
                    inverse,
                    invert_seconds=report.stage_seconds.get(
                        "invert", 0.0
                    ),
                )
            report.apply_tuning = tuning.to_dict()
            effective = tuning.mode
            if effective == "factor":
                inverse = None
        report.effective_apply_mode = effective
        return inverse, effective

    # -- resilient execution ----------------------------------------------

    def _execute(
        self,
        plan: ExecutionPlan,
        method: str,
        on_singular,
        report: RuntimeReport,
    ) -> tuple[BackendFactorization, Backend]:
        """Run the plan to a usable factorization.

        Returns ``(result, producing_backend)``.  Non-resilient
        runtimes take the single direct call, preserving historical
        semantics exactly.
        """
        if not self.resilient:
            result = self.backend.factorize(plan, method, on_singular)
            return result, self.backend
        last_err: BaseException | None = None
        chain = [self.backend] + self._fallbacks
        for position, backend in enumerate(chain):
            if backend.name == "scipy" and method != "lu":
                _note_fallback(
                    report,
                    {
                        "stage": "factorize",
                        "backend": backend.name,
                        "error": "method_unsupported",
                        "skipped": True,
                    },
                )
                continue
            breaker = self._breakers.breaker(backend.name)
            if not breaker.allow():
                _note_fallback(
                    report,
                    {
                        "stage": "factorize",
                        "backend": backend.name,
                        "error": "circuit_open",
                        "skipped": True,
                    },
                )
                continue
            try:
                with np.errstate(all="ignore"):
                    result = backend.factorize(plan, method, on_singular)
            except SingularBlockError:
                # semantic outcome, not an execution fault: the backend
                # did its job, the batch is singular under "raise"
                breaker.record_success()
                raise
            except Exception as err:
                breaker.record_failure()
                last_err = err
                _note_fallback(
                    report,
                    {
                        "stage": "factorize",
                        "backend": backend.name,
                        "error": repr(err),
                    },
                )
                if position == 0 and self.quarantine and plan.bins:
                    out = self._quarantine_execute(
                        plan, method, on_singular, backend, report
                    )
                    if out is not None:
                        return out, COMPOSITE_BACKEND
                continue
            if self.validate:
                bad = spot_check_factorization(
                    backend, result.state, plan, result.info
                )
                if bad.any():
                    breaker.record_failure()
                    _note_fallback(
                        report,
                        {
                            "stage": "factorize",
                            "backend": backend.name,
                            "error": "corrupted_factors",
                            "blocks": np.nonzero(bad)[0].tolist(),
                        },
                    )
                    if position == 0 and self.quarantine and plan.bins:
                        out = self._quarantine_execute(
                            plan, method, on_singular, backend, report
                        )
                        if out is not None:
                            return out, COMPOSITE_BACKEND
                    continue
            breaker.record_success()
            if position > 0:
                report.backend_used = backend.name
            return result, backend
        raise RuntimeExecutionError(
            f"no backend could factorize the batch (tried "
            f"{[b.name for b in chain]}; "
            f"{len(report.fallback_events)} fault/skip event(s) recorded)"
        ) from last_err

    def _quarantine_execute(
        self,
        plan: ExecutionPlan,
        method: str,
        on_singular,
        primary: Backend,
        report: RuntimeReport,
    ) -> BackendFactorization | None:
        """Per-bin isolation pass: healthy bins keep the primary
        backend, failing or corrupted bins are retried on the reference
        ``numpy`` backend.

        Mirrors the degradation semantics of the shared binned
        machinery exactly: bins execute under the substitution policy
        (or none), ``"raise"`` is evaluated on the *merged* source-
        ordered status at the end.  Returns None when the pass cannot
        produce a usable state (reference retry corrupted too).
        """
        if (
            primary.name == "scipy" or self._reference.name == "scipy"
        ) and method != "lu":  # pragma: no cover - guarded upstream
            return None
        per_bin_policy = (
            None if on_singular in (None, "raise") else on_singular
        )
        breaker = self._breakers.breaker(primary.name)
        execs: list[BinExecution] = []
        for bi, b in enumerate(plan.bins):
            res = None
            quarantined = False
            attempts = 0
            errors: list[str] = []
            if breaker.allow():
                inner = single_bin_plan(plan, b)
                attempts += 1
                try:
                    with np.errstate(all="ignore"):
                        res = primary.factorize(
                            inner, method, per_bin_policy
                        )
                    if self.validate and spot_check_factorization(
                        primary, res.state, inner, res.info
                    ).any():
                        errors.append("corrupted_factors")
                        res = None
                except Exception as err:
                    errors.append(repr(err))
                if res is None:
                    breaker.record_failure()
                else:
                    breaker.record_success()
            else:
                errors.append("circuit_open")
            if res is None:
                inner = single_bin_plan(plan, b)
                attempts += 1
                res = self._reference.factorize(
                    inner, method, per_bin_policy
                )
                if self.validate and spot_check_factorization(
                    self._reference, res.state, inner, res.info
                ).any():
                    # the reference path never corrupts on its own;
                    # this means the input data itself is unusable
                    return None
                quarantined = True
                backend_for_bin: Backend = self._reference
                report.quarantined_bins.append(bi)
                get_metrics().counter(
                    "repro_quarantined_bins_total",
                    "Size bins retried on the reference backend",
                ).inc(backend=primary.name)
                _note_fallback(
                    report,
                    {
                        "stage": "factorize",
                        "backend": primary.name,
                        "bin": bi,
                        "tile": b.tile,
                        "error": "; ".join(errors) or "unknown",
                        "action": "quarantined_to_numpy",
                    },
                )
            else:
                backend_for_bin = primary
            execs.append(
                BinExecution(
                    backend=backend_for_bin,
                    plan=inner,
                    state=res.state,
                    info=res.info,
                    degradation=res.degradation,
                    quarantined=quarantined,
                    attempts=attempts,
                    errors=errors,
                )
            )
        result = merge_bin_status(plan, method, on_singular, execs, execs)
        report.backend_used = f"{primary.name}+quarantine"
        return result

    @property
    def cache_stats(self) -> CacheStats:  # read by benchmarks/e2e/workloads.py
        """All zero: the runtime keeps no cache."""
        return CacheStats()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        chain = "+".join(
            [self.backend.name] + [b.name for b in self._fallbacks]
        )
        return (
            f"BatchRuntime(backend={chain!r}, bins={self.bins}, "
            f"tight={self.tight}, quarantine={self.quarantine})"
        )
