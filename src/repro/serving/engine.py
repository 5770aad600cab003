"""The coalescing engine: admission, batching, execution, scatter-back.

:class:`CoalescingEngine` is the synchronous, deterministic core of the
preconditioner service.  Requests pass **admission** (structured
rejection on malformed jobs, oversized batches, full queues, or an open
circuit breaker), then either hit the tenant's factorization cache and
resolve immediately, or queue for the next **flush**.  A flush merges
every compatible pending request (same method / policy / apply mode /
dtype) into one identity-padded batch, runs a *single*
:class:`~repro.runtime.BatchRuntime` factorization per merged chunk,
and scatters results back to each requester by its segment indices -
the cross-request form of the paper's launch amortization.

The engine is deliberately synchronous and clock-injected: every
admission decision, flush boundary, and TTL interaction is
reproducible under a scripted clock, which is what the serving tests
and the scripted load and overload gates build on.  The asyncio service in
:mod:`repro.serving.service` adds concurrency *around* this core
without adding nondeterminism *inside* it.

Overload control (all optional, all deterministic under a scripted
clock): with ``scheduling="edf"`` the flush orders admitted work
earliest-deadline-first (ties: priority, then arrival), sheds jobs
already past their deadline before the merged launch, and audits again
at scatter-back so a response is *never* delivered late - a missed
deadline becomes a structured ``deadline_exceeded`` rejection instead.
``max_flush_blocks`` bounds how many blocks one flush may execute (the
capacity model that makes backlog dynamics reproducible); the strict
EDF prefix runs, the remainder is deferred back to the queue front.
An attached :class:`~repro.serving.overload.OverloadController` adds
per-tenant token-bucket quotas and CoDel-style sojourn shedding at
admission.

Fault containment: a flush whose runtime execution was tainted (any
fallback event or quarantined bin on the runtime report) still answers
its requesters - a resilient runtime already repaired the result by
quarantining the failing bins onto ``numpy`` - but the resulting
handles are **never** cached into tenant shards.  Singular blocks under policy ``None``/``"raise"``
fail only the requests that own them; the healthy co-batched requests
are re-merged and re-factorized once, so one tenant's bad matrix
cannot fail a neighbour.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from ..clock import MONOTONIC, PERF
from ..core.batch import BatchedVectors
from ..obs.flight import FlightRecorder, get_flight_recorder
from ..obs.slo import SLOEngine
# benchmarks/e2e/layers.py patches this name to time the tenant key
from ..runtime.cache import batch_fingerprint
from ..runtime.executor import BatchRuntime
from ..telemetry.metrics import get_metrics
from ..telemetry.tracer import get_tracer
from .coalesce import TenantFactorization, merge_batches, merge_rhs
from .overload import OverloadController
from .requests import Rejection, Request, Response, Ticket
from .shards import TenantCacheShards

__all__ = ["CoalescingEngine", "SCHEDULING_MODES"]

#: flush-ordering disciplines: deadline-aware EDF vs. the legacy
#: admission-order baseline (no deadline checks, no delivery audit)
SCHEDULING_MODES = ("edf", "fifo")


def _count_request(kind: str, outcome: str) -> None:
    get_metrics().counter(
        "repro_serving_requests_total",
        "Serving jobs by kind and outcome",
    ).inc(kind=kind, outcome=outcome)


def _count_shed(reason: str) -> None:
    get_metrics().counter(
        "repro_serving_sheds_total",
        "Serving jobs refused admission, by structured reason",
    ).inc(reason=reason)


def _observe_stage(stage: str, seconds: float) -> None:
    get_metrics().histogram(
        "repro_serving_stage_seconds",
        "Wall seconds per serving stage",
    ).observe(seconds, stage=stage)


def _tainted(report) -> bool:
    """Whether a launch survived an execution fault: its handles
    answer their requesters but never enter a tenant shard."""
    return bool(
        report is not None
        and (report.fallback_events or report.quarantined_bins)
    )


class _RequestStamps:
    """Trace stamps of one traced request, taken as it moves through
    the engine; its spans are written from them later (see
    :func:`_request_spans`), which keeps span bookkeeping off the
    per-request path.  Times are the tracer's (:meth:`Tracer.now`).
    Holds the span attributes, never the request and its arrays."""

    __slots__ = (
        "tracer", "parent", "tid", "tenant", "trace_id", "kind", "nb",
        "start", "admitted", "dequeued", "launches",
    )

    def __init__(self, tracer, parent, req: Request):
        self.tracer = tracer
        self.parent = parent  # the caller's open span id at submit
        self.tid = tracer.current_tid()
        self.tenant = req.tenant
        self.trace_id = req.trace_id
        self.kind = req.kind
        self.nb = int(req.batch.nb)
        self.start = tracer.now()  # admission began
        self.admitted = None  # admission ended: queued, or refused
        self.dequeued = None  # a flush took it for execution
        self.launches = []  # coalesced launches that served it


def _record_admit(st: _RequestStamps, outcome: str):
    return st.tracer.record(
        "serving.admit", "serving", start=st.start, end=st.admitted,
        parent=st.parent, tid=st.tid, tenant=st.tenant,
        trace_id=st.trace_id, kind=st.kind, nb=st.nb, outcome=outcome,
    )


def _request_spans(request_id: int, st: _RequestStamps):
    """Write a queued request's admission span, its detached request
    envelope and the envelope's queue-wait child from its stamps, and
    link every launch that served it so far to the envelope.  Returns
    ``(envelope, queue)``; the envelope is left open, and so is the
    queue span (else None) while the request is still queued."""
    tr = st.tracer
    admit = _record_admit(st, "queued")
    # parentage is explicit, never the ambient context (the envelope
    # outlives admission and must not adopt whatever the caller opens
    # next)
    envelope = tr.record(
        "serving.request", "serving", start=st.admitted, parent=admit,
        tid=st.tid, tenant=st.tenant, trace_id=st.trace_id,
        request_id=request_id, kind=st.kind, nb=st.nb,
    )
    queue = tr.record(
        "serving.queue", "serving", start=st.admitted, end=st.dequeued,
        parent=envelope, tid=st.tid, tenant=st.tenant,
        trace_id=st.trace_id,
    )
    for launch in st.launches:
        launch.add_link(envelope)
    return envelope, (queue if st.dequeued is None else None)


def _write_deliveries(tr, rows, tid: int, flush_id: int, launch) -> None:
    """Write the deliver spans of one chunk (run on thread ``tid``)
    from their stamps and seal each request envelope; a request whose
    spans were not written yet gets them all here."""
    for request_id, st, envelope, start, end, status in rows:
        if envelope is None:
            envelope, _ = _request_spans(request_id, st)
        # fan-out: the per-tenant deliver span hangs under the request
        # envelope and links back to the shared launch
        tr.record(
            "serving.deliver", "serving", start=start, end=end,
            parent=envelope, tid=tid, tenant=st.tenant,
            trace_id=st.trace_id, flush_id=flush_id, status=status,
        ).add_link(launch)
        tr.end_at(
            envelope, end,
            outcome="delivered" if status == "ok" else "failed",
        )


class CoalescingEngine:
    """Admission + cross-request coalescing over one batch runtime.

    Parameters
    ----------
    runtime:
        The :class:`~repro.runtime.BatchRuntime` that executes merged
        batches.  Default: a fresh ``binned`` runtime.  The runtime
        keeps no cache; caching happens per tenant in the shards.
    max_pending:
        Queue-depth bound; submissions beyond it shed ``queue_full``.
    max_batch_blocks:
        Bound on a merged chunk's block count and on any single
        request (``batch_too_large`` above it).
    shards:
        Per-tenant factorization caches (a ready
        :class:`~repro.serving.shards.TenantCacheShards`); None
        disables tenant caching entirely.
    shed_when_breaker_open:
        Shed new work (``circuit_open``) while the runtime's primary-
        backend breaker refuses calls, instead of queueing jobs whose
        every bin would be quarantined onto ``numpy``.  Only
        meaningful on a resilient runtime.
    clock:
        Monotonic time source for queue-age accounting, deadlines and
        overload decisions (injectable; the shards carry their own
        clock for TTL).
    scheduling:
        ``"edf"`` (default) orders each flush earliest-deadline-first
        with deadline shedding and the scatter-back delivery audit;
        ``"fifo"`` is the legacy admission-order baseline that ignores
        deadlines entirely - the collapsing comparator in the overload
        gate test.
    overload:
        Optional :class:`~repro.serving.overload.OverloadController`
        consulted at admission (quotas, CoDel shedding) and after
        every flush (CoDel's sojourn feed).
    max_flush_blocks:
        Bound on blocks *executed per flush* - the capacity model.
        The schedule's prefix up to this budget runs; the remainder is
        deferred back to the queue front (counted in
        ``stats["deferred"]``).  None (default) keeps the unbounded
        legacy behaviour.
    slo:
        Optional :class:`~repro.obs.slo.SLOEngine`.  The engine feeds
        the conventional objectives it defines (``admitted_latency``
        against the SLO's own ``threshold``, ``deadline_hit``,
        ``shed_rate``) and runs ``evaluate`` after every flush; burn
        alerts flow through the SLO engine's callbacks (where the
        flight recorder typically hooks its dump).
    flight:
        Flight recorder for structured admission/shed/flush events.
        None (default) records into the process-global recorder;
        timestamps always come from the engine's own clock so
        scripted-clock runs stay deterministic.

    Tracing (when the global tracer is enabled) builds the causal
    span topology: a short ``serving.admit`` span per submission, a
    detached ``serving.request`` envelope with a ``serving.queue``
    child per queued job, one ``serving.launch`` span per merged
    chunk carrying **span links** to every merged request (fan-in),
    and a ``serving.deliver`` span per scatter-back parented under
    the request and linking back to the launch (fan-out).  Every
    span carries the request's ``trace_id``.
    """

    def __init__(
        self,
        runtime: BatchRuntime | None = None,
        *,
        max_pending: int = 256,
        max_batch_blocks: int = 4096,
        shards: TenantCacheShards | None = None,
        shed_when_breaker_open: bool = True,
        clock=MONOTONIC,
        scheduling: str = "edf",
        overload: OverloadController | None = None,
        max_flush_blocks: int | None = None,
        slo: SLOEngine | None = None,
        flight: FlightRecorder | None = None,
    ):
        if max_pending < 1:
            raise ValueError(
                f"max_pending must be positive, got {max_pending}"
            )
        if max_batch_blocks < 1:
            raise ValueError(
                f"max_batch_blocks must be positive, got {max_batch_blocks}"
            )
        if scheduling not in SCHEDULING_MODES:
            raise ValueError(
                f"unknown scheduling {scheduling!r}; expected one of "
                f"{SCHEDULING_MODES}"
            )
        if max_flush_blocks is not None and max_flush_blocks < 1:
            raise ValueError(
                f"max_flush_blocks must be positive, got {max_flush_blocks}"
            )
        self.runtime = (
            BatchRuntime() if runtime is None else runtime
        )
        self.max_pending = int(max_pending)
        self.max_batch_blocks = int(max_batch_blocks)
        self.shards = shards
        self.shed_when_breaker_open = bool(shed_when_breaker_open)
        self._clock = clock
        self.scheduling = scheduling
        self.overload = overload
        self.max_flush_blocks = (
            None if max_flush_blocks is None else int(max_flush_blocks)
        )
        self.slo = slo
        self._flight = flight
        self._lock = threading.Lock()
        self._pending: list[Ticket] = []
        self._next_id = 0
        self._next_flush = 0
        self._closed = False
        self.stats = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "cache_hits": 0,
            "rejected": {},
            "flushes": 0,
            "executions": 0,
            "requests_executed": 0,
            "blocks_executed": 0,
            "applies": 0,
            "deferred": 0,
            "late_deliveries_prevented": 0,
        }

    # -- admission ---------------------------------------------------------

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def coalescing_ratio(self) -> float:
        """Requests served per merged factorization (>1 means the
        coalescer is amortizing launches across requests)."""
        ex = self.stats["executions"]
        return self.stats["requests_executed"] / ex if ex else 0.0

    def _gauge_depth(self, depth: int) -> None:
        get_metrics().gauge(
            "repro_serving_queue_depth",
            "Pending serving jobs awaiting a flush",
        ).set(depth)

    def _record(self, kind: str, at: float | None = None, **fields) -> None:
        """Flight-recorder event stamped in the *engine's* clock
        domain; pass ``at`` wherever a timestamp is already in hand so
        ticking test clocks aren't advanced by observability."""
        rec = self._flight
        if rec is None:
            rec = get_flight_recorder()
        if rec.enabled:
            rec.record(
                kind, now=self._clock() if at is None else at, **fields
            )

    def _slo_record(
        self, name: str, good: bool, at: float | None = None
    ) -> None:
        """Feed one SLO sample, stamped ``at`` when a timestamp is
        already in hand (else now)."""
        if self.slo is not None:
            self.slo.record(
                name, good, now=self._clock() if at is None else at
            )

    def _latency_bound(self) -> float | None:
        """The admitted-latency objective's bound on queue seconds (it
        lives on the SLO itself, ``threshold``); None: no bound."""
        slo = None if self.slo is None else self.slo.get("admitted_latency")
        return None if slo is None else slo.threshold

    def _reject(
        self,
        req: Request,
        reason: str,
        retry_after: float | None = None,
        at: float | None = None,
        **detail,
    ) -> Ticket:
        rejection = Rejection(
            reason, dict(detail), retry_after=retry_after,
            trace_id=req.trace_id,
        )
        resp = Response(
            tenant=req.tenant,
            kind=req.kind,
            status="rejected",
            rejection=rejection,
            trace_id=req.trace_id,
        )
        self.stats["rejected"][reason] = (
            self.stats["rejected"].get(reason, 0) + 1
        )
        _count_shed(reason)
        _count_request(req.kind, "rejected")
        self._record(
            "shed", at=at, tenant=req.tenant, trace_id=req.trace_id,
            reason=reason, stage=detail.get("stage", "admission"),
        )
        self._slo_record("shed_rate", False, at=at)
        if reason == "deadline_exceeded":
            self._slo_record("deadline_hit", False, at=at)
        return Ticket(request=req, request_id=-1, response=resp)

    def _shed_ticket(
        self, ticket: Ticket, reason: str, now: float, **detail
    ) -> None:
        """Resolve an already-queued ticket as shed (in place, so
        waiters holding it observe the rejection)."""
        resp = self._reject(ticket.request, reason, at=now, **detail).response
        resp.request_id = ticket.request_id
        resp.queue_seconds = max(0.0, now - ticket.submitted_at)
        ticket.response = resp
        self._open_request_spans([ticket])
        ticket.stamps = None
        if ticket.queue_span is not None:
            ticket.queue_span.finish()
            ticket.queue_span = None
        if ticket.span is not None:
            ticket.span.finish(outcome="shed", reason=reason)
            ticket.span = None

    def _breaker_open(self) -> bool:
        if not (self.shed_when_breaker_open and self.runtime.resilient):
            return False
        breaker = self.runtime.breakers.breaker(self.runtime.backend.name)
        return not breaker.allow()

    def _tenant_key(self, req: Request) -> str:
        """Per-tenant cache key: content fingerprint of the request's
        own batch plus the execution discriminators.  Tenant-scoped
        shards make the tenant tag itself redundant, but mixing it in
        keeps keys unambiguous even if shards are shared."""
        return batch_fingerprint(
            req.batch,
            extra=(req.tenant, req.method, req.on_singular, req.apply_mode),
        )

    def submit(self, req: Request) -> Ticket:
        """Admit one job.  The returned ticket is already resolved for
        rejections and tenant-cache hits; otherwise it resolves at the
        next :meth:`flush`."""
        tr = get_tracer()
        if not tr.enabled:
            return self._admit(req)
        current = tr.current_span()
        st = _RequestStamps(
            tr, None if current is None else current.span_id, req
        )
        try:
            ticket = self._admit(req, st)
        except Exception:
            st.admitted = tr.now()
            _record_admit(st, "error")
            raise
        if ticket.response is None:
            return ticket  # queued: its spans are written later
        if ticket.response.status == "rejected":
            outcome = "shed"
        elif ticket.response.cache_hit:
            outcome = "cache_hit"
        else:
            outcome = ticket.response.status
        st.admitted = tr.now()
        tr.defer(lambda _: _record_admit(st, outcome))
        return ticket

    @staticmethod
    def _open_request_spans(tickets: list[Ticket]) -> None:
        """Write the spans of stamped tickets that have none yet and
        keep the open ones on the ticket: for tickets that stay queued
        past a flush (visible in a flight dump) or resolve off the
        delivery path (shed, failed).  Callers own the tickets (taken
        by their flush, or under the engine lock)."""
        for t in tickets:
            if t.stamps is not None and t.span is None:
                t.span, t.queue_span = _request_spans(
                    t.request_id, t.stamps
                )

    def _admit(
        self, req: Request, stamps: _RequestStamps | None = None
    ) -> Ticket:
        if self._closed:
            return self._reject(req, "not_running")
        problem = req.validate()
        if problem is not None:
            return self._reject(req, "invalid_request", problem=problem)
        if req.batch.nb > self.max_batch_blocks:
            return self._reject(
                req,
                "batch_too_large",
                nb=req.batch.nb,
                max_batch_blocks=self.max_batch_blocks,
            )
        if self._breaker_open():
            return self._reject(
                req, "circuit_open", backend=self.runtime.backend.name
            )
        now = self._clock()
        if (
            self.scheduling == "edf"
            and req.deadline is not None
            and now > req.deadline
        ):
            return self._reject(
                req, "deadline_exceeded",
                deadline=req.deadline, now=now, stage="admission",
            )
        if self.overload is not None:
            retry_after = self.overload.quota_admit(
                req.tenant, req.batch.nb, now
            )
            if retry_after > 0.0:
                return self._reject(
                    req, "tenant_quota_exceeded",
                    retry_after=retry_after, nb=req.batch.nb,
                )
        self.stats["submitted"] += 1
        if self.shards is not None:
            key = self._tenant_key(req)
            cached = self.shards.get(req.tenant, key)
            if cached is not None:
                return self._resolve_cached(req, key, cached)
        if self.overload is not None and self.overload.should_shed(now):
            return self._reject(
                req, "overloaded",
                retry_after=self.overload.shed_retry_after(now),
            )
        with self._lock:
            if len(self._pending) >= self.max_pending:
                depth = len(self._pending)
                ticket = None
            else:
                if stamps is not None:
                    stamps.admitted = stamps.tracer.now()
                ticket = Ticket(
                    request=req,
                    request_id=self._next_id,
                    submitted_at=self._clock(),
                    stamps=stamps,
                )
                self._next_id += 1
                self._pending.append(ticket)
                depth = len(self._pending)
        self._gauge_depth(depth)
        if ticket is None:
            return self._reject(req, "queue_full", depth=depth)
        self._record(
            "admit", at=ticket.submitted_at,
            tenant=req.tenant, trace_id=req.trace_id,
            request_id=ticket.request_id, job=req.kind,
            nb=int(req.batch.nb), depth=depth,
        )
        self._slo_record("shed_rate", True, at=ticket.submitted_at)
        return ticket

    def _resolve_cached(
        self, req: Request, key: str, tfac: TenantFactorization
    ) -> Ticket:
        """Answer a job straight from the tenant's shard."""
        resp = Response(
            tenant=req.tenant,
            kind=req.kind,
            status="ok",
            info=tfac.info,
            handle=tfac,
            cache_hit=True,
            coalesced_requests=1,
            coalesced_blocks=tfac.coalesced_blocks,
            delivered_at=self._clock(),
            trace_id=req.trace_id,
        )
        if req.kind == "solve":
            t0 = PERF()
            try:
                resp.solution = tfac.solve(req.rhs)
            except Exception as err:
                resp.status = "failed"
                resp.error = repr(err)
            resp.solve_seconds = PERF() - t0
            _observe_stage("solve", resp.solve_seconds)
        self.stats["cache_hits"] += 1
        if resp.status == "ok":
            self.stats["completed"] += 1
        else:
            self.stats["failed"] += 1
        _count_request(
            req.kind, "cache_hit" if resp.status == "ok" else "failed"
        )
        self._record(
            "admit", at=resp.delivered_at,
            tenant=req.tenant, trace_id=req.trace_id,
            job=req.kind, cache_hit=True,
        )
        self._slo_record("shed_rate", True)
        # a cache hit waits for nothing: it always meets the latency SLO
        self._slo_record("admitted_latency", True)
        if req.deadline is not None:
            self._slo_record(
                "deadline_hit", resp.delivered_at <= req.deadline
            )
        return Ticket(request=req, request_id=-1, response=resp)

    # -- flushing ----------------------------------------------------------

    def flush(self) -> list[Response]:
        """Execute the scheduled prefix of the queue; returns the
        responses of every ticket this flush *resolved* (executed or
        shed), in admission order.  Deferred tickets stay queued.
        Tickets taken by this flush are resolved in place, so
        concurrent submitters holding them see their responses too."""
        with self._lock:
            batch_tickets = self._pending
            self._pending = []
            flush_id = self._next_flush
            self._next_flush += 1
        if not batch_tickets:
            self._gauge_depth(0)
            if self.slo is not None:
                self.slo.evaluate(self._clock())
            return []
        tr = get_tracer()
        fspan = (
            tr.begin(
                "serving.flush", cat="serving",
                flush_id=flush_id, taken=len(batch_tickets),
            )
            if tr.enabled
            else None
        )
        try:
            return self._flush_inner(batch_tickets, flush_id, fspan)
        finally:
            if fspan is not None:
                tr.end(fspan)

    def _flush_inner(
        self, batch_tickets: list[Ticket], flush_id: int, fspan
    ) -> list[Response]:
        self.stats["flushes"] += 1
        now = self._clock()
        admitted, deferred = self._schedule(batch_tickets, now)
        # queue wait ends here for everything this flush executes;
        # deferred tickets keep their queue spans open
        for t in admitted:
            if t.queue_span is not None:
                t.queue_span.finish()
                t.queue_span = None
            elif t.stamps is not None:
                t.stamps.dequeued = t.stamps.tracer.now()
        self._open_request_spans(deferred)
        if deferred:
            self.stats["deferred"] += len(deferred)
            with self._lock:
                # deferred work re-queues *ahead* of anything admitted
                # since the flush started (it is older)
                self._pending = deferred + self._pending
                depth = len(self._pending)
        else:
            with self._lock:
                depth = len(self._pending)
        self._gauge_depth(depth)
        for t in admitted:
            t.response = None
        # group compatible jobs in schedule order (EDF or admission),
        # then chunk each group to the merged-batch bound
        groups: dict[tuple, list[Ticket]] = {}
        for t in admitted:
            req = t.request
            key = (
                req.method,
                req.on_singular,
                req.apply_mode,
                req.batch.dtype.str,
            )
            groups.setdefault(key, []).append(t)
        for tickets in groups.values():
            for chunk in self._chunks(tickets):
                self._launch(chunk, flush_id, now)
        if self.overload is not None:
            # CoDel's sojourn feed: one sample per job this flush ran
            for t in admitted:
                if t.response is not None:
                    self.overload.on_sojourn(
                        max(0.0, now - t.submitted_at), now
                    )
        resolved = [t for t in batch_tickets if t.response is not None]
        resolved.sort(key=lambda t: t.request_id)
        self._record(
            "flush", at=now, flush_id=flush_id,
            taken=len(batch_tickets),
            resolved=len(resolved), deferred=len(deferred),
        )
        if fspan is not None:
            fspan.set(resolved=len(resolved), deferred=len(deferred))
        if self.slo is not None:
            # an alert dumps the black box: write the spans of the
            # tickets queued meanwhile first
            with self._lock:
                self._open_request_spans(self._pending)
            self.slo.evaluate(self._clock())
        return [t.response for t in resolved]

    def _schedule(
        self, tickets: list[Ticket], now: float
    ) -> tuple[list[Ticket], list[Ticket]]:
        """Order the queue for execution and cut it to capacity.

        Under ``"edf"``: shed already-expired jobs
        (``deadline_exceeded``, in place), sort the remainder by
        ``(deadline, priority, arrival)`` with deadline-less jobs
        last, and - when ``max_flush_blocks`` is set - take the
        *strict prefix* that fits the block budget, deferring the
        rest.  Under ``"fifo"``: admission order, no deadline checks,
        same capacity cut.
        """
        if self.scheduling == "edf":
            live: list[Ticket] = []
            for t in tickets:
                d = t.request.deadline
                if d is not None and now > d:
                    self._shed_ticket(
                        t, "deadline_exceeded", now,
                        deadline=d, observed=now, stage="queue",
                    )
                else:
                    live.append(t)
            live.sort(
                key=lambda t: (
                    t.request.deadline
                    if t.request.deadline is not None
                    else math.inf,
                    t.request.priority,
                    t.request_id,
                )
            )
        else:
            live = list(tickets)
        if self.max_flush_blocks is None:
            return live, []
        admitted: list[Ticket] = []
        blocks = 0
        for i, t in enumerate(live):
            nb = t.request.batch.nb
            if blocks + nb > self.max_flush_blocks and admitted:
                return admitted, live[i:]
            admitted.append(t)
            blocks += nb
        return admitted, []

    def _chunks(self, tickets: list[Ticket]) -> list[list[Ticket]]:
        chunks: list[list[Ticket]] = []
        current: list[Ticket] = []
        blocks = 0
        for t in tickets:
            nb = t.request.batch.nb
            if current and blocks + nb > self.max_batch_blocks:
                chunks.append(current)
                current, blocks = [], 0
            current.append(t)
            blocks += nb
        if current:
            chunks.append(current)
        return chunks

    def _launch(
        self, chunk: list[Ticket], flush_id: int, now: float,
        rerun_after: float | None = None,
    ) -> None:
        """Factorize one merged chunk and scatter results back.

        ``rerun_after`` marks the re-run of a chunk's singular-free
        subset and carries the first launch's factor seconds."""
        req0 = chunk[0].request
        policy = req0.on_singular
        # under None/"raise" the solve kernels refuse a state holding
        # unresolved singular blocks, so factorize without a policy,
        # fail exactly the requests owning singular segments, and rerun
        # the healthy subset once (see _split_singular)
        effective_policy = None if policy in (None, "raise") else policy
        prior_seconds = 0.0 if rerun_after is None else rerun_after
        tr = get_tracer()
        lspan = None
        if tr.enabled:
            # the shared fan-in span: one launch serving many
            # requests, each recorded as a span *link* (they are
            # causes, not children - their lifetimes overlap freely)
            lspan = tr.begin(
                "serving.launch", cat="serving",
                flush_id=flush_id, requests=len(chunk),
                backend=self.runtime.backend.name,
                apply_mode=req0.apply_mode,
            )
            if rerun_after is not None:
                lspan.set(rerun=True)
            self._link_launch(lspan, chunk)
        try:
            t0 = PERF()
            cspan = (
                tr.begin("serving.coalesce", cat="serving")
                if tr.enabled
                else None
            )
            merged, segments = merge_batches(
                [t.request.batch for t in chunk]
            )
            if cspan is not None:
                tr.end(cspan, blocks=int(merged.nb))
            if lspan is not None:
                lspan.set(blocks=int(merged.nb))
            coalesced = (len(chunk), merged.nb)
            try:
                handle = self.runtime.factorize(
                    merged,
                    method=req0.method,
                    on_singular=effective_policy,
                    apply_mode=req0.apply_mode,
                )
            except Exception as err:
                factor_seconds = prior_seconds + (PERF() - t0)
                for t in chunk:
                    self._fail(
                        t, repr(err), flush_id, now,
                        factor_seconds=factor_seconds,
                        coalesced=coalesced,
                    )
                return
            factor_seconds = prior_seconds + (PERF() - t0)
            self.stats["executions"] += 1
            tainted = _tainted(self.runtime.last_report)
            live = list(zip(chunk, segments))
            if effective_policy is None:
                live = self._split_singular(
                    live, handle, flush_id, now, factor_seconds,
                    coalesced=coalesced,
                )
                if live and len(live) < len(chunk):
                    # healthy subset: re-merge and factorize once more so
                    # their solves (and cached handles) are usable
                    self._launch(
                        [t for t, _ in live], flush_id, now,
                        rerun_after=factor_seconds,
                    )
                    return
            if live:
                self._resolve_chunk(
                    live, handle, tainted, flush_id, now, factor_seconds,
                    coalesced=coalesced, launch=lspan,
                )
        finally:
            if lspan is not None:
                tr.end(lspan)

    @staticmethod
    def _link_launch(launch, tickets: list[Ticket]) -> None:
        """Fan-in: link the launch to the envelope of every request it
        serves, now or when the request's spans are written."""
        for t in tickets:
            if t.span is not None:
                launch.add_link(t.span)
            elif t.stamps is not None:
                t.stamps.launches.append(launch)

    def _split_singular(
        self, live, handle, flush_id, now, factor_seconds, coalesced
    ):
        """Fail requests whose segments hold singular blocks; return
        the healthy remainder."""
        healthy = []
        for t, seg in live:
            info = handle.info[seg]
            if np.any(info):
                self._fail(
                    t, "singular_blocks", flush_id, now,
                    factor_seconds=factor_seconds,
                    coalesced=coalesced,
                    info=np.ascontiguousarray(info),
                )
            else:
                healthy.append((t, seg))
        return healthy

    def _resolve_chunk(
        self, live, handle, tainted, flush_id, now, factor_seconds,
        coalesced, launch=None,
    ) -> None:
        """Build tenant views, cache them, answer solves, resolve."""
        tr = get_tracer()
        sspan = (
            tr.begin("serving.scatter", cat="serving", flush_id=flush_id)
            if tr.enabled
            else None
        )
        # stamps per traced delivery (see _write_deliveries)
        traced: list[tuple] = []
        try:
            self._scatter_back(
                live, handle, tainted, flush_id, now, factor_seconds,
                coalesced, launch, traced,
            )
        finally:
            # the reader of each request's tracer writes its spans
            by_tracer: dict = {}
            for row in traced:
                by_tracer.setdefault(row[1].tracer, []).append(row)
            for rtr, rows in by_tracer.items():
                tid = rtr.current_tid()
                rtr.defer(
                    lambda t, rows=rows, tid=tid: _write_deliveries(
                        t, rows, tid, flush_id, launch
                    )
                )
            if sspan is not None:
                tr.end(sspan)

    def _scatter_back(
        self, live, handle, tainted, flush_id, now, factor_seconds,
        coalesced, launch, traced,
    ) -> None:
        n_requests, n_blocks = coalesced
        self.stats["requests_executed"] += len(live)
        self.stats["blocks_executed"] += sum(
            seg.size for _, seg in live
        )
        get_metrics().histogram(
            "repro_serving_coalesced_requests",
            "Requests per merged factorization",
        ).observe(n_requests)
        get_metrics().histogram(
            "repro_serving_coalesced_blocks",
            "Blocks per merged factorization",
        ).observe(n_blocks)
        _observe_stage("factor", factor_seconds)
        views: list[TenantFactorization] = []
        for t, seg in live:
            req = t.request
            key = (
                self._tenant_key(req) if self.shards is not None else None
            )
            tfac = TenantFactorization(
                tenant=req.tenant,
                shared=handle,
                indices=seg,
                tile=req.batch.tile,
                sizes=req.batch.sizes.copy(),
                fingerprint=key,
            )
            views.append(tfac)
            if self.shards is not None and not tainted:
                self.shards.put(
                    req.tenant, key, tfac, nbytes=tfac.nbytes
                )
        # one merged solve answers every solving requester in the chunk
        solvers = [
            (t, seg, tfac)
            for (t, seg), tfac in zip(live, views)
            if t.request.kind == "solve"
        ]
        solutions: dict[int, BatchedVectors] = {}
        solve_seconds = 0.0
        solve_error: str | None = None
        if solvers:
            t0 = PERF()
            try:
                merged_rhs = merge_rhs(
                    handle.plan.source,
                    [(seg, t.request.rhs) for t, seg, _ in solvers],
                )
                merged_out = self.runtime.solve(handle, merged_rhs)
                for t, seg, tfac in solvers:
                    sliced = np.ascontiguousarray(
                        merged_out.data[seg, : tfac.tile]
                    )
                    solutions[id(t)] = BatchedVectors(
                        sliced, tfac.sizes.copy()
                    )
            except Exception as err:
                solve_error = repr(err)
            solve_seconds = PERF() - t0
            _observe_stage("solve", solve_seconds)
        slo = self.slo
        bound = self._latency_bound()
        latency_good: list[bool] = []  # SLO samples, fed in one batch
        deadline_hit: list[bool] = []
        delivered = self._clock()
        for (t, seg), tfac in zip(live, views):
            req = t.request
            queue_seconds = max(0.0, now - t.submitted_at)
            _observe_stage("queue", queue_seconds)
            if (
                self.scheduling == "edf"
                and req.deadline is not None
                and delivered > req.deadline
            ):
                # scatter-back audit: the answer exists but arrived
                # late - never deliver it past the deadline
                self.stats["late_deliveries_prevented"] += 1
                self._record(
                    "late_delivery_prevented", at=delivered,
                    tenant=req.tenant,
                    trace_id=req.trace_id, deadline=req.deadline,
                    observed=delivered,
                )
                self._shed_ticket(
                    t, "deadline_exceeded", now,
                    deadline=req.deadline, observed=delivered,
                    stage="delivery",
                )
                continue
            st = t.stamps
            if st is not None:
                dstart = st.tracer.now()
            resp = Response(
                tenant=req.tenant,
                kind=req.kind,
                status="ok",
                request_id=t.request_id,
                info=tfac.info,
                handle=tfac,
                coalesced_requests=n_requests,
                coalesced_blocks=n_blocks,
                flush_id=flush_id,
                queue_seconds=queue_seconds,
                factor_seconds=factor_seconds,
                solve_seconds=solve_seconds if req.kind == "solve" else 0.0,
                delivered_at=delivered,
                trace_id=req.trace_id,
            )
            if req.kind == "solve":
                sol = solutions.get(id(t))
                if sol is None:
                    resp.status = "failed"
                    resp.error = solve_error or "solve_failed"
                else:
                    resp.solution = sol
            if resp.status == "ok":
                self.stats["completed"] += 1
            else:
                self.stats["failed"] += 1
            _count_request(req.kind, resp.status)
            t.response = resp
            if slo is not None:
                latency_good.append(bound is None or queue_seconds <= bound)
                if req.deadline is not None:
                    deadline_hit.append(delivered <= req.deadline)
            if st is not None:
                traced.append((
                    t.request_id, st, t.span, dstart, st.tracer.now(),
                    resp.status,
                ))
                t.stamps = t.span = None
        if slo is not None:
            slo.record_many("admitted_latency", latency_good, delivered)
            slo.record_many("deadline_hit", deadline_hit, delivered)

    def _fail(
        self, ticket, error, flush_id, now, *, factor_seconds=0.0,
        coalesced=(0, 0), info=None,
    ) -> None:
        req = ticket.request
        queue_seconds = max(0.0, now - ticket.submitted_at)
        _observe_stage("queue", queue_seconds)
        ticket.response = Response(
            tenant=req.tenant,
            kind=req.kind,
            status="failed",
            request_id=ticket.request_id,
            info=info,
            error=error,
            coalesced_requests=coalesced[0],
            coalesced_blocks=coalesced[1],
            flush_id=flush_id,
            queue_seconds=queue_seconds,
            factor_seconds=factor_seconds,
            trace_id=req.trace_id,
        )
        self.stats["failed"] += 1
        _count_request(req.kind, "failed")
        self._record(
            "request_failed", at=now,
            tenant=req.tenant, trace_id=req.trace_id,
            error=error,
        )
        self._open_request_spans([ticket])
        ticket.stamps = None
        if ticket.queue_span is not None:
            ticket.queue_span.finish()
            ticket.queue_span = None
        if ticket.span is not None:
            ticket.span.finish(outcome="failed", error=error)
            ticket.span = None

    # -- immediate paths ---------------------------------------------------

    def apply(
        self, tenant: str, handle: TenantFactorization, rhs: BatchedVectors
    ) -> Response:
        """Apply a previously returned tenant handle to new right-hand
        sides - the repeated-apply half of the preconditioner life
        cycle, no queueing involved."""
        if self._closed:
            self.stats["rejected"]["not_running"] = (
                self.stats["rejected"].get("not_running", 0) + 1
            )
            _count_shed("not_running")
            _count_request("apply", "rejected")
            return Response(
                tenant=tenant,
                kind="apply",
                status="rejected",
                rejection=Rejection("not_running"),
            )
        if handle.tenant != tenant:
            self.stats["rejected"]["foreign_handle"] = (
                self.stats["rejected"].get("foreign_handle", 0) + 1
            )
            _count_shed("foreign_handle")
            _count_request("apply", "rejected")
            return Response(
                tenant=tenant,
                kind="apply",
                status="rejected",
                rejection=Rejection(
                    "foreign_handle",
                    {"owner": handle.tenant, "caller": tenant},
                ),
            )
        t0 = PERF()
        try:
            solution = handle.solve(rhs)
        except Exception as err:
            self.stats["failed"] += 1
            _count_request("apply", "failed")
            return Response(
                tenant=tenant, kind="apply", status="failed",
                error=repr(err),
            )
        seconds = PERF() - t0
        _observe_stage("apply", seconds)
        self.stats["applies"] += 1
        _count_request("apply", "ok")
        return Response(
            tenant=tenant,
            kind="apply",
            status="ok",
            info=handle.info,
            solution=solution,
            handle=handle,
            solve_seconds=seconds,
        )

    def close(self) -> int:
        """Stop admitting; pending jobs resolve as ``not_running``
        rejections.  Returns how many were shed."""
        with self._lock:
            self._closed = True
            stranded = self._pending
            self._pending = []
        now = self._clock()
        for t in stranded:
            self._shed_ticket(t, "not_running", now)
        self._gauge_depth(0)
        return len(stranded)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CoalescingEngine(pending={self.pending}, "
            f"max_pending={self.max_pending}, "
            f"max_batch_blocks={self.max_batch_blocks}, "
            f"ratio={self.coalescing_ratio:.2f})"
        )
