"""Asyncio front end of the preconditioner service.

:class:`PreconditionerService` wraps the synchronous, deterministic
:class:`~repro.serving.engine.CoalescingEngine` with an event loop:
concurrent clients ``await submit(...)`` and the service decides *when*
to flush - immediately once the pending work reaches ``flush_blocks``
merged blocks, or after ``max_delay`` seconds of linger, whichever
comes first.  The linger window is the coalescing opportunity: requests
arriving within it share one merged factorization.

All numeric work (the flush, applies) runs in a worker thread via
``asyncio.to_thread`` so the event loop keeps admitting requests while
a merged batch factorizes; the engine's internal lock makes the
pending-queue handoff safe.  Determinism lives in the engine - the
service adds *scheduling*, and every scheduling decision (flush
trigger, shed, rejection) is observable through the engine's stats and
the telemetry registry.

Tracing: ``asyncio.to_thread`` copies the caller's ``contextvars``
context into the worker thread, and the tracer's span stack lives in
exactly that context - so the engine's ``serving.flush`` span parents
under the service-level ``serving.service.flush`` span even though
the two run on different threads.  (The tracer's old thread-local
stack silently dropped this parent edge; the regression test in
``tests/serving/test_trace_propagation.py`` pins the fix.)
"""

from __future__ import annotations

import asyncio

from ..core.batch import BatchedVectors
from ..telemetry.tracer import get_tracer
from .coalesce import TenantFactorization
from .engine import CoalescingEngine
from .requests import Request, Response

__all__ = ["PreconditionerService"]


class PreconditionerService:
    """Async request front end over a coalescing engine.

    Parameters
    ----------
    engine:
        The synchronous core (default: a fresh
        :class:`~repro.serving.engine.CoalescingEngine`).
    max_delay:
        Linger seconds before a flush fires for a non-full batch.
    flush_blocks:
        Pending-block threshold that triggers an immediate flush
        (default: the engine's ``max_batch_blocks`` - flush as soon as
        one merged chunk is full).
    """

    def __init__(
        self,
        engine: CoalescingEngine | None = None,
        *,
        max_delay: float = 0.005,
        flush_blocks: int | None = None,
    ):
        self.engine = CoalescingEngine() if engine is None else engine
        self.max_delay = float(max_delay)
        self.flush_blocks = (
            self.engine.max_batch_blocks
            if flush_blocks is None
            else int(flush_blocks)
        )
        self._waiters: list[tuple[object, asyncio.Future]] = []
        self._pending_blocks = 0
        self._timer: asyncio.TimerHandle | None = None
        self._flush_lock = asyncio.Lock()
        self._stopped = False

    async def __aenter__(self) -> PreconditionerService:
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- submission --------------------------------------------------------

    async def submit(self, req: Request) -> Response:
        """Admit one job and await its outcome.

        Resolves immediately for rejections and tenant-cache hits;
        queued jobs resolve when the linger timer or the block
        threshold triggers a flush.
        """
        if self._stopped:
            return self.engine._reject(req, "not_running").response
        ticket = self.engine.submit(req)
        if ticket.done:
            return ticket.response
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        self._waiters.append((ticket, fut))
        self._pending_blocks += req.batch.nb
        if self._pending_blocks >= self.flush_blocks:
            self._arm_now(loop)
        elif self._timer is None:
            self._timer = loop.call_later(
                self.max_delay, self._arm_now, loop
            )
        return await fut

    async def apply(
        self,
        tenant: str,
        handle: TenantFactorization,
        rhs: BatchedVectors,
    ) -> Response:
        """Apply a tenant handle to new right-hand sides off-loop."""
        return await asyncio.to_thread(self.engine.apply, tenant, handle, rhs)

    # -- flushing ----------------------------------------------------------

    def _arm_now(self, loop: asyncio.AbstractEventLoop) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        loop.create_task(self.flush())

    async def flush(self) -> int:
        """Flush the engine off-loop and resolve waiting submitters.
        Returns how many waiters resolved (idempotent when empty)."""
        async with self._flush_lock:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            self._pending_blocks = 0
            tr = get_tracer()
            span = (
                tr.begin("serving.service.flush", cat="serving")
                if tr.enabled
                else None
            )
            resolved = 0
            try:
                if self.engine.pending:
                    # to_thread copies this context, so the engine's
                    # flush span parents under ``span`` cross-thread
                    await asyncio.to_thread(self.engine.flush)
                resolved = self._resolve_waiters()
            finally:
                if span is not None:
                    tr.end(span, resolved=resolved)
            return resolved

    def _resolve_waiters(self) -> int:
        resolved = 0
        still_waiting = []
        for ticket, fut in self._waiters:
            if ticket.done:
                if not fut.done():
                    fut.set_result(ticket.response)
                resolved += 1
            else:  # pragma: no cover - ticket from a yet-unflushed race
                still_waiting.append((ticket, fut))
        self._waiters = still_waiting
        return resolved

    async def stop(self) -> int:
        """Stop admitting, shed the pending queue (``not_running``),
        and resolve every waiter.  Returns how many jobs were shed."""
        self._stopped = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        shed = self.engine.close()
        self._resolve_waiters()
        return shed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PreconditionerService(engine={self.engine!r}, "
            f"max_delay={self.max_delay}, flush_blocks={self.flush_blocks})"
        )
