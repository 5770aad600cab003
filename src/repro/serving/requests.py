"""Request/response vocabulary of the preconditioner service.

Clients talk to the serving layer in *jobs*: a ``setup`` job carries a
batch of small diagonal blocks and asks for their factorization; a
``solve`` job additionally carries right-hand sides and asks for the
solutions in one round trip; an ``apply`` job re-uses a handle returned
by an earlier setup.  Every job is tagged with a ``tenant`` - the
isolation unit for caching, accounting and fault containment.

Admission can refuse a job instead of queueing it; the refusal is a
*structured* :class:`Rejection` (machine-readable reason + detail), not
an exception string, so load-shedding clients can react (back off,
re-route, downgrade) without parsing text.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..clock import MONOTONIC
from ..core.batch import BatchedMatrices, BatchedVectors
from ..core.degradation import OnSingular

__all__ = [
    "JOB_KINDS",
    "REJECT_REASONS",
    "Rejection",
    "Request",
    "Response",
    "Ticket",
]

#: what a request asks for
JOB_KINDS = ("setup", "solve")

#: structured admission/shedding reasons
REJECT_REASONS = (
    "queue_full",              # pending queue at max_pending depth
    "batch_too_large",         # request nb exceeds max_batch_blocks
    "circuit_open",            # the runtime's primary breaker is open
    "invalid_request",         # malformed job (geometry, bad kind)
    "foreign_handle",          # apply with a handle another tenant owns
    "not_running",             # service stopped / engine closed
    "deadline_exceeded",       # past its deadline (admission, queue
                               # expiry, or the delivery audit)
    "tenant_quota_exceeded",   # tenant over its token-bucket fair share
    "overloaded",              # CoDel-style adaptive shed: sustained
                               # queue sojourn above target
)


@dataclass(frozen=True)
class Rejection:
    """Why a job was refused admission (structured, not prose).

    ``retry_after`` is the server's ``Retry-After``-style hint in
    seconds: how long the client should stay away before the shed
    condition can clear (token-bucket refill time, CoDel drop
    interval).  None means "no point retrying on a timer" (malformed
    jobs, missed deadlines, stopped service).
    """

    reason: str
    detail: dict = field(default_factory=dict)
    retry_after: float | None = None
    trace_id: str | None = None

    def __post_init__(self):
        if self.reason not in REJECT_REASONS:
            raise ValueError(
                f"unknown rejection reason {self.reason!r}; expected one "
                f"of {REJECT_REASONS}"
            )

    def to_dict(self) -> dict:
        return {
            "reason": self.reason,
            "detail": dict(self.detail),
            "retry_after": self.retry_after,
            "trace_id": self.trace_id,
        }


@dataclass
class Request:
    """One job submitted to the serving layer.

    ``batch`` holds the tenant's diagonal blocks (identity padded, as
    everywhere in :mod:`repro.core`); ``rhs`` is required exactly for
    ``kind="solve"``.  ``method``/``on_singular``/``apply_mode`` follow
    the :class:`~repro.runtime.BatchRuntime` conventions - jobs that
    share all three (and the batch dtype) may be coalesced into one
    factorization.

    ``deadline`` is an *absolute* time in the engine's clock domain
    (the same ``clock=`` the engine was built with); a job past it is
    shed (``deadline_exceeded``) rather than served late - at
    admission, at flush time, and again at scatter-back.  ``priority``
    breaks earliest-deadline-first ties: lower value = more urgent
    (priority 0 beats priority 5).  Neither field affects
    :attr:`coalesce_key` - urgency changes *when* a job runs, never
    *what* it may merge with.
    """

    tenant: str
    batch: BatchedMatrices
    kind: str = "solve"
    rhs: BatchedVectors | None = None
    method: str = "lu"
    on_singular: OnSingular | None = None
    apply_mode: str = "factor"
    deadline: float | None = None
    priority: int = 0
    #: request-scoped trace context: minted at construction unless the
    #: client supplies its own (distributed-tracing hand-off); carried
    #: on every span, response, rejection and flight-recorder event
    #: this job touches, and over the wire in every ``to_dict``.
    trace_id: str | None = None

    def __post_init__(self):
        if self.trace_id is None:
            self.trace_id = uuid.uuid4().hex[:16]

    def validate(self) -> str | None:
        """None when well-formed, else a human-readable problem."""
        if self.kind not in JOB_KINDS:
            return f"unknown kind {self.kind!r}; expected one of {JOB_KINDS}"
        if self.kind == "solve":
            if self.rhs is None:
                return "solve jobs require rhs"
            if (
                self.rhs.nb != self.batch.nb
                or self.rhs.tile != self.batch.tile
            ):
                return (
                    f"rhs geometry ({self.rhs.nb}, {self.rhs.tile}) does "
                    f"not match the batch ({self.batch.nb}, "
                    f"{self.batch.tile})"
                )
        elif self.rhs is not None:
            return "setup jobs do not take rhs"
        return None

    @property
    def coalesce_key(self) -> tuple:
        """Jobs with equal keys may share one merged factorization."""
        return (
            self.method,
            self.on_singular,
            self.apply_mode,
            self.batch.dtype.str,
        )

    def to_dict(self) -> dict:
        """Loggable summary (geometry + scheduling metadata, never the
        block data itself)."""
        return {
            "tenant": self.tenant,
            "kind": self.kind,
            "nb": int(self.batch.nb),
            "tile": int(self.batch.tile),
            "method": self.method,
            "on_singular": self.on_singular,
            "apply_mode": self.apply_mode,
            "deadline": (
                None if self.deadline is None else float(self.deadline)
            ),
            "priority": int(self.priority),
            "trace_id": self.trace_id,
        }


@dataclass
class Response:
    """Outcome of one job, whatever path it took.

    ``status`` is one of ``"ok"``, ``"rejected"``, ``"failed"``.  For
    accepted jobs, ``info`` carries the per-block factorization status
    in the *requester's* block order (bit-identical to a solo run of
    the same batch, however the job was co-batched), ``solution`` the
    solutions for solve jobs, and ``handle`` a tenant-owned
    factorization for later ``apply`` calls.  ``coalesced_requests`` /
    ``coalesced_blocks`` describe the merged execution that served the
    job (1 / own-nb when it ran alone); the ``*_seconds`` stages feed
    the SLO histograms.
    """

    tenant: str
    kind: str
    status: str
    request_id: int = -1
    info: np.ndarray | None = None
    solution: BatchedVectors | None = None
    handle: Any = None
    error: str | None = None
    rejection: Rejection | None = None
    cache_hit: bool = False
    coalesced_requests: int = 0
    coalesced_blocks: int = 0
    flush_id: int = -1
    queue_seconds: float = 0.0
    factor_seconds: float = 0.0
    solve_seconds: float = 0.0
    #: engine-clock time the response was resolved (None for
    #: rejections); the deadline audit guarantees delivered_at <=
    #: request.deadline on every ok response under EDF scheduling
    delivered_at: float | None = None
    #: echoes the request's trace context so a response/log line joins
    #: back to its spans and flight-recorder events
    trace_id: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        from ..telemetry.serialize import to_native

        return to_native(
            {
                "tenant": self.tenant,
                "kind": self.kind,
                "status": self.status,
                "request_id": self.request_id,
                "info": None if self.info is None else self.info,
                "error": self.error,
                "rejection": (
                    None if self.rejection is None
                    else self.rejection.to_dict()
                ),
                "cache_hit": self.cache_hit,
                "coalesced_requests": self.coalesced_requests,
                "coalesced_blocks": self.coalesced_blocks,
                "flush_id": self.flush_id,
                "queue_seconds": self.queue_seconds,
                "factor_seconds": self.factor_seconds,
                "solve_seconds": self.solve_seconds,
                "delivered_at": self.delivered_at,
                "trace_id": self.trace_id,
            }
        )


@dataclass
class Ticket:
    """Handle on a submitted job: resolved at admission (cache hits,
    rejections) or at the flush that executed it."""

    request: Request
    request_id: int
    submitted_at: float = field(default_factory=MONOTONIC)
    response: Response | None = None
    #: per-request tracing (engine-internal; tracing enabled only):
    #: ``stamps`` are taken as the job moves through the engine, and
    #: its spans are written from them when the trace is read.  A job
    #: that stays queued past a flush, or is shed or failed, gets them
    #: written at once: ``span`` is then the open detached request
    #: envelope and ``queue_span`` its open in-queue wait child.
    #: Never serialized.
    span: Any = field(default=None, repr=False, compare=False)
    queue_span: Any = field(default=None, repr=False, compare=False)
    stamps: Any = field(default=None, repr=False, compare=False)

    @property
    def done(self) -> bool:
        return self.response is not None

    @property
    def trace_id(self) -> str | None:
        return self.request.trace_id

    def to_dict(self) -> dict:
        return {
            "request": self.request.to_dict(),
            "request_id": self.request_id,
            "trace_id": self.trace_id,
            "submitted_at": float(self.submitted_at),
            "done": self.done,
            "response": (
                None if self.response is None else self.response.to_dict()
            ),
        }
