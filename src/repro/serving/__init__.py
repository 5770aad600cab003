"""repro.serving: the preconditioner-as-a-service layer.

Many concurrent clients, each with a small batch of diagonal blocks,
served by one :class:`~repro.runtime.BatchRuntime`: admission control
with structured load-shedding, cross-request batch coalescing into
shared warp-tile bins (the paper's launch amortization applied across
requests), per-tenant sharded factorization caches with TTL and byte
budgets, and an asyncio front end.  The synchronous core
(:class:`CoalescingEngine`) is fully deterministic under injected
clocks; :class:`PreconditionerService` adds event-loop scheduling
around it.

Overload control: :mod:`repro.serving.overload` supplies per-tenant
token-bucket quotas and CoDel-style adaptive shedding; the engine's ``scheduling="edf"`` mode orders each
flush earliest-deadline-first and guarantees no response is ever
delivered past its deadline.  :class:`ClosedLoopClient` is the
matching client discipline (exponential backoff with seeded jitter,
``Retry-After`` hints honored, optional hedging).
"""

from .coalesce import TenantFactorization, merge_batches, merge_rhs
from .engine import SCHEDULING_MODES, CoalescingEngine
from .loadgen import (
    ClientPolicy,
    ClosedLoopClient,
    LoadProfile,
    ScriptedClock,
    backoff_delay,
    generate_load,
)
from .overload import (
    CoDelShedder,
    OverloadController,
    TenantQuotas,
    TokenBucket,
)
from .requests import (
    JOB_KINDS,
    REJECT_REASONS,
    Rejection,
    Request,
    Response,
    Ticket,
)
from .service import PreconditionerService
from .shards import TenantCacheShards

__all__ = [
    "JOB_KINDS",
    "REJECT_REASONS",
    "SCHEDULING_MODES",
    "ClientPolicy",
    "ClosedLoopClient",
    "CoDelShedder",
    "CoalescingEngine",
    "LoadProfile",
    "OverloadController",
    "PreconditionerService",
    "Rejection",
    "Request",
    "Response",
    "ScriptedClock",
    "TenantCacheShards",
    "TenantFactorization",
    "Ticket",
    "TokenBucket",
    "TenantQuotas",
    "backoff_delay",
    "generate_load",
    "merge_batches",
    "merge_rhs",
]
