"""repro.runtime - the execution subsystem between kernels and callers.

Its parts (see DESIGN.md, "Runtime"):

* :mod:`~repro.runtime.planner` - size-binned execution planning of
  variable-size batches at the paper's warp-tile ladder (4/8/16/32),
  with stable scatter/gather maps back to the source block order;
* :mod:`~repro.runtime.backends` - the pluggable backend registry
  (``binned``, ``numpy``, ``scipy``), one
  ``factorize(plan)/solve(plan, rhs)`` protocol, cross-checkable via
  :mod:`repro.verify`;
* :mod:`~repro.runtime.cache` - the content-fingerprinted LRU/TTL
  cache the serving layer's per-tenant shards store handles in (the
  runtime itself keeps no cache);
* :mod:`~repro.runtime.stats` - per-stage wall time and per-bin
  padding-waste instrumentation (:class:`RuntimeReport`);
* :mod:`~repro.runtime.resilience` - circuit breakers, the corruption
  spot check, and the bin-level quarantine machinery behind the
  executor's fallback chain (see DESIGN.md, "Resilience").

Entry point::

    from repro.runtime import BatchRuntime

    rt = BatchRuntime(backend="binned")       # the default
    fac = rt.factorize(batch, method="lu")    # planned and binned
    x = fac.solve(rhs)
    print(rt.last_report.summary())
"""

from .autotune import ApplyModeTuning, BinTuning, tune_apply_mode
from .backends import (
    BACKENDS,
    Backend,
    BackendFactorization,
    BackendInverse,
    available_backends,
    get_backend,
    register_backend,
)
from .cache import CacheStats, FactorizationCache, batch_fingerprint
from .executor import APPLY_MODES, BatchRuntime, RuntimeFactorization
from .planner import DEFAULT_BINS, BinPlan, ExecutionPlan, plan_batch
from .resilience import (
    BreakerBoard,
    CircuitBreaker,
    CompositeBinBackend,
    RuntimeExecutionError,
    spot_check_factorization,
)
from .stats import BinStats, RuntimeReport

__all__ = [
    "APPLY_MODES",
    "ApplyModeTuning",
    "BACKENDS",
    "Backend",
    "BackendFactorization",
    "BackendInverse",
    "BatchRuntime",
    "BinTuning",
    "BinPlan",
    "BinStats",
    "BreakerBoard",
    "CacheStats",
    "CircuitBreaker",
    "CompositeBinBackend",
    "DEFAULT_BINS",
    "ExecutionPlan",
    "FactorizationCache",
    "RuntimeExecutionError",
    "RuntimeFactorization",
    "RuntimeReport",
    "available_backends",
    "batch_fingerprint",
    "get_backend",
    "plan_batch",
    "register_backend",
    "spot_check_factorization",
    "tune_apply_mode",
]
