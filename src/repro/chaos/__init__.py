"""repro.chaos - deterministic fault injection for the runtime stack.

The resilience counterpart of :mod:`repro.verify`: where verify checks
that the kernels compute the *right* numbers, chaos checks that the
runtime keeps producing them (or fails loudly) when the execution
substrate misbehaves.  Three pieces:

* :mod:`~repro.chaos.faults` - seeded injector policies
  (raise-on-call, NaN/Inf factor corruption, solve-output corruption,
  artificial latency) and :func:`~repro.chaos.faults.poison_cache`;
* :mod:`~repro.chaos.backend` - :class:`ChaosBackend`, a drop-in
  :class:`~repro.runtime.backends.Backend` wrapper that drives the
  injectors deterministically around every runtime call;
* :mod:`~repro.chaos.scenarios` - the end-to-end sweep
  (:func:`run_chaos_suite`) behind ``python -m repro verify --chaos``
  and the ``chaos-smoke`` CI job.

Entry point::

    from repro.chaos import ChaosBackend, RaiseInjector
    from repro.runtime import BatchRuntime
    from repro.runtime.backends import get_backend

    chaos = ChaosBackend(
        get_backend("binned"), [RaiseInjector("factorize")], seed=0
    )
    rt = BatchRuntime(backend=chaos, resilient=True)
    fac = rt.factorize(batch)      # survives; events on rt.last_report
"""

from .backend import ChaosBackend
from .faults import (
    CorruptBinsInjector,
    CorruptSolveInjector,
    FaultEvent,
    InjectedFault,
    Injector,
    LatencyInjector,
    RaiseInjector,
    collect_float_arrays,
    poison_cache,
)
from .scenarios import ChaosReport, ChaosScenarioResult, run_chaos_suite

__all__ = [
    "ChaosBackend",
    "ChaosReport",
    "ChaosScenarioResult",
    "CorruptBinsInjector",
    "CorruptSolveInjector",
    "FaultEvent",
    "InjectedFault",
    "Injector",
    "LatencyInjector",
    "RaiseInjector",
    "collect_float_arrays",
    "poison_cache",
    "run_chaos_suite",
]
