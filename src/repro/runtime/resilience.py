"""Resilience primitives for the batch runtime.

The serving scenario of the ROADMAP cannot afford the historical
failure mode of :class:`~repro.runtime.executor.BatchRuntime`: one
raising backend call (a broken extension, an injected fault from
:mod:`repro.chaos`) aborted the whole
``factorize`` even when every other size bin was healthy.  This module
provides the three mechanisms the executor composes into a survivable
pipeline:

* :class:`CircuitBreaker` / :class:`BreakerBoard` - per-backend
  consecutive-failure tracking with an open/half-open/closed state
  machine, so a persistently failing backend is skipped outright for a
  cooldown period instead of being retried (and timed out) on every
  request;
* :func:`spot_check_factorization` - a backend-agnostic corruption
  probe: solve the factorization against an all-ones right-hand side
  and flag blocks that produce non-finite output despite a clean
  ``info``.  Healthy factors of finite blocks always yield finite
  solutions, so a flagged block proves the *stored factors* (not the
  input) are damaged - exactly what NaN-corruption faults look like;
* :func:`single_bin_plan` / :class:`BinExecution` /
  :class:`CompositeBinBackend` - the quarantine machinery: a failing or
  corrupted size bin is re-executed in isolation (first on the primary
  backend, then on the reference ``numpy`` backend) while healthy bins
  keep their fast path, and the per-bin results answer solves through
  one composite state.

Everything here is policy-free bookkeeping; the executor decides when
to engage which mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..clock import MONOTONIC
from ..core.batch import BatchedMatrices, BatchedVectors
from ..obs.flight import record_flight
from .backends import Backend
from .planner import BinPlan, ExecutionPlan

__all__ = [
    "BinExecution",
    "BreakerBoard",
    "CircuitBreaker",
    "CompositeBinBackend",
    "RuntimeExecutionError",
    "single_bin_plan",
    "spot_check_factorization",
]


class RuntimeExecutionError(RuntimeError):
    """Every execution avenue (chain, quarantine) failed for a batch."""


# -- circuit breaker ---------------------------------------------------------


class CircuitBreaker:
    """Consecutive-failure circuit breaker for one backend.

    States:

    ``closed``
        Normal operation; every call is allowed.
    ``open``
        ``failure_threshold`` consecutive failures tripped the breaker;
        calls are rejected until ``cooldown_seconds`` have elapsed.
    ``half_open``
        The cooldown expired; one probe call is allowed.  Success
        closes the breaker, failure re-opens it with a fresh cooldown.

    ``clock`` is injectable (monotonic seconds) so tests can step time
    deterministically.
    """

    def __init__(
        self,
        name: str,
        failure_threshold: int = 3,
        cooldown_seconds: float = 30.0,
        clock=MONOTONIC,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be positive, got {failure_threshold}"
            )
        self.name = name
        self.failure_threshold = int(failure_threshold)
        self.cooldown_seconds = float(cooldown_seconds)
        self._clock = clock
        self._consecutive = 0
        self._opened_at: float | None = None
        self.failures = 0
        self.successes = 0
        self.rejections = 0
        self.trips = 0

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.cooldown_seconds:
            return "half_open"
        return "open"

    def allow(self) -> bool:
        """Whether a call may proceed right now (rejections counted)."""
        if self.state == "open":
            self.rejections += 1
            return False
        return True  # closed, or the half-open probe

    def record_success(self) -> None:
        self.successes += 1
        self._consecutive = 0
        if self._opened_at is not None:
            # the half-open probe succeeded: the breaker closes
            record_flight(
                "breaker_closed", backend=self.name, trips=self.trips,
            )
        self._opened_at = None

    def record_failure(self) -> None:
        self.failures += 1
        self._consecutive += 1
        if self._opened_at is not None:
            # failed the half-open probe: re-open with a fresh cooldown
            self._opened_at = self._clock()
            self.trips += 1
            record_flight(
                "breaker_tripped", backend=self.name, trips=self.trips,
                probe_failed=True,
            )
        elif self._consecutive >= self.failure_threshold:
            self._opened_at = self._clock()
            self.trips += 1
            record_flight(
                "breaker_tripped", backend=self.name, trips=self.trips,
                consecutive=self._consecutive,
            )

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "failures": self.failures,
            "successes": self.successes,
            "rejections": self.rejections,
            "trips": self.trips,
            "consecutive_failures": self._consecutive,
            "failure_threshold": self.failure_threshold,
            "cooldown_seconds": self.cooldown_seconds,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CircuitBreaker({self.name!r}, state={self.state!r}, "
            f"failures={self.failures})"
        )


class BreakerBoard:
    """Lazily-created circuit breakers, one per backend name."""

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_seconds: float = 30.0,
        clock=MONOTONIC,
    ):
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self._breakers: dict[str, CircuitBreaker] = {}

    def breaker(self, name: str) -> CircuitBreaker:
        try:
            return self._breakers[name]
        except KeyError:
            b = CircuitBreaker(
                name,
                failure_threshold=self.failure_threshold,
                cooldown_seconds=self.cooldown_seconds,
                clock=self._clock,
            )
            self._breakers[name] = b
            return b

    def snapshot(self) -> dict[str, dict]:
        return {
            name: b.snapshot() for name, b in sorted(self._breakers.items())
        }


# -- corruption probe --------------------------------------------------------


def spot_check_factorization(
    backend: Backend,
    state: object,
    plan: ExecutionPlan,
    info: np.ndarray,
) -> np.ndarray:
    """Flag corrupted blocks of a factorization, source block order.

    Solves the stored factors against an all-ones right-hand side: a
    block whose ``info`` is clean must produce a finite solution (the
    factors of a finite invertible block are finite, and forward/back
    substitution of finite data is finite).  Non-finite output on a
    clean block therefore proves the stored factors are damaged.

    A state carrying unresolved singular blocks (nonzero ``info``, no
    substitution in force) is exempt as a whole: the solve kernels
    *document* refusing such states, so the probe cannot distinguish a
    semantic refusal from corruption - and flagging one would mask the
    semantic outcome behind a quarantine.  A solve that *raises* on a
    fully-clean state flags every block (the state is unusable).
    """
    src = plan.source
    if src.nb == 0 or np.any(info):
        return np.zeros(src.nb, dtype=bool)
    rhs = BatchedVectors(
        np.ones((src.nb, src.tile), dtype=np.float64), src.sizes.copy()
    )
    try:
        with np.errstate(all="ignore"):
            sol = backend.solve(state, plan, rhs)
    except Exception:
        return info == 0
    mask = np.arange(src.tile)[None, :] < src.sizes[:, None]
    finite = np.isfinite(np.where(mask, sol.data, 0.0)).all(axis=1)
    return (~finite) & (info == 0)


# -- bin-level quarantine ----------------------------------------------------


def single_bin_plan(outer: ExecutionPlan, b: BinPlan) -> ExecutionPlan:
    """A standalone plan executing exactly one bin of ``outer``.

    Rebuilt from the pristine source batch (backends destroy the bin
    batches of a plan they execute), so the same bin can be retried any
    number of times.  The inner plan's source *is* the repacked
    sub-batch; its single bin carries a fresh copy for backends that
    overwrite.
    """
    src = outer.source
    sub = BatchedMatrices(
        np.ascontiguousarray(src.data[b.indices, : b.tile, : b.tile]),
        src.sizes[b.indices].copy(),
    )
    inner = ExecutionPlan(source=sub)
    inner.bins.append(
        BinPlan(
            nominal_tile=b.nominal_tile,
            tile=b.tile,
            indices=np.arange(b.nb, dtype=np.int64),
            batch=sub.copy(),
        )
    )
    return inner


@dataclass
class BinExecution:
    """One bin's factorization inside a composite (quarantined) state.

    ``backend`` owns ``state`` and answers this bin's solves against
    ``plan`` (a :func:`single_bin_plan`).  ``quarantined`` marks bins
    that had to be retried on the reference backend; ``attempts``
    records how many executions the bin consumed.
    """

    backend: Backend
    plan: ExecutionPlan
    state: object
    info: np.ndarray
    degradation: object | None = None
    quarantined: bool = False
    attempts: int = 1
    errors: list[str] = field(default_factory=list)


class CompositeBinBackend(Backend):
    """Solve router for per-bin composite factorizations.

    Holds no state of its own: the composite state is the list of
    :class:`BinExecution` entries produced by the executor's quarantine
    pass.  ``solve`` splits the right-hand sides along the outer plan's
    bins, dispatches each to the backend that factorized that bin, and
    merges the solutions back into source order - the same contract as
    any single backend.
    """

    name = "composite"

    def factorize(self, plan, method="lu", on_singular=None):
        raise NotImplementedError(
            "composite states are assembled by the executor's quarantine "
            "pass, not factorized directly"
        )

    def solve(self, state, plan, rhs):
        execs: list[BinExecution] = state
        if len(execs) != len(plan.bins):
            raise ValueError(
                f"composite state has {len(execs)} bin(s), plan has "
                f"{len(plan.bins)}"
            )
        per_bin = plan.split_rhs(rhs)
        sols = []
        for ex, r in zip(execs, per_bin):
            sols.append(ex.backend.solve(ex.state, ex.plan, r))
        return plan.merge_solutions(sols)

    def bin_stats(self, plan, method):
        from .backends import _binned_stats

        return _binned_stats(plan, method)


#: shared stateless router instance used by the executor
COMPOSITE_BACKEND = CompositeBinBackend()
