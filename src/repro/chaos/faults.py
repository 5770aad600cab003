"""Deterministic fault injectors for the batch runtime.

Every injector is a small policy object with four hooks around a
backend call (:class:`~repro.chaos.backend.ChaosBackend` drives them):

* ``before_factorize`` / ``before_solve`` may raise
  :class:`InjectedFault` (an execution fault the resilient runtime is
  expected to survive) or stall the call (latency);
* ``after_factorize`` / ``after_solve`` may corrupt the produced
  state/output in place (a *silent* fault the runtime must detect
  itself via the spot check - the whole point of the chaos suite).

Hooks draw randomness only from the :class:`numpy.random.Generator`
they are handed - the wrapper derives one child generator per injector
from its seed, so a given ``(seed, injector list)`` replays the exact
same fault sequence every run.  A triggered hook returns a
:class:`FaultEvent` (raising hooks attach it to the exception); the
wrapper records them all.

:func:`poison_cache` is the odd one out: it attacks a tenant's
:class:`~repro.runtime.cache.FactorizationCache` shard directly,
corrupting the factors of stored handles in place so a cache hit has
to be answered by the resilient handle's reference solve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.batch import BatchedMatrices, BatchedVectors

__all__ = [
    "CorruptBinsInjector",
    "CorruptSolveInjector",
    "FaultEvent",
    "InjectedFault",
    "Injector",
    "LatencyInjector",
    "RaiseInjector",
    "collect_float_arrays",
    "poison_cache",
]


@dataclass
class FaultEvent:
    """One injected fault: who fired, where, and what it did."""

    injector: str
    stage: str  # "factorize" | "solve"
    call: int  # wrapper call counter at injection time
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "injector": self.injector,
            "stage": self.stage,
            "call": self.call,
            "detail": dict(self.detail),
        }


class InjectedFault(RuntimeError):
    """A deliberately injected execution fault.

    Distinguishable from organic failures by type so tests can assert
    the resilient runtime survived *this* exception specifically.
    Carries the :class:`FaultEvent` that describes it.
    """

    def __init__(self, message: str, event: FaultEvent):
        super().__init__(message)
        self.event = event


class Injector:
    """Base injector: all hooks are no-ops; subclasses override some.

    Hooks return a :class:`FaultEvent` when they fired (None
    otherwise) or raise :class:`InjectedFault`.  ``call`` is the
    wrapper's call counter, usable as a deterministic schedule axis on
    top of the rng.
    """

    name = "noop"

    def before_factorize(
        self, rng: np.random.Generator, call: int, plan, method: str
    ) -> FaultEvent | None:
        return None

    def after_factorize(
        self, rng: np.random.Generator, call: int, plan, method: str, result
    ) -> FaultEvent | None:
        return None

    def before_solve(
        self, rng: np.random.Generator, call: int, plan, rhs
    ) -> FaultEvent | None:
        return None

    def after_solve(
        self, rng: np.random.Generator, call: int, plan, rhs, out
    ) -> FaultEvent | None:
        return None


class RaiseInjector(Injector):
    """Raise :class:`InjectedFault` before the wrapped call.

    ``rate`` is the per-call trigger probability (1.0 = always);
    ``stage`` selects factorize or solve calls.
    """

    def __init__(self, stage: str = "factorize", rate: float = 1.0):
        if stage not in ("factorize", "solve"):
            raise ValueError(f"unknown stage {stage!r}")
        self.stage = stage
        self.rate = float(rate)
        self.name = f"raise[{stage}]"

    def _maybe_raise(self, rng, call, stage):
        if stage != self.stage or rng.random() >= self.rate:
            return None
        event = FaultEvent(self.name, stage, call, {"rate": self.rate})
        raise InjectedFault(
            f"injected {stage} fault (call {call})", event
        )

    def before_factorize(self, rng, call, plan, method):
        return self._maybe_raise(rng, call, "factorize")

    def before_solve(self, rng, call, plan, rhs):
        return self._maybe_raise(rng, call, "solve")


class LatencyInjector(Injector):
    """Stall the wrapped call by a fixed number of seconds.

    Models a slow device/queue rather than a hard failure: the call
    still succeeds, only the stage wall time inflates (visible in
    ``RuntimeReport.stage_seconds``).
    """

    def __init__(
        self,
        stage: str = "factorize",
        seconds: float = 0.002,
        rate: float = 1.0,
    ):
        if stage not in ("factorize", "solve"):
            raise ValueError(f"unknown stage {stage!r}")
        self.stage = stage
        self.seconds = float(seconds)
        self.rate = float(rate)
        self.name = f"latency[{stage}]"

    def _maybe_sleep(self, rng, call, stage):
        if stage != self.stage or rng.random() >= self.rate:
            return None
        time.sleep(self.seconds)
        return FaultEvent(
            self.name, stage, call, {"seconds": self.seconds}
        )

    def before_factorize(self, rng, call, plan, method):
        return self._maybe_sleep(rng, call, "factorize")

    def before_solve(self, rng, call, plan, rhs):
        return self._maybe_sleep(rng, call, "solve")


def collect_float_arrays(obj: Any, max_depth: int = 6) -> list[np.ndarray]:
    """All float ndarrays reachable from a backend state object.

    Walks tuples/lists/dicts, batch containers and factors dataclasses
    (anything with ``__dict__``), collecting writable floating-point
    arrays - the LU/GH/Cholesky factors, never the integer ``perm``/
    ``info`` bookkeeping.  This is what a bit-flip in device memory can
    hit, so it is what the corruption injectors target.
    """
    out: list[np.ndarray] = []
    seen: set[int] = set()

    def walk(node, depth):
        if depth < 0 or node is None or id(node) in seen:
            return
        seen.add(id(node))
        if isinstance(node, np.ndarray):
            if node.dtype.kind == "f" and node.size:
                out.append(node)
            return
        if isinstance(node, (BatchedMatrices, BatchedVectors)):
            walk(node.data, depth - 1)
            return
        if isinstance(node, (tuple, list)):
            for item in node:
                walk(item, depth - 1)
            return
        if isinstance(node, dict):
            for item in node.values():
                walk(item, depth - 1)
            return
        if isinstance(node, (str, bytes, int, float, bool)):
            return
        attrs = getattr(node, "__dict__", None)
        if attrs:
            for item in attrs.values():
                walk(item, depth - 1)

    walk(obj, max_depth)
    return out


def _corrupt_arrays(
    arrays: list[np.ndarray], rng: np.random.Generator, mode: str
) -> list[dict]:
    """Overwrite one element of each array with NaN/Inf; returns what
    was hit (array index, flat position, value)."""
    bad = np.nan if mode == "nan" else np.inf
    hits = []
    for ai, arr in enumerate(arrays):
        flat = arr.reshape(-1)
        pos = int(rng.integers(flat.size))
        flat[pos] = bad
        hits.append({"array": ai, "position": pos, "value": mode})
    return hits


def _state_units(state: Any) -> list[Any]:
    """Split a backend state into independently-corruptible units.

    The binned backends keep ``(method, [per-bin factors])`` - each bin
    is a unit; the monolithic backends keep one opaque state - one
    unit.
    """
    if (
        isinstance(state, tuple)
        and len(state) == 2
        and isinstance(state[1], list)
        and state[1]
    ):
        return list(state[1])
    return [state]


class CorruptBinsInjector(Injector):
    """Silently corrupt the factors of selected bins after factorize.

    Writes a NaN (or Inf) into one element of every float array of up
    to ``max_bins`` randomly-selected state units, leaving ``info``
    untouched: the factorization *looks* healthy until something
    consumes the factors.  This is the fault class the executor's spot
    check exists to catch.
    """

    def __init__(
        self, rate: float = 1.0, mode: str = "nan", max_bins: int = 1
    ):
        if mode not in ("nan", "inf"):
            raise ValueError(f"mode must be 'nan' or 'inf', got {mode!r}")
        self.rate = float(rate)
        self.mode = mode
        self.max_bins = int(max_bins)
        self.name = f"corrupt-bins[{mode}]"

    def after_factorize(self, rng, call, plan, method, result):
        if rng.random() >= self.rate:
            return None
        units = _state_units(result.state)
        k = min(self.max_bins, len(units))
        chosen = rng.choice(len(units), size=k, replace=False)
        hits = []
        for ui in sorted(int(u) for u in chosen):
            arrays = collect_float_arrays(units[ui])
            if not arrays:  # pragma: no cover - factors always carry data
                continue
            pick = [arrays[int(rng.integers(len(arrays)))]]
            hits.append(
                {"unit": ui, "hits": _corrupt_arrays(pick, rng, self.mode)}
            )
        if not hits:  # pragma: no cover
            return None
        return FaultEvent(
            self.name, "factorize", call, {"units": hits}
        )


class CorruptSolveInjector(Injector):
    """Corrupt the solve output in place (NaN into one block's slot).

    Models a faulty triangular-solve launch: the factors are fine but
    a returned solution vector is garbage.  The resilient handle must
    catch this and re-answer from the reference factorization.
    """

    def __init__(self, rate: float = 1.0):
        self.rate = float(rate)
        self.name = "corrupt-solve"

    def after_solve(self, rng, call, plan, rhs, out):
        if rng.random() >= self.rate:
            return None
        block = int(rng.integers(out.data.shape[0]))
        out.data[block, : max(1, int(out.sizes[block]))] = np.nan
        return FaultEvent(
            self.name, "solve", call, {"block": block}
        )


def poison_cache(
    cache, seed: int = 0, mode: str = "nan", limit: int | None = None
) -> int:
    """Corrupt the stored factors of a tenant shard's handles in place.

    ``cache`` is one shard of
    :class:`~repro.serving.shards.TenantCacheShards`; its entries are
    :class:`~repro.serving.coalesce.TenantFactorization` views.  Walks
    up to ``limit`` entries (all by default, LRU-first) and writes a
    NaN/Inf into one float array of each view's shared backend state -
    exactly the damage a poisoned or bit-rotted cache would carry.
    Returns the number of handles poisoned.  A resilient runtime's
    handle answers solves against such factors from its reference
    factorization.
    """
    rng = np.random.default_rng([int(seed), 0xCAC4E])
    keys = cache.keys()
    if limit is not None:
        keys = keys[:limit]
    poisoned = 0
    for key in keys:
        handle = cache.peek(key)
        if handle is None:  # pragma: no cover - concurrent eviction
            continue
        # target the backend state (the stored factors), not inert
        # bookkeeping like degradation records
        arrays = collect_float_arrays(handle.shared.result.state)
        if not arrays:  # pragma: no cover
            continue
        _corrupt_arrays(
            [arrays[int(rng.integers(len(arrays)))]], rng, mode
        )
        poisoned += 1
    return poisoned
