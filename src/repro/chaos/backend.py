"""The chaos wrapper: any :class:`~repro.runtime.backends.Backend`
plus a seeded injector list.

``ChaosBackend`` is a drop-in backend - hand it to
:class:`~repro.runtime.executor.BatchRuntime` as the primary backend
and the injectors fire around every ``factorize``/``solve`` the
runtime dispatches.  Determinism contract: one child
:class:`numpy.random.Generator` per injector, derived from
``(seed, injector index)``, consumed only by that injector's hooks in
call order - so a fixed seed replays the identical fault schedule
regardless of which other injectors are present.

Bookkeeping the resilient executor relies on:

* ``last_faults`` - the :class:`~repro.chaos.faults.FaultEvent` tuple
  of the *most recent* call (the executor reads it after a successful
  factorize to taint the handle against caching);
* ``events`` - the cumulative list across all calls (what the chaos
  scenarios assert against).
"""

from __future__ import annotations

import numpy as np

from ..runtime.backends import Backend
from ..telemetry.metrics import get_metrics
from ..telemetry.tracer import get_tracer
from .faults import FaultEvent, InjectedFault, Injector

__all__ = ["ChaosBackend"]


class ChaosBackend(Backend):
    """A backend wrapped in deterministic fault injection."""

    def __init__(
        self,
        inner: Backend,
        injectors: tuple[Injector, ...] | list[Injector] = (),
        seed: int = 0,
    ):
        self.inner = inner
        self.injectors = list(injectors)
        self.seed = int(seed)
        self._rngs = [
            np.random.default_rng([self.seed, i])
            for i in range(len(self.injectors))
        ]
        self.calls = 0
        self.events: list[FaultEvent] = []
        self.last_faults: tuple[FaultEvent, ...] = ()
        self.name = f"chaos({inner.name})"

    def _run_hooks(self, hook: str, *args) -> list[FaultEvent]:
        fired: list[FaultEvent] = []
        for injector, rng in zip(self.injectors, self._rngs):
            try:
                event = getattr(injector, hook)(rng, self.calls, *args)
            except InjectedFault as fault:
                fired.append(fault.event)
                self._record(fired)
                raise
            if event is not None:
                fired.append(event)
        return fired

    def _record(self, fired: list[FaultEvent]) -> None:
        self.events.extend(fired)
        self.last_faults = tuple(fired)
        if fired:
            counter = get_metrics().counter(
                "repro_chaos_faults_total",
                "Injected faults by injector",
            )
            tr = get_tracer()
            for ev in fired:
                counter.inc(injector=ev.injector)
                if tr.enabled:
                    tr.event("chaos.fault", **ev.to_dict())

    def factorize(self, plan, method="lu", on_singular=None):
        self.calls += 1
        fired = self._run_hooks("before_factorize", plan, method)
        try:
            result = self.inner.factorize(plan, method, on_singular)
        except BaseException:
            self._record(fired)  # keep latency/etc. events on organic raise
            raise
        fired += self._run_hooks(
            "after_factorize", plan, method, result
        )
        self._record(fired)
        return result

    def solve(self, state, plan, rhs):
        self.calls += 1
        fired = self._run_hooks("before_solve", plan, rhs)
        try:
            out = self.inner.solve(state, plan, rhs)
        except BaseException:
            self._record(fired)
            raise
        fired += self._run_hooks("after_solve", plan, rhs, out)
        self._record(fired)
        return out

    def bin_stats(self, plan, method):
        return self.inner.bin_stats(plan, method)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = [i.name for i in self.injectors]
        return (
            f"ChaosBackend({self.inner.name!r}, injectors={names}, "
            f"seed={self.seed}, calls={self.calls})"
        )
