"""One injectable-clock convention for every time-dependent subsystem.

Everything in this codebase that depends on time — the serving tenant
shards' TTLs (:mod:`repro.serving.shards`), circuit-breaker cooldowns
(:mod:`repro.runtime.resilience`), apply-mode autotuning
(:mod:`repro.runtime.autotune`), serving queue-age accounting and the
overload controllers (:mod:`repro.serving`) — takes a ``clock=``
parameter: a zero-argument callable returning monotonic seconds.
Before this module each of those carried its own near-duplicate of the
pattern (and the scripted test clock lived inside
``serving/loadgen.py``); now there is exactly one vocabulary:

* :data:`MONOTONIC` — the production default (``time.monotonic``) for
  durations that must survive wall-clock adjustments: TTLs, cooldowns,
  queue ages, deadlines.
* :data:`PERF` — the high-resolution timer (``time.perf_counter``)
  for *measuring* short intervals: autotune probes, stage timings.
* :class:`ScriptedClock` — the test/benchmark clock: time advances
  only when the driver says so, which is what makes admission, TTL,
  breaker, autotune and overload decisions replayable bit-for-bit.

A "clock" here is deliberately just a callable — no protocol class to
subclass — so ``time.monotonic`` itself, a ``ScriptedClock``, or any
closure is a valid drop-in.
"""

from __future__ import annotations

import time

__all__ = ["MONOTONIC", "PERF", "ScriptedClock"]

#: production default for TTLs, cooldowns, queue ages, deadlines
MONOTONIC = time.monotonic

#: high-resolution timer for measuring short intervals
PERF = time.perf_counter


class ScriptedClock:
    """Manually advanced monotonic clock (callable, seconds).

    Injected wherever the stack takes a ``clock=``: queue-age
    accounting, tenant-shard TTLs, breaker cooldowns, deadline and overload
    decisions then step only when the driver says so, making
    time-dependent behaviour replayable.
    """

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError(f"cannot rewind the clock by {seconds}")
        self.now += float(seconds)
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScriptedClock(now={self.now})"
