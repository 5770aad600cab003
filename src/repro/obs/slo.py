"""Declarative SLOs with multi-window burn-rate alerts.

An :class:`SLO` states "at least ``target`` of events must be good"
(good = admitted under the latency bound, delivered before deadline,
not shed - the consumer decides).  The engine keeps a sliding window
of (timestamp, good) samples per objective and evaluates **burn
rate** - the rate at which the error budget ``1 - target`` is being
consumed - over a *fast* and a *slow* window simultaneously, the
multi-window pattern of the SRE workbook: the fast window confirms
the problem is happening *now*, the slow window confirms it is
*sustained*, and requiring both suppresses one-flush blips without
missing a real overload.

Alerts are edge-triggered structured events: one ``firing`` event
when both burn rates cross the threshold, one ``resolved`` event when
both fall back under 1.0 (the budget-neutral rate, giving natural
hysteresis).  Every evaluation also publishes the burn rates as
gauges and alert transitions as counters, and fires registered
callbacks - the flight recorder hooks one to dump its black box the
moment an SLO starts burning.

Everything is clock-injected (:class:`repro.clock.ScriptedClock` in
tests) - no hidden ``time.time()``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..clock import MONOTONIC
from ..telemetry.metrics import get_metrics

__all__ = [
    "SLO",
    "SLOEngine",
    "default_serving_slos",
]


@dataclass(frozen=True)
class SLO:
    """One declarative objective.

    Parameters
    ----------
    name:
        Stable identifier (``admitted_latency``, ``deadline_hit``,
        ``shed_rate`` are the conventions the serving engine feeds).
    target:
        Required good fraction in steady state (e.g. ``0.99`` = at
        most 1% of events may be bad).  The error budget is
        ``1 - target``.
    fast_window / slow_window:
        Sliding-window horizons in seconds.  Burn rates are evaluated
        over both; an alert needs both above ``burn_threshold``.
    burn_threshold:
        Burn-rate multiple that pages.  ``1.0`` means "consuming
        budget exactly as fast as allowed"; the SRE workbook pages at
        high multiples (e.g. 14.4) on short windows.
    threshold:
        Optional scalar the *consumer* uses to classify an event as
        good (e.g. the latency bound in seconds for
        ``admitted_latency``).  Opaque to the engine itself.
    min_events:
        Do not evaluate a window with fewer samples (cold-start
        guard; a single bad first event is not a 100% burn).
    """

    name: str
    target: float = 0.99
    fast_window: float = 5.0
    slow_window: float = 25.0
    burn_threshold: float = 2.0
    threshold: float | None = None
    min_events: int = 10
    description: str = ""

    def __post_init__(self):
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1): {self.target}")
        if self.fast_window <= 0 or self.slow_window < self.fast_window:
            raise ValueError(
                "need 0 < fast_window <= slow_window, got "
                f"{self.fast_window}/{self.slow_window}"
            )
        if self.burn_threshold <= 0:
            raise ValueError("burn_threshold must be positive")

    @property
    def budget(self) -> float:
        return 1.0 - self.target


@dataclass
class _Monitor:
    """Sliding sample window + alert state for one SLO."""

    slo: SLO
    samples: deque = field(default_factory=deque)  # (ts, good: bool)
    firing: bool = False
    total: int = 0
    bad: int = 0

    def record(self, good: bool, now: float) -> None:
        self.samples.append((now, bool(good)))
        self.total += 1
        if not good:
            self.bad += 1
        self._prune(now)

    def record_many(self, goods: list, now: float) -> None:
        self.samples.extend((now, bool(g)) for g in goods)
        self.total += len(goods)
        self.bad += len(goods) - sum(map(bool, goods))
        self._prune(now)

    def _prune(self, now: float) -> None:
        horizon = now - self.slo.slow_window
        q = self.samples
        while q and q[0][0] < horizon:
            q.popleft()

    def burn_rate(self, window: float, now: float) -> float | None:
        """Bad fraction over ``window`` divided by the error budget;
        ``None`` when the window holds fewer than ``min_events``."""
        cutoff = now - window
        n = bad = 0
        for ts, good in reversed(self.samples):
            if ts < cutoff:
                break
            n += 1
            if not good:
                bad += 1
        if n < self.slo.min_events:
            return None
        return (bad / n) / self.slo.budget

    def evaluate(self, now: float) -> dict | None:
        """Edge-triggered alert transition, or ``None``."""
        self._prune(now)
        fast = self.burn_rate(self.slo.fast_window, now)
        slow = self.burn_rate(self.slo.slow_window, now)
        if not self.firing:
            if (
                fast is not None
                and slow is not None
                and fast >= self.slo.burn_threshold
                and slow >= self.slo.burn_threshold
            ):
                self.firing = True
                return self._alert("firing", fast, slow, now)
        else:
            if (fast is None or fast < 1.0) and (
                slow is None or slow < 1.0
            ):
                self.firing = False
                return self._alert("resolved", fast, slow, now)
        return None

    def _alert(
        self, state: str, fast: float | None, slow: float | None, now: float
    ) -> dict:
        return {
            "slo": self.slo.name,
            "state": state,
            "at": now,
            "burn_fast": fast,
            "burn_slow": slow,
            "fast_window": self.slo.fast_window,
            "slow_window": self.slo.slow_window,
            "target": self.slo.target,
            "burn_threshold": self.slo.burn_threshold,
        }

    def snapshot(self, now: float) -> dict:
        return {
            "target": self.slo.target,
            "threshold": self.slo.threshold,
            "firing": self.firing,
            "total": self.total,
            "bad": self.bad,
            "window_samples": len(self.samples),
            "burn_fast": self.burn_rate(self.slo.fast_window, now),
            "burn_slow": self.burn_rate(self.slo.slow_window, now),
        }


class SLOEngine:
    """Evaluates a set of :class:`SLO` objectives over a shared clock.

    ``record`` feeds one good/bad sample; ``evaluate`` advances the
    alert state machines and returns (and retains) any transitions.
    ``on_alert`` callbacks run synchronously for each transition -
    the flight recorder registers one to trigger its dump.
    """

    def __init__(self, slos, clock=MONOTONIC, on_alert=None):
        self._monitors = {s.name: _Monitor(s) for s in slos}
        if len(self._monitors) != len(list(slos)):
            raise ValueError("duplicate SLO names")
        self._clock = clock
        self._callbacks = list(on_alert) if on_alert else []
        self.alerts: list[dict] = []
        m = get_metrics()
        self._burn_gauge = m.gauge(
            "repro_slo_burn_rate",
            "Current burn rate per SLO and window",
        )
        self._alert_counter = m.counter(
            "repro_slo_alerts_total",
            "SLO alert transitions",
        )

    def __contains__(self, name: str) -> bool:
        return name in self._monitors

    def get(self, name: str) -> SLO | None:
        mon = self._monitors.get(name)
        return mon.slo if mon else None

    @property
    def slos(self) -> list[SLO]:
        return [m.slo for m in self._monitors.values()]

    def on_alert(self, callback) -> None:
        """Register ``callback(alert_event_dict)`` for transitions."""
        self._callbacks.append(callback)

    def record(self, name: str, good: bool, now: float | None = None) -> None:
        mon = self._monitors.get(name)
        if mon is None:
            return
        mon.record(good, self._clock() if now is None else now)

    def record_many(
        self, name: str, goods: list, now: float | None = None
    ) -> None:
        """Feed several samples taken at one time ``now``."""
        mon = self._monitors.get(name)
        if mon is None or not goods:
            return
        mon.record_many(goods, self._clock() if now is None else now)

    def evaluate(self, now: float | None = None) -> list[dict]:
        """Run every monitor's alert state machine; returns the new
        transitions (also appended to :attr:`alerts`)."""
        t = self._clock() if now is None else now
        fired: list[dict] = []
        for name, mon in self._monitors.items():
            fast = mon.burn_rate(mon.slo.fast_window, t)
            slow = mon.burn_rate(mon.slo.slow_window, t)
            if fast is not None:
                self._burn_gauge.set(fast, slo=name, window="fast")
            if slow is not None:
                self._burn_gauge.set(slow, slo=name, window="slow")
            alert = mon.evaluate(t)
            if alert is not None:
                fired.append(alert)
        for alert in fired:
            self.alerts.append(alert)
            self._alert_counter.inc(
                slo=alert["slo"], state=alert["state"]
            )
            for cb in self._callbacks:
                cb(alert)
        return fired

    def firing(self) -> list[str]:
        """Names of SLOs currently in the firing state."""
        return [n for n, m in self._monitors.items() if m.firing]

    def snapshot(self, now: float | None = None) -> dict:
        t = self._clock() if now is None else now
        return {
            "slos": {
                name: mon.snapshot(t)
                for name, mon in self._monitors.items()
            },
            "alerts": list(self.alerts),
            "firing": self.firing(),
        }


def default_serving_slos(
    latency_threshold: float = 0.05,
    latency_target: float = 0.99,
    deadline_target: float = 0.999,
    shed_target: float = 0.95,
    fast_window: float = 5.0,
    slow_window: float = 25.0,
    burn_threshold: float = 2.0,
    min_events: int = 10,
) -> list[SLO]:
    """The three serving objectives the coalescing engine feeds:
    admitted queue latency under ``latency_threshold`` seconds,
    deadline-hit ratio, and shed rate."""
    return [
        SLO(
            name="admitted_latency",
            target=latency_target,
            threshold=latency_threshold,
            fast_window=fast_window,
            slow_window=slow_window,
            burn_threshold=burn_threshold,
            min_events=min_events,
            description=(
                "fraction of admitted requests whose queue wait is "
                f"<= {latency_threshold}s"
            ),
        ),
        SLO(
            name="deadline_hit",
            target=deadline_target,
            fast_window=fast_window,
            slow_window=slow_window,
            burn_threshold=burn_threshold,
            min_events=min_events,
            description="fraction of deadline-carrying requests "
            "delivered before their deadline",
        ),
        SLO(
            name="shed_rate",
            target=shed_target,
            fast_window=fast_window,
            slow_window=slow_window,
            burn_threshold=burn_threshold,
            min_events=min_events,
            description="fraction of submissions admitted (not shed)",
        ),
    ]
