"""Always-on flight recorder: a bounded ring of structured events
that can dump a self-contained JSON "black box" on demand.

The serving layer records admissions, sheds, flushes; the runtime
records fallbacks and quarantines; the watchdog records audit
verdicts.
Recording is allocation-light - one tuple appended to a
``deque(maxlen=...)`` - so the recorder stays on even in production
paths (the telemetry-overhead CI gate covers it).

A **dump** freezes the last ``horizon`` seconds of events plus, when
the global tracer is enabled, every collected span (links included,
so a request's causal chain survives into the black box) and a
metrics snapshot.  Triggers:

* an SLO burn alert (:meth:`attach_slo` hooks the engine's
  ``on_alert``),
* the engine's late-delivery audit,
* a chaos-judged failure,
* ``SIGUSR2`` (:func:`install_signal_handler`) or an explicit
  :meth:`dump` call.

One process-global recorder (:func:`get_flight_recorder`), mirroring
the tracer/metrics pattern, so deep layers can record without new
constructor plumbing.
"""

from __future__ import annotations

import json
import signal
import threading
from collections import deque

from ..clock import MONOTONIC
from ..telemetry.serialize import to_native

__all__ = [
    "FlightRecorder",
    "get_flight_recorder",
    "install_signal_handler",
    "record_flight",
    "set_flight_recorder",
]


class FlightRecorder:
    """Bounded ring buffer of structured events + black-box dumps.

    Parameters
    ----------
    capacity:
        Maximum events retained (oldest evicted first).  ``0``
        disables recording entirely (every ``record`` is dropped).
    horizon:
        Dump window in seconds: only events within ``horizon`` of the
        trigger time are serialized.
    clock:
        Injectable time source (``ScriptedClock`` in tests).
    max_dumps:
        Black boxes retained in memory (``dumps`` list).
    """

    def __init__(
        self,
        capacity: int = 4096,
        horizon: float = 30.0,
        clock=MONOTONIC,
        max_dumps: int = 4,
    ):
        self.capacity = int(capacity)
        self.horizon = float(horizon)
        self._clock = clock
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=self.capacity or 1)
        self._seq = 0
        self.enabled = self.capacity > 0
        self.dumps: deque = deque(maxlen=max(int(max_dumps), 1))

    # -- recording ---------------------------------------------------------

    def record(self, kind: str, now: float | None = None, **fields) -> None:
        """Append one structured event (cheap: tuple into a deque)."""
        if not self.enabled:
            return
        t = self._clock() if now is None else now
        with self._lock:
            self._seq += 1
            self._ring.append((t, self._seq, kind, fields))

    def events(self, since: float | None = None) -> list[dict]:
        """Events (oldest first) with ``ts >= since`` as dicts."""
        with self._lock:
            snap = list(self._ring)
        return [
            {"ts": t, "seq": seq, "kind": kind, **to_native(fields)}
            for t, seq, kind, fields in snap
            if since is None or t >= since
        ]

    def counts(self) -> dict[str, int]:
        """Event counts by kind over the whole ring."""
        with self._lock:
            snap = list(self._ring)
        out: dict[str, int] = {}
        for _, _, kind, _ in snap:
            out[kind] = out.get(kind, 0) + 1
        return out

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
        self.dumps.clear()

    # -- black box ---------------------------------------------------------

    def dump(self, reason: str, now: float | None = None, **context) -> dict:
        """Freeze a self-contained JSON black box and retain it.

        ``context`` rides along under ``flight_recorder.context``
        (e.g. the triggering alert event).  Spans come from the
        global tracer when one is enabled; metrics from the global
        registry - the dump is valid JSON with no live references.
        """
        from ..telemetry.export import metrics_snapshot, span_to_row
        from ..telemetry.tracer import get_tracer

        t = self._clock() if now is None else now
        tr = get_tracer()
        spans = []
        if tr.enabled:
            spans = [span_to_row(s) for s in tr.spans()]
            spans += [span_to_row(s) for s in tr.open_spans()]
            spans.sort(key=lambda r: r["ts"])
        doc = {
            "flight_recorder": {
                "reason": reason,
                "at": t,
                "horizon": self.horizon,
                "capacity": self.capacity,
                "context": to_native(context),
            },
            "events": self.events(since=t - self.horizon),
            "spans": spans,
            "metrics": metrics_snapshot(),
        }
        self.dumps.append(doc)
        self.record("flight_dump", now=t, reason=reason)
        return doc

    def dump_to(self, path: str, reason: str, **context) -> dict:
        doc = self.dump(reason, **context)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        return doc

    def attach_slo(self, slo_engine, states=("firing",)) -> None:
        """Dump a black box on every matching SLO alert transition."""

        def _on_alert(alert: dict) -> None:
            self.record(
                "slo_alert",
                now=alert.get("at"),
                slo=alert.get("slo"),
                state=alert.get("state"),
            )
            if alert.get("state") in states:
                self.dump(
                    f"slo_burn:{alert.get('slo')}",
                    now=alert.get("at"),
                    alert=alert,
                )

        slo_engine.on_alert(_on_alert)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlightRecorder(events={len(self._ring)}/{self.capacity}, "
            f"dumps={len(self.dumps)})"
        )


_recorder = FlightRecorder()


def get_flight_recorder() -> FlightRecorder:
    """The process-global (always-on) flight recorder."""
    return _recorder


def set_flight_recorder(
    recorder: FlightRecorder | None,
) -> FlightRecorder:
    """Install ``recorder`` globally (None restores a fresh default)."""
    global _recorder
    _recorder = FlightRecorder() if recorder is None else recorder
    return _recorder


def record_flight(kind: str, now: float | None = None, **fields) -> None:
    """Record into the global recorder (module-level convenience for
    deep layers: executor fallbacks, quarantines, watchdog
    verdicts)."""
    rec = _recorder
    if rec.enabled:
        rec.record(kind, now=now, **fields)


def install_signal_handler(path: str, signum=None) -> bool:
    """Dump the global recorder's black box to ``path`` on SIGUSR2.

    Returns False on platforms without SIGUSR2 (Windows) instead of
    raising; the CLI reports accordingly.
    """
    if signum is None:
        signum = getattr(signal, "SIGUSR2", None)
        if signum is None:  # pragma: no cover - windows
            return False

    def _handler(sig, frame):
        get_flight_recorder().dump_to(path, reason=f"signal:{sig}")

    try:
        signal.signal(signum, _handler)
    except ValueError:  # pragma: no cover - non-main thread
        return False
    return True
