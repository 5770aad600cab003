"""Metrics registry: counters, gauges, fixed-bucket histograms.

Complements the span tracer with *aggregates*: cache hits and misses,
fallback and quarantine events, watchdog audits and restarts, per-stage
latency distributions, padding-waste ratios.  Two export shapes:

* :meth:`MetricsRegistry.snapshot` - a plain nested dict (printed
  by ``--metrics`` and embedded in flight-recorder dumps);
* :meth:`MetricsRegistry.prometheus_text` - the Prometheus text
  exposition format, so a serving deployment can scrape the process.

Metrics are always-on (unlike spans): every instrument is a couple of
dict operations under a lock, amortised over batch-level calls - never
per matrix entry, and never per solver iteration (iteration counts are
added once per solve).
"""

from __future__ import annotations

import threading
from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
    "DEFAULT_LATENCY_BUCKETS",
]

#: seconds; spans the micro-kernel (~1e-5) to full-suite (~10 s) range
DEFAULT_LATENCY_BUCKETS = (
    1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _label_str(key: tuple) -> str:
    return ",".join(f"{k}={v}" for k, v in key)


def _escape_label_value(value) -> str:
    """Escape a label value per the Prometheus text-format spec.

    Inside the double-quoted label value, backslash, double quote and
    line feed must appear as ``\\\\``, ``\\"`` and ``\\n`` - anything
    else produces an unparseable exposition.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """Escape HELP text: backslash and line feed only (spec rules)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _prom_labels(key: tuple, extra: str = "") -> str:
    parts = [f'{k}="{_escape_label_value(v)}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Instrument:
    kind = "?"

    def __init__(self, name: str, help: str, lock: threading.Lock):
        self.name = name
        self.help = help
        self._lock = lock


class Counter(_Instrument):
    """Monotonically increasing count, optionally labelled."""

    kind = "counter"

    def __init__(self, name, help, lock):
        super().__init__(name, help, lock)
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return sum(self._values.values())

    def snapshot(self) -> dict:
        with self._lock:
            return {_label_str(k): v for k, v in self._values.items()}

    def expose(self) -> list[str]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            f"{self.name}{_prom_labels(k)} {_num(v)}" for k, v in items
        ]


class Gauge(_Instrument):
    """Point-in-time value (last write wins)."""

    kind = "gauge"

    def __init__(self, name, help, lock):
        super().__init__(name, help, lock)
        self._values: dict[tuple, float] = {}

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def snapshot(self) -> dict:
        with self._lock:
            return {_label_str(k): v for k, v in self._values.items()}

    def expose(self) -> list[str]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            f"{self.name}{_prom_labels(k)} {_num(v)}" for k, v in items
        ]


class Histogram(_Instrument):
    """Fixed-bucket histogram (cumulative exposition, Prometheus-style).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches
    the rest.  Per label set it tracks bucket counts, sum, and count.
    """

    kind = "histogram"

    def __init__(self, name, help, lock, buckets: Iterable[float]):
        super().__init__(name, help, lock)
        bs = tuple(sorted(float(b) for b in buckets))
        if not bs:
            raise ValueError("histogram needs at least one bucket")
        self.buckets = bs
        # per label key: [counts per bucket incl. +Inf, sum, count]
        self._series: dict[tuple, tuple[list[int], list[float]]] = {}

    def observe(self, value: float, **labels) -> None:
        value = float(value)
        key = _label_key(labels)
        with self._lock:
            if key not in self._series:
                self._series[key] = (
                    [0] * (len(self.buckets) + 1),
                    [0.0, 0.0],  # sum, count
                )
            counts, agg = self._series[key]
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
            agg[0] += value
            agg[1] += 1

    def snapshot(self) -> dict:
        out = {}
        with self._lock:
            for key, (counts, agg) in self._series.items():
                bounds = [str(b) for b in self.buckets] + ["+Inf"]
                out[_label_str(key)] = {
                    "buckets": dict(zip(bounds, counts)),
                    "sum": agg[0],
                    "count": int(agg[1]),
                }
        return out

    def expose(self) -> list[str]:
        lines = []
        with self._lock:
            series = sorted(self._series.items())
            for key, (counts, agg) in series:
                cum = 0
                for bound, c in zip(self.buckets, counts):
                    cum += c
                    le = 'le="' + _num(bound) + '"'
                    lines.append(
                        f"{self.name}_bucket{_prom_labels(key, le)} {cum}"
                    )
                cum += counts[-1]
                le_inf = 'le="+Inf"'
                lines.append(
                    f"{self.name}_bucket{_prom_labels(key, le_inf)} {cum}"
                )
                lines.append(
                    f"{self.name}_sum{_prom_labels(key)} {_num(agg[0])}"
                )
                lines.append(
                    f"{self.name}_count{_prom_labels(key)} {int(agg[1])}"
                )
        return lines


def _num(v: float) -> str:
    """Prometheus-friendly number rendering (ints without the .0)."""
    f = float(v)
    return str(int(f)) if f.is_integer() and abs(f) < 1e15 else repr(f)


class MetricsRegistry:
    """Named instruments, get-or-create, one lock for all of them.

    Creating the same name twice returns the existing instrument;
    asking for it under a different kind raises.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is not None:
                if not isinstance(inst, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{inst.kind}, not {cls.kind}"
                    )
                return inst
            inst = cls(name, help, threading.Lock(), **kwargs)
            self._instruments[name] = inst
            return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, buckets=buckets
        )

    def snapshot(self) -> dict:
        """Nested plain-dict view of every instrument (JSON-safe)."""
        with self._lock:
            instruments = dict(self._instruments)
        out: dict[str, dict] = {}
        for name, inst in sorted(instruments.items()):
            out[name] = {
                "kind": inst.kind,
                "help": inst.help,
                "values": inst.snapshot(),
            }
        return out

    def prometheus_text(self) -> str:
        """Prometheus text exposition of the whole registry."""
        with self._lock:
            instruments = dict(self._instruments)
        lines = []
        for name, inst in sorted(instruments.items()):
            if inst.help:
                lines.append(f"# HELP {name} {_escape_help(inst.help)}")
            lines.append(f"# TYPE {name} {inst.kind}")
            lines.extend(inst.expose())
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every instrument (tests; a fresh run's clean slate)."""
        with self._lock:
            self._instruments.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return f"MetricsRegistry({sorted(self._instruments)})"


_metrics = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global registry every subsystem reports into."""
    return _metrics


def set_metrics(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Swap the global registry (None installs a fresh empty one)."""
    global _metrics
    _metrics = MetricsRegistry() if registry is None else registry
    return _metrics
