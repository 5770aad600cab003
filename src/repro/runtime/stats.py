"""Runtime instrumentation: stage timers and padding-waste counters.

Every :meth:`repro.runtime.executor.BatchRuntime.factorize` call emits
one :class:`RuntimeReport`: which backend ran, how long each stage took
(planning, factorization, and any solves executed against the handle),
how the batch was binned, how many flops the binned execution charged
versus the useful work and versus the monolithic single-tile loop, and
every resilience event.  The report is the layer the
acceptance checks and the preconditioner's ``SetupReport`` read -
nothing in the numerical path depends on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..telemetry.metrics import get_metrics
from ..telemetry.serialize import to_native
from ..telemetry.tracer import get_tracer

__all__ = ["BinStats", "RuntimeReport", "StageTimer"]


@dataclass
class BinStats:
    """Padding accounting of one executed bin (LU flop convention).

    ``fallback``/``quarantined`` mark bins the resilient executor had
    to move off the primary backend: ``quarantined`` bins were retried
    on the reference backend after a failure or corruption,
    ``fallback`` covers any off-primary execution (quarantine included).
    """

    nominal_tile: int
    tile: int
    nb: int
    useful_flops: int
    padded_flops: int
    fallback: bool = False
    quarantined: bool = False

    @property
    def waste_flops(self) -> int:
        return self.padded_flops - self.useful_flops

    @property
    def waste_fraction(self) -> float:
        return (
            self.waste_flops / self.padded_flops if self.padded_flops else 0.0
        )

    def to_dict(self) -> dict:
        return to_native(
            {
                "nominal_tile": self.nominal_tile,
                "tile": self.tile,
                "nb": self.nb,
                "useful_flops": self.useful_flops,
                "padded_flops": self.padded_flops,
                "waste_flops": self.waste_flops,
                "waste_fraction": self.waste_fraction,
                "fallback": self.fallback,
                "quarantined": self.quarantined,
            }
        )


class StageTimer:
    """Accumulating wall-clock timer: ``with timer.stage("factor"): ...``.

    Re-entering a stage accumulates (the solve stage runs once per
    ``solve`` call against the same handle).

    The timer is a thin adapter over the telemetry span tracer: when
    the global tracer is enabled, each stage additionally opens a
    ``<prefix>.<name>`` span (default ``runtime.factor`` etc.) and
    feeds the per-stage latency histogram.  With the null tracer the
    only extra cost is one attribute check per stage, and the
    ``seconds`` dict accumulation is byte-for-byte the pre-telemetry
    behavior - including on exceptions raised inside the stage.
    """

    def __init__(self, seconds: dict[str, float], prefix: str = "runtime"):
        self._seconds = seconds
        self._prefix = prefix

    def stage(self, name: str) -> "_StageContext":
        return _StageContext(self._seconds, name, self._prefix)


class _StageContext:
    def __init__(self, seconds: dict[str, float], name: str, prefix: str):
        self._seconds = seconds
        self._name = name
        self._prefix = prefix
        self._span = None

    def __enter__(self):
        tr = get_tracer()
        if tr.enabled:
            self._span = tr.begin(
                f"{self._prefix}.{self._name}", cat="runtime"
            )
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        dt = time.perf_counter() - self._t0
        self._seconds[self._name] = self._seconds.get(self._name, 0.0) + dt
        if self._span is not None:
            get_tracer().end(self._span, error=exc[0] is not None)
            self._span = None
        get_metrics().histogram(
            "repro_stage_seconds",
            "Wall seconds per runtime stage",
        ).observe(dt, stage=self._name)
        return False


@dataclass
class RuntimeReport:
    """What one runtime factorization (and its solves) cost.

    Attributes
    ----------
    backend, method:
        Which executor backend ran which factorization kernel.
    nb, source_tile:
        Source batch geometry.
    bins:
        Per-bin padding accounting, ordered by executed tile.  The
        monolithic ``numpy`` backend reports a single bin at the
        source tile; the per-block ``scipy`` backend reports its bins
        with ``padded_flops == useful_flops`` (LAPACK pads nothing).
    stage_seconds:
        Accumulated wall time per stage: ``"plan"``, ``"factor"``,
        ``"invert"``, ``"tune"``, ``"solve"`` (present only for stages
        that ran).
    backend_used:
        The backend that actually produced the factors when the
        resilient executor had to deviate from the configured one
        (a fallback-chain member, or ``"<primary>+quarantine"`` for a
        per-bin composite); None when the primary backend answered.
    fallback_events:
        One dict per deviation the resilient executor took: backend
        raised / was skipped by its circuit breaker / produced
        corrupted factors, and solve-time fallbacks.  Empty on the
        happy path.
    quarantined_bins:
        Plan-order indices of bins retried on the reference backend.
    solves, solve_fallbacks:
        How many solves the handle answered, and how many of those had
        to fall back to the reference factorization.
    apply_mode, effective_apply_mode:
        The apply mode requested for the handle and the one actually
        in force (``"factor"`` when the inverse could not be built or
        the autotuner rejected it everywhere; ``"mixed"`` when the
        autotuner kept it on some bins only).
    apply_tuning:
        Per-bin measurements of the ``apply_mode="auto"`` tuner
        (:meth:`~repro.runtime.autotune.ApplyModeTuning.to_dict`);
        None unless auto mode ran.
    breakers:
        Snapshot of the runtime's circuit breakers after the call
        (resilient mode only).
    """

    backend: str
    method: str
    nb: int
    source_tile: int
    bins: list[BinStats] = field(default_factory=list)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    cache_hit: bool | None = None  # read by benchmarks/e2e/layers.py
    backend_used: str | None = None
    fallback_events: list[dict] = field(default_factory=list)
    quarantined_bins: list[int] = field(default_factory=list)
    solves: int = 0
    solve_fallbacks: int = 0
    breakers: dict | None = None
    apply_mode: str = "factor"
    effective_apply_mode: str = "factor"
    apply_tuning: dict | None = None

    def timer(self) -> StageTimer:
        return StageTimer(self.stage_seconds)

    # -- flop roll-ups ----------------------------------------------------

    @property
    def useful_flops(self) -> int:
        return sum(b.useful_flops for b in self.bins)

    @property
    def padded_flops(self) -> int:
        """Total LU flop charge of the execution as actually binned."""
        return sum(b.padded_flops for b in self.bins)

    @property
    def padding_waste(self) -> int:
        return self.padded_flops - self.useful_flops

    @property
    def monolithic_padded_flops(self) -> int:
        """Charge of the unbinned single-loop path at the source tile."""
        return int(self.nb * 2.0 * float(self.source_tile) ** 3 / 3.0)

    @property
    def flops_saved(self) -> int:
        """Padded flops the binned dispatch avoided versus monolithic."""
        return self.monolithic_padded_flops - self.padded_flops

    @property
    def total_seconds(self) -> float:
        return float(sum(self.stage_seconds.values()))

    def to_dict(self) -> dict:
        return to_native(
            {
                "backend": self.backend,
                "method": self.method,
                "nb": self.nb,
                "source_tile": self.source_tile,
                "bins": [b.to_dict() for b in self.bins],
                "stage_seconds": dict(self.stage_seconds),
                "useful_flops": self.useful_flops,
                "padded_flops": self.padded_flops,
                "padding_waste": self.padding_waste,
                "monolithic_padded_flops": self.monolithic_padded_flops,
                "flops_saved": self.flops_saved,
                "solves": self.solves,
                "solve_seconds": float(self.stage_seconds.get("solve", 0.0)),
                "backend_used": self.backend_used,
                "fallback_events": [dict(e) for e in self.fallback_events],
                "quarantined_bins": list(self.quarantined_bins),
                "solve_fallbacks": self.solve_fallbacks,
                "breakers": self.breakers,
                "apply_mode": self.apply_mode,
                "effective_apply_mode": self.effective_apply_mode,
                "apply_tuning": self.apply_tuning,
            }
        )

    def summary(self) -> str:
        """Human-readable one-call summary (CLI / example output)."""
        lines = [
            f"runtime[{self.backend}/{self.method}]: {self.nb} blocks, "
            f"source tile {self.source_tile}"
        ]
        for b in self.bins:
            lines.append(
                f"  bin tile {b.tile:2d} (<= {b.nominal_tile:2d}): "
                f"{b.nb} blocks, waste {b.waste_fraction * 100:5.1f}% "
                f"({b.waste_flops}/{b.padded_flops} flops)"
            )
        if self.bins:
            mono = self.monolithic_padded_flops
            saved = self.flops_saved
            pct = 100.0 * saved / mono if mono else 0.0
            lines.append(
                f"  padded flops {self.padded_flops} vs monolithic {mono} "
                f"(saved {pct:.1f}%)"
            )
        for name in (
            "plan", "factor", "invert", "tune", "solve",
        ):
            if name in self.stage_seconds:
                lines.append(
                    f"  {name}: {self.stage_seconds[name] * 1e3:.3f} ms"
                )
        if self.apply_mode != "factor":
            lines.append(
                f"  apply mode: {self.apply_mode} requested, "
                f"{self.effective_apply_mode} in force"
            )
        if self.fallback_events or self.quarantined_bins:
            used = self.backend_used or self.backend
            lines.append(
                f"  resilience: {len(self.fallback_events)} fallback "
                f"event(s), {len(self.quarantined_bins)} quarantined "
                f"bin(s), produced by {used}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RuntimeReport(backend={self.backend!r}, nb={self.nb}, "
            f"bins={len(self.bins)})"
        )
