"""Disabled-telemetry overhead measurement (the CI regression gate).

The contract of the telemetry layer is that the *disabled* path is
free: with the null tracer installed, the numerical hot loops must run
at the speed of the pre-instrumentation code.  This harness measures
exactly that contract on a small runtime workload: it times the
factorize+solve path (a) as shipped - stage hooks consulting the
(null) tracer - and (b) with the stage hooks swapped for the bare
pre-refactor accumulator, interleaved to cancel thermal/cache drift,
and reports the median relative overhead.

``python -m repro telemetry-overhead --threshold 0.02`` fails CI when
the disabled path regresses by more than 2%.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from statistics import median

__all__ = ["measure_disabled_overhead"]


class _BareStageContext:
    """The pre-refactor stage context: dict accumulation only, no
    telemetry consultation at all.  The honest no-op baseline."""

    __slots__ = ("_seconds", "_name", "_t0")

    def __init__(self, seconds, name):
        self._seconds = seconds
        self._name = name

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        dt = time.perf_counter() - self._t0
        self._seconds[self._name] = self._seconds.get(self._name, 0.0) + dt
        return False


@contextmanager
def _bare_stage_hooks():
    """Temporarily strip the telemetry adapter off ``StageTimer``."""
    from ..runtime import stats as _stats

    original = _stats.StageTimer.stage

    def bare_stage(self, name):
        return _BareStageContext(self._seconds, name)

    _stats.StageTimer.stage = bare_stage
    try:
        yield
    finally:
        _stats.StageTimer.stage = original


def measure_disabled_overhead(
    repeats: int = 9,
    nb: int = 512,
    solves: int = 4,
    seed: int = 0,
    backend: str = "binned",
) -> dict:
    """Measure the hook overhead of the disabled telemetry path.

    Runs ``repeats`` interleaved (instrumented, bare) pairs of the
    measured workload - one binned factorization of a mixed-size
    batch plus ``solves`` batched solves - and compares medians.

    Returns a dict with ``instrumented_seconds``, ``bare_seconds``
    (medians), ``overhead`` (relative; negative clamps to 0.0 in
    ``overhead_clamped``), and the workload parameters.
    """
    from ..core.random_batches import random_batch, random_rhs
    from ..runtime import BatchRuntime

    batch = random_batch(
        nb, size_range=(1, 32), kind="diag_dominant", seed=seed
    )
    rhs = random_rhs(batch, seed=seed + 1)
    rt = BatchRuntime(backend=backend)

    def work() -> float:
        t0 = time.perf_counter()
        fac = rt.factorize(batch)
        for _ in range(solves):
            fac.solve(rhs)
        return time.perf_counter() - t0

    # warm-up: JIT-free Python still benefits from allocator/cache warmth
    work()
    with _bare_stage_hooks():
        work()

    instrumented: list[float] = []
    bare: list[float] = []
    for _ in range(max(int(repeats), 1)):
        instrumented.append(work())
        with _bare_stage_hooks():
            bare.append(work())
    med_i = median(instrumented)
    med_b = median(bare)
    overhead = (med_i - med_b) / med_b if med_b > 0 else 0.0
    return {
        "instrumented_seconds": med_i,
        "bare_seconds": med_b,
        "overhead": overhead,
        "overhead_clamped": max(overhead, 0.0),
        "repeats": int(repeats),
        "nb": int(nb),
        "solves": int(solves),
        "backend": backend,
    }
