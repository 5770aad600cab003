"""Acceptance: a chaos/overload run must produce a flight-recorder
black box from which one admitted request's full causal chain -
admission -> queue -> coalesced launch (via span link) ->
scatter-back -> delivery (or shed) - is reconstructed
programmatically.  A scripted healthy/overload/recovery scenario must
fire exactly one burn alert and dump exactly one black box, and the
fully enabled observability path must cost under 5%."""

import contextlib
import json
import time

import numpy as np

from repro.chaos import ChaosBackend, RaiseInjector
from repro.clock import ScriptedClock
from repro.core.random_batches import random_batch, random_rhs
from repro.obs import (
    FlightRecorder,
    SLOEngine,
    default_serving_slos,
    format_flight_report,
    reconstruct_chain,
    set_flight_recorder,
    trace_ids_in_dump,
)
from repro.runtime import BatchRuntime
from repro.runtime.backends import get_backend
from repro.serving import (
    CoalescingEngine,
    LoadProfile,
    Request,
    generate_load,
)
from repro.telemetry import tracing
from tests.strategies import make_batch, make_rhs


def _request(tenant, seed, **kw):
    batch = make_batch(3, 12, seed=seed, dominant=True)
    return Request(
        tenant=tenant,
        batch=batch,
        kind="solve",
        rhs=make_rhs(batch, seed=seed + 1000),
        **kw,
    )


def _overload_run(runtime=None):
    """Drive an engine into an admitted-latency burn under a scripted
    clock; returns (dump, engine, slo)."""
    clock = ScriptedClock()
    slo = SLOEngine(
        default_serving_slos(
            latency_threshold=0.05,
            fast_window=1.0,
            slow_window=3.0,
            min_events=6,
        ),
        clock=clock,
    )
    rec = FlightRecorder(capacity=1024, clock=clock)
    set_flight_recorder(rec)  # deep layers funnel into the same box
    rec.attach_slo(slo)
    engine = CoalescingEngine(
        runtime=runtime or BatchRuntime(),
        clock=clock,
        slo=slo,
        flight=rec,
    )
    with tracing():
        for tick in range(6):
            for i in range(3):
                engine.submit(_request(f"tenant-{i}", 100 * tick + i))
            clock.advance(0.2)  # hold the queue past the SLO bound
            engine.flush()
    assert slo.firing() == ["admitted_latency"]
    assert len(rec.dumps) == 1
    return rec.dumps[0], engine, slo


class TestCausalChainReconstruction:
    def test_full_chain_of_an_admitted_request(self):
        dump, _, _ = _overload_run()
        # the dump is self-contained: reconstruct from its JSON form
        dump = json.loads(json.dumps(dump))
        trace_ids = trace_ids_in_dump(dump)
        assert trace_ids
        complete = 0
        for tid in trace_ids:
            chain = reconstruct_chain(dump, tid)
            if not chain["complete"]:
                continue
            complete += 1
            stages = {s["stage"]: s for s in chain["stages"]}
            assert set(stages) >= {
                "admission", "request", "queue", "launch", "deliver",
            }
            # every per-request stage carries the trace_id
            for name in ("admission", "request", "queue", "deliver"):
                assert stages[name]["attrs"]["trace_id"] == tid
            # fan-in: the shared launch does NOT carry this request's
            # trace_id - it is reachable only through the span link
            assert "trace_id" not in stages["launch"]["attrs"]
            assert chain["outcome"] == "delivered"
        assert complete > 0

    def test_launch_is_shared_across_coalesced_requests(self):
        dump, engine, _ = _overload_run()
        assert engine.stats["executions"] >= 1
        chains = [
            reconstruct_chain(dump, tid)
            for tid in trace_ids_in_dump(dump)
        ]
        launches = [
            next(
                s["span_id"]
                for s in c["stages"]
                if s["stage"] == "launch"
            )
            for c in chains
            if c["complete"]
        ]
        # more complete chains than distinct launches = fan-in worked
        assert len(set(launches)) < len(launches)

    def test_shed_request_chain_reconstructs_without_launch(self):
        clock = ScriptedClock()
        rec = FlightRecorder(capacity=256, clock=clock)
        engine = CoalescingEngine(
            runtime=BatchRuntime(),
            clock=clock,
            flight=rec,
            max_pending=1,
        )
        with tracing():
            admitted = engine.submit(_request("a", seed=1))
            shed = engine.submit(_request("b", seed=2))
            assert shed.done  # queue_full
            engine.flush()
            dump = rec.dump("manual")
        chain = reconstruct_chain(dump, shed.response.trace_id)
        # a rejected-at-admission request has only the admit span
        assert chain["outcome"] == "shed"
        assert [s["stage"] for s in chain["stages"]] == ["admission"]
        # its shed event is correlated into the chain by trace_id
        assert any(
            e["kind"] == "shed"
            and e["reason"] == "queue_full"
            for e in chain["events"]
        )
        ok = reconstruct_chain(dump, admitted.response.trace_id)
        assert ok["complete"] and ok["outcome"] == "delivered"

    def test_chaos_fault_lands_in_the_same_black_box(self):
        chaos = ChaosBackend(
            get_backend("binned"),
            [RaiseInjector("factorize", rate=1.0)],
            seed=0,
        )
        # a high breaker threshold keeps admissions open so every
        # request still travels the full path (via the numpy fallback)
        runtime = BatchRuntime(
            backend=chaos,
            fallback=("numpy",),
            breaker_threshold=10_000,
        )
        dump, _, _ = _overload_run(runtime=runtime)
        kinds = {e["kind"] for e in dump["events"]}
        # the executor's fallback (a deep runtime layer) recorded into
        # the same recorder the serving layer dumps from
        assert "runtime_fallback" in kinds
        # and requests still complete their causal chains via numpy
        assert any(
            reconstruct_chain(dump, tid)["complete"]
            for tid in trace_ids_in_dump(dump)
        )

    def test_report_formats_and_mentions_chain(self):
        dump, _, _ = _overload_run()
        text = format_flight_report(dump)
        assert "slo_burn:admitted_latency" in text
        assert "outcome=delivered [complete]" in text
        tid = trace_ids_in_dump(dump)[0]
        text_one = format_flight_report(dump, trace_id=tid)
        assert tid in text_one

    def test_dump_metrics_snapshot_present(self):
        dump, _, _ = _overload_run()
        assert "repro_slo_burn_rate" in dump["metrics"]
        np.testing.assert_allclose(
            dump["flight_recorder"]["horizon"], 30.0
        )


def _slo_request(tenant, seed):
    batch = random_batch(
        2, size_range=(8, 24), kind="diag_dominant", seed=seed
    )
    return Request(
        tenant=tenant,
        batch=batch,
        kind="solve",
        rhs=random_rhs(batch, seed=seed + 1),
    )


class TestBurnAlertGate:
    """Healthy -> overload -> recovery under one scripted clock: the
    overload phase holds every queued request past the 50 ms bound,
    so ``admitted_latency`` burns on both windows and fires exactly
    once; the attached recorder dumps exactly one black box."""

    WAVE = 4
    #: (phase, ticks, scripted queue wait per tick)
    PHASES = (
        ("healthy", 8, 0.01),
        ("overload", 6, 0.2),
        ("recovery", 10, 0.01),
    )

    def test_one_alert_one_dump_and_a_complete_chain(self):
        clock = ScriptedClock()
        slo = SLOEngine(
            default_serving_slos(
                latency_threshold=0.05,
                fast_window=1.0,
                slow_window=3.0,
                min_events=8,
            ),
            clock=clock,
        )
        flight = FlightRecorder(capacity=2048, horizon=60.0, clock=clock)
        flight.attach_slo(slo)
        engine = CoalescingEngine(
            runtime=BatchRuntime(),
            clock=clock,
            slo=slo,
            flight=flight,
        )
        rng = np.random.default_rng(0)
        alerts_after_healthy = None
        with tracing():
            for name, ticks, wait in self.PHASES:
                for tick in range(ticks):
                    for i in range(self.WAVE):
                        engine.submit(
                            _slo_request(
                                f"tenant-{(tick * self.WAVE + i) % 16:02d}",
                                int(rng.integers(2**31)),
                            )
                        )
                    clock.advance(wait)
                    engine.flush()
                    if name == "recovery":
                        # idle time between prompt flushes ages the
                        # overload samples out of the slow window
                        clock.advance(0.5)
                        engine.flush()
                if name == "healthy":
                    alerts_after_healthy = len(slo.alerts)
        firing = [a for a in slo.alerts if a["state"] == "firing"]
        resolved = [a for a in slo.alerts if a["state"] == "resolved"]
        assert alerts_after_healthy == 0
        assert len(firing) == 1
        assert sorted({a["slo"] for a in firing}) == ["admitted_latency"]
        assert len(resolved) == 1
        assert len(flight.dumps) == 1
        dump = flight.dumps[0]
        chains = [reconstruct_chain(dump, t) for t in trace_ids_in_dump(dump)]
        assert any(
            c["complete"] and c["outcome"] == "delivered" for c in chains
        )

    def test_enabled_observability_overhead_under_five_percent(self):
        # identical coalesced traffic with tracing + SLO engine +
        # flight recorder fully on vs fully off, in back-to-back
        # pairs; the best pairwise ratio cancels machine-load drift
        profile = LoadProfile(
            tenants=64,
            waves=3,
            requests_per_wave=24,
            blocks_min=8,
            blocks_max=16,
            size_min=16,
            size_max=32,
            repeat_fraction=0.0,
            seed=0,
        )
        waves = generate_load(profile)

        def run_once(obs_on):
            clock = ScriptedClock()
            slo = flight = None
            if obs_on:
                slo = SLOEngine(
                    default_serving_slos(latency_threshold=0.05),
                    clock=clock,
                )
                flight = FlightRecorder(capacity=4096, clock=clock)
                flight.attach_slo(slo)
            engine = CoalescingEngine(
                runtime=BatchRuntime(),
                clock=clock,
                slo=slo,
                flight=flight,
            )
            with tracing() if obs_on else contextlib.nullcontext():
                t0 = time.perf_counter()
                for wave in waves:
                    for req in wave:
                        engine.submit(req)
                    engine.flush()
                    clock.advance(profile.wave_seconds)
                return time.perf_counter() - t0

        pairs = [(run_once(False), run_once(True)) for _ in range(7)]
        overhead = max(0.0, min((e - d) / d for d, e in pairs if d > 0))
        assert overhead < 0.05
