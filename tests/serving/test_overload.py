"""Deadline-aware overload control: EDF scheduling, quotas and CoDel
shedding - all under scripted clocks."""

import numpy as np
import pytest

from repro.core.random_batches import random_batch, random_rhs
from repro.runtime import BatchRuntime
from repro.serving import (
    ClientPolicy,
    ClosedLoopClient,
    CoalescingEngine,
    CoDelShedder,
    OverloadController,
    Request,
    ScriptedClock,
    TenantQuotas,
    TokenBucket,
)
from tests.strategies import make_batch, make_rhs


def solve_request(tenant="t0", nb=2, max_size=8, seed=0, **kw):
    batch = make_batch(nb, max_size, seed=seed, dominant=True)
    return Request(
        tenant=tenant,
        batch=batch,
        kind="solve",
        rhs=make_rhs(batch, seed=seed + 1000),
        **kw,
    )


class TickingClock:
    """Advances by ``step`` on every read - the stub that lets a
    single flush observe time passing between its entry and the
    scatter-back audit."""

    def __init__(self, start=0.0, step=0.02):
        self.now = start
        self.step = step

    def __call__(self):
        t = self.now
        self.now += self.step
        return t


class TestTokenBucket:
    def test_grants_until_burst_then_hints_refill(self):
        b = TokenBucket(rate=10.0, burst=5.0)
        assert b.try_take(5, now=0.0) == 0.0
        hint = b.try_take(5, now=0.0)
        assert hint == pytest.approx(0.5)
        # the failed take must not have drained anything
        assert b.tokens == 0.0
        # after the hinted wait the same take succeeds
        assert b.try_take(5, now=0.5) == 0.0

    def test_refill_caps_at_burst(self):
        b = TokenBucket(rate=100.0, burst=4.0)
        assert b.try_take(4, now=0.0) == 0.0
        assert b.try_take(4, now=1000.0) == 0.0  # not 100k tokens

    def test_validates(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=float("nan"), burst=1.0)

    def test_take_larger_than_burst_needs_a_full_bucket_and_pays(self):
        b = TokenBucket(rate=10.0, burst=1.0)
        # a full bucket admits it and is charged all four tokens
        assert b.try_take(4, now=0.0) == 0.0
        assert b.tokens == pytest.approx(-3.0)
        # the hint is the time until the bucket is full again
        assert b.try_take(4, now=0.0) == pytest.approx(0.4)
        assert b.try_take(4, now=0.2) == pytest.approx(0.2)
        assert b.try_take(4, now=0.4) == 0.0


class TestTenantQuotas:
    def test_fair_share_and_weights(self):
        q = TenantQuotas(10.0, burst_seconds=1.0, weights={"vip": 3.0})
        assert q.admit("plain", 10, now=0.0) == 0.0
        assert q.admit("plain", 10, now=0.0) > 0.0
        # the vip's 3x weight buys a 3x bucket
        assert q.admit("vip", 30, now=0.0) == 0.0
        assert q.denied == {"plain": 1}

    def test_min_burst_keeps_jobs_admissible(self):
        # fair share 1 block/s with a 0.1 s burst would cap the bucket
        # at 0.1 blocks - below any real job - without the floor
        q = TenantQuotas(1.0, burst_seconds=0.1, min_burst=2.0)
        assert q.admit("t", 2, now=0.0) == 0.0

    def test_isolation_between_tenants(self):
        q = TenantQuotas(5.0, burst_seconds=1.0)
        assert q.admit("storm", 5, now=0.0) == 0.0
        assert q.admit("storm", 5, now=0.0) > 0.0
        # the storm's exhaustion does not touch the neighbour
        assert q.admit("calm", 5, now=0.0) == 0.0

    def test_job_larger_than_burst_does_not_skip_the_quota(self):
        q = TenantQuotas(10.0, burst_seconds=0.1)  # a 1-block burst
        verdicts = [q.admit("a", 4, now=0.0) == 0.0 for _ in range(5)]
        assert verdicts == [True, False, False, False, False]
        assert q.denied == {"a": 4}
        # offered far above the share for 10 s, 4-block jobs are
        # admitted at the fair share of 10 blocks/s, not for free
        admitted = sum(
            4 for k in range(1, 1000)
            if q.admit("b", 4, now=k * 0.01) == 0.0
        )
        assert 96 <= admitted <= 104

    def test_rejects_values_it_cannot_use(self):
        nan, inf = float("nan"), float("inf")
        for kw in (
            {"fair_share_blocks_per_s": 0.0},
            {"fair_share_blocks_per_s": nan},
            {"fair_share_blocks_per_s": inf},
            {"burst_seconds": -1.0},
            {"burst_seconds": nan},
            {"weights": {"a": 0.0}},
            {"weights": {"a": nan}},
            {"weights": {"a": -2.0}},
            {"min_burst": -1.0},
            {"min_burst": nan},
            {"min_burst": inf},
        ):
            with pytest.raises(ValueError):
                TenantQuotas(**{"fair_share_blocks_per_s": 100.0, **kw})


class TestCoDelShedder:
    def test_enters_dropping_after_sustained_sojourn(self):
        s = CoDelShedder(target=0.01, interval=0.1)
        s.on_sojourn(0.05, now=0.0)
        assert not s.dropping
        s.on_sojourn(0.05, now=0.05)
        assert not s.dropping  # standing for only half the interval
        s.on_sojourn(0.05, now=0.1)
        assert s.dropping

    def test_short_bursts_pass_untouched(self):
        s = CoDelShedder(target=0.01, interval=0.1)
        s.on_sojourn(0.05, now=0.0)
        s.on_sojourn(0.001, now=0.05)  # queue drained: reset
        s.on_sojourn(0.05, now=0.09)
        assert not s.dropping
        assert not s.should_shed(0.09)

    def test_drop_cadence_accelerates(self):
        s = CoDelShedder(target=0.01, interval=0.1)
        s.on_sojourn(0.05, 0.0)
        s.on_sojourn(0.05, 0.1)
        assert s.should_shed(0.1)  # first drop
        assert not s.should_shed(0.15)  # next at 0.1 + 0.1/sqrt(1)
        assert s.should_shed(0.2)
        # third drop due at 0.2 + 0.1/sqrt(2) ~ 0.2707
        assert not s.should_shed(0.27)
        assert s.should_shed(0.271)

    def test_recovers_when_sojourn_falls(self):
        s = CoDelShedder(target=0.01, interval=0.1)
        s.on_sojourn(0.05, 0.0)
        s.on_sojourn(0.05, 0.1)
        assert s.dropping
        s.on_sojourn(0.001, 0.2)
        assert not s.dropping
        assert not s.should_shed(0.2)

    def test_rejects_values_it_cannot_use(self):
        for target, interval in (
            (0.0, 0.1), (float("nan"), 0.1), (float("inf"), 0.1),
            (0.01, -0.1), (0.01, float("nan")), (0.01, float("inf")),
        ):
            with pytest.raises(ValueError):
                CoDelShedder(target=target, interval=interval)


class TestEdfScheduling:
    def _capacity_engine(self, clock, scheduling="edf", nb=2):
        # capacity of exactly one nb-block job per flush
        return CoalescingEngine(
            clock=clock, scheduling=scheduling, max_flush_blocks=nb
        )

    def test_earliest_deadline_runs_first(self):
        clock = ScriptedClock()
        eng = self._capacity_engine(clock)
        late = eng.submit(solve_request(seed=1, deadline=9.0))
        soon = eng.submit(solve_request(seed=2, deadline=1.0))
        eng.flush()
        assert soon.done and soon.response.status == "ok"
        assert not late.done  # deferred behind the capacity bound
        assert eng.stats["deferred"] == 1
        eng.flush()
        assert late.done

    def test_deadline_less_jobs_run_last(self):
        clock = ScriptedClock()
        eng = self._capacity_engine(clock)
        open_ended = eng.submit(solve_request(seed=1))
        dated = eng.submit(solve_request(seed=2, deadline=5.0))
        eng.flush()
        assert dated.done and not open_ended.done

    def test_priority_breaks_deadline_ties(self):
        clock = ScriptedClock()
        eng = self._capacity_engine(clock)
        mild = eng.submit(solve_request(seed=1, deadline=1.0, priority=5))
        urgent = eng.submit(solve_request(seed=2, deadline=1.0, priority=0))
        eng.flush()
        assert urgent.done and not mild.done

    def test_fifo_baseline_ignores_deadlines(self):
        clock = ScriptedClock()
        eng = self._capacity_engine(clock, scheduling="fifo")
        first = eng.submit(solve_request(seed=1, deadline=9.0))
        second = eng.submit(solve_request(seed=2, deadline=1.0))
        eng.flush()
        assert first.done and not second.done

    def test_expired_at_admission(self):
        clock = ScriptedClock(start=10.0)
        eng = CoalescingEngine(clock=clock)
        t = eng.submit(solve_request(deadline=5.0))
        assert t.done
        assert t.response.rejection.reason == "deadline_exceeded"
        assert t.response.rejection.detail["stage"] == "admission"

    def test_expired_in_queue_shed_at_flush(self):
        clock = ScriptedClock()
        eng = CoalescingEngine(clock=clock)
        t = eng.submit(solve_request(deadline=1.0))
        assert not t.done
        clock.advance(2.0)
        responses = eng.flush()
        assert t.done
        assert t.response.rejection.reason == "deadline_exceeded"
        assert t.response.rejection.detail["stage"] == "queue"
        assert [r.rejection.reason for r in responses] == [
            "deadline_exceeded"
        ]
        assert eng.stats["executions"] == 0  # never launched

    def test_delivery_audit_never_serves_late(self):
        # the ticking clock passes the flush-entry expiry check but
        # crosses the deadline by scatter-back time
        clock = TickingClock(step=0.02)
        eng = CoalescingEngine(clock=clock)
        t = eng.submit(solve_request(deadline=0.05))
        eng.flush()
        assert t.done
        assert t.response.status == "rejected"
        assert t.response.rejection.reason == "deadline_exceeded"
        assert t.response.rejection.detail["stage"] == "delivery"
        assert eng.stats["late_deliveries_prevented"] == 1
        # the work itself ran - only the late delivery was refused
        assert eng.stats["executions"] == 1

    def test_ok_responses_carry_delivery_stamp_within_deadline(self):
        clock = ScriptedClock()
        eng = CoalescingEngine(clock=clock)
        t = eng.submit(solve_request(deadline=1.0))
        eng.flush()
        assert t.response.status == "ok"
        assert t.response.delivered_at is not None
        assert t.response.delivered_at <= 1.0

    def test_fifo_delivers_late_without_audit(self):
        clock = TickingClock(step=0.02)
        eng = CoalescingEngine(clock=clock, scheduling="fifo")
        t = eng.submit(solve_request(deadline=0.05))
        eng.flush()
        assert t.response.status == "ok"  # the baseline's failure mode
        assert t.response.delivered_at > 0.05

    def test_rejects_unknown_scheduling(self):
        with pytest.raises(ValueError, match="scheduling"):
            CoalescingEngine(scheduling="lifo")


class TestQuotaAndCodelInEngine:
    def test_storm_tenant_shed_with_retry_hint(self):
        clock = ScriptedClock()
        eng = CoalescingEngine(
            clock=clock,
            overload=OverloadController(
                quotas=TenantQuotas(4.0, burst_seconds=1.0)
            ),
        )
        ok = eng.submit(solve_request(tenant="storm", nb=4, seed=1))
        assert not ok.done
        shed = eng.submit(solve_request(tenant="storm", nb=4, seed=2))
        assert shed.done
        rej = shed.response.rejection
        assert rej.reason == "tenant_quota_exceeded"
        assert rej.retry_after and rej.retry_after > 0.0
        # a different tenant is untouched by the storm's exhaustion
        calm = eng.submit(solve_request(tenant="calm", nb=4, seed=3))
        assert not calm.done
        assert eng.stats["rejected"] == {"tenant_quota_exceeded": 1}

    def test_codel_sheds_while_dropping(self):
        clock = ScriptedClock()
        shedder = CoDelShedder(target=0.01, interval=0.05)
        eng = CoalescingEngine(
            clock=clock, overload=OverloadController(shedder=shedder)
        )
        # stand a queue: the job sits 0.1 s before its flush, twice,
        # spanning more than one interval
        for _ in range(2):
            eng.submit(solve_request(seed=7))
            clock.advance(0.1)
            eng.flush()
        assert shedder.dropping
        t = eng.submit(solve_request(seed=8))
        assert t.done
        assert t.response.rejection.reason == "overloaded"
        assert t.response.rejection.retry_after > 0.0


class TestScriptedDeterminism:
    def _trace(self, seed):
        """One scripted overload session; returns every observable
        decision in order."""
        clock = ScriptedClock()
        eng = CoalescingEngine(
            clock=clock,
            scheduling="edf",
            max_flush_blocks=4,
            overload=OverloadController(
                quotas=TenantQuotas(
                    40.0, burst_seconds=0.2, min_burst=2
                ),
                shedder=CoDelShedder(target=0.02, interval=0.05),
            ),
        )
        rng = np.random.default_rng(seed)
        log = []
        tickets = []
        for step in range(40):
            for j in range(int(rng.integers(1, 4))):
                req = solve_request(
                    tenant=f"t{int(rng.integers(3))}",
                    seed=1000 * step + j,
                    deadline=clock() + float(rng.choice([0.05, 0.2])),
                    priority=int(rng.integers(2)),
                )
                t = eng.submit(req)
                tickets.append(t)
                if t.done:
                    log.append(("reject", t.response.rejection.reason))
            eng.flush()
            log.append(("pending", eng.pending))
            clock.advance(0.01)
        for t in tickets:
            if t.done:
                r = t.response
                log.append(
                    (
                        r.status,
                        r.rejection.reason if r.rejection else None,
                        round(r.queue_seconds, 9),
                    )
                )
        log.append(("stats", {
            k: v for k, v in eng.stats.items()
            if k != "applies"
        }))
        return log

    def test_same_scripted_trace_is_bit_identical(self):
        assert self._trace(7) == self._trace(7)

    def test_different_seeds_differ(self):
        # guards against the trace accidentally logging nothing
        assert self._trace(7) != self._trace(8)


# -- overload gate: FIFO vs EDF+quota under a closed-loop client storm ----

#: flush period (seconds) and blocks executed per flush: the capacity
#: model is OVERLOAD_CAPACITY / OVERLOAD_DT blocks per second
OVERLOAD_DT = 0.01
OVERLOAD_CAPACITY = 6
OVERLOAD_JOB_BLOCKS = 2
OVERLOAD_THINK = 0.08
OVERLOAD_DEADLINE = 0.1
#: admitted-latency SLO the gate holds EDF to (queue p99, seconds)
OVERLOAD_SLO = 0.05
#: fleet size is 20 clients per offered-load level
OVERLOAD_CLIENTS_PER_LEVEL = 20
#: window the fleet's first arrivals are spread over (seconds)
OVERLOAD_STAGGER = 0.3


def _overload_engine(policy, clock, n_clients):
    """``fifo``: admission order, no deadline awareness, no overload
    controller.  ``edf``: deadline-aware scheduling plus quotas and
    CoDel."""
    capacity_bps = OVERLOAD_CAPACITY / OVERLOAD_DT
    overload = None
    if policy == "edf":
        overload = OverloadController(
            quotas=TenantQuotas(
                # hold aggregate admissions under capacity so the
                # standing queue drains instead of growing
                0.85 * capacity_bps / max(1, n_clients),
                burst_seconds=0.15,
                min_burst=OVERLOAD_JOB_BLOCKS,
            ),
            shedder=CoDelShedder(target=0.02, interval=0.05),
        )
    return CoalescingEngine(
        runtime=BatchRuntime(),
        max_pending=4096,
        clock=clock,
        scheduling=policy,
        overload=overload,
        max_flush_blocks=OVERLOAD_CAPACITY,
    )


def _overload_job(rng):
    batch = random_batch(
        OVERLOAD_JOB_BLOCKS,
        size_range=(4, 16),
        kind="diag_dominant",
        seed=int(rng.integers(2**31)),
    )
    return Request(
        tenant="placeholder",
        batch=batch,
        kind="solve",
        rhs=random_rhs(batch, seed=int(rng.integers(2**31))),
    )


def _run_overload_level(policy, level, ticks, seed):
    """One (discipline, offered-load) cell under a scripted clock;
    returns (late deliveries, admitted queue-wait p99 in seconds)."""
    clock = ScriptedClock()
    n_clients = OVERLOAD_CLIENTS_PER_LEVEL * level
    engine = _overload_engine(policy, clock, n_clients)
    clients = [
        ClosedLoopClient(
            f"client-{i:03d}",
            engine,
            clock,
            _overload_job,
            policy=ClientPolicy(),
            think_seconds=OVERLOAD_THINK,
            deadline_seconds=OVERLOAD_DEADLINE,
            # half the fleet is deprioritised: priority breaks EDF's
            # deadline ties
            priority=i % 2,
            # spread first arrivals so the t=0 thundering herd does
            # not pollute the steady-state percentiles
            start_delay=(i / n_clients) * OVERLOAD_STAGGER,
            seed=seed * 10_007 + i,
        )
        for i in range(n_clients)
    ]
    for _ in range(ticks):
        for c in clients:
            c.tick()
        engine.flush()
        clock.advance(OVERLOAD_DT)
    late = sum(c.stats["violations"] for c in clients)
    waits = [w for c in clients for w in c.queue_seconds]
    p99 = float(np.percentile(waits, 99)) if waits else 0.0
    return late, p99


class TestOverloadGate:
    def test_edf_holds_slo_at_twice_fifo_knee(self):
        # Known weakness, kept as-is: the predicate moved unchanged.
        # FIFO's level-2 "violation" is a queue p99 of
        # 0.050000000000000044 s against the 0.05 s bound - exactly
        # five 10 ms ticks, over the bound only by float accumulation
        # in ScriptedClock.  With exact tick arithmetic FIFO first
        # violates at level 4 (p99 180 ms) and EDF's p99 at level 8 is
        # 100 ms, so EDF holds the SLO at 1x FIFO's knee, not 2x.
        # Loosening the gate is not allowed and tightening it would
        # fail on unchanged behaviour; the open item is on ROADMAP.
        levels, ticks, seed = (1, 2, 4), 150, 0
        curves = {
            policy: [
                _run_overload_level(policy, level, ticks, seed)
                for level in levels
            ]
            for policy in ("fifo", "edf")
        }
        fifo_knee = next(
            (
                level
                for level, (late, p99) in zip(levels, curves["fifo"])
                if late > 0 or p99 > OVERLOAD_SLO
            ),
            None,
        )
        edf_held = max(
            (
                level
                for level, (_, p99) in zip(levels, curves["edf"])
                if p99 <= OVERLOAD_SLO
            ),
            default=0,
        )
        assert all(late == 0 for late, _ in curves["edf"])
        assert fifo_knee is not None
        assert edf_held >= 2 * fifo_knee
