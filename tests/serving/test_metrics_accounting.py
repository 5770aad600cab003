"""Metrics stay truthful under overload: the queue-depth gauge lands
on exactly 0 whenever the queue drains, and every shed path is
attributed to its structured reason."""

import pytest

from repro.serving import (
    CoalescingEngine,
    CoDelShedder,
    OverloadController,
    Request,
    ScriptedClock,
    TenantQuotas,
)
from repro.telemetry.metrics import get_metrics, set_metrics
from tests.strategies import make_batch, make_rhs


@pytest.fixture(autouse=True)
def fresh_registry():
    old = set_metrics(None)
    yield
    set_metrics(old)


def depth():
    return get_metrics().gauge("repro_serving_queue_depth").value()


def sheds(reason):
    return get_metrics().counter("repro_serving_sheds_total").value(
        reason=reason
    )


def solve_request(tenant="t0", nb=2, seed=0, **kw):
    batch = make_batch(nb, 8, seed=seed, dominant=True)
    return Request(
        tenant=tenant,
        batch=batch,
        kind="solve",
        rhs=make_rhs(batch, seed=seed + 1),
        **kw,
    )


class TestQueueDepthGauge:
    def test_tracks_submits_and_zeroes_after_flush(self):
        eng = CoalescingEngine(clock=ScriptedClock())
        eng.submit(solve_request(seed=1))
        assert depth() == 1
        eng.submit(solve_request(seed=2))
        assert depth() == 2
        eng.flush()
        assert depth() == 0

    def test_zeroes_after_queue_expiry_shed(self):
        clock = ScriptedClock()
        eng = CoalescingEngine(clock=clock)
        eng.submit(solve_request(seed=1, deadline=1.0))
        clock.advance(2.0)
        eng.flush()  # everything pending is shed, nothing executes
        assert depth() == 0

    def test_zeroes_after_close(self):
        eng = CoalescingEngine(clock=ScriptedClock())
        eng.submit(solve_request(seed=1))
        eng.submit(solve_request(seed=2))
        assert eng.close() == 2
        assert depth() == 0

    def test_deferred_backlog_is_visible_not_hidden(self):
        eng = CoalescingEngine(
            clock=ScriptedClock(), scheduling="edf", max_flush_blocks=2
        )
        for seed in range(3):
            eng.submit(solve_request(seed=seed))
        eng.flush()  # capacity admits one 2-block job, defers two
        assert depth() == 2
        eng.flush()
        assert depth() == 1
        eng.flush()
        assert depth() == 0

    def test_empty_flush_reasserts_zero(self):
        eng = CoalescingEngine(clock=ScriptedClock())
        eng.flush()
        assert depth() == 0


class TestShedReasonAttribution:
    def test_deadline_exceeded_counted_once_per_shed(self):
        clock = ScriptedClock(10.0)
        eng = CoalescingEngine(clock=clock)
        eng.submit(solve_request(seed=1, deadline=5.0))  # admission
        eng.submit(solve_request(seed=2, deadline=20.0))
        clock.advance(15.0)
        eng.flush()  # queue expiry
        assert sheds("deadline_exceeded") == 2

    def test_tenant_quota_exceeded_attributed(self):
        eng = CoalescingEngine(
            clock=ScriptedClock(),
            overload=OverloadController(
                quotas=TenantQuotas(2.0, burst_seconds=1.0)
            ),
        )
        eng.submit(solve_request(tenant="storm", seed=1))
        eng.submit(solve_request(tenant="storm", seed=2))
        assert sheds("tenant_quota_exceeded") == 1

    def test_overloaded_attributed(self):
        shedder = CoDelShedder(target=0.01, interval=0.05)
        shedder.on_sojourn(0.1, 0.0)
        shedder.on_sojourn(0.1, 0.1)  # force the dropping state
        eng = CoalescingEngine(
            clock=ScriptedClock(1.0),
            overload=OverloadController(shedder=shedder),
        )
        eng.submit(solve_request(seed=1))
        assert sheds("overloaded") == 1
