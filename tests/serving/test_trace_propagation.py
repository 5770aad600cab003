"""Trace-context propagation through the serving stack.

The headline regression: the tracer's span stack lives in a
``contextvars`` context, which ``asyncio.to_thread`` copies into its
worker thread - so the engine's ``serving.flush`` span parents under
the service-level ``serving.service.flush`` span even though the two
run on different threads.  (The old thread-local stack silently
dropped that edge.)  The rest pins the serving span topology: detached
per-request envelopes, fan-in links on the coalesced launch, fan-out
links on delivery.
"""

import asyncio

import pytest

from repro.serving import (
    CoalescingEngine,
    PreconditionerService,
    Request,
    ScriptedClock,
)
from repro.telemetry import Tracer, set_tracer, tracing
from tests.strategies import make_batch, make_rhs


def solve_request(tenant, nb=3, seed=0, **kw):
    batch = make_batch(nb, 12, seed=seed, dominant=True)
    return Request(
        tenant=tenant,
        batch=batch,
        kind="solve",
        rhs=make_rhs(batch, seed=seed + 1000),
        **kw,
    )


@pytest.fixture(autouse=True)
def _restore_tracer():
    yield
    set_tracer(None)


def _by_name(tr):
    out = {}
    for s in tr.spans() + tr.open_spans():
        out.setdefault(s.name, []).append(s)
    return out


class TestCrossThreadParentage:
    def test_worker_thread_flush_parents_under_service_span(self):
        """The satellite-1 regression: a flush running in
        ``asyncio.to_thread`` must keep the service span as parent."""

        async def main(tr):
            eng = CoalescingEngine()
            svc = PreconditionerService(eng, max_delay=60.0)
            fut = asyncio.ensure_future(
                svc.submit(solve_request("t", seed=1))
            )
            await asyncio.sleep(0)  # let the submit queue the job
            await svc.flush()
            return await fut

        with tracing() as tr:
            resp = asyncio.run(main(tr))
        assert resp.status == "ok"
        spans = _by_name(tr)
        (service_flush,) = spans["serving.service.flush"]
        (engine_flush,) = spans["serving.flush"]
        # different threads, same causal chain
        assert engine_flush.tid != service_flush.tid
        assert engine_flush.parent_id == service_flush.span_id
        assert service_flush.attrs["resolved"] == 1

    def test_launch_nests_under_cross_thread_flush(self):
        async def main():
            eng = CoalescingEngine()
            async with PreconditionerService(
                eng, max_delay=0.001
            ) as svc:
                return await svc.submit(solve_request("t", seed=2))

        with tracing() as tr:
            resp = asyncio.run(main())
        assert resp.status == "ok"
        spans = _by_name(tr)
        (launch,) = spans["serving.launch"]
        (engine_flush,) = spans["serving.flush"]
        assert launch.parent_id == engine_flush.span_id

    def test_request_spans_keep_the_threads_they_were_stamped_on(self):
        """Per-request spans are written from stamps when the trace is
        read; each still names the thread that did the work."""

        async def main():
            eng = CoalescingEngine()
            svc = PreconditionerService(eng, max_delay=60.0)
            fut = asyncio.ensure_future(
                svc.submit(solve_request("t", seed=5))
            )
            await asyncio.sleep(0)
            await svc.flush()
            return await fut

        with tracing() as tr:
            resp = asyncio.run(main())
        assert resp.status == "ok"
        spans = _by_name(tr)
        (service_flush,) = spans["serving.service.flush"]
        (engine_flush,) = spans["serving.flush"]
        (deliver,) = spans["serving.deliver"]
        submitted = [
            spans[name][0]
            for name in ("serving.admit", "serving.request", "serving.queue")
        ]
        # submit ran on the event loop, delivery in the flush worker
        assert {s.tid for s in submitted} == {service_flush.tid}
        assert deliver.tid == engine_flush.tid != service_flush.tid
        assert all(s.end is not None for s in submitted + [deliver])


class TestServingSpanTopology:
    def _run(self, n=3):
        clock = ScriptedClock()
        eng = CoalescingEngine(clock=clock)
        with tracing() as tr:
            tickets = [
                eng.submit(solve_request(f"t{i}", seed=i))
                for i in range(n)
            ]
            clock.advance(0.01)
            eng.flush()
        return tr, tickets

    def test_request_envelopes_are_detached_siblings(self):
        tr, tickets = self._run()
        spans = _by_name(tr)
        requests = spans["serving.request"]
        assert len(requests) == 3
        # sequential submits must not nest under one another
        ids = {s.span_id for s in requests}
        assert all(s.parent_id not in ids for s in requests)
        # every envelope is sealed with an outcome
        assert all(
            s.end is not None and s.attrs["outcome"] == "delivered"
            for s in requests
        )

    def test_queue_span_is_child_of_its_request(self):
        tr, _ = self._run()
        spans = _by_name(tr)
        by_id = {
            s.span_id: s
            for s in tr.spans() + tr.open_spans()
        }
        for q in spans["serving.queue"]:
            parent = by_id[q.parent_id]
            assert parent.name == "serving.request"
            assert parent.attrs["trace_id"] == q.attrs["trace_id"]

    def test_launch_links_every_merged_request(self):
        tr, tickets = self._run()
        spans = _by_name(tr)
        (launch,) = spans["serving.launch"]
        req_ids = {s.span_id for s in spans["serving.request"]}
        assert set(launch.links) == req_ids
        # the launch span itself is tenant-anonymous
        assert "trace_id" not in launch.attrs
        assert launch.attrs["requests"] == 3

    def test_deliver_fans_out_with_launch_link(self):
        tr, tickets = self._run()
        spans = _by_name(tr)
        (launch,) = spans["serving.launch"]
        by_id = {s.span_id: s for s in tr.spans() + tr.open_spans()}
        delivers = spans["serving.deliver"]
        assert len(delivers) == 3
        for d in delivers:
            assert d.links == [launch.span_id]
            assert by_id[d.parent_id].name == "serving.request"

    def test_scatter_and_coalesce_nest_in_launch(self):
        tr, _ = self._run()
        spans = _by_name(tr)
        (launch,) = spans["serving.launch"]
        (coalesce,) = spans["serving.coalesce"]
        (scatter,) = spans["serving.scatter"]
        assert coalesce.parent_id == launch.span_id
        assert scatter.parent_id == launch.span_id

    def test_trace_id_survives_queue_reordering(self):
        clock = ScriptedClock()
        eng = CoalescingEngine(clock=clock, scheduling="edf")
        with tracing() as tr:
            loose = eng.submit(
                solve_request("loose", seed=1, deadline=clock() + 60.0)
            )
            tight = eng.submit(
                solve_request("tight", seed=2, deadline=clock() + 50.0)
            )
            clock.advance(0.01)
            eng.flush()
        assert loose.response.status == "ok"
        assert tight.response.status == "ok"
        spans = _by_name(tr)
        for s in spans["serving.deliver"]:
            tenant = s.attrs["tenant"]
            ticket = {"loose": loose, "tight": tight}[tenant]
            assert s.attrs["trace_id"] == ticket.trace_id
            assert ticket.response.trace_id == ticket.trace_id

    def test_shed_request_envelope_seals_with_reason(self):
        clock = ScriptedClock()
        eng = CoalescingEngine(clock=clock)
        with tracing() as tr:
            t = eng.submit(
                solve_request("late", seed=3, deadline=clock() + 0.001)
            )
            clock.advance(10.0)  # deadline long gone
            eng.flush()
        assert t.response.status == "rejected"
        spans = _by_name(tr)
        (request,) = spans["serving.request"]
        assert request.attrs["outcome"] == "shed"
        assert request.attrs["reason"] == "deadline_exceeded"
        assert request.end is not None
        # queue span sealed too: no dangling open spans
        assert tr.open_spans() == []

    def test_disabled_tracer_costs_no_spans(self):
        clock = ScriptedClock()
        eng = CoalescingEngine(clock=clock)
        t = eng.submit(solve_request("t", seed=4))
        eng.flush()
        assert t.response.status == "ok"
        assert t.span is None and t.queue_span is None
