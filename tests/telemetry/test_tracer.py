"""Span tracer unit tests: fake clock, nesting, threads, null path."""

import threading

import pytest

from repro.telemetry import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    get_tracer,
    set_tracer,
    tracing,
)
from repro.telemetry.tracer import _NULL_SPAN


class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestSpans:
    def test_durations_from_injected_clock(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        with tr.span("outer"):
            clock.advance(2.0)
        (span,) = tr.spans()
        assert span.name == "outer"
        assert span.start == 0.0  # relative to construction
        assert span.duration == 2.0

    def test_nesting_parents_follow_the_stack(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("a") as a:
            with tr.span("b") as b:
                with tr.span("c") as c:
                    pass
        assert a.parent_id is None
        assert b.parent_id == a.span_id
        assert c.parent_id == b.span_id

    def test_attributes_at_open_and_en_route(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("s", backend="binned") as sp:
            sp.set(cache_hit=True)
        assert sp.attrs == {"backend": "binned", "cache_hit": True}

    def test_end_attrs_and_idempotence(self):
        tr = Tracer(clock=FakeClock())
        sp = tr.begin("s")
        tr.end(sp, outcome="ok")
        tr.end(sp, outcome="overwritten?")  # second end is a no-op
        assert sp.attrs == {"outcome": "ok"}
        assert len(tr.spans()) == 1

    def test_end_unwinds_deeper_spans(self):
        # an exception that skips inner end() calls must not leave the
        # per-thread stack unbalanced
        clock = FakeClock()
        tr = Tracer(clock=clock)
        outer = tr.begin("outer")
        tr.begin("inner1")
        tr.begin("inner2")
        clock.advance(1.0)
        tr.end(outer)
        assert not tr.open_spans()
        names = {s.name for s in tr.spans()}
        assert names == {"outer", "inner1", "inner2"}
        # a fresh span opens at the root again
        with tr.span("next") as sp:
            pass
        assert sp.parent_id is None

    def test_exception_inside_with_block_still_seals(self):
        tr = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tr.span("boom"):
                raise RuntimeError("x")
        (span,) = tr.spans()
        assert span.end is not None

    def test_events_parent_to_innermost_open_span(self):
        tr = Tracer(clock=FakeClock())
        tr.event("orphan")
        with tr.span("s") as sp:
            tr.event("child", i=3)
        orphan, child = tr.events()
        assert orphan["parent_id"] is None
        assert child["parent_id"] == sp.span_id
        assert child["attrs"] == {"i": 3}

    def test_threads_get_independent_stacks(self):
        tr = Tracer(clock=FakeClock())
        done = threading.Event()

        def worker():
            with tr.span("worker.outer"):
                with tr.span("worker.inner"):
                    pass
            done.set()

        with tr.span("main"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert done.is_set()
        by_name = {s.name: s for s in tr.spans()}
        # the worker's root is NOT parented to the main thread's span
        assert by_name["worker.outer"].parent_id is None
        assert (
            by_name["worker.inner"].parent_id
            == by_name["worker.outer"].span_id
        )
        assert by_name["worker.outer"].tid != by_name["main"].tid

    def test_clear(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("s"):
            tr.event("e")
        tr.clear()
        assert tr.spans() == [] and tr.events() == []


class TestContextPropagation:
    def test_copied_context_carries_parentage(self):
        # the span stack lives in a contextvar, so a copied context
        # (what asyncio.to_thread does) preserves the parent edge
        # even across threads
        import contextvars

        tr = Tracer(clock=FakeClock())
        outer = tr.begin("outer")
        ctx = contextvars.copy_context()
        results = []

        def worker():
            child = ctx.run(lambda: tr.begin("child"))
            ctx.run(lambda: tr.end(child))
            results.append(child)

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        tr.end(outer)
        assert results[0].parent_id == outer.span_id

    def test_current_span(self):
        tr = Tracer(clock=FakeClock())
        assert tr.current_span() is None
        with tr.span("a") as a:
            assert tr.current_span() is a
            with tr.span("b") as b:
                assert tr.current_span() is b
            assert tr.current_span() is a
        assert tr.current_span() is None

    def test_detached_span_is_not_an_ancestor(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("ctx"):
            d = tr.begin("envelope", detached=True)
            with tr.span("inner") as inner:
                pass
            tr.end(d)
        # detached spans still record their parent but never become
        # one through the stack
        assert d.parent_id is not None
        assert inner.parent_id != d.span_id

    def test_explicit_parent_override(self):
        tr = Tracer(clock=FakeClock())
        a = tr.begin("a", detached=True)
        b = tr.begin("b", parent=a, detached=True)
        assert b.parent_id == a.span_id
        tr.end(b)
        tr.end(a)

    def test_ending_foreign_span_does_not_unwind_stack(self):
        tr = Tracer(clock=FakeClock())
        d = tr.begin("detached", detached=True)
        with tr.span("live") as live:
            tr.end(d, outcome="done")  # seals only the foreign span
            assert d.end is not None
            assert tr.current_span() is live
        assert live.end is not None


class TestLinks:
    def test_add_link_records_span_ids(self):
        tr = Tracer(clock=FakeClock())
        a = tr.begin("a", detached=True)
        b = tr.begin("b", detached=True)
        launch = tr.begin("launch", detached=True)
        launch.add_link(a)
        launch.add_link(b.span_id)
        launch.add_link(a)  # dedup
        launch.add_link(None)  # ignored
        for s in (launch, b, a):
            tr.end(s)
        assert launch.links == [a.span_id, b.span_id]

    def test_null_span_accepts_links(self):
        span = NULL_TRACER.begin("x", detached=True)
        span.add_link(span)
        span.finish()
        assert span is _NULL_SPAN


class TestStamps:
    def test_record_writes_spans_from_earlier_stamps(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        start = tr.now()
        clock.advance(1.0)
        mid = tr.now()
        clock.advance(2.0)
        with tr.span("ambient"):
            done = tr.record("done", start=start, end=mid, k=1)
            env = tr.record("env", start=start, parent=done, tid=7)
        assert (done.start, done.end, done.attrs) == (0.0, 1.0, {"k": 1})
        # explicit parentage only: None is a root, never the ambient span
        assert done.parent_id is None
        assert env.parent_id == done.span_id and env.tid == 7
        assert env in tr.open_spans() and done in tr.spans()
        tr.end_at(env, mid, outcome="ok")
        tr.end_at(env, 99.0)  # idempotent
        assert (env.end, env.attrs) == (1.0, {"outcome": "ok"})
        assert not tr.open_spans()

    def test_deferred_writes_run_in_order_before_any_read(self):
        tr = Tracer(clock=FakeClock())
        start = tr.now()
        written = []
        for name in ("a", "b"):
            tr.defer(
                lambda t, name=name: written.append(
                    t.record(name, start=start, end=start)
                )
            )
        assert written == []  # nothing runs until the tracer is read
        assert [s.name for s in tr.spans()] == ["a", "b"]
        assert tr.spans() == written  # each write runs once

    def test_deferred_open_span_is_seen_open(self):
        tr = Tracer(clock=FakeClock())
        tr.defer(lambda t: t.record("open", start=t.now()))
        assert [s.name for s in tr.open_spans()] == ["open"]

    def test_clear_drops_pending_writes(self):
        tr = Tracer(clock=FakeClock())
        tr.defer(lambda t: t.record("x", start=0.0, end=0.0))
        tr.clear()
        assert tr.spans() == []

    def test_null_tracer_stamps_are_no_ops(self):
        assert NULL_TRACER.now() == 0.0
        assert NULL_TRACER.current_tid() == 0
        assert NULL_TRACER.record("x", start=0.0) is _NULL_SPAN
        assert NULL_TRACER.end_at(_NULL_SPAN, 1.0) is None
        assert NULL_TRACER.defer(lambda t: None) is None


class TestGlobals:
    def test_default_is_null(self):
        assert get_tracer() is NULL_TRACER
        assert not get_tracer().enabled

    def test_set_and_restore(self):
        tr = Tracer()
        assert set_tracer(tr) is tr
        assert get_tracer() is tr
        set_tracer(None)
        assert get_tracer() is NULL_TRACER

    def test_tracing_scope_restores_previous(self):
        outer = Tracer()
        set_tracer(outer)
        with tracing() as tr:
            assert get_tracer() is tr
            assert tr is not outer
        assert get_tracer() is outer

    def test_tracing_restores_on_exception(self):
        with pytest.raises(ValueError):
            with tracing():
                raise ValueError("x")
        assert get_tracer() is NULL_TRACER


class TestNullTracer:
    def test_shared_singleton_span(self):
        null = NullTracer()
        assert null.span("a") is _NULL_SPAN
        assert null.begin("b") is _NULL_SPAN
        assert _NULL_SPAN.set(x=1) is _NULL_SPAN
        assert _NULL_SPAN.event("e") is None
        with null.span("c") as sp:
            assert sp is _NULL_SPAN

    def test_collections_empty(self):
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.events() == []
        assert NULL_TRACER.open_spans() == []
        assert NULL_TRACER.end(_NULL_SPAN) is None
        assert NULL_TRACER.clear() is None
