"""Tests for the coalescing engine: admission, batching, scatter-back,
backpressure, and fault containment - all under scripted clocks."""

import numpy as np
import pytest

from repro.chaos import ChaosBackend, RaiseInjector, poison_cache
from repro.runtime import BatchRuntime
from repro.runtime.backends import get_backend
from repro.serving import (
    REJECT_REASONS,
    CoalescingEngine,
    LoadProfile,
    Rejection,
    Request,
    ScriptedClock,
    TenantCacheShards,
    generate_load,
)
from tests.strategies import make_batch, make_rhs

#: coalesced responses of the load run re-run solo in the leak audit
LEAK_SAMPLE = 24


def solve_request(tenant, nb=3, max_size=12, seed=0, **kw):
    batch = make_batch(nb, max_size, seed=seed, dominant=True)
    return Request(
        tenant=tenant,
        batch=batch,
        kind="solve",
        rhs=make_rhs(batch, seed=seed + 1000),
        **kw,
    )


def _serve_load(mode, waves, profile):
    """Serve the waves under one discipline: ``naive`` flushes after
    every submit, ``coalesced`` once per wave, ``coalesced_cached``
    once per wave with tenant cache shards.  Returns the coalescing
    ratio and the (request, response) pairs."""
    clock = ScriptedClock()
    shards = (
        TenantCacheShards(
            per_tenant_entries=4,
            ttl_seconds=60.0,
            per_tenant_bytes=1 << 22,
            clock=clock,
        )
        if mode == "coalesced_cached"
        else None
    )
    engine = CoalescingEngine(
        runtime=BatchRuntime(), shards=shards, clock=clock
    )
    pairs = []
    for wave in waves:
        tickets = []
        for req in wave:
            ticket = engine.submit(req)
            tickets.append((req, ticket))
            if mode == "naive" and not ticket.done:
                engine.flush()
        if mode != "naive":
            engine.flush()
        pairs.extend((req, t.response) for req, t in tickets if t.done)
        clock.advance(profile.wave_seconds)
    return engine.coalescing_ratio, pairs


@pytest.fixture(scope="module")
def quick_load():
    """The three disciplines over identical seeded traffic: 200
    tenants, 6 waves of 16 requests."""
    profile = LoadProfile(
        tenants=200, waves=6, requests_per_wave=16, seed=0
    )
    waves = generate_load(profile)
    return {
        mode: _serve_load(mode, waves, profile)
        for mode in ("naive", "coalesced", "coalesced_cached")
    }


class TestAdmission:
    def test_rejection_validates_reason(self):
        with pytest.raises(ValueError, match="unknown rejection"):
            Rejection("bogus")
        r = Rejection("queue_full", {"depth": 3})
        assert r.to_dict() == {
            "reason": "queue_full", "detail": {"depth": 3},
            "retry_after": None, "trace_id": None,
        }
        assert set(REJECT_REASONS) >= {"queue_full", "circuit_open"}

    def test_invalid_requests_shed_with_problem(self):
        eng = CoalescingEngine()
        batch = make_batch(2, 8, seed=0, dominant=True)
        cases = [
            Request(tenant="t", batch=batch, kind="solve"),  # no rhs
            Request(tenant="t", batch=batch, kind="warp"),  # bad kind
            Request(  # geometry mismatch
                tenant="t",
                batch=batch,
                kind="solve",
                rhs=make_rhs(make_batch(3, 8, seed=1, dominant=True), 2),
            ),
            Request(  # setup with rhs
                tenant="t",
                batch=batch,
                kind="setup",
                rhs=make_rhs(batch, seed=2),
            ),
        ]
        for req in cases:
            t = eng.submit(req)
            assert t.done
            assert t.response.status == "rejected"
            assert t.response.rejection.reason == "invalid_request"
            assert t.response.rejection.detail["problem"]
        assert eng.stats["rejected"]["invalid_request"] == len(cases)
        assert eng.stats["submitted"] == 0  # shed before admission

    def test_batch_too_large_is_structured(self):
        eng = CoalescingEngine(max_batch_blocks=4)
        t = eng.submit(solve_request("t", nb=5))
        assert t.response.rejection.reason == "batch_too_large"
        assert t.response.rejection.detail["max_batch_blocks"] == 4

    def test_queue_full_backpressure(self):
        eng = CoalescingEngine(max_pending=2)
        t1 = eng.submit(solve_request("a", seed=1))
        t2 = eng.submit(solve_request("b", seed=2))
        t3 = eng.submit(solve_request("c", seed=3))
        assert not t1.done and not t2.done
        assert t3.response.rejection.reason == "queue_full"
        # a flush drains the queue and admission resumes
        eng.flush()
        t4 = eng.submit(solve_request("d", seed=4))
        assert not t4.done

    def test_circuit_open_sheds_new_work(self):
        clock = ScriptedClock()
        rt = BatchRuntime(
            backend="binned",
            fallback=("numpy",),
            breaker_threshold=1,
            breaker_cooldown=100.0,
            clock=clock,
        )
        rt.breakers.breaker("binned").record_failure()  # trip it open
        eng = CoalescingEngine(runtime=rt, clock=clock)
        t = eng.submit(solve_request("t"))
        assert t.response.rejection.reason == "circuit_open"
        # cooldown elapses -> half-open probes are allowed again
        clock.advance(101.0)
        t2 = eng.submit(solve_request("t"))
        assert not t2.done

    def test_close_strands_pending_as_not_running(self):
        eng = CoalescingEngine()
        t1 = eng.submit(solve_request("a", seed=1))
        assert eng.close() == 1
        assert t1.response.rejection.reason == "not_running"
        t2 = eng.submit(solve_request("b", seed=2))
        assert t2.response.rejection.reason == "not_running"


class TestCoalescing:
    def test_flush_preserves_admission_order(self):
        clock = ScriptedClock()
        eng = CoalescingEngine(clock=clock)
        reqs = [solve_request(f"t{i}", seed=i) for i in range(5)]
        tickets = []
        for i, req in enumerate(reqs):
            tickets.append(eng.submit(req))
            clock.advance(1.0)
        responses = eng.flush()
        assert [r.tenant for r in responses] == [
            f"t{i}" for i in range(5)
        ]
        # queue age under the scripted clock: first in waits longest
        assert [r.queue_seconds for r in responses] == [
            5.0, 4.0, 3.0, 2.0, 1.0,
        ]
        assert all(t.response is r for t, r in zip(tickets, responses))
        assert responses[0].coalesced_requests == 5
        assert eng.stats["executions"] == 1
        assert eng.coalescing_ratio == 5.0

    def test_chunking_respects_max_batch_blocks(self):
        eng = CoalescingEngine(max_batch_blocks=5)
        for i in range(4):
            eng.submit(solve_request(f"t{i}", nb=2, seed=i))
        responses = eng.flush()
        # 8 blocks at a 5-block bound -> two chunks of 2 requests
        assert eng.stats["executions"] == 2
        assert all(r.coalesced_blocks <= 5 for r in responses)
        assert all(r.status == "ok" for r in responses)

    def test_incompatible_jobs_never_merge(self):
        eng = CoalescingEngine()
        eng.submit(solve_request("a", seed=1, method="lu"))
        eng.submit(solve_request("b", seed=2, method="gje"))
        responses = eng.flush()
        assert eng.stats["executions"] == 2
        assert all(r.coalesced_requests == 1 for r in responses)
        assert all(r.status == "ok" for r in responses)

    def test_results_bit_identical_to_solo(self):
        eng = CoalescingEngine()
        reqs = [
            solve_request(f"t{i}", nb=2 + i, max_size=4 * (i + 1), seed=i)
            for i in range(4)
        ]
        for req in reqs:
            eng.submit(req)
        responses = eng.flush()
        for req, resp in zip(reqs, responses):
            solo = BatchRuntime().factorize(req.batch)
            np.testing.assert_array_equal(solo.info, resp.info)
            np.testing.assert_array_equal(
                solo.solve(req.rhs).data, resp.solution.data
            )

    def test_load_leak_audit_finds_no_mismatch(self, quick_load):
        pairs = quick_load["coalesced"][1]
        done = [(q, r) for q, r in pairs if r.status == "ok"]
        rng = np.random.default_rng(0)
        idx = rng.choice(len(done), size=LEAK_SAMPLE, replace=False)
        solo = BatchRuntime()
        checked = mismatches = 0
        for req, resp in (done[i] for i in sorted(idx)):
            handle = solo.factorize(
                req.batch,
                method=req.method,
                on_singular=None
                if req.on_singular in (None, "raise")
                else req.on_singular,
                apply_mode=req.apply_mode,
            )
            checked += 1
            if not np.array_equal(handle.info, resp.info):
                mismatches += 1
            elif req.kind == "solve" and resp.solution is not None:
                if not np.array_equal(
                    handle.solve(req.rhs).data, resp.solution.data
                ):
                    mismatches += 1
        assert checked > 0
        assert mismatches == 0

    def test_load_coalescing_ratios(self, quick_load):
        assert quick_load["naive"][0] == 1.0
        assert quick_load["coalesced"][0] > 1.0
        assert quick_load["coalesced_cached"][0] > 1.0

    def test_setup_jobs_return_usable_handles(self):
        eng = CoalescingEngine()
        batch = make_batch(3, 8, seed=5, dominant=True)
        t = eng.submit(Request(tenant="t", batch=batch, kind="setup"))
        resp = eng.flush()[0]
        assert resp.status == "ok"
        assert resp.solution is None
        rhs = make_rhs(batch, seed=6)
        out = eng.apply("t", resp.handle, rhs)
        assert out.status == "ok"
        solo = BatchRuntime().factorize(batch)
        np.testing.assert_array_equal(
            out.solution.data, solo.solve(rhs).data
        )

    def test_empty_flush_is_noop(self):
        eng = CoalescingEngine()
        assert eng.flush() == []
        assert eng.stats["flushes"] == 0


class TestSingularIsolation:
    def _singular_request(self, tenant, seed=0):
        batch = make_batch(3, 8, seed=seed, dominant=True)
        m = int(batch.sizes[1])
        batch.data[1, :m, :m] = 0.0
        return Request(tenant=tenant, batch=batch, kind="setup")

    def test_singular_tenant_fails_alone(self):
        eng = CoalescingEngine()
        good = solve_request("good", seed=1)
        eng.submit(self._singular_request("bad", seed=2))
        eng.submit(good)
        bad_resp, good_resp = eng.flush()
        assert bad_resp.status == "failed"
        assert bad_resp.error == "singular_blocks"
        assert bad_resp.info is not None and bad_resp.info[1] > 0
        assert good_resp.status == "ok"
        solo = BatchRuntime().factorize(good.batch)
        np.testing.assert_array_equal(solo.info, good_resp.info)
        np.testing.assert_array_equal(
            solo.solve(good.rhs).data, good_resp.solution.data
        )

    def test_substitution_policy_degrades_in_place(self):
        eng = CoalescingEngine()
        req = self._singular_request("t", seed=3)
        req.on_singular = "identity"
        eng.submit(req)
        resp = eng.flush()[0]
        assert resp.status == "ok"
        assert (resp.info == 0).all()  # substitution resolves the report
        deg = resp.handle.shared.degradation
        assert deg is not None
        assert deg.original_info[resp.handle.indices].sum() > 0


class TestTenantCaching:
    def test_repeat_submission_hits_shard(self):
        shards = TenantCacheShards()
        eng = CoalescingEngine(shards=shards)
        req = solve_request("t", seed=1)
        eng.submit(req)
        first = eng.flush()[0]
        again = eng.submit(req)
        assert again.done and again.response.cache_hit
        np.testing.assert_array_equal(
            again.response.solution.data, first.solution.data
        )
        assert eng.stats["cache_hits"] == 1

    def test_cache_is_tenant_scoped(self):
        shards = TenantCacheShards()
        eng = CoalescingEngine(shards=shards)
        req = solve_request("alice", seed=1)
        eng.submit(req)
        eng.flush()
        # same content, different tenant: no cross-tenant hit
        other = Request(
            tenant="bob", batch=req.batch, kind="solve", rhs=req.rhs
        )
        t = eng.submit(other)
        assert not t.done

    def test_tainted_executions_never_cached(self):
        chaos = ChaosBackend(
            get_backend("binned"),
            [RaiseInjector("factorize", rate=1.0)],
            seed=0,
        )
        rt = BatchRuntime(backend=chaos, fallback=("numpy",))
        shards = TenantCacheShards()
        eng = CoalescingEngine(runtime=rt, shards=shards)
        eng.submit(solve_request("t", seed=1))
        resp = eng.flush()[0]
        assert resp.status == "ok"  # served despite the fault
        assert chaos.events  # the fault fired
        assert shards.stats()["entries"] == 0  # but nothing was cached

    def test_poisoned_shard_hit_is_answered_by_the_reference_solve(self):
        shards = TenantCacheShards()
        rt = BatchRuntime(backend="binned", fallback=("numpy",))
        eng = CoalescingEngine(runtime=rt, shards=shards)
        req = solve_request("t", nb=6, seed=3)
        eng.submit(req)
        first = eng.flush()[0]
        shared = first.handle.shared
        clean = eng.submit(req).response  # a clean hit: no deviation
        assert clean.cache_hit and shared.report.fallback_events == []
        assert poison_cache(shards.shard("t"), seed=0) == 1
        hit = eng.submit(req).response
        assert hit.cache_hit and hit.status == "ok"
        np.testing.assert_allclose(
            hit.solution.data, first.solution.data, rtol=1e-12
        )
        actions = [e["action"] for e in shared.report.fallback_events]
        assert actions == ["reference_solve"]


class TestApply:
    def test_foreign_handle_rejected(self):
        eng = CoalescingEngine()
        req = solve_request("owner", seed=1)
        eng.submit(req)
        resp = eng.flush()[0]
        out = eng.apply("thief", resp.handle, req.rhs)
        assert out.status == "rejected"
        assert out.rejection.reason == "foreign_handle"
        assert out.rejection.detail["owner"] == "owner"

    def test_apply_after_close_rejected(self):
        eng = CoalescingEngine()
        req = solve_request("t", seed=1)
        eng.submit(req)
        resp = eng.flush()[0]
        eng.close()
        out = eng.apply("t", resp.handle, req.rhs)
        assert out.rejection.reason == "not_running"

    def test_apply_geometry_failure_is_structured(self):
        eng = CoalescingEngine()
        req = solve_request("t", nb=3, seed=1)
        eng.submit(req)
        resp = eng.flush()[0]
        wrong = make_rhs(make_batch(5, 8, seed=9, dominant=True), 1)
        out = eng.apply("t", resp.handle, wrong)
        assert out.status == "failed"
        assert "geometry" in out.error


class TestValidation:
    def test_constructor_bounds(self):
        with pytest.raises(ValueError, match="max_pending"):
            CoalescingEngine(max_pending=0)
        with pytest.raises(ValueError, match="max_batch_blocks"):
            CoalescingEngine(max_batch_blocks=0)

    def test_response_to_dict_serializes(self):
        eng = CoalescingEngine()
        eng.submit(solve_request("t", seed=1))
        d = eng.flush()[0].to_dict()
        assert d["status"] == "ok"
        assert isinstance(d["info"], list)
        assert d["coalesced_requests"] == 1
