"""Tests for the asyncio service: concurrent submission, flush
triggers, and shutdown semantics."""

import asyncio

import numpy as np

from repro.serving import (
    CoalescingEngine,
    PreconditionerService,
    Request,
    TenantCacheShards,
)
from tests.strategies import make_batch, make_rhs


def solve_request(tenant, nb=3, seed=0):
    batch = make_batch(nb, 12, seed=seed, dominant=True)
    return Request(
        tenant=tenant,
        batch=batch,
        kind="solve",
        rhs=make_rhs(batch, seed=seed + 1000),
    )


class TestConcurrentSubmission:
    def test_gathered_submits_coalesce(self):
        async def main():
            eng = CoalescingEngine()
            async with PreconditionerService(eng, max_delay=0.002) as svc:
                reqs = [solve_request(f"t{i}", seed=i) for i in range(6)]
                return eng, reqs, await asyncio.gather(
                    *(svc.submit(r) for r in reqs)
                )

        eng, reqs, responses = asyncio.run(main())
        assert all(r.status == "ok" for r in responses)
        assert {r.coalesced_requests for r in responses} == {6}
        assert eng.stats["executions"] == 1
        from repro.runtime import BatchRuntime

        for req, resp in zip(reqs, responses):
            solo = BatchRuntime().factorize(req.batch)
            np.testing.assert_array_equal(
                solo.solve(req.rhs).data, resp.solution.data
            )

    def test_block_threshold_triggers_flush_before_timer(self):
        async def main():
            eng = CoalescingEngine()
            # a huge linger window: only the block threshold can flush
            svc = PreconditionerService(
                eng, max_delay=60.0, flush_blocks=6
            )
            reqs = [solve_request(f"t{i}", nb=3, seed=i) for i in range(2)]
            out = await asyncio.wait_for(
                asyncio.gather(*(svc.submit(r) for r in reqs)),
                timeout=10.0,
            )
            await svc.stop()
            return out

        responses = asyncio.run(main())
        assert all(r.status == "ok" for r in responses)

    def test_rejections_resolve_without_flush(self):
        async def main():
            async with PreconditionerService(max_delay=60.0) as svc:
                batch = make_batch(2, 8, seed=0, dominant=True)
                return await svc.submit(
                    Request(tenant="t", batch=batch, kind="solve")
                )

        resp = asyncio.run(main())
        assert resp.status == "rejected"
        assert resp.rejection.reason == "invalid_request"

    def test_cache_hits_resolve_immediately(self):
        async def main():
            eng = CoalescingEngine(shards=TenantCacheShards())
            async with PreconditionerService(eng, max_delay=0.002) as svc:
                req = solve_request("t", seed=1)
                first = await svc.submit(req)
                again = await svc.submit(req)
                return first, again

        first, again = asyncio.run(main())
        assert first.status == "ok" and not first.cache_hit
        assert again.cache_hit
        np.testing.assert_array_equal(
            first.solution.data, again.solution.data
        )


class TestApply:
    def test_apply_roundtrip(self):
        async def main():
            async with PreconditionerService(max_delay=0.002) as svc:
                req = solve_request("t", seed=1)
                resp = await svc.submit(req)
                out = await svc.apply("t", resp.handle, req.rhs)
                return resp, out

        resp, out = asyncio.run(main())
        assert out.status == "ok"
        np.testing.assert_array_equal(
            out.solution.data, resp.solution.data
        )


class TestShutdown:
    def test_stop_sheds_pending_as_not_running(self):
        async def main():
            eng = CoalescingEngine()
            svc = PreconditionerService(eng, max_delay=60.0)
            task = asyncio.ensure_future(
                svc.submit(solve_request("t", seed=1))
            )
            await asyncio.sleep(0)  # let the submit enqueue
            shed = await svc.stop()
            return shed, await task

        shed, resp = asyncio.run(main())
        assert shed == 1
        assert resp.status == "rejected"
        assert resp.rejection.reason == "not_running"

    def test_submit_after_stop_rejected(self):
        async def main():
            svc = PreconditionerService(max_delay=0.002)
            await svc.stop()
            return await svc.submit(solve_request("t", seed=1))

        resp = asyncio.run(main())
        assert resp.rejection.reason == "not_running"

    def test_stop_is_idempotent(self):
        async def main():
            svc = PreconditionerService()
            assert await svc.stop() == 0
            return await svc.stop()

        assert asyncio.run(main()) == 0
