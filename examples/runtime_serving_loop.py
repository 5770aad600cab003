#!/usr/bin/env python3
"""Serving loop: concurrent tenants through the coalescing service.

The serving scenario, one level up from a single batch runtime: many
independent clients (tenants), each with its own small batch of
diagonal blocks, submit setup/solve jobs concurrently.  The
``repro.serving`` stack admits them, merges compatible jobs into one
shared batched factorization per flush (cross-request coalescing - the
paper's launch amortization applied across requests), scatters results
back to each tenant, and caches per-tenant handles in sharded,
TTL/byte-bounded caches.

The script serves identical traffic twice - naively (one factorization
per request) and coalesced through the asyncio service - prints what
the engine stats say about each, and cross-checks a few coalesced
answers bit-for-bit against solo runs.

Run:  python examples/runtime_serving_loop.py
"""

import asyncio
import time

import numpy as np

from repro.core import random_batch, random_rhs
from repro.runtime import BatchRuntime
from repro.serving import (
    CoalescingEngine,
    PreconditionerService,
    Request,
    TenantCacheShards,
)

TENANTS = 24
ROUNDS = 3


def make_traffic():
    """Deterministic per-tenant solve jobs, repeated across rounds
    (the repetition is what the tenant caches are for)."""
    rounds = []
    for r in range(ROUNDS):
        jobs = []
        for i in range(TENANTS):
            batch = random_batch(
                3, size_range=(2, 24), kind="diag_dominant", seed=i
            )
            jobs.append(
                Request(
                    tenant=f"tenant-{i:02d}",
                    batch=batch,
                    kind="solve",
                    rhs=random_rhs(batch, seed=100 * r + i),
                )
            )
        rounds.append(jobs)
    return rounds


def serve_naive(rounds):
    """One factorization per request: the un-amortized baseline."""
    engine = CoalescingEngine()
    responses = []
    t0 = time.perf_counter()
    for jobs in rounds:
        for req in jobs:
            ticket = engine.submit(req)
            if not ticket.done:
                engine.flush()
            responses.append(ticket.response)
    return engine, responses, time.perf_counter() - t0


async def serve_coalesced(rounds):
    """Concurrent submissions through the asyncio service: jobs
    arriving within the linger window share one factorization, and
    repeated rounds hit the per-tenant caches."""
    engine = CoalescingEngine(
        shards=TenantCacheShards(
            per_tenant_entries=4, ttl_seconds=60.0, per_tenant_bytes=1 << 20
        )
    )
    responses = []
    t0 = time.perf_counter()
    async with PreconditionerService(engine, max_delay=0.002) as svc:
        for jobs in rounds:
            out = await asyncio.gather(*(svc.submit(r) for r in jobs))
            responses.extend(out)
    return engine, responses, time.perf_counter() - t0


def main() -> None:
    rounds = make_traffic()
    total = sum(len(jobs) for jobs in rounds)
    print(
        f"traffic: {TENANTS} tenants x {ROUNDS} rounds = {total} "
        "solve jobs\n"
    )

    naive_eng, naive_resp, naive_s = serve_naive(rounds)
    print("naive (one factorization per request):")
    print(f"  {naive_s * 1e3:7.1f} ms,"
          f" {naive_eng.stats['executions']} factorizations,"
          f" coalescing ratio {naive_eng.coalescing_ratio:.2f}\n")

    co_eng, co_resp, co_s = asyncio.run(serve_coalesced(rounds))
    stats = co_eng.stats
    shards = co_eng.shards.stats()
    print("coalescing service (shared bins + tenant caches):")
    print(f"  {co_s * 1e3:7.1f} ms,"
          f" {stats['executions']} factorizations,"
          f" coalescing ratio {co_eng.coalescing_ratio:.2f}")
    print(f"  tenant caches: {stats['cache_hits']} hits across "
          f"{shards['tenants']} shards "
          f"({shards['bytes'] / 1024:.0f} KiB resident)\n")

    # isolation spot check: coalesced answers are bit-identical to
    # solo runs of the same tenant batch
    solo = BatchRuntime()
    for req, resp in zip(rounds[0][:4], co_resp[:4]):
        handle = solo.factorize(req.batch)
        assert np.array_equal(handle.info, resp.info)
        assert np.array_equal(
            handle.solve(req.rhs).data, resp.solution.data
        )
    print("spot check: 4 coalesced answers bit-identical to solo runs")

    assert all(r.status == "ok" for r in naive_resp)
    assert all(r.status == "ok" for r in co_resp)
    assert naive_eng.coalescing_ratio == 1.0
    assert co_eng.coalescing_ratio > 1.0
    assert stats["cache_hits"] > 0
    assert stats["executions"] < naive_eng.stats["executions"]
    print(
        f"\n{naive_eng.stats['executions']} naive factorizations -> "
        f"{stats['executions']} coalesced "
        f"({co_eng.coalescing_ratio:.1f} requests per launch)"
    )
    print("serving loop OK")


if __name__ == "__main__":
    main()
