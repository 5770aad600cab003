"""The workloads of the end-to-end benchmark.

Each workload builds its inputs from the seed and drives the program
through its public API only (``BlockJacobiPreconditioner``, ``idrs``,
``BatchRuntime``, ``PreconditionerService``).  Every answer is checked
outside the timed region.  Why each workload exists is written in
``BENCHMARK.json`` and ``README.md`` next to this file.

Each operation is followed by runs of the reference kernel of
``speed.py``, which scale its wall time to the reference host's speed.
"""

from __future__ import annotations

import asyncio
import gc
import statistics
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

import layers
import repro.solvers
import speed
from repro import BatchRuntime, BlockJacobiPreconditioner
from repro.core.random_batches import random_batch, random_rhs
from repro.serving import (
    CoalescingEngine,
    LoadProfile,
    PreconditionerService,
    TenantCacheShards,
    generate_load,
)
from repro.sparse import fem_block_2d
from repro.sparse.suite import load_matrix

#: IDR(4) target: the paper stops after six orders of magnitude
TOL = 1e-6
#: the recomputed true residual may exceed TOL by this factor
TRUE_RESIDUAL_SLACK = 1.1
#: per-block relative residual bound of the direct batched solves
BLOCK_RTOL = 1e-10
#: latency objective of a served request
SLO_SECONDS = 0.050
#: open-loop sends later than this after their due time count as late
LATE_SEND_SECONDS = 0.001
#: served responses re-run solo and compared bit for bit, per window
AUDIT_PER_WINDOW = 3
#: fewest measured rounds, whatever the time budget (two per half when
#: traced rounds alternate with untraced ones)
MIN_ROUNDS = 4
#: linger of the coalescing service before a non-full batch flushes
LINGER_SECONDS = 0.005
CLOSED_CLIENTS = 32
#: a serving run is a series of windows, each a fresh service serving
#: the same requests: all of them in a closed loop, and in an open loop
#: those due within one second
CLOSED_REQUESTS = 1200
OPEN_WINDOW_SECONDS = 1.0
#: requests per tenant in a window, as in the ``serve-bench`` load
#: (9,600 requests from 2,000 tenants); it sets how often a tenant
#: repeats a batch, and so the tenant-cache hits
REQUESTS_PER_TENANT = 4.8


@dataclass
class Op:
    """One timed operation and the checks made on its answers."""

    seconds: float
    checked: int
    failed: int
    info: dict = field(default_factory=dict)


def _seed(*parts: int) -> int:
    return int(np.random.default_rng(list(parts)).integers(2**31))


def blocks_solved(batch, rhs, x) -> np.ndarray:
    """Per block: is ``max|A x - b|`` over the active rows within
    ``BLOCK_RTOL`` of ``||A|| ||x|| + ||b||`` (infinity norms)?"""
    active = np.arange(batch.tile)[None, :] < batch.sizes[:, None]
    r = np.einsum("bij,bj->bi", batch.data, x.data) - rhs.data
    r = np.where(active, r, 0.0)
    scale = np.abs(batch.data).sum(axis=2).max(axis=1) * np.abs(
        np.where(active, x.data, 0.0)
    ).max(axis=1) + np.abs(rhs.data).max(axis=1)
    return np.abs(r).max(axis=1) <= BLOCK_RTOL * scale


# -- solves ---------------------------------------------------------------


class SolveWorkload:
    """Block-Jacobi (LU, bound 32, binned runtime) + IDR(4) to 1e-6, one
    fresh preconditioner per solve; one operation solves every matrix."""

    kind = "rounds"

    def __init__(self, matrices, apply_mode: str):
        self.matrices = matrices
        self.apply_mode = apply_mode

    def build(self, seed: int, quick: bool):
        inputs = []
        for k, A in enumerate(self.matrices(seed, quick)):
            # an independent operator for the true-residual check
            ref = scipy.sparse.csr_matrix(
                (A.values, A.indices, A.indptr), shape=(A.n_rows, A.n_cols)
            )
            # a seeded known solution: iteration counts vary less across
            # seeds than with a random right-hand side
            x = np.random.default_rng([seed, k]).uniform(0.5, 1.5, A.n_rows)
            b = ref @ x
            inputs.append((A, b, ref))
        return inputs

    def op(self, inputs, r: int, rec=None) -> Op:
        solved = []
        t0 = time.perf_counter()
        with layers.traced(rec):
            for A, b, _ in inputs:
                M = BlockJacobiPreconditioner(
                    max_block_size=32,
                    backend="binned",
                    apply_mode=self.apply_mode,
                ).setup(A)
                solved.append((M, repro.solvers.idrs(A, b, s=4, M=M, tol=TOL)))
        seconds = time.perf_counter() - t0
        failed = 0
        info = defaultdict(float)
        for (A, b, ref), (M, res) in zip(inputs, solved):
            true = np.linalg.norm(b - ref @ res.x) / np.linalg.norm(b)
            if not (res.converged and true <= TRUE_RESIDUAL_SLACK * TOL):
                failed += 1
            info["iterations"] += res.iterations
            info["precond_setup_s"] += M.setup_seconds
            info["iterate_s"] += res.solve_seconds
            info["blocks"] += M.block_sizes.size
            for stage, sec in M.runtime_report.stage_seconds.items():
                info[f"runtime_{stage}_s"] += sec
        return Op(seconds, len(inputs), failed, dict(info))


def _suite(seed: int, quick: bool):
    names = ("varblk_s0",) if quick else (
        "fem_b4_s0", "varblk_s0", "wave_n8192_b6",
    )
    return [load_matrix(name) for name in names]


def _large_fem(seed: int, quick: bool):
    n = 20 if quick else 125
    return [fem_block_2d(n, n, 4, seed=seed, dominance=0.9)]


# -- the batched kernel alone ---------------------------------------------


class BatchWorkload:
    """``factorize`` + one ``solve`` of a fresh mixed-size batch per
    operation, through a default ``BatchRuntime`` (binned, cache on)."""

    kind = "rounds"

    def build(self, seed: int, quick: bool):
        return {"seed": seed, "nb": 200 if quick else 4000}

    def op(self, inputs, r: int, rec=None) -> Op:
        seed = inputs["seed"]
        batch = random_batch(
            inputs["nb"], size_range=(1, 32), seed=_seed(seed, r)
        )
        rhs = random_rhs(batch, seed=_seed(seed, r, 1))
        t0 = time.perf_counter()
        with layers.traced(rec):
            runtime = BatchRuntime()
            fac = runtime.factorize(batch)
            x = fac.solve(rhs)
        seconds = time.perf_counter() - t0
        good = blocks_solved(batch, rhs, x) & (fac.info == 0)
        report = runtime.last_report
        info = {f"runtime_{k}_s": v for k, v in report.stage_seconds.items()}
        info["cache_hits"] = runtime.cache_stats.hits
        info["cache_misses"] = runtime.cache_stats.misses
        info["useful_gflop"] = report.useful_flops / 1e9
        info["padded_gflop"] = report.padded_flops / 1e9
        return Op(seconds, batch.nb, int(np.count_nonzero(~good)), info)


# -- serving --------------------------------------------------------------


@dataclass
class Pool:
    requests: list
    #: draws the responses each window re-runs solo
    rng: np.random.Generator
    #: open loop: send offsets in seconds from the window's start
    due: np.ndarray | None = None


@dataclass
class Record:
    """What a client keeps of a response: enough to check it.  The
    handle, which can hold a whole launch's factors, is let go."""

    index: int
    due: float
    sent: float
    done: float
    ok: bool
    info: np.ndarray | None
    solution: object
    queue_seconds: float


def _record(index: int, due: float, sent: float, resp) -> Record:
    return Record(
        index, due, sent, time.perf_counter(), resp.ok, resp.info,
        resp.solution, resp.queue_seconds,
    )


def _service() -> PreconditionerService:
    """The ``coalesced_cached`` serving stack of ``serve-bench``."""
    engine = CoalescingEngine(
        runtime=BatchRuntime(cache=False),
        shards=TenantCacheShards(
            per_tenant_entries=4,
            ttl_seconds=60.0,
            per_tenant_bytes=1 << 22,
        ),
    )
    return PreconditionerService(engine, max_delay=LINGER_SECONDS)


class ServeWorkload:
    """``PreconditionerService`` under the ``serve-bench`` traffic mix:
    a closed loop of waiting clients (``rate=None``) or Poisson
    arrivals at ``rate`` requests per second."""

    kind = "serve"

    def __init__(self, rate: float | None = None):
        self.rate = rate

    def build(self, seed: int, quick: bool) -> Pool:
        due = None
        if self.rate is None:
            n = CLOSED_REQUESTS // (6 if quick else 1)
        else:
            seconds = OPEN_WINDOW_SECONDS / (4 if quick else 1)
            n = round(self.rate * seconds)
            # Poisson arrivals, given their number, fall uniformly
            rng = np.random.default_rng([seed, 1])
            due = np.sort(rng.uniform(0.0, seconds, n))
        profile = LoadProfile(
            tenants=round(n / REQUESTS_PER_TENANT),
            waves=-(-n // 64),
            requests_per_wave=64,
            seed=seed,
        )
        requests = [r for wave in generate_load(profile) for r in wave][:n]
        return Pool(requests, np.random.default_rng([seed, 2]), due)

    def op(self, pool: Pool, r: int, rec=None) -> Op:
        """The first request through a fresh service."""
        async def one():
            service = _service()
            t0 = time.perf_counter()
            record = _record(0, t0, t0, await service.submit(pool.requests[0]))
            await service.stop()
            return record

        record = asyncio.run(one())
        failed = self._check(pool, [record], audit=0)
        return Op(record.done - record.sent, 1, len(failed))

    # -- one measured window --------------------------------------------

    def window(self, pool: Pool, rec=None) -> dict:
        """One window through a fresh service.  Its answers are checked,
        some re-run solo, and only the summary is kept."""
        async def main():
            asyncio.get_running_loop().set_default_executor(
                ThreadPoolExecutor(max_workers=1)
            )
            service = _service()
            if self.rate is None:
                records = await self._closed(service, pool)
            else:
                records = await self._open(service, pool)
            await service.stop()
            return service, records

        with layers.traced(rec):
            service, records = asyncio.run(main())
        failed = self._check(pool, records, AUDIT_PER_WINDOW)
        ok = [r for r in records if r.index not in failed]
        latency = [r.done - r.due for r in ok]
        wall = max(r.done for r in records) - min(r.due for r in records)
        in_slo = sum(1 for x in latency if x <= SLO_SECONDS)
        engine = service.engine
        stats = engine.stats
        serving = {
            "serving.flushes_per_s": stats["flushes"] / wall,
            "serving.coalesce_ratio": engine.coalescing_ratio,
            "serving.launch_blocks_mean": (
                stats["blocks_executed"] / max(stats["executions"], 1)
            ),
            "serving.cache_hit_frac": stats["cache_hits"] / len(records),
            "serving.shed": float(sum(stats["rejected"].values())),
            "serving.queue_frac": (
                sum(r.queue_seconds for r in ok) / sum(latency)
            ),
            "serving.slo_ok_frac": in_slo / len(records),
            "serving.late_send_frac": sum(
                1 for r in records if r.sent - r.due > LATE_SEND_SECONDS
            ) / len(records),
        }
        return {
            "latencies": latency,
            # ok answers; for an open loop, those within the objective
            "served": len(ok) if self.rate is None else in_slo,
            "wall": wall,
            "attempted": len(records),
            "failed": len(failed),
            "serving": serving,
        }

    async def _closed(self, service, pool: Pool):
        records: list[Record] = []
        order = iter(range(len(pool.requests)))

        async def client():
            # one event-loop thread: the shared iterator needs no lock
            for i in order:
                sent = time.perf_counter()
                resp = await service.submit(pool.requests[i])
                records.append(_record(i, sent, sent, resp))

        await asyncio.gather(*(client() for _ in range(CLOSED_CLIENTS)))
        return records

    async def _open(self, service, pool: Pool):
        records: list[Record] = []

        async def send(i: int, due: float):
            sent = time.perf_counter()
            resp = await service.submit(pool.requests[i])
            records.append(_record(i, due, sent, resp))

        tasks = []
        start = time.perf_counter()
        for i, offset in enumerate(pool.due):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(send(i, due)))
        await asyncio.gather(*tasks)
        return records

    def _check(self, pool: Pool, records: list[Record], audit: int) -> set:
        """Indices of requests that failed or were answered wrongly."""
        failed = set()
        for r in records:
            req = pool.requests[r.index]
            if not r.ok or np.any(r.info):
                failed.add(r.index)
            elif req.kind == "solve" and not blocks_solved(
                req.batch, req.rhs, r.solution
            ).all():
                failed.add(r.index)
        if audit:
            ok = [r for r in records if r.ok]
            failed |= self._audit(pool, ok, audit)
        return failed

    def _audit(self, pool: Pool, records: list[Record], k: int) -> set:
        """Re-run ``k`` sampled responses solo; a coalesced answer must
        match bit for bit (the scatter-back invariant)."""
        pick = pool.rng.choice(
            len(records), size=min(k, len(records)), replace=False
        )
        solo = BatchRuntime(cache=False)
        bad = set()
        for j in pick:
            r = records[j]
            req = pool.requests[r.index]
            handle = solo.factorize(
                req.batch,
                method=req.method,
                on_singular=(
                    None if req.on_singular in (None, "raise")
                    else req.on_singular
                ),
                use_cache=False,
                apply_mode=req.apply_mode,
            )
            same = np.array_equal(handle.info, r.info)
            if same and req.kind == "solve":
                same = np.array_equal(
                    handle.solve(req.rhs).data, r.solution.data
                )
            if not same:
                bad.add(r.index)
        return bad


WORKLOADS = {
    "suite_factor": SolveWorkload(_suite, "factor"),
    "suite_inverse": SolveWorkload(_suite, "inverse"),
    "batch_mixed": BatchWorkload(),
    "large_fem": SolveWorkload(_large_fem, "factor"),
    "serve_closed": ServeWorkload(),
    "serve_open": ServeWorkload(rate=600.0),
}


# -- measurement ----------------------------------------------------------


def tail(values) -> tuple[int, float]:
    """p90 when at least ten samples lie beyond it, else the median."""
    if len(values) >= 100:
        return 90, float(np.percentile(values, 90))
    return 50, float(np.median(values))


def _summary(latencies, per_second=None) -> dict:
    """Median, tail and throughput of the operations; without a measured
    rate (one operation at a time) throughput is 1 / median."""
    pct, value = tail(latencies)
    median = float(np.median(latencies))
    return {
        "samples": len(latencies),
        "op_ms": 1e3 * median,
        "tail_ms": 1e3 * value,
        "tail_percentile": pct,
        "ops_per_s": 1.0 / median if per_second is None else per_second,
    }


def _mean(dicts) -> dict:
    dicts = list(dicts)
    total = defaultdict(float)
    for d in dicts:
        for k, v in d.items():
            total[k] += v
    return {k: v / len(dicts) for k, v in total.items()}


def measure(name: str, inputs, seconds: float, trace: bool) -> dict:
    """Warm operations (serving: windows) for ``seconds``, at least
    ``MIN_ROUNDS`` of them, each followed by a kernel sample that scales
    it.  Traced, every other operation runs under the layer wrappers, so
    the untraced ones give the end-to-end numbers and the tracing
    overhead."""
    w = WORKLOADS[name]
    results: list = []
    traced: list[bool] = []
    scales: list[float] = []
    rec = layers.Recorder()
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop or len(results) < MIN_ROUNDS:
        on = trace and len(results) % 2 == 1
        if w.kind == "rounds":
            results.append(w.op(inputs, len(results) + 1, rec if on else None))
        else:
            results.append(w.window(inputs, rec if on else None))
        traced.append(on)
        # garbage of one operation must not be freed inside the next
        gc.collect()
        scales.append(speed.factor())
    summarize = _rounds if w.kind == "rounds" else _serve
    out = summarize(w, results, traced, scales)
    out["info"]["speed_factor"] = statistics.median(scales)
    if trace:
        out["spans"] = rec.spans
        out["layers"].update(
            layers.layer_metrics(rec.spans, *out.pop("traced_work"))
        )
    return out


def _rounds(w, ops: list[Op], traced: list[bool], scales: list[float]):
    plain = [i for i, on in enumerate(traced) if not on]
    wall = [ops[i].seconds for i in plain]
    seen = [op for op, on in zip(ops, traced) if on]
    out = {
        **_summary([ops[i].seconds * scales[i] for i in plain]),
        "ops_ms": [1e3 * x for x in wall],
        "attempted": sum(op.checked for op in ops),
        "failed": sum(op.failed for op in ops),
        "info": {
            **_mean(op.info for op in ops),
            "wall_op_ms": 1e3 * statistics.median(wall),
        },
    }
    if seen:
        out["traced_work"] = (len(seen), sum(op.seconds for op in seen))
        out["layers"] = {
            **_no_serving(),
            **_overhead(wall, [op.seconds for op in seen]),
        }
    return out


def _serve(w, wins: list[dict], traced: list[bool], scales: list[float]):
    plain = [j for j, on in enumerate(traced) if not on]
    wall = [x for j in plain for x in wins[j]["latencies"]]
    # a closed loop's rate follows the host's speed; an open loop's is
    # set by its schedule
    spans = [
        wins[j]["wall"] * (scales[j] if w.rate is None else 1.0)
        for j in plain
    ]
    seen = [win for win, on in zip(wins, traced) if on]
    out = {
        **_summary(
            [x * scales[j] for j in plain for x in wins[j]["latencies"]],
            sum(wins[j]["served"] for j in plain) / sum(spans),
        ),
        "attempted": sum(win["attempted"] for win in wins),
        "failed": sum(win["failed"] for win in wins),
        "info": {
            **_mean(wins[j]["serving"] for j in plain),
            "wall_op_ms": 1e3 * statistics.median(wall),
        },
    }
    if seen:
        # two threads work in a window: layer shares are of its wall time
        out["traced_work"] = (
            sum(win["attempted"] for win in seen),
            sum(win["wall"] for win in seen),
        )
        out["layers"] = {
            **_mean(win["serving"] for win in seen),
            **_overhead(wall, [x for win in seen for x in win["latencies"]]),
        }
    return out


def _no_serving() -> dict:
    return {
        "serving.flushes_per_s": 0.0,
        "serving.coalesce_ratio": 0.0,
        "serving.launch_blocks_mean": 0.0,
        "serving.cache_hit_frac": 0.0,
        "serving.shed": 0.0,
        "serving.queue_frac": 0.0,
        "serving.slo_ok_frac": 0.0,
        "serving.late_send_frac": 0.0,
    }


def _overhead(plain: list[float], traced: list[float]) -> dict:
    return {
        "trace.overhead_frac": float(np.median(traced) / np.median(plain))
        - 1.0,
        "op.p50_ms": 1e3 * float(np.median(plain)),
        "op.p90_ms": 1e3 * float(np.percentile(plain, 90)),
        "op.p99_ms": 1e3 * float(np.percentile(plain, 99)),
    }
