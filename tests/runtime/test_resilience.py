"""Tests for the resilient executor: fallback chain, circuit breakers,
bin-level quarantine, and solve-side recovery."""

import numpy as np
import pytest

from repro.core import BatchedMatrices, SingularBlockError
from repro.runtime import (
    BatchRuntime,
    Backend,
    CircuitBreaker,
    RuntimeExecutionError,
    spot_check_factorization,
)
from repro.runtime.backends import get_backend
from tests.strategies import make_batch, make_rhs


class FlakyBackend(Backend):
    """Raises on the first ``fail_times`` factorize calls, then
    delegates to a real binned backend."""

    name = "flaky"

    def __init__(self, fail_times=10**9):
        self.inner = get_backend("binned")
        self.fail_times = fail_times
        self.calls = 0

    def factorize(self, plan, method="lu", on_singular=None):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise RuntimeError("injected flake")
        return self.inner.factorize(plan, method, on_singular)

    def solve(self, state, plan, rhs):
        return self.inner.solve(state, plan, rhs)

    def bin_stats(self, plan, method):
        return self.inner.bin_stats(plan, method)


def mixed_singular_batch(seed=0):
    """Blocks 1 and 3 exactly singular, sizes spread over two bins."""
    rng = np.random.default_rng(seed)
    blocks = []
    for i in range(6):
        m = 3 + i
        A = rng.standard_normal((m, m)) + m * np.eye(m)
        if i in (1, 3):
            A[m // 2, :] = 0.0
        blocks.append(A)
    return BatchedMatrices.identity_padded(blocks, tile=16)


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        clock = [0.0]
        br = CircuitBreaker("x", failure_threshold=3,
                            cooldown_seconds=10.0, clock=lambda: clock[0])
        assert br.state == "closed"
        for _ in range(2):
            br.record_failure()
        assert br.state == "closed" and br.allow()
        br.record_failure()
        assert br.state == "open"
        assert not br.allow()
        assert br.rejections == 1

    def test_half_open_probe_and_close(self):
        clock = [0.0]
        br = CircuitBreaker("x", failure_threshold=1,
                            cooldown_seconds=5.0, clock=lambda: clock[0])
        br.record_failure()
        assert br.state == "open"
        clock[0] = 5.0
        assert br.state == "half_open"
        assert br.allow()  # the probe
        br.record_success()
        assert br.state == "closed"

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        clock = [0.0]
        br = CircuitBreaker("x", failure_threshold=1,
                            cooldown_seconds=5.0, clock=lambda: clock[0])
        br.record_failure()
        clock[0] = 5.0
        assert br.allow()
        br.record_failure()  # probe failed
        assert br.state == "open"
        clock[0] = 9.0  # cooldown restarted at t=5
        assert br.state == "open"
        clock[0] = 10.0
        assert br.state == "half_open"

    def test_consecutive_reset_on_success(self):
        br = CircuitBreaker("x", failure_threshold=2)
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state == "closed"

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError, match="positive"):
            CircuitBreaker("x", failure_threshold=0)


class TestFallbackChain:
    def test_chain_falls_through_to_numpy(self):
        batch = make_batch(10, 12, seed=3, dominant=True)
        rhs = make_rhs(batch, seed=4)
        rt = BatchRuntime(backend=FlakyBackend(),
                          fallback=("numpy", "scipy"), quarantine=False)
        fac = rt.factorize(batch)
        rep = rt.last_report
        assert rep.backend_used == "numpy"
        assert any(e["backend"] == "flaky" for e in rep.fallback_events)
        assert all(b.fallback for b in rep.bins)
        ref = BatchRuntime(backend="numpy").factorize(batch)
        np.testing.assert_allclose(
            fac.solve(rhs).data, ref.solve(rhs).data
        )

    def test_all_avenues_exhausted_raises(self):
        batch = make_batch(4, 8, seed=0, dominant=True)
        rt = BatchRuntime(backend=FlakyBackend(), fallback=(),
                          quarantine=False, validate=True)
        with pytest.raises(RuntimeExecutionError, match="no backend"):
            rt.factorize(batch)

    def test_scipy_skipped_for_non_lu(self):
        batch = make_batch(4, 8, seed=0, dominant=True)
        rt = BatchRuntime(backend=FlakyBackend(),
                          fallback=("scipy", "numpy"), quarantine=False)
        rt.factorize(batch, method="gh")
        events = rt.last_report.fallback_events
        assert any(
            e["backend"] == "scipy" and e["error"] == "method_unsupported"
            for e in events
        )
        assert rt.last_report.backend_used == "numpy"

    def test_breaker_skips_primary_after_trips(self):
        batch = make_batch(4, 8, seed=0, dominant=True)
        flaky = FlakyBackend()
        rt = BatchRuntime(backend=flaky, fallback=("numpy",),
                          quarantine=False, breaker_threshold=1)
        rt.factorize(batch)
        calls_after_first = flaky.calls
        rt.factorize(batch)
        assert flaky.calls == calls_after_first  # breaker open: skipped
        assert any(
            e.get("error") == "circuit_open"
            for e in rt.last_report.fallback_events
        )

    def test_non_resilient_runtime_unchanged(self):
        batch = make_batch(6, 10, seed=1, dominant=True)
        rt = BatchRuntime(backend="binned")
        assert not rt.resilient
        fac = rt.factorize(batch)
        rep = rt.last_report
        assert rep.backend_used is None
        assert rep.fallback_events == []
        assert rep.breakers is None
        assert not any(b.fallback for b in rep.bins)
        assert fac.ok


class TestQuarantine:
    def test_quarantine_preserves_solutions(self):
        batch = make_batch(12, 14, seed=5, dominant=True)
        rhs = make_rhs(batch, seed=6)
        rt = BatchRuntime(backend=FlakyBackend(), fallback=("numpy",))
        fac = rt.factorize(batch)
        rep = rt.last_report
        assert rep.backend_used == "flaky+quarantine"
        assert rep.quarantined_bins  # every bin had to move
        for i, b in enumerate(rep.bins):
            assert b.quarantined == (i in rep.quarantined_bins)
            assert b.fallback == b.quarantined
        ref = BatchRuntime(backend="numpy").factorize(batch)
        np.testing.assert_allclose(
            fac.solve(rhs).data, ref.solve(rhs).data
        )

    def test_partial_flake_keeps_healthy_bins_on_primary(self):
        # fail only the first per-bin retry: the whole-batch call fails,
        # then bin 0 fails once more and quarantines, later bins pass
        batch = make_batch(12, 14, seed=5, dominant=True)
        rt = BatchRuntime(backend=FlakyBackend(fail_times=2),
                          fallback=("numpy",), breaker_threshold=10)
        fac = rt.factorize(batch)
        rep = rt.last_report
        assert rep.quarantined_bins == [0]
        assert fac.ok
        assert [b.quarantined for b in rep.bins].count(True) == 1

    def test_info_bit_for_bit_through_quarantine(self):
        # satellite: on_singular="raise" must propagate through the
        # quarantine path with the merged source-ordered status
        # identical to the single-backend behaviour
        batch = mixed_singular_batch()
        with pytest.raises(SingularBlockError) as direct:
            get_backend("binned").factorize(
                batch_plan(batch), "lu", "raise"
            )
        rt = BatchRuntime(backend=FlakyBackend(), fallback=("numpy",))
        with pytest.raises(SingularBlockError, match="on_singular") as q:
            rt.factorize(batch, on_singular="raise")
        np.testing.assert_array_equal(q.value.info, direct.value.info)

    def test_raise_bit_for_bit_through_chain(self):
        batch = mixed_singular_batch()
        with pytest.raises(SingularBlockError) as direct:
            get_backend("binned").factorize(
                batch_plan(batch), "lu", "raise"
            )
        rt = BatchRuntime(backend=FlakyBackend(), fallback=("numpy",),
                          quarantine=False)
        with pytest.raises(SingularBlockError) as chain:
            rt.factorize(batch, on_singular="raise")
        np.testing.assert_array_equal(
            chain.value.info, direct.value.info
        )

    def test_degradation_bit_for_bit_through_quarantine(self):
        batch = mixed_singular_batch()
        direct = BatchRuntime(backend="binned").factorize(
            batch, on_singular="identity"
        )
        rt = BatchRuntime(backend=FlakyBackend(), fallback=("numpy",))
        fac = rt.factorize(batch, on_singular="identity")
        assert rt.last_report.backend_used == "flaky+quarantine"
        np.testing.assert_array_equal(fac.info, direct.info)
        np.testing.assert_array_equal(
            fac.degradation.action, direct.degradation.action
        )
        np.testing.assert_array_equal(
            fac.degradation.original_info, direct.degradation.original_info
        )
        rhs = make_rhs(batch, seed=9)
        np.testing.assert_allclose(
            fac.solve(rhs).data, direct.solve(rhs).data
        )


def batch_plan(batch):
    from repro.runtime import plan_batch

    return plan_batch(batch)


class TestSpotCheck:
    def test_clean_factors_pass(self):
        batch = make_batch(6, 10, seed=2, dominant=True)
        backend = get_backend("binned")
        plan = batch_plan(batch)
        res = backend.factorize(plan, "lu", None)
        bad = spot_check_factorization(backend, res.state, plan, res.info)
        assert not bad.any()

    def test_nan_corruption_flagged(self):
        batch = make_batch(6, 10, seed=2, dominant=True)
        backend = get_backend("binned")
        plan = batch_plan(batch)
        res = backend.factorize(plan, "lu", None)
        method, facs = res.state
        facs[0].soa[0, 0, 0] = np.nan  # binned LU runs the SoA layout
        bad = spot_check_factorization(backend, res.state, plan, res.info)
        assert bad.any()

    def test_nonzero_info_blocks_exempt(self):
        batch = mixed_singular_batch()
        backend = get_backend("binned")
        plan = batch_plan(batch)
        res = backend.factorize(plan, "lu", None)
        bad = spot_check_factorization(backend, res.state, plan, res.info)
        assert not bad.any()  # semantic refusal must not read as damage

    def test_singular_batch_survives_resilient_path(self):
        # unresolved singular blocks (policy None) must pass through the
        # validating executor untouched, not get quarantined as corrupt
        batch = mixed_singular_batch()
        rt = BatchRuntime(backend="binned", fallback=("numpy",))
        fac = rt.factorize(batch)
        direct = get_backend("binned").factorize(
            batch_plan(batch), "lu", None
        )
        np.testing.assert_array_equal(fac.info, direct.info)
        assert rt.last_report.fallback_events == []
        assert rt.last_report.quarantined_bins == []


def _shard_engine():
    """A validating runtime behind a tenant-sharded engine - the only
    place a factorization is cached - plus one solve request."""
    from repro.serving import CoalescingEngine, Request, TenantCacheShards

    shards = TenantCacheShards()
    rt = BatchRuntime(backend="binned", validate=True, quarantine=False)
    eng = CoalescingEngine(runtime=rt, shards=shards)
    batch = make_batch(8, 12, seed=11, dominant=True)
    req = Request(tenant="t", batch=batch, kind="solve",
                  rhs=make_rhs(batch, seed=12))
    return eng, shards, req


class TestCacheResilience:
    def test_poisoned_entry_evicted_and_refactorized(self):
        from repro.chaos import poison_cache

        eng, shards, req = _shard_engine()
        eng.submit(req)
        clean = eng.flush()[0]
        assert poison_cache(shards.shard("t"), seed=0) == 1
        assert shards.invalidate("t") == 1  # evict the poisoned entry
        t = eng.submit(req)
        assert not t.done  # a miss: queued for a fresh factorization
        fresh = eng.flush()[0]
        assert fresh.status == "ok" and not fresh.cache_hit
        assert fresh.handle.shared is not clean.handle.shared
        assert fresh.handle.shared.report.fallback_events == []
        ref = BatchRuntime(backend="numpy").factorize(req.batch)
        np.testing.assert_allclose(
            fresh.solution.data, ref.solve(req.rhs).data
        )

    def test_clean_hit_served_under_validation(self):
        eng, shards, req = _shard_engine()
        eng.submit(req)
        first = eng.flush()[0]
        hit = eng.submit(req).response
        assert hit.cache_hit and hit.status == "ok"
        assert hit.handle.shared is first.handle.shared
        assert first.handle.shared.report.fallback_events == []
        np.testing.assert_array_equal(
            hit.solution.data, first.solution.data
        )


class TestSolveResilience:
    def test_solves_property_and_report(self):
        batch = make_batch(6, 10, seed=3, dominant=True)
        rhs = make_rhs(batch, seed=4)
        rt = BatchRuntime(backend="binned")
        fac = rt.factorize(batch)
        assert fac.solves == 0
        fac.solve(rhs)
        fac.solve(rhs)
        assert fac.solves == 2
        d = fac.report.to_dict()
        assert d["solves"] == 2
        assert d["solve_seconds"] > 0.0

    def test_corrupted_solve_falls_back_to_reference(self):
        batch = make_batch(6, 10, seed=3, dominant=True)
        rhs = make_rhs(batch, seed=4)
        rt = BatchRuntime(backend="binned", validate=True,
                          quarantine=False)
        fac = rt.factorize(batch)
        ref = BatchRuntime(backend="numpy").factorize(batch)
        expected = ref.solve(rhs).data
        # corrupt the stored factors after the (validated) creation
        method, facs = fac.result.state
        facs[0].soa[:, :, :] = np.nan  # binned LU runs the SoA layout
        out = fac.solve(rhs)
        np.testing.assert_allclose(out.data, expected)
        assert fac.report.solve_fallbacks == 1
        assert any(
            e["stage"] == "solve" for e in fac.report.fallback_events
        )

    def test_geometry_mismatch_still_raises(self):
        batch = make_batch(6, 10, seed=3, dominant=True)
        other = make_rhs(make_batch(5, 10, seed=3, dominant=True), seed=0)
        rt = BatchRuntime(backend="binned", validate=True)
        fac = rt.factorize(batch)
        with pytest.raises(ValueError, match="geometry"):
            fac.solve(other)
