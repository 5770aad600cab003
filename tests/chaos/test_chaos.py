"""Tests for repro.chaos: injector determinism, the ChaosBackend
wrapper, tenant-shard poisoning, and the end-to-end scenario sweep."""

import numpy as np
import pytest

from repro.chaos import (
    ChaosBackend,
    CorruptBinsInjector,
    CorruptSolveInjector,
    InjectedFault,
    LatencyInjector,
    RaiseInjector,
    collect_float_arrays,
    poison_cache,
    run_chaos_suite,
)
from repro.runtime import BatchRuntime, plan_batch
from repro.serving import CoalescingEngine, Request, TenantCacheShards
from repro.runtime.backends import get_backend
from tests.strategies import make_batch, make_rhs


def chaos_of(injectors, seed=0):
    return ChaosBackend(get_backend("binned"), injectors, seed=seed)


class TestInjectors:
    def test_raise_injector_always_fires_at_rate_one(self):
        chaos = chaos_of([RaiseInjector("factorize", rate=1.0)])
        batch = make_batch(4, 8, seed=0, dominant=True)
        with pytest.raises(InjectedFault) as exc:
            chaos.factorize(plan_batch(batch))
        assert exc.value.event.stage == "factorize"
        assert chaos.events and chaos.last_faults

    def test_raise_injector_rate_zero_never_fires(self):
        chaos = chaos_of([RaiseInjector("factorize", rate=0.0)])
        batch = make_batch(4, 8, seed=0, dominant=True)
        res = chaos.factorize(plan_batch(batch))
        assert res.ok
        assert chaos.events == []
        assert chaos.last_faults == ()

    def test_rejects_unknown_stage(self):
        with pytest.raises(ValueError, match="stage"):
            RaiseInjector("apply")
        with pytest.raises(ValueError, match="stage"):
            LatencyInjector("apply")

    def test_flaky_schedule_is_seed_deterministic(self):
        batch = make_batch(4, 8, seed=0, dominant=True)

        def schedule(seed):
            chaos = chaos_of([RaiseInjector("factorize", 0.5)], seed=seed)
            fired = []
            for _ in range(20):
                try:
                    chaos.factorize(plan_batch(batch))
                    fired.append(False)
                except InjectedFault:
                    fired.append(True)
            return fired

        a, b = schedule(7), schedule(7)
        assert a == b
        assert True in a and False in a  # genuinely flaky at rate 0.5
        assert schedule(8) != a  # and the seed matters

    def test_corrupt_bins_damages_factors_not_info(self):
        batch = make_batch(8, 12, seed=1, dominant=True)
        plan = plan_batch(batch)
        clean = get_backend("binned").factorize(plan_batch(batch))
        chaos = chaos_of([CorruptBinsInjector(rate=1.0, mode="nan")])
        res = chaos.factorize(plan)
        np.testing.assert_array_equal(res.info, clean.info)
        arrays = collect_float_arrays(res.state)
        assert any(np.isnan(a).any() for a in arrays)
        assert chaos.events  # the corruption is recorded

    def test_corrupt_solve_damages_output(self):
        batch = make_batch(6, 10, seed=2, dominant=True)
        rhs = make_rhs(batch, seed=3)
        plan = plan_batch(batch)
        chaos = chaos_of([CorruptSolveInjector(rate=1.0)])
        res = chaos.factorize(plan)
        out = chaos.solve(res.state, plan, rhs)
        assert not np.isfinite(out.data).all()

    def test_latency_preserves_results(self):
        batch = make_batch(6, 10, seed=2, dominant=True)
        rhs = make_rhs(batch, seed=3)
        chaos = chaos_of([LatencyInjector("factorize", seconds=0.0)])
        plan = plan_batch(batch)
        res = chaos.factorize(plan)
        ref = get_backend("binned").factorize(plan_batch(batch))
        np.testing.assert_array_equal(
            chaos.solve(res.state, plan, rhs).data,
            get_backend("binned").solve(
                ref.state, plan_batch(batch), rhs
            ).data,
        )
        assert len(chaos.events) == 1  # fired but harmless

    def test_collect_float_arrays_walks_nested_state(self):
        payload = {
            "a": np.ones(3),
            "b": [np.zeros((2, 2)), (np.ones(1), "text")],
            "c": np.arange(3),  # integer array: not collected
        }
        arrays = collect_float_arrays(payload)
        assert len(arrays) == 3


class TestChaosBackend:
    def test_events_survive_organic_failures(self):
        # a latency event fired before the inner call must stay
        # recorded even when the inner backend then raises on its own
        class BrokenBackend(get_backend("binned").__class__):
            def factorize(self, plan, method="lu", on_singular=None):
                raise RuntimeError("organic")

        chaos = ChaosBackend(
            BrokenBackend(), [LatencyInjector("factorize", seconds=0.0)]
        )
        batch = make_batch(4, 8, seed=0, dominant=True)
        with pytest.raises(RuntimeError, match="organic"):
            chaos.factorize(plan_batch(batch))
        assert len(chaos.last_faults) == 1

    def test_runtime_survives_raising_chaos_primary(self):
        batch = make_batch(10, 12, seed=4, dominant=True)
        rhs = make_rhs(batch, seed=5)
        chaos = chaos_of([RaiseInjector("factorize", rate=1.0)])
        rt = BatchRuntime(backend=chaos, resilient=True)
        fac = rt.factorize(batch)
        ref = BatchRuntime(backend="numpy").factorize(batch)
        np.testing.assert_allclose(
            fac.solve(rhs).data, ref.solve(rhs).data
        )
        assert rt.last_report.fallback_events

    def test_runtime_quarantines_corrupted_bins(self):
        batch = make_batch(10, 12, seed=4, dominant=True)
        rhs = make_rhs(batch, seed=5)
        chaos = chaos_of([CorruptBinsInjector(rate=1.0, max_bins=8)])
        rt = BatchRuntime(backend=chaos, resilient=True)
        fac = rt.factorize(batch)
        out = fac.solve(rhs)
        assert np.isfinite(out.data[np.arange(batch.nb), 0]).all()
        ref = BatchRuntime(backend="numpy").factorize(batch)
        np.testing.assert_allclose(out.data, ref.solve(rhs).data)
        rep = rt.last_report
        assert any(
            e.get("error") == "corrupted_factors"
            for e in rep.fallback_events
        ) or rep.quarantined_bins

    def test_faulted_handles_never_cached(self):
        # corrupted bins are quarantined: the answer is served, but the
        # tainted launch never enters a tenant shard
        batch = make_batch(6, 10, seed=1, dominant=True)
        chaos = chaos_of([CorruptBinsInjector(rate=1.0, max_bins=8)])
        rt = BatchRuntime(backend=chaos, resilient=True)
        shards = TenantCacheShards()
        engine = CoalescingEngine(runtime=rt, shards=shards)
        engine.submit(
            Request(tenant="t", batch=batch, kind="solve",
                    rhs=make_rhs(batch, seed=2))
        )
        resp = engine.flush()[0]
        assert resp.status == "ok"
        assert rt.last_report.quarantined_bins
        assert shards.stats()["entries"] == 0


class TestPoisonCache:
    def test_poisons_stored_factors(self):
        batch = make_batch(6, 10, seed=1, dominant=True)
        shards = TenantCacheShards()
        engine = CoalescingEngine(shards=shards)
        engine.submit(Request(tenant="t", batch=batch, kind="setup"))
        view = engine.flush()[0].handle
        assert poison_cache(shards.shard("t"), seed=0) == 1
        arrays = collect_float_arrays(view.shared.result.state)
        assert any(~np.isfinite(a).all() for a in arrays)

    def test_empty_cache_poisons_nothing(self):
        from repro.runtime import FactorizationCache

        assert poison_cache(FactorizationCache(), seed=0) == 0


class TestScenarioSuite:
    def test_quick_suite_passes_and_reports(self):
        report = run_chaos_suite(seed=0, quick=True)
        assert report.passed, report.summary()
        assert len(report.scenarios) == 12
        d = report.to_dict()
        assert d["passed"] is True
        assert {s["name"] for s in d["scenarios"]} >= {
            "baseline",
            "factorize-raise-storm",
            "cache-poisoning",
            "bin-fault-info-bitwise",
            "serving-tenant-isolation",
            "overload-storm",
        }
        assert "PASS" in report.summary()
