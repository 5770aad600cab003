"""Runtime-level tests of ``apply_mode``: explicit-inverse GEMV apply
through the executor - equivalence vs the TRSV path, inverse states in
the serving tenant shards (poison-aware), the per-bin autotuner, and
the visible fallback semantics for backends that cannot invert.
"""

import time

import numpy as np
import pytest

from repro.core.random_batches import random_batch, random_rhs
from repro.runtime import APPLY_MODES, BatchRuntime
from repro.serving import CoalescingEngine, Request, TenantCacheShards
from repro.telemetry.metrics import get_metrics, set_metrics
from repro.verify.adversarial import mixed_size_batch, pivot_tie_batch

from tests.strategies import make_batch, make_rhs

SEED = 7

INVERTING_BACKENDS = ("numpy", "binned")


def _reference(batch, rhs, **kw):
    rt = BatchRuntime(backend="numpy")
    return rt.factorize(batch, **kw).solve(rhs)


class TestApplyModeEquivalence:
    @pytest.mark.parametrize("backend", INVERTING_BACKENDS)
    @pytest.mark.parametrize("mode", ["inverse", "auto"])
    def test_matches_factor_path_on_mixed_batch(self, backend, mode):
        batch = make_batch(20, 16, SEED, dominant=True)
        rhs = make_rhs(batch, SEED + 1)
        ref = _reference(batch, rhs)
        rt = BatchRuntime(backend=backend)
        fac = rt.factorize(batch, apply_mode=mode)
        sol = fac.solve(rhs)
        np.testing.assert_allclose(
            sol.data, ref.data, rtol=1e-9, atol=1e-12
        )
        assert fac.apply_mode == mode
        assert fac.effective_apply_mode in ("inverse", "factor", "mixed")

    @pytest.mark.parametrize(
        "make",
        [
            lambda: mixed_size_batch(16, tile=8, seed=SEED,
                                     kind="diag_dominant"),
            lambda: pivot_tie_batch(8, size=8, seed=SEED),
        ],
        ids=["mixed_size", "pivot_tie"],
    )
    def test_adversarial_batches(self, make):
        batch = make()
        rhs = random_rhs(batch, seed=SEED)
        ref = _reference(batch, rhs)
        rt = BatchRuntime(backend="binned")
        sol = rt.factorize(batch, apply_mode="inverse").solve(rhs)
        np.testing.assert_allclose(
            sol.data, ref.data, rtol=1e-8, atol=1e-11
        )

    @pytest.mark.parametrize("policy", ["identity", "scalar", "shift"])
    def test_singular_blocks_under_each_policy(self, policy):
        batch = make_batch(10, 8, SEED, dominant=True)
        batch.data[3, : batch.sizes[3], : batch.sizes[3]] = 0.0
        rhs = make_rhs(batch, SEED + 2)
        ref = _reference(batch, rhs, on_singular=policy)
        rt = BatchRuntime(backend="binned")
        fac = rt.factorize(
            batch, on_singular=policy, apply_mode="inverse"
        )
        assert fac.effective_apply_mode == "inverse"
        sol = fac.solve(rhs)
        np.testing.assert_allclose(
            sol.data, ref.data, rtol=1e-9, atol=1e-12
        )

    def test_unresolved_singular_blocks_fall_back_to_factor(self):
        batch = make_batch(6, 8, SEED, dominant=True)
        batch.data[1, : batch.sizes[1], : batch.sizes[1]] = 0.0
        rt = BatchRuntime(backend="binned")
        fac = rt.factorize(batch, on_singular=None, apply_mode="inverse")
        assert not fac.ok
        assert fac.effective_apply_mode == "factor"
        events = rt.last_report.fallback_events
        assert any(
            e.get("stage") == "invert"
            and e.get("error") == "unresolved_singular_blocks"
            for e in events
        )

    def test_invalid_mode_rejected(self):
        rt = BatchRuntime(backend="numpy")
        batch = make_batch(3, 4, SEED, dominant=True)
        with pytest.raises(ValueError, match="apply_mode"):
            rt.factorize(batch, apply_mode="bogus")
        assert "inverse" in APPLY_MODES


class TestNonInvertingBackends:
    def test_non_inverting_backend_demotes_visibly(self):
        from repro.chaos import ChaosBackend
        from repro.runtime import get_backend

        batch = make_batch(8, 8, SEED, dominant=True)
        rhs = make_rhs(batch, SEED + 3)
        # the chaos proxy forwards factorize/solve only: no invert
        rt = BatchRuntime(backend=ChaosBackend(get_backend("binned")))
        fac = rt.factorize(batch, apply_mode="inverse")
        assert fac.effective_apply_mode == "factor"
        events = rt.last_report.fallback_events
        assert any(
            e.get("stage") == "invert"
            and e.get("error") == "backend_no_invert"
            for e in events
        )
        ref = _reference(batch, rhs)
        np.testing.assert_allclose(
            fac.solve(rhs).data, ref.data, rtol=1e-9, atol=1e-12
        )


def _inverse_solve(engine, batch, rhs, apply_mode="inverse"):
    req = Request(tenant="t", batch=batch, kind="solve", rhs=rhs,
                  apply_mode=apply_mode)
    ticket = engine.submit(req)
    return ticket.response if ticket.done else engine.flush()[0]


class TestInverseCache:
    def test_round_trip_preserves_inverse_mode(self):
        batch = make_batch(12, 8, SEED, dominant=True)
        rhs = make_rhs(batch, SEED + 4)
        engine = CoalescingEngine(shards=TenantCacheShards())
        first = _inverse_solve(engine, batch, rhs)
        second = _inverse_solve(engine, batch, rhs)
        assert second.cache_hit
        assert second.handle.shared.effective_apply_mode == "inverse"
        assert second.handle.shared.inverse is not None
        np.testing.assert_array_equal(
            second.solution.data, first.solution.data
        )

    def test_mode_is_part_of_the_cache_key(self):
        batch = make_batch(5, 8, SEED, dominant=True)
        rhs = make_rhs(batch, SEED + 4)
        engine = CoalescingEngine(shards=TenantCacheShards())
        _inverse_solve(engine, batch, rhs, apply_mode="factor")
        # different modes must not collide: the second call is a miss
        assert not _inverse_solve(engine, batch, rhs).cache_hit

    def test_poisoned_inverse_on_a_shard_hit_falls_back_to_factors(self):
        batch = make_batch(8, 8, SEED, dominant=True)
        rhs = make_rhs(batch, SEED + 5)
        engine = CoalescingEngine(
            runtime=BatchRuntime(backend="binned", resilient=True),
            shards=TenantCacheShards(),
        )
        first = _inverse_solve(engine, batch, rhs)
        ref, shared = first.solution.data, first.handle.shared
        # corrupt one stored inverse in place (a decayed cache entry)
        unit = next(u for u in shared.inverse.units() if u is not None)
        unit.inverses.data[0, 0, 0] = np.nan
        hit = _inverse_solve(engine, batch, rhs)
        assert hit.cache_hit and hit.status == "ok"
        assert np.isfinite(hit.solution.data).all()
        np.testing.assert_allclose(hit.solution.data, ref, rtol=1e-12)
        actions = [e.get("action") for e in shared.report.fallback_events]
        assert "inverse_to_factor" in actions


class TestAutotune:
    def test_auto_records_per_bin_measurements(self):
        batch = make_batch(24, 16, SEED, dominant=True)
        rt = BatchRuntime(backend="binned")
        fac = rt.factorize(batch, apply_mode="auto")
        tuning = rt.last_report.apply_tuning
        assert tuning is not None
        assert tuning["mode"] == fac.effective_apply_mode
        assert tuning["mode"] in ("inverse", "factor", "mixed")
        assert len(tuning["bins"]) >= 1
        for b in tuning["bins"]:
            assert b["mode"] in ("inverse", "factor")
            assert b["factor_seconds"] >= 0.0
            assert b["inverse_seconds"] >= 0.0
            assert b["speedup"] > 0.0
        assert tuning["break_even_applies"] > 0.0
        assert "tune" in rt.last_report.stage_seconds

    def test_auto_result_still_correct(self):
        batch = make_batch(24, 16, SEED + 1, dominant=True)
        rhs = make_rhs(batch, SEED + 6)
        ref = _reference(batch, rhs)
        rt = BatchRuntime(backend="binned")
        sol = rt.factorize(batch, apply_mode="auto").solve(rhs)
        np.testing.assert_allclose(
            sol.data, ref.data, rtol=1e-9, atol=1e-12
        )


class _ScriptedClock:
    """Deterministic clock for tune_apply_mode: returns the scripted
    readings in order (the tuner reads start/stop per timed run)."""

    def __init__(self, readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


class TestDeterministicAutotune:
    """Regression: the autotuner's verdict must be a pure function of
    the injected clock, not of wall time (the tests used to rely on
    real timings and could flip on a loaded machine)."""

    def _single_bin_state(self, backend="binned"):
        from repro.runtime import get_backend, plan_batch

        batch = make_batch(6, 8, SEED, dominant=True)
        be = get_backend(backend)
        plan = plan_batch(batch)
        fac = be.factorize(plan)
        inverse = be.invert(fac.state, plan)
        return fac, inverse

    def test_scripted_clock_forces_inverse_verdict(self):
        from repro.runtime.autotune import tune_apply_mode

        fac, inverse = self._single_bin_state()
        # one unit, repeats=1: factor run reads (0, 10), inverse (10, 11)
        clock = _ScriptedClock([0.0, 10.0, 10.0, 11.0])
        tuning = tune_apply_mode(
            fac.state, inverse, invert_seconds=5.0, repeats=1,
            clock=clock,
        )
        assert tuning.mode == "inverse"
        assert tuning.bins[0].factor_seconds == 10.0
        assert tuning.bins[0].inverse_seconds == 1.0
        assert tuning.bins[0].speedup == 10.0
        assert inverse.states[0] is not None
        # break-even: 5s setup / 9s-per-apply gain
        assert tuning.break_even_applies == pytest.approx(5.0 / 9.0)

    def test_scripted_clock_forces_factor_verdict(self):
        from repro.runtime.autotune import tune_apply_mode

        fac, inverse = self._single_bin_state()
        clock = _ScriptedClock([0.0, 1.0, 1.0, 11.0])
        tuning = tune_apply_mode(
            fac.state, inverse, invert_seconds=5.0, repeats=1,
            clock=clock,
        )
        assert tuning.mode == "factor"
        assert inverse.states[0] is None
        assert tuning.break_even_applies == float("inf")

    @pytest.mark.parametrize("backend", ["binned", "numpy"])
    def test_verdict_is_reproducible_across_backends(self, backend):
        from repro.runtime.autotune import tune_apply_mode

        fac, inverse = self._single_bin_state(backend)
        # repeats=2: factor runs time 3.0 then 5.0 (best 3.0), inverse
        # runs 1.0 then 2.0 (best 1.0)
        ticks = [0.0, 3.0, 10.0, 15.0, 20.0, 21.0, 30.0, 32.0]
        tuning = tune_apply_mode(
            fac.state, inverse, repeats=2, clock=_ScriptedClock(ticks)
        )
        assert tuning.mode == "inverse"
        assert tuning.bins[0].factor_seconds == 3.0
        assert tuning.bins[0].inverse_seconds == 1.0


class TestResilientApply:
    def test_broken_inverse_falls_back_to_factor_path(self):
        batch = make_batch(10, 8, SEED, dominant=True)
        rhs = make_rhs(batch, SEED + 7)
        ref = _reference(batch, rhs)
        rt = BatchRuntime(backend="binned", resilient=True)
        fac = rt.factorize(batch, apply_mode="inverse")
        assert fac.effective_apply_mode == "inverse"
        # sabotage the inverse states: NaN output on clean blocks is
        # what the corruption detector exists to catch
        for u in fac.inverse.units():
            if u is not None:
                u.inverses.data[...] = np.nan
        sol = fac.solve(rhs)
        np.testing.assert_allclose(
            sol.data, ref.data, rtol=1e-9, atol=1e-12
        )
        events = rt.last_report.fallback_events
        assert any(
            e.get("action") == "inverse_to_factor" for e in events
        )


class TestInverseApplySpeed:
    @pytest.mark.parametrize("m", [4, 8, 16])
    def test_gemv_apply_beats_trsv_apply(self, m):
        # the paper's GJE trade-off: on small uniform bins one GEMV
        # per apply beats the two sequential triangular sweeps
        batch = random_batch(64, size=m, kind="diag_dominant", seed=0)
        rhs = random_rhs(batch, seed=1)
        rt = BatchRuntime(backend="numpy")
        seconds = {}
        for mode in ("factor", "inverse"):
            fac = rt.factorize(batch, apply_mode=mode)
            assert fac.effective_apply_mode == mode
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                fac.solve(rhs)
                best = min(best, time.perf_counter() - t0)
            seconds[mode] = best
        assert seconds["inverse"] < seconds["factor"], seconds


class TestTelemetry:
    def test_apply_latency_histogram_labels_mode(self):
        original = get_metrics()
        set_metrics(None)
        try:
            batch = make_batch(6, 8, SEED, dominant=True)
            rhs = make_rhs(batch, SEED + 8)
            rt = BatchRuntime(backend="binned")
            rt.factorize(batch, apply_mode="inverse").solve(rhs)
            rt.factorize(batch, apply_mode="factor").solve(rhs)
            snap = get_metrics().snapshot()
            assert snap.get("repro_apply_seconds") is not None
            text = get_metrics().prometheus_text()
            assert 'mode="inverse"' in text
            assert 'mode="factor"' in text
        finally:
            set_metrics(original)
