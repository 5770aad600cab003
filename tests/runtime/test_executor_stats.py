"""Tests for the BatchRuntime executor and its instrumentation."""

import json

import numpy as np
import pytest

from repro.core import BatchedMatrices
from repro.core.random_batches import random_batch, random_rhs
from repro.runtime import BatchRuntime
from repro.verify.adversarial import mixed_size_batch


def _mixed_batch(seed=0):
    return random_batch(24, size_range=(1, 32), kind="diag_dominant",
                        seed=seed)


class TestFactorizeAndSolve:
    def test_handle_solves_and_times_stages(self):
        rt = BatchRuntime()
        batch = _mixed_batch()
        fac = rt.factorize(batch)
        rep = rt.last_report
        assert rep is fac.report
        assert {"plan", "factor"} <= set(rep.stage_seconds)
        assert "solve" not in rep.stage_seconds
        fac.solve(random_rhs(batch, seed=1))
        fac.solve(random_rhs(batch, seed=2))
        assert rep.stage_seconds["solve"] > 0.0
        assert rep.total_seconds > 0.0

    def test_source_batch_never_mutated(self):
        batch = _mixed_batch()
        before = batch.data.copy()
        fac = BatchRuntime().factorize(batch)
        fac.solve(random_rhs(batch, seed=1))
        np.testing.assert_array_equal(batch.data, before)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            BatchRuntime().factorize(_mixed_batch(), method="qr")

    def test_rejects_mismatched_rhs(self):
        rt = BatchRuntime()
        fac = rt.factorize(_mixed_batch(seed=0))
        wrong = random_rhs(_mixed_batch(seed=0), seed=1)
        bad = type(wrong)(wrong.data[:-1], wrong.sizes[:-1])
        with pytest.raises(ValueError, match="does not match"):
            fac.solve(bad)

    def test_runtime_solve_alias(self):
        rt = BatchRuntime()
        batch = _mixed_batch()
        fac = rt.factorize(batch)
        rhs = random_rhs(batch, seed=3)
        np.testing.assert_array_equal(
            rt.solve(fac, rhs).data, fac.solve(rhs).data
        )


class TestPaddingAccounting:
    def test_binned_strictly_beats_monolithic_on_mixed_batch(self):
        # the tentpole acceptance check: a tile-32 batch containing
        # blocks below 32 must be charged strictly fewer padded flops
        # by the binned dispatch than by the monolithic tile-32 loop
        batch = mixed_size_batch(24, tile=32, seed=0,
                                 kind="diag_dominant")
        assert int(batch.sizes.min()) < 32
        rt = BatchRuntime(backend="binned")
        rt.factorize(batch)
        rep = rt.last_report
        assert rep.padded_flops < rep.monolithic_padded_flops
        assert rep.flops_saved > 0
        # per-bin integer truncation: within nb of the whole-batch count
        assert abs(rep.useful_flops - batch.flops_lu()) <= batch.nb
        assert rep.padded_flops >= rep.useful_flops

    def test_uniform_full_tile_batch_saves_nothing(self):
        batch = random_batch(8, size=32, kind="diag_dominant", seed=0)
        rt = BatchRuntime()
        rt.factorize(batch)
        rep = rt.last_report
        assert rep.padded_flops == rep.monolithic_padded_flops
        assert rep.flops_saved == 0

    def test_binned_lu_pads_nothing_but_gh_does(self):
        # binned lu runs getrf at each block's exact size; the SoA
        # Gauss-Huard sweep runs every bin at its tight tile
        batch = _mixed_batch()
        rt = BatchRuntime(backend="binned")
        rt.factorize(batch, method="lu")
        assert rt.last_report.padding_waste == 0
        rt.factorize(batch, method="gh")
        assert rt.last_report.padding_waste > 0

    def test_numpy_backend_reports_single_monolithic_bin(self):
        rt = BatchRuntime(backend="numpy")
        rt.factorize(_mixed_batch())
        rep = rt.last_report
        assert len(rep.bins) == 1
        assert rep.bins[0].tile == rep.source_tile
        assert rep.padded_flops == rep.monolithic_padded_flops

    def test_report_serializes_to_json(self):
        rt = BatchRuntime()
        batch = _mixed_batch()
        rt.factorize(batch).solve(random_rhs(batch, seed=1))
        d = rt.last_report.to_dict()
        payload = json.loads(json.dumps(d))
        assert payload["backend"] == "binned"
        assert payload["nb"] == batch.nb
        assert len(payload["bins"]) == len(rt.last_report.bins)

    def test_summary_mentions_backend_and_bins(self):
        rt = BatchRuntime()
        rt.factorize(_mixed_batch())
        text = rt.last_report.summary()
        assert "runtime[binned/lu]" in text
        assert "bin tile" in text
        assert "monolithic" in text


class TestCachingExecutor:
    """The runtime keeps no cache: the switches left are inert."""

    def test_use_cache_false_bypasses_lookup(self):
        rt = BatchRuntime()
        batch = _mixed_batch()
        first = rt.factorize(batch, use_cache=False)
        second = rt.factorize(batch, use_cache=False)
        assert second is not first  # refactorized, never looked up
        s = rt.cache_stats
        assert (s.hits, s.misses, s.entries) == (0, 0, 0)
        assert rt.last_report.cache_hit is None

    def test_cache_disabled(self):
        rt = BatchRuntime(cache=False)
        batch = _mixed_batch()
        rt.factorize(batch)
        s = rt.cache_stats
        assert (s.hits, s.misses, s.entries) == (0, 0, 0)
        assert rt.last_report.cache_hit is None


class TestBenchmarkNames:
    def test_cache_names_the_benchmark_calls_stay_inert(self):
        # benchmarks/e2e calls these names; the runtime keeps no cache
        import repro.serving.engine

        batch = _mixed_batch()
        rt = BatchRuntime(cache=False)
        fac = rt.factorize(batch, use_cache=False)
        fac.solve(random_rhs(batch, seed=1))
        assert rt.cache_stats.hits == rt.cache_stats.misses == 0
        assert not rt.last_report.cache_hit
        assert "fingerprint" not in rt.last_report.stage_seconds
        with pytest.raises(TypeError, match="TenantCacheShards"):
            BatchRuntime(cache=True)
        with pytest.raises(TypeError, match="TenantCacheShards"):
            rt.factorize(batch, use_cache=True)
        # layers.py patches it to time the serving tenant key
        assert "batch_fingerprint" in vars(repro.serving.engine)


class TestRuntimeConfiguration:
    def test_exact_bins_mode(self):
        rt = BatchRuntime(bins=None)
        batch = BatchedMatrices.identity_padded(
            [np.eye(3) * 2, np.eye(9) * 2, np.eye(3) * 2], tile=16
        )
        rt.factorize(batch)
        assert sorted(b.tile for b in rt.last_report.bins) == [3, 9]

    def test_non_tight_bins_run_at_nominal_ceiling(self):
        batch = BatchedMatrices.identity_padded(
            [np.eye(3) * 2, np.eye(9) * 2], tile=16
        )
        rt = BatchRuntime(tight=False)
        rt.factorize(batch)
        assert sorted(b.tile for b in rt.last_report.bins) == [4, 16]
        tight = BatchRuntime(tight=True)
        tight.factorize(batch)
        assert sorted(b.tile for b in tight.last_report.bins) == [3, 9]

    def test_backend_instance_accepted(self):
        from repro.runtime import get_backend

        rt = BatchRuntime(backend=get_backend("numpy"))
        assert rt.backend.name == "numpy"
