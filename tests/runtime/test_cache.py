"""Tests for the content-fingerprinted factorization cache (the store
behind the serving layer's tenant shards)."""

import numpy as np
import pytest

from repro.runtime import FactorizationCache, batch_fingerprint
from tests.strategies import make_batch


class TestBatchFingerprint:
    def test_equal_content_equal_fingerprint(self):
        a = make_batch(6, 16, seed=7, dominant=True)
        b = make_batch(6, 16, seed=7, dominant=True)
        assert a.data is not b.data
        assert batch_fingerprint(a) == batch_fingerprint(b)

    def test_data_change_changes_fingerprint(self):
        a = make_batch(6, 16, seed=7, dominant=True)
        b = a.copy()
        b.data[0, 0, 0] += 1e-14
        assert batch_fingerprint(a) != batch_fingerprint(b)

    def test_sizes_discriminate_equal_buffers(self):
        # identical padded buffers, different active sizes
        from repro.core import BatchedMatrices

        data = np.eye(4)[None].repeat(2, axis=0)
        a = BatchedMatrices(data.copy(), np.array([4, 4]))
        b = BatchedMatrices(data.copy(), np.array([4, 3]))
        assert batch_fingerprint(a) != batch_fingerprint(b)

    def test_dtype_discriminates(self):
        a = make_batch(3, 8, seed=1, dominant=True)
        assert batch_fingerprint(a) != batch_fingerprint(
            a.astype(np.float32)
        )

    def test_extra_discriminators(self):
        a = make_batch(3, 8, seed=1, dominant=True)
        assert batch_fingerprint(a, extra=("binned", "lu")) != (
            batch_fingerprint(a, extra=("numpy", "lu"))
        )
        assert batch_fingerprint(a, extra=("binned", "lu")) == (
            batch_fingerprint(a, extra=("binned", "lu"))
        )


class TestFactorizationCache:
    def test_miss_then_hit(self):
        c = FactorizationCache(max_entries=4)
        assert c.get("k") is None
        c.put("k", "handle")
        assert c.get("k") == "handle"
        s = c.stats
        assert (s.hits, s.misses, s.entries) == (1, 1, 1)
        assert s.hit_rate == 0.5
        assert "k" in c
        assert len(c) == 1

    def test_lru_eviction_order(self):
        c = FactorizationCache(max_entries=2)
        c.put("a", 1)
        c.put("b", 2)
        c.put("c", 3)  # evicts "a", the least recently used
        assert "a" not in c
        assert c.get("b") == 2
        assert c.stats.evictions == 1

    def test_lookup_refreshes_recency(self):
        c = FactorizationCache(max_entries=2)
        c.put("a", 1)
        c.put("b", 2)
        assert c.get("a") == 1  # "a" becomes most recent
        c.put("c", 3)  # so "b" is the one evicted
        assert "a" in c
        assert "b" not in c

    def test_put_refreshes_recency(self):
        c = FactorizationCache(max_entries=2)
        c.put("a", 1)
        c.put("b", 2)
        c.put("a", 10)  # refresh, not insert
        c.put("c", 3)
        assert c.get("a") == 10
        assert "b" not in c

    def test_invalidate_single_key(self):
        c = FactorizationCache()
        c.put("a", 1)
        c.put("b", 2)
        assert c.invalidate("a") == 1
        assert "a" not in c
        assert "b" in c
        assert c.stats.invalidations == 1

    def test_invalidate_unknown_key_is_noop(self):
        c = FactorizationCache()
        assert c.invalidate("ghost") == 0
        assert c.stats.invalidations == 0

    def test_invalidate_all(self):
        c = FactorizationCache()
        c.put("a", 1)
        c.put("b", 2)
        assert c.invalidate() == 2
        assert len(c) == 0
        assert c.stats.invalidations == 2

    def test_empty_cache_hit_rate_is_zero(self):
        assert FactorizationCache().stats.hit_rate == 0.0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="positive"):
            FactorizationCache(max_entries=0)

    def test_stats_to_dict_roundtrip(self):
        c = FactorizationCache(max_entries=3)
        c.put("a", 1)
        c.get("a")
        d = c.stats.to_dict()
        assert d["hits"] == 1
        assert d["max_entries"] == 3
        assert d["hit_rate"] == 1.0


class _Sized:
    def __init__(self, nbytes):
        self.nbytes = nbytes


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTtlEviction:
    def test_rejects_nonpositive_ttl(self):
        with pytest.raises(ValueError, match="ttl_seconds"):
            FactorizationCache(ttl_seconds=0.0)

    def test_expired_lookup_is_miss_plus_ttl_eviction(self):
        clk = Clock()
        c = FactorizationCache(ttl_seconds=10.0, clock=clk)
        c.put("k", 1)
        clk.now = 9.9
        assert c.get("k") == 1
        clk.now = 10.0  # age >= ttl: expired
        assert c.get("k") is None
        s = c.stats
        assert s.evictions == 1
        assert s.eviction_reasons["ttl"] == 1
        assert s.entries == 0

    def test_contains_and_peek_see_expiry(self):
        clk = Clock()
        c = FactorizationCache(ttl_seconds=5.0, clock=clk)
        c.put("k", 1)
        assert "k" in c
        clk.now = 6.0
        assert "k" not in c
        assert c.peek("k") is None
        # peek/contains do not evict; the entry is still resident
        assert c.stats.entries == 1

    def test_put_evicts_expired_eagerly(self):
        clk = Clock()
        c = FactorizationCache(ttl_seconds=5.0, clock=clk)
        c.put("old", 1)
        clk.now = 6.0
        c.put("new", 2)
        s = c.stats
        assert s.entries == 1
        assert s.eviction_reasons["ttl"] == 1

    def test_refresh_resets_age(self):
        clk = Clock()
        c = FactorizationCache(ttl_seconds=5.0, clock=clk)
        c.put("k", 1)
        clk.now = 4.0
        c.put("k", 2)  # refresh restamps
        clk.now = 8.0  # 4s since refresh, 8s since first insert
        assert c.get("k") == 2


class TestByteBudget:
    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError, match="max_bytes"):
            FactorizationCache(max_bytes=0)

    def test_budget_evicts_lru_until_fit(self):
        c = FactorizationCache(max_bytes=100)
        c.put("a", _Sized(40))
        c.put("b", _Sized(40))
        c.put("c", _Sized(40))  # 120 > 100: evicts "a"
        assert "a" not in c
        assert "b" in c and "c" in c
        assert c.nbytes == 80
        assert c.stats.eviction_reasons["bytes"] == 1

    def test_oversized_value_stored_alone(self):
        c = FactorizationCache(max_bytes=100)
        c.put("a", _Sized(40))
        c.put("big", _Sized(500))  # bigger than the whole budget
        assert "big" in c  # the budget bounds the cache, not the work
        assert "a" not in c
        assert c.stats.entries == 1

    def test_nbytes_override_beats_value_attribute(self):
        c = FactorizationCache(max_bytes=100)
        c.put("a", _Sized(1000), nbytes=10)  # caller knows better
        assert "a" in c
        assert c.nbytes == 10

    def test_valueless_objects_count_zero_bytes(self):
        c = FactorizationCache(max_bytes=10)
        for i in range(5):
            c.put(f"k{i}", f"value-{i}")
        assert c.stats.entries == 5
        assert c.nbytes == 0

    def test_invalidate_releases_bytes(self):
        c = FactorizationCache(max_bytes=1000)
        c.put("a", _Sized(100))
        c.put("b", _Sized(200))
        c.invalidate("a")
        assert c.nbytes == 200
        c.put("c", _Sized(50))
        c.invalidate()
        assert c.nbytes == 0

    def test_stats_expose_all_axes(self):
        clk = Clock()
        c = FactorizationCache(
            max_entries=8, ttl_seconds=30.0, max_bytes=256, clock=clk
        )
        c.put("a", _Sized(64))
        d = c.stats.to_dict()
        assert d["bytes"] == 64
        assert d["max_bytes"] == 256
        assert d["ttl_seconds"] == 30.0
        assert set(d["eviction_reasons"]) == {"capacity", "ttl", "bytes"}

    def test_evictions_total_sums_reasons(self):
        clk = Clock()
        c = FactorizationCache(
            max_entries=2, ttl_seconds=10.0, max_bytes=100, clock=clk
        )
        c.put("a", _Sized(60))
        c.put("b", _Sized(60))  # bytes eviction of "a"
        clk.now = 11.0
        assert c.get("b") is None  # ttl eviction
        c.put("c", _Sized(10))
        c.put("d", _Sized(10))
        c.put("e", _Sized(10))  # capacity eviction of "c"
        s = c.stats
        assert s.eviction_reasons == {"capacity": 1, "ttl": 1, "bytes": 1}
        assert s.evictions == 3


class TestCacheResilienceApi:
    def test_keys_lru_order_and_peek(self):
        c = FactorizationCache(max_entries=4)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")  # a becomes most recent
        assert c.keys() == ["b", "a"]
        hits = c.stats.hits
        assert c.peek("b") == 2
        assert c.peek("ghost") is None
        assert c.stats.hits == hits  # peek never touches counters
        assert c.keys() == ["b", "a"]  # nor recency

    def test_concurrent_hammering_stays_consistent(self):
        # a shard is reached from submitting threads and the flush
        # worker at once; hammer every operation concurrently and check
        # the invariants
        import threading

        c = FactorizationCache(max_entries=8)
        keys = [f"k{i}" for i in range(16)]
        errors = []
        barrier = threading.Barrier(8)

        def worker(wid):
            try:
                barrier.wait()
                for round_ in range(200):
                    k = keys[(wid * 7 + round_) % len(keys)]
                    c.put(k, (wid, round_))
                    got = c.get(k)
                    assert got is None or isinstance(got, tuple)
                    if round_ % 31 == 0:
                        c.invalidate(k)
                    if round_ % 50 == 0:
                        c.keys()
                        c.peek(k)
            except Exception as e:  # pragma: no cover - failure path
                errors.append(e)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        s = c.stats
        assert len(c) <= 8
        assert s.entries == len(c)
        assert s.hits + s.misses == 8 * 200
        assert s.entries == len(c.keys())
