"""Tests for per-tenant cache shards: isolation, TTL, budgets."""

import pytest

from repro.serving import ScriptedClock, TenantCacheShards


class _Value:
    def __init__(self, nbytes=0):
        self.nbytes = nbytes


class TestShardLifecycle:
    def test_lazy_creation_and_reuse(self):
        shards = TenantCacheShards()
        assert len(shards) == 0
        a = shards.shard("alice")
        assert shards.shard("alice") is a
        assert len(shards) == 1
        assert shards.tenants() == ["alice"]

    def test_rejects_nonpositive_max_tenants(self):
        with pytest.raises(ValueError, match="max_tenants"):
            TenantCacheShards(max_tenants=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"per_tenant_entries": 0},
            {"ttl_seconds": -1},
            {"ttl_seconds": 0},
            {"per_tenant_bytes": 0},
        ],
    )
    def test_rejects_config_no_shard_can_use(self, kwargs):
        # rejected at construction, not on the first live request
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            TenantCacheShards(**kwargs)

    def test_max_tenants_evicts_least_recently_touched(self):
        shards = TenantCacheShards(max_tenants=2)
        shards.put("a", "k", 1)
        shards.put("b", "k", 2)
        shards.get("a", "k")  # refresh a's recency
        shards.put("c", "k", 3)  # evicts b, the stalest
        assert set(shards.tenants()) == {"a", "c"}
        assert shards.get("a", "k") == 1
        assert shards.stats()["shard_evictions"] == 1
        # b's shard is gone entirely - a re-touch starts cold
        assert shards.get("b", "k") is None

    def test_invalidate_one_tenant_or_all(self):
        shards = TenantCacheShards()
        shards.put("a", "k1", 1)
        shards.put("a", "k2", 2)
        shards.put("b", "k1", 3)
        assert shards.invalidate("a") == 2
        assert shards.get("b", "k1") == 3  # b untouched
        assert shards.invalidate() == 1
        assert len(shards) == 0
        assert shards.invalidate("ghost") == 0


class TestTenantIsolation:
    def test_eviction_pressure_stays_in_shard(self):
        shards = TenantCacheShards(per_tenant_entries=2)
        shards.put("victim", "k", "keep me")
        for i in range(10):  # hammer another tenant far past capacity
            shards.put("noisy", f"k{i}", i)
        assert shards.get("victim", "k") == "keep me"
        assert shards.shard("noisy").stats.entries == 2
        assert shards.shard("victim").stats.evictions == 0

    def test_byte_budget_is_per_tenant(self):
        shards = TenantCacheShards(per_tenant_bytes=100)
        shards.put("a", "k", _Value(nbytes=80))
        shards.put("b", "k", _Value(nbytes=80))
        # both fit: the budget is per shard, not global
        assert shards.get("a", "k") is not None
        assert shards.get("b", "k") is not None
        shards.put("a", "k2", _Value(nbytes=80))  # evicts a's first
        assert shards.get("a", "k") is None
        assert shards.get("b", "k") is not None  # b untouched

    def test_keys_do_not_leak_across_tenants(self):
        shards = TenantCacheShards()
        shards.put("alice", "shared-key", "alice's")
        assert shards.get("bob", "shared-key") is None
        assert shards.get("alice", "shared-key") == "alice's"


class TestTtl:
    def test_shared_scripted_clock_expires_entries(self):
        clock = ScriptedClock()
        shards = TenantCacheShards(ttl_seconds=10.0, clock=clock)
        shards.put("a", "k", 1)
        clock.advance(5.0)
        assert shards.get("a", "k") == 1
        clock.advance(5.0)  # now at the TTL boundary
        assert shards.get("a", "k") is None
        assert shards.shard("a").stats.eviction_reasons["ttl"] == 1

    def test_ttl_is_per_entry_not_per_shard(self):
        clock = ScriptedClock()
        shards = TenantCacheShards(ttl_seconds=10.0, clock=clock)
        shards.put("a", "old", 1)
        clock.advance(6.0)
        shards.put("a", "new", 2)
        clock.advance(6.0)  # old is 12s, new is 6s
        assert shards.get("a", "old") is None
        assert shards.get("a", "new") == 2


class TestStats:
    def test_aggregation_across_shards(self):
        shards = TenantCacheShards()
        shards.put("a", "k", _Value(nbytes=10))
        shards.put("b", "k", _Value(nbytes=20))
        shards.get("a", "k")
        shards.get("a", "miss")
        s = shards.stats()
        assert s["tenants"] == 2
        assert s["entries"] == 2
        assert s["bytes"] == 30
        assert s["hits"] == 1
        assert s["misses"] == 1
        assert s["hit_rate"] == 0.5

    def test_empty_stats(self):
        s = TenantCacheShards().stats()
        assert s["tenants"] == 0
        assert s["hit_rate"] == 0.0
        assert s["eviction_reasons"] == {}
