"""Per-tenant sharded factorization caches with TTL + byte budgets.

One shared cache across tenants would let a hot tenant evict everyone
else's entries (noisy-neighbour) and would make per-tenant memory
accounting impossible.  The shards give every tenant its own bounded
:class:`~repro.runtime.cache.FactorizationCache` - entry-capped,
TTL-capped and byte-capped - created lazily on first touch.  The
tenant *population* itself is optionally bounded (``max_tenants``): a
new tenant beyond the bound evicts the least recently touched tenant's
whole shard, so an unbounded stream of one-shot tenants cannot grow
the process without limit.

The shards are the only factorization cache in the system: the batch
runtime factorizes on every call.

Isolation contract (tested): operations on one tenant's shard -
inserts, eviction pressure, TTL expiry, invalidation - never touch
another tenant's entries.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any

from ..runtime.cache import FactorizationCache
from ..telemetry.metrics import get_metrics

__all__ = ["TenantCacheShards"]


class TenantCacheShards:
    """Lazily-created per-tenant factorization caches.

    Parameters
    ----------
    per_tenant_entries:
        Entry capacity of each tenant's shard.
    ttl_seconds:
        Entry time-to-live applied to every shard (None: no expiry).
    per_tenant_bytes:
        Byte budget of each tenant's shard (None: unbounded bytes).
    max_tenants:
        Bound on the number of live shards; exceeding it evicts the
        least recently *touched* tenant's entire shard (None: no
        bound).
    clock:
        Monotonic time source shared by every shard (injectable).
    """

    def __init__(
        self,
        per_tenant_entries: int = 8,
        ttl_seconds: float | None = None,
        per_tenant_bytes: int | None = None,
        max_tenants: int | None = None,
        clock=time.monotonic,
    ):
        if per_tenant_entries < 1:
            raise ValueError(
                f"per_tenant_entries must be positive, got "
                f"{per_tenant_entries}"
            )
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(
                f"ttl_seconds must be positive, got {ttl_seconds}"
            )
        if per_tenant_bytes is not None and per_tenant_bytes < 1:
            raise ValueError(
                f"per_tenant_bytes must be positive, got {per_tenant_bytes}"
            )
        if max_tenants is not None and max_tenants < 1:
            raise ValueError(
                f"max_tenants must be positive, got {max_tenants}"
            )
        self.per_tenant_entries = int(per_tenant_entries)
        self.ttl_seconds = ttl_seconds
        self.per_tenant_bytes = per_tenant_bytes
        self.max_tenants = max_tenants
        self._clock = clock
        self._lock = threading.Lock()
        self._shards: OrderedDict[str, FactorizationCache] = OrderedDict()
        self._shard_evictions = 0

    def shard(self, tenant: str) -> FactorizationCache:
        """The tenant's cache, created on first touch (touch refreshes
        the tenant's recency for ``max_tenants`` eviction)."""
        evicted = 0
        with self._lock:
            cache = self._shards.get(tenant)
            if cache is None:
                cache = FactorizationCache(
                    max_entries=self.per_tenant_entries,
                    ttl_seconds=self.ttl_seconds,
                    max_bytes=self.per_tenant_bytes,
                    clock=self._clock,
                )
                self._shards[tenant] = cache
                if self.max_tenants is not None:
                    while len(self._shards) > self.max_tenants:
                        self._shards.popitem(last=False)
                        self._shard_evictions += 1
                        evicted += 1
            else:
                self._shards.move_to_end(tenant)
        if evicted:
            get_metrics().counter(
                "repro_serving_shards_evicted_total",
                "Whole tenant shards evicted by the max_tenants bound",
            ).inc(evicted)
        return cache

    def get(self, tenant: str, key: str) -> Any | None:
        return self.shard(tenant).get(key)

    def put(
        self, tenant: str, key: str, value: Any, nbytes: int | None = None
    ) -> None:
        self.shard(tenant).put(key, value, nbytes=nbytes)

    def invalidate(self, tenant: str | None = None) -> int:
        """Drop one tenant's shard (``tenant``) or every shard
        (``None``); returns the number of entries removed."""
        with self._lock:
            if tenant is None:
                shards = list(self._shards.values())
                self._shards.clear()
            else:
                cache = self._shards.pop(tenant, None)
                shards = [] if cache is None else [cache]
        return sum(c.invalidate() for c in shards)

    def tenants(self) -> list[str]:
        """Live tenants, least recently touched first (a snapshot)."""
        with self._lock:
            return list(self._shards)

    def __len__(self) -> int:
        with self._lock:
            return len(self._shards)

    def stats(self) -> dict:
        """Aggregated counters over every live shard."""
        with self._lock:
            shards = dict(self._shards)
            shard_evictions = self._shard_evictions
        agg = {
            "tenants": len(shards),
            "max_tenants": self.max_tenants,
            "shard_evictions": shard_evictions,
            "entries": 0,
            "bytes": 0,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "eviction_reasons": {},
        }
        for cache in shards.values():
            s = cache.stats
            agg["entries"] += s.entries
            agg["bytes"] += s.bytes
            agg["hits"] += s.hits
            agg["misses"] += s.misses
            agg["evictions"] += s.evictions
            for reason, n in s.eviction_reasons.items():
                agg["eviction_reasons"][reason] = (
                    agg["eviction_reasons"].get(reason, 0) + n
                )
        lookups = agg["hits"] + agg["misses"]
        agg["hit_rate"] = agg["hits"] / lookups if lookups else 0.0
        return agg

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TenantCacheShards(tenants={len(self)}, "
            f"per_tenant_entries={self.per_tenant_entries}, "
            f"ttl={self.ttl_seconds}, bytes={self.per_tenant_bytes})"
        )
