"""Content-addressed factorization cache with LRU/TTL/byte eviction.

The heavy-traffic serving scenario of the ROADMAP re-runs the
block-Jacobi setup on the *same* matrix over and over (every solve of a
time-step sequence, every request against a cached system).  The
factorization is the expensive part of setup, and it depends only on
the extracted diagonal blocks - so a content fingerprint of the block
batch (geometry + data hash) is a sound cache key: equal fingerprint
implies equal input bytes implies bit-identical factors.

The cache is deliberately dumb and observable: a bounded LRU mapping
``fingerprint -> factorization handle`` with hit/miss/eviction counters
and explicit invalidation.  It never inspects the handles it stores -
entry *validation* (fingerprint re-check, finite-factor spot check) is
the executor's job on hit; a validation failure is reported back as
:meth:`FactorizationCache.evict_poisoned` so the counters tell the
story.

Three eviction axes, each with its own reason counter (``capacity``,
``ttl``, ``bytes``) in the stats and the metrics registry:

* **capacity** - inserting beyond ``max_entries`` evicts LRU entries
  (the historical behaviour, always on);
* **ttl** - entries older than ``ttl_seconds`` are dropped lazily on
  lookup and eagerly on insert (a serving deployment must not serve a
  factorization of data the tenant has long replaced);
* **bytes** - when ``max_bytes`` is set, inserts evict LRU entries
  until the tracked byte total fits the budget (per-tenant shards of
  the serving layer give every tenant a bounded memory footprint).

Entry sizes come from the stored value's ``nbytes`` attribute
(:class:`~repro.runtime.executor.RuntimeFactorization` provides an
estimate) or an explicit ``nbytes=`` at :meth:`put`; valueless objects
count as zero bytes.

All operations are guarded by one :class:`threading.Lock`: a shared
runtime is reachable from multiple request threads at once (the
serving layer's flush worker among them), and the ``OrderedDict``
reordering in ``get``/``put`` is not atomic on its own.  The clock is injectable
(monotonic seconds) so TTL tests can step time deterministically.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..clock import MONOTONIC
from ..core.batch import BatchedMatrices
from ..telemetry.metrics import get_metrics

__all__ = [
    "CacheStats",
    "EVICTION_REASONS",
    "FactorizationCache",
    "batch_fingerprint",
]

#: why an entry can be evicted (beyond explicit invalidation/poisoning)
EVICTION_REASONS = ("capacity", "ttl", "bytes")


def _count(event: str, n: int = 1) -> None:
    if n:
        get_metrics().counter(
            "repro_cache_events_total",
            "Factorization-cache events by kind",
        ).inc(n, event=event)


def _count_eviction(reason: str, n: int = 1) -> None:
    if n:
        get_metrics().counter(
            "repro_cache_evictions_total",
            "Factorization-cache evictions by reason",
        ).inc(n, reason=reason)


def batch_fingerprint(
    batch: BatchedMatrices, extra: Iterable[object] = ()
) -> str:
    """Content fingerprint of a batch: shape tuple + data hash.

    Hashes the geometry (``nb``, ``tile``, dtype), the active sizes and
    the full padded data buffer with SHA-1.  ``extra`` mixes additional
    discriminators into the key (the executor adds backend name,
    method, policy and bin ladder, so one cache can serve them all
    without collisions).
    """
    h = hashlib.sha1()
    h.update(
        f"{batch.nb}:{batch.tile}:{batch.dtype.str}|".encode()
    )
    h.update(batch.sizes.tobytes())
    data = batch.data
    if not data.flags.c_contiguous:  # pragma: no cover - container keeps it
        import numpy as np

        data = np.ascontiguousarray(data)
    h.update(data.tobytes())
    for item in extra:
        h.update(f"|{item!r}".encode())
    return h.hexdigest()


def _value_nbytes(value: Any) -> int:
    """Best-effort byte size of a stored value (0 when unknowable)."""
    n = getattr(value, "nbytes", None)
    if n is None:
        return 0
    try:
        return int(n)
    except (TypeError, ValueError):  # pragma: no cover - exotic nbytes
        return 0


@dataclass
class _Entry:
    value: Any
    stamp: float
    nbytes: int


@dataclass
class CacheStats:
    """Counter snapshot; ``hit_rate`` is over all lookups so far.

    ``evictions`` totals every reason; ``eviction_reasons`` breaks it
    down (``capacity``/``ttl``/``bytes``).  ``bytes`` is the tracked
    byte total of the current entries (0 when no value reports a size).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    poisoned: int = 0
    entries: int = 0
    max_entries: int = 0
    bytes: int = 0
    max_bytes: int | None = None
    ttl_seconds: float | None = None
    eviction_reasons: dict = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "eviction_reasons": dict(self.eviction_reasons),
            "invalidations": self.invalidations,
            "poisoned": self.poisoned,
            "entries": self.entries,
            "max_entries": self.max_entries,
            "bytes": self.bytes,
            "max_bytes": self.max_bytes,
            "ttl_seconds": self.ttl_seconds,
            "hit_rate": self.hit_rate,
        }


class FactorizationCache:
    """Bounded, thread-safe LRU cache of factorization handles.

    Parameters
    ----------
    max_entries:
        Capacity; inserting beyond it evicts the least recently used
        entry (lookups refresh recency).  Must be positive.
    ttl_seconds:
        Maximum age of an entry before it expires (None - the default -
        disables expiry).  Expired entries are dropped lazily on lookup
        and eagerly on insert; an expired lookup counts a miss plus a
        ``ttl`` eviction.
    max_bytes:
        Byte budget over the stored values' reported sizes (None
        disables byte accounting).  Inserts evict LRU entries until the
        budget fits; a single value larger than the whole budget is
        stored alone (the budget bounds the *cache*, it does not reject
        work).
    clock:
        Monotonic time source for TTL decisions (injectable for tests).
    """

    def __init__(
        self,
        max_entries: int = 32,
        ttl_seconds: float | None = None,
        max_bytes: int | None = None,
        clock=MONOTONIC,
    ):
        if max_entries < 1:
            raise ValueError(
                f"max_entries must be positive, got {max_entries}"
            )
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(
                f"ttl_seconds must be positive, got {ttl_seconds}"
            )
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(
                f"max_bytes must be positive, got {max_bytes}"
            )
        self.max_entries = int(max_entries)
        self.ttl_seconds = None if ttl_seconds is None else float(ttl_seconds)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = {reason: 0 for reason in EVICTION_REASONS}
        self._invalidations = 0
        self._poisoned = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            e = self._entries.get(key)
            return e is not None and not self._expired(e)

    # -- internal (lock held) ---------------------------------------------

    def _expired(self, entry: _Entry) -> bool:
        return (
            self.ttl_seconds is not None
            and self._clock() - entry.stamp >= self.ttl_seconds
        )

    def _drop(self, key: str, reason: str) -> None:
        entry = self._entries.pop(key)
        self._bytes -= entry.nbytes
        self._evictions[reason] += 1

    def _evict_expired(self) -> int:
        if self.ttl_seconds is None:
            return 0
        dead = [k for k, e in self._entries.items() if self._expired(e)]
        for k in dead:
            self._drop(k, "ttl")
        return len(dead)

    # -- public API -------------------------------------------------------

    def get(self, key: str) -> Any | None:
        """Look up a handle; counts a hit (and refreshes recency) or a
        miss.  Returns None on miss; an expired entry is evicted
        (reason ``ttl``) and counts a miss."""
        ttl_evicted = 0
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self._expired(entry):
                self._drop(key, "ttl")
                ttl_evicted = 1
                entry = None
            if entry is None:
                self._misses += 1
                value = None
            else:
                self._entries.move_to_end(key)
                self._hits += 1
                value = entry.value
        _count("hit" if value is not None else "miss")
        _count("eviction", ttl_evicted)
        _count_eviction("ttl", ttl_evicted)
        return value

    def put(self, key: str, value: Any, nbytes: int | None = None) -> None:
        """Insert (or refresh) a handle, evicting expired entries first,
        then LRU entries beyond ``max_entries`` and ``max_bytes``.

        ``nbytes`` overrides the value's own reported size for the byte
        budget (useful when the caller knows the value shares storage
        with other entries).
        """
        size = _value_nbytes(value) if nbytes is None else int(nbytes)
        evicted: dict[str, int] = {}
        with self._lock:
            before = dict(self._evictions)
            self._evict_expired()
            if key in self._entries:
                old = self._entries.pop(key)
                self._bytes -= old.nbytes
            self._entries[key] = _Entry(value, self._clock(), size)
            self._bytes += size
            while len(self._entries) > self.max_entries:
                self._drop(next(iter(self._entries)), "capacity")
            if self.max_bytes is not None:
                # never evict the entry just inserted: the budget bounds
                # the cache, it does not reject work
                while (
                    self._bytes > self.max_bytes and len(self._entries) > 1
                ):
                    self._drop(next(iter(self._entries)), "bytes")
            evicted = {
                r: self._evictions[r] - before[r]
                for r in EVICTION_REASONS
            }
        _count("insert")
        for reason, n in evicted.items():
            _count("eviction", n)
            _count_eviction(reason, n)

    def invalidate(self, key: str | None = None) -> int:
        """Drop one entry (``key``) or everything (``None``).

        Returns the number of entries removed; invalidating an unknown
        key is a no-op returning 0.
        """
        with self._lock:
            if key is None:
                n = len(self._entries)
                self._entries.clear()
                self._bytes = 0
            else:
                entry = self._entries.pop(key, None)
                n = 0 if entry is None else 1
                if entry is not None:
                    self._bytes -= entry.nbytes
            self._invalidations += n
        _count("invalidation", n)
        return n

    def evict_poisoned(self, key: str) -> bool:
        """Drop an entry that failed validation on hit.

        Counted separately from explicit invalidations so poisoning
        shows up in the stats; returns whether the key was present.
        """
        with self._lock:
            entry = self._entries.pop(key, None)
            present = entry is not None
            if present:
                self._bytes -= entry.nbytes
                self._poisoned += 1
        _count("poisoned", int(present))
        return present

    def keys(self) -> list[str]:
        """Current keys, LRU-first (a snapshot, not a live view)."""
        with self._lock:
            return list(self._entries)

    def peek(self, key: str) -> Any | None:
        """Read an entry without touching recency or the counters
        (expired entries read as absent but are not evicted)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or self._expired(entry):
                return None
            return entry.value

    @property
    def nbytes(self) -> int:
        """Tracked byte total of the current entries."""
        with self._lock:
            return self._bytes

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=sum(self._evictions.values()),
                invalidations=self._invalidations,
                poisoned=self._poisoned,
                entries=len(self._entries),
                max_entries=self.max_entries,
                bytes=self._bytes,
                max_bytes=self.max_bytes,
                ttl_seconds=self.ttl_seconds,
                eviction_reasons=dict(self._evictions),
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats
        return (
            f"FactorizationCache(entries={s.entries}/{s.max_entries}, "
            f"hits={s.hits}, misses={s.misses}, evictions={s.evictions})"
        )
