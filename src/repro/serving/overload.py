"""Overload control for the coalescing engine: quotas and adaptive
shedding.

Two cooperating mechanisms, both clock-free (every method takes an
explicit ``now`` in the engine's clock domain) so decisions replay
bit-for-bit under a :class:`~repro.clock.ScriptedClock`:

* :class:`TenantQuotas` - per-tenant token buckets in units of
  *blocks* (the serving layer's cost unit), refilled at
  ``fair_share_blocks_per_s`` scaled by an optional per-tenant weight.
  A tenant over its share is shed ``tenant_quota_exceeded`` with the
  bucket's refill time as the ``Retry-After`` hint, so one storming
  tenant exhausts *its own* budget instead of everyone's queue.
* :class:`CoDelShedder` - adaptive shedding driven by queue *sojourn*
  time, after CoDel (Nichols & Jacobson, CACM 2012): sustained
  standing-queue delay above ``target`` for a full ``interval`` enters
  a dropping state that sheds admissions at an
  ``interval / sqrt(drop_count)`` cadence until the sojourn falls
  below target again.  Sojourn-based control sheds on the *symptom*
  (latency) rather than the queue depth, so short bursts pass
  untouched.

:class:`OverloadController` bundles the two behind one object the
engine consults at admission and after every flush.
"""

from __future__ import annotations

import math

__all__ = [
    "CoDelShedder",
    "OverloadController",
    "TenantQuotas",
    "TokenBucket",
]


def _positive(name: str, value: float) -> float:
    """``value`` as a float; raises unless it is finite and > 0."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


class TokenBucket:
    """Classic token bucket in continuous time (no background refill
    thread - tokens accrue lazily from the ``now`` passed in).

    ``rate`` is tokens per second, ``burst`` the bucket capacity.  The
    bucket starts full, so a quiet tenant can always burst up to its
    allowance.
    """

    def __init__(self, rate: float, burst: float):
        self.rate = _positive("rate", rate)
        self.burst = _positive("burst", burst)
        self.tokens = self.burst
        self._stamp: float | None = None

    def _refill(self, now: float) -> None:
        if self._stamp is not None and now > self._stamp:
            self.tokens = min(
                self.burst, self.tokens + (now - self._stamp) * self.rate
            )
        self._stamp = now

    def try_take(self, n: float, now: float) -> float:
        """Take ``n`` tokens.  Returns 0.0 on success, else the
        seconds until the take can succeed (the caller's
        ``Retry-After`` hint); the bucket is left untouched on
        failure.

        A take larger than ``burst`` is admitted only from a full
        bucket and charged in full: the tokens go negative and the
        refill pays the debt, so the long-run admitted rate stays at
        ``rate``.  Its hint is the time until the bucket is full."""
        self._refill(now)
        need = min(n, self.burst)
        if need <= self.tokens:
            self.tokens -= n
            return 0.0
        return (need - self.tokens) / self.rate


class TenantQuotas:
    """Per-tenant fair-share admission budgets, in blocks.

    Every tenant gets a token bucket refilled at
    ``fair_share_blocks_per_s * weight`` (weight defaults to 1.0) with
    ``burst_seconds`` worth of capacity.  Buckets are created lazily
    on first sight of a tenant.
    """

    def __init__(
        self,
        fair_share_blocks_per_s: float,
        *,
        burst_seconds: float = 1.0,
        min_burst: float = 0.0,
        weights: dict[str, float] | None = None,
    ):
        self.fair_share = _positive(
            "fair_share_blocks_per_s", fair_share_blocks_per_s
        )
        self.burst_seconds = _positive("burst_seconds", burst_seconds)
        # floor on bucket capacity: keep the largest expected job
        # admissible even when a tiny fair share would size the bucket
        # below one job
        self.min_burst = float(min_burst)
        if not (math.isfinite(self.min_burst) and self.min_burst >= 0.0):
            raise ValueError(
                f"min_burst must be finite and >= 0, got {min_burst}"
            )
        self.weights = {
            tenant: _positive(f"weight of tenant {tenant!r}", w)
            for tenant, w in (weights or {}).items()
        }
        self._buckets: dict[str, TokenBucket] = {}
        self.denied: dict[str, int] = {}

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            rate = self.fair_share * self.weights.get(tenant, 1.0)
            burst = max(self.min_burst, rate * self.burst_seconds)
            bucket = TokenBucket(rate, burst)
            self._buckets[tenant] = bucket
        return bucket

    def admit(self, tenant: str, nb: int, now: float) -> float:
        """Charge ``nb`` blocks against the tenant's budget.  Returns
        0.0 when admitted, else the retry-after hint in seconds."""
        retry_after = self._bucket(tenant).try_take(float(nb), now)
        if retry_after > 0.0:
            self.denied[tenant] = self.denied.get(tenant, 0) + 1
        return retry_after

    def snapshot(self) -> dict:
        return {
            "fair_share_blocks_per_s": self.fair_share,
            "tenants": len(self._buckets),
            "denied": dict(self.denied),
        }


class CoDelShedder:
    """CoDel-style adaptive shedding on queue sojourn time.

    Feed it the sojourn of every delivered job via :meth:`on_sojourn`;
    it watches for a *standing* queue (sojourn continuously above
    ``target`` for at least ``interval``) and then answers
    :meth:`should_shed` with True at an increasing cadence
    (``interval / sqrt(drop_count)``) until the standing queue drains.
    """

    def __init__(self, target: float = 0.02, interval: float = 0.1):
        self.target = _positive("target", target)
        self.interval = _positive("interval", interval)
        self._above_since: float | None = None
        self.dropping = False
        self._drop_count = 0
        self._next_drop = 0.0
        self.shed_total = 0

    def on_sojourn(self, sojourn: float, now: float) -> None:
        """Observe one delivered job's queue sojourn at time ``now``."""
        if sojourn < self.target:
            self._above_since = None
            if self.dropping:
                self.dropping = False
                self._drop_count = 0
            return
        if self._above_since is None:
            self._above_since = now
        if (
            not self.dropping
            and now - self._above_since >= self.interval
        ):
            self.dropping = True
            self._drop_count = 0
            self._next_drop = now

    def should_shed(self, now: float) -> bool:
        """One admission's verdict while in the dropping state."""
        if not self.dropping or now < self._next_drop:
            return False
        self._drop_count += 1
        self._next_drop = now + self.interval / math.sqrt(self._drop_count)
        self.shed_total += 1
        return True

    def retry_after(self, now: float) -> float:
        """How long a shed client should stay away: the current drop
        interval."""
        if not self.dropping:
            return self.interval
        return self.interval / math.sqrt(max(1, self._drop_count))

    def snapshot(self) -> dict:
        return {
            "target": self.target,
            "interval": self.interval,
            "dropping": self.dropping,
            "drop_count": self._drop_count,
            "shed_total": self.shed_total,
        }


class OverloadController:
    """The engine-facing bundle: quotas + shedder.

    Either may be None to disable that mechanism.
    """

    def __init__(
        self,
        quotas: TenantQuotas | None = None,
        shedder: CoDelShedder | None = None,
    ):
        self.quotas = quotas
        self.shedder = shedder

    # -- admission-side hooks ---------------------------------------------

    def quota_admit(self, tenant: str, nb: int, now: float) -> float:
        """0.0 to admit, else the retry-after hint."""
        if self.quotas is None:
            return 0.0
        return self.quotas.admit(tenant, nb, now)

    def should_shed(self, now: float) -> bool:
        return self.shedder is not None and self.shedder.should_shed(now)

    def shed_retry_after(self, now: float) -> float | None:
        if self.shedder is None:
            return None
        return self.shedder.retry_after(now)

    # -- flush-side hook ---------------------------------------------------

    def on_sojourn(self, sojourn: float, now: float) -> None:
        if self.shedder is not None:
            self.shedder.on_sojourn(sojourn, now)

    def snapshot(self) -> dict:
        return {
            "quotas": None if self.quotas is None
            else self.quotas.snapshot(),
            "shedder": None if self.shedder is None
            else self.shedder.snapshot(),
        }
