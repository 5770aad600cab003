"""Deterministic synthetic load for the serving layer.

Thousands of tenants, each owning a small batch of diagonal blocks,
submitting setup/solve jobs in waves - the traffic shape of a
block-Jacobi preconditioner service (many small independent systems,
heavy repetition when time-steppers resolve the same matrix).  Every
choice is driven by one seeded generator and time comes from a
:class:`~repro.clock.ScriptedClock`, so a load run is a pure function
of its profile: the benchmarks and the tests replay identical traffic
on every host.

Two load shapes live here:

* :func:`generate_load` - the *open-loop* wave generator of the
  coalescing tests and the e2e serving workloads: requests arrive on
  a schedule regardless of how the service responds.
* :class:`ClosedLoopClient` - the *closed-loop* tenant of the overload
  gate and the chaos suite's overload scenario: one outstanding job at
  a time, exponential backoff with seeded jitter on rejection,
  ``Retry-After``-style hints honored, and optional hedged duplicates
  when a response lingers.  Closed loops
  are what make overload experiments honest - a shed client backs
  off instead of hammering the queue, so goodput reflects the
  admission policy, not the generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..clock import ScriptedClock
from ..core.random_batches import random_batch, random_rhs
from .requests import Request, Response, Ticket

__all__ = [
    "ClientPolicy",
    "ClosedLoopClient",
    "LoadProfile",
    "ScriptedClock",
    "backoff_delay",
    "generate_load",
]


@dataclass(frozen=True)
class LoadProfile:
    """Shape of a synthetic serving workload.

    ``repeat_fraction`` is the probability that a tenant re-submits its
    previous batch instead of a fresh one - the knob that creates
    cache-hit traffic; ``solve_fraction`` splits jobs between
    ``solve`` and ``setup`` kinds.  ``deadline_seconds`` (relative)
    stamps every request with an absolute deadline under the
    convention that wave ``w`` is submitted at scripted time
    ``w * wave_seconds`` starting from 0; ``priorities`` is the pool
    request priorities are drawn from (lower value = more urgent).
    """

    tenants: int = 1000
    waves: int = 20
    requests_per_wave: int = 64
    blocks_min: int = 1
    blocks_max: int = 8
    size_min: int = 2
    size_max: int = 32
    solve_fraction: float = 0.75
    repeat_fraction: float = 0.3
    wave_seconds: float = 0.01
    deadline_seconds: float | None = None
    priorities: tuple[int, ...] = (0,)
    seed: int = 0

    def __post_init__(self):
        if self.tenants < 1 or self.waves < 1 or self.requests_per_wave < 1:
            raise ValueError("tenants/waves/requests_per_wave must be >= 1")
        if not 1 <= self.blocks_min <= self.blocks_max:
            raise ValueError(
                f"bad block-count range "
                f"[{self.blocks_min}, {self.blocks_max}]"
            )
        if not 1 <= self.size_min <= self.size_max <= 32:
            raise ValueError(
                f"bad size range [{self.size_min}, {self.size_max}]"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be positive, "
                f"got {self.deadline_seconds}"
            )
        if not self.priorities:
            raise ValueError("priorities must not be empty")


def generate_load(profile: LoadProfile) -> list[list[Request]]:
    """Materialize the profile's request waves (pure in the seed).

    Tenant activity is uniform over the population; each active tenant
    either replays its previous batch (probability
    ``repeat_fraction``) or draws a fresh diagonally-dominant batch.
    Solve jobs carry matching right-hand sides.  With
    ``deadline_seconds`` set, wave ``w`` carries the absolute deadline
    ``w * wave_seconds + deadline_seconds`` (the driver's clock starts
    at 0 and advances ``wave_seconds`` per wave).
    """
    rng = np.random.default_rng(profile.seed)
    previous: dict[str, Request] = {}
    waves: list[list[Request]] = []
    for w in range(profile.waves):
        wave: list[Request] = []
        deadline = (
            None
            if profile.deadline_seconds is None
            else w * profile.wave_seconds + profile.deadline_seconds
        )
        for _ in range(profile.requests_per_wave):
            tenant = f"tenant-{rng.integers(profile.tenants):05d}"
            prior = previous.get(tenant)
            if prior is not None and rng.random() < profile.repeat_fraction:
                batch = prior.batch
            else:
                nb = int(
                    rng.integers(profile.blocks_min, profile.blocks_max + 1)
                )
                batch = random_batch(
                    nb,
                    size_range=(profile.size_min, profile.size_max),
                    kind="diag_dominant",
                    seed=int(rng.integers(2**31)),
                )
            kind = (
                "solve" if rng.random() < profile.solve_fraction else "setup"
            )
            rhs = (
                random_rhs(batch, seed=int(rng.integers(2**31)))
                if kind == "solve"
                else None
            )
            priority = (
                int(profile.priorities[0])
                if len(profile.priorities) == 1
                else int(profile.priorities[rng.integers(
                    len(profile.priorities))])
            )
            req = Request(
                tenant=tenant,
                batch=batch,
                kind=kind,
                rhs=rhs,
                deadline=deadline,
                priority=priority,
            )
            previous[tenant] = req
            wave.append(req)
        waves.append(wave)
    return waves


# -- closed-loop clients ---------------------------------------------------


@dataclass(frozen=True)
class ClientPolicy:
    """Retry discipline of a closed-loop client.

    On rejection the client waits ``backoff_base * backoff_factor**k``
    seconds (attempt ``k``, capped at ``backoff_max``) scaled by a
    seeded jitter factor in ``[1, 1 + jitter]``, and never less than
    the rejection's ``retry_after`` hint when
    ``respect_retry_after`` is set - the client-side half of the
    overload contract: the server sheds cheap and early, the client
    stays away exactly as long as it was told to.  ``hedge_after``
    (seconds) submits one duplicate of a still-pending job - hedged
    requests trade extra load for tail latency, so they only make
    sense against an admission layer that can shed them.
    """

    backoff_base: float = 0.002
    backoff_factor: float = 2.0
    backoff_max: float = 0.064
    jitter: float = 0.5
    max_attempts: int = 6
    respect_retry_after: bool = True
    hedge_after: float | None = None

    def __post_init__(self):
        if self.backoff_base <= 0 or self.backoff_factor < 1:
            raise ValueError("backoff_base > 0 and backoff_factor >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")


def backoff_delay(
    policy: ClientPolicy, attempt: int, rng: np.random.Generator
) -> float:
    """Exponential backoff with seeded jitter for retry ``attempt``
    (0-based)."""
    raw = min(
        policy.backoff_max,
        policy.backoff_base * policy.backoff_factor ** attempt,
    )
    if policy.jitter <= 0:
        return raw
    return raw * (1.0 + policy.jitter * float(rng.random()))


class ClosedLoopClient:
    """One tenant's closed loop against a coalescing engine.

    The client keeps at most one job in flight (plus one hedged
    duplicate).  Call :meth:`tick` once per simulation step, after the
    driver's flush: the client observes completions, backs off on
    rejections, gives up after ``max_attempts``, and starts the next
    job after ``think_seconds``.  All randomness (jitter, fresh
    batches) comes from one seeded generator and all time from the
    injected clock, so a simulation is replayable bit-for-bit.

    ``make_request`` is called with the client's generator and must
    return a fresh :class:`Request`; the client stamps it with the
    absolute deadline (``now + deadline_seconds``) and its priority.
    """

    def __init__(
        self,
        tenant: str,
        engine,
        clock,
        make_request,
        *,
        policy: ClientPolicy = ClientPolicy(),
        think_seconds: float = 0.05,
        deadline_seconds: float | None = None,
        priority: int = 0,
        start_delay: float = 0.0,
        seed: int = 0,
    ):
        self.tenant = tenant
        self.engine = engine
        self.clock = clock
        self.make_request = make_request
        self.policy = policy
        self.think_seconds = float(think_seconds)
        self.deadline_seconds = deadline_seconds
        self.priority = int(priority)
        self._rng = np.random.default_rng([seed, 0xC11E])
        self._job: Request | None = None
        self._tickets: list[Ticket] = []
        self._hedge_at: float | None = None
        self._attempt = 0
        # staggered starts keep a fleet of clients from arriving as
        # one thundering herd at t=0
        self._next_action = float(start_delay)
        self.queue_seconds: list[float] = []
        self.stats = {
            "jobs": 0,
            "attempts": 0,
            "admitted": 0,
            "completed": 0,
            "on_time": 0,
            "violations": 0,
            "failed": 0,
            "gave_up": 0,
            "expired": 0,
            "hedges": 0,
            "rejected": {},
        }

    # -- driver interface --------------------------------------------------

    @property
    def outstanding(self) -> bool:
        return bool(self._tickets)

    def tick(self) -> None:
        """Advance the client's state machine at the clock's now."""
        now = self.clock()
        if self._tickets:
            done = [t for t in self._tickets if t.done]
            if done:
                best = next(
                    (t for t in done if t.response.status == "ok"), done[0]
                )
                self._finish(best.response, now)
            elif (
                self._hedge_at is not None
                and now >= self._hedge_at
                and len(self._tickets) == 1
            ):
                self._hedge_at = None
                self.stats["hedges"] += 1
                t = self.engine.submit(self._job)
                if not t.done:
                    self._tickets.append(t)
                elif t.response.status == "ok":
                    # the hedge hit the tenant cache: take the answer
                    self._finish(t.response, now)
            return
        if now < self._next_action:
            return
        if self._job is None:
            self._job = self.make_request(self._rng)
            self._job.tenant = self.tenant
            self._job.priority = self.priority
            if self.deadline_seconds is not None:
                self._job.deadline = now + self.deadline_seconds
            self.stats["jobs"] += 1
            self._attempt = 0
        self._submit(now)

    # -- internals ---------------------------------------------------------

    def _submit(self, now: float) -> None:
        self.stats["attempts"] += 1
        ticket = self.engine.submit(self._job)
        if not ticket.done:
            self.stats["admitted"] += 1
            self._tickets.append(ticket)
            if self.policy.hedge_after is not None:
                self._hedge_at = now + self.policy.hedge_after
            return
        resp = ticket.response
        if resp.status == "rejected":
            self._on_rejection(resp, now)
        else:
            # tenant-cache hit (ok or failed): resolved at admission
            self.stats["admitted"] += 1
            self._finish(resp, now)

    def _on_rejection(self, resp: Response, now: float) -> None:
        reason = resp.rejection.reason
        self.stats["rejected"][reason] = (
            self.stats["rejected"].get(reason, 0) + 1
        )
        if reason in ("deadline_exceeded", "not_running"):
            # the job is dead (missed deadline / stopped service):
            # retrying cannot resurrect it
            self.stats["expired" if reason == "deadline_exceeded"
                       else "gave_up"] += 1
            self._idle(now)
            return
        self._attempt += 1
        if self._attempt >= self.policy.max_attempts:
            self.stats["gave_up"] += 1
            self._idle(now)
            return
        delay = backoff_delay(self.policy, self._attempt - 1, self._rng)
        if self.policy.respect_retry_after:
            hint = resp.rejection.retry_after
            if hint is not None:
                delay = max(delay, float(hint))
        self._next_action = now + delay

    def _finish(self, resp: Response, now: float) -> None:
        if resp.status == "ok":
            self.stats["completed"] += 1
            self.queue_seconds.append(resp.queue_seconds)
            deadline = self._job.deadline
            # lateness is judged at *delivery* (the engine's stamp),
            # not at the tick the client happened to look
            when = resp.delivered_at if resp.delivered_at is not None \
                else now
            if deadline is not None and when > deadline:
                self.stats["violations"] += 1
            else:
                self.stats["on_time"] += 1
        elif resp.status == "rejected":
            # a queued job shed at flush time (deadline audit, stop)
            reason = resp.rejection.reason
            self.stats["rejected"][reason] = (
                self.stats["rejected"].get(reason, 0) + 1
            )
            if reason == "deadline_exceeded":
                self.stats["expired"] += 1
        else:
            self.stats["failed"] += 1
        self._idle(now)

    def _idle(self, now: float) -> None:
        self._job = None
        self._tickets = []
        self._hedge_at = None
        self._attempt = 0
        self._next_action = now + self.think_seconds
