"""Hierarchical span tracer with a zero-cost disabled path.

The paper's whole argument is a time decomposition (Figs. 4-9 split
block-Jacobi setup and application into extraction, batched GETRF and
batched TRSV), so the reproduction needs one shared clock and one span
tree across every layer - preconditioner setup, runtime dispatch,
per-bin kernel calls, solver iterations, watchdog audits - instead of
the ad-hoc timers each subsystem grew on its own.

Design rules:

* **One global tracer**, default :data:`NULL_TRACER`.  Hot paths do
  ``tr = get_tracer()`` once and either ``with tr.span(...)`` (setup
  paths) or guard per-iteration emissions with ``if tr.enabled:``
  (solver loops).  The null tracer's ``span`` returns one shared
  no-op context manager - the disabled path allocates nothing and
  records nothing.
* **Injectable monotonic clock** (same pattern as the circuit
  breakers): tests drive a fake clock and assert exact durations.
* **Context-propagated nesting**: the open-span stack lives in a
  :class:`contextvars.ContextVar` holding an immutable tuple, so
  parentage survives ``asyncio.to_thread`` (which copies the caller's
  context into the worker) and per-task isolation comes for free.
  Raw ``threading.Thread`` workers start with an empty context, so
  each keeps its own span stack.
* **Span links** express causality that is not parentage: the serving
  layer's shared coalesced launch links to every merged per-request
  span (fan-in), and each scatter-back ``deliver`` span links back to
  the launch (fan-out).
* Spans carry **attributes** (backend, tile, nb, method,
  fault-taint, trace_id, ...) settable at open time and en route
  (``span.set``).
* **Stamps for hot paths**: a per-request path can take timestamps
  with ``now()`` and hand the tracer a writer (``defer``) that turns
  them into spans (``record`` / ``end_at``).  Pending writers run
  before any read, so readers see the same spans while the path
  itself pays only for its stamps.

Timestamps are seconds relative to the tracer's construction; the
Chrome-trace exporter converts to microseconds.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "tracing",
]

#: The open-span stack for the current execution context.  An immutable
#: tuple (never mutated in place) so that context copies made by
#: ``asyncio.to_thread`` / ``Task`` creation see a consistent snapshot
#: and mutations in the child context never leak back to the parent.
#: Shared across tracer instances; parent lookup filters by owner.
_SPAN_STACK: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "repro_span_stack", default=()
)


class Span:
    """One open (then finished) span.

    Mutated only by the opening context until :meth:`Tracer.end` seals
    it; after that it is read-only and safe to share.
    """

    __slots__ = (
        "name",
        "cat",
        "start",
        "end",
        "attrs",
        "span_id",
        "parent_id",
        "tid",
        "links",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        cat: str,
        start: float,
        span_id: int,
        parent_id: int | None,
        tid: int,
        attrs: dict,
    ):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.start = start
        self.end: float | None = None
        self.span_id = span_id
        self.parent_id = parent_id
        self.tid = tid
        self.links: list[int] | None = None
        self.attrs = attrs

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start

    def set(self, **attrs) -> "Span":
        """Attach/overwrite attributes on the open span."""
        self.attrs.update(attrs)
        return self

    def add_link(self, span: "Span | int | None") -> "Span":
        """Record a causal link to another span (not a parent edge).

        Accepts a :class:`Span` or a raw span id; ``None`` is ignored
        so call sites can pass optional spans unguarded.
        """
        if span is None:
            return self
        sid = span.span_id if isinstance(span, Span) else int(span)
        if self.links is None:
            self.links = [sid]
        elif sid not in self.links:
            self.links.append(sid)
        return self

    def event(self, name: str, **attrs) -> None:
        """Instant event parented to this span."""
        self._tracer._emit_event(name, self.span_id, attrs)

    def finish(self, **attrs) -> None:
        """Seal this span via its owning tracer (idempotent); the
        hold-a-span-in-a-struct counterpart of ``with``/``end``."""
        self._tracer.end(self, **attrs)

    # context-manager protocol so ``with tracer.span(...) as sp:`` works
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer.end(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "open" if self.end is None else f"{self.duration:.6f}s"
        return f"Span({self.name!r}, {state}, attrs={self.attrs})"


class _NullSpan:
    """The shared do-nothing span of the disabled path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs):
        return self

    def add_link(self, span):
        return self

    def event(self, name, **attrs):
        return None

    def finish(self, **attrs):
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a no-op returning shared
    singletons, so instrumented hot loops pay (at most) one attribute
    check and one method call."""

    enabled = False

    def span(self, name, cat="repro", **attrs):
        return _NULL_SPAN

    def begin(self, name, cat="repro", parent=None, detached=False, **attrs):
        return _NULL_SPAN

    def end(self, span, **attrs):
        return None

    def now(self):
        return 0.0

    def current_tid(self):
        return 0

    def defer(self, write):
        return None

    def record(self, name, cat="repro", *, start, end=None, parent=None,
               tid=None, **attrs):
        return _NULL_SPAN

    def end_at(self, span, end, **attrs):
        return None

    def event(self, name, **attrs):
        return None

    def current_span(self):
        return None

    def spans(self):
        return []

    def events(self):
        return []

    def open_spans(self):
        return []

    def clear(self):
        return None


NULL_TRACER = NullTracer()


class Tracer:
    """Collecting tracer: hierarchical spans + instant events.

    Parameters
    ----------
    clock:
        Monotonic time source (injectable for tests); defaults to
        :func:`time.perf_counter`.  All recorded timestamps are
        relative to the clock reading at construction.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._t0 = clock()
        self._lock = threading.Lock()
        self._finished: list[Span] = []
        self._events: list[dict] = []
        self._open: dict[int, Span] = {}
        self._deferred: deque = deque()  # see defer()
        self._ids = itertools.count(1)
        self._tids: dict[int, int] = {}

    # -- internals ---------------------------------------------------------

    def _now(self) -> float:
        return self._clock() - self._t0

    def _tid(self) -> int:
        """Small stable per-thread id (0 for the first thread seen)."""
        ident = threading.get_ident()
        tid = self._tids.get(ident)  # ids are never reassigned
        if tid is None:
            with self._lock:
                tid = self._tids.setdefault(ident, len(self._tids))
        return tid

    def _emit_event(
        self, name: str, parent_id: int | None, attrs: dict
    ) -> None:
        ev = {
            "name": name,
            "ts": self._now(),
            "tid": self._tid(),
            "parent_id": parent_id,
            "attrs": attrs,
        }
        with self._lock:
            self._events.append(ev)

    def _seal(
        self, span: Span, attrs: dict | None, end: float | None = None
    ) -> None:
        """Stamp the end time (now, or ``end``) and move the span to
        the finished list."""
        span.end = self._now() if end is None else end
        if attrs:
            span.attrs.update(attrs)
        with self._lock:
            self._open.pop(span.span_id, None)
            self._finished.append(span)

    # -- span API ----------------------------------------------------------

    def current_span(self) -> Span | None:
        """Innermost open span of this tracer in the current context."""
        for s in reversed(_SPAN_STACK.get()):
            if s._tracer is self and s.end is None:
                return s
        return None

    def begin(
        self,
        name: str,
        cat: str = "repro",
        parent: "Span | int | None" = None,
        detached: bool = False,
        **attrs,
    ) -> Span:
        """Open a span without a ``with`` block (pair with :meth:`end`).

        Nesting follows the execution context: the span's parent is
        the innermost span open in the current :mod:`contextvars`
        context (which ``asyncio.to_thread`` propagates into worker
        threads).  ``parent`` overrides that lookup with an explicit
        span (or raw span id); ``detached=True`` keeps the new span
        off the context stack, so long-lived per-request spans don't
        become accidental ancestors of unrelated work.
        """
        if parent is None:
            parent_id = None
            for s in reversed(_SPAN_STACK.get()):
                if s._tracer is self and s.end is None:
                    parent_id = s.span_id
                    break
        elif isinstance(parent, Span):
            parent_id = parent.span_id
        else:
            parent_id = int(parent)
        with self._lock:
            span_id = next(self._ids)
        span = Span(
            self,
            name,
            cat,
            self._now(),
            span_id,
            parent_id,
            self._tid(),
            dict(attrs),
        )
        if not detached:
            _SPAN_STACK.set(_SPAN_STACK.get() + (span,))
        with self._lock:
            self._open[span_id] = span
        return span

    def end(self, span: Span, **attrs) -> None:
        """Seal a span (idempotent); closes any deeper spans left open
        in the same context first, so the tree stays balanced even
        when an exception skipped an inner ``end``.  Spans opened in
        another context (detached spans, cross-thread hand-offs) are
        sealed directly without touching the local stack."""
        if not isinstance(span, Span) or span.end is not None:
            return
        stack = _SPAN_STACK.get()
        for idx, top in enumerate(stack):
            if top is span:
                for deeper in reversed(stack[idx:]):
                    if deeper.end is None:
                        deeper._tracer._seal(
                            deeper, attrs if deeper is span else None
                        )
                _SPAN_STACK.set(stack[:idx])
                return
        # span is not on this context's stack: seal it directly
        self._seal(span, attrs)

    # -- stamps: spans written after the fact ------------------------------

    def now(self) -> float:
        """The current trace time: a stamp for :meth:`record` and
        :meth:`end_at`."""
        return self._clock() - self._t0

    def current_tid(self) -> int:
        """The calling thread's small id: a stamp for :meth:`record`."""
        return self._tid()

    def defer(self, write) -> None:
        """Queue ``write(tracer)``, which writes spans from stamps
        taken earlier.  Queued writes run in order before anything
        reads this tracer (:meth:`spans`, :meth:`open_spans`, and the
        exporters and flight dumps built on them), so a hot path can
        stamp as it goes and leave the span bookkeeping to the reader.
        """
        self._deferred.append(write)

    def _drain(self) -> None:
        q = self._deferred
        while q:
            try:
                write = q.popleft()
            except IndexError:  # another reader took the last one
                break
            write(self)

    def record(
        self,
        name: str,
        cat: str = "repro",
        *,
        start: float,
        end: float | None = None,
        parent: "Span | int | None" = None,
        tid: int | None = None,
        **attrs,
    ) -> Span:
        """Write a span from stamps taken earlier (:meth:`now`,
        :meth:`current_tid`).

        The span is sealed at ``end`` when it is given and left open
        otherwise (seal it with :meth:`end` or :meth:`end_at`).  It
        never joins the context stack: ``parent`` names its parent
        explicitly (None makes a root span), and ``tid`` the thread it
        ran on (default: the caller's).
        """
        if isinstance(parent, Span):
            parent = parent.span_id
        elif parent is not None:
            parent = int(parent)
        if tid is None:
            tid = self._tid()
        with self._lock:
            span_id = next(self._ids)
            span = Span(
                self, name, cat, start, span_id, parent, tid, attrs
            )
            if end is None:
                self._open[span_id] = span
            else:
                span.end = end
                self._finished.append(span)
        return span

    def end_at(self, span: Span, end: float, **attrs) -> None:
        """Seal an open span at an earlier stamp ``end`` (idempotent),
        for spans kept off the context stack (detached or recorded)."""
        if isinstance(span, Span) and span.end is None:
            span._tracer._seal(span, attrs, end)

    def span(self, name: str, cat: str = "repro", **attrs) -> Span:
        """``with tracer.span("precond.setup", backend="binned"): ...``"""
        return self.begin(name, cat, **attrs)

    def event(self, name: str, **attrs) -> None:
        """Instant event parented to the current context's open span."""
        cur = self.current_span()
        self._emit_event(name, cur.span_id if cur else None, attrs)

    # -- collection --------------------------------------------------------

    def spans(self) -> list[Span]:
        """Finished spans, in completion order (a snapshot)."""
        self._drain()
        with self._lock:
            return list(self._finished)

    def open_spans(self) -> list[Span]:
        """Spans still open anywhere (exporters close them soft)."""
        self._drain()
        with self._lock:
            return list(self._open.values())

    def events(self) -> list[dict]:
        with self._lock:
            return [dict(e) for e in self._events]

    def clear(self) -> None:
        self._deferred.clear()
        with self._lock:
            self._finished.clear()
            self._events.clear()
            self._open.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"Tracer(spans={len(self._finished)}, "
                f"open={len(self._open)}, events={len(self._events)})"
            )


_tracer: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The process-global tracer (the null tracer unless enabled)."""
    return _tracer


def set_tracer(tracer: Tracer | NullTracer | None) -> Tracer | NullTracer:
    """Install ``tracer`` globally (None restores the null tracer)."""
    global _tracer
    _tracer = NULL_TRACER if tracer is None else tracer
    return _tracer


@contextmanager
def tracing(tracer: Tracer | None = None):
    """Scoped enablement: install a tracer, restore the old one after.

    >>> with tracing() as tr:
    ...     run_workload()
    >>> write_chrome_trace(tr, "out.trace.json")
    """
    tr = Tracer() if tracer is None else tracer
    previous = get_tracer()
    set_tracer(tr)
    try:
        yield tr
    finally:
        set_tracer(previous)
