"""Per-layer timing for the traced run of the end-to-end benchmark.

The program is not changed.  While a traced operation runs, the public
function at each layer boundary is replaced by a wrapper that records a
``(name, start, end, parent, thread)`` span in memory; the originals are
put back when the operation ends.  A span's self time is its duration
minus its children.  ``runtime.factorize`` also subtracts the stage
seconds its ``RuntimeReport`` returns, so the runtime's stages
(fingerprint, plan, factor, invert) show as layers of their own.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import repro.precond.block_jacobi as block_jacobi
import repro.serving.engine as serving_engine
import repro.solvers
from repro import BatchRuntime, BlockJacobiPreconditioner
from repro.runtime.executor import RuntimeFactorization
from repro.serving import CoalescingEngine
from repro.sparse import CsrMatrix

#: runtime stages reported as layers of their own; any other stage
#: stays in the factorize call's self time
RUNTIME_STAGES = ("fingerprint", "plan", "factor", "invert")

#: bytes per matrix entry of every workload's batches (float64)
ITEMSIZE = 8


class Span:
    __slots__ = ("name", "start", "end", "parent", "tid", "attrs")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.tid = threading.get_ident()
        self.attrs: dict = {}
        self.end = None
        self.start = time.perf_counter()

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def under(self, name: str) -> bool:
        p = self.parent
        while p is not None:
            if p.name == name:
                return True
            p = p.parent
        return False


class Recorder:
    """In-memory span store; each thread keeps its own parent stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None)
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)


# -- wrappers -----------------------------------------------------------


def _note_blocks(span: Span, args, sizes) -> None:
    span.attrs["blocks"] = int(sizes.size)
    span.attrs["rows"] = int(sizes.sum())


def _note_iterations(span: Span, args, result) -> None:
    span.attrs["iterations"] = result.iterations


def _note_factorize(span: Span, args, handle) -> None:
    report = args[0].last_report
    span.attrs["stages"] = dict(report.stage_seconds)
    span.attrs["cache_hit"] = bool(report.cache_hit)
    if not report.cache_hit:
        span.attrs["useful_flops"] = report.useful_flops
        span.attrs["padded_flops"] = report.padded_flops
        # computed, not measured: each padded bin read and written once
        span.attrs["bytes"] = sum(
            2 * b.nb * b.tile * b.tile * ITEMSIZE for b in report.bins
        )


#: (owner, attribute, span name, annotation hook)
TARGETS = (
    (CsrMatrix, "matvec", "sparse.spmv", None),
    (block_jacobi, "supervariable_blocking", "blocking.supervariable",
     _note_blocks),
    (block_jacobi, "extract_blocks", "blocking.extract", None),
    (BlockJacobiPreconditioner, "setup", "precond.setup", None),
    (BlockJacobiPreconditioner, "apply", "precond.apply", None),
    (repro.solvers, "idrs", "solvers.idrs", _note_iterations),
    (BatchRuntime, "factorize", "runtime.factorize", _note_factorize),
    (RuntimeFactorization, "solve", "runtime.solve", None),
    (CoalescingEngine, "submit", "serving.submit", None),
    (CoalescingEngine, "flush", "serving.flush", None),
    (serving_engine, "batch_fingerprint", "serving.tenant_key", None),
    (serving_engine, "merge_batches", "serving.merge", None),
    (serving_engine, "merge_rhs", "serving.merge", None),
)

_ORIGINALS = {
    (owner, attr): vars(owner)[attr] for owner, attr, _, _ in TARGETS
}


def _wrap(rec: Recorder, name: str, fn, note):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end(span)
        if note is not None:
            note(span, args, out)
        return out

    return wrapper


@contextmanager
def installed(rec: Recorder):
    """Route every layer boundary through ``rec`` for the block's
    duration; the original functions are restored on exit."""
    try:
        for owner, attr, name, note in TARGETS:
            fn = _ORIGINALS[(owner, attr)]
            setattr(owner, attr, _wrap(rec, name, fn, note))
        yield rec
    finally:
        for (owner, attr), fn in _ORIGINALS.items():
            setattr(owner, attr, fn)


@contextmanager
def traced(rec: Recorder | None):
    """Trace the block into ``rec``: the layer wrappers installed and
    the benchmark's own ``op`` span around it (no-op untraced)."""
    if rec is None:
        yield
        return
    with installed(rec), rec.span("op"):
        yield


def leftover_wrappers() -> list[str]:
    """Layer functions that are not the originals (empty when clean)."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for (owner, attr), fn in _ORIGINALS.items()
        if vars(owner)[attr] is not fn
    ]


# -- analysis -----------------------------------------------------------


def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Self seconds per layer key; the key ``op`` is the benchmark's own
    time inside an operation, i.e. time no layer accounts for."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] += s.seconds
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        own = s.seconds - child[id(s)]
        key = s.name
        if key == "runtime.factorize":
            for stage, sec in s.attrs["stages"].items():
                if stage in RUNTIME_STAGES:
                    out[f"runtime.{stage}"] += sec
                    own -= sec
            key = "runtime.factorize_self"
        elif key == "runtime.solve" and s.under("precond.setup"):
            # solves made inside setup are the condition estimate
            key = "runtime.setup_solve"
        out[key] += own
    return dict(out)


def layer_metrics(spans: list[Span], ops: int, busy_seconds: float) -> dict:
    """Per-layer shares of ``busy_seconds`` plus per-operation counts.

    ``busy_seconds`` is the traced operations' total wall time (or the
    traced window's wall time for serving, where two threads work).
    """
    own = self_seconds(spans)

    def share(key: str) -> float:
        return own.get(key, 0.0) / busy_seconds

    calls = defaultdict(int)
    total = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.seconds
    blocking = [s for s in spans if s.name == "blocking.supervariable"]
    facts = [s for s in spans if s.name == "runtime.factorize"]
    misses = [s for s in facts if not s.attrs["cache_hit"]]
    useful = sum(s.attrs["useful_flops"] for s in misses)
    padded = sum(s.attrs["padded_flops"] for s in misses)
    factor_s = sum(s.attrs["stages"].get("factor", 0.0) for s in misses)
    setup_solves = sum(
        1 for s in spans
        if s.name == "runtime.solve" and s.under("precond.setup")
    )
    blocks = sum(s.attrs["blocks"] for s in blocking)
    rows = sum(s.attrs["rows"] for s in blocking)
    shares = {
        "sparse.spmv_frac": share("sparse.spmv"),
        "blocking.supervariable_frac": share("blocking.supervariable"),
        "blocking.extract_frac": share("blocking.extract"),
        "precond.setup_self_frac": share("precond.setup"),
        "precond.apply_self_frac": share("precond.apply"),
        "solvers.self_frac": share("solvers.idrs"),
        "runtime.fingerprint_frac": share("runtime.fingerprint"),
        "runtime.plan_frac": share("runtime.plan"),
        "runtime.factor_frac": share("runtime.factor"),
        "runtime.invert_frac": share("runtime.invert"),
        "runtime.factorize_self_frac": share("runtime.factorize_self"),
        "runtime.setup_solve_frac": share("runtime.setup_solve"),
        "runtime.solve_frac": share("runtime.solve"),
        "serving.submit_self_frac": share("serving.submit"),
        "serving.tenant_key_frac": share("serving.tenant_key"),
        "serving.merge_frac": share("serving.merge"),
        "serving.flush_self_frac": share("serving.flush"),
    }
    shares["unattributed_frac"] = 1.0 - sum(shares.values())
    iterations = sum(
        s.attrs["iterations"] for s in spans if s.name == "solvers.idrs"
    )
    counts = {
        "sparse.spmv_per_op": calls["sparse.spmv"] / ops,
        "solvers.iterations_per_op": iterations / ops,
        "precond.apply_per_op": calls["precond.apply"] / ops,
        "blocking.blocks_per_op": blocks / ops,
        "blocking.mean_block_size": rows / blocks if blocks else 0.0,
        "runtime.factorize_per_op": len(facts) / ops,
        "runtime.solve_per_op": calls["runtime.solve"] / ops,
        "runtime.setup_solves_per_op": setup_solves / ops,
        "runtime.cache_hit_frac": (
            (len(facts) - len(misses)) / len(facts) if facts else 0.0
        ),
        "runtime.factorize_ms": (
            1e3 * total["runtime.factorize"] / len(facts) if facts else 0.0
        ),
        "runtime.solve_ms": (
            1e3 * total["runtime.solve"] / calls["runtime.solve"]
            if calls["runtime.solve"]
            else 0.0
        ),
        "core.useful_gflop_per_op": useful / 1e9 / ops,
        "core.padded_gflop_per_op": padded / 1e9 / ops,
        "core.padding_waste_frac": 1.0 - useful / padded if padded else 0.0,
        "core.bytes_mb_per_op": (
            sum(s.attrs["bytes"] for s in misses) / 1e6 / ops
        ),
        "core.factor_gflops": useful / 1e9 / factor_s if factor_s else 0.0,
    }
    return {**shares, **counts}


def chrome_trace(spans: list[Span]) -> dict:
    """Chrome trace-event document (complete ``X`` events) of ``spans``."""
    ids = {id(s): i + 1 for i, s in enumerate(spans)}
    tids: dict[int, int] = {}
    t0 = min((s.start for s in spans), default=0.0)
    events = []
    for s in spans:
        args = {"span_id": ids[id(s)]}
        if s.parent is not None:
            args["parent_id"] = ids[id(s.parent)]
        events.append(
            {
                "name": s.name,
                "cat": s.name.split(".")[0],
                "ph": "X",
                "ts": round((s.start - t0) * 1e6, 3),
                "dur": round(s.seconds * 1e6, 3),
                "pid": 1,
                "tid": tids.setdefault(s.tid, len(tids) + 1),
                "args": args,
            }
        )
    events.sort(key=lambda e: (e["tid"], e["ts"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}
