"""Host-speed reference for the end-to-end benchmark.

On a shared host the same work can run 1.5-1.8x slower for seconds to
minutes at a time, and the process's CPU time slows with it, so no
statistic of raw wall times repeats closely between runs.  The benchmark
therefore times a fixed reference kernel after each operation and
scales the operation's wall time by how fast the kernel ran.

The kernel uses no program code, so a change to the program moves the
scaled times exactly as it moves the raw ones; only the host's speed
drops out.  Its parts are the kinds of work the program does:
interpreter loops, small dense matrix products, memory streaming and
many small NumPy calls.  Contention slows them by different amounts, so
the host's speed is the geometric mean of the parts' speeds.  The
kernel allocates no arrays, so the state the operation before it left
the allocator in does not slow it.
"""

from __future__ import annotations

import math
import time

import numpy as np

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((256, 32, 32))
_B = _rng.standard_normal((256, 32, 32))
_C = np.empty_like(_A)
_STREAM_IN = np.ones(1 << 20)
_STREAM_OUT = np.empty(1 << 20)
_SMALL = np.ones(64)


def _interpreter():
    counts: dict[int, int] = {}
    for i in range(70_000):
        k = i % 977
        counts[k] = counts.get(k, 0) + i


def _matmul():
    for _ in range(24):
        np.matmul(_A, _B, out=_C)


def _stream():
    for _ in range(10):
        np.add(_STREAM_IN, _STREAM_IN, out=_STREAM_OUT)


def _small_numpy():
    for _ in range(10_000):
        np.multiply(_SMALL, 1.0, out=_SMALL)
        np.maximum(_SMALL, 0.0, out=_SMALL)


#: each part and its time on the reference host (see README.md); scaled
#: times read as times on that host at its usual speed
PARTS = (
    (_interpreter, 0.010),
    (_matmul, 0.009),
    (_stream, 0.010),
    (_small_numpy, 0.012),
)


def _seconds(part) -> float:
    t0 = time.perf_counter()
    part()
    return time.perf_counter() - t0


def factor(runs: int = 3) -> float:
    """Multiply a wall time measured just before by this to scale it to
    the reference speed.  Each part's speed is taken from the fastest
    of ``runs`` runs: short bursts of contention slow single runs."""
    logs = [
        math.log(reference / min(_seconds(part) for _ in range(runs)))
        for part, reference in PARTS
    ]
    return math.exp(sum(logs) / len(logs))
