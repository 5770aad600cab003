"""Restarted GMRES(m) with right preconditioning (Saad & Schultz).

Completes the nonsymmetric solver trio.  Right preconditioning keeps
the monitored residual equal to the true residual, consistent with the
other solvers in this package.
"""

from __future__ import annotations

import time

import numpy as np

from ..precond.base import Preconditioner
from ..telemetry.tracer import get_tracer
from .base import (
    HistoryRecorder,
    SolveResult,
    as_operator,
    resolve_preconditioner,
    safe_norm,
    traced_solve,
)
from .watchdog import Watchdog

__all__ = ["gmres"]


def gmres(
    A,
    b: np.ndarray,
    M: Preconditioner | None = None,
    restart: int = 30,
    tol: float = 1e-6,
    maxiter: int = 10000,
    x0: np.ndarray | None = None,
    record_history: bool = False,
    history_stride: int = 1,
    history_cap: int | None = None,
    watchdog: Watchdog | None = None,
) -> SolveResult:
    """Solve ``A x = b`` with GMRES(restart), right-preconditioned.

    ``maxiter`` caps matrix-vector products across all restart cycles.
    ``watchdog`` checks stagnation/divergence at cycle boundaries (the
    cycle-end residual is already the true one, so audits are free) and
    rebuilds the preconditioner on its restarts.
    ``history_stride``/``history_cap`` bound the recorded residual
    history (see :class:`~repro.solvers.base.HistoryRecorder`).
    """
    return traced_solve(
        "gmres",
        {"restart": restart, "tol": tol, "maxiter": maxiter},
        lambda: _gmres_impl(
            A, b, M, restart, tol, maxiter, x0, record_history,
            history_stride, history_cap, watchdog,
        ),
    )


def _gmres_impl(
    A, b, M, restart, tol, maxiter, x0, record_history, history_stride,
    history_cap, watchdog,
) -> SolveResult:
    matvec, n = as_operator(A)
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError(f"b must have shape ({n},), got {b.shape}")
    if restart < 1:
        raise ValueError("restart must be positive")
    M = resolve_preconditioner(M)
    t_start = time.perf_counter()

    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    normb = np.linalg.norm(b)
    target = tol * (normb if normb > 0 else 1.0)
    r = b - matvec(x) if x.any() else b.copy()
    resnorm = float(np.linalg.norm(r))
    hist = HistoryRecorder(record_history, history_stride, history_cap)
    hist.append(resnorm)
    tr = get_tracer()
    iters = 0
    breakdown = None
    wd = watchdog.session(matvec, b, target) if watchdog else None

    while resnorm > target and iters < maxiter:
        m = min(restart, maxiter - iters)
        # Arnoldi basis and preconditioned directions, one row each
        V = np.zeros((m + 1, n))
        H = np.zeros((m + 1, m))
        Z = np.zeros((m, n))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = resnorm
        V[0] = r / resnorm
        j_used = 0
        for j in range(m):
            Z[j] = M.apply(V[j])
            w = matvec(Z[j])
            iters += 1
            # modified Gram-Schmidt
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(j + 1):
                    H[i, j] = float(V[i] @ w)
                    w -= H[i, j] * V[i]
            H[j + 1, j] = safe_norm(w)
            if not np.isfinite(H[: j + 2, j]).all():
                # a NaN/Inf Hessenberg column poisons every later Givens
                # rotation - stop this cycle and report the breakdown
                breakdown = "nonfinite_hessenberg"
                j_used = j
                break
            if H[j + 1, j] > 0:
                V[j + 1] = w / H[j + 1, j]
            # apply previous Givens rotations to the new column
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            # new rotation to annihilate H[j+1, j]
            denom = np.hypot(H[j, j], H[j + 1, j])
            if denom == 0.0:
                j_used = j + 1
                break
            cs[j] = H[j, j] / denom
            sn[j] = H[j + 1, j] / denom
            H[j, j] = denom
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            resnorm = abs(g[j + 1])
            j_used = j + 1
            hist.append(float(resnorm))
            if tr.enabled:
                tr.event(
                    "solver.iteration",
                    solver="gmres",
                    i=iters,
                    resnorm=float(resnorm),
                )
            if resnorm <= target or iters >= maxiter:
                break
        # solve the small triangular system and update x
        if j_used and np.isfinite(g[:j_used]).all():
            diag = np.abs(np.diag(H[:j_used, :j_used]))
            if diag.min() > 0 and np.isfinite(diag).all():
                y = np.linalg.solve(H[:j_used, :j_used], g[:j_used])
                x = x + y @ Z[:j_used]
        r = b - matvec(x)
        resnorm = safe_norm(r)
        if not np.isfinite(resnorm):
            breakdown = breakdown or "nonfinite_residual"
            break
        if breakdown:
            break
        if wd is not None:
            act = wd.check(iters, resnorm, x, r=r)
            if act.kind == "abort":
                breakdown = act.reason
                break
            # a restart rebuilt the preconditioner; the next cycle
            # restarts from the current (true) residual anyway

    return SolveResult(
        x=x,
        converged=bool(np.isfinite(resnorm) and resnorm <= target),
        iterations=iters,
        residual_norm=resnorm,
        target_norm=normb if normb > 0 else 1.0,
        solve_seconds=time.perf_counter() - t_start,
        setup_seconds=getattr(M, "setup_seconds", 0.0),
        history=hist.history,
        breakdown=breakdown,
        watchdog=wd.report() if wd is not None else None,
    )
