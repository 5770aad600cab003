"""IDR(s) - Induced Dimension Reduction with bi-orthogonalisation.

The paper's solver: "the iterative IDR(4) solver for sparse linear
systems ... taken from the MAGMA-sparse open source software package".
This implementation follows the bi-orthogonalised IDR(s) prototype of
van Gijzen & Sonneveld (ACM TOMS 2011) - the same algorithm MAGMA's
IDR implements - with the preconditioner applied inside the induction
steps (``v := M^{-1} v``), so the recurrences operate on the true
residual and the stopping test needs no back-transformation.

Iterations are counted in matrix-vector products: each IDR cycle costs
``s + 1`` of them (``s`` dimension-reduction steps plus the polynomial
step).  ``s = 4`` reproduces the paper's IDR(4).
"""

from __future__ import annotations

import math
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

__all__ = ["idrs"]

#: threshold of the "maintaining the convergence" omega strategy
_OMEGA_ANGLE = 0.7


def _omega(t: np.ndarray, r: np.ndarray) -> float:
    """Minimal-residual omega, stabilised (van Gijzen's strategy)."""
    with np.errstate(over="ignore", invalid="ignore"):
        nt = float(np.linalg.norm(t))
        nr = float(np.linalg.norm(r))
        if nt == 0.0 or not np.isfinite(nt):
            return 0.0
        ts = float(t @ r)
        rho = abs(ts / (nt * nr)) if nr else 1.0
        om = ts / (nt * nt)
        if rho < _OMEGA_ANGLE and rho > 0.0:
            om *= _OMEGA_ANGLE / rho
    return om


def _forward_solve(L: np.ndarray, f: np.ndarray) -> np.ndarray | None:
    """Solve the small lower-triangular system ``L c = f`` by forward
    substitution, or return None when a diagonal entry of ``L`` is zero
    or non-finite (the system is singular or poisoned; IDR answers that
    with a shadow-space restart).  ``L`` is at most ``s x s``, so plain
    Python floats beat any NumPy or LAPACK call here."""
    rows = L.tolist()
    if any(row[j] == 0.0 or not math.isfinite(row[j])
           for j, row in enumerate(rows)):
        return None
    c = []
    for j, (row, fj) in enumerate(zip(rows, f.tolist())):
        for i in range(j):
            fj -= row[i] * c[i]
        c.append(fj / row[j])
    return np.array(c)


def idrs(
    A,
    b: np.ndarray,
    s: int = 4,
    M: Preconditioner | None = None,
    tol: float = 1e-6,
    maxiter: int = 10000,
    x0: np.ndarray | None = None,
    seed: int = 271828,
    record_history: bool = False,
    history_stride: int = 1,
    history_cap: int | None = None,
    max_restarts: int = 5,
    watchdog: "Watchdog | None" = None,
) -> SolveResult:
    """Solve ``A x = b`` with preconditioned IDR(s).

    Parameters
    ----------
    A:
        :class:`~repro.sparse.csr.CsrMatrix` or dense square array.
    b:
        Right-hand side.
    s:
        Shadow-space dimension; the paper uses 4.
    M:
        Preconditioner (already set up); identity if None.
    tol:
        Relative residual reduction target (the paper stops after six
        orders of magnitude: ``tol = 1e-6``).
    maxiter:
        Cap on matrix-vector products (the paper allows 10,000).
    x0, seed, record_history:
        Initial guess (zero by default), shadow-space seed, and whether
        to record the residual-norm history.
    history_stride, history_cap:
        Bound the recorded history (see
        :class:`~repro.solvers.base.HistoryRecorder`).
    max_restarts:
        How many times a shadow-space breakdown (a zero or non-finite
        diagonal entry of the small lower-triangular ``Ms``) may be
        answered by re-seeding the shadow space (a fresh random
        orthonormal ``P``, reset recurrences) before the solve gives up
        with ``breakdown="shadow_space_breakdown"``.
    watchdog:
        Optional :class:`~repro.solvers.watchdog.Watchdog`: periodic
        true-residual audits with resync/restart recovery, on top of
        (and independent from) the shadow-space restart machinery.

    Returns
    -------
    SolveResult
        With ``setup_seconds`` copied from the preconditioner and
        ``breakdown`` set when the solve ended on a numerical
        breakdown instead of convergence or the iteration cap.
    """
    return traced_solve(
        "idrs",
        {"s": s, "tol": tol, "maxiter": maxiter},
        lambda: _idrs_impl(
            A, b, s, M, tol, maxiter, x0, seed, record_history,
            history_stride, history_cap, max_restarts, watchdog,
        ),
    )


def _idrs_impl(
    A, b, s, M, tol, maxiter, x0, seed, record_history, history_stride,
    history_cap, max_restarts, watchdog,
) -> SolveResult:
    matvec, n = as_operator(A)
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError(f"b must have shape ({n},), got {b.shape}")
    if s < 1:
        raise ValueError("s must be at least 1")
    # a shadow space can't have more directions than the problem has
    # unknowns; the reduced QR below would silently shrink P otherwise
    s = min(s, n)
    M = resolve_preconditioner(M)
    t_start = time.perf_counter()

    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    r = b - matvec(x) if x.any() else b.copy()
    normb = np.linalg.norm(b)
    target = tol * (normb if normb > 0 else 1.0)
    hist = HistoryRecorder(record_history, history_stride, history_cap)
    hist.append(float(np.linalg.norm(r)))
    tr = get_tracer()

    # shadow space: orthonormalised Gaussian block (rows of P).  P, G
    # and U are (s, n) and row-major, so every direction is contiguous.
    rng = np.random.default_rng(seed)

    def fresh_shadow_space() -> np.ndarray:
        P = rng.standard_normal((n, s))
        P, _ = np.linalg.qr(P)
        return np.ascontiguousarray(P.T)

    P = fresh_shadow_space()
    G = np.zeros((s, n))
    U = np.zeros((s, n))
    Ms = np.eye(s)
    om = 1.0
    iters = 0
    restarts = 0
    breakdown = None
    resnorm = float(np.linalg.norm(r))
    wd = watchdog.session(matvec, b, target) if watchdog else None

    def done() -> bool:
        return resnorm <= target or iters >= maxiter

    while not done():
        f = P @ r  # (s,)
        broke = False
        for k in range(s):
            # solve the small lower-triangular system and form v _|_ P[:k]
            c = _forward_solve(Ms[k:, k:], f[k:])
            if c is None:
                # singular Ms: same remedy as Ms[k, k] == 0 below
                broke = True
                break
            v = r - c @ G[k:]
            v = M.apply(v)
            U[k] = c @ U[k:] + om * v
            G[k] = matvec(U[k])
            iters += 1
            # bi-orthogonalise the new direction against p_0..p_{k-1}
            for i in range(k):
                alpha = float(P[i] @ G[k]) / Ms[i, i]
                G[k] -= alpha * G[i]
                U[k] -= alpha * U[i]
            Ms[k:, k] = P[k:] @ G[k]
            if Ms[k, k] == 0.0 or not np.isfinite(Ms[k, k]):
                # breakdown: the new direction is orthogonal to p_k (or
                # the recurrence produced non-finite garbage).  r and x
                # are untouched this step; record the recomputed norm so
                # history stays in sync with the matvec count.
                resnorm = safe_norm(r)
                hist.append(resnorm)
                if not np.isfinite(resnorm):
                    breakdown = "nonfinite_residual"
                else:
                    broke = True
                break
            # make r orthogonal to p_0..p_k
            beta = f[k] / Ms[k, k]
            r = r - beta * G[k]
            x = x + beta * U[k]
            resnorm = safe_norm(r)
            hist.append(resnorm)
            if tr.enabled:
                tr.event(
                    "solver.iteration",
                    solver="idrs",
                    i=iters,
                    resnorm=resnorm,
                )
            if not np.isfinite(resnorm):
                breakdown = "nonfinite_residual"
                break
            if done():
                break
            if k + 1 < s:
                f[k + 1 :] = f[k + 1 :] - beta * Ms[k + 1 :, k]
        if breakdown or done():
            break
        if broke:
            # re-seeded shadow-space restart: a zero Ms[k, k] means the
            # current P cannot span the next Sonneveld space from here;
            # a fresh random P almost surely can (van Gijzen's remedy).
            restarts += 1
            if restarts > max_restarts:
                breakdown = "shadow_space_breakdown"
                break
            P = fresh_shadow_space()
            G[:] = 0.0
            U[:] = 0.0
            Ms = np.eye(s)
            om = 1.0
            continue
        # polynomial step: enter the next Sonneveld space G_{j+1}
        v = M.apply(r)
        t = matvec(v)
        iters += 1
        om = _omega(t, r)
        if om == 0.0 or not np.isfinite(om):
            breakdown = "omega_stagnation"
            break
        x = x + om * v
        r = r - om * t
        resnorm = safe_norm(r)
        hist.append(resnorm)
        if tr.enabled:
            tr.event(
                "solver.iteration", solver="idrs", i=iters, resnorm=resnorm
            )
        if not np.isfinite(resnorm):
            breakdown = "nonfinite_residual"
            break
        if wd is not None:
            act = wd.check(iters, resnorm, x)
            if act.kind == "abort":
                breakdown = act.reason
                break
            if act.kind in ("restart", "resync"):
                # rebuild the Sonneveld recurrences from the audited
                # residual; a watchdog restart also re-seeds the shadow
                # space (the old P steered the run into this state)
                r = act.r_true
                resnorm = act.resnorm
                if not np.isfinite(resnorm):
                    breakdown = "nonfinite_residual"
                    break
                if act.kind == "restart":
                    P = fresh_shadow_space()
                G[:] = 0.0
                U[:] = 0.0
                Ms = np.eye(s)
                om = 1.0

    converged = bool(np.isfinite(resnorm) and resnorm <= target)
    if wd is not None and converged and breakdown is None:
        veto = wd.final(x, resnorm)
        if veto:
            breakdown = veto
            converged = False
    return SolveResult(
        x=x,
        converged=converged,
        iterations=iters,
        residual_norm=resnorm,
        target_norm=normb if normb > 0 else 1.0,
        solve_seconds=time.perf_counter() - t_start,
        setup_seconds=getattr(M, "setup_seconds", 0.0),
        history=hist.history,
        breakdown=breakdown,
        watchdog=wd.report() if wd is not None else None,
    )
