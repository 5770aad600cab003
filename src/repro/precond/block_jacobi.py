"""Block-Jacobi preconditioning via batched factorizations.

The paper's "complete block-Jacobi preconditioner ecosystem": the setup
phase runs supervariable blocking, extracts the diagonal blocks into a
padded batch, and factorizes the whole batch with one batched kernel;
the application phase gathers the vector into per-block segments and
runs one batched solve.  Both run through one
:class:`~repro.runtime.BatchRuntime` (the ``binned`` backend unless a
runtime or backend is given).  Five factorization methods are
supported:

``"lu"``
    The paper's contribution: batched LU with implicit partial
    pivoting + batched triangular solves (eager variant).
``"gh"`` / ``"ght"``
    The Gauss-Huard baselines (GH-T differs only in factor layout; in
    this NumPy realisation its application traverses the transposed
    storage, so the numerical results are identical to ``"gh"`` up to
    rounding).
``"gje"``
    Inversion-based block-Jacobi (Gauss-Jordan elimination): setup
    computes explicit inverses, application is a batched GEMV.
``"cholesky"``
    The SPD fast path (the paper's stated future work); if any block
    turns out not to be SPD, setup falls back to the batched LU for the
    whole batch, emits a ``UserWarning``, and records the fallback in
    the :class:`~repro.precond.report.SetupReport`.

Degradation policy
------------------
Block-Jacobi is only well-defined when every diagonal block is
invertible (Section II-A), but real matrices routinely violate that.
The ``on_singular`` knob decides what setup does with blocks the
batched factorization flags:

``"raise"`` (default)
    Abort setup with ``ValueError`` - the historical behaviour.
``"identity"``
    Substitute the identity for the failed block's factor (the
    MAGMA-sparse practice): the offending unknowns pass through the
    preconditioner unscaled while healthy blocks keep their full
    block-Jacobi treatment.
``"scalar"``
    Substitute the block's own diagonal (zeros mapped to one), i.e. a
    per-block scalar-Jacobi patch.
``"shift"``
    Retry the factorization of the failed blocks with an escalating
    diagonal shift; blocks that never succeed fall back to the
    identity.

Whatever happened is summarised in the ``report`` attribute (a
:class:`~repro.precond.report.SetupReport`) with per-block status,
substitution actions and 1-norm condition estimates of the surviving
blocks.

The vector gather/scatter between the sparse unknown ordering and the
padded batch layout is precomputed once in ``setup`` so every ``apply``
is a handful of vectorised operations - the CPU analogue of fusing the
permutation with the register load (Section III-B).
"""

from __future__ import annotations

import time
import warnings
from typing import Literal

import numpy as np

from ..blocking.extraction import extract_blocks
from ..blocking.supervariable import supervariable_blocking
from ..core.batch import MAX_TILE, BatchedMatrices, BatchedVectors
from ..core.degradation import (
    SINGULAR_POLICIES,
    OnSingular,
    SingularBlockError,
)
from ..runtime import APPLY_MODES, BatchRuntime
from ..sparse.csr import CsrMatrix
from ..telemetry.tracer import get_tracer
from .base import Preconditioner
from .report import SetupReport

__all__ = ["BlockJacobiPreconditioner"]

Method = Literal["lu", "gh", "ght", "gje", "cholesky"]


class BlockJacobiPreconditioner(Preconditioner):
    """Factorization-based block-Jacobi preconditioner.

    Parameters
    ----------
    method:
        Batched factorization backend (see module docstring).
    max_block_size:
        Upper bound for supervariable agglomeration - the quantity
        Table I sweeps over {8, 12, 16, 24, 32}.
    block_sizes:
        Explicit block partition (overrides supervariable blocking).
    dtype:
        Precision of the batched factorizations (the sparse matrix and
        vectors stay float64; fp32 models a mixed-precision setting).
    on_singular:
        Degradation policy for singular (or, after the Cholesky->LU
        fallback, still singular) diagonal blocks; one of ``"raise"``
        (default), ``"identity"``, ``"scalar"``, ``"shift"`` - see the
        module docstring.
    estimate_condition:
        Estimate the 1-norm condition number of every surviving block
        during setup (``tile`` extra batched solves); stored in the
        ``report``.  On by default.
    apply_mode:
        How ``apply`` answers: ``"factor"`` (default) runs the
        method's native solve against the stored factors;
        ``"inverse"`` additionally builds explicit per-block inverses
        during setup (identity-RHS solves through the factors; a
        re-wrap for ``method="gje"``, whose factors already *are*
        inverses) so every apply collapses to one batched GEMV;
        ``"auto"`` lets the runtime's autotuner measure both paths per
        bin and keep the winner.  The effective mode actually in force
        is recorded in the setup report - backends that cannot invert
        fall back to ``"factor"``.
    runtime, backend:
        The :mod:`repro.runtime` executor that runs the batched
        factorization and solves.  ``backend`` names a registered
        backend (``"binned"``, ``"numpy"``, ``"scipy"``) and builds a
        private :class:`~repro.runtime.BatchRuntime` for it;
        ``runtime`` shares an existing one (with its fallback chain
        and circuit breakers).  Every setup factorizes; the runtime
        keeps no cache.  With both None (the default) a private
        ``binned`` runtime runs.  The
        call's :class:`~repro.runtime.RuntimeReport` lands in
        ``runtime_report``.

    Attributes (after ``setup``)
    ----------------------------
    block_sizes:
        The partition actually used.
    info:
        Per-block factorization status before any substitution
        (0 = success; LAPACK semantics otherwise).
    report:
        :class:`~repro.precond.report.SetupReport` describing the
        setup: fallback counts, substitution actions, condition
        estimates.
    runtime_report:
        :class:`~repro.runtime.RuntimeReport` of the setup's
        factorization call; also attached to ``report.runtime``.
    setup_seconds:
        Wall time of extraction + factorization (+ estimation).
    """

    def __init__(
        self,
        method: Method = "lu",
        max_block_size: int = 32,
        block_sizes: np.ndarray | None = None,
        dtype=np.float64,
        on_singular: OnSingular = "raise",
        estimate_condition: bool = True,
        apply_mode: str = "factor",
        runtime: BatchRuntime | None = None,
        backend: str | None = None,
    ):
        if method not in ("lu", "gh", "ght", "gje", "cholesky"):
            raise ValueError(f"unknown block-Jacobi method {method!r}")
        if not 1 <= max_block_size <= 32:
            raise ValueError("max_block_size must be in [1, 32]")
        if on_singular not in SINGULAR_POLICIES:
            raise ValueError(
                f"unknown on_singular policy {on_singular!r}; expected "
                f"one of {SINGULAR_POLICIES}"
            )
        if apply_mode not in APPLY_MODES:
            raise ValueError(
                f"unknown apply_mode {apply_mode!r}; expected one of "
                f"{APPLY_MODES}"
            )
        self.method = method
        self.max_block_size = max_block_size
        self._explicit_sizes = (
            None if block_sizes is None else np.asarray(block_sizes)
        )
        self.dtype = np.dtype(dtype)
        self.on_singular = on_singular
        self.estimate_condition = estimate_condition
        self.apply_mode = apply_mode
        if runtime is not None and backend is not None:
            if runtime.backend.name != backend:
                raise ValueError(
                    f"conflicting runtime (backend "
                    f"{runtime.backend.name!r}) and backend={backend!r}; "
                    "pass one or the other"
                )
        if runtime is None:
            runtime = BatchRuntime(backend=backend or "binned")
        self._runtime = runtime
        self.block_sizes: np.ndarray | None = None
        self.info: np.ndarray | None = None
        self.report: SetupReport | None = None
        self.runtime_report = None
        self._matrix: CsrMatrix | None = None
        self._factor = None
        self._effective_method: str = method
        self._effective_apply_mode: str = "factor"
        self._n = 0
        self._gather: np.ndarray | None = None
        self._valid: np.ndarray | None = None

    # -- setup ---------------------------------------------------------------

    def _validated_explicit_sizes(self, n: int) -> np.ndarray:
        """Check an explicit partition before it hits the batch layer.

        Bad partitions (zero/negative entries, blocks beyond the warp
        tile) used to surface as confusing downstream errors from
        ``BatchedMatrices``/``round_up_tile``; reject them here with a
        clear message instead.
        """
        sizes = self._explicit_sizes
        if sizes.ndim != 1:
            raise ValueError(
                f"explicit block_sizes must be a 1-D sequence, got "
                f"shape {sizes.shape}"
            )
        if not np.issubdtype(sizes.dtype, np.integer):
            if not np.all(sizes == np.floor(sizes)):
                raise ValueError(
                    "explicit block_sizes must be integers, got "
                    f"dtype {sizes.dtype}"
                )
            sizes = sizes.astype(np.int64)
        else:
            sizes = sizes.astype(np.int64)
        if sizes.size == 0:
            raise ValueError("explicit block_sizes must not be empty")
        if sizes.min() < 1:
            raise ValueError(
                "explicit block_sizes must be positive; got "
                f"{int(sizes.min())} at index "
                f"{int(np.argmin(sizes))}"
            )
        if sizes.max() > MAX_TILE:
            raise ValueError(
                f"explicit block size {int(sizes.max())} exceeds the "
                f"register tile limit {MAX_TILE} (the warp width of the "
                "paper's kernels); split the block or use "
                "supervariable blocking"
            )
        if sizes.sum() != n:
            raise ValueError(
                "explicit block sizes must cover the matrix: they sum "
                f"to {int(sizes.sum())}, expected {n}"
            )
        return sizes

    def setup(self, matrix: CsrMatrix) -> "BlockJacobiPreconditioner":
        tr = get_tracer()
        if not tr.enabled:
            return self._setup_inner(matrix, tr)
        with tr.span(
            "precond.setup",
            cat="precond",
            method=self.method,
            n=matrix.n_rows,
        ) as span:
            out = self._setup_inner(matrix, tr)
            span.set(
                nb=int(self.block_sizes.size),
                effective_method=self._effective_method,
            )
            return out

    def _setup_inner(
        self, matrix: CsrMatrix, tr
    ) -> "BlockJacobiPreconditioner":
        t0 = time.perf_counter()
        if matrix.n_rows != matrix.n_cols:
            raise ValueError("block-Jacobi needs a square matrix")
        self._matrix = matrix  # kept for rebuild()
        self._n = matrix.n_rows
        with tr.span("precond.setup.blocking", cat="precond"):
            if self._explicit_sizes is not None:
                sizes = self._validated_explicit_sizes(self._n)
            else:
                sizes = supervariable_blocking(matrix, self.max_block_size)
        self.block_sizes = sizes
        with tr.span("precond.setup.extract", cat="precond"):
            blocks = extract_blocks(matrix, sizes, dtype=self.dtype)
        anorm1 = self._block_1norms(blocks)
        with tr.span("precond.setup.factorize", cat="precond"):
            self._factorize(blocks)
        self._build_index_maps(blocks)
        if self.estimate_condition:
            with tr.span("precond.setup.estimate", cat="precond"):
                cond = self._estimate_conditions(anorm1)
        else:
            cond = None
        self.report.condition_estimates = cond
        self.setup_seconds = time.perf_counter() - t0
        self.report.setup_seconds = self.setup_seconds
        return self

    def _factorize(self, blocks: BatchedMatrices) -> None:
        rt = self._runtime
        policy = self.on_singular
        effective = self.method
        chol_fallback = False
        n_nonspd = 0
        try:
            if self.method == "cholesky":
                fac = rt.factorize(
                    blocks,
                    method="cholesky",
                    on_singular=None,
                    apply_mode=self.apply_mode,
                )
                if not fac.ok:
                    # documented policy: non-SPD blocks demote the whole
                    # batch to the general LU path, with a warning flag.
                    n_nonspd = int(np.count_nonzero(fac.info))
                    chol_fallback = True
                    effective = "lu"
                    warnings.warn(
                        f"cholesky block-Jacobi: {n_nonspd} diagonal "
                        "block(s) are not SPD; falling back to batched "
                        "LU for the whole batch",
                        UserWarning,
                        stacklevel=4,
                    )
            if effective != "cholesky":  # not a Cholesky that held
                fac = rt.factorize(
                    blocks,
                    method=effective,
                    on_singular=policy,
                    apply_mode=self.apply_mode,
                )
        except SingularBlockError as err:
            bad = int(np.count_nonzero(err.info))
            raise ValueError(
                f"{bad} diagonal block(s) are singular; block-Jacobi is "
                "not well-defined for this matrix/partition "
                "(Section II-A) - pass on_singular='identity', 'scalar' "
                "or 'shift' to degrade gracefully, or use a different "
                "partition"
            ) from err
        self.runtime_report = rt.last_report
        rec = fac.degradation
        nb = blocks.nb
        if rec is not None:
            info = rec.original_info
            action = rec.action
            shift = rec.shift
        else:
            info = fac.info.copy()
            action = np.zeros(nb, dtype=np.int8)
            shift = np.zeros(nb, dtype=np.float64)
        self._factor = fac
        self._effective_method = effective
        self._effective_apply_mode = fac.effective_apply_mode
        self.info = info
        self.report = SetupReport(
            method=self.method,
            effective_method=effective,
            on_singular=policy,
            block_sizes=self.block_sizes,
            info=info,
            action=action,
            shift=shift,
            cholesky_lu_fallback=chol_fallback,
            n_nonspd=n_nonspd,
            apply_mode=self.apply_mode,
            effective_apply_mode=fac.effective_apply_mode,
            runtime=self.runtime_report,
        )

    def _build_index_maps(self, blocks: BatchedMatrices) -> None:
        nb, tile = blocks.nb, blocks.tile
        starts = np.concatenate([[0], np.cumsum(self.block_sizes)])
        offsets = np.arange(tile)[None, :]
        gather = starts[:-1, None] + offsets
        valid = offsets < self.block_sizes[:, None]
        gather = np.where(valid, gather, 0)
        self._gather = gather
        self._valid = valid
        self._tile = tile

    def _block_1norms(self, blocks: BatchedMatrices) -> np.ndarray:
        """``||D_i||_1`` of every active block (max active column sum)."""
        mask = blocks.active_mask()
        colsums = (np.abs(blocks.data) * mask).sum(axis=1)
        return colsums.max(axis=1)

    def _estimate_conditions(self, anorm1: np.ndarray) -> np.ndarray:
        """1-norm condition estimates of the surviving blocks.

        The blocks are tiny (at most ``MAX_TILE`` rows), so
        ``||D_i^{-1}||_1`` is computed *exactly* by solving against all
        ``tile`` unit vectors with the stored factorization - ``tile``
        extra batched solves, the same order of work as the
        factorization itself.  Substituted blocks report NaN: their
        stored factor no longer represents the original block.
        """
        nb, tile = self.block_sizes.size, self._tile
        invnorm1 = np.zeros(nb)
        for j in range(tile):
            e = np.zeros((nb, tile), dtype=self.dtype)
            e[:, j] = 1.0
            sol = self._factor.solve(
                BatchedVectors(e, self.block_sizes.copy())
            )
            colsum = (np.abs(sol.data) * self._valid).sum(axis=1)
            active = j < self.block_sizes
            np.maximum(invnorm1, colsum, out=invnorm1, where=active)
        cond = anorm1 * invnorm1
        cond[self.report.action != 0] = np.nan
        return cond

    # -- application -----------------------------------------------------------

    def rebuild(self) -> "BlockJacobiPreconditioner":
        """Refactorize from the matrix of the last ``setup`` call.

        The solver watchdog's restart hook: when a solve stagnates or
        diverges under a possibly-damaged setup, this runs the full
        setup again, so the diagonal blocks are extracted and
        factorized afresh.  Raises for callers that never called
        ``setup``.
        """
        if getattr(self, "_matrix", None) is None:
            raise RuntimeError("setup() must be called before rebuild()")
        return self.setup(self._matrix)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``y = M^{-1} x``: one batched solve over all diagonal blocks."""
        tr = get_tracer()
        if not tr.enabled:
            return self._apply_inner(x)
        with tr.span(
            "precond.apply",
            cat="precond",
            method=self.method,
            apply_mode=self._effective_apply_mode,
        ):
            return self._apply_inner(x)

    def _apply_inner(self, x: np.ndarray) -> np.ndarray:
        if self._factor is None:
            raise RuntimeError("setup() must be called before apply()")
        x = np.asarray(x)
        if x.shape != (self._n,):
            length = x.shape[0] if x.ndim == 1 else f"shape {x.shape}"
            raise ValueError(
                f"vector of length {length} does not match matrix "
                f"dimension {self._n}"
            )
        seg = x[self._gather].astype(self.dtype, copy=False)
        seg = np.where(self._valid, seg, 0.0).astype(self.dtype, copy=False)
        rhs = BatchedVectors(
            np.ascontiguousarray(seg), self.block_sizes.copy()
        )
        sol = self._factor.solve(rhs)
        out = np.empty(self._n, dtype=np.float64)
        out[self._gather[self._valid]] = sol.data[self._valid]
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        nb = 0 if self.block_sizes is None else self.block_sizes.size
        return (
            f"BlockJacobiPreconditioner(method={self.method!r}, "
            f"bound={self.max_block_size}, blocks={nb}, "
            f"on_singular={self.on_singular!r})"
        )
