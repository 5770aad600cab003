"""Explicit-inverse apply states: the GEMV-based preconditioner path.

The paper's Gauss-Jordan variant exists because it yields an explicit
block inverse: setup costs ``2 m^3`` flops per block (3x the LU
factorization) but every subsequent application collapses to a batched
GEMV of ``2 m^2`` flops with far more parallelism than the triangular
sweeps of the factorization-based path.  This module packages that
trade behind one state type, usable by every factorization method:

* :func:`batched_gauss_jordan` - the direct route: Gauss-Jordan
  inversion of the batch (``gj_invert``) wrapped in a
  :class:`GJEInverseState`.
* :func:`invert_factors` - the indirect route: an existing LU /
  Gauss-Huard / Cholesky factorization is converted to an explicit
  inverse by solving against the ``tile`` identity unit vectors
  (``tile`` extra batched solves, the same mechanism the condition
  estimator uses).  Thanks to the identity-padding convention the
  padded region of the result is exactly the identity, so applying the
  full tile stays safe.
* :func:`inverse_apply` - the hot path: one ``batched_gemv`` over the
  contiguous ``(nb, tile, tile)`` inverse array.  No per-``k`` Python
  loop, no triangular recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import BatchedMatrices, BatchedVectors
from .batched_cholesky import CholeskyFactors, cholesky_solve
from .batched_gauss_huard import GHFactors, gh_solve
from .batched_gauss_jordan import GJInverse, gj_invert
from .batched_lu import LUFactors
from .batched_trsv import lu_solve
from .blas import batched_gemv
from .degradation import DegradationRecord, OnSingular
from .interleaved import (
    InterleavedGHFactors,
    InterleavedLUFactors,
    interleaved_gh_solve,
    interleaved_lu_solve,
)

__all__ = [
    "GJEInverseState",
    "batched_gauss_jordan",
    "invert_factors",
    "inverse_apply",
]


@dataclass
class GJEInverseState:
    """Contiguous batched explicit inverses, ready for GEMV application.

    Attributes
    ----------
    inverses:
        Batch whose active blocks hold ``D_i^{-1}``; the padded region
        is the identity, so applying the full tile is safe.
    info:
        0 on success, ``k+1`` if the producing elimination hit a zero
        (or non-finite) pivot at stage ``k`` - such a block's
        "inverse" is garbage and :func:`inverse_apply` refuses it.
    method:
        Which factorization produced the inverse (``"gje"`` for the
        direct Gauss-Jordan route, otherwise the source method name).
    degradation:
        Singular-block substitution record inherited from the
        producing factorization; None when no policy was in force.
    """

    inverses: BatchedMatrices
    info: np.ndarray
    method: str = "gje"
    degradation: DegradationRecord | None = None

    @property
    def nb(self) -> int:
        return self.inverses.nb

    @property
    def tile(self) -> int:
        return self.inverses.tile

    @property
    def sizes(self) -> np.ndarray:
        return self.inverses.sizes

    @property
    def ok(self) -> bool:
        return bool((self.info == 0).all())


def batched_gauss_jordan(
    batch: BatchedMatrices,
    overwrite: bool = False,
    on_singular: OnSingular | None = None,
) -> GJEInverseState:
    """Invert every block by Gauss-Jordan elimination (the direct route).

    A thin state adapter over :func:`~repro.core.batched_gauss_jordan.
    gj_invert`: same pivoting, same degradation semantics, but the
    result is the apply-mode state type the runtime and preconditioner
    consume.
    """
    gj = gj_invert(batch, overwrite=overwrite, on_singular=on_singular)
    return GJEInverseState(
        inverses=gj.inverses,
        info=gj.info,
        method="gje",
        degradation=gj.degradation,
    )


def _solver_for(fac):
    """(solve kernel, method label, dtype) for a factorization object."""
    if isinstance(fac, InterleavedLUFactors):
        return interleaved_lu_solve, "lu", fac.soa.dtype
    if isinstance(fac, InterleavedGHFactors):
        label = "ght" if fac.transposed else "gh"
        return interleaved_gh_solve, label, fac.soa.dtype
    if isinstance(fac, LUFactors):
        return lu_solve, "lu", fac.factors.dtype
    if isinstance(fac, GHFactors):
        label = "ght" if fac.transposed else "gh"
        return gh_solve, label, fac.factors.dtype
    if isinstance(fac, CholeskyFactors):
        return cholesky_solve, "cholesky", fac.factors.dtype
    raise TypeError(
        f"cannot build an explicit inverse from {type(fac).__name__}"
    )


def invert_factors(fac) -> GJEInverseState:
    """Convert a factorization into an explicit inverse state.

    Solves ``D_i x = e_j`` for every unit vector of the tile with the
    stored factors and packs the solutions as the columns of one
    contiguous ``(nb, tile, tile)`` array.  Identity padding of the
    factors guarantees ``e_j`` solves to ``e_j`` for ``j >= size``, so
    the padded region of the inverse is exactly the identity.

    Accepts :class:`~repro.core.batched_lu.LUFactors`,
    :class:`~repro.core.batched_gauss_huard.GHFactors`,
    :class:`~repro.core.batched_cholesky.CholeskyFactors`, their
    interleaved (SoA) counterparts from :mod:`repro.core.interleaved`
    (solved in their own layout), a
    :class:`~repro.core.batched_gauss_jordan.GJInverse` (rewrapped
    without copying), or a :class:`GJEInverseState` (returned as is).
    Raises ``ValueError`` on factorizations with unresolved singular
    blocks - degrade first (``on_singular``) or stay on the
    factorization apply path.
    """
    if isinstance(fac, GJEInverseState):
        return fac
    if isinstance(fac, GJInverse):
        return GJEInverseState(
            inverses=fac.inverses,
            info=fac.info.copy(),
            method="gje",
            degradation=fac.degradation,
        )
    solve, label, dtype = _solver_for(fac)
    if not fac.ok:
        bad = int(np.count_nonzero(fac.info))
        raise ValueError(
            f"cannot invert a factorization with {bad} singular "
            "block(s); apply an on_singular policy first"
        )
    nb, tile = fac.nb, fac.tile
    sizes = fac.sizes
    inv = np.empty((nb, tile, tile), dtype=dtype)
    e = np.zeros((nb, tile), dtype=dtype)
    for j in range(tile):
        e[:, j] = 1.0
        sol = solve(fac, BatchedVectors(e, sizes.copy()))
        inv[:, :, j] = sol.data
        e[:, j] = 0.0
    return GJEInverseState(
        inverses=BatchedMatrices(inv, sizes.copy()),
        info=np.zeros(nb, dtype=np.int64),
        method=label,
        degradation=fac.degradation,
    )


def inverse_apply(
    state: GJEInverseState, rhs: BatchedVectors
) -> BatchedVectors:
    """Apply the explicit inverses: ``x_i = D_i^{-1} b_i``, one GEMV."""
    if not state.ok:
        bad = int(np.count_nonzero(state.info))
        raise ValueError(
            f"inverse_apply called with {bad} singular block(s); "
            "inspect GJEInverseState.info"
        )
    if state.nb != rhs.nb or state.tile != rhs.tile:
        raise ValueError("inverse/right-hand-side batch mismatch")
    y = batched_gemv(state.inverses.data, rhs.data, rhs.sizes)
    return BatchedVectors(y, rhs.sizes.copy())
