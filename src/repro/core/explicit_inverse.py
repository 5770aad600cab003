"""Explicit-inverse apply states: the GEMV-based preconditioner path.

The paper's Gauss-Jordan variant exists because it yields an explicit
block inverse: every application then collapses to a batched GEMV of
``2 m^2`` flops per block, with far more parallelism than the
triangular sweeps of the factorization-based path.  This module
packages that trade behind one state type, usable by every
factorization method:

* :func:`batched_gauss_jordan` - the direct route: Gauss-Jordan
  inversion of the batch (``gj_invert``) wrapped in a
  :class:`GJEInverseState`.
* :func:`invert_factors` - the indirect route from an existing
  factorization.  LU factors (either layout) are inverted by LAPACK
  ``getri`` on each block at its exact size, so an inverse costs
  about one more factorization and both apply modes share one
  ``getrf``; Gauss-Huard and Cholesky factors are inverted by solving
  against the ``tile`` identity unit vectors.  The padded region of
  the result is exactly the identity, so applying the full tile stays
  safe, and the output can be padded wider than the factors (a bin's
  nominal tile) without a second copy.
* :func:`inverse_gemv` - the hot path: one ``batched_gemv`` over the
  contiguous ``(nb, tile, tile)`` inverse array, on raw arrays with a
  precomputed padding mask; the runtime backends call it directly.  No
  per-``k`` Python loop, no triangular recurrence.
  :func:`inverse_apply` wraps it for a :class:`GJEInverseState` and
  :class:`~repro.core.batch.BatchedVectors`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .batch import BatchedMatrices, BatchedVectors, zero_pad_columns
from .batched_cholesky import CholeskyFactors, cholesky_solve
from .batched_gauss_huard import GHFactors, gh_solve
from .batched_gauss_jordan import GJInverse, gj_invert
from .batched_lu import LUFactors
from .blas import batched_gemv
from .degradation import DegradationRecord, OnSingular
from .interleaved import (
    InterleavedGHFactors,
    InterleavedLUFactors,
    interleaved_gh_solve,
)

__all__ = [
    "GJEInverseState",
    "batched_gauss_jordan",
    "invert_factors",
    "inverse_apply",
    "inverse_gemv",
    "pad_inverses",
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
    """(solve kernel, method label, dtype) of a factorization that has
    no LAPACK inverse here: unit-vector solves invert it."""
    if isinstance(fac, InterleavedGHFactors):
        label = "ght" if fac.transposed else "gh"
        return interleaved_gh_solve, label, fac.soa.dtype
    if isinstance(fac, GHFactors):
        label = "ght" if fac.transposed else "gh"
        return gh_solve, label, fac.factors.dtype
    if isinstance(fac, CholeskyFactors):
        return cholesky_solve, "cholesky", fac.factors.dtype
    raise TypeError(
        f"cannot build an explicit inverse from {type(fac).__name__}"
    )


def _identity_padding(nb: int, tile: int, sizes: np.ndarray, dtype):
    """``(nb, tile, tile)`` zeros with ones on each block's diagonal
    beyond its active size: the padding every inverse state carries."""
    out = np.zeros((nb, tile, tile), dtype=dtype)
    diag = np.arange(tile)
    out[:, diag, diag] = diag[None, :] >= sizes[:, None]
    return out


def pad_inverses(inverses: BatchedMatrices, tile: int) -> BatchedMatrices:
    """Identity-pad a batch of inverses to ``tile`` (returned as is
    when it is at least that wide already)."""
    if inverses.tile >= tile:
        return inverses
    data = _identity_padding(
        inverses.nb, tile, inverses.sizes, inverses.data.dtype
    )
    data[:, : inverses.tile, : inverses.tile] = inverses.data
    return BatchedMatrices(data, inverses.sizes)


def _getri_inverses(block, perm, sizes, out: np.ndarray) -> None:
    """Invert LU factors block by block with LAPACK ``getri``.

    ``block(b, m)`` is the active ``m x m`` corner of block ``b``'s
    factors of ``PA`` (a strided view; the wrapper copies it).  With the
    identity pivot vector ``getri`` returns ``(PA)^{-1}``, and since
    ``(PA)[k] = A[perm[k]]``, column ``k`` of it is column ``perm[k]``
    of ``A^{-1}``.  The columns are scattered straight into the active
    corner of ``out``, whose padding the caller has set.
    """
    (getri,) = get_lapack_funcs(("getri",), dtype=out.dtype)
    no_swaps = np.arange(out.shape[1], dtype=np.int32)
    for b, m in enumerate(sizes.tolist()):
        inv, info = getri(block(b, m), no_swaps[:m])
        if info:
            raise ValueError(
                f"getri failed on block {b} (info={info}): its U factor "
                "has an exactly zero diagonal entry"
            )
        out[b][:m, perm[b, :m]] = inv


def invert_factors(fac, tile: int | None = None) -> GJEInverseState:
    """Convert a factorization into an explicit inverse state.

    The inverses are written into one contiguous ``(nb, tile, tile)``
    array (``tile`` defaults to the factors' tile; a wider one pads
    with the identity, so a bin can be stored at its nominal tile
    without a second copy).  The padded region is exactly the
    identity.

    * LU factors (:class:`~repro.core.batched_lu.LUFactors` and the SoA
      :class:`~repro.core.interleaved.InterleavedLUFactors`) are
      inverted by LAPACK ``getri`` on each block's active corner, at
      its exact size (``sgetri`` for float32), so a block's inverse
      never depends on the batch it sits in.  Degraded blocks invert
      their substitute.
    * Gauss-Huard (``gh``/``ght``, either layout) and
      :class:`~repro.core.batched_cholesky.CholeskyFactors` are
      inverted by solving ``D_i x = e_j`` for every unit vector of the
      tile with the stored factors.
    * A :class:`~repro.core.batched_gauss_jordan.GJInverse` is
      rewrapped without copying, and a :class:`GJEInverseState` is
      returned as is (both padded only when ``tile`` is wider).

    Raises ``ValueError`` on factorizations with unresolved singular
    blocks - degrade first (``on_singular``) or stay on the
    factorization apply path.
    """
    if isinstance(fac, (GJEInverseState, GJInverse)):
        inverses = fac.inverses
        if tile is not None:
            inverses = pad_inverses(inverses, tile)
        if isinstance(fac, GJEInverseState) and inverses is fac.inverses:
            return fac
        return GJEInverseState(
            inverses=inverses,
            info=fac.info.copy(),
            method=getattr(fac, "method", "gje"),
            degradation=fac.degradation,
        )
    if isinstance(fac, InterleavedLUFactors):
        soa = fac.soa
        block, label, dtype = (lambda b, m: soa[:m, :m, b]), "lu", soa.dtype
    elif isinstance(fac, LUFactors):
        aos = fac.factors.data
        block, label, dtype = (lambda b, m: aos[b, :m, :m]), "lu", aos.dtype
    else:
        solve, label, dtype = _solver_for(fac)
    if not fac.ok:
        bad = int(np.count_nonzero(fac.info))
        raise ValueError(
            f"cannot invert a factorization with {bad} singular "
            "block(s); apply an on_singular policy first"
        )
    nb, width, sizes = fac.nb, fac.tile, fac.sizes
    inv = _identity_padding(nb, max(width, tile or 0), sizes, dtype)
    if label == "lu":
        _getri_inverses(block, fac.perm, sizes, inv)
    else:
        e = np.zeros((nb, width), dtype=dtype)
        for j in range(width):
            e[:, j] = 1.0
            sol = solve(fac, BatchedVectors(e, sizes.copy()))
            inv[:, :width, j] = sol.data
            e[:, j] = 0.0
    return GJEInverseState(
        inverses=BatchedMatrices(inv, sizes.copy()),
        info=np.zeros(nb, dtype=np.int64),
        method=label,
        degradation=fac.degradation,
    )


def inverse_gemv(
    inverses: np.ndarray, outside: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """``x_i = D_i^{-1} b_i`` on raw arrays, into a fresh array.

    ``inverses`` is ``(nb, tile, tile)``; ``outside`` the ``(nb, tile)``
    mask of outputs beyond each block's active size, which are zeroed.
    ``rhs`` (``(nb, w)``, ``w`` up to the tile; only read) is
    zero-padded to the tile, so the GEMV's reduction length is the
    tile's whatever ``w`` is.
    """
    y = batched_gemv(inverses, zero_pad_columns(rhs, outside.shape[1]))
    y[outside] = 0.0
    return y


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
    y = inverse_gemv(state.inverses.data, ~rhs.row_mask(), rhs.data)
    return BatchedVectors(y, rhs.sizes.copy())
