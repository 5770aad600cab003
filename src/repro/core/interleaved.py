"""Interleaved (structure-of-arrays) batched kernels.

The batch-vectorised cores in :mod:`repro.core.batched_lu`,
:mod:`repro.core.batched_trsv` and :mod:`repro.core.batched_gauss_huard`
operate on identity-padded AoS tiles of shape ``(nb, tile, tile)``:
every per-``k`` elimination step addresses one scalar per matrix with a
stride of ``tile * tile`` elements between consecutive matrices.
Following Gloster et al., *Efficient Interleaved Batch Matrix Solvers
for CUDA* (PAPERS.md), this module re-realises the same sweeps on the
*interleaved* SoA layout ``(tile, tile, nb)``: element ``(r, c)`` of all
``nb`` matrices sits contiguously, so each elimination step touches
dense unit-stride vectors of length ``nb`` - the access pattern a GPU
coalesces perfectly and a CPU prefetches trivially.

The contract with the AoS cores is strict:

* **identical pivoting** - the masked-argmax pivot selection (NaN
  mapped to ``+inf``, lowest-index tie break) reduces over the row axis
  in both layouts, and NumPy's ``argmax`` first-occurrence rule makes
  the chosen pivots equal index-for-index;
* **identical ``info``** - flag-and-continue semantics, first offending
  step ``k+1``, bit-identical integer arrays;
* **identical degradation** - the wrappers delegate to the shared
  :func:`~repro.core.degradation.substitute_singular_blocks` engine
  with an SoA refactor callback, so every policy behaves exactly like
  ``lu_factor``/``gh_factor``.

For LU and the TRSV sweeps every arithmetic operation is elementwise
(SCAL, GER, AXPY, one divide per step), applied to the same scalars in
the same order - the results are **bitwise identical** to the AoS
kernels.  The Gauss-Huard lazy row update and its solve replay sum
over the ``j`` axis; they accumulate in a fixed order, one elementwise
multiply-add per ``j``, while the AoS cores contract with ``einsum``.
GH/GH-T results therefore agree with the AoS kernels to rounding (a
few ulps), and a block's result never depends on the batch it runs in.

:func:`interleaved_getrf_factor` fills the same LU state another way:
LAPACK ``getrf`` on each block at its exact size, with the factors
and pivots packed into the SoA layout.  It agrees with the sweep to
rounding, not bitwise; blocks LAPACK cannot factor cleanly (a zero
pivot or a non-finite entry) are factored again by the sweep, so
``info`` and degradation keep the sweep's semantics.

The ``binned`` runtime backend runs :func:`interleaved_getrf_factor`
for ``lu`` and the SoA sweeps for ``gh``/``ght``; every ``lu`` solve
and explicit inverse reads the SoA state.  Factor objects carry their
SoA storage plus
``to_aos()`` adapters that rebuild the equivalent
:class:`~repro.core.batched_lu.LUFactors` /
:class:`~repro.core.batched_gauss_huard.GHFactors`, the bridge to the
AoS reference path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .batch import BatchedMatrices, BatchedVectors
from .batched_gauss_huard import GHFactors
from .batched_lu import LUFactors
from .degradation import (
    DegradationRecord,
    OnSingular,
    substitute_singular_blocks,
)
from .pivoting import identity_perms, permute_vectors, steps_to_perm

__all__ = [
    "InterleavedGHFactors",
    "InterleavedLUFactors",
    "aos_to_soa",
    "interleaved_getrf_factor",
    "interleaved_gh_factor",
    "interleaved_gh_solve",
    "interleaved_lu_factor",
    "interleaved_lu_solve",
    "soa_to_aos",
]


# -- layout transforms --------------------------------------------------------


def aos_to_soa(data: np.ndarray) -> np.ndarray:
    """AoS -> SoA: move the batch axis last, C-contiguously.

    ``(nb, tile, tile)`` matrices become ``(tile, tile, nb)`` and
    ``(nb, tile)`` vectors become ``(tile, nb)``.  A pure relabelling of
    storage: every element is copied bit-for-bit (NaN payloads
    included), so ``soa_to_aos(aos_to_soa(x))`` reproduces ``x``
    exactly.  Always a fresh array - degenerate shapes (``nb == 1``,
    ``tile == 1``) make the transposed *view* C-contiguous already, so
    a bare ``ascontiguousarray`` would alias the input and in-place
    kernels would destroy it.
    """
    if data.ndim == 3:
        return data.transpose(1, 2, 0).copy()
    if data.ndim == 2:
        return data.T.copy()
    raise ValueError(
        f"expected a (nb, tile, tile) or (nb, tile) array, "
        f"got shape {data.shape}"
    )


def soa_to_aos(data: np.ndarray) -> np.ndarray:
    """SoA -> AoS: move the batch axis first, C-contiguously.

    Exact inverse of :func:`aos_to_soa` (bit-for-bit round trip, always
    a fresh array).
    """
    if data.ndim == 3:
        return data.transpose(2, 0, 1).copy()
    if data.ndim == 2:
        return data.T.copy()
    raise ValueError(
        f"expected a (tile, tile, nb) or (tile, nb) array, "
        f"got shape {data.shape}"
    )


# -- factor containers --------------------------------------------------------


@dataclass
class InterleavedLUFactors:
    """Batched LU factors in interleaved storage.

    ``soa[r, c, b]`` holds element ``(r, c)`` of block ``b``'s factors
    (getrf layout, rows already in pivoted order); ``perm``/``info``
    follow the :class:`~repro.core.batched_lu.LUFactors` conventions
    bit for bit.
    """

    soa: np.ndarray
    perm: np.ndarray
    info: np.ndarray
    sizes: np.ndarray
    degradation: DegradationRecord | None = None

    @property
    def nb(self) -> int:
        return self.soa.shape[2]

    @property
    def tile(self) -> int:
        return self.soa.shape[0]

    @property
    def ok(self) -> bool:
        return bool((self.info == 0).all())

    def to_aos(self) -> LUFactors:
        """Equivalent AoS factorization (one layout transform away)."""
        return LUFactors(
            factors=BatchedMatrices(soa_to_aos(self.soa), self.sizes.copy()),
            perm=self.perm,
            info=self.info,
            pivoting="implicit",
            degradation=self.degradation,
        )


@dataclass
class InterleavedGHFactors:
    """Batched Gauss-Huard factors in interleaved storage.

    When ``transposed`` is True the SoA array physically holds the
    GH-T layout (the transpose of the GH storage), mirroring
    :class:`~repro.core.batched_gauss_huard.GHFactors`.
    """

    soa: np.ndarray
    colperm: np.ndarray
    info: np.ndarray
    sizes: np.ndarray
    transposed: bool = False
    degradation: DegradationRecord | None = None

    @property
    def nb(self) -> int:
        return self.soa.shape[2]

    @property
    def tile(self) -> int:
        return self.soa.shape[0]

    @property
    def ok(self) -> bool:
        return bool((self.info == 0).all())

    def to_aos(self) -> GHFactors:
        return GHFactors(
            factors=BatchedMatrices(soa_to_aos(self.soa), self.sizes.copy()),
            colperm=self.colperm,
            info=self.info,
            transposed=self.transposed,
            degradation=self.degradation,
        )


# -- LU ----------------------------------------------------------------------


#: bins with fewer blocks run the LU core's GER update block by block:
#: with only a few blocks, the batch-axis inner loops are too short to
#: amortise NumPy's per-loop cost, so the update iterates over the
#: trailing columns innermost instead (same elementwise arithmetic,
#: bit for bit; only the traversal order changes).  The getrf kernel's
#: referee, which refactors the few blocks LAPACK failed on, runs here.
_BY_BLOCK_NB = 8

#: the LU core's GER update and final row gather work in column / row
#: slabs: a quarter of the tile, or more while a slab's temporary stays
#: under this many elements.  A large bin's temporaries then stay a
#: quarter of the batch, and a small bin runs in one piece.  The getrf
#: kernel gathers its per-size stacks in slabs of this many elements.
_TEMP_ELEMENTS = 1 << 16


def _ilu_core(S: np.ndarray, out: np.ndarray | None = None):
    """Implicit-pivoting LU on one interleaved ``(tile, tile, nb)`` batch.

    Step-for-step mirror of
    :func:`repro.core.batched_lu._factor_implicit`: the same masked
    argmax (first occurrence = lowest row), the same flag-and-continue
    ``info`` bookkeeping, and the same elementwise SCAL/GER arithmetic -
    only the storage order differs, so the results are bitwise equal.
    Each step's SCAL writes one contiguous ``nb``-vector and the GER
    updates ``(tile - k - 1)`` of them, which is the locality win of
    the layout.  The pivoted rows are gathered into ``out`` (a fresh
    array when None).
    """
    tile, _, nb = S.shape
    barange = np.arange(nb)
    steps = np.full((nb, tile), -1, dtype=np.int64)
    pivoted = np.zeros((tile, nb), dtype=bool)
    info = np.zeros(nb, dtype=np.int64)
    slab = max(1, tile // 4, _TEMP_ELEMENTS // (tile * max(nb, 1)))
    for k in range(tile):
        col = np.abs(S[:, k, :])
        col[pivoted] = -1.0
        np.copyto(col, np.inf, where=np.isnan(col))
        ipiv = col.argmax(axis=0)
        pivot_val = S[ipiv, k, barange]
        steps[barange, ipiv] = k
        pivoted[ipiv, barange] = True
        singular = (pivot_val == 0) | ~np.isfinite(pivot_val)
        np.copyto(info, k + 1, where=(info == 0) & singular)
        update = ~pivoted
        inv_pivot = 1.0 / np.where(singular, 1.0, pivot_val)
        scal = S[:, k, :]
        np.multiply(
            scal,
            inv_pivot[None, :],
            out=scal,
            where=update & ~singular[None, :],
        )
        if nb < _BY_BLOCK_NB:
            # (nb, tile, tile) views, C-order traversal: columns inner
            trailing = S.transpose(2, 0, 1)[:, :, k + 1 :]
            np.subtract(
                trailing,
                np.multiply(
                    S[:, k, :].T[:, :, None],
                    S[ipiv, k + 1 :, barange][:, None, :],
                    order="C",
                ),
                out=trailing,
                where=update.T[:, :, None],
                order="C",
            )
        else:
            pivot_row = S[ipiv, :, barange].T  # (tile, nb) row ipiv
            for c in range(k + 1, tile, slab):
                cols = slice(c, c + slab)
                trailing = S[:, cols, :]
                np.subtract(
                    trailing,
                    S[:, k, None, :] * pivot_row[None, cols, :],
                    out=trailing,
                    where=update[:, None, :],
                )
    perm = steps_to_perm(steps)
    if out is None:
        out = np.empty_like(S)
    every_col = np.arange(tile)[None, :, None]
    for r in range(0, tile, slab):
        rows = perm.T[r : r + slab, None, :]
        out[r : r + slab] = S[rows, every_col, barange]
    return out, perm, info


def _factor_lu(
    core, kernel: str, batch: BatchedMatrices, overwrite: bool,
    on_singular: OnSingular | None,
) -> InterleavedLUFactors:
    """The LU wrappers' shared body around ``core(data, sizes, out)``.

    ``core`` factors an AoS batch into SoA ``out`` (a fresh array when
    None) and returns ``(out, perm, info)``; it also refactors the
    substitution engine's candidates.
    """
    originals = None
    if on_singular in ("scalar", "shift"):
        originals = batch.data.copy() if overwrite else batch.data
    sizes = batch.sizes.copy()
    tile = batch.tile
    out, perm, info = core(
        batch.data,
        sizes,
        batch.data.reshape(tile, tile, batch.nb) if overwrite else None,
    )
    record = None
    if on_singular is not None:

        def refactor(cand: np.ndarray, idx: np.ndarray) -> np.ndarray:
            sub_out, sub_perm, sub_info = core(cand, sizes[idx], None)
            out[:, :, idx] = sub_out
            perm[idx] = sub_perm
            return sub_info

        record = substitute_singular_blocks(
            on_singular,
            info,
            refactor,
            originals,
            sizes,
            tile,
            out.dtype,
            kernel=kernel,
        )
    return InterleavedLUFactors(
        soa=out, perm=perm, info=info, sizes=sizes, degradation=record
    )


def interleaved_lu_factor(
    batch: BatchedMatrices,
    overwrite: bool = False,
    on_singular: OnSingular | None = None,
) -> InterleavedLUFactors:
    """Implicit-pivoting LU of every block, in interleaved storage.

    Same signature semantics as :func:`repro.core.batched_lu.lu_factor`
    and the same ``on_singular`` policies via the shared substitution
    engine.  ``overwrite`` grants permission to destroy the input: its
    buffer then holds the SoA factors, so the factorization needs no
    second output array.  The returned factors, permutations and
    ``info`` are bitwise equal to the AoS kernel's.
    """
    return _factor_lu(
        lambda data, sizes, out: _ilu_core(aos_to_soa(data), out),
        "batched LU (interleaved layout)",
        batch,
        overwrite,
        on_singular,
    )


def _getrf_core(
    data: np.ndarray, sizes: np.ndarray, out: np.ndarray | None = None
):
    """LAPACK ``getrf`` on every block of an AoS batch at its exact size.

    Blocks of one size are gathered into a stack, each stored
    transposed so that its transpose is a Fortran-ordered view LAPACK
    factors in place.  Only once every block is factored is the SoA
    layout written into ``out`` (which may alias ``data``): the packed
    factors in the active corner, identity in the padding.  The swap
    sequence ``ipiv`` becomes a gather ``perm`` with an identity tail.

    LAPACK flags only exact-zero pivots, so any block with a nonzero
    ``info`` or a non-finite factor entry is factored again by
    :func:`_ilu_core` from a copy of its input taken before the
    overwrite: ``info`` and the factors of a failed block are then the
    SoA core's, bit for bit.
    """
    nb, tile, _ = data.shape
    (getrf,) = get_lapack_funcs(("getrf",), dtype=data.dtype)
    ipiv = np.tile(np.arange(tile), (nb, 1))
    bad = np.zeros(nb, dtype=bool)
    stacks = []
    for m in np.unique(sizes):
        m = int(m)
        idx = np.flatnonzero(sizes == m)
        stack = np.empty((idx.size, m, m), dtype=data.dtype)
        step = max(1, _TEMP_ELEMENTS // (m * m))
        for c in range(0, idx.size, step):
            # a fancy index copies: slabs keep that copy small
            stack[c : c + step] = data[idx[c : c + step], :m, :m].transpose(
                0, 2, 1
            )
        piv = np.empty((idx.size, m), dtype=np.int32)
        lapack_info = np.empty(idx.size, dtype=np.int64)
        for j, a in enumerate(stack):
            _, piv[j], lapack_info[j] = getrf(a.T, overwrite_a=True)
        ipiv[idx, :m] = piv
        bad[idx] = (lapack_info != 0) | ~np.isfinite(stack).all(
            axis=(1, 2)
        )
        stacks.append((m, idx, stack))
    failed = np.flatnonzero(bad)
    originals = data[failed].copy()
    if out is None:
        out = np.empty((tile, tile, nb), dtype=data.dtype)
    out.fill(0)
    out[np.arange(tile), np.arange(tile), :] = 1
    for m, idx, stack in stacks:
        out[:m, :m, idx] = stack.transpose(2, 1, 0)
    perm = np.tile(np.arange(tile), (nb, 1))
    barange = np.arange(nb)
    for k in range(tile):
        j = ipiv[:, k]
        pk = perm[:, k].copy()
        perm[:, k] = perm[barange, j]
        perm[barange, j] = pk
    info = np.zeros(nb, dtype=np.int64)
    if failed.size:
        sub_out, perm[failed], info[failed] = _ilu_core(
            aos_to_soa(originals)
        )
        out[:, :, failed] = sub_out
    return out, perm, info


def interleaved_getrf_factor(
    batch: BatchedMatrices,
    overwrite: bool = False,
    on_singular: OnSingular | None = None,
) -> InterleavedLUFactors:
    """LU of every block by LAPACK ``getrf``, in interleaved storage.

    Each block is factored at its exact active size (so its factors
    never depend on the tile or on the other blocks of the batch) and
    the factors are packed into the same :class:`InterleavedLUFactors`
    that :func:`interleaved_lu_factor` returns, so the SoA solve, the
    explicit inverse and every reader of the SoA state work unchanged.
    The wrapper follows the dtype (``sgetrf`` for float32).
    ``overwrite`` and ``on_singular`` behave as in
    :func:`interleaved_lu_factor`, and substituted blocks are factored
    the same way.  Blocks LAPACK cannot factor cleanly get the SoA
    core's factors and ``info`` (see :func:`_getrf_core`); the others
    agree with the SoA core to rounding, not bitwise: LAPACK orders
    its updates differently.
    """
    return _factor_lu(
        _getrf_core,
        "LAPACK getrf (interleaved layout)",
        batch,
        overwrite,
        on_singular,
    )


def interleaved_lu_solve(
    fac: InterleavedLUFactors, rhs: BatchedVectors
) -> BatchedVectors:
    """Batched GETRS on interleaved factors (eager TRSV sweeps).

    Mirrors :func:`repro.core.batched_trsv.lu_solve` with
    ``variant="eager"``: permutation gather fused with the load, then
    the unit-lower and upper sweeps.  Each AXPY touches contiguous
    ``nb``-vectors; the scalar arithmetic matches the AoS sweeps
    bit for bit.
    """
    if not fac.ok:
        bad = int(np.count_nonzero(fac.info))
        raise ValueError(
            f"interleaved_lu_solve called on a factorization with {bad} "
            "singular block(s); inspect InterleavedLUFactors.info"
        )
    if fac.nb != rhs.nb or fac.tile != rhs.tile:
        raise ValueError("factor/right-hand-side batch mismatch")
    S = fac.soa
    tile = fac.tile
    b = aos_to_soa(permute_vectors(rhs.data, fac.perm))  # (tile, nb)
    for k in range(tile - 1):
        b[k + 1 :, :] -= S[k + 1 :, k, :] * b[k, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(tile - 1, -1, -1):
            b[k, :] /= S[k, k, :]
            if k:
                b[:k, :] -= S[:k, k, :] * b[k, :]
    return BatchedVectors(soa_to_aos(b), rhs.sizes.copy())


# -- Gauss-Huard -------------------------------------------------------------


def _fixed_order_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sum_j a[j] * b[j]`` accumulated for ``j = 0, 1, ...`` in turn.

    Every step is an elementwise multiply-add over the batch axis, so
    each block's sum is rounded the same way whatever batch (or
    sub-batch) it sits in.  An ``einsum`` contraction would pick its
    summation order from the operand shapes instead.
    """
    acc = a[0] * b[0]
    for j in range(1, a.shape[0]):
        acc += a[j] * b[j]
    return acc


def _igh_core(S: np.ndarray):
    """Gauss-Huard loop on one interleaved ``(tile, tile, nb)`` batch.

    Mirror of :func:`repro.core.batched_gauss_huard._gh_core`.  The
    pivot search, column exchange, ``info`` bookkeeping, scaling and
    eager upward elimination are elementwise and bitwise-faithful; the
    lazy row update accumulates its ``j`` sum in a fixed order, so it
    agrees with the AoS core's einsum to rounding and never depends on
    the batch it runs in (see the module docstring).
    """
    tile, _, nb = S.shape
    barange = np.arange(nb)
    colperm = identity_perms(nb, tile)
    info = np.zeros(nb, dtype=np.int64)
    for k in range(tile):
        if k:
            S[k, k:, :] -= _fixed_order_sum(S[k, :k, None, :], S[:k, k:, :])
        row = np.abs(S[k, :, :])
        row[:k, :] = -1.0
        np.copyto(row, np.inf, where=np.isnan(row))
        jpiv = row.argmax(axis=0)
        swap = jpiv != k
        if swap.any():
            ck = S[:, k, :].copy()
            cj = S[:, jpiv, barange].copy()
            S[:, k, :] = np.where(swap[None, :], cj, ck)
            S[:, jpiv, barange] = np.where(swap[None, :], ck, cj)
            pk = colperm[barange, k].copy()
            pj = colperm[barange, jpiv].copy()
            colperm[barange, k] = np.where(swap, pj, pk)
            colperm[barange, jpiv] = np.where(swap, pk, pj)
        pivot = S[k, k, :]
        singular = (pivot == 0) | ~np.isfinite(pivot)
        np.copyto(info, k + 1, where=(info == 0) & singular)
        inv_pivot = np.ones_like(pivot)
        np.divide(1.0, pivot, out=inv_pivot, where=~singular)
        if k + 1 < tile:
            S[k, k + 1 :, :] *= inv_pivot[None, :]
            if k:
                S[:k, k + 1 :, :] -= (
                    S[:k, k, None, :] * S[None, k, k + 1 :, :]
                )
    return S, colperm, info


def interleaved_gh_factor(
    batch: BatchedMatrices,
    transposed: bool = False,
    overwrite: bool = False,
    on_singular: OnSingular | None = None,
) -> InterleavedGHFactors:
    """Gauss-Huard factorization of every block, interleaved storage.

    Mirrors :func:`repro.core.batched_gauss_huard.gh_factor`, including
    the GH-T transposed layout and all ``on_singular`` policies.  With
    ``overwrite`` the input's buffer receives the SoA factors, as in
    :func:`interleaved_lu_factor`.
    """
    originals = None
    if on_singular in ("scalar", "shift"):
        originals = batch.data
    sizes = batch.sizes.copy()
    S = aos_to_soa(batch.data)
    S, colperm, info = _igh_core(S)
    record = None
    if on_singular is not None:

        def refactor(cand: np.ndarray, idx: np.ndarray) -> np.ndarray:
            sub_S, sub_colperm, sub_info = _igh_core(aos_to_soa(cand))
            S[:, :, idx] = sub_S
            colperm[idx] = sub_colperm
            return sub_info

        record = substitute_singular_blocks(
            on_singular,
            info,
            refactor,
            originals,
            sizes,
            S.shape[0],
            S.dtype,
            kernel="batched Gauss-Huard (interleaved layout)",
        )
    if transposed:
        S = S.transpose(1, 0, 2)
    if overwrite:
        out = batch.data.reshape(S.shape)
        out[...] = S
        S = out
    elif transposed:
        S = np.ascontiguousarray(S)
    return InterleavedGHFactors(
        soa=S,
        colperm=colperm,
        info=info,
        sizes=sizes,
        transposed=transposed,
        degradation=record,
    )


def interleaved_gh_solve(
    fac: InterleavedGHFactors, rhs: BatchedVectors
) -> BatchedVectors:
    """Apply interleaved Gauss-Huard factors to right-hand sides.

    Mirrors :func:`repro.core.batched_gauss_huard.gh_solve`: replay the
    stages on ``b`` with layout-agnostic row/column accessors, then
    scatter the column permutation onto the solution.
    """
    if not fac.ok:
        bad = int(np.count_nonzero(fac.info))
        raise ValueError(
            f"interleaved_gh_solve called on a factorization with {bad} "
            "singular block(s); inspect InterleavedGHFactors.info"
        )
    if fac.nb != rhs.nb or fac.tile != rhs.tile:
        raise ValueError("factor/right-hand-side batch mismatch")
    S = fac.soa
    tile = fac.tile
    nb = fac.nb
    barange = np.arange(nb)
    b = aos_to_soa(rhs.data)  # (tile, nb)

    if not fac.transposed:
        row = lambda k: S[k]  # noqa: E731 - local accessors keep the
        col = lambda k: S[:, k, :]  # noqa: E731   loop body layout-agnostic
    else:
        row = lambda k: S[:, k, :]  # noqa: E731
        col = lambda k: S[k]  # noqa: E731

    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(tile):
            rk = row(k)
            if k:
                b[k, :] -= _fixed_order_sum(rk[:k], b[:k])
            b[k, :] /= rk[k]
            if k:
                b[:k, :] -= col(k)[:k] * b[k, :]
    x = np.empty_like(b)
    x[fac.colperm.T, barange[None, :]] = b
    return BatchedVectors(soa_to_aos(x), rhs.sizes.copy())
