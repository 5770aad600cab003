"""Diagonal-block extraction from CSR (Section III-C, Figure 3).

Pulling dense diagonal blocks out of a CSR structure is the glue
between the sparse world (the Krylov solver's matrix) and the batched
dense world (the factorization kernels).  Three realisations live here:

:func:`extract_blocks`
    The production path: a fully vectorised NumPy extraction that
    classifies every nonzero by block membership in O(nnz) and scatters
    the members into the padded batch.  Used by the block-Jacobi
    preconditioner.

:func:`extraction_stats`
    The *cost model* of the two GPU strategies the paper discusses:

    * ``"row-per-thread"`` (the naive scheme): lane ``i`` of the warp
      walks row ``i`` of the block alone.  Its loads are uncoalesced
      (each lane strides through a different row segment) and the warp
      iterates as long as the **longest** row - the load-imbalance
      problem circuit-like matrices expose.
    * ``"shared-memory"`` (the paper's scheme, Figure 3): all 32 lanes
      cooperatively sweep each row's ``col-indices`` with coalesced
      chunks, extract members into shared memory, and only then copy
      them into the factorization lanes' registers.  Work is balanced
      across lanes up to intra-warp granularity and index reads are
      coalesced; values are touched only on hits.

    The returned transaction/iteration counts drive the extraction
    ablation benchmark (the comparison the paper describes but does
    not plot).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.batch import BatchedMatrices, round_up_tile
from ..sparse.csr import CsrMatrix

__all__ = ["extract_blocks", "ExtractionStats", "extraction_stats"]

_SECTOR_BYTES = 32
_INDEX_BYTES = 4  # CSR col-indices are stored as 32-bit on the GPU


def extract_blocks(
    matrix: CsrMatrix,
    block_sizes: np.ndarray,
    tile: int | None = None,
    dtype=np.float64,
) -> BatchedMatrices:
    """Extract the diagonal blocks defined by ``block_sizes``.

    The blocks are returned identity-padded (ready for the batched
    factorizations).  Entries of the sparse matrix outside all diagonal
    blocks are ignored; entries absent from the sparse structure are
    zero in the dense blocks.
    """
    block_sizes = np.asarray(block_sizes, dtype=np.int64)
    if block_sizes.sum() != matrix.n_rows:
        raise ValueError(
            f"block sizes sum to {block_sizes.sum()}, expected "
            f"{matrix.n_rows}"
        )
    if block_sizes.size and block_sizes.max() > 32:
        raise ValueError("blocks beyond 32x32 exceed the warp kernels")
    nb = block_sizes.size
    if tile is None:
        tile = round_up_tile(int(block_sizes.max())) if nb else 1
    starts = np.concatenate([[0], np.cumsum(block_sizes)])

    data = np.zeros((nb, tile, tile), dtype=dtype)
    idx = np.arange(tile)
    # identity padding: ones on the diagonal past each block's size (the
    # active part is filled from the matrix below)
    data[:, idx, idx] = idx[None, :] >= block_sizes[:, None]

    # classify every nonzero by the block of its row: the column's
    # offset into that block, and whether it falls inside it
    row_block = np.repeat(np.arange(nb), block_sizes)
    first = starts[row_block]  # first row (= first column) of the block
    row_nnz = matrix.row_nnz()
    offset = matrix.indices - np.repeat(first, row_nnz)
    inside = (offset >= 0) & (
        offset < np.repeat(block_sizes[row_block], row_nnz)
    )
    # flat position of (block, local row, column 0) of every row
    row_base = (row_block * tile + np.arange(matrix.n_rows) - first) * tile
    flat = np.repeat(row_base, row_nnz)[inside] + offset[inside]
    data.reshape(-1)[flat] = matrix.values[inside]
    return BatchedMatrices(data, block_sizes.copy())


@dataclass
class ExtractionStats:
    """Projected GPU cost of one extraction strategy over a matrix."""

    strategy: str
    #: 32-byte index-array transactions issued
    index_transactions: int
    #: value-array transactions (values are read only on block hits for
    #: the shared-memory scheme; on every element for row-per-thread)
    value_transactions: int
    #: total warp iterations (the longest-lane iteration count per warp)
    warp_iterations: int
    #: ideal iterations if work were perfectly balanced
    balanced_iterations: int

    @property
    def imbalance(self) -> float:
        """>= 1; how much longer the warps run than balanced work would."""
        if self.balanced_iterations == 0:
            return 1.0
        return self.warp_iterations / self.balanced_iterations


def extraction_stats(
    matrix: CsrMatrix,
    block_sizes: np.ndarray,
    strategy: str = "shared-memory",
    value_bytes: int = 8,
) -> ExtractionStats:
    """Count transactions/iterations of one extraction strategy.

    See the module docstring for the two strategies.  Counts follow the
    access patterns of Figure 3: the shared-memory scheme reads
    ``col-indices`` in warp-wide coalesced chunks and touches values
    only on hits; the naive scheme issues one narrow read per element
    per lane and serialises on the longest row of each warp's block
    group.
    """
    block_sizes = np.asarray(block_sizes, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(block_sizes)])
    row_nnz = matrix.row_nnz()
    idx_per_sector = _SECTOR_BYTES // _INDEX_BYTES
    val_per_sector = _SECTOR_BYTES // value_bytes

    index_tx = 0
    value_tx = 0
    warp_iters = 0
    total_elems = 0
    hits_total = 0
    for b in range(block_sizes.size):
        lo, hi = starts[b], starts[b + 1]
        nnz_rows = row_nnz[lo:hi]
        total_elems += int(nnz_rows.sum())
        # hits = nonzeros inside the diagonal block
        hits = 0
        for r in range(lo, hi):
            seg = matrix.indices[matrix.indptr[r] : matrix.indptr[r + 1]]
            hits += int(np.count_nonzero((seg >= lo) & (seg < hi)))
        hits_total += hits
        if strategy == "shared-memory":
            # the block's rows are consecutive, so their CSR storage is
            # one contiguous range; the warp sweeps it in 32-wide
            # coalesced chunks *across row boundaries* (Figure 3) -
            # imbalance survives only within a warp-width tail
            total = int(nnz_rows.sum())
            chunks = int(np.ceil(total / 32)) if total else 0
            warp_iters += chunks
            index_tx += int(np.ceil(total / idx_per_sector))
            # values only on hits, gathered (conservatively one sector
            # per hit - hits are scattered within the rows)
            value_tx += hits
        elif strategy == "row-per-thread":
            # lane r walks row r alone: iterations = longest row, and
            # every element costs one uncoalesced index read; values
            # also read per element to test membership cheaply
            longest = int(nnz_rows.max()) if nnz_rows.size else 0
            warp_iters += longest
            index_tx += int(nnz_rows.sum())  # one sector per element
            value_tx += int(nnz_rows.sum())
        else:
            raise ValueError(f"unknown extraction strategy {strategy!r}")
    balanced = int(np.ceil(total_elems / 32))
    return ExtractionStats(
        strategy=strategy,
        index_transactions=index_tx,
        value_transactions=value_tx,
        warp_iterations=warp_iters,
        balanced_iterations=max(1, balanced),
    )
