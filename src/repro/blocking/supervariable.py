"""Supervariable blocking (Section II-A; Chow & Scott RAL-P-2016-006).

Block-Jacobi is effective when the diagonal blocks capture the strong
couplings of the matrix.  For FEM-type problems, unknowns attached to
the same mesh entity share one column-sparsity pattern; such groups are
*supervariables*.  This module

1. detects supervariables as maximal runs of **consecutive** rows with
   identical column patterns (consecutiveness is what natural or
   reverse-Cuthill-McKee orderings preserve, as the paper notes), and
2. agglomerates adjacent supervariables into diagonal blocks up to a
   caller-chosen upper bound - the "block-Jacobi (bound)" configuration
   that Table I sweeps over bounds 8, 12, 16, 24 and 32.

Supervariables larger than the bound are split (a supervariable never
straddles two blocks otherwise).
"""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CsrMatrix

__all__ = ["find_supervariables", "agglomerate", "supervariable_blocking"]


#: elements compared per pass of :func:`find_supervariables`: small
#: enough that a pass's temporaries stay in cache between its steps.
#: On the 1.2M-nonzero ``fem_block_2d(125, 125, 4)`` matrix, between
#: the solves of a benchmark loop on a 2-vCPU x86 host, 32k-element
#: passes took 6 ms and one whole-matrix pass 10 ms.
_PASS_ELEMENTS = 1 << 15


def find_supervariables(matrix: CsrMatrix) -> np.ndarray:
    """Sizes of maximal runs of consecutive rows with equal patterns.

    Returns an integer array summing to ``n_rows``.  Row ``r`` repeats
    row ``r - 1`` when both have the same length ``L`` and the same
    column indices.  The comparison is exact and loop-free within a
    pass over about ``_PASS_ELEMENTS`` elements: the two rows sit next
    to each other in ``indices``, so element ``p`` of row ``r`` is
    compared with element ``p - L``.  Nothing is decided by a hash, so
    no collision can merge two distinct patterns.
    """
    n = matrix.n_rows
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    indptr, indices = matrix.indptr, matrix.indices
    counts = matrix.row_nnz()
    # passes start at the rows holding every _PASS_ELEMENTS-th element
    # (rows before the first element are empty and need no pass)
    firsts = np.searchsorted(
        indptr, np.arange(0, matrix.nnz, _PASS_ELEMENTS), side="right"
    ) - 1
    edges = np.unique(np.append(firsts, n))
    row_differs = np.zeros(n, dtype=np.uint8)
    for r0, r1 in zip(edges[:-1].tolist(), edges[1:].tolist()):
        lo, hi = indptr[r0], indptr[r1]
        length = counts[r0:r1]
        # element p against element p - L (rows whose predecessor is
        # not as long compare garbage and are not candidates anyway)
        prev = np.arange(lo, hi)
        prev -= np.repeat(length, length)
        # one flag byte per element; the trailing 0 closes the last row
        differs = np.zeros(hi - lo + 1, dtype=np.uint8)
        np.not_equal(
            indices[lo:hi], indices[prev], out=differs[:-1].view(bool)
        )
        row_differs[r0:r1] = np.bitwise_or.reduceat(
            differs, indptr[r0:r1] - lo
        )
    repeats = np.zeros(n, dtype=bool)
    repeats[1:] = (counts[1:] == counts[:-1]) & (
        (row_differs[1:] == 0) | (counts[1:] == 0)
    )
    # a run starts at row 0 and at every row that does not repeat its
    # predecessor
    starts = np.flatnonzero(~repeats)
    return np.diff(np.append(starts, n))


def agglomerate(sv_sizes: np.ndarray, max_block_size: int) -> np.ndarray:
    """Pack adjacent supervariables into blocks of size <= the bound.

    Greedy first-fit in matrix order, as in MAGMA-sparse: a
    supervariable is appended to the current block if it still fits,
    otherwise it starts a new block.  Oversized supervariables are
    chopped into bound-sized pieces.
    """
    if max_block_size < 1:
        raise ValueError("max_block_size must be positive")
    blocks: list[int] = []
    current = 0
    for s in np.asarray(sv_sizes, dtype=np.int64).tolist():
        while s > max_block_size:
            # flush, then emit full blocks out of the oversized group
            if current:
                blocks.append(current)
                current = 0
            blocks.append(max_block_size)
            s -= max_block_size
        if s == 0:
            continue
        if current + s <= max_block_size:
            current += s
        else:
            blocks.append(current)
            current = s
    if current:
        blocks.append(current)
    return np.asarray(blocks, dtype=np.int64)


def supervariable_blocking(
    matrix: CsrMatrix, max_block_size: int
) -> np.ndarray:
    """Block sizes for block-Jacobi via supervariable agglomeration.

    The returned sizes partition ``0..n_rows`` contiguously; use
    ``np.cumsum`` for the block starts.
    """
    return agglomerate(find_supervariables(matrix), max_block_size)
