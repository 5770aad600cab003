"""Shared Hypothesis strategies and deterministic batch builders.

One home for the generators that were previously duplicated across
``tests/core``, ``tests/sparse`` and ``tests/blocking`` (and are now
also used by ``tests/verify``).  Two flavours:

* Hypothesis *strategies* (``batch_shapes``, ``seeds``, ``bounds``,
  ``coo_matrices``, ``supervariable_runs``) drawn by ``@given``;
* deterministic *builders* (``make_batch``, ``make_rhs``,
  ``random_sparse_dense``) that expand a drawn ``(shape, seed)`` into
  concrete data.  Keeping the heavy construction outside the strategy
  keeps shrinking fast: Hypothesis shrinks two integers, not a matrix.
"""

import numpy as np
from hypothesis import strategies as st

from repro.core import BatchedMatrices, BatchedVectors
from repro.sparse import CooMatrix, CsrMatrix

__all__ = [
    "batch_shapes",
    "tile_batch_shapes",
    "seeds",
    "bounds",
    "supervariable_runs",
    "make_batch",
    "make_rhs",
    "random_sparse_dense",
    "coo_matrices",
    "pattern_run_csr",
    "raw_csr_arrays",
]

#: (nb, max block size) of a variable-size batch
batch_shapes = st.tuples(
    st.integers(min_value=1, max_value=12),  # nb
    st.integers(min_value=1, max_value=16),  # max size
)

#: (nb, max block size) reaching the largest warp tile
tile_batch_shapes = st.tuples(
    st.integers(min_value=1, max_value=12),  # nb
    st.integers(min_value=1, max_value=32),  # max size
)

#: RNG seeds: large enough to decorrelate, small enough to shrink
seeds = st.integers(0, 2**20)

#: block-size bounds as accepted by supervariable_blocking
bounds = st.integers(1, 32)

#: supervariable size sequences for agglomeration properties
supervariable_runs = st.lists(st.integers(1, 50), min_size=1, max_size=60)


def make_batch(
    nb: int, max_size: int, seed: int, dominant: bool
) -> BatchedMatrices:
    """Identity-padded batch of random blocks with sizes in 1..max_size.

    ``dominant=True`` adds ``m + 1`` to the diagonal (always solvable,
    well conditioned); ``dominant=False`` leaves iid U(-1, 1) entries
    (pivoting genuinely matters, singularity has probability zero).
    """
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, max_size + 1, size=nb)
    blocks = []
    for m in sizes:
        M = rng.uniform(-1.0, 1.0, (m, m))
        if dominant:
            M[np.arange(m), np.arange(m)] += m + 1.0
        blocks.append(M)
    return BatchedMatrices.identity_padded(blocks)


def make_rhs(batch: BatchedMatrices, seed: int) -> BatchedVectors:
    """Random right-hand sides for a batch, zero outside active rows."""
    rng = np.random.default_rng(seed)
    data = rng.uniform(-1, 1, (batch.nb, batch.tile))
    data[~batch.row_mask()] = 0.0
    return BatchedVectors(data, batch.sizes.copy())


def random_sparse_dense(
    seed: int, lo: int = 10, hi: int = 60, density: float = 0.4
) -> np.ndarray:
    """Dense array with a random sparsity pattern and a unit diagonal.

    The blocking tests convert this to CSR; the unit diagonal keeps
    every row structurally nonempty so supervariable detection always
    has something to chew on.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(lo, hi))
    D = rng.standard_normal((n, n))
    D[rng.random((n, n)) < 1.0 - density] = 0.0
    np.fill_diagonal(D, 1.0)
    return D


@st.composite
def coo_matrices(draw):
    """Random square COO matrices, duplicates and all-zero rows included."""
    n = draw(st.integers(1, 25))
    nnz = draw(st.integers(0, 80))
    seed = draw(seeds)
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, n, nnz)
    vals = rng.standard_normal(nnz)
    return CooMatrix(n, n, rows, cols, vals)


@st.composite
def pattern_run_csr(draw):
    """CSR matrices made of runs of consecutive rows that repeat one
    column pattern.  Neighbouring runs often have patterns of the same
    length (the case a hash pre-filter cannot settle), sometimes the
    same pattern (the runs merge), and empty rows occur, trailing ones
    included.  Rows are left in drawn order unless ``sort`` is drawn."""
    n_cols = draw(st.integers(1, 12))
    runs = draw(st.lists(st.integers(1, 4), min_size=1, max_size=15))
    rng = np.random.default_rng(draw(seeds))
    rows = []
    pattern = np.zeros(0, dtype=np.int64)
    for run in runs:
        roll = rng.random()
        if roll < 0.2:
            pass  # the previous pattern again
        elif roll < 0.6 and pattern.size:
            # same length, (usually) different columns
            pattern = rng.choice(n_cols, size=pattern.size, replace=False)
        else:
            k = int(rng.integers(0, n_cols + 1))
            pattern = rng.choice(n_cols, size=k, replace=False)
        rows.extend([pattern] * run)
    indptr = np.concatenate([[0], np.cumsum([r.size for r in rows])])
    indices = np.concatenate(rows).astype(np.int64)
    values = rng.standard_normal(indices.size)
    return CsrMatrix(
        len(rows), n_cols, indptr, indices, values, sort=draw(st.booleans())
    )


@st.composite
def raw_csr_arrays(draw):
    """``(n_rows, n_cols, indptr, indices, values)`` with unsorted rows,
    duplicate columns within a row and empty rows."""
    n_rows = draw(st.integers(1, 20))
    n_cols = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(seeds))
    counts = rng.integers(0, 2 * n_cols + 1, n_rows)
    counts[rng.random(n_rows) < 0.2] = 0
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = rng.integers(0, n_cols, int(indptr[-1]))
    # distinct values, so a reordering of duplicates shows
    values = rng.permutation(indices.size).astype(np.float64)
    return n_rows, n_cols, indptr, indices, values
