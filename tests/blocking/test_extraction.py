"""Tests for diagonal-block extraction (repro.blocking.extraction)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blocking import (
    extract_blocks,
    extraction_stats,
    supervariable_blocking,
)
from repro.core.batch import round_up_tile
from repro.sparse import CsrMatrix, circuit_like, fem_block_2d
from tests.strategies import bounds, random_sparse_dense, raw_csr_arrays, seeds


def extract_blocks_by_blocks(matrix, block_sizes, tile=None, dtype=np.float64):
    """The extraction ``extract_blocks`` used to run: identity padding
    zeroed block by block, and a search for every nonzero's block."""
    block_sizes = np.asarray(block_sizes, dtype=np.int64)
    nb = block_sizes.size
    if tile is None:
        tile = round_up_tile(int(block_sizes.max())) if nb else 1
    starts = np.concatenate([[0], np.cumsum(block_sizes)])
    data = np.zeros((nb, tile, tile), dtype=dtype)
    idx = np.arange(tile)
    data[:, idx, idx] = 1.0
    for b in range(nb):
        m = block_sizes[b]
        data[b, :m, :m] = 0.0
    rows = np.repeat(np.arange(matrix.n_rows), matrix.row_nnz())
    block_of_row = np.searchsorted(starts, rows, side="right") - 1
    col = matrix.indices
    in_block = (col >= starts[block_of_row]) & (
        col < starts[block_of_row + 1]
    )
    b_sel = block_of_row[in_block]
    r_sel = rows[in_block] - starts[b_sel]
    c_sel = col[in_block] - starts[b_sel]
    data[b_sel, r_sel, c_sel] = matrix.values[in_block]
    return data


class TestExtractBlocks:
    def test_matches_dense_reference(self):
        A = fem_block_2d(6, 6, 4, seed=0)
        sizes = supervariable_blocking(A, 16)
        batch = extract_blocks(A, sizes)
        starts = np.concatenate([[0], np.cumsum(sizes)])
        for b in range(batch.nb):
            ref = A.extract_block(int(starts[b]), int(sizes[b]))
            np.testing.assert_array_equal(batch.block(b), ref)

    def test_identity_padding(self):
        A = fem_block_2d(4, 4, 3, seed=1)
        sizes = np.full(16, 3)
        batch = extract_blocks(A, sizes, tile=8)
        assert batch.tile == 8
        np.testing.assert_array_equal(
            batch.data[0, 3:, 3:], np.eye(5)
        )

    def test_missing_entries_are_zero(self):
        # a diagonal matrix: extracted blocks are diagonal too
        A = CsrMatrix.identity(8)
        batch = extract_blocks(A, np.array([4, 4]))
        np.testing.assert_array_equal(batch.block(0), np.eye(4))

    def test_dtype_control(self):
        A = fem_block_2d(4, 4, 2, seed=2)
        batch = extract_blocks(A, np.full(16, 2), dtype=np.float32)
        assert batch.dtype == np.float32

    def test_bad_partition_rejected(self):
        A = CsrMatrix.identity(8)
        with pytest.raises(ValueError, match="sum"):
            extract_blocks(A, np.array([4, 3]))
        with pytest.raises(ValueError, match="32"):
            extract_blocks(CsrMatrix.identity(40), np.array([40]))

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, bound=bounds)
    def test_extraction_partition_property(self, seed, bound):
        """Every matrix entry inside a diagonal block appears in the
        batch; everything outside is ignored."""
        D = random_sparse_dense(seed)
        n = D.shape[0]
        A = CsrMatrix.from_dense(D)
        sizes = supervariable_blocking(A, bound)
        batch = extract_blocks(A, sizes)
        starts = np.concatenate([[0], np.cumsum(sizes)])
        rebuilt = np.zeros((n, n))
        for b in range(batch.nb):
            s, m = int(starts[b]), int(sizes[b])
            rebuilt[s : s + m, s : s + m] = batch.block(b)
        for b in range(batch.nb):
            s, m = int(starts[b]), int(sizes[b])
            np.testing.assert_array_equal(
                rebuilt[s : s + m, s : s + m], D[s : s + m, s : s + m]
            )


@settings(max_examples=100, deadline=None)
@given(
    raw=raw_csr_arrays(),
    seed=seeds,
    dtype=st.sampled_from([np.float64, np.float32]),
    tile=st.sampled_from([None, 32]),
)
def test_extract_blocks_matches_the_block_loop_bitwise(raw, seed, dtype, tile):
    """The loop-free extraction == the block-by-block loop, bit for bit,
    over random partitions, unsorted rows with duplicate columns (the
    last one wins in both), empty rows, both precisions and an
    oversized tile."""
    n_rows, n_cols, indptr, indices, values = raw
    A = CsrMatrix(n_rows, n_cols, indptr, indices, values, sort=False)
    rng = np.random.default_rng(seed)
    sizes, left = [], n_rows
    while left:
        sizes.append(min(left, int(rng.integers(1, 9))))
        left -= sizes[-1]
    got = extract_blocks(A, sizes, tile=tile, dtype=dtype)
    ref = extract_blocks_by_blocks(A, sizes, tile=tile, dtype=dtype)
    assert got.data.dtype == ref.dtype and got.data.shape == ref.shape
    assert got.data.tobytes() == ref.tobytes()


class TestExtractionStats:
    def test_shared_memory_balances_unbalanced_matrix(self):
        A = circuit_like(1500, seed=5, hub_degree=200)
        sizes = supervariable_blocking(A, 32)
        shared = extraction_stats(A, sizes, "shared-memory")
        naive = extraction_stats(A, sizes, "row-per-thread")
        assert shared.imbalance < 1.5
        assert naive.imbalance > 2.0

    def test_shared_memory_coalesces_index_reads(self):
        A = fem_block_2d(10, 10, 4, seed=6)
        sizes = supervariable_blocking(A, 32)
        shared = extraction_stats(A, sizes, "shared-memory")
        naive = extraction_stats(A, sizes, "row-per-thread")
        # 32-bit indices: up to 8 per sector when coalesced
        assert naive.index_transactions > 4 * shared.index_transactions

    def test_balanced_matrix_strategies_comparable_iterations(self):
        A = fem_block_2d(10, 10, 4, seed=7)
        sizes = supervariable_blocking(A, 32)
        shared = extraction_stats(A, sizes, "shared-memory")
        naive = extraction_stats(A, sizes, "row-per-thread")
        assert shared.imbalance < 1.3
        assert naive.imbalance < 2.0

    def test_unknown_strategy(self):
        A = fem_block_2d(4, 4, 2, seed=8)
        with pytest.raises(ValueError):
            extraction_stats(A, np.full(16, 2), strategy="magic")

    def test_value_reads_only_on_hits_for_shared(self):
        A = circuit_like(1000, seed=9, hub_degree=150)
        sizes = supervariable_blocking(A, 32)
        shared = extraction_stats(A, sizes, "shared-memory")
        naive = extraction_stats(A, sizes, "row-per-thread")
        assert shared.value_transactions < naive.value_transactions
