"""Tests for supervariable blocking (repro.blocking.supervariable)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blocking import agglomerate, find_supervariables, supervariable_blocking
from repro.blocking import supervariable
from repro.sparse import CsrMatrix, fem_block_2d, laplacian_2d
from tests.strategies import bounds, pattern_run_csr, supervariable_runs


def find_supervariables_by_rows(matrix: CsrMatrix) -> np.ndarray:
    """The per-row loop ``find_supervariables`` used to run: a hash
    pre-filter, then an exact comparison of the two index slices."""
    n = matrix.n_rows
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    hashes = matrix.row_pattern_hashes()
    sizes = []
    run = 1
    for r in range(1, n):
        same = hashes[r] == hashes[r - 1]
        if same:
            lo0, hi0 = matrix.indptr[r - 1], matrix.indptr[r]
            lo1, hi1 = matrix.indptr[r], matrix.indptr[r + 1]
            same = (hi0 - lo0 == hi1 - lo1) and np.array_equal(
                matrix.indices[lo0:hi0], matrix.indices[lo1:hi1]
            )
        if same:
            run += 1
        else:
            sizes.append(run)
            run = 1
    sizes.append(run)
    return np.asarray(sizes, dtype=np.int64)


class TestFindSupervariables:
    def test_fem_nodes_recovered(self):
        A = fem_block_2d(6, 6, 4, seed=0)
        sv = find_supervariables(A)
        np.testing.assert_array_equal(sv, np.full(36, 4))

    def test_scalar_matrix_all_singletons(self):
        A = laplacian_2d(5, 5)
        sv = find_supervariables(A)
        # neighbouring Laplacian rows never share a pattern
        np.testing.assert_array_equal(sv, np.ones(25))

    def test_partition_covers_matrix(self):
        A = fem_block_2d(7, 5, 3, seed=1)
        assert find_supervariables(A).sum() == A.n_rows

    def test_identical_value_patterns_grouped(self):
        D = np.zeros((4, 4))
        D[:2, :2] = [[1.0, 2.0], [3.0, 4.0]]  # rows 0,1: same pattern
        D[2, 2] = 1.0
        D[3, 3] = 1.0
        sv = find_supervariables(CsrMatrix.from_dense(D))
        np.testing.assert_array_equal(sv, [2, 1, 1])

    def test_empty_matrix(self):
        A = CsrMatrix(0, 0, [0], [], [])
        assert find_supervariables(A).size == 0

    def test_equal_length_neighbours_with_different_columns_split(self):
        # rows 0-1 and rows 2-3 have two entries each; only the last
        # column differs between the two runs
        A = CsrMatrix(
            4, 4, [0, 2, 4, 6, 8], [0, 1, 0, 1, 0, 2, 0, 2], np.ones(8)
        )
        np.testing.assert_array_equal(find_supervariables(A), [2, 2])

    def test_empty_rows_group_and_trailing_rows_close(self):
        # rows: {0,1}, {0,1}, {}, {}, {0,2}, {0,2}, {}; the last pair
        # repeats even though empty rows follow it
        A = CsrMatrix(
            7, 3, [0, 2, 4, 4, 4, 6, 8, 8],
            [0, 1, 0, 1, 0, 2, 0, 2], np.ones(8),
        )
        np.testing.assert_array_equal(find_supervariables(A), [2, 2, 2, 1])

    def test_hash_collisions_cannot_merge_patterns(self, monkeypatch):
        """With every row hashing alike, distinct patterns still split."""
        monkeypatch.setattr(
            CsrMatrix,
            "row_pattern_hashes",
            lambda self: np.zeros(self.n_rows, dtype=np.uint64),
        )
        D = np.zeros((5, 5))
        D[0:2, [0, 1]] = 1.0
        D[2:4, [0, 2]] = 1.0  # same length as rows 0-1
        D[4, [3, 4]] = 1.0
        A = CsrMatrix.from_dense(D)
        np.testing.assert_array_equal(find_supervariables(A), [2, 2, 1])
        np.testing.assert_array_equal(find_supervariables_by_rows(A), [2, 2, 1])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fem_matches_the_per_row_loop(self, seed):
        A = fem_block_2d(9, 7, 3, seed=seed)
        np.testing.assert_array_equal(
            find_supervariables(A), find_supervariables_by_rows(A)
        )


@settings(max_examples=200, deadline=None)
@given(A=pattern_run_csr(), pass_elements=st.sampled_from([1, 2, 5, 1 << 15]))
def test_find_supervariables_matches_the_per_row_loop(A, pass_elements):
    """Vectorized detection == the per-row loop over runs of repeated
    patterns, equal-length neighbours, empty and unsorted rows, whether
    one pass covers the matrix or passes split it anywhere."""
    with mock.patch.object(supervariable, "_PASS_ELEMENTS", pass_elements):
        sizes = find_supervariables(A)
    ref = find_supervariables_by_rows(A)
    assert sizes.dtype == ref.dtype
    np.testing.assert_array_equal(sizes, ref)
    assert sizes.sum() == A.n_rows


class TestAgglomerate:
    def test_packs_up_to_bound(self):
        sizes = agglomerate(np.array([4, 4, 4, 4]), 8)
        np.testing.assert_array_equal(sizes, [8, 8])

    def test_never_splits_fitting_supervariable(self):
        sizes = agglomerate(np.array([5, 5, 5]), 8)
        np.testing.assert_array_equal(sizes, [5, 5, 5])

    def test_oversized_supervariable_chopped(self):
        sizes = agglomerate(np.array([70]), 32)
        np.testing.assert_array_equal(sizes, [32, 32, 6])

    def test_mixed(self):
        sizes = agglomerate(np.array([3, 3, 40, 2]), 16)
        assert sizes.sum() == 48
        assert sizes.max() <= 16

    def test_bound_one_degenerates_to_scalar(self):
        sizes = agglomerate(np.array([4, 4]), 1)
        np.testing.assert_array_equal(sizes, np.ones(8))

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            agglomerate(np.array([2]), 0)


@settings(max_examples=50, deadline=None)
@given(sv=supervariable_runs, bound=bounds)
def test_agglomerate_properties(sv, bound):
    """For any supervariable sequence: the blocks partition the rows,
    respect the bound, and never waste slots when a merge was legal."""
    sv = np.asarray(sv)
    out = agglomerate(sv, bound)
    assert out.sum() == sv.sum()
    assert out.min() >= 1
    assert out.max() <= bound


class TestEndToEndBlocking:
    @pytest.mark.parametrize("bound", [8, 12, 16, 24, 32])
    def test_paper_bounds(self, bound):
        A = fem_block_2d(8, 8, 4, seed=2)
        sizes = supervariable_blocking(A, bound)
        assert sizes.sum() == A.n_rows
        assert sizes.max() <= bound
        # with 4-dof nodes every block is a multiple of 4 here
        assert (sizes % 4 == 0).all()

    def test_larger_bound_fewer_blocks(self):
        A = fem_block_2d(8, 8, 4, seed=3)
        n8 = supervariable_blocking(A, 8).size
        n32 = supervariable_blocking(A, 32).size
        assert n32 < n8
