"""Unit tests for the COO/CSR formats (repro.sparse.coo / .csr)."""

import numpy as np
import pytest

from repro.sparse import CooMatrix, CsrMatrix


class TestCoo:
    def test_duplicates_summed(self):
        coo = CooMatrix(2, 2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, 4.0])
        d = coo.sum_duplicates()
        assert d.nnz == 2
        np.testing.assert_array_equal(
            d.to_dense(), [[0.0, 5.0], [4.0, 0.0]]
        )

    def test_to_csr_matches_dense(self):
        rng = np.random.default_rng(0)
        r = rng.integers(0, 6, 40)
        c = rng.integers(0, 5, 40)
        v = rng.standard_normal(40)
        coo = CooMatrix(6, 5, r, c, v)
        np.testing.assert_allclose(coo.to_csr().to_dense(), coo.to_dense())

    def test_empty(self):
        coo = CooMatrix(3, 3, [], [], [])
        assert coo.to_csr().nnz == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CooMatrix(2, 2, [2], [0], [1.0])
        with pytest.raises(ValueError):
            CooMatrix(2, 2, [0], [-1], [1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CooMatrix(2, 2, [0, 1], [0], [1.0])


class TestCsr:
    @pytest.fixture
    def dense(self):
        rng = np.random.default_rng(1)
        D = rng.standard_normal((7, 7))
        D[np.abs(D) < 0.8] = 0.0
        return D

    def test_from_dense_roundtrip(self, dense):
        A = CsrMatrix.from_dense(dense)
        np.testing.assert_array_equal(A.to_dense(), dense)
        assert A.nnz == np.count_nonzero(dense)

    def test_matvec_matches_dense(self, dense):
        A = CsrMatrix.from_dense(dense)
        x = np.arange(7.0)
        np.testing.assert_allclose(A.matvec(x), dense @ x)
        np.testing.assert_allclose(A @ x, dense @ x)

    def test_matvec_with_empty_rows(self):
        D = np.zeros((4, 4))
        D[1, 2] = 3.0
        A = CsrMatrix.from_dense(D)
        y = A.matvec(np.ones(4))
        np.testing.assert_array_equal(y, [0.0, 3.0, 0.0, 0.0])

    def test_matvec_empty_matrix(self):
        A = CsrMatrix.from_dense(np.zeros((3, 3)))
        np.testing.assert_array_equal(A.matvec(np.ones(3)), np.zeros(3))

    def test_matvec_shape_check(self, dense):
        A = CsrMatrix.from_dense(dense)
        with pytest.raises(ValueError):
            A.matvec(np.ones(6))

    def test_identity(self):
        eye = CsrMatrix.identity(5)
        x = np.arange(5.0)
        np.testing.assert_array_equal(eye.matvec(x), x)

    def test_diagonal(self, dense):
        A = CsrMatrix.from_dense(dense)
        np.testing.assert_array_equal(A.diagonal(), np.diag(dense))

    def test_transpose(self, dense):
        A = CsrMatrix.from_dense(dense)
        np.testing.assert_array_equal(A.transpose().to_dense(), dense.T)

    def test_extract_block(self, dense):
        A = CsrMatrix.from_dense(dense)
        np.testing.assert_array_equal(
            A.extract_block(2, 3), dense[2:5, 2:5]
        )
        with pytest.raises(ValueError):
            A.extract_block(5, 4)

    def test_sorting_leaves_the_callers_arrays_alone(self):
        # int64 indices and float64 values pass through asarray uncopied
        ind = np.array([3, 0, 2], dtype=np.int64)
        val = np.array([30.0, 0.5, 20.0])
        A = CsrMatrix(1, 4, [0, 3], ind, val)
        np.testing.assert_array_equal(A.indices, [0, 2, 3])
        np.testing.assert_array_equal(A.values, [0.5, 20.0, 30.0])
        np.testing.assert_array_equal(ind, [3, 0, 2])
        np.testing.assert_array_equal(val, [30.0, 0.5, 20.0])

    def test_sorted_input_is_not_copied(self):
        ind = np.array([0, 2, 3], dtype=np.int64)
        val = np.array([0.5, 20.0, 30.0])
        A = CsrMatrix(1, 4, [0, 3], ind, val)
        assert np.shares_memory(A.indices, ind)
        assert np.shares_memory(A.values, val)

    def test_row_pattern_hashes_group_equal_rows(self):
        D = np.zeros((4, 4))
        D[0, [0, 2]] = 1.0
        D[1, [0, 2]] = 5.0  # same pattern, different values
        D[2, [1, 3]] = 1.0
        D[3, [0, 1, 2]] = 1.0
        h = CsrMatrix.from_dense(D).row_pattern_hashes()
        assert h[0] == h[1]
        assert h[0] != h[2] and h[0] != h[3] and h[2] != h[3]

    def test_row_pattern_hashes_cover_the_row_before_empty_rows(self):
        # rows {0,1}, {0,1}, {}: the last nonempty row hashes in full
        A = CsrMatrix(3, 2, [0, 2, 4, 4], [0, 1, 0, 1], np.ones(4))
        h = A.row_pattern_hashes()
        assert h[0] == h[1] != h[2]

    def test_unsorted_indices_sorted_on_construction(self):
        A = CsrMatrix(1, 4, [0, 3], [3, 0, 2], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(A.indices, [0, 2, 3])
        np.testing.assert_array_equal(A.values, [2.0, 3.0, 1.0])

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CsrMatrix(2, 2, [0, 2], [0], [1.0])  # wrong length
        with pytest.raises(ValueError):
            CsrMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 2.0])  # decreasing
        with pytest.raises(ValueError):
            CsrMatrix(2, 2, [0, 1, 3], [0, 1], [1.0, 2.0])  # bad nnz

    def test_with_scaled_rows(self, dense):
        A = CsrMatrix.from_dense(dense)
        s = np.arange(1.0, 8.0)
        np.testing.assert_allclose(
            A.with_scaled_rows(s).to_dense(), dense * s[:, None]
        )

    def test_copy_independent(self, dense):
        A = CsrMatrix.from_dense(dense)
        B = A.copy()
        B.values[:] = 0.0
        assert A.values.any()
