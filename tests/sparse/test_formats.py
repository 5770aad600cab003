"""Unit tests for the COO/CSR formats (repro.sparse.coo / .csr)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse import CooMatrix, CsrMatrix, fem_block_2d
from tests.strategies import raw_csr_arrays, seeds

#: the dtypes a right-hand side of ``matvec`` is checked with
X_DTYPES = (np.int64, np.float32, np.float64, np.complex128)


def reduceat_matvec(A: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """The pure-NumPy CSR SpMV ``matvec`` used to run (a gather, then
    ``np.add.reduceat`` over the starts of the nonempty rows), kept
    here as the oracle for SciPy's compiled kernel."""
    dtype = np.result_type(x, A.values)
    if A.nnz == 0:
        return np.zeros(A.n_rows, dtype=dtype)
    prod = A.values * x[A.indices]
    nonempty = np.diff(A.indptr) > 0
    y = np.zeros(A.n_rows, dtype=dtype)
    y[nonempty] = np.add.reduceat(prod, A.indptr[:-1][nonempty])
    return y


def draw_x(rng, n: int, dtype) -> np.ndarray:
    if dtype == np.int64:
        return rng.integers(-9, 10, n)
    x = rng.standard_normal(n)
    if dtype == np.complex128:
        x = x + 1j * rng.standard_normal(n)
    return x.astype(dtype)


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

    @settings(max_examples=200, deadline=None)
    @given(
        raw=raw_csr_arrays(),
        sort=st.booleans(),
        dtype=st.sampled_from(X_DTYPES),
        seed=seeds,
    )
    def test_matvec_matches_the_reduceat_formula(self, raw, sort, dtype, seed):
        """Empty rows, unsorted and repeated columns (``sort=False``
        keeps both), rectangular shapes and ``nnz == 0``: within a few
        ulps times the row length of the old formula, in its dtype."""
        A = CsrMatrix(*raw, sort=sort)
        x = draw_x(np.random.default_rng(seed), A.n_cols, dtype)
        y = A.matvec(x)
        ref = reduceat_matvec(A, x)
        assert y.dtype == np.result_type(x, A.values) == ref.dtype
        assert y.shape == (A.n_rows,)
        # |y - ref| <= 4 eps * row length * (|A| |x|) per row
        scale = np.zeros(A.n_rows)
        np.add.at(
            scale,
            np.repeat(np.arange(A.n_rows), np.diff(A.indptr)),
            np.abs(A.values * x[A.indices]),
        )
        bound = 4 * np.finfo(np.float64).eps * np.diff(A.indptr) * scale
        assert (np.abs(y - ref) <= bound).all()

    @pytest.mark.parametrize("dtype", X_DTYPES)
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (2, 5), (0, 0)])
    def test_matvec_without_nonzeros(self, shape, dtype):
        A = CsrMatrix(*shape, np.zeros(shape[0] + 1), [], [])
        x = draw_x(np.random.default_rng(0), shape[1], dtype)
        y = A.matvec(x)
        assert y.dtype == np.result_type(x, A.values)
        np.testing.assert_array_equal(y, np.zeros(shape[0]))

    def test_spmv_view_shares_the_arrays(self):
        A = fem_block_2d(40, 40, 4)
        view = A._spmv
        assert view.indices.dtype == np.int64
        for mine, scipys in (
            (A.indptr, view.indptr),
            (A.indices, view.indices),
            (A.values, view.data),
        ):
            assert np.shares_memory(mine, scipys)
        # in-place writes reach the kernel
        x = np.ones(A.n_cols)
        A.values *= 2.0
        np.testing.assert_allclose(A.matvec(x), reduceat_matvec(A, x))

    def test_first_matvec_makes_no_nnz_sized_copy(self):
        """Building a matrix from existing arrays and running its first
        SpMV allocates less than ``nnz`` int32 indices would take: an
        int32 copy of the indices (or any copy of the values) fails."""
        src = fem_block_2d(40, 40, 4)
        x = np.ones(src.n_cols)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            A = CsrMatrix(
                src.n_rows, src.n_cols, src.indptr, src.indices, src.values,
                sort=False,
            )
            A.matvec(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * src.nnz

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
