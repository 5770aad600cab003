"""Hypothesis property tests for the sparse substrate."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sparse import CooMatrix
from repro.sparse.reorder import bandwidth, permute_symmetric, rcm_ordering
from tests.strategies import coo_matrices, seeds


@settings(max_examples=50, deadline=None)
@given(coo=coo_matrices())
def test_coo_to_csr_preserves_dense(coo):
    """COO -> CSR conversion never changes the represented matrix."""
    np.testing.assert_allclose(
        coo.to_csr().to_dense(), coo.to_dense(), atol=1e-14
    )


@settings(max_examples=50, deadline=None)
@given(coo=coo_matrices(), seed=st.integers(0, 2**20))
def test_spmv_matches_dense_product(coo, seed):
    """CSR SpMV == dense matvec for arbitrary matrices and vectors."""
    A = coo.to_csr()
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(A.n_cols)
    np.testing.assert_allclose(A.matvec(x), coo.to_dense() @ x, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(coo=coo_matrices())
def test_transpose_involution(coo):
    """(A^T)^T == A in CSR."""
    A = coo.to_csr()
    np.testing.assert_allclose(
        A.transpose().transpose().to_dense(), A.to_dense(), atol=1e-14
    )


@settings(max_examples=50, deadline=None)
@given(coo=coo_matrices())
def test_csr_invariants(coo):
    """indptr monotone, sorted unique columns per row, nnz consistent."""
    A = coo.to_csr()
    assert A.indptr[0] == 0
    assert (np.diff(A.indptr) >= 0).all()
    assert A.indptr[-1] == A.nnz == A.values.size
    for r in range(A.n_rows):
        seg = A.indices[A.indptr[r] : A.indptr[r + 1]]
        assert (np.diff(seg) > 0).all()  # strictly increasing = no dups


def _diagonal_by_rows(A):
    """The per-row search ``CsrMatrix.diagonal`` used to run."""
    d = np.zeros(min(A.n_rows, A.n_cols))
    for r in range(d.size):
        lo, hi = A.indptr[r], A.indptr[r + 1]
        seg = A.indices[lo:hi]
        pos = np.searchsorted(seg, r)
        if pos < seg.size and seg[pos] == r:
            d[r] = A.values[lo + pos]
    return d


@st.composite
def rectangular_csr(draw):
    """Random CSR matrices of any shape; sparse enough that empty rows
    and missing diagonal entries are common."""
    n_rows = draw(st.integers(1, 25))
    n_cols = draw(st.integers(1, 25))
    nnz = draw(st.integers(0, 3 * max(n_rows, n_cols)))
    rng = np.random.default_rng(draw(seeds))
    rows = rng.integers(0, n_rows, nnz)
    cols = rng.integers(0, n_cols, nnz)
    if draw(st.booleans()):  # put some entries on the diagonal
        cols = np.where(rng.random(nnz) < 0.5, rows, cols) % n_cols
    vals = rng.standard_normal(nnz)
    return CooMatrix(n_rows, n_cols, rows, cols, vals).to_csr()


@settings(max_examples=100, deadline=None)
@given(A=rectangular_csr())
def test_diagonal_matches_the_per_row_search_bit_for_bit(A):
    """Vectorized ``diagonal`` == the per-row loop, bit for bit, over
    missing diagonals, empty rows and rectangular shapes."""
    d = A.diagonal()
    ref = _diagonal_by_rows(A)
    assert d.shape == ref.shape == (min(A.n_rows, A.n_cols),)
    assert d.dtype == ref.dtype
    np.testing.assert_array_equal(d.view(np.uint64), ref.view(np.uint64))


@settings(max_examples=30, deadline=None)
@given(coo=coo_matrices(), seed=st.integers(0, 2**20))
def test_symmetric_permutation_conjugation(coo, seed):
    """permute_symmetric computes P A P^T exactly."""
    A = coo.to_csr()
    rng = np.random.default_rng(seed)
    p = rng.permutation(A.n_rows)
    B = permute_symmetric(A, p)
    np.testing.assert_allclose(
        B.to_dense(), A.to_dense()[np.ix_(p, p)], atol=1e-14
    )


@settings(max_examples=30, deadline=None)
@given(coo=coo_matrices())
def test_rcm_is_permutation_and_never_catastrophic(coo):
    """RCM always yields a valid permutation; on connected banded-ish
    patterns it does not blow the bandwidth up."""
    A = coo.to_csr()
    p = rcm_ordering(A)
    assert np.array_equal(np.sort(p), np.arange(A.n_rows))
    B = permute_symmetric(A, p)
    # symmetrised bandwidth never exceeds n-1 trivially; sanity only
    assert 0 <= bandwidth(B) <= A.n_rows - 1 or A.nnz == 0
