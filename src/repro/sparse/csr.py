"""Compressed Sparse Row (CSR) matrices - the solver-side format.

The paper's whole pipeline operates on CSR: the Krylov solver's SpMV,
the supervariable blocking (which inspects row patterns), and the
diagonal-block extraction (Section III-C, which walks ``row-ptr`` /
``col-indices`` exactly as Figure 3 depicts).  This is a from-scratch
implementation; only a vectorised NumPy SpMV is needed for the solver
to be practical at the suite's sizes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CsrMatrix"]


class CsrMatrix:
    """Sparse matrix in CSR format (int64 indices, float64 values).

    Invariants: ``indptr`` is nondecreasing with ``indptr[0] == 0`` and
    ``indptr[-1] == nnz``; column indices are strictly increasing
    within each row (the constructor sorts them if necessary).
    """

    def __init__(self, n_rows, n_cols, indptr, indices, values, sort=True):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.indptr = np.asarray(indptr, dtype=np.int64).ravel()
        self.indices = np.asarray(indices, dtype=np.int64).ravel()
        self.values = np.asarray(values, dtype=np.float64).ravel()
        if self.indptr.shape != (self.n_rows + 1,):
            raise ValueError(
                f"indptr must have length n_rows+1={self.n_rows + 1}, "
                f"got {self.indptr.shape}"
            )
        if self.indptr[0] != 0 or (np.diff(self.indptr) < 0).any():
            raise ValueError("indptr must start at 0 and be nondecreasing")
        if self.indptr[-1] != self.indices.size:
            raise ValueError("indptr[-1] must equal nnz")
        if self.indices.size != self.values.size:
            raise ValueError("indices/values length mismatch")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.n_cols
        ):
            raise ValueError("column index out of range")
        if sort:
            self._sort_indices()

    def _sort_indices(self) -> None:
        for r in range(self.n_rows):
            lo, hi = self.indptr[r], self.indptr[r + 1]
            if hi - lo > 1:
                seg = self.indices[lo:hi]
                if (np.diff(seg) <= 0).any():
                    order = np.argsort(seg, kind="stable")
                    self.indices[lo:hi] = seg[order]
                    self.values[lo:hi] = self.values[lo:hi][order]

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dense(cls, dense: np.ndarray, tol: float = 0.0) -> "CsrMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        mask = np.abs(dense) > tol
        indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(mask.sum(axis=1))
        rows, cols = np.nonzero(mask)
        return cls(
            dense.shape[0], dense.shape[1], indptr, cols, dense[rows, cols],
            sort=False,
        )

    @classmethod
    def identity(cls, n: int) -> "CsrMatrix":
        return cls(
            n, n, np.arange(n + 1), np.arange(n), np.ones(n), sort=False
        )

    # -- basic properties --------------------------------------------------

    @property
    def nnz(self) -> int:
        return self.values.size

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def row_nnz(self) -> np.ndarray:
        """Nonzeros per row (the imbalance metric of Section III-C)."""
        return np.diff(self.indptr)

    def copy(self) -> "CsrMatrix":
        return CsrMatrix(
            self.n_rows,
            self.n_cols,
            self.indptr.copy(),
            self.indices.copy(),
            self.values.copy(),
            sort=False,
        )

    # -- kernels -------------------------------------------------------------

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Sparse matrix-vector product ``y = A x`` (vectorised).

        Implemented with a gather + segmented reduction
        (``np.add.reduceat``), the standard pure-NumPy CSR SpMV.
        """
        x = np.asarray(x)
        if x.shape != (self.n_cols,):
            raise ValueError(
                f"x must have shape ({self.n_cols},), got {x.shape}"
            )
        if self.nnz == 0:
            return np.zeros(self.n_rows, dtype=np.result_type(x, self.values))
        prod = self.values * x[self.indices]
        # reduceat over the starts of the *nonempty* rows only: between
        # two nonempty starts the segment contains exactly one row's
        # elements (empty rows contribute nothing), and clamped/repeated
        # indices - which corrupt the preceding segment - never occur.
        counts = np.diff(self.indptr)
        nonempty = counts > 0
        y = np.zeros(self.n_rows, dtype=prod.dtype)
        y[nonempty] = np.add.reduceat(prod, self.indptr[:-1][nonempty])
        return y

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def diagonal(self) -> np.ndarray:
        """Main diagonal as a dense vector (zeros where absent).

        Vectorized: each stored entry's row is matched against its
        column.  Canonical CSR holds at most one entry per (row,
        column), so every diagonal slot is written at most once.
        """
        d = np.zeros(min(self.n_rows, self.n_cols))
        rows = np.repeat(
            np.arange(self.n_rows, dtype=np.int64), np.diff(self.indptr)
        )
        on_diag = self.indices == rows
        d[rows[on_diag]] = self.values[on_diag]
        return d

    def transpose(self) -> "CsrMatrix":
        """Explicit transpose (CSR -> CSR via counting sort)."""
        indptr = np.zeros(self.n_cols + 1, dtype=np.int64)
        np.add.at(indptr, self.indices + 1, 1)
        np.cumsum(indptr, out=indptr)
        indices = np.empty(self.nnz, dtype=np.int64)
        values = np.empty(self.nnz)
        next_slot = indptr[:-1].copy()
        for r in range(self.n_rows):
            for p in range(self.indptr[r], self.indptr[r + 1]):
                c = self.indices[p]
                s = next_slot[c]
                indices[s] = r
                values[s] = self.values[p]
                next_slot[c] += 1
        return CsrMatrix(
            self.n_cols, self.n_rows, indptr, indices, values, sort=False
        )

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for r in range(self.n_rows):
            lo, hi = self.indptr[r], self.indptr[r + 1]
            out[r, self.indices[lo:hi]] = self.values[lo:hi]
        return out

    def extract_block(self, start: int, size: int) -> np.ndarray:
        """Dense copy of the diagonal block ``[start:start+size)^2``.

        Reference (sequential) extraction used to validate the batched
        extraction strategies in :mod:`repro.blocking.extraction`.
        """
        if start < 0 or start + size > self.n_rows:
            raise ValueError("block out of range")
        out = np.zeros((size, size))
        for i in range(size):
            r = start + i
            lo, hi = self.indptr[r], self.indptr[r + 1]
            cols = self.indices[lo:hi]
            sel = (cols >= start) & (cols < start + size)
            out[i, cols[sel] - start] = self.values[lo:hi][sel]
        return out

    def row_pattern_hashes(self) -> np.ndarray:
        """Order-independent hash of each row's column pattern.

        Used by supervariable blocking to find consecutive rows with
        identical sparsity patterns in O(nnz).
        """
        # polynomial hash over sorted column indices; collision chance
        # is negligible and candidates are verified exactly anyway.
        h = np.zeros(self.n_rows, dtype=np.uint64)
        cols = self.indices.astype(np.uint64)
        mixed = (cols + np.uint64(0x9E3779B97F4A7C15)) * np.uint64(
            0xBF58476D1CE4E5B9
        )
        mixed ^= mixed >> np.uint64(27)
        counts = np.diff(self.indptr)
        if self.nnz:
            starts = np.minimum(self.indptr[:-1], self.nnz - 1)
            sums = np.add.reduceat(mixed, starts)
            h = np.where(counts == 0, np.uint64(0), sums)
            h = h * np.uint64(31) + counts.astype(np.uint64)
        return h

    def with_scaled_rows(self, scale: np.ndarray) -> "CsrMatrix":
        """Return a copy with row ``r`` multiplied by ``scale[r]``."""
        scale = np.asarray(scale)
        reps = np.diff(self.indptr)
        return CsrMatrix(
            self.n_rows,
            self.n_cols,
            self.indptr.copy(),
            self.indices.copy(),
            self.values * np.repeat(scale, reps),
            sort=False,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CsrMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"
