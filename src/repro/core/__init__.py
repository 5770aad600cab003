"""Core batched dense kernels: the paper's primary contribution.

Public surface:

* :class:`~repro.core.batch.BatchedMatrices` /
  :class:`~repro.core.batch.BatchedVectors` - variable-size batch
  containers with the warp-tile padding convention.
* :func:`~repro.core.batched_lu.lu_factor` /
  :func:`~repro.core.batched_trsv.lu_solve` - the small-size LU with
  implicit pivoting and its triangular solves (GETRF/GETRS).
* :func:`~repro.core.batched_gauss_huard.gh_factor` /
  :func:`~repro.core.batched_gauss_huard.gh_solve` - the Gauss-Huard
  and Gauss-Huard-T baselines.
* :func:`~repro.core.batched_gauss_jordan.gj_invert` /
  :func:`~repro.core.batched_gauss_jordan.gj_apply` - inversion-based
  alternative.
* :func:`~repro.core.explicit_inverse.invert_factors` /
  :func:`~repro.core.explicit_inverse.inverse_apply` - the explicit
  inverse apply mode: any factorization converted into contiguous
  ``(nb, tile, tile)`` inverses applied by one batched GEMV.
* :func:`~repro.core.batched_cholesky.cholesky_factor` /
  :func:`~repro.core.batched_cholesky.cholesky_solve` - the SPD variant
  (the paper's stated future work).
* :func:`~repro.core.interleaved.aos_to_soa` /
  :func:`~repro.core.interleaved.soa_to_aos` and the
  ``interleaved_*`` kernels - the structure-of-arrays realisation of
  the LU/TRSV/Gauss-Huard sweeps (contiguous per-step access across
  the batch), and per-block LAPACK ``getrf`` packed into the same LU
  state (:func:`~repro.core.interleaved.interleaved_getrf_factor`).
"""

from .batch import (
    DEFAULT_BINS,
    MAX_TILE,
    BatchedMatrices,
    BatchedVectors,
    round_up_tile,
)
from .batched_cholesky import CholeskyFactors, cholesky_factor, cholesky_solve
from .degradation import (
    SINGULAR_POLICIES,
    DegradationRecord,
    SingularBlockError,
    substitute_singular_blocks,
)
from .batched_gauss_huard import GHFactors, gh_factor, gh_solve
from .batched_gauss_jordan import GJInverse, gj_apply, gj_invert
from .batched_lu import LUFactors, lu_factor, lu_reconstruct
from .explicit_inverse import (
    GJEInverseState,
    batched_gauss_jordan,
    inverse_apply,
    invert_factors,
)
from .batched_trsv import lower_unit_solve, lu_solve, upper_solve
from .interleaved import (
    InterleavedGHFactors,
    InterleavedLUFactors,
    aos_to_soa,
    interleaved_getrf_factor,
    interleaved_gh_factor,
    interleaved_gh_solve,
    interleaved_lu_factor,
    interleaved_lu_solve,
    soa_to_aos,
)
from .random_batches import random_batch, random_rhs
from .validation import (
    factorization_errors,
    growth_factors,
    max_relative_error,
    solve_residuals,
)

__all__ = [
    "DEFAULT_BINS",
    "MAX_TILE",
    "BatchedMatrices",
    "BatchedVectors",
    "round_up_tile",
    "SINGULAR_POLICIES",
    "DegradationRecord",
    "SingularBlockError",
    "substitute_singular_blocks",
    "LUFactors",
    "lu_factor",
    "lu_reconstruct",
    "lower_unit_solve",
    "upper_solve",
    "lu_solve",
    "GHFactors",
    "gh_factor",
    "gh_solve",
    "GJInverse",
    "gj_invert",
    "gj_apply",
    "GJEInverseState",
    "batched_gauss_jordan",
    "invert_factors",
    "inverse_apply",
    "CholeskyFactors",
    "cholesky_factor",
    "cholesky_solve",
    "InterleavedLUFactors",
    "InterleavedGHFactors",
    "aos_to_soa",
    "soa_to_aos",
    "interleaved_lu_factor",
    "interleaved_lu_solve",
    "interleaved_getrf_factor",
    "interleaved_gh_factor",
    "interleaved_gh_solve",
    "random_batch",
    "random_rhs",
    "factorization_errors",
    "growth_factors",
    "max_relative_error",
    "solve_residuals",
]
