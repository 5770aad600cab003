"""repro - Variable-size batched LU for small matrices and its
integration into block-Jacobi preconditioning.

A from-scratch Python reproduction of Anzt, Dongarra, Flegar &
Quintana-Orti, ICPP 2017 (DOI 10.1109/ICPP.2017.18):

* :mod:`repro.core` - variable-size batched LU (implicit pivoting),
  triangular solves, Gauss-Huard/GH-T, Gauss-Jordan inversion and the
  Cholesky extension, all vectorised over the batch;
* :mod:`repro.gpu` - a SIMT warp simulator, the register-resident
  kernels written on it, and the analytic P100 performance model that
  regenerates the paper's Figures 4-7;
* :mod:`repro.sparse` - CSR/COO formats, synthetic SuiteSparse-family
  generators, the 48-matrix Table I suite, Matrix Market I/O;
* :mod:`repro.blocking` - supervariable blocking and diagonal-block
  extraction (including the shared-memory strategy cost model);
* :mod:`repro.precond` - scalar and block-Jacobi preconditioners over
  five batched factorization backends;
* :mod:`repro.runtime` - the execution subsystem: size-binned batch
  planning at the warp-tile ladder, pluggable backends
  (binned/numpy/scipy), resilient execution, and per-stage/per-bin
  instrumentation;
* :mod:`repro.solvers` - IDR(s) (the paper's IDR(4)), BiCGSTAB, CG,
  GMRES.

Quickstart::

    import numpy as np
    from repro import BlockJacobiPreconditioner, idrs
    from repro.sparse import fem_block_2d

    A = fem_block_2d(30, 30, 4, seed=0)
    b = np.ones(A.n_rows)
    M = BlockJacobiPreconditioner(method="lu", max_block_size=32).setup(A)
    result = idrs(A, b, s=4, M=M)
    print(result)
"""

from .core import (
    BatchedMatrices,
    BatchedVectors,
    cholesky_factor,
    cholesky_solve,
    gh_factor,
    gh_solve,
    gj_apply,
    gj_invert,
    lu_factor,
    lu_solve,
)
from .precond import (
    BlockJacobiPreconditioner,
    IdentityPreconditioner,
    Preconditioner,
    ScalarJacobiPreconditioner,
)
from .runtime import BatchRuntime
from .solvers import SolveResult, bicgstab, cg, gmres, idrs

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "BatchedMatrices",
    "BatchedVectors",
    "lu_factor",
    "lu_solve",
    "gh_factor",
    "gh_solve",
    "gj_invert",
    "gj_apply",
    "cholesky_factor",
    "cholesky_solve",
    "Preconditioner",
    "IdentityPreconditioner",
    "ScalarJacobiPreconditioner",
    "BlockJacobiPreconditioner",
    "BatchRuntime",
    "SolveResult",
    "idrs",
    "bicgstab",
    "cg",
    "gmres",
]
