"""Differential oracles: cross-checking the batched kernels against
each other and against LAPACK (via SciPy).

The paper's numerical argument (Sections III and V) is differential at
heart: implicit-pivoting LU is *the same factorization* as explicitly
pivoted LU, Gauss-Huard with column pivoting solves the same systems to
rounding, and the explicit-inverse path agrees wherever everything is
well conditioned.  This module turns those statements into a reusable
harness:

* :func:`differential_solve` runs any subset of the registered solver
  pipelines on one batch + right-hand side and reports per-block
  pairwise discrepancies (inf-norm, padding excluded, inf/nan patterns
  compared structurally);
* :func:`pivot_agreement` checks the paper's key invariant that
  implicit and explicit pivoting choose the identical pivot sequence
  and produce bitwise-comparable factors once the row order is fixed;
* the ``"scipy"`` oracle routes every block through
  ``scipy.linalg.lu_factor`` / ``lu_solve`` (LAPACK ``getrf/getrs``),
  anchoring the whole family to an external reference.

A kernel that raises (e.g. a singular block rejected by ``lu_solve``)
is recorded as *failed* rather than aborting the harness, so a single
bad block cannot hide discrepancies among the surviving kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np
import scipy.linalg

from ..core.batch import BatchedMatrices, BatchedVectors
from ..core.batched_cholesky import cholesky_factor, cholesky_solve
from ..core.batched_gauss_huard import gh_factor, gh_solve
from ..core.batched_gauss_jordan import gj_apply, gj_invert
from ..core.batched_lu import lu_factor
from ..core.batched_trsv import lu_solve
from .metrics import solution_distance

__all__ = [
    "SOLVER_ORACLES",
    "KernelRun",
    "DifferentialReport",
    "PivotAgreement",
    "differential_solve",
    "pivot_agreement",
]


# -- solver pipelines -------------------------------------------------------


def _solve_lu(batch: BatchedMatrices, rhs: BatchedVectors) -> BatchedVectors:
    return lu_solve(lu_factor(batch, pivoting="implicit"), rhs)


def _solve_lu_explicit(
    batch: BatchedMatrices, rhs: BatchedVectors
) -> BatchedVectors:
    return lu_solve(lu_factor(batch, pivoting="explicit"), rhs)


def _solve_gh(batch: BatchedMatrices, rhs: BatchedVectors) -> BatchedVectors:
    return gh_solve(gh_factor(batch, transposed=False), rhs)


def _solve_ght(batch: BatchedMatrices, rhs: BatchedVectors) -> BatchedVectors:
    return gh_solve(gh_factor(batch, transposed=True), rhs)


def _solve_gje(batch: BatchedMatrices, rhs: BatchedVectors) -> BatchedVectors:
    return gj_apply(gj_invert(batch), rhs)


def _solve_cholesky(
    batch: BatchedMatrices, rhs: BatchedVectors
) -> BatchedVectors:
    return cholesky_solve(cholesky_factor(batch), rhs)


def _solve_scipy(
    batch: BatchedMatrices, rhs: BatchedVectors
) -> BatchedVectors:
    """LAPACK oracle: per-block ``getrf`` + ``getrs`` through SciPy."""
    out = np.zeros_like(rhs.data)
    for i in range(batch.nb):
        m = int(batch.sizes[i])
        fac = scipy.linalg.lu_factor(batch.block(i))
        out[i, :m] = scipy.linalg.lu_solve(fac, rhs.vector(i))
    return BatchedVectors(out, rhs.sizes.copy())


#: name -> solver pipeline over (batch, rhs).  ``cholesky`` is only
#: meaningful on SPD batches; callers select the applicable subset.
SOLVER_ORACLES: Mapping[
    str, Callable[[BatchedMatrices, BatchedVectors], BatchedVectors]
] = {
    "lu": _solve_lu,
    "lu_explicit": _solve_lu_explicit,
    "gh": _solve_gh,
    "ght": _solve_ght,
    "gje": _solve_gje,
    "cholesky": _solve_cholesky,
    "scipy": _solve_scipy,
}


# -- harness ---------------------------------------------------------------


@dataclass
class KernelRun:
    """Outcome of one solver pipeline inside the differential harness."""

    name: str
    solution: BatchedVectors | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.solution is not None


@dataclass
class DifferentialReport:
    """Pairwise discrepancies between solver pipelines on one batch.

    ``pairwise[(a, b)]`` holds the per-block relative inf-norm
    discrepancy between pipelines ``a`` and ``b`` (see
    :func:`repro.verify.metrics.solution_distance`); ``inf`` entries
    mean structurally different inf/nan patterns.
    """

    runs: dict[str, KernelRun]
    pairwise: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)

    @property
    def failed_kernels(self) -> list[str]:
        return [n for n, r in self.runs.items() if not r.ok]

    def max_discrepancy(self) -> float:
        """Largest per-block discrepancy over all pipeline pairs."""
        if not self.pairwise:
            return 0.0
        return float(max(np.max(d) for d in self.pairwise.values()))

    def worst_pair(self) -> tuple[str, str] | None:
        if not self.pairwise:
            return None
        return max(self.pairwise, key=lambda k: float(np.max(self.pairwise[k])))

    def passed(self, tol: float) -> bool:
        """True if every pair of pipelines agrees to ``tol`` everywhere
        and every requested pipeline actually produced a solution."""
        return not self.failed_kernels and self.max_discrepancy() <= tol

    def to_dict(self) -> dict:
        """JSON-serialisable summary (used by ``repro verify``)."""
        return {
            "kernels": sorted(self.runs),
            "failed": {
                n: r.error for n, r in self.runs.items() if not r.ok
            },
            "max_discrepancy": self.max_discrepancy(),
            "worst_pair": list(self.worst_pair() or []),
            "pairwise_max": {
                f"{a}|{b}": float(np.max(d))
                for (a, b), d in sorted(self.pairwise.items())
            },
        }


def differential_solve(
    batch: BatchedMatrices,
    rhs: BatchedVectors,
    kernels: Iterable[str] = ("lu", "lu_explicit", "gh", "ght", "gje"),
) -> DifferentialReport:
    """Run several solver pipelines on the same problem and compare.

    Parameters
    ----------
    batch, rhs:
        The shared problem.  Every pipeline receives the same inputs
        (pipelines copy internally; the batch is never mutated).
    kernels:
        Names from :data:`SOLVER_ORACLES`.  Unknown names raise;
        pipelines that raise at runtime (singular blocks, missing
        SciPy) are recorded as failed instead of propagating.
    """
    names = list(dict.fromkeys(kernels))
    unknown = [n for n in names if n not in SOLVER_ORACLES]
    if unknown:
        raise ValueError(
            f"unknown kernels {unknown}; available: {sorted(SOLVER_ORACLES)}"
        )
    runs: dict[str, KernelRun] = {}
    for name in names:
        try:
            sol = SOLVER_ORACLES[name](batch, rhs)
        except Exception as exc:  # singular blocks etc.
            runs[name] = KernelRun(name, None, f"{type(exc).__name__}: {exc}")
        else:
            runs[name] = KernelRun(name, sol)
    report = DifferentialReport(runs=runs)
    ok_names = [n for n in names if runs[n].ok]
    for i, a in enumerate(ok_names):
        for b in ok_names[i + 1 :]:
            report.pairwise[(a, b)] = solution_distance(
                runs[a].solution, runs[b].solution
            )
    return report


@dataclass
class PivotAgreement:
    """Result of the implicit-vs-explicit pivoting equivalence check."""

    #: blocks whose pivot sequences differ (empty on success)
    mismatched_blocks: np.ndarray
    #: largest |factor difference| over the whole batch, after both
    #: factorizations are brought to the same (pivoted) row order
    factor_max_abs_diff: float
    #: per-block info agreement (singularity flagged identically)
    info_equal: bool

    @property
    def perms_equal(self) -> bool:
        return self.mismatched_blocks.size == 0

    def passed(self, factor_tol: float = 0.0) -> bool:
        """Strict pass: identical pivot sequences, identical info, and
        factors equal to ``factor_tol`` (0.0 = bitwise)."""
        return (
            self.perms_equal
            and self.info_equal
            and self.factor_max_abs_diff <= factor_tol
        )

    def to_dict(self) -> dict:
        return {
            "perms_equal": self.perms_equal,
            "mismatched_blocks": self.mismatched_blocks.tolist(),
            "factor_max_abs_diff": self.factor_max_abs_diff,
            "info_equal": self.info_equal,
        }


def pivot_agreement(batch: BatchedMatrices) -> PivotAgreement:
    """Check the paper's central invariant on one batch.

    Implicit pivoting (mark rows, one fused permutation at the end)
    must select the *same pivot sequence* as explicit partial pivoting
    and, with the row order fixed, produce the same ``L`` and ``U``:
    the two variants perform the identical sequence of scalar
    operations on the identical operands, so any difference beyond the
    bitwise level indicates a divergence in pivot selection or update
    masking (this is exactly what the mutation smoke test breaks).
    """
    fi = lu_factor(batch, pivoting="implicit")
    fe = lu_factor(batch, pivoting="explicit")
    mismatched = np.nonzero(np.any(fi.perm != fe.perm, axis=1))[0]
    mask = batch.active_mask()
    diff = np.abs(
        np.where(mask, fi.factors.data - fe.factors.data, 0.0)
    )
    return PivotAgreement(
        mismatched_blocks=mismatched,
        factor_max_abs_diff=float(diff.max()) if diff.size else 0.0,
        info_equal=bool(np.array_equal(fi.info, fe.info)),
    )
