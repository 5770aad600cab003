"""The ``repro verify`` regression gate: one command, one verdict.

Sweeps a matrix of batches (random *and* adversarial) through the full
metrology of this package and aggregates structured pass/fail findings:

``growth``
    Pivot growth stays under Wilkinson's ``2^{m-1}`` bound everywhere,
    and the Wilkinson batch attains it *exactly* (a growth accounting
    that merely stays small would pass vacuously; exact attainment
    pins the formula).

``pivot_equivalence``
    Implicit and explicit pivoting pick identical pivot sequences and
    produce bitwise-identical factors on every batch - including the
    pivot-tie and mixed-size adversaries where any divergence in
    tie-breaking or padding handling would surface.

``backward_error``
    Every backward-stable pipeline (LU implicit/explicit, GH, GH-T)
    achieves a normwise backward error below ``C m rho eps`` per block
    (Higham Thm. 9.6 shape: the bound must scale with the *measured*
    growth ``rho``, which is what keeps the Wilkinson batch honest
    rather than excluded).

``factorization``
    ``||PA - LU||_F / ||A||_F <= C m rho eps`` per block.

``differential``
    On well-conditioned batches, all pipelines (plus the SciPy/LAPACK
    oracle and Cholesky on SPD input) agree to ``diff_tol``.

``simt``
    Warp kernels replayed on the SIMT machine match the closed-form
    instruction/transaction counts and the NumPy reference factors.

``apply_modes``
    The explicit-inverse apply (GEMV against inverses built from the
    LU factors) agrees with the triangular-solve apply on every
    adversarial batch, block by block, within a condition-scaled
    forward bound ``C m kappa eps`` (blocks whose bound exceeds 0.5
    carry no forward accuracy either way and are skipped, not
    excused).

``backends``
    Every registered runtime backend other than the ``numpy``
    reference (today ``binned``) factorizes and solves the
    well-conditioned batches through the executor and agrees with
    ``numpy`` to ``diff_tol``, with bitwise-identical ``info`` - a
    newly registered backend enters this oracle automatically.

Everything is deterministic in ``seed``.  ``quick=True`` trims the
sweep for CI entry gates (~seconds); the full mode widens tiles and
adds float32.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.batch import BatchedMatrices, BatchedVectors
from ..core.batched_gauss_huard import gh_factor, gh_solve
from ..core.batched_lu import lu_factor
from ..core.batched_trsv import lu_solve
from ..core.random_batches import random_batch, random_rhs
from .adversarial import adversarial_suite
from .metrics import (
    factorization_error,
    growth_factor,
    normwise_backward_error,
)
from .oracles import differential_solve, pivot_agreement
from .simt_check import run_simt_checks

__all__ = ["CheckResult", "VerificationReport", "run_verification"]

#: safety constant of the growth-scaled error bounds ``C m rho eps``
_BOUND_C = 64.0
#: agreement tolerance between pipelines on well-conditioned fp64 input
_DIFF_TOL = 1e-9


@dataclass
class CheckResult:
    """Outcome of one named check."""

    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "details": self.details,
        }


@dataclass
class VerificationReport:
    """Aggregated verdict of one ``run_verification`` sweep."""

    mode: str
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "mode": self.mode,
            "seed": self.seed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def summary(self) -> str:
        lines = [f"repro verify ({self.mode}, seed={self.seed})"]
        for c in self.checks:
            lines.append(f"  [{'PASS' if c.passed else 'FAIL'}] {c.name}")
            if not c.passed:
                for key, val in c.details.items():
                    lines.append(f"         {key}: {val}")
        lines.append("verdict: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _rhs(batch: BatchedMatrices, seed: int) -> BatchedVectors:
    return random_rhs(batch, seed=seed)


def _eps(batch: BatchedMatrices) -> float:
    return float(np.finfo(batch.dtype).eps)


def _batch_matrix(quick: bool, seed: int):
    """The sweep: name -> (batch, well_conditioned) pairs."""
    tiles = (8,) if quick else (8, 16)
    nb = 12 if quick else 32
    sweep: dict[str, tuple[BatchedMatrices, bool]] = {}
    for tile in tiles:
        for name, batch in adversarial_suite(tile=tile, seed=seed).items():
            # graded/sign-flip blocks are deliberately ill conditioned:
            # backward-stable metrics still apply, cross-kernel forward
            # agreement does not.
            well = name in ("pivot_tie", "mixed_size")
            sweep[f"{name}_t{tile}"] = (batch, well)
        sweep[f"dominant_t{tile}"] = (
            random_batch(nb, (1, tile), kind="diag_dominant", seed=seed),
            True,
        )
        sweep[f"uniform_t{tile}"] = (
            random_batch(nb, (1, tile), kind="uniform", seed=seed + 1),
            True,
        )
    if not quick:
        sweep["dominant_t8_fp32"] = (
            random_batch(
                nb, (1, 8), kind="diag_dominant", seed=seed, dtype=np.float32
            ),
            False,  # fp32 agreement vs fp64-tuned tol is not meaningful
        )
    return sweep


def _check_growth(sweep, seed: int) -> CheckResult:
    violations = {}
    wilkinson_exact = True
    for name, (batch, _) in sweep.items():
        fac = lu_factor(batch)
        rho = growth_factor(batch, fac)
        bound = 2.0 ** (batch.sizes.astype(np.float64) - 1)
        over = rho > bound * (1.0 + 1e-12)
        if over.any():
            violations[name] = {
                "blocks": np.nonzero(over)[0].tolist(),
                "rho_max": float(rho.max()),
            }
        if name.startswith("wilkinson"):
            # attained exactly: growth doubles once per eliminated row
            if not np.allclose(rho, bound, rtol=1e-12):
                wilkinson_exact = False
    return CheckResult(
        name="growth",
        passed=not violations and wilkinson_exact,
        details={
            "violations": violations,
            "wilkinson_attains_bound": wilkinson_exact,
        },
    )


def _check_pivot_equivalence(sweep) -> CheckResult:
    failures = {}
    for name, (batch, _) in sweep.items():
        agr = pivot_agreement(batch)
        if not agr.passed(factor_tol=0.0):
            failures[name] = agr.to_dict()
    return CheckResult(
        name="pivot_equivalence",
        passed=not failures,
        details={"failures": failures},
    )


def _stable_solutions(batch, rhs):
    """Per-pipeline solutions of the backward-stable family."""
    out = {}
    out["lu"] = lu_solve(lu_factor(batch, pivoting="implicit"), rhs)
    out["lu_explicit"] = lu_solve(lu_factor(batch, pivoting="explicit"), rhs)
    out["gh"] = gh_solve(gh_factor(batch, transposed=False), rhs)
    out["ght"] = gh_solve(gh_factor(batch, transposed=True), rhs)
    return out


def _check_backward_error(sweep, seed: int) -> CheckResult:
    worst = {"eta": 0.0, "batch": None, "kernel": None}
    failures = {}
    for name, (batch, _) in sweep.items():
        rhs = _rhs(batch, seed + 17)
        fac = lu_factor(batch)
        if not fac.ok:
            failures[name] = {"error": "unexpected singular block"}
            continue
        rho = np.maximum(growth_factor(batch, fac), 1.0)
        m = batch.sizes.astype(np.float64)
        bound = _BOUND_C * m * rho * _eps(batch)
        for kernel, x in _stable_solutions(batch, rhs).items():
            eta = normwise_backward_error(batch, x, rhs)
            if eta.max() > worst["eta"]:
                worst = {
                    "eta": float(eta.max()),
                    "batch": name,
                    "kernel": kernel,
                }
            over = eta > bound
            if over.any():
                failures.setdefault(name, {})[kernel] = {
                    "blocks": np.nonzero(over)[0].tolist(),
                    "eta_max": float(eta.max()),
                    "bound_min": float(bound[over].min()),
                }
    return CheckResult(
        name="backward_error",
        passed=not failures,
        details={"failures": failures, "worst": worst},
    )


def _check_factorization(sweep, seed: int) -> CheckResult:
    failures = {}
    for name, (batch, _) in sweep.items():
        fac = lu_factor(batch)
        rho = np.maximum(growth_factor(batch, fac), 1.0)
        m = batch.sizes.astype(np.float64)
        bound = _BOUND_C * m * rho * _eps(batch)
        err = factorization_error(batch, fac)
        over = err > bound
        if over.any():
            failures[name] = {
                "blocks": np.nonzero(over)[0].tolist(),
                "err_max": float(err.max()),
            }
    return CheckResult(
        name="factorization",
        passed=not failures,
        details={"failures": failures},
    )


def _check_differential(sweep, quick: bool, seed: int) -> CheckResult:
    failures = {}
    reports = {}
    kernels = ["lu", "lu_explicit", "gh", "ght", "gje", "scipy"]
    for name, (batch, well) in sweep.items():
        if not well:
            continue
        report = differential_solve(batch, _rhs(batch, seed + 29), kernels)
        reports[name] = report.to_dict()
        if report.failed_kernels or report.max_discrepancy() > _DIFF_TOL:
            failures[name] = report.to_dict()
    # Cholesky joins on SPD input only
    spd = random_batch(
        8 if quick else 24, (1, 8), kind="spd", seed=seed + 5
    )
    spd_report = differential_solve(
        spd, _rhs(spd, seed + 31), ["lu", "cholesky", "scipy"]
    )
    reports["spd"] = spd_report.to_dict()
    if spd_report.failed_kernels or spd_report.max_discrepancy() > _DIFF_TOL:
        failures["spd"] = spd_report.to_dict()
    return CheckResult(
        name="differential",
        passed=not failures,
        details={"failures": failures, "tol": _DIFF_TOL, "sweeps": reports},
    )


def _check_simt(quick: bool, seed: int) -> CheckResult:
    sizes = (1, 3, 8, 16) if quick else (1, 2, 3, 5, 8, 16, 24, 32)
    result = run_simt_checks(sizes=sizes, seed=seed)
    return CheckResult(
        name="simt", passed=result.passed, details=result.to_dict()
    )


def _check_apply_modes(sweep, seed: int) -> CheckResult:
    """Differential oracle: inverse apply vs triangular-solve apply.

    Both paths start from the *same* LU factors, so their solutions
    differ only by the conditioning-amplified rounding of the extra
    inverse formation + GEMV.  Per block, forward agreement is held to
    ``C m kappa(A) eps`` with the exact condition number; blocks whose
    bound is vacuous (> 0.5) are skipped and counted.
    """
    from ..core.explicit_inverse import inverse_apply, invert_factors

    failures = {}
    skipped = 0
    compared = 0
    for name, (batch, _) in sweep.items():
        fac = lu_factor(batch)
        if not fac.ok:
            failures[name] = {"error": "unexpected singular block"}
            continue
        rhs = _rhs(batch, seed + 41)
        x_factor = lu_solve(fac, rhs)
        x_inverse = inverse_apply(invert_factors(fac), rhs)
        m = batch.sizes.astype(np.float64)
        kappa = np.array(
            [
                np.linalg.cond(batch.block(i))
                for i in range(batch.nb)
            ]
        )
        bound = _BOUND_C * m * kappa * _eps(batch)
        scale = np.max(np.abs(x_factor.data), axis=1)
        scale[scale == 0.0] = 1.0
        diff = np.max(np.abs(x_inverse.data - x_factor.data), axis=1) / scale
        comparable = bound <= 0.5
        skipped += int(np.count_nonzero(~comparable))
        compared += int(np.count_nonzero(comparable))
        over = comparable & (diff > bound)
        if over.any():
            failures[name] = {
                "blocks": np.nonzero(over)[0].tolist(),
                "diff_max": float(diff[over].max()),
                "bound_min": float(bound[over].min()),
            }
    return CheckResult(
        name="apply_modes",
        passed=not failures,
        details={
            "failures": failures,
            "blocks_compared": compared,
            "blocks_skipped_ill_conditioned": skipped,
        },
    )


def _check_backends(sweep, seed: int) -> CheckResult:
    """Differential oracle over every registered runtime backend.

    Each registered backend factorizes and solves the well-conditioned
    batches of the sweep through the ``BatchRuntime`` executor and is
    held to ``_DIFF_TOL`` against the ``numpy`` reference (the same
    tolerance contract as the binned dispatch); ``info`` must match
    bitwise.  A backend registered without entering this sweep cannot
    happen: the list comes from the registry itself.
    """
    from ..runtime import BatchRuntime, available_backends

    failures = {}
    checked = {}
    for name, (batch, well) in sweep.items():
        if not well:
            continue
        rhs = _rhs(batch, seed + 43)
        try:
            ref_rt = BatchRuntime(backend="numpy")
            ref_fac = ref_rt.factorize(batch, method="lu")
            ref_sol = ref_fac.solve(rhs)
        except Exception as err:  # a broken core must fail the check,
            failures[name] = {"reference": repr(err)}  # not escape it
            continue
        scale = np.max(np.abs(ref_sol.data), axis=1)
        scale[scale == 0.0] = 1.0
        for backend in available_backends():
            if backend == "numpy":
                continue
            try:
                rt = BatchRuntime(backend=backend)
                fac = rt.factorize(batch, method="lu")
                sol = fac.solve(rhs)
            except Exception as err:
                failures.setdefault(name, {})[backend] = {
                    "error": repr(err)
                }
                continue
            diff = float(
                np.max(np.max(np.abs(sol.data - ref_sol.data), axis=1)
                       / scale)
            )
            checked[backend] = max(checked.get(backend, 0.0), diff)
            if diff > _DIFF_TOL or not np.array_equal(
                fac.info, ref_fac.info
            ):
                failures.setdefault(name, {})[backend] = {
                    "max_discrepancy": diff,
                    "info_matches": bool(
                        np.array_equal(fac.info, ref_fac.info)
                    ),
                }
    return CheckResult(
        name="backends",
        passed=not failures,
        details={
            "failures": failures,
            "tol": _DIFF_TOL,
            "max_discrepancy_per_backend": checked,
        },
    )


def _check_chaos(quick: bool, seed: int) -> CheckResult:
    """The seeded chaos sweep as a verification check.

    Fails on any silent-corruption escape, unhandled exception, or
    invisible fault - the acceptance bar of the resilience layer (see
    :mod:`repro.chaos.scenarios`).
    """
    from ..chaos import run_chaos_suite

    chaos = run_chaos_suite(seed=seed, quick=quick)
    return CheckResult(
        name="chaos", passed=chaos.passed, details=chaos.to_dict()
    )


def run_verification(
    quick: bool = False,
    seed: int = 0,
    chaos: bool = False,
    chaos_seed: int = 0,
) -> VerificationReport:
    """Run the full verification sweep; see the module docstring.

    ``chaos=True`` appends the deterministic fault-injection sweep
    (:func:`repro.chaos.scenarios.run_chaos_suite` with
    ``chaos_seed``) as an extra check.
    """
    sweep = _batch_matrix(quick, seed)
    report = VerificationReport(
        mode="quick" if quick else "full", seed=seed
    )
    report.checks.append(_check_growth(sweep, seed))
    report.checks.append(_check_pivot_equivalence(sweep))
    report.checks.append(_check_backward_error(sweep, seed))
    report.checks.append(_check_factorization(sweep, seed))
    report.checks.append(_check_differential(sweep, quick, seed))
    report.checks.append(_check_simt(quick, seed))
    report.checks.append(_check_apply_modes(sweep, seed))
    report.checks.append(_check_backends(sweep, seed))
    if chaos:
        report.checks.append(_check_chaos(quick, chaos_seed))
    return report
