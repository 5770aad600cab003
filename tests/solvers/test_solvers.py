"""Tests for the Krylov solvers (repro.solvers)."""

import numpy as np
import pytest

from repro.precond import BlockJacobiPreconditioner, ScalarJacobiPreconditioner
from repro.solvers import bicgstab, cg, gmres, idrs, stationary_richardson
from repro.solvers import idr as idr_module
from repro.solvers.idr import _forward_solve
from repro.sparse import (
    convection_diffusion_2d,
    fem_block_2d,
    laplacian_2d,
)

SOLVERS_NONSYM = [idrs, bicgstab, gmres]


@pytest.fixture(scope="module")
def nonsym():
    return convection_diffusion_2d(20, 20, peclet=30.0)


@pytest.fixture(scope="module")
def spd():
    return laplacian_2d(20, 20)


class TestIDR:
    def test_converges_and_solves(self, nonsym):
        b = np.ones(nonsym.n_rows)
        r = idrs(nonsym, b, s=4)
        assert r.converged
        true = np.linalg.norm(nonsym.matvec(r.x) - b) / np.linalg.norm(b)
        assert true < 1e-5

    def test_counts_matvecs(self, nonsym):
        b = np.ones(nonsym.n_rows)
        calls = 0
        orig = nonsym.matvec

        class Counting:
            n_rows = nonsym.n_rows
            n_cols = nonsym.n_cols

        def counted(v):
            nonlocal calls
            calls += 1
            return orig(v)

        r = idrs(nonsym.to_dense(), b, s=4)  # dense path exercises as_operator
        assert r.iterations > 0

    @pytest.mark.parametrize("s", [1, 2, 4, 8])
    def test_shadow_dimension(self, nonsym, s):
        b = np.ones(nonsym.n_rows)
        r = idrs(nonsym, b, s=s)
        assert r.converged

    def test_preconditioning_reduces_iterations(self, nonsym):
        b = np.ones(nonsym.n_rows)
        r0 = idrs(nonsym, b, s=4)
        M = ScalarJacobiPreconditioner().setup(nonsym)
        r1 = idrs(nonsym, b, s=4, M=M)
        assert r1.converged
        # diagonal scaling cannot be dramatically worse here
        assert r1.iterations <= 2 * r0.iterations

    def test_maxiter_respected(self, nonsym):
        b = np.ones(nonsym.n_rows)
        r = idrs(nonsym, b, s=4, maxiter=5)
        assert r.iterations <= 5
        assert not r.converged

    def test_zero_rhs(self, nonsym):
        r = idrs(nonsym, np.zeros(nonsym.n_rows), s=4)
        assert r.converged
        assert np.linalg.norm(r.x) < 1e-12

    def test_x0_honoured(self, nonsym):
        b = np.ones(nonsym.n_rows)
        x_ref = idrs(nonsym, b, s=4).x
        r = idrs(nonsym, b, s=4, x0=x_ref)
        assert r.iterations <= 1

    def test_history_recorded(self, nonsym):
        b = np.ones(nonsym.n_rows)
        r = idrs(nonsym, b, s=4, record_history=True)
        assert len(r.history) >= r.iterations / 2
        assert r.history[-1] <= r.history[0]

    def test_deterministic_seed(self, nonsym):
        b = np.ones(nonsym.n_rows)
        r1 = idrs(nonsym, b, s=4, seed=5)
        r2 = idrs(nonsym, b, s=4, seed=5)
        assert r1.iterations == r2.iterations
        np.testing.assert_array_equal(r1.x, r2.x)

    def test_invalid_inputs(self, nonsym):
        with pytest.raises(ValueError):
            idrs(nonsym, np.ones(3))
        with pytest.raises(ValueError):
            idrs(nonsym, np.ones(nonsym.n_rows), s=0)


class TestBicgstabGmres:
    @pytest.mark.parametrize("solver", [bicgstab, gmres])
    def test_converges(self, nonsym, solver):
        b = np.ones(nonsym.n_rows)
        r = solver(nonsym, b)
        assert r.converged
        true = np.linalg.norm(nonsym.matvec(r.x) - b) / np.linalg.norm(b)
        assert true < 1e-5

    def test_gmres_restart_effect(self, nonsym):
        b = np.ones(nonsym.n_rows)
        r_small = gmres(nonsym, b, restart=5)
        r_big = gmres(nonsym, b, restart=60)
        assert r_big.converged
        assert r_big.iterations <= r_small.iterations or not r_small.converged

    def test_gmres_invalid_restart(self, nonsym):
        with pytest.raises(ValueError):
            gmres(nonsym, np.ones(nonsym.n_rows), restart=0)

    def test_bicgstab_with_block_jacobi(self):
        A = fem_block_2d(10, 10, 4, seed=3)
        b = np.ones(A.n_rows)
        M = BlockJacobiPreconditioner("lu", 16).setup(A)
        r0 = bicgstab(A, b)
        r1 = bicgstab(A, b, M=M)
        assert r1.converged
        assert r1.iterations < r0.iterations


class TestCG:
    def test_spd_convergence(self, spd):
        b = np.ones(spd.n_rows)
        r = cg(spd, b)
        assert r.converged
        true = np.linalg.norm(spd.matvec(r.x) - b) / np.linalg.norm(b)
        assert true < 1e-5

    def test_block_jacobi_not_harmful_on_laplacian(self, spd):
        # the Laplacian has a constant diagonal, so Jacobi-type
        # preconditioning barely changes the spectrum; block-Jacobi must
        # still converge and stay within noise of the baseline
        b = np.ones(spd.n_rows)
        M = BlockJacobiPreconditioner("cholesky", 16).setup(spd)
        r0 = cg(spd, b)
        r1 = cg(spd, b, M=M)
        assert r1.converged
        assert r1.iterations <= 1.2 * r0.iterations

    def test_block_jacobi_helps_on_block_spd(self):
        # SPD matrix with strong 4x4 node coupling: L (x) I + I (x) B
        rng = np.random.default_rng(4)
        L = laplacian_2d(12, 12).to_dense()
        B4 = rng.standard_normal((4, 4))
        B4 = B4 @ B4.T + 0.5 * np.eye(4)
        A = np.kron(L, np.eye(4)) + np.kron(np.eye(L.shape[0]), 10 * B4)
        from repro.sparse import CsrMatrix

        Acsr = CsrMatrix.from_dense(A)
        b = np.ones(Acsr.n_rows)
        Ms = ScalarJacobiPreconditioner().setup(Acsr)
        Mb = BlockJacobiPreconditioner("cholesky", 4).setup(Acsr)
        rs = cg(Acsr, b, M=Ms)
        rb = cg(Acsr, b, M=Mb)
        assert rb.converged
        assert rb.iterations < rs.iterations


class TestSolveResult:
    def test_total_seconds(self, nonsym):
        b = np.ones(nonsym.n_rows)
        M = ScalarJacobiPreconditioner().setup(nonsym)
        r = idrs(nonsym, b, s=4, M=M)
        assert r.total_seconds == pytest.approx(
            r.setup_seconds + r.solve_seconds
        )
        assert r.relative_residual <= 1e-6

    def test_repr(self, nonsym):
        r = idrs(nonsym, np.ones(nonsym.n_rows), s=2, maxiter=3)
        assert "NOT converged" in repr(r)


class TestBreakdownHardening:
    """NaN/Inf and rank-deficiency guards added to every solver."""

    NAN_A = np.array(
        [
            [np.nan, 1.0, 0.0, 0.0],
            [1.0, 2.0, 1.0, 0.0],
            [0.0, 1.0, 2.0, 1.0],
            [0.0, 0.0, 1.0, 2.0],
        ]
    )
    ALL = [idrs, bicgstab, gmres, cg, stationary_richardson]

    @pytest.mark.parametrize("solver", ALL)
    def test_nan_operator_stops_cleanly(self, solver):
        r = solver(self.NAN_A, np.ones(4), maxiter=50)
        assert not r.converged
        assert r.breakdown is not None
        # detected within a handful of matvecs (IDR burns one per
        # re-seeded restart before concluding the operator is broken)
        assert r.iterations <= 10

    @pytest.mark.parametrize("solver", ALL)
    def test_healthy_solve_reports_no_breakdown(self, nonsym, solver):
        b = np.ones(nonsym.n_rows)
        M = ScalarJacobiPreconditioner().setup(nonsym)
        r = solver(nonsym, b, M=M, tol=1e-6)
        assert r.breakdown is None

    def test_cg_indefinite_operator(self):
        A = np.diag([1.0, -1.0])
        r = cg(A, np.ones(2))
        assert not r.converged
        assert r.breakdown == "indefinite_operator"

    def test_stationary_divergence_is_nonfinite_residual(self):
        A = np.array([[1.0, 3.0], [3.0, 1.0]])  # Jacobi radius 3
        r = stationary_richardson(A, np.ones(2), maxiter=1000,
                                  record_history=True)
        assert not r.converged
        assert r.breakdown == "nonfinite_residual"
        assert r.iterations < 1000  # stopped at overflow, not the cap
        assert all(np.isfinite(h) for h in r.history[:-1])

    def test_gmres_overflow_hessenberg(self):
        A = np.full((2, 2), 1e308)
        r = gmres(A, np.ones(2), maxiter=20)
        assert not r.converged
        assert r.breakdown is not None
        assert np.isfinite(r.x).all() or r.breakdown

    def test_idr_shadow_space_breakdown_after_restarts(self):
        A = np.zeros((6, 6))  # G = A U is always 0 -> Ms[k, k] == 0
        r = idrs(A, np.ones(6), s=2, maxiter=100, max_restarts=3,
                 record_history=True)
        assert not r.converged
        assert r.breakdown == "shadow_space_breakdown"
        # one matvec per attempted cycle: initial + 3 restarts
        assert r.iterations == 4
        # satellite fix: history stays in sync on the breakdown path
        assert len(r.history) == r.iterations + 1
        assert all(np.isfinite(h) for h in r.history)

    def test_idr_restart_counts_capped_at_zero(self):
        A = np.zeros((4, 4))
        r = idrs(A, np.ones(4), s=2, max_restarts=0)
        assert r.breakdown == "shadow_space_breakdown"
        assert r.iterations == 1

    def test_idr_history_in_sync_on_healthy_run(self, nonsym):
        b = np.ones(nonsym.n_rows)
        r = idrs(nonsym, b, s=4, record_history=True)
        assert len(r.history) == r.iterations + 1

    def test_breakdown_in_repr(self):
        r = cg(np.diag([1.0, -1.0]), np.ones(2))
        assert "indefinite_operator" in repr(r)

    def test_idr_caps_shadow_dimension_at_n(self):
        A = np.diag([2.0, 3.0])
        r = idrs(A, np.ones(2), s=4)  # s > n must not crash
        assert r.converged

    def test_bicgstab_nan_history_in_sync(self):
        r = bicgstab(self.NAN_A, np.ones(4), maxiter=10,
                     record_history=True)
        assert r.breakdown is not None
        assert all(np.isfinite(h) for h in r.history[:-1])


class _SingularEyeNumpy:
    """NumPy as ``repro.solvers.idr`` sees it, except that the first
    ``poisoned`` identities built for ``Ms`` get an exact zero as their
    last diagonal entry, so the next triangular solve on ``Ms[k:, k:]``
    meets a zero diagonal below ``k``.  ``eyes`` counts the identities
    built: one at the start plus one per shadow-space restart."""

    def __init__(self, poisoned):
        self.poisoned = poisoned
        self.eyes = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def eye(self, n):
        self.eyes += 1
        out = np.eye(n)
        if self.eyes <= self.poisoned:
            out[-1, -1] = 0.0
        return out


class TestIDRTriangularSolve:
    """The per-step solve with the lower-triangular ``Ms`` is a forward
    substitution; a zero or non-finite diagonal entry is a shadow-space
    breakdown, answered by a re-seeded restart."""

    def test_forward_solve_matches_lapack(self):
        rng = np.random.default_rng(3)
        for s in range(1, 9):
            L = np.tril(rng.standard_normal((s, s))) + 3.0 * np.eye(s)
            f = rng.standard_normal(s)
            np.testing.assert_allclose(
                _forward_solve(L, f), np.linalg.solve(L, f), rtol=1e-13
            )

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    @pytest.mark.parametrize("j", [0, 2, 3])
    def test_forward_solve_flags_a_bad_diagonal(self, bad, j):
        L = np.tril(np.ones((4, 4))) + np.eye(4)
        L[j, j] = bad
        assert _forward_solve(L, np.ones(4)) is None

    def test_zero_diagonal_below_k_restarts_once(self, nonsym, monkeypatch):
        b = np.ones(nonsym.n_rows)
        shim = _SingularEyeNumpy(poisoned=1)
        monkeypatch.setattr(idr_module, "np", shim)
        r = idrs(nonsym, b, s=4, record_history=True)
        # the step k = 0 meets Ms[3, 3] == 0 before its matvec: one
        # restart with a fresh shadow space, then a clean solve
        assert shim.eyes == 2
        assert r.converged and r.breakdown is None
        assert len(r.history) == r.iterations + 1

    def test_zero_diagonal_every_cycle_gives_up(self, nonsym, monkeypatch):
        b = np.ones(nonsym.n_rows)
        shim = _SingularEyeNumpy(poisoned=10**9)
        monkeypatch.setattr(idr_module, "np", shim)
        r = idrs(nonsym, b, s=4, max_restarts=3, record_history=True)
        assert shim.eyes == 4  # the first Ms and 3 restarts
        assert not r.converged
        assert r.breakdown == "shadow_space_breakdown"
        assert r.iterations == 0 and len(r.history) == 1
