"""Tests for the preconditioners (repro.precond)."""

import contextlib

import numpy as np
import pytest

from repro.precond import (
    BlockJacobiPreconditioner,
    IdentityPreconditioner,
    ScalarJacobiPreconditioner,
)
from repro.sparse import CsrMatrix, circuit_like, fem_block_2d, laplacian_2d

METHODS = ("lu", "gh", "ght", "gje")


@pytest.fixture(scope="module")
def fem():
    return fem_block_2d(8, 8, 4, seed=0)


class TestIdentity:
    def test_apply_is_copy(self, fem):
        M = IdentityPreconditioner().setup(fem)
        x = np.arange(float(fem.n_rows))
        y = M.apply(x)
        np.testing.assert_array_equal(y, x)
        assert y is not x


class TestScalarJacobi:
    def test_apply_divides_by_diagonal(self, fem):
        M = ScalarJacobiPreconditioner().setup(fem)
        x = np.ones(fem.n_rows)
        np.testing.assert_allclose(M.apply(x), 1.0 / fem.diagonal())

    def test_zero_diagonal_left_unscaled(self):
        D = np.array([[0.0, 1.0], [1.0, 2.0]])
        M = ScalarJacobiPreconditioner().setup(CsrMatrix.from_dense(D))
        np.testing.assert_array_equal(M.apply(np.ones(2)), [1.0, 0.5])

    def test_apply_before_setup(self):
        with pytest.raises(RuntimeError):
            ScalarJacobiPreconditioner().apply(np.ones(3))

    def test_shape_check(self, fem):
        M = ScalarJacobiPreconditioner().setup(fem)
        with pytest.raises(ValueError):
            M.apply(np.ones(fem.n_rows + 1))


class TestBlockJacobi:
    @pytest.mark.parametrize("method", METHODS)
    def test_apply_equals_dense_block_solve(self, fem, method):
        M = BlockJacobiPreconditioner(method=method, max_block_size=16)
        M.setup(fem)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(fem.n_rows)
        y = M.apply(x)
        starts = np.concatenate([[0], np.cumsum(M.block_sizes)])
        for b in range(0, M.block_sizes.size, 3):
            s, m = int(starts[b]), int(M.block_sizes[b])
            blk = fem.extract_block(s, m)
            ref = np.linalg.solve(blk, x[s : s + m])
            np.testing.assert_allclose(y[s : s + m], ref, rtol=1e-8,
                                       atol=1e-10)

    @pytest.mark.parametrize("method", METHODS)
    def test_methods_agree(self, fem, method):
        base = BlockJacobiPreconditioner("lu", 16).setup(fem)
        other = BlockJacobiPreconditioner(method, 16).setup(fem)
        x = np.linspace(-1, 1, fem.n_rows)
        np.testing.assert_allclose(
            other.apply(x), base.apply(x), rtol=1e-8, atol=1e-10
        )

    def test_explicit_block_sizes(self, fem):
        sizes = np.full(fem.n_rows // 4, 4)
        M = BlockJacobiPreconditioner("lu", block_sizes=sizes).setup(fem)
        np.testing.assert_array_equal(M.block_sizes, sizes)

    def test_explicit_block_sizes_must_cover(self, fem):
        with pytest.raises(ValueError, match="cover"):
            BlockJacobiPreconditioner(
                "lu", block_sizes=np.array([4, 4])
            ).setup(fem)

    def test_bound_respected(self, fem):
        for bound in (8, 12, 16, 24, 32):
            M = BlockJacobiPreconditioner("lu", bound).setup(fem)
            assert M.block_sizes.max() <= bound

    def test_scalar_limit_matches_scalar_jacobi(self, fem):
        Mb = BlockJacobiPreconditioner("lu", 1).setup(fem)
        Ms = ScalarJacobiPreconditioner().setup(fem)
        x = np.ones(fem.n_rows)
        np.testing.assert_allclose(Mb.apply(x), Ms.apply(x), rtol=1e-12)

    def test_singular_block_raises(self):
        D = np.eye(4)
        D[2, 2] = 0.0
        A = CsrMatrix.from_dense(D)
        with pytest.raises(ValueError, match="singular"):
            BlockJacobiPreconditioner(
                "lu", block_sizes=np.array([2, 2])
            ).setup(A)

    def test_cholesky_falls_back_to_lu_on_nonspd(self, fem):
        # the documented contract: non-SPD blocks trigger a warning and
        # a whole-batch LU refactorization, never an exception
        with pytest.warns(UserWarning, match="falling back to batched LU"):
            M = BlockJacobiPreconditioner("cholesky", 16).setup(fem)
        assert M.report.cholesky_lu_fallback
        assert M.report.effective_method == "lu"
        assert M.report.n_nonspd > 0
        x = np.ones(fem.n_rows)
        y_lu = BlockJacobiPreconditioner("lu", 16).setup(fem).apply(x)
        np.testing.assert_allclose(M.apply(x), y_lu, rtol=1e-12)

    def test_cholesky_on_spd(self):
        A = laplacian_2d(10, 10)
        M = BlockJacobiPreconditioner("cholesky", 8).setup(A)
        x = np.ones(100)
        y_lu = BlockJacobiPreconditioner("lu", 8).setup(A).apply(x)
        np.testing.assert_allclose(M.apply(x), y_lu, rtol=1e-10)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            BlockJacobiPreconditioner(method="qr")

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            BlockJacobiPreconditioner(max_block_size=0)
        with pytest.raises(ValueError):
            BlockJacobiPreconditioner(max_block_size=64)

    def test_apply_before_setup(self):
        with pytest.raises(RuntimeError):
            BlockJacobiPreconditioner().apply(np.ones(4))

    def test_nonsquare_rejected(self):
        A = CsrMatrix(2, 3, [0, 1, 2], [0, 1], [1.0, 1.0])
        with pytest.raises(ValueError, match="square"):
            BlockJacobiPreconditioner().setup(A)

    def test_setup_seconds_recorded(self, fem):
        M = BlockJacobiPreconditioner("lu", 16).setup(fem)
        assert M.setup_seconds > 0

    def test_fp32_blocks(self, fem):
        M = BlockJacobiPreconditioner("lu", 16, dtype=np.float32).setup(fem)
        y64 = BlockJacobiPreconditioner("lu", 16).setup(fem).apply(
            np.ones(fem.n_rows)
        )
        y32 = M.apply(np.ones(fem.n_rows))
        assert np.abs(y32 - y64).max() < 1e-3
        assert y32.dtype == np.float64  # result promoted for the solver

    def test_circuit_matrix_blocks(self):
        A = circuit_like(800, seed=2, hub_degree=100)
        M = BlockJacobiPreconditioner("lu", 32).setup(A)
        y = M.apply(np.ones(800))
        assert np.isfinite(y).all()

    def test_apply_bad_shape_message_names_length(self, fem):
        M = BlockJacobiPreconditioner("lu", 16).setup(fem)
        with pytest.raises(
            ValueError, match=f"vector of length {fem.n_rows + 1}"
        ):
            M.apply(np.ones(fem.n_rows + 1))
        # 2-D input reports the full shape, not a stray tuple element
        with pytest.raises(ValueError, match=r"shape \(2, 3\)"):
            M.apply(np.ones((2, 3)))


def singular_block_matrix(n=12, bad_block=1, bs=4, seed=5):
    """Dense-backed CSR whose diagonal block ``bad_block`` is singular."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) * 0.1 + 4.0 * np.eye(n)
    s = bad_block * bs
    A[s + 2, s : s + bs] = 0.0  # zero row inside the diagonal block
    return CsrMatrix.from_dense(A), np.full(n // bs, bs)


class TestDegradationPolicies:
    ALL_METHODS = METHODS + ("cholesky",)

    def setup_precond(self, method, policy):
        A, sizes = singular_block_matrix()
        M = BlockJacobiPreconditioner(
            method, block_sizes=sizes, on_singular=policy
        )
        if method == "cholesky":
            # non-symmetric blocks: the documented LU fallback fires
            with pytest.warns(UserWarning, match="falling back"):
                M.setup(A)
        else:
            M.setup(A)
        return A, M

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_raise_policy_preserves_error(self, method):
        A, sizes = singular_block_matrix()
        M = BlockJacobiPreconditioner(
            method, block_sizes=sizes, on_singular="raise"
        )
        ctx = (
            pytest.warns(UserWarning, match="falling back")
            if method == "cholesky"
            else contextlib.nullcontext()
        )
        with ctx, pytest.raises(ValueError, match="singular"):
            M.setup(A)

    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("policy", ["identity", "scalar", "shift"])
    def test_policies_give_finite_apply(self, method, policy):
        A, M = self.setup_precond(method, policy)
        y = M.apply(np.ones(A.n_rows))
        assert np.isfinite(y).all()
        assert M.report.n_singular == 1
        assert M.report.n_fallbacks >= 1
        assert not M.report.clean
        # healthy blocks still solve exactly
        blk = A.extract_block(8, 4)
        ref = np.linalg.solve(blk, np.ones(4))
        np.testing.assert_allclose(y[8:12], ref, rtol=1e-6, atol=1e-8)

    def test_identity_policy_passes_bad_block_through(self):
        A, M = self.setup_precond("lu", "identity")
        x = np.arange(float(A.n_rows))
        y = M.apply(x)
        np.testing.assert_allclose(y[4:8], x[4:8])  # identity on block 1
        assert M.report.n_identity == 1

    def test_shift_policy_records_sigma(self):
        _, M = self.setup_precond("lu", "shift")
        assert M.report.n_shift + M.report.n_identity == 1
        if M.report.n_shift:
            assert M.report.shift[1] > 0

    def test_bad_policy_name_rejected(self):
        with pytest.raises(ValueError, match="on_singular"):
            BlockJacobiPreconditioner("lu", 16, on_singular="panic")

    def test_info_keeps_original_status(self):
        _, M = self.setup_precond("lu", "identity")
        assert np.count_nonzero(M.info) == 1
        assert M.info[1] > 0


class TestSetupReport:
    def test_clean_setup_report(self, fem):
        M = BlockJacobiPreconditioner("lu", 16).setup(fem)
        r = M.report
        assert r.clean
        assert r.n_blocks == M.block_sizes.size
        assert r.n_singular == 0 and r.n_fallbacks == 0
        assert r.effective_method == "lu"
        assert np.isfinite(r.max_condition)
        assert "all blocks factorized" in r.summary()

    def test_condition_estimates_match_dense(self, fem):
        M = BlockJacobiPreconditioner("lu", 16).setup(fem)
        starts = np.concatenate([[0], np.cumsum(M.block_sizes)])
        for b in (0, 3, 7):
            s, m = int(starts[b]), int(M.block_sizes[b])
            blk = fem.extract_block(s, m)
            ref = np.linalg.norm(blk, 1) * np.linalg.norm(
                np.linalg.inv(blk), 1
            )
            np.testing.assert_allclose(
                M.report.condition_estimates[b], ref, rtol=1e-10
            )

    def test_substituted_blocks_report_nan_condition(self):
        A, sizes = singular_block_matrix()
        M = BlockJacobiPreconditioner(
            "lu", block_sizes=sizes, on_singular="identity"
        ).setup(A)
        cond = M.report.condition_estimates
        assert np.isnan(cond[1])
        assert np.isfinite(cond[[0, 2]]).all()

    def test_estimation_can_be_disabled(self, fem):
        M = BlockJacobiPreconditioner(
            "lu", 16, estimate_condition=False
        ).setup(fem)
        assert M.report.condition_estimates is None
        assert np.isnan(M.report.max_condition)

    def test_setup_runs_no_solves(self, fem):
        M = BlockJacobiPreconditioner("lu", 16).setup(fem)
        assert M.runtime_report.solves == 0

    def test_first_read_solves_once_then_caches(self, fem):
        M = BlockJacobiPreconditioner("lu", 16).setup(fem)
        first = M.report.condition_estimates
        solves = M.runtime_report.solves
        assert solves > 0  # one per unit vector of the tile
        assert M.report.condition_estimates is first
        assert M.report.max_condition == np.nanmax(first)
        M.report.to_dict()
        M.report.summary()
        assert M.runtime_report.solves == solves

    @pytest.mark.parametrize("apply_mode", ["factor", "inverse"])
    def test_estimate_does_not_depend_on_when_it_is_read(
        self, fem, apply_mode
    ):
        """Read after the preconditioner has been applied, the estimate
        is bitwise the one read straight after setup."""
        now = BlockJacobiPreconditioner(
            "lu", 16, apply_mode=apply_mode
        ).setup(fem)
        expected = now.report.condition_estimates.copy()
        later = BlockJacobiPreconditioner(
            "lu", 16, apply_mode=apply_mode
        ).setup(fem)
        rng = np.random.default_rng(0)
        for _ in range(3):
            later.apply(rng.standard_normal(fem.n_rows))
        got = later.report.condition_estimates
        assert got.tobytes() == expected.tobytes()

    def test_each_setup_binds_its_own_factor(self, fem):
        """A report read after a later setup (or a rebuild) still
        answers for the factor its own setup produced."""
        scaled = fem.with_scaled_rows(np.linspace(1.0, 3.0, fem.n_rows))
        ref_fem = BlockJacobiPreconditioner("lu", 16).setup(fem).report
        ref_scaled = BlockJacobiPreconditioner("lu", 16).setup(scaled).report
        M = BlockJacobiPreconditioner("lu", 16).setup(fem)
        first = M.report
        M.setup(scaled)
        assert M.report is not first
        np.testing.assert_array_equal(
            first.condition_estimates, ref_fem.condition_estimates
        )
        np.testing.assert_array_equal(
            M.report.condition_estimates, ref_scaled.condition_estimates
        )
        before = M.report
        M.rebuild()
        assert M.report is not before
        assert M.runtime_report.solves == 0
        np.testing.assert_array_equal(
            M.report.condition_estimates, before.condition_estimates
        )
        assert M.runtime_report.solves > 0

    def test_summary_mentions_degradation(self):
        A, sizes = singular_block_matrix()
        M = BlockJacobiPreconditioner(
            "lu", block_sizes=sizes, on_singular="identity"
        ).setup(A)
        s = M.report.summary()
        assert "identity" in s
        assert "1 singular" in s


class TestBlockSizeValidation:
    def test_zero_size_rejected(self, fem):
        with pytest.raises(ValueError, match="positive"):
            BlockJacobiPreconditioner(
                "lu", block_sizes=np.array([0, 128, 128])
            ).setup(fem)

    def test_negative_size_rejected(self, fem):
        with pytest.raises(ValueError, match="positive"):
            BlockJacobiPreconditioner(
                "lu", block_sizes=np.array([-4, 130, 130])
            ).setup(fem)

    def test_oversized_block_rejected(self, fem):
        with pytest.raises(ValueError, match="exceed"):
            BlockJacobiPreconditioner(
                "lu", block_sizes=np.array([40, 108, 108])
            ).setup(fem)

    def test_non_integer_rejected(self, fem):
        with pytest.raises(ValueError, match="integer"):
            BlockJacobiPreconditioner(
                "lu", block_sizes=np.array([4.5, 4.5])
            ).setup(fem)

    def test_wrong_sum_message_names_totals(self, fem):
        with pytest.raises(ValueError, match="cover"):
            BlockJacobiPreconditioner(
                "lu", block_sizes=np.array([4, 4])
            ).setup(fem)
