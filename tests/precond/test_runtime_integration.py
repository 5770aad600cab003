"""Block-Jacobi setup/apply routed through the repro.runtime executor.

The contract: switching the preconditioner onto any runtime backend
must not change what it computes - only how (binned dispatch,
instrumentation).  The monolithic ``numpy`` backend - the paper's
kernels as written - stays the reference ("legacy" below).
"""

import numpy as np
import pytest

from repro.precond import BlockJacobiPreconditioner
from repro.runtime import BatchRuntime, available_backends
from repro.sparse import CsrMatrix, fem_block_2d

METHODS = ("lu", "gh", "ght", "gje", "cholesky")


@pytest.fixture(scope="module")
def fem():
    return fem_block_2d(8, 8, 4, seed=0)


def _singular_matrix():
    # block [0,0;0,0] at bound 2 makes the first diagonal block singular
    D = np.eye(8)
    D[0, 0] = D[1, 1] = 0.0
    D[0, 1] = D[1, 0] = 0.0
    D[2:, 2:] += np.diag(np.arange(6) + 1.0)
    return CsrMatrix.from_dense(D)


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", sorted(available_backends()))
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.filterwarnings("ignore:cholesky block-Jacobi")
    def test_apply_matches_legacy_path(self, fem, backend, method):
        from repro.runtime.backends import BACKENDS

        if method not in BACKENDS[backend].supported_methods:
            pytest.skip(f"{backend} backend does not support {method}")
        legacy = BlockJacobiPreconditioner(
            method, 16, backend="numpy"
        ).setup(fem)
        routed = BlockJacobiPreconditioner(
            method, 16, backend=backend
        ).setup(fem)
        x = np.linspace(-1, 1, fem.n_rows)
        np.testing.assert_allclose(
            routed.apply(x), legacy.apply(x), rtol=1e-12, atol=1e-14
        )

    def test_runtime_report_recorded(self, fem):
        M = BlockJacobiPreconditioner("lu", 16, backend="binned").setup(fem)
        rt = M.runtime_report
        assert rt is not None
        assert rt.backend == "binned"
        assert rt.nb == M.block_sizes.size
        assert M.report.runtime is rt
        assert "runtime[binned]" in M.report.summary()

    def test_default_runs_the_binned_runtime(self, fem):
        M = BlockJacobiPreconditioner("lu", 16).setup(fem)
        assert M.runtime_report.backend == "binned"
        assert M.report.runtime is M.runtime_report
        binned = BlockJacobiPreconditioner(
            "lu", 16, backend="binned"
        ).setup(fem)
        x = np.linspace(-1, 1, fem.n_rows)
        np.testing.assert_array_equal(M.apply(x), binned.apply(x))

    def test_conflicting_runtime_and_backend_rejected(self):
        rt = BatchRuntime(backend="numpy")
        with pytest.raises(ValueError, match="backend"):
            BlockJacobiPreconditioner("lu", 16, runtime=rt,
                                      backend="binned")

    def test_matching_runtime_and_backend_accepted(self, fem):
        rt = BatchRuntime(backend="binned")
        M = BlockJacobiPreconditioner(
            "lu", 16, runtime=rt, backend="binned"
        ).setup(fem)
        assert M.runtime_report is rt.last_report


class TestRuntimeDegradation:
    @pytest.mark.parametrize("backend", ["binned", "numpy"])
    def test_identity_policy_matches_legacy(self, backend):
        A = _singular_matrix()
        legacy = BlockJacobiPreconditioner(
            "lu", 2, on_singular="identity", backend="numpy"
        ).setup(A)
        routed = BlockJacobiPreconditioner(
            "lu", 2, on_singular="identity", backend=backend
        ).setup(A)
        np.testing.assert_array_equal(
            routed.report.action, legacy.report.action
        )
        assert routed.report.n_identity == legacy.report.n_identity > 0
        x = np.ones(A.n_rows)
        np.testing.assert_allclose(routed.apply(x), legacy.apply(x))

    def test_raise_policy_still_raises(self):
        # the preconditioner converts the kernel's SingularBlockError
        # into its documented ValueError, runtime path included
        with pytest.raises(ValueError, match="singular"):
            BlockJacobiPreconditioner(
                "lu", 2, on_singular="raise", backend="binned"
            ).setup(_singular_matrix())

    def test_cholesky_fallback_through_runtime(self):
        # indefinite but nonsingular diagonal blocks: cholesky must warn
        # and fall back to LU, exactly like the legacy path
        D = np.diag(np.r_[-np.ones(4), np.ones(4)])
        D += 0.01 * np.eye(8)
        A = CsrMatrix.from_dense(D)
        with pytest.warns(UserWarning, match="not SPD"):
            routed = BlockJacobiPreconditioner(
                "cholesky", 4, backend="binned"
            ).setup(A)
        assert routed.report.cholesky_lu_fallback
        assert routed.report.effective_method == "lu"
        with pytest.warns(UserWarning, match="not SPD"):
            legacy = BlockJacobiPreconditioner(
                "cholesky", 4, backend="numpy"
            ).setup(A)
        x = np.linspace(1, 2, A.n_rows)
        np.testing.assert_allclose(routed.apply(x), legacy.apply(x))


class TestSetupResilience:
    def test_fallback_events_surface_on_setup_report(self, fem):
        from repro.chaos import ChaosBackend, RaiseInjector
        from repro.runtime.backends import get_backend

        chaos = ChaosBackend(
            get_backend("binned"), [RaiseInjector("factorize", 1.0)],
            seed=0,
        )
        rt = BatchRuntime(backend=chaos, fallback=("numpy",))
        M = BlockJacobiPreconditioner(
            method="lu", max_block_size=8, runtime=rt
        ).setup(fem)
        rep = M.report
        assert rep.degraded_execution
        assert rep.resilience_events
        assert "resilience" in rep.summary()
        # the preconditioner still works: apply is finite
        y = M.apply(np.ones(fem.n_rows))
        assert np.isfinite(y).all()

    def test_fault_free_setup_reports_clean(self, fem):
        rt = BatchRuntime(backend="binned", fallback=("numpy",))
        M = BlockJacobiPreconditioner(
            method="lu", max_block_size=8, runtime=rt
        ).setup(fem)
        rep = M.report
        assert not rep.degraded_execution
        assert rep.resilience_events == []
        assert rep.quarantined_bins == []
        assert "resilience" not in rep.summary()

    def test_rebuild_refactorizes(self, fem):
        rt = BatchRuntime(backend="binned")
        M = BlockJacobiPreconditioner(
            method="lu", max_block_size=8, runtime=rt
        ).setup(fem)
        before = M.apply(np.ones(fem.n_rows))
        first = M.runtime_report
        out = M.rebuild()
        assert out is M
        np.testing.assert_allclose(
            M.apply(np.ones(fem.n_rows)), before
        )
        # the setup ran again: a fresh factorization, a fresh report
        assert M.runtime_report is rt.last_report is not first

    def test_rebuild_before_setup_rejected(self):
        M = BlockJacobiPreconditioner(method="lu", max_block_size=8)
        with pytest.raises(RuntimeError, match="setup"):
            M.rebuild()
