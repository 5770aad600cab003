"""Backend-conformance harness: one contract, every registered backend.

Every backend in the registry must satisfy the same behavioural
contract - factorize/solve round-trip against the ``numpy`` reference,
source-ordered ``info`` merging, singular-block degradation identical
to the raw kernels, and a visible ``supports_invert`` demotion - so
backend-specific tests are not written per backend: they are rows in
:data:`CONTRACT` and the whole suite is parameterized over the
registry.

The coverage guard (:class:`TestContractCoverage`) closes the loop:
registering a new backend without declaring its contract row fails the
suite, which is how this harness gates future backends.

Run standalone with ``pytest -m conformance``.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import BatchedMatrices, BatchedVectors
from repro.core.batched_lu import lu_factor
from repro.core.degradation import SingularBlockError
from repro.core.random_batches import random_batch, random_rhs
from repro.runtime import BatchRuntime, get_backend, plan_batch
from repro.runtime.backends import BACKENDS, METHODS
from repro.verify.adversarial import (
    graded_batch,
    mixed_size_batch,
    pivot_tie_batch,
)
from repro.verify.metrics import solution_distance

from tests.strategies import make_batch, make_rhs

pytestmark = pytest.mark.conformance

SEED = 13


@dataclass(frozen=True)
class BackendContract:
    """What a backend promises, as checked by this harness.

    ``methods``: factorization methods it must execute (everything else
    must raise ``ValueError``).  ``exact_methods``: methods whose
    solutions are bitwise-identical to the ``numpy`` reference;
    remaining methods must agree within ``tol`` (componentwise relative
    solution distance).  ``invert``: whether ``apply_mode="inverse"``
    runs natively (False demotes to the factor path with a recorded
    ``backend_no_invert`` event).  ``subbatch_bitwise``: whether a
    block's ``info`` and solution are bit-identical whether it is
    solved in a sub-batch or inside a larger batch, for every method
    in both apply modes - the scatter-back invariant coalesced serving
    relies on.
    """

    methods: tuple
    exact_methods: tuple
    tol: float
    invert: bool
    subbatch_bitwise: bool


#: the conformance contract, one row per registered backend.  A new
#: backend MUST add its row here - TestContractCoverage fails otherwise.
CONTRACT = {
    "numpy": BackendContract(
        methods=METHODS,
        exact_methods=METHODS,
        tol=0.0,
        invert=True,
        # the monolithic GEMV reduces over the source tile, which
        # follows the batch's largest block
        subbatch_bitwise=False,
    ),
    "binned": BackendContract(
        methods=METHODS,
        # the AoS Cholesky is elementwise -> bitwise; LAPACK getrf
        # orders its LU updates differently from the paper's kernel,
        # the SoA Gauss-Huard sums in a fixed order where the AoS core
        # uses einsum, and gje's inverse-matvec reduces over the bin's
        # nominal tile -> rounding
        exact_methods=("cholesky",),
        tol=1e-12,
        invert=True,
        subbatch_bitwise=True,
    ),
    "scipy": BackendContract(
        methods=("lu",),
        exact_methods=(),
        tol=1e-9,
        invert=False,
        subbatch_bitwise=True,
    ),
}

ADVERSARIAL = {
    "mixed_size": lambda: mixed_size_batch(
        24, tile=32, seed=0, kind="diag_dominant"
    ),
    "pivot_ties": lambda: pivot_tie_batch(24, size=16, seed=0),
    # 4 decades keeps the LAPACK-vs-kernel comparison above the
    # rounding floor at the 1e-9 gate
    "graded": lambda: graded_batch(24, size=16, seed=0, decades=4.0),
}

#: the SIZE and BATCH sweep points: uniform bins and one mixed batch
SWEEP = {
    **{
        f"uniform_m{m}": (
            lambda m=m: random_batch(
                64, size=m, kind="diag_dominant", seed=0
            )
        )
        for m in (4, 8, 16, 32)
    },
    "mixed_nb128": lambda: random_batch(
        128, size_range=(1, 32), kind="diag_dominant", seed=128
    ),
}

ROUND_TRIP_CASES = {**ADVERSARIAL, **SWEEP}

ALL_BACKENDS = sorted(BACKENDS)


def _contract(name: str) -> BackendContract:
    return CONTRACT[name]


def _solve_with(name, batch, rhs, method="lu", on_singular=None):
    backend = get_backend(name)
    plan = plan_batch(batch)
    fac = backend.factorize(plan, method=method, on_singular=on_singular)
    return fac, backend.solve(fac.state, plan, rhs)


def _assert_agreement(name, method, sol, ref):
    c = _contract(name)
    if method in c.exact_methods:
        np.testing.assert_array_equal(sol.data, ref.data)
    else:
        assert float(solution_distance(sol, ref).max()) <= c.tol


class TestContractCoverage:
    def test_every_registered_backend_has_a_contract(self):
        missing = set(BACKENDS) - set(CONTRACT)
        assert not missing, (
            f"backend(s) {sorted(missing)} registered without a "
            "conformance contract: add a CONTRACT row in "
            "tests/runtime/test_backend_conformance.py so the shared "
            "harness gates them"
        )

    def test_no_stale_contract_rows(self):
        stale = set(CONTRACT) - set(BACKENDS)
        assert not stale, f"contract rows for unregistered: {sorted(stale)}"

    def test_contract_matches_advertised_capabilities(self):
        for name, c in CONTRACT.items():
            cls = BACKENDS[name]
            assert tuple(cls.supported_methods) == tuple(c.methods), name
            assert bool(cls.supports_invert) == c.invert, name


class TestRoundTrip:
    @pytest.mark.parametrize("case", sorted(ROUND_TRIP_CASES))
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_adversarial_agreement_with_numpy(self, name, case):
        batch = ROUND_TRIP_CASES[case]()
        rhs = random_rhs(batch, seed=1)
        _, ref = _solve_with("numpy", batch, rhs)
        _, sol = _solve_with(name, batch, rhs)
        assert float(solution_distance(sol, ref).max()) <= 1e-9
        _assert_agreement(name, "lu", sol, ref)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_every_supported_method_agrees(self, name, method):
        c = _contract(name)
        batch_kind = "spd" if method == "cholesky" else "diag_dominant"
        batch = random_batch(
            32, size_range=(1, 32), kind=batch_kind, seed=5
        )
        rhs = random_rhs(batch, seed=6)
        if method not in c.methods:
            with pytest.raises(ValueError):
                _solve_with(name, batch, rhs, method=method)
            return
        _, ref = _solve_with("numpy", batch, rhs, method=method)
        _, sol = _solve_with(name, batch, rhs, method=method)
        _assert_agreement(name, method, sol, ref)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_info_clean_on_solvable_batch(self, name):
        batch = random_batch(
            16, size_range=(1, 32), kind="diag_dominant", seed=2
        )
        fac, _ = _solve_with(name, batch, random_rhs(batch, seed=3))
        assert fac.ok
        assert not fac.info.any()


class TestInfoMergeOrder:
    """``info`` is reported in *source* block order whatever the
    backend's execution order (bins, threads, per-block loops)."""

    BAD = (2, 9, 17)

    def _flagged_batch(self):
        # sizes spanning several bins so merge order actually matters
        batch = mixed_size_batch(24, tile=32, seed=SEED,
                                 kind="diag_dominant")
        for i in self.BAD:
            m = int(batch.sizes[i])
            batch.data[i, :m, :m] = 0.0
        return batch

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_flagged_positions_follow_source_order(self, name):
        batch = self._flagged_batch()
        ref = get_backend("numpy").factorize(
            plan_batch(batch), on_singular=None
        )
        fac = get_backend(name).factorize(
            plan_batch(batch), on_singular=None
        )
        assert set(np.nonzero(fac.info)[0]) == set(self.BAD)
        np.testing.assert_array_equal(fac.info, ref.info)


class TestDegradation:
    def _singular_batch(self):
        # every block has one exactly-zero row: all must be flagged
        return random_batch(12, size_range=(2, 32), kind="singular",
                            seed=9)

    @pytest.mark.parametrize("policy", ["identity", "scalar", "shift"])
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_policies_match_legacy_kernel(self, name, policy):
        batch = self._singular_batch()
        legacy = lu_factor(batch, pivoting="implicit", on_singular=policy)
        fac, _ = _solve_with(
            name, batch, random_rhs(batch, seed=10), on_singular=policy
        )
        rec, ref = fac.degradation, legacy.degradation
        np.testing.assert_array_equal(
            rec.original_info, ref.original_info
        )
        np.testing.assert_array_equal(rec.action, ref.action)
        # shift magnitudes come from norm reductions whose summation
        # width follows the executed tile: equal to rounding only
        np.testing.assert_allclose(rec.shift, ref.shift, rtol=1e-12)
        assert rec.policy == policy
        np.testing.assert_array_equal(fac.info, legacy.info)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_raise_policy_reports_all_singular_blocks(self, name):
        batch = self._singular_batch()
        with pytest.raises(SingularBlockError) as exc:
            get_backend(name).factorize(
                plan_batch(batch), on_singular="raise"
            )
        # the merged info names every offending block, not just the
        # first failing bin
        assert np.count_nonzero(exc.value.info) == batch.nb

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_raise_on_clean_batch_records_all_clear(self, name):
        batch = random_batch(8, size=8, kind="diag_dominant", seed=1)
        fac, _ = _solve_with(
            name, batch, random_rhs(batch, seed=2), on_singular="raise"
        )
        assert fac.ok
        assert fac.degradation is not None
        assert not fac.degradation.action.any()

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_no_policy_leaves_info_raw(self, name):
        batch = self._singular_batch()
        fac = get_backend(name).factorize(
            plan_batch(batch), on_singular=None
        )
        assert not fac.ok
        assert np.count_nonzero(fac.info) == batch.nb
        assert fac.degradation is None


class TestSupportsInvert:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_inverse_mode_runs_or_demotes_visibly(self, name):
        c = _contract(name)
        batch = make_batch(16, 16, SEED, dominant=True)
        rhs = make_rhs(batch, SEED + 1)
        ref = (
            BatchRuntime(backend="numpy")
            .factorize(batch)
            .solve(rhs)
        )
        rt = BatchRuntime(backend=name)
        fac = rt.factorize(batch, apply_mode="inverse")
        if c.invert:
            assert fac.effective_apply_mode == "inverse"
        else:
            assert fac.effective_apply_mode == "factor"
            events = rt.last_report.fallback_events
            assert any(
                e.get("stage") == "invert"
                and e.get("error") == "backend_no_invert"
                for e in events
            )
        np.testing.assert_allclose(
            fac.solve(rhs).data, ref.data, rtol=1e-9, atol=1e-12
        )


class TestSubBatchBitwise:
    """A block solved in a random sub-batch (repacked at its own tight
    tile, as a tenant's request is) matches the same block solved
    inside the larger batch bit for bit: ``info`` and solution."""

    @pytest.mark.parametrize("mode", ["factor", "inverse"])
    @pytest.mark.parametrize(
        "name,method",
        [
            (name, method)
            for name, c in sorted(CONTRACT.items())
            if c.subbatch_bitwise
            for method in c.methods
        ],
    )
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_sub_batch_matches_full_batch(self, name, method, mode, seed):
        kind = "spd" if method == "cholesky" else "diag_dominant"
        batch = random_batch(48, size_range=(1, 32), kind=kind, seed=seed)
        rhs = random_rhs(batch, seed=seed + 1)
        rng = np.random.default_rng(seed)
        idx = np.sort(
            rng.choice(batch.nb, size=rng.integers(1, batch.nb),
                       replace=False)
        )
        t = int(batch.sizes[idx].max())
        sub = BatchedMatrices(batch.data[idx, :t, :t], batch.sizes[idx])
        sub_rhs = BatchedVectors(rhs.data[idx, :t], batch.sizes[idx])

        def solve(b, r):
            fac = BatchRuntime(backend=name).factorize(
                b, method=method, apply_mode=mode
            )
            return fac.info, fac.solve(r).data

        info, sol = solve(batch, rhs)
        sub_info, sub_sol = solve(sub, sub_rhs)
        np.testing.assert_array_equal(sub_info, info[idx])
        assert sub_sol.tobytes() == sol[idx, :t].tobytes()
