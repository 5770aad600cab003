"""Tests of the explicit-inverse apply path (``repro.core.explicit_inverse``).

The contract under test: ``invert_factors`` turns any factorization
container into a :class:`GJEInverseState` whose active blocks are the
true inverses and whose padding is *exactly* identity (so the
full-tile GEMV of ``inverse_apply`` is safe), and the GEMV apply
agrees with the native triangular-solve apply on the same factors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BatchedMatrices,
    GJEInverseState,
    batched_gauss_jordan,
    inverse_apply,
    invert_factors,
)
from repro.core.batched_cholesky import cholesky_factor
from repro.core.batched_gauss_huard import gh_factor
from repro.core.batched_gauss_jordan import gj_invert
from repro.core.batched_lu import LUFactors, lu_factor, lu_reconstruct
from repro.core.batched_trsv import lu_solve
from repro.core.interleaved import interleaved_getrf_factor
from repro.core.random_batches import random_batch, random_rhs

from tests.strategies import make_batch, make_rhs, seeds, tile_batch_shapes

SEED = 1234


def _batch(nb=9, tile=8, seed=SEED, dominant=True):
    return make_batch(nb, tile, seed, dominant=dominant)


class TestBatchedGaussJordan:
    def test_returns_state_with_true_inverses(self):
        batch = _batch()
        state = batched_gauss_jordan(batch)
        assert isinstance(state, GJEInverseState)
        assert state.ok and state.method == "gje"
        for i in range(batch.nb):
            m = int(batch.sizes[i])
            np.testing.assert_allclose(
                state.inverses.data[i, :m, :m],
                np.linalg.inv(batch.block(i)),
                rtol=1e-9,
                atol=1e-12,
            )

    def test_geometry_properties(self):
        batch = _batch(nb=5, tile=4)
        state = batched_gauss_jordan(batch)
        assert state.nb == 5 and state.tile == 4
        np.testing.assert_array_equal(state.sizes, batch.sizes)


class TestInvertFactors:
    @pytest.mark.parametrize(
        "factor",
        [
            lambda b: lu_factor(b, pivoting="implicit"),
            lambda b: lu_factor(b, pivoting="explicit"),
            lambda b: gh_factor(b, transposed=False),
            lambda b: gh_factor(b, transposed=True),
        ],
        ids=["lu", "lu_explicit", "gh", "ght"],
    )
    def test_matches_numpy_inverse_on_active_blocks(self, factor):
        batch = _batch(dominant=False)
        state = invert_factors(factor(batch))
        for i in range(batch.nb):
            m = int(batch.sizes[i])
            np.testing.assert_allclose(
                state.inverses.data[i, :m, :m],
                np.linalg.inv(batch.block(i)),
                rtol=1e-7,
                atol=1e-10,
            )

    def test_cholesky_factors_invert(self):
        batch = random_batch(8, (1, 8), kind="spd", seed=SEED)
        state = invert_factors(cholesky_factor(batch))
        for i in range(batch.nb):
            m = int(batch.sizes[i])
            np.testing.assert_allclose(
                state.inverses.data[i, :m, :m],
                np.linalg.inv(batch.block(i)),
                rtol=1e-8,
                atol=1e-11,
            )

    def test_padding_is_exactly_identity(self):
        batch = _batch(nb=7, tile=8)
        state = invert_factors(lu_factor(batch))
        eye = np.eye(batch.tile)
        for i in range(batch.nb):
            m = int(batch.sizes[i])
            inv = state.inverses.data[i]
            np.testing.assert_array_equal(inv[m:, :], eye[m:, :])
            np.testing.assert_array_equal(inv[:, m:], eye[:, m:])

    def test_gje_input_is_rewrapped_not_recomputed(self):
        batch = _batch()
        gj = gj_invert(batch)
        state = invert_factors(gj)
        assert state.inverses.data is gj.inverses.data

    def test_gje_state_passthrough(self):
        state = batched_gauss_jordan(_batch())
        assert invert_factors(state) is state

    def test_not_ok_factors_raise(self):
        batch = _batch(nb=4, tile=4)
        batch.data[2, :4, :4] = 0.0  # singular active block
        fac = lu_factor(batch)
        assert not fac.ok
        with pytest.raises(ValueError, match="singular"):
            invert_factors(fac)

    def test_unknown_container_raises_type_error(self):
        with pytest.raises(TypeError):
            invert_factors(object())


class TestInverseApply:
    def test_agrees_with_lu_solve(self):
        batch = _batch(nb=12, tile=8, dominant=False)
        rhs = make_rhs(batch, SEED + 1)
        fac = lu_factor(batch)
        x_trsv = lu_solve(fac, rhs)
        x_gemv = inverse_apply(invert_factors(fac), rhs)
        np.testing.assert_allclose(
            x_gemv.data, x_trsv.data, rtol=1e-7, atol=1e-10
        )

    def test_padding_passthrough(self):
        batch = _batch(nb=6, tile=8)
        rhs = make_rhs(batch, SEED + 2)
        out = inverse_apply(invert_factors(lu_factor(batch)), rhs)
        # padded rhs entries are zeroed by the masked GEMV
        mask = np.arange(batch.tile)[None, :] >= batch.sizes[:, None]
        assert (out.data[mask] == 0.0).all()

    def test_geometry_mismatch_raises(self):
        state = invert_factors(lu_factor(_batch(nb=4, tile=8)))
        other = random_rhs(_batch(nb=4, tile=4), seed=SEED)
        with pytest.raises(ValueError):
            inverse_apply(state, other)

    def test_not_ok_state_raises(self):
        batch = _batch(nb=3, tile=4)
        state = batched_gauss_jordan(batch)
        state.info[1] = 2  # simulate an unresolved failure
        rhs = make_rhs(batch, SEED)
        with pytest.raises(ValueError):
            inverse_apply(state, rhs)

    def test_singular_policy_inverse_still_applies(self):
        # under a degradation policy the substituted factors are
        # invertible by construction, so the inverse path must work
        batch = _batch(nb=5, tile=4)
        batch.data[0, :4, :4] = 0.0
        fac = lu_factor(batch, on_singular="identity")
        assert fac.ok and fac.degradation is not None
        state = invert_factors(fac)
        assert state.degradation is fac.degradation
        rhs = make_rhs(batch, SEED + 3)
        x_trsv = lu_solve(fac, rhs)
        x_gemv = inverse_apply(state, rhs)
        np.testing.assert_allclose(
            x_gemv.data, x_trsv.data, rtol=1e-9, atol=1e-12
        )


#: the two LU layouts ``invert_factors`` inverts with LAPACK ``getri``
LU_LAYOUTS = {
    "aos": lambda b, **kw: lu_factor(b, pivoting="implicit", **kw),
    "soa": interleaved_getrf_factor,
}


class TestGetriInverse:
    """``lu`` inverses come from LAPACK ``getri`` on the stored factors,
    at each block's exact size, in either factor layout."""

    @given(
        shape=tile_batch_shapes,
        seed=seeds,
        dtype=st.sampled_from([np.float64, np.float32]),
        layout=st.sampled_from(sorted(LU_LAYOUTS)),
        extra=st.integers(0, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_block_times_inverse_is_identity(
        self, shape, seed, dtype, layout, extra
    ):
        batch = make_batch(*shape, seed, dominant=False).astype(dtype)
        fac = LU_LAYOUTS[layout](batch)
        tile = min(batch.tile + extra, 32)
        state = invert_factors(fac, tile=tile)
        inv = state.inverses.data
        assert inv.shape == (batch.nb, tile, tile) and inv.dtype == dtype
        assert state.method == "lu" and state.ok
        eps = np.finfo(dtype).eps
        eye = np.eye(tile, dtype=dtype)
        for i in range(batch.nb):
            m = int(batch.sizes[i])
            D = batch.block(i).astype(np.float64)
            resid = np.abs(D @ inv[i, :m, :m] - np.eye(m)).max()
            assert resid <= 100 * m * eps * np.linalg.cond(D, 1)
            # the padding is exactly the identity
            assert inv[i, m:, :].tobytes() == eye[m:, :].tobytes()
            assert inv[i, :m, m:].tobytes() == eye[:m, m:].tobytes()

    @given(shape=tile_batch_shapes, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_sub_batch_inverses_are_bitwise_the_full_batch_ones(
        self, shape, seed
    ):
        batch = make_batch(*shape, seed, dominant=False)
        rng = np.random.default_rng(seed)
        idx = np.sort(
            rng.choice(batch.nb, size=rng.integers(1, batch.nb + 1),
                       replace=False)
        )
        t = int(batch.sizes[idx].max())
        sub = BatchedMatrices(batch.data[idx, :t, :t], batch.sizes[idx])
        full = invert_factors(interleaved_getrf_factor(batch), tile=32)
        part = invert_factors(interleaved_getrf_factor(sub), tile=32)
        assert (
            part.inverses.data.tobytes()
            == full.inverses.data[idx].tobytes()
        )

    @pytest.mark.parametrize("layout", sorted(LU_LAYOUTS))
    @pytest.mark.parametrize("policy", ["identity", "scalar", "shift"])
    def test_degraded_blocks_invert_their_substitute(self, layout, policy):
        batch = _batch(nb=6, tile=8, dominant=False)
        m = int(batch.sizes[2])
        batch.data[2, :m, 0] = 0.0  # a zero column: singular, diagonal kept
        fac = LU_LAYOUTS[layout](batch, on_singular=policy)
        assert fac.ok and fac.degradation.action[2] != 0
        state = invert_factors(fac)
        aos = fac if isinstance(fac, LUFactors) else fac.to_aos()
        substitutes = lu_reconstruct(aos)
        for i in range(batch.nb):
            k = int(batch.sizes[i])
            np.testing.assert_allclose(
                state.inverses.data[i, :k, :k],
                np.linalg.inv(substitutes[i, :k, :k]),
                rtol=1e-9,
                atol=1e-12,
            )
        if policy == "identity":
            assert (state.inverses.data[2] == np.eye(batch.tile)).all()

    @pytest.mark.parametrize("layout", sorted(LU_LAYOUTS))
    def test_singular_factors_raise(self, layout):
        batch = _batch(nb=4, tile=4)
        batch.data[1, :4, :4] = 0.0
        fac = LU_LAYOUTS[layout](batch)
        assert not fac.ok
        with pytest.raises(ValueError, match="singular"):
            invert_factors(fac)

    def test_getri_failure_raises(self):
        # clean info, but a U diagonal zeroed afterwards: getri's own
        # info is nonzero and must not pass silently
        fac = interleaved_getrf_factor(_batch(nb=3, tile=8))
        fac.soa[1, 1, 2] = 0.0
        with pytest.raises(ValueError, match="getri"):
            invert_factors(fac)
