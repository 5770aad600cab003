"""Interleaved (structure-of-arrays) kernels: layout-transform
round-trip properties and bitwise/rounding parity with the AoS cores.

The AoS<->SoA transforms are pure storage relabellings, so the
properties here are exact: byte-for-byte round trips (NaN payloads
included), padding preserved, and the degenerate shapes (empty batch,
single matrix) handled.  The kernel parity tests then pin the contract
the runtime backend relies on: LU factors/permutations/``info`` and the
TRSV sweeps are *bitwise* equal to the AoS kernels, Gauss-Huard agrees
to rounding (its lazy update sums in a fixed order where the AoS core
uses einsum), and the degradation policies produce identical records.
The LAPACK kernel that fills the same LU state is pinned to raw
``getrf`` bit for bit, and to the SoA core for the blocks it refers
back to it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg.lapack import get_lapack_funcs

from repro.core import interleaved
from repro.core import (
    BatchedMatrices,
    aos_to_soa,
    gh_factor,
    gh_solve,
    interleaved_getrf_factor,
    interleaved_gh_factor,
    interleaved_gh_solve,
    interleaved_lu_factor,
    interleaved_lu_solve,
    lu_factor,
    lu_solve,
    soa_to_aos,
)

from repro.verify.adversarial import pivot_tie_batch

from tests.strategies import batch_shapes, make_batch, make_rhs, seeds

SEED = 11


class TestLayoutTransforms:
    @given(shape=batch_shapes, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_matrix_round_trip_is_bit_exact(self, shape, seed):
        nb, max_size = shape
        batch = make_batch(nb, max_size, seed, dominant=False)
        soa = aos_to_soa(batch.data)
        assert soa.shape == (batch.tile, batch.tile, nb)
        assert soa.flags["C_CONTIGUOUS"]
        back = soa_to_aos(soa)
        assert back.shape == batch.data.shape
        assert back.tobytes() == batch.data.tobytes()

    @given(shape=batch_shapes, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_vector_round_trip_is_bit_exact(self, shape, seed):
        nb, max_size = shape
        batch = make_batch(nb, max_size, seed, dominant=False)
        rhs = make_rhs(batch, seed + 1)
        soa = aos_to_soa(rhs.data)
        assert soa.shape == (batch.tile, nb)
        assert soa_to_aos(soa).tobytes() == rhs.data.tobytes()

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_special_values_survive(self, seed):
        # NaN payloads, signed zeros and infinities are storage bits
        # like any other; the transform must not canonicalise them.
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((3, 4, 4))
        data[0, 0, 0] = np.nan
        data[1, 2, 3] = -0.0
        data[2, 1, 1] = np.inf
        assert soa_to_aos(aos_to_soa(data)).tobytes() == data.tobytes()

    @given(shape=batch_shapes, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_padding_preserved(self, shape, seed):
        nb, max_size = shape
        batch = make_batch(nb, max_size, seed, dominant=True)
        back = BatchedMatrices(
            soa_to_aos(aos_to_soa(batch.data)), batch.sizes.copy()
        )
        # the identity-padding invariant survives the round trip
        for i in range(nb):
            m = int(batch.sizes[i])
            pad = back.data[i, m:, m:]
            np.testing.assert_array_equal(
                pad, np.eye(batch.tile - m)
            )
            assert not back.data[i, :m, m:].any()
            assert not back.data[i, m:, :m].any()

    def test_empty_batch(self):
        data = np.zeros((0, 8, 8))
        soa = aos_to_soa(data)
        assert soa.shape == (8, 8, 0)
        assert soa_to_aos(soa).shape == (0, 8, 8)
        vec = np.zeros((0, 8))
        assert aos_to_soa(vec).shape == (8, 0)

    def test_single_matrix(self):
        rng = np.random.default_rng(SEED)
        data = rng.standard_normal((1, 4, 4))
        soa = aos_to_soa(data)
        np.testing.assert_array_equal(soa[:, :, 0], data[0])
        assert soa_to_aos(soa).tobytes() == data.tobytes()

    def test_transform_never_aliases_the_input(self):
        # regression: for degenerate shapes (nb == 1, tile == 1) the
        # transposed view is already C-contiguous, so a bare
        # ascontiguousarray would return a view and the in-place SoA
        # kernels would destroy the caller's batch
        for shape in ((1, 4, 4), (4, 1, 1), (1, 1, 1), (1, 4)):
            data = np.random.default_rng(SEED).standard_normal(shape)
            soa = aos_to_soa(data)
            assert not np.shares_memory(soa, data)
            assert not np.shares_memory(soa_to_aos(soa), soa)

    def test_solve_does_not_mutate_rhs(self):
        batch = make_batch(1, 1, SEED, dominant=True)
        rhs = make_rhs(batch, SEED + 1)
        before = rhs.data.copy()
        interleaved_lu_solve(interleaved_lu_factor(batch), rhs)
        interleaved_gh_solve(interleaved_gh_factor(batch), rhs)
        np.testing.assert_array_equal(rhs.data, before)

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            aos_to_soa(np.zeros(5))
        with pytest.raises(ValueError, match="expected"):
            soa_to_aos(np.zeros((2, 2, 2, 2)))


class TestLUParity:
    @given(shape=batch_shapes, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_factor_bitwise_equal(self, shape, seed):
        nb, max_size = shape
        batch = make_batch(nb, max_size, seed, dominant=False)
        ref = lu_factor(batch, pivoting="implicit")
        il = interleaved_lu_factor(batch)
        np.testing.assert_array_equal(
            soa_to_aos(il.soa), ref.factors.data
        )
        np.testing.assert_array_equal(il.perm, ref.perm)
        np.testing.assert_array_equal(il.info, ref.info)

    @given(shape=batch_shapes, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_solve_bitwise_equal(self, shape, seed):
        nb, max_size = shape
        batch = make_batch(nb, max_size, seed, dominant=True)
        rhs = make_rhs(batch, seed + 1)
        ref = lu_solve(lu_factor(batch), rhs, variant="eager")
        il = interleaved_lu_solve(interleaved_lu_factor(batch), rhs)
        np.testing.assert_array_equal(il.data, ref.data)

    @pytest.mark.parametrize("by_block_nb", [0, 10**9])
    @pytest.mark.parametrize("temp_elements", [1 << 19, 64])
    @pytest.mark.parametrize("overwrite", [False, True])
    def test_traversal_slabs_and_overwrite_keep_bits(
        self, monkeypatch, by_block_nb, temp_elements, overwrite
    ):
        # the block-by-block GER, the slabbed GER/gather and factoring
        # into the input's buffer only change how the same elementwise
        # operations are laid out
        monkeypatch.setattr(interleaved, "_BY_BLOCK_NB", by_block_nb)
        monkeypatch.setattr(interleaved, "_TEMP_ELEMENTS", temp_elements)
        batch = make_batch(12, 16, SEED, dominant=False)
        ref = lu_factor(batch, pivoting="implicit")
        il = interleaved_lu_factor(batch.copy(), overwrite=overwrite)
        assert soa_to_aos(il.soa).tobytes() == ref.factors.data.tobytes()
        np.testing.assert_array_equal(il.perm, ref.perm)
        np.testing.assert_array_equal(il.info, ref.info)

    def test_singular_info_and_solve_refusal(self):
        batch = make_batch(6, 8, SEED, dominant=True)
        batch.data[2, : batch.sizes[2], : batch.sizes[2]] = 0.0
        ref = lu_factor(batch)
        il = interleaved_lu_factor(batch)
        np.testing.assert_array_equal(il.info, ref.info)
        assert not il.ok
        rhs = make_rhs(batch, SEED + 1)
        with pytest.raises(ValueError, match="singular"):
            interleaved_lu_solve(il, rhs)

    @pytest.mark.parametrize("policy", ["identity", "scalar", "shift"])
    def test_degradation_policies_match_aos(self, policy):
        batch = make_batch(10, 8, SEED, dominant=True)
        for i in (1, 4):
            batch.data[i, : batch.sizes[i], : batch.sizes[i]] = 0.0
        ref = lu_factor(batch, on_singular=policy)
        il = interleaved_lu_factor(batch, on_singular=policy)
        np.testing.assert_array_equal(
            soa_to_aos(il.soa), ref.factors.data
        )
        np.testing.assert_array_equal(il.info, ref.info)
        np.testing.assert_array_equal(
            il.degradation.original_info, ref.degradation.original_info
        )
        np.testing.assert_array_equal(
            il.degradation.action, ref.degradation.action
        )
        np.testing.assert_array_equal(
            il.degradation.shift, ref.degradation.shift
        )

    def test_to_aos_round_trips_through_reference_solve(self):
        batch = make_batch(8, 8, SEED, dominant=True)
        rhs = make_rhs(batch, SEED + 2)
        il = interleaved_lu_factor(batch)
        aos = il.to_aos()
        np.testing.assert_array_equal(
            lu_solve(aos, rhs).data,
            interleaved_lu_solve(il, rhs).data,
        )


def _raw_getrf(block: np.ndarray):
    """LAPACK getrf of one block, with its swaps as a gather perm."""
    (getrf,) = get_lapack_funcs(("getrf",), dtype=block.dtype)
    lu, piv, info = getrf(block)
    perm = np.arange(block.shape[0])
    for k, j in enumerate(piv):
        perm[k], perm[j] = perm[j], perm[k]
    return lu, perm, info


class TestGetrf:
    """The LAPACK kernel packs ``getrf`` on each exact block into the
    SoA state: bit for bit LAPACK's factors and swaps, identity in the
    padding, and the SoA core's ``info`` for failed blocks."""

    @pytest.mark.parametrize(
        "case",
        ["sizes_1_32", "pivot_ties", "float32"],
    )
    def test_factors_and_perm_are_raw_lapack(self, case):
        if case == "sizes_1_32":
            batch = BatchedMatrices.identity_padded(
                [
                    np.random.default_rng(m).uniform(-1, 1, (m, m))
                    for m in range(1, 33)
                ]
            )
        elif case == "pivot_ties":
            batch = pivot_tie_batch(8, size=12, tile=16, seed=SEED)
        else:
            batch = make_batch(12, 16, SEED, dominant=False).astype(
                np.float32
            )
        fac = interleaved_getrf_factor(batch)
        assert fac.soa.dtype == batch.dtype
        assert fac.ok
        tile = batch.tile
        for i in range(batch.nb):
            m = int(batch.sizes[i])
            lu, perm, info = _raw_getrf(batch.data[i, :m, :m])
            assert info == 0
            assert lu.dtype == batch.dtype
            block = fac.soa[:, :, i]
            assert block[:m, :m].tobytes() == lu.tobytes()
            np.testing.assert_array_equal(block[m:, m:], np.eye(tile - m))
            assert not block[:m, m:].any() and not block[m:, :m].any()
            np.testing.assert_array_equal(fac.perm[i, :m], perm)
            np.testing.assert_array_equal(
                fac.perm[i, m:], np.arange(m, tile)
            )

    @pytest.mark.parametrize("temp_elements", [1 << 19, 64])
    def test_overwrite_and_slabs_keep_bits(self, monkeypatch, temp_elements):
        # factoring into the input's buffer and gathering the per-size
        # stacks in slabs change where the bits go, not what they are
        batch = make_batch(24, 16, SEED, dominant=False)
        ref = interleaved_getrf_factor(batch)
        monkeypatch.setattr(interleaved, "_TEMP_ELEMENTS", temp_elements)
        work = batch.copy()
        fac = interleaved_getrf_factor(work, overwrite=True)
        assert np.shares_memory(fac.soa, work.data)
        assert fac.soa.tobytes() == ref.soa.tobytes()
        np.testing.assert_array_equal(fac.perm, ref.perm)

    def test_singular_blocks_get_the_soa_core_result(self):
        batch = make_batch(6, 8, SEED, dominant=True)
        batch.data[2, : batch.sizes[2], : batch.sizes[2]] = 0.0
        batch.data[4, 0, 0] = np.nan
        ref = interleaved_lu_factor(batch)
        fac = interleaved_getrf_factor(batch)
        np.testing.assert_array_equal(fac.info, ref.info)
        assert fac.info[2] and fac.info[4]
        for i in (2, 4):
            assert fac.soa[:, :, i].tobytes() == ref.soa[:, :, i].tobytes()
            np.testing.assert_array_equal(fac.perm[i], ref.perm[i])


class TestGHParity:
    @pytest.mark.parametrize("transposed", [False, True])
    @given(shape=batch_shapes, seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_factor_and_solve_match_to_rounding(
        self, shape, seed, transposed
    ):
        nb, max_size = shape
        batch = make_batch(nb, max_size, seed, dominant=True)
        rhs = make_rhs(batch, seed + 1)
        ref = gh_factor(batch, transposed=transposed)
        il = interleaved_gh_factor(batch, transposed=transposed)
        np.testing.assert_array_equal(il.colperm, ref.colperm)
        np.testing.assert_array_equal(il.info, ref.info)
        np.testing.assert_allclose(
            soa_to_aos(il.soa),
            ref.factors.data,
            rtol=1e-12,
            atol=1e-14,
        )
        np.testing.assert_allclose(
            interleaved_gh_solve(il, rhs).data,
            gh_solve(ref, rhs).data,
            rtol=1e-12,
            atol=1e-14,
        )

    @pytest.mark.parametrize("transposed", [False, True])
    def test_overwrite_keeps_bits(self, transposed):
        batch = make_batch(12, 16, SEED, dominant=True)
        ref = interleaved_gh_factor(batch, transposed=transposed)
        il = interleaved_gh_factor(
            batch.copy(), transposed=transposed, overwrite=True
        )
        assert il.soa.tobytes() == ref.soa.tobytes()
        np.testing.assert_array_equal(il.colperm, ref.colperm)

    def test_degradation_policies_match_aos(self):
        batch = make_batch(9, 8, SEED, dominant=True)
        batch.data[3, : batch.sizes[3], : batch.sizes[3]] = 0.0
        for policy in ("identity", "scalar", "shift"):
            ref = gh_factor(batch, on_singular=policy)
            il = interleaved_gh_factor(batch, on_singular=policy)
            np.testing.assert_array_equal(il.info, ref.info)
            np.testing.assert_array_equal(
                il.degradation.action, ref.degradation.action
            )
