"""Tests for cross-request merging and scatter-back correctness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BatchedVectors
from repro.runtime import BatchRuntime
from repro.serving import merge_batches, merge_rhs
from tests.strategies import make_batch, make_rhs


class TestMergeBatches:
    def test_geometry_and_segments(self):
        batches = [
            make_batch(3, 8, seed=0, dominant=True),
            make_batch(2, 16, seed=1, dominant=True),
            make_batch(4, 4, seed=2, dominant=True),
        ]
        merged, segments = merge_batches(batches)
        assert merged.nb == 9
        assert merged.tile == max(b.tile for b in batches)
        pos = 0
        for b, seg in zip(batches, segments):
            np.testing.assert_array_equal(
                seg, np.arange(pos, pos + b.nb)
            )
            np.testing.assert_array_equal(
                merged.sizes[seg], b.sizes
            )
            np.testing.assert_array_equal(
                merged.data[seg, : b.tile, : b.tile], b.data
            )
            pos += b.nb

    def test_identity_padding_beyond_request_tile(self):
        small = make_batch(2, 4, seed=3, dominant=True)
        big = make_batch(1, 32, seed=4, dominant=True)
        merged, segments = merge_batches([small, big])
        t = small.tile
        pad = merged.data[segments[0], t:, t:]
        idx = np.arange(merged.tile - t)
        assert (pad[:, idx, idx] == 1.0).all()
        off = pad.copy()
        off[:, idx, idx] = 0.0
        assert (off == 0.0).all()
        # off-diagonal bands between the request tile and the merged
        # tile are exactly zero
        assert (merged.data[segments[0], :t, t:] == 0.0).all()
        assert (merged.data[segments[0], t:, :t] == 0.0).all()

    def test_rejects_empty_and_mixed_dtype(self):
        with pytest.raises(ValueError, match="empty"):
            merge_batches([])
        a = make_batch(2, 8, seed=0, dominant=True)
        b = make_batch(2, 8, seed=1, dominant=True).astype(np.float32)
        with pytest.raises(ValueError, match="dtype"):
            merge_batches([a, b])

    def test_single_batch_roundtrip(self):
        a = make_batch(5, 12, seed=9, dominant=True)
        merged, segments = merge_batches([a])
        np.testing.assert_array_equal(merged.data, a.data)
        np.testing.assert_array_equal(segments[0], np.arange(5))


class TestMergeRhs:
    def test_zeros_elsewhere_assembly(self):
        batches = [
            make_batch(2, 8, seed=0, dominant=True),
            make_batch(3, 8, seed=1, dominant=True),
        ]
        merged, segments = merge_batches(batches)
        rhs1 = make_rhs(batches[1], seed=5)
        out = merge_rhs(merged, [(segments[1], rhs1)])
        np.testing.assert_array_equal(
            out.data[segments[1], : rhs1.tile], rhs1.data
        )
        assert (out.data[segments[0]] == 0.0).all()
        assert out.nb == merged.nb


class TestScatterBack:
    """The coalescing soundness contract: merging requests changes
    scheduling, never numerics - per-request results are bit-identical
    to solo runs."""

    @settings(max_examples=25, deadline=None)
    @given(
        shapes=st.lists(
            st.tuples(
                st.integers(1, 6),  # nb
                st.integers(1, 16),  # max size
                st.integers(0, 2**20),  # seed
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_coalesced_results_bit_identical_to_solo(self, shapes):
        batches = [
            make_batch(nb, ms, seed=s, dominant=True)
            for nb, ms, s in shapes
        ]
        rhss = [make_rhs(b, seed=i) for i, b in enumerate(batches)]
        merged, segments = merge_batches(batches)
        rt = BatchRuntime()
        shared = rt.factorize(merged)
        merged_rhs = merge_rhs(
            merged, list(zip(segments, rhss))
        )
        merged_out = shared.solve(merged_rhs)
        for b, r, seg in zip(batches, rhss, segments):
            solo = BatchRuntime().factorize(b)
            np.testing.assert_array_equal(
                solo.info, shared.info[seg]
            )
            np.testing.assert_array_equal(
                solo.solve(r).data,
                merged_out.data[seg, : b.tile],
            )


class TestTenantFactorization:
    def _view(self, seed=0):
        from repro.serving import TenantFactorization

        batches = [
            make_batch(3, 8, seed=seed, dominant=True),
            make_batch(2, 16, seed=seed + 1, dominant=True),
        ]
        merged, segments = merge_batches(batches)
        shared = BatchRuntime().factorize(merged)
        views = [
            TenantFactorization(
                tenant=f"t{i}",
                shared=shared,
                indices=seg,
                tile=b.tile,
                sizes=b.sizes.copy(),
            )
            for i, (b, seg) in enumerate(zip(batches, segments))
        ]
        return batches, shared, views

    def test_info_is_a_copy(self):
        _, shared, views = self._view()
        info = views[0].info
        info[:] = 99
        assert (shared.info == 0).all()
        assert (views[0].info == 99).all()  # the cached copy

    def test_solve_slices_own_blocks(self):
        batches, _, views = self._view()
        for b, v in zip(batches, views):
            rhs = make_rhs(b, seed=7)
            out = v.solve(rhs)
            solo = BatchRuntime().factorize(b)
            np.testing.assert_array_equal(
                out.data, solo.solve(rhs).data
            )
            assert out.nb == b.nb and out.tile == b.tile

    def test_solve_rejects_wrong_geometry(self):
        batches, _, views = self._view()
        wrong = BatchedVectors(
            np.zeros((batches[0].nb + 1, batches[0].tile)),
            np.ones(batches[0].nb + 1, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="geometry"):
            views[0].solve(wrong)

    def test_nbytes_shares_partition_shared_total(self):
        _, shared, views = self._view()
        shares = [v.nbytes for v in views]
        assert all(s > 0 for s in shares)
        assert sum(shares) <= shared.nbytes
        assert sum(shares) >= shared.nbytes - len(views)

    def test_ok_and_block_counts(self):
        batches, shared, views = self._view()
        assert all(v.ok for v in views)
        assert views[0].nb == batches[0].nb
        assert views[0].coalesced_blocks == shared.nb
