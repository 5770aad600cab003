"""Regression tests: non-finite pivots must be *flagged*, never selected
silently.

NumPy's ``argmax`` treats NaN as maximal, so before the fix the
implicit-pivoting LU would select a NaN pivot and report ``info == 0``
- a factorization full of NaN that claimed success (and the explicit
variant's ``col.max``-based tie detection went all-False, silently
picking row 0).  The cores now map NaN candidates to ``+inf`` before
the argmax (so the lowest contaminated row wins, preserving the
implicit/explicit bitwise-equivalence contract) and test pivots with
``~isfinite`` rather than ``== 0``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

# inf/NaN arithmetic inside contaminated blocks is the point of these
# tests; NumPy's invalid-value warnings are expected noise here
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning",
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:divide by zero encountered:RuntimeWarning",
)

from repro.core.batched_gauss_huard import gh_factor
from repro.core.batched_gauss_jordan import gj_invert
from repro.core.batched_cholesky import cholesky_factor
from repro.core.batched_lu import lu_factor
from repro.core.batched_trsv import lu_solve
from repro.core.interleaved import interleaved_getrf_factor
from repro.core.random_batches import random_batch

from tests.strategies import make_batch, make_rhs

#: the contaminants a decayed upstream computation can hand us
_BAD = (np.nan, np.inf, -np.inf)

shapes = st.tuples(
    st.integers(min_value=1, max_value=10),  # nb
    st.integers(min_value=1, max_value=12),  # max block size
)


def _contaminate(batch, seed: int, value: float) -> int:
    """Poison one active entry of one block; returns the block index."""
    rng = np.random.default_rng([seed, 0xBAD])
    blk = int(rng.integers(batch.nb))
    m = int(batch.sizes[blk])
    i, j = rng.integers(m), rng.integers(m)
    batch.data[blk, i, j] = value
    return blk


@settings(max_examples=60, deadline=None)
@given(shape=shapes, seed=st.integers(0, 2**20), bad=st.sampled_from(_BAD))
def test_nonfinite_pivots_flagged_property(shape, seed, bad):
    nb, max_size = shape
    batch = make_batch(nb, max_size, seed, dominant=False)
    blk = _contaminate(batch, seed, bad)
    for pivoting in ("implicit", "explicit"):
        fac = lu_factor(batch.copy(), pivoting=pivoting)
        assert fac.info[blk] != 0, (
            f"{pivoting}: non-finite pivot selected silently "
            f"(contaminant {bad!r})"
        )
        # the success invariant: a block reported clean holds only
        # finite factors
        clean = fac.info == 0
        assert np.isfinite(fac.factors.data[clean]).all()
    # LAPACK getrf flags only exact-zero pivots: its kernel refactors
    # non-finite blocks with the SoA core, so info follows lu_factor
    implicit = lu_factor(batch.copy(), pivoting="implicit")
    lapack = interleaved_getrf_factor(batch.copy())
    np.testing.assert_array_equal(lapack.info, implicit.info)
    assert np.isfinite(lapack.soa[:, :, lapack.info == 0]).all()


@settings(max_examples=60, deadline=None)
@given(shape=shapes, seed=st.integers(0, 2**20), bad=st.sampled_from(_BAD))
def test_implicit_explicit_equivalence_with_nonfinite(shape, seed, bad):
    """The bitwise-equivalence contract survives contamination: both
    variants pick the same (lowest contaminated) pivot rows and flag
    the same step."""
    nb, max_size = shape
    batch = make_batch(nb, max_size, seed, dominant=False)
    _contaminate(batch, seed, bad)
    imp = lu_factor(batch.copy(), pivoting="implicit")
    exp = lu_factor(batch.copy(), pivoting="explicit")
    np.testing.assert_array_equal(imp.info, exp.info)
    np.testing.assert_array_equal(imp.perm, exp.perm)


@settings(max_examples=40, deadline=None)
@given(shape=shapes, seed=st.integers(0, 2**20), bad=st.sampled_from(_BAD))
def test_gj_and_gh_flag_nonfinite_property(shape, seed, bad):
    nb, max_size = shape
    batch = make_batch(nb, max_size, seed, dominant=False)
    blk = _contaminate(batch, seed, bad)
    assert gj_invert(batch.copy()).info[blk] != 0
    assert gh_factor(batch.copy()).info[blk] != 0


def test_cholesky_flags_nan_diagonal():
    batch = random_batch(4, 6, kind="spd", seed=3)
    batch.data[1, 2, 2] = np.nan
    fac = cholesky_factor(batch)
    assert fac.info[1] != 0
    assert (fac.info[[0, 2, 3]] == 0).all()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**20), bad=st.sampled_from(_BAD))
def test_degradation_policy_heals_contaminated_blocks(seed, bad):
    """A contaminated block under ``on_singular="identity"`` is
    substituted like any singular block: the result is ok, all factors
    are finite, and solves produce finite output."""
    batch = make_batch(6, 8, seed, dominant=False)
    blk = _contaminate(batch, seed, bad)
    fac = lu_factor(batch, on_singular="identity")
    assert fac.ok
    assert fac.degradation is not None
    assert fac.degradation.original_info[blk] != 0
    assert np.isfinite(fac.factors.data).all()
    sol = lu_solve(fac, make_rhs(batch, seed + 1))
    assert np.isfinite(sol.data).all()
