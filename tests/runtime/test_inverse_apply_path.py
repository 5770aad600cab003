"""The lean explicit-inverse apply: gather -> one GEMV per bin -> scatter.

A handle keeps only read-only maps, so concurrent solves cannot share
scratch; every call hands back its own arrays.
"""

import threading

import numpy as np
import pytest

from repro import BlockJacobiPreconditioner
from repro.core.random_batches import random_batch, random_rhs
from repro.runtime import BatchRuntime
from repro.sparse.suite import load_matrix

SEED = 11


@pytest.mark.parametrize("backend", ["binned", "numpy"])
def test_two_threads_match_serial_solves_bitwise(backend):
    batch = random_batch(60, size_range=(1, 32), seed=SEED)
    fac = BatchRuntime(backend=backend).factorize(batch, apply_mode="inverse")
    assert fac.effective_apply_mode == "inverse"
    rhss = [random_rhs(batch, seed=SEED + k) for k in range(2)]
    serial = [fac.solve(r).data for r in rhss]
    results = [[], []]
    barrier = threading.Barrier(2)

    def work(k):
        barrier.wait()
        for _ in range(50):
            results[k].append(fac.solve(rhss[k]).data)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for k in range(2):
        assert len(results[k]) == 50
        for out in results[k]:
            assert out.tobytes() == serial[k].tobytes()


@pytest.mark.parametrize("mode", ["inverse", "factor"])
def test_raw_array_solve_is_the_container_solve(mode):
    batch = random_batch(40, size_range=(1, 32), seed=SEED)
    rhs = random_rhs(batch, seed=SEED + 1)
    fac = BatchRuntime().factorize(batch, apply_mode=mode)
    out = fac.solve(rhs.data)
    assert isinstance(out, np.ndarray)
    assert out.tobytes() == fac.solve(rhs).data.tobytes()
    assert not np.shares_memory(out, rhs.data)


@pytest.mark.parametrize("mode", ["inverse", "factor"])
def test_precond_apply_returns_a_fresh_array_each_call(mode):
    A = load_matrix("fem_b4_s0")
    M = BlockJacobiPreconditioner(apply_mode=mode).setup(A)
    x = np.random.default_rng(SEED).standard_normal(A.n_rows)
    x_before = x.copy()
    y1 = M.apply(x)
    y2 = M.apply(x)
    assert y1.dtype == np.float64 and y1.shape == x.shape
    assert not np.shares_memory(y1, y2)
    assert not np.shares_memory(y1, x)
    assert y1.tobytes() == y2.tobytes()
    y1[:] = 0.0  # a caller overwriting one result leaves the next alone
    assert M.apply(x).tobytes() == y2.tobytes()
    assert x.tobytes() == x_before.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_precond_apply_matches_a_per_block_solve(dtype):
    A = load_matrix("varblk_s0")
    M = BlockJacobiPreconditioner(apply_mode="inverse", dtype=dtype).setup(A)
    x = np.random.default_rng(SEED).standard_normal(A.n_rows)
    y = M.apply(x)
    start = 0
    for m in M.block_sizes.tolist():
        blk = slice(start, start + m)
        ref = np.linalg.solve(A.extract_block(start, m), x[blk])
        tol = 1e-10 if dtype == np.float64 else 1e-3
        np.testing.assert_allclose(y[blk], ref, rtol=tol, atol=tol)
        start += m


def test_inverse_states_with_singular_blocks_are_refused():
    from repro.core.explicit_inverse import batched_gauss_jordan
    from repro.runtime.backends import BackendInverse

    batch = random_batch(4, size_range=(2, 8), seed=SEED)
    state = batched_gauss_jordan(batch)
    state.info[2] = 1
    with pytest.raises(ValueError, match="singular"):
        BackendInverse(states=[state])
