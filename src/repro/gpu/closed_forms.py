"""Closed-form instruction/transaction counts of the warp kernels.

The performance model consumes :class:`~repro.gpu.simt.KernelStats`
measured by *running* each warp kernel once per configuration
(:mod:`repro.gpu.profiles`).  That is robust against drift, but it
cannot detect a kernel that quietly does the wrong amount of work -
e.g. a GER that spans ``m`` columns instead of the full register tile
would still factor correctly while invalidating every projected
GFLOPS number.  This module states the expected counts *analytically*,
derived from the kernel designs in Section III of the paper:

* the implicit-pivoting LU executes, per step ``k``: one 5-round
  butterfly argmax (10 shuffles), one pivot broadcast, one reciprocal,
  one predicated SCAL, and ``tile-1-k`` shuffle+FMA pairs for the
  eager GER over the **full** register tile (the padding waste of
  Section IV-B is part of the contract, so it is part of the count);
* the Gauss-Huard kernel executes ``k`` lazy-update and ``k``
  eager-elimination shuffle+FMA pairs at step ``k`` (the lazy ``2k``
  schedule that wins below the crossover size);
* memory transactions follow the NVIDIA coalescing rule: one
  transaction per unique 32-byte sector touched by the active lanes,
  with the factor layouts (row-/column-major, GH vs GH-T) determining
  whether a row load is one transaction or ``m``.

:mod:`repro.verify.simt_check` replays the kernels on the SIMT machine
and asserts exact equality against these forms, which pins the
instruction stream (not just the numerics) of every kernel the model
prices.  All forms assume a nonsingular input (no step skips its SCAL)
and the default 32-lane warp.
"""

from __future__ import annotations

import numpy as np

from .simt import KernelStats, SECTOR_BYTES, WARP_WIDTH

__all__ = [
    "contiguous_sectors",
    "strided_sectors",
    "lu_factor_counts",
    "lu_solve_counts",
    "gh_factor_counts",
    "gh_solve_counts",
    "inverse_apply_counts",
    "interleaved_lu_factor_counts",
    "expected_counts",
]

#: int64 permutation records: element size in bytes
_IDX_BYTES = 8
#: butterfly rounds of a 32-lane reduction
_ROUNDS = int(np.log2(WARP_WIDTH))


def contiguous_sectors(start: int, count: int, es: int) -> int:
    """Transactions of one access to ``count`` consecutive elements.

    Elements of size ``es`` (4 or 8 bytes) are sector-aligned, so the
    access touches every 32-byte sector from the first element's to the
    last element's, inclusive.
    """
    if count <= 0:
        return 0
    first = (start * es) // SECTOR_BYTES
    last = ((start + count - 1) * es) // SECTOR_BYTES
    return int(last - first + 1)


def strided_sectors(start: int, count: int, stride: int, es: int) -> int:
    """Transactions of one access with a constant element stride."""
    if count <= 0:
        return 0
    addrs = start + stride * np.arange(count)
    return int(np.unique((addrs * es) // SECTOR_BYTES).size)


def _perm_offload() -> tuple[int, int]:
    """(transactions, bytes) of a full-warp int64 permutation store/load."""
    return (
        contiguous_sectors(0, WARP_WIDTH, _IDX_BYTES),
        WARP_WIDTH * _IDX_BYTES,
    )


def lu_factor_counts(
    m: int, es: int, tile: int = WARP_WIDTH
) -> KernelStats:
    """Expected counters of ``warp_lu_factor`` on a nonsingular block."""
    s = KernelStats()
    # coalesced column-major load/off-load of the m x m block: the
    # fused combined row swap stores the same contiguous address sets.
    block_tx = sum(contiguous_sectors(j * m, m, es) for j in range(m))
    s.global_load_instructions = m
    s.global_load_transactions = block_tx
    s.bytes_loaded = m * m * es
    perm_tx, perm_bytes = _perm_offload()
    s.global_store_instructions = m + 1
    s.global_store_transactions = block_tx + perm_tx
    s.bytes_stored = m * m * es + perm_bytes
    for k in range(m):
        ger_cols = tile - 1 - k  # full-tile GER: the padding waste
        active = WARP_WIDTH - k - 1  # unpivoted lanes after marking
        s.shuffles += 2 * _ROUNDS + 1 + ger_cols  # argmax + bcast + GER
        s.arith_instructions += 2 + ger_cols  # div + scal + FMAs
        s.flops += WARP_WIDTH + active + 2 * active * ger_cols
    return s


def lu_solve_counts(m: int, es: int) -> KernelStats:
    """Expected counters of ``warp_lu_solve``."""
    s = KernelStats()
    perm_tx, perm_bytes = _perm_offload()
    sol_tx = contiguous_sectors(0, m, es)
    # loads: permutation, permuted b gather, one factor column per step
    s.global_load_instructions = 2 + (m - 1) + m
    s.global_load_transactions = (
        perm_tx
        + sol_tx
        + sum(
            contiguous_sectors(k * m + k + 1, m - 1 - k, es)
            for k in range(m - 1)
        )
        + sum(contiguous_sectors(k * m, k + 1, es) for k in range(m))
    )
    s.bytes_loaded = (
        perm_bytes
        + m * es
        + es * sum(m - 1 - k for k in range(m - 1))
        + es * sum(k + 1 for k in range(m))
    )
    s.global_store_instructions = 1
    s.global_store_transactions = sol_tx
    s.bytes_stored = m * es
    # lower solve: broadcast + FMA per column; upper solve adds the div
    s.shuffles = (m - 1) + 2 * m
    s.arith_instructions = (m - 1) + 2 * m
    s.flops = m * (m - 1) + m * m
    return s


def gh_factor_counts(
    m: int, es: int, transposed: bool, tile: int = WARP_WIDTH
) -> KernelStats:
    """Expected counters of ``warp_gh_factor`` (GH or GH-T layout)."""
    s = KernelStats()
    row_tx = sum(contiguous_sectors(i * m, m, es) for i in range(m))
    s.global_load_instructions = m
    s.global_load_transactions = row_tx
    s.bytes_loaded = m * m * es
    if transposed:
        # GH-T off-load: stride-m scatter per logical row
        store_tx = sum(strided_sectors(i, m, m, es) for i in range(m))
    else:
        store_tx = row_tx
    perm_tx, perm_bytes = _perm_offload()
    s.global_store_instructions = m + 1
    s.global_store_transactions = store_tx + perm_tx
    s.bytes_stored = m * m * es + perm_bytes
    for k in range(m):
        before = WARP_WIDTH - k  # unpivoted lanes during the lazy update
        after = WARP_WIDTH - k - 1  # after this step's pivot is marked
        # k lazy + k eager shuffle/FMA pairs, argmax, broadcast, div, scal
        s.shuffles += 2 * k + 2 * _ROUNDS + 1
        s.arith_instructions += 2 * k + 2
        s.flops += (
            2 * k * before + WARP_WIDTH + after + 2 * k * after
        )
    return s


def gh_solve_counts(m: int, es: int, transposed: bool) -> KernelStats:
    """Expected counters of ``warp_gh_solve`` (GH or GH-T layout)."""
    s = KernelStats()
    if transposed:
        row_tx = sum(contiguous_sectors(j * m, m, es) for j in range(m))
    else:
        # GH layout: logical row loads stride by m - non-coalesced
        row_tx = sum(strided_sectors(j, m, m, es) for j in range(m))
    perm_tx, perm_bytes = _perm_offload()
    sol_tx = contiguous_sectors(0, m, es)
    s.global_load_instructions = m + 2
    s.global_load_transactions = row_tx + sol_tx + perm_tx
    s.bytes_loaded = m * m * es + m * es + perm_bytes
    s.global_store_instructions = 1
    s.global_store_transactions = sol_tx
    s.bytes_stored = m * es
    # in-register transpose: one shuffle + one (flop-free) select per
    # register column
    s.shuffles = m
    s.arith_instructions = m
    for k in range(m):
        # parallel dot (mul + 5-round butterfly sum), finalise (sub,
        # div on lane k), broadcast, upward elimination FMA
        s.shuffles += _ROUNDS + 1
        s.arith_instructions += 1 + _ROUNDS + 3
        s.flops += (
            WARP_WIDTH  # mul
            + _ROUNDS * WARP_WIDTH  # butterfly adds
            + 2  # sub + div on the single finalising lane
            + 2 * k  # upward elimination on lanes < k
        )
    return s


def inverse_apply_counts(m: int, es: int) -> KernelStats:
    """Expected counters of the explicit-inverse GEMV apply.

    The ``apply_mode="inverse"`` path replaces the TRSV sweeps with
    ``y = D^{-1} x``: load the ``m x m`` inverse column-major
    (coalesced exactly like the LU factor columns), broadcast one
    ``x_j`` per column and accumulate one predicated FMA - ``m``
    *independent* broadcast+FMA pairs with no pivot-record load, no
    reciprocal, and no cross-step dependency.  Contrast with
    :func:`lu_solve_counts`: same ``2 m^2`` useful flops, but the
    TRSV pays ``3m - 1`` dependent shuffles and ``m`` divisions where
    the GEMV pays ``m`` independent shuffles and none - which is the
    whole apply-mode trade (Section II-B of the paper's GJE
    discussion).

    This kind has no warp realisation in :mod:`repro.gpu.warp_lu` (the
    NumPy runtime executes it as one einsum per bin), so unlike the
    factor/solve kinds it is priced from this closed form directly
    rather than replay-verified; its measured counterpart is the
    runtime's inverse apply (``tests/runtime/test_apply_mode.py``
    times it against the TRSV apply).
    """
    s = KernelStats()
    sol_tx = contiguous_sectors(0, m, es)
    col_tx = sum(contiguous_sectors(j * m, m, es) for j in range(m))
    # loads: x, then one inverse column per accumulation step
    s.global_load_instructions = 1 + m
    s.global_load_transactions = sol_tx + col_tx
    s.bytes_loaded = m * es + m * m * es
    s.global_store_instructions = 1
    s.global_store_transactions = sol_tx
    s.bytes_stored = m * es
    # one x_j broadcast + one FMA per column; no divisions
    s.shuffles = m
    s.arith_instructions = m
    s.flops = 2 * m * m
    return s


def interleaved_lu_factor_counts(
    m: int, es: int, tile: int = WARP_WIDTH
) -> KernelStats:
    """Expected counters of a batch-interleaved (SoA) LU factorization.

    One thread per matrix, 32 consecutive matrices per warp: when the
    warp touches element ``(i, j)`` it reads 32 *consecutive* batch
    elements of the ``(tile, tile, nb)`` layout, so every access is
    fully coalesced regardless of ``m`` - the layout's selling point.
    Per problem the amortised transaction rate is exactly
    ``elements * es / SECTOR_BYTES`` with no partial-sector waste
    (contrast :func:`lu_factor_counts`, whose AoS column loads pay up
    to a full extra sector per column).  No shuffles: lanes never
    exchange data.

    The price: one thread cannot keep its whole ``m x m`` block in
    registers, so the right-looking sweep streams the pivot search,
    the row swap, the SCAL column, and the trailing GER block through
    global memory every step - the same ``2/3 m^3`` register-tile
    flops as :func:`lu_factor_counts` but ``O(m^3)`` bytes moved
    instead of ``O(m^2)``.  The projection prices exactly this trade.

    Like ``inverse_apply``, this kind has no warp realisation in
    :mod:`repro.gpu.warp_lu` (the NumPy runtime realises the layout in
    :mod:`repro.core.interleaved`), so it is priced from this closed
    form directly rather than replay-verified; its measured
    counterpart is the ``binned`` backend's factor stage, which runs
    those SoA kernels.
    """
    s = KernelStats()
    loads = 0
    stores = 0
    for k in range(m):
        rem = m - k  # rows in the pivot search
        trail = m - k - 1  # trailing rows/columns
        loads += rem  # pivot-column search
        loads += 2 * m  # row swap reads both rows...
        stores += 2 * m  # ...and writes them back
        loads += trail  # SCAL re-reads the pivot column...
        stores += trail  # ...and writes it scaled
        # GER: trailing block + pivot row in, trailing block out
        loads += trail + trail * trail
        stores += trail * trail
        # per-element serial instructions: compares, div, SCAL, GER
        s.arith_instructions += rem + 1 + trail + trail * trail
        # same full-register-tile flop contract as the AoS kernel
        ger_cols = tile - 1 - k
        active = WARP_WIDTH - k - 1
        s.flops += WARP_WIDTH + active + 2 * active * ger_cols
    s.global_load_instructions = loads
    s.global_store_instructions = stores + m  # + pivot record
    s.bytes_loaded = loads * es
    s.bytes_stored = stores * es + m * _IDX_BYTES
    # fully coalesced: amortised sectors, no per-access rounding waste
    s.global_load_transactions = int(
        np.ceil(loads * es / SECTOR_BYTES)
    )
    s.global_store_transactions = int(
        np.ceil((stores * es + m * _IDX_BYTES) / SECTOR_BYTES)
    )
    return s


def expected_counts(
    kind: str, m: int, es: int, tile: int = WARP_WIDTH
) -> KernelStats:
    """Dispatch by profile kind (same names as ``kernel_profile``)."""
    if kind == "lu_factor":
        return lu_factor_counts(m, es, tile)
    if kind == "lu_solve":
        return lu_solve_counts(m, es)
    if kind in ("gh_factor", "ght_factor"):
        return gh_factor_counts(m, es, kind == "ght_factor", tile)
    if kind in ("gh_solve", "ght_solve"):
        return gh_solve_counts(m, es, kind == "ght_solve")
    raise ValueError(f"unknown kernel kind {kind!r}")
