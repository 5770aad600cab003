"""Batched containers for collections of small, variable-size problems.

The paper's kernels operate on *batches*: thousands of independent small
matrices (4x4 ... 32x32) processed by one GPU kernel launch.  On the GPU
each problem is padded to the warp-tile size (32) so that a uniform
register-resident loop can be used; the same trick is replicated here so
that every batched routine in :mod:`repro.core` runs a uniform,
vectorised ``tile``-step loop over a dense ``(nb, tile, tile)`` array.

Padding convention
------------------
A matrix of active size ``m < tile`` occupies the leading ``m x m``
sub-block; the remainder of the tile is padded with the *identity*
pattern (ones on the diagonal, zeros elsewhere).  With this convention
the LU/GH/Cholesky factorizations of the padded tile coincide with the
factorization of the active block (the trailing steps factor the
identity, which is a no-op), so variable-size batches can be processed
by fixed-trip-count loops exactly as the CUDA kernels in the paper do.
The performance model charges for the wasted padding flops, which is
what produces the paper's observed behaviour of the eager LU for block
sizes below 32 (Section IV-B).

Zero-copy discipline
--------------------
Following the HPC-Python guidance used for this project, the containers
hand out *views*, never copies, unless a copy is explicitly requested,
and all mutating kernels work in place on the ``data`` array.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "DEFAULT_BINS",
    "MAX_TILE",
    "BatchedMatrices",
    "BatchedVectors",
    "round_up_tile",
    "zero_pad_columns",
]

#: Largest supported register tile; mirrors the CUDA warp width used by the
#: paper's kernels (one matrix row per lane, at most 32 rows).
MAX_TILE = 32

#: The warp-tile ladder of the paper's kernel mapping (Section III): a
#: variable-size batch is dispatched as sub-batches padded to the
#: smallest of these tiles that fits each block.  Used by the runtime
#: planner's size binning and by :meth:`BatchedMatrices.split_by_size`.
DEFAULT_BINS = (4, 8, 16, 32)

_ALLOWED_DTYPES = (np.float32, np.float64)


def round_up_tile(max_size: int) -> int:
    """Return the smallest supported tile that fits ``max_size`` rows.

    The CUDA kernels in the paper always use a full warp (32 lanes);
    useful tile sizes for the analytic model are powers of two up to 32,
    so we round up to the next power of two, clamped to ``MAX_TILE``.

    >>> round_up_tile(5)
    8
    >>> round_up_tile(17)
    32
    """
    if max_size < 1:
        raise ValueError(f"max_size must be positive, got {max_size}")
    if max_size > MAX_TILE:
        raise ValueError(
            f"max_size {max_size} exceeds the register tile limit {MAX_TILE}; "
            "larger problems are outside the scope of the small-size kernels"
        )
    tile = 1
    while tile < max_size:
        tile *= 2
    return tile


def zero_pad_columns(rows: np.ndarray, width: int) -> np.ndarray:
    """``rows`` zero-padded to ``width`` columns in a fresh C-contiguous
    array; ``rows`` itself when it already is one of that width."""
    if rows.shape[1] == width and rows.flags.c_contiguous:
        return rows
    x = np.zeros((rows.shape[0], width), dtype=rows.dtype)
    x[:, : rows.shape[1]] = rows
    return x


def _as_dtype(dtype) -> np.dtype:
    dt = np.dtype(dtype)
    if dt.type not in _ALLOWED_DTYPES:
        raise TypeError(
            f"unsupported dtype {dt}; the batched kernels support float32 "
            "(the paper's 'single precision') and float64 ('double precision')"
        )
    return dt


class BatchedMatrices:
    """A batch of small square matrices of (possibly) different sizes.

    Parameters
    ----------
    data:
        C-contiguous array of shape ``(nb, tile, tile)``.  Entry ``i``
        holds matrix ``i`` in its leading ``sizes[i] x sizes[i]`` block.
    sizes:
        Integer array of shape ``(nb,)`` with ``1 <= sizes[i] <= tile``.

    Notes
    -----
    Use the classmethods :meth:`from_arrays`, :meth:`zeros` or
    :meth:`identity_padded` to construct instances; the constructor
    validates but does not copy.
    """

    __slots__ = ("data", "sizes")

    def __init__(self, data: np.ndarray, sizes: np.ndarray):
        data = np.asarray(data)
        sizes = np.asarray(sizes, dtype=np.int64)
        if data.ndim != 3 or data.shape[1] != data.shape[2]:
            raise ValueError(
                f"data must have shape (nb, tile, tile), got {data.shape}"
            )
        _as_dtype(data.dtype)
        nb, tile, _ = data.shape
        if tile < 1 or tile > MAX_TILE:
            raise ValueError(f"tile must be in [1, {MAX_TILE}], got {tile}")
        if sizes.shape != (nb,):
            raise ValueError(
                f"sizes must have shape ({nb},), got {sizes.shape}"
            )
        if nb and (sizes.min() < 1 or sizes.max() > tile):
            raise ValueError(
                f"sizes must lie in [1, {tile}]; got range "
                f"[{sizes.min()}, {sizes.max()}]"
            )
        if not data.flags.c_contiguous:
            # Batched kernels stream the tile rows; non-contiguous input
            # would silently serialise every inner update.
            data = np.ascontiguousarray(data)
        self.data = data
        self.sizes = sizes

    # -- construction -----------------------------------------------------

    @classmethod
    def zeros(cls, nb: int, tile: int, dtype=np.float64) -> "BatchedMatrices":
        """Batch of ``nb`` all-zero ``tile x tile`` matrices (uniform size)."""
        dt = _as_dtype(dtype)
        data = np.zeros((nb, tile, tile), dtype=dt)
        sizes = np.full(nb, tile, dtype=np.int64)
        return cls(data, sizes)

    @classmethod
    def identity_padded(
        cls, matrices: Sequence[np.ndarray], tile: int | None = None, dtype=None
    ) -> "BatchedMatrices":
        """Pack a list of small square matrices into a padded batch.

        Every matrix is copied into the leading block of a ``tile``-sized
        slot; the slot's trailing part is filled with the identity pattern
        (see the module docstring for why).

        Parameters
        ----------
        matrices:
            Sequence of 2-D square arrays, each of size at most ``tile``.
        tile:
            Tile size; defaults to ``round_up_tile(max block size)``.
        dtype:
            Target dtype; defaults to the common dtype of the inputs
            promoted to at least float32.
        """
        mats = [np.asarray(m) for m in matrices]
        if not mats:
            raise ValueError("cannot build a batch from an empty sequence")
        for i, m in enumerate(mats):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(
                    f"matrix {i} is not square: shape {m.shape}"
                )
        sizes = np.array([m.shape[0] for m in mats], dtype=np.int64)
        if tile is None:
            tile = round_up_tile(int(sizes.max()))
        if sizes.max() > tile:
            raise ValueError(
                f"largest block ({sizes.max()}) exceeds tile ({tile})"
            )
        if dtype is None:
            dtype = np.result_type(np.float32, *[m.dtype for m in mats])
        dt = _as_dtype(dtype)
        nb = len(mats)
        data = np.zeros((nb, tile, tile), dtype=dt)
        # Identity padding for the whole batch, then overwrite the leading
        # blocks.  Writing the identity first keeps this fully vectorised.
        idx = np.arange(tile)
        data[:, idx, idx] = 1.0
        for i, m in enumerate(mats):
            k = m.shape[0]
            data[i, :k, :k] = m
            if k < tile:
                data[i, :k, k:] = 0.0
                data[i, k:, :k] = 0.0
        return cls(data, sizes)

    @classmethod
    def from_arrays(
        cls, data: np.ndarray, sizes: np.ndarray | None = None
    ) -> "BatchedMatrices":
        """Wrap an existing ``(nb, tile, tile)`` array (no copy if possible).

        If ``sizes`` is omitted, all problems are assumed to be full-tile.
        """
        data = np.asarray(data)
        if sizes is None:
            sizes = np.full(data.shape[0], data.shape[1], dtype=np.int64)
        return cls(data, sizes)

    # -- basic protocol ---------------------------------------------------

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def nb(self) -> int:
        """Number of problems in the batch."""
        return self.data.shape[0]

    @property
    def tile(self) -> int:
        """Padded (register) tile size."""
        return self.data.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def uniform(self) -> bool:
        """True if all problems share the same active size."""
        return bool(self.nb == 0 or (self.sizes == self.sizes[0]).all())

    def block(self, i: int) -> np.ndarray:
        """View of the active block of problem ``i`` (no copy)."""
        m = int(self.sizes[i])
        return self.data[i, :m, :m]

    def blocks(self) -> Iterator[np.ndarray]:
        """Iterate over active-block views."""
        for i in range(self.nb):
            yield self.block(i)

    def copy(self) -> "BatchedMatrices":
        return BatchedMatrices(self.data.copy(), self.sizes.copy())

    def astype(self, dtype) -> "BatchedMatrices":
        dt = _as_dtype(dtype)
        return BatchedMatrices(self.data.astype(dt), self.sizes.copy())

    def row_mask(self) -> np.ndarray:
        """Boolean ``(nb, tile)`` mask of rows inside the active block."""
        return np.arange(self.tile)[None, :] < self.sizes[:, None]

    def active_mask(self) -> np.ndarray:
        """Boolean ``(nb, tile, tile)`` mask of the active blocks."""
        rm = self.row_mask()
        return rm[:, :, None] & rm[:, None, :]

    def flops_lu(self) -> int:
        """Useful flop count of an LU factorization of the batch.

        Uses the paper's convention (Section II-B): ``2/3 m^3`` leading
        term per block, i.e. the classical getrf count
        ``m^3*2/3 - m^2/2 - m/6`` rounded to the leading terms the paper
        uses for its GFLOPS plots.
        """
        m = self.sizes.astype(np.float64)
        return int(np.sum(2.0 * m**3 / 3.0))

    def flops_trsv_pair(self) -> int:
        """Useful flops of one lower+upper triangular solve per block."""
        m = self.sizes.astype(np.float64)
        return int(np.sum(2.0 * m**2))

    def flops_lu_padded(self, tile: int | None = None) -> int:
        """Flops *charged* by the uniform ``tile``-step LU loop.

        Every block, whatever its active size, executes the full
        fixed-trip-count elimination at the padded tile (the identity
        padding is numerically inert but its flops are real work on the
        GPU and real vector lanes here): ``nb * 2/3 tile^3``.  Defaults
        to this batch's own tile.
        """
        t = self.tile if tile is None else int(tile)
        if t < 1:
            raise ValueError(f"tile must be positive, got {t}")
        return int(self.nb * 2.0 * float(t) ** 3 / 3.0)

    def split_by_size(
        self, bins: Sequence[int] | None = DEFAULT_BINS
    ) -> dict[int, np.ndarray]:
        """Group the blocks into size bins; the runtime planner's kernel.

        Parameters
        ----------
        bins:
            Ascending candidate tile sizes (default: the warp ladder
            ``(4, 8, 16, 32)``).  Each block is assigned to the
            smallest bin that fits it.  ``None`` groups by *exact*
            active size (one bin per distinct size).

        Returns
        -------
        dict
            ``{bin_tile: indices}`` where ``indices`` is the
            increasing array of batch positions assigned to that bin
            (stable: original order preserved within each bin).  Only
            occupied bins appear; keys ascend.  The index arrays
            partition ``arange(nb)``.
        """
        if self.nb == 0:
            return {}
        if bins is None:
            uniq = np.unique(self.sizes)
            return {
                int(u): np.nonzero(self.sizes == u)[0] for u in uniq
            }
        edges = np.asarray(sorted(int(b) for b in bins), dtype=np.int64)
        if edges.size == 0:
            raise ValueError("bins must not be empty")
        if edges[0] < 1:
            raise ValueError(f"bins must be positive, got {edges[0]}")
        if np.unique(edges).size != edges.size:
            raise ValueError(f"bins must be distinct, got {list(edges)}")
        if int(self.sizes.max()) > edges[-1]:
            raise ValueError(
                f"largest block ({int(self.sizes.max())}) exceeds the "
                f"largest bin ({int(edges[-1])})"
            )
        which = np.searchsorted(edges, self.sizes)  # smallest bin >= size
        out: dict[int, np.ndarray] = {}
        for b, edge in enumerate(edges):
            idx = np.nonzero(which == b)[0]
            if idx.size:
                out[int(edge)] = idx
        return out

    def padding_waste(
        self, bins: Sequence[int] | None = DEFAULT_BINS
    ) -> Mapping[int, dict]:
        """Per-bin padding-waste accounting of the LU flop charge.

        Historically only the whole-batch waste at the batch tile was
        derivable (``flops_lu_padded() - flops_lu()``); this reports
        where the waste lives.  For every occupied bin of
        :meth:`split_by_size`: the number of blocks, the useful flops
        (``sum 2/3 m^3``), the flops charged when the bin executes at
        its own tile, and the waste (charged - useful).

        Returns
        -------
        dict
            ``{bin_tile: {"nb", "useful_flops", "padded_flops",
            "waste_flops", "waste_fraction"}}``, ordered by bin tile.
        """
        report: dict[int, dict] = {}
        for tile, idx in self.split_by_size(bins).items():
            m = self.sizes[idx].astype(np.float64)
            useful = int(np.sum(2.0 * m**3 / 3.0))
            padded = int(idx.size * 2.0 * float(tile) ** 3 / 3.0)
            waste = padded - useful
            report[tile] = {
                "nb": int(idx.size),
                "useful_flops": useful,
                "padded_flops": padded,
                "waste_flops": waste,
                "waste_fraction": waste / padded if padded else 0.0,
            }
        return report

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.nb and not self.uniform:
            size_s = f"sizes[{int(self.sizes.min())}..{int(self.sizes.max())}]"
        else:
            size_s = f"size={int(self.sizes[0]) if self.nb else 0}"
        return (
            f"BatchedMatrices(nb={self.nb}, tile={self.tile}, {size_s}, "
            f"dtype={self.dtype.name})"
        )


class BatchedVectors:
    """A batch of small vectors matching a :class:`BatchedMatrices` batch.

    Stored as a dense ``(nb, tile)`` array, zero padded beyond the active
    length.  Used for right-hand sides and solutions of the batched
    triangular solves.
    """

    __slots__ = ("data", "sizes")

    def __init__(self, data: np.ndarray, sizes: np.ndarray):
        data = np.asarray(data)
        sizes = np.asarray(sizes, dtype=np.int64)
        if data.ndim != 2:
            raise ValueError(f"data must be 2-D (nb, tile), got {data.shape}")
        _as_dtype(data.dtype)
        nb, tile = data.shape
        if sizes.shape != (nb,):
            raise ValueError(f"sizes must have shape ({nb},), got {sizes.shape}")
        if nb and (sizes.min() < 1 or sizes.max() > tile):
            raise ValueError("sizes out of range")
        if not data.flags.c_contiguous:
            data = np.ascontiguousarray(data)
        self.data = data
        self.sizes = sizes

    @classmethod
    def zeros(cls, nb: int, tile: int, sizes=None, dtype=np.float64):
        dt = _as_dtype(dtype)
        data = np.zeros((nb, tile), dtype=dt)
        if sizes is None:
            sizes = np.full(nb, tile, dtype=np.int64)
        return cls(data, np.asarray(sizes, dtype=np.int64))

    @classmethod
    def from_vectors(
        cls, vectors: Sequence[np.ndarray], tile: int | None = None, dtype=None
    ) -> "BatchedVectors":
        """Pack a list of 1-D vectors into a zero-padded batch."""
        vecs = [np.asarray(v).ravel() for v in vectors]
        if not vecs:
            raise ValueError("cannot build a batch from an empty sequence")
        sizes = np.array([v.shape[0] for v in vecs], dtype=np.int64)
        if tile is None:
            tile = round_up_tile(int(sizes.max()))
        if dtype is None:
            dtype = np.result_type(np.float32, *[v.dtype for v in vecs])
        dt = _as_dtype(dtype)
        data = np.zeros((len(vecs), tile), dtype=dt)
        for i, v in enumerate(vecs):
            data[i, : v.shape[0]] = v
        return cls(data, sizes)

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def nb(self) -> int:
        return self.data.shape[0]

    @property
    def tile(self) -> int:
        return self.data.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def vector(self, i: int) -> np.ndarray:
        """View of the active part of vector ``i``."""
        return self.data[i, : int(self.sizes[i])]

    def vectors(self) -> Iterator[np.ndarray]:
        for i in range(self.nb):
            yield self.vector(i)

    def copy(self) -> "BatchedVectors":
        return BatchedVectors(self.data.copy(), self.sizes.copy())

    def row_mask(self) -> np.ndarray:
        """Boolean ``(nb, tile)`` mask of entries inside the active part."""
        return np.arange(self.tile)[None, :] < self.sizes[:, None]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchedVectors(nb={self.nb}, tile={self.tile}, "
            f"dtype={self.dtype.name})"
        )
