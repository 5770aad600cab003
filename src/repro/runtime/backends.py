"""Pluggable execution backends for the batch runtime.

Every backend satisfies one protocol - ``factorize(plan, method,
on_singular)`` returning an opaque factorization state, and
``solve(state, plan, rhs)`` returning the solutions in the source block
order - so the executor, the preconditioner, and the conformance tests can
swap them freely, and the differential oracles in :mod:`repro.verify`
can cross-check them against each other:

``"binned"``
    The planner's per-bin execution (the runtime default): one kernel
    call per occupied size bin at the bin's (tight) tile, results
    merged back into source order.  The kernel of each method comes
    from one table.  ``lu`` runs LAPACK ``getrf`` on every block at its
    exact size and packs the factors into the structure-of-arrays
    state of :mod:`repro.core.interleaved` (Gloster et al., PAPERS.md),
    whose solve sweeps touch contiguous length-``nb`` vectors; small
    problems are bound by per-call overhead, and per-block LAPACK beats
    the paper's elimination sweep on every bin the benchmark workloads
    use.  ``gh``/``ght`` run the SoA sweeps; ``gje`` and ``cholesky``,
    which have no SoA realisation, run the AoS cores.
``"numpy"``
    The monolithic AoS reference: one vectorised kernel call on the
    source batch at the source tile - the paper's kernels as written,
    the reference of every equivalence check, and where a resilient
    runtime quarantines failing bins.

Every backend runs every method of :data:`METHODS`.  The external
LAPACK anchor is the ``"scipy"`` oracle of :mod:`repro.verify.oracles`.

What is bitwise and what is held to a tolerance:

* ``binned`` against ``numpy``: ``cholesky`` solutions are bitwise
  (the identity-padded AoS core does the same elementwise operations
  on the active entries at any tile).  ``lu`` agrees to rounding:
  LAPACK orders its updates differently from the paper's kernel.
  ``gh``/``ght`` agree to rounding: the SoA lazy update sums in a
  fixed order where the AoS core uses ``einsum``.  ``gje`` and every
  explicit-inverse apply agree to rounding: the GEMV reduction runs
  over a different length.
* ``binned`` against itself: a block gets bit-identical ``info`` and
  solutions whether it is factorized alone, in a sub-batch, or
  coalesced into a larger batch - the scatter-back invariant of the
  serving layer.  ``getrf`` runs at each block's own size, never the
  bin's tile.  Explicit-inverse states (``gje``
  factors and every ``apply_mode="inverse"`` inverse) are stored at the
  bin's *nominal* tile, so their GEMV reduction length never depends on
  which other blocks share the bin.

Backends additionally advertise an ``invert`` capability
(``supports_invert``): building explicit block inverses from an
existing factorization state so the preconditioner apply becomes one
batched GEMV per bin (``apply_mode="inverse"``).  Both backends build
``lu`` inverses the same way, with LAPACK ``getri`` on the factors the
state already holds, each block at its exact size
(:func:`~repro.core.explicit_inverse.invert_factors`).  An inverse
apply works on raw arrays: each bin's right-hand sides are gathered
into a zeroed array of the inverses' tile, multiplied by one
``einsum`` (:func:`~repro.core.explicit_inverse.inverse_gemv`) and
scattered back, with the padding masks built once per
:class:`BackendInverse`.  A producer that cannot invert (a chaos
wrapper, the quarantine composite) makes the executor fall back to the
factorization apply path with a recorded event.

Degradation (``on_singular``) is honoured by every backend with the
same semantics as the kernels themselves: ``"raise"`` aborts with a
:class:`~repro.core.degradation.SingularBlockError` carrying the
merged, source-ordered ``info``; the substitution policies patch the
failed blocks and record a merged
:class:`~repro.core.degradation.DegradationRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.batch import BatchedVectors, zero_pad_columns
from ..core.batched_cholesky import cholesky_factor, cholesky_solve
from ..core.batched_gauss_huard import gh_factor, gh_solve
from ..core.batched_gauss_jordan import gj_apply, gj_invert
from ..core.batched_lu import lu_factor
from ..core.batched_trsv import lu_solve
from ..core.degradation import (
    DegradationRecord,
    OnSingular,
    SingularBlockError,
)
from ..core.explicit_inverse import (
    GJEInverseState,
    inverse_gemv,
    invert_factors,
    pad_inverses,
)
from ..core.interleaved import (
    interleaved_getrf_factor,
    interleaved_gh_factor,
    interleaved_gh_solve,
    interleaved_lu_solve,
)
from ..telemetry.tracer import get_tracer
from .planner import BinPlan, ExecutionPlan
from .stats import BinStats

__all__ = [
    "BACKENDS",
    "Backend",
    "BackendFactorization",
    "BackendInverse",
    "available_backends",
    "get_backend",
    "register_backend",
]

#: supported factorization methods, mirroring the preconditioner knob
METHODS = ("lu", "gh", "ght", "gje", "cholesky")


#: (factor, solve) kernels of the AoS cores per method; ``factor`` is
#: called as ``factor(batch, on_singular, overwrite)``
AOS_KERNELS: dict[str, tuple[Callable, Callable]] = {
    "lu": (
        lambda b, pol, ow: lu_factor(
            b, pivoting="implicit", overwrite=ow, on_singular=pol
        ),
        lu_solve,
    ),
    "gh": (
        lambda b, pol, ow: gh_factor(b, overwrite=ow, on_singular=pol),
        gh_solve,
    ),
    "ght": (
        lambda b, pol, ow: gh_factor(
            b, transposed=True, overwrite=ow, on_singular=pol
        ),
        gh_solve,
    ),
    "gje": (
        lambda b, pol, ow: gj_invert(b, overwrite=ow, on_singular=pol),
        gj_apply,
    ),
    "cholesky": (
        lambda b, pol, ow: cholesky_factor(b, overwrite=ow, on_singular=pol),
        cholesky_solve,
    ),
}

#: the ``binned`` backend's kernel per method: LAPACK ``getrf`` per
#: block packed into the SoA state for ``lu``, the SoA sweeps for
#: ``gh``/``ght``, the AoS cores otherwise
BINNED_KERNELS: dict[str, tuple[Callable, Callable]] = {
    **AOS_KERNELS,
    "lu": (
        lambda b, pol, ow: interleaved_getrf_factor(
            b, overwrite=ow, on_singular=pol
        ),
        interleaved_lu_solve,
    ),
    "gh": (
        lambda b, pol, ow: interleaved_gh_factor(
            b, overwrite=ow, on_singular=pol
        ),
        interleaved_gh_solve,
    ),
    "ght": (
        lambda b, pol, ow: interleaved_gh_factor(
            b, transposed=True, overwrite=ow, on_singular=pol
        ),
        interleaved_gh_solve,
    ),
}


def _kernels(table: dict, method: str) -> tuple[Callable, Callable]:
    try:
        return table[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; expected one of {METHODS}"
        ) from None


def state_solve(state: tuple) -> Callable:
    """The solve kernel of a ``numpy`` or ``binned`` factorization
    state: ``(method, fac)`` or ``(method, [per-bin facs])``."""
    method, fac = state
    table = BINNED_KERNELS if isinstance(fac, list) else AOS_KERNELS
    return _kernels(table, method)[1]


def _bin_solve(solve: Callable, fac, bin_: BinPlan, rows: np.ndarray):
    """One bin's factor-path solve of ``rows`` (only read), zero-padded
    to the factors' tile: ``gje`` factors are stored at the bin's
    nominal tile."""
    rows = zero_pad_columns(rows, fac.tile)
    return solve(fac, BatchedVectors(rows, bin_.batch.sizes)).data


def _per_bin(plan: ExecutionPlan, data: np.ndarray, apply_bin) -> np.ndarray:
    """Source-ordered solutions from ``apply_bin(i, bin, rows)``.

    ``rows`` is a fresh gather of bin ``i``'s right-hand sides at the
    bin's tile.  Each result's leading ``tile`` columns land in a
    zeroed source-shaped array whose dtype is the first bin's.
    """
    out = None
    for i, b in enumerate(plan.bins):
        y = apply_bin(i, b, data[b.indices, : b.tile])
        if out is None:
            out = np.zeros((plan.nb, plan.source_tile), dtype=y.dtype)
        out[b.indices, : b.tile] = y[:, : b.tile]
    if out is None:  # an empty batch
        out = np.zeros((plan.nb, plan.source_tile), dtype=plan.source.dtype)
    return out


@dataclass
class BackendInverse:
    """Explicit-inverse apply states produced by ``Backend.invert``.

    ``states`` mirrors the backend's factorization state layout: one
    :class:`~repro.core.explicit_inverse.GJEInverseState` for the
    monolithic ``numpy`` backend, a per-bin list for the binned
    backends.  A ``None`` entry in the list means that bin stays on the
    factorization apply path (the autotuner disables losing bins this
    way); ``apply_inverse`` falls back to the factor solve for them.

    ``outside`` holds, per unit, the read-only ``(nb, tile)`` mask of
    GEMV outputs beyond each block's active size, built once here so
    an apply allocates only its own outputs (a handle may be solved
    from two threads at once).  Building refuses states with singular
    blocks.
    """

    states: GJEInverseState | list[GJEInverseState | None]
    outside: list[np.ndarray | None] = field(init=False, repr=False)

    def __post_init__(self):
        self.outside = []
        for s in self.units():
            mask = None
            if s is not None:
                if not s.ok:
                    bad = int(np.count_nonzero(s.info))
                    raise ValueError(
                        f"cannot apply inverses with {bad} singular "
                        "block(s); inspect GJEInverseState.info"
                    )
                mask = ~s.inverses.row_mask()
                mask.flags.writeable = False
            self.outside.append(mask)

    def units(self) -> list[GJEInverseState | None]:
        """The states as a flat list, whatever the layout."""
        s = self.states
        return list(s) if isinstance(s, list) else [s]


@dataclass
class BackendFactorization:
    """What a backend hands back: opaque state + source-ordered status.

    ``state`` is backend-specific (a kernel result or a list of per-bin
    kernel results) and only meaningful to
    the backend that produced it.  ``info`` and ``degradation`` follow
    the kernels' conventions, in *source* block order.
    """

    state: object
    info: np.ndarray
    degradation: DegradationRecord | None = None

    @property
    def ok(self) -> bool:
        return bool((self.info == 0).all())


class Backend:
    """Protocol base: subclass, set ``name``, register."""

    name: str = "?"
    #: whether this backend can build explicit inverses for the
    #: ``apply_mode="inverse"`` path (``invert``/``apply_inverse``)
    supports_invert: bool = False

    def factorize(
        self,
        plan: ExecutionPlan,
        method: str = "lu",
        on_singular: OnSingular | None = None,
    ) -> BackendFactorization:
        raise NotImplementedError

    def solve(
        self,
        state: object,
        plan: ExecutionPlan,
        rhs: BatchedVectors,
    ) -> BatchedVectors:
        raise NotImplementedError

    def bin_stats(self, plan: ExecutionPlan, method: str) -> list[BinStats]:
        """Padding accounting of how *this* backend executes the plan
        with ``method``."""
        raise NotImplementedError

    def invert(
        self, state: object, plan: ExecutionPlan
    ) -> BackendInverse:
        """Build explicit inverses from a factorization state.

        Only meaningful when ``supports_invert`` is True; the executor
        checks the flag and falls back to the factorization apply path
        otherwise.
        """
        raise NotImplementedError

    def apply_inverse(
        self,
        inv: BackendInverse,
        state: object,
        plan: ExecutionPlan,
        data: np.ndarray,
    ) -> np.ndarray:
        """Apply explicit inverses to the right-hand sides ``data``, a
        C-contiguous ``(nb, source_tile)`` array in source order (only
        read); returns a fresh array of the solutions.  ``state`` backs
        the factor-path fallback for units whose inverse was disabled."""
        raise NotImplementedError


# -- registry ----------------------------------------------------------------

BACKENDS: dict[str, type[Backend]] = {}


def register_backend(cls: type[Backend]) -> type[Backend]:
    """Class decorator: add a backend to the registry by its ``name``."""
    if not getattr(cls, "name", None) or cls.name == "?":
        raise ValueError(f"backend class {cls.__name__} needs a name")
    BACKENDS[cls.name] = cls
    return cls


def get_backend(name: str) -> Backend:
    """Instantiate a registered backend (raises on an unknown name)."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; registered: {sorted(BACKENDS)}"
        ) from None
    return cls()


def available_backends() -> list[str]:
    """Registered backends, sorted."""
    return sorted(BACKENDS)


# -- shared binned machinery -------------------------------------------------


def merge_bin_status(
    plan: ExecutionPlan,
    method: str,
    on_singular: OnSingular | None,
    units: list,
    state: object,
) -> BackendFactorization:
    """One source-ordered factorization from per-bin results.

    ``units`` are the bins' results in plan order (anything with
    ``info`` and ``degradation``).  The ``"raise"`` policy is evaluated
    on the *merged* status so the error reports every singular block
    of the whole batch (bin-local raising would only name the first
    offending bin); the substitution policies scatter the per-bin
    degradation records into one.
    """
    info = plan.scatter_per_block([u.info for u in units])
    if on_singular == "raise" and np.any(info):
        failed = np.nonzero(info)[0]
        raise SingularBlockError(
            f"{failed.size} block(s) failed the batched {method} "
            f"factorization (first failing steps: info={info[failed][:8]}...); "
            "pass on_singular='identity'|'scalar'|'shift' to degrade "
            "gracefully instead of aborting",
            info,
        )
    record = None
    if on_singular is not None:
        # a clean batch under "raise" records an all-clear
        record = DegradationRecord(
            on_singular,
            info.copy(),
            np.zeros(plan.nb, dtype=np.int8),
            np.zeros(plan.nb, dtype=np.float64),
        )
        for b, u in zip(plan.bins, units):
            if on_singular != "raise" and u.degradation is not None:
                record.original_info[b.indices] = u.degradation.original_info
                record.action[b.indices] = u.degradation.action
                record.shift[b.indices] = u.degradation.shift
    return BackendFactorization(state=state, info=info, degradation=record)


def _factor_bins(
    plan: ExecutionPlan,
    method: str,
    on_singular: OnSingular | None,
) -> BackendFactorization:
    """Factorize every bin with the method's ``BINNED_KERNELS`` entry."""
    factor, _ = _kernels(BINNED_KERNELS, method)
    per_bin_policy = (
        None if on_singular in (None, "raise") else on_singular
    )
    tr = get_tracer()
    facs = []
    for b in plan.bins:
        if tr.enabled:
            with tr.span(
                f"factorize.bin[tile={b.tile}]",
                cat="runtime",
                tile=b.tile,
                nb=b.nb,
                method=method,
            ):
                fac = factor(b.batch, per_bin_policy, True)
        else:
            fac = factor(b.batch, per_bin_policy, True)
        if method == "gje":  # its factors are inverses, applied by GEMV
            fac.inverses = pad_inverses(fac.inverses, b.nominal_tile)
        facs.append(fac)
    return merge_bin_status(plan, method, on_singular, facs, (method, facs))


def _binned_stats(plan: ExecutionPlan, method: str) -> list[BinStats]:
    """Per-bin accounting: ``lu`` bins run ``getrf`` at each block's
    exact size and pad nothing; the other kernels run the tight tile."""
    return [
        BinStats(
            nominal_tile=b.nominal_tile,
            tile=b.tile,
            nb=b.nb,
            useful_flops=b.useful_flops_lu(),
            padded_flops=(
                b.useful_flops_lu() if method == "lu"
                else b.padded_flops_lu()
            ),
        )
        for b in plan.bins
    ]


# -- backends ----------------------------------------------------------------


@register_backend
class NumpyBackend(Backend):
    """Monolithic AoS execution at the source tile (the reference)."""

    name = "numpy"
    supports_invert = True

    def factorize(self, plan, method="lu", on_singular=None):
        factor, _ = _kernels(AOS_KERNELS, method)
        fac = factor(plan.source, on_singular, False)
        return BackendFactorization(
            state=(method, fac),
            info=fac.info.copy(),
            degradation=fac.degradation,
        )

    def solve(self, state, plan, rhs):
        return state_solve(state)(state[1], rhs)

    def invert(self, state, plan):
        _, fac = state
        return BackendInverse(states=invert_factors(fac))

    def apply_inverse(self, inv, state, plan, data):
        if inv.states is None:
            rhs = BatchedVectors(data, plan.source.sizes)
            return self.solve(state, plan, rhs).data
        return inverse_gemv(inv.states.inverses.data, inv.outside[0], data)

    def bin_stats(self, plan, method):
        src = plan.source
        if src.nb == 0:
            return []
        return [
            BinStats(
                nominal_tile=src.tile,
                tile=src.tile,
                nb=src.nb,
                useful_flops=src.flops_lu(),
                padded_flops=src.flops_lu_padded(),
            )
        ]


@register_backend
class BinnedBackend(Backend):
    """Per-bin padded execution of the plan (the runtime default)."""

    name = "binned"
    supports_invert = True

    def factorize(self, plan, method="lu", on_singular=None):
        return _factor_bins(plan, method, on_singular)

    def solve(self, state, plan, rhs):
        facs = state[1]
        solve = state_solve(state)
        out = _per_bin(
            plan, rhs.data, lambda i, b, x: _bin_solve(solve, facs[i], b, x)
        )
        return BatchedVectors(out, plan.source.sizes.copy())

    def invert(self, state, plan):
        return BackendInverse(
            states=[
                invert_factors(f, tile=b.nominal_tile)
                for f, b in zip(state[1], plan.bins)
            ]
        )

    def apply_inverse(self, inv, state, plan, data):
        """Per-bin GEMV apply; bins with a disabled inverse (None
        entry) run the factorization solve instead."""
        facs = state[1]
        solve = state_solve(state)

        def apply_bin(i, b, x):
            s = inv.states[i]
            if s is None:
                return _bin_solve(solve, facs[i], b, x)
            return inverse_gemv(s.inverses.data, inv.outside[i], x)

        return _per_bin(plan, data, apply_bin)

    def bin_stats(self, plan, method):
        return _binned_stats(plan, method)
