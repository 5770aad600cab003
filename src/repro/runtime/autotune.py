"""Per-bin apply-mode autotuner for ``apply_mode="auto"``.

The apply-mode trade is size- and shape-dependent: the explicit
inverse costs extra setup (LAPACK ``getri``'s ``4/3 m^3`` flops per
block after the LU factorization's ``2/3 m^3``) but answers every
apply with one ``2 m^2`` GEMV, while
the factorization apply pays the triangular sweeps' ``2 m^2`` flops
*serially* over ``m`` elimination steps (per-``k`` Python loops in
this realisation, dependent warp steps on the GPU).  Which side wins
on a given bin depends on the tile, the bin population, and how many
applies the handle will answer.

``tune_apply_mode`` measures both apply paths per execution unit (one
probe right-hand side, best of ``repeats`` timed runs), keeps the
inverse only where it actually wins, and records the measured
apply-seconds ratio plus the break-even apply count
``invert_seconds / (factor_apply - inverse_apply)`` - the number of
applies after which the setup premium has paid for itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..clock import PERF
from ..core.batch import BatchedVectors
from ..core.explicit_inverse import inverse_gemv
from ..telemetry.serialize import to_native
from .backends import BackendInverse, state_solve

__all__ = ["ApplyModeTuning", "BinTuning", "tune_apply_mode"]


@dataclass
class BinTuning:
    """Measured apply costs and the decision for one execution unit."""

    tile: int
    nb: int
    factor_seconds: float
    inverse_seconds: float
    mode: str  # "inverse" or "factor"

    @property
    def speedup(self) -> float:
        """Factor-apply over inverse-apply wall time (>1: inverse wins)."""
        if self.inverse_seconds <= 0.0:
            return float("inf")
        return self.factor_seconds / self.inverse_seconds

    def to_dict(self) -> dict:
        return to_native(
            {
                "tile": self.tile,
                "nb": self.nb,
                "factor_seconds": self.factor_seconds,
                "inverse_seconds": self.inverse_seconds,
                "speedup": self.speedup,
                "mode": self.mode,
            }
        )


@dataclass
class ApplyModeTuning:
    """Outcome of one ``tune_apply_mode`` run."""

    bins: list[BinTuning] = field(default_factory=list)
    invert_seconds: float = 0.0

    @property
    def mode(self) -> str:
        """Effective apply mode: "inverse", "factor", or "mixed"."""
        kept = sum(1 for b in self.bins if b.mode == "inverse")
        if kept == len(self.bins) and self.bins:
            return "inverse"
        return "factor" if kept == 0 else "mixed"

    @property
    def break_even_applies(self) -> float:
        """Applies needed before the inverse setup premium pays off.

        ``inf`` when the factor apply is at least as fast everywhere
        (the inverse never pays off).
        """
        gain = sum(
            b.factor_seconds - b.inverse_seconds
            for b in self.bins
            if b.mode == "inverse"
        )
        if gain <= 0.0:
            return float("inf")
        return self.invert_seconds / gain

    def to_dict(self) -> dict:
        return to_native(
            {
                "mode": self.mode,
                "invert_seconds": self.invert_seconds,
                "break_even_applies": self.break_even_applies,
                "bins": [b.to_dict() for b in self.bins],
            }
        )


def _best_of(fn, repeats: int, clock=PERF) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = clock()
        fn()
        best = min(best, clock() - t0)
    return best


def tune_apply_mode(
    state: object,
    inverse: BackendInverse,
    invert_seconds: float = 0.0,
    repeats: int = 3,
    clock=PERF,
) -> ApplyModeTuning:
    """Measure both apply paths per unit and disable losing inverses.

    ``state`` is a NumPy-family backend factorization state (``(method,
    fac)`` or ``(method, [per-bin facs])``); ``inverse`` is the
    matching :class:`~repro.runtime.backends.BackendInverse`, mutated
    in place: list entries whose factor apply won are set to None so
    ``apply_inverse`` routes those bins back to the triangular path.

    ``clock`` is injectable (same convention as the resilience
    CircuitBreaker): tests pass a scripted clock to force either
    verdict deterministically instead of depending on wall time.  Each
    timed run reads the clock exactly twice (start, stop), ``repeats``
    times per path, factor path first.
    """
    solve = state_solve(state)
    binned = isinstance(inverse.states, list)
    facs = state[1] if binned else [state[1]]
    units = inverse.units()
    tuning = ApplyModeTuning(invert_seconds=float(invert_seconds))
    for i, (fac, inv) in enumerate(zip(facs, units)):
        # GJInverse exposes sizes via its inner batch, the factor
        # containers directly
        sizes = (
            fac.inverses.sizes if hasattr(fac, "inverses") else fac.sizes
        )
        probe = BatchedVectors(
            np.ones((fac.nb, fac.tile)), np.array(sizes)
        )
        t_factor = _best_of(lambda: solve(fac, probe), repeats, clock)
        t_inverse = _best_of(
            lambda: inverse_gemv(
                inv.inverses.data, inverse.outside[i], probe.data
            ),
            repeats,
            clock,
        )
        mode = "inverse" if t_inverse <= t_factor else "factor"
        if mode == "factor":
            if binned:
                inverse.states[i] = None
            else:
                inverse.states = None
        tuning.bins.append(
            BinTuning(
                tile=fac.tile,
                nb=fac.nb,
                factor_seconds=t_factor,
                inverse_seconds=t_inverse,
                mode=mode,
            )
        )
    return tuning
