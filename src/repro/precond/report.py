"""Setup diagnostics for the block-Jacobi preconditioner.

The paper's setup phase is a black box that either succeeds or (in the
historical implementation) aborts.  Production preconditioner stacks
instead *report*: which blocks failed, what was substituted for them,
and how well-conditioned the surviving blocks are.  The
:class:`SetupReport` collects exactly that; the CLI ``solve`` command
prints its :meth:`~SetupReport.summary`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.degradation import ACTION_IDENTITY, ACTION_SCALAR, ACTION_SHIFT
from ..runtime.stats import RuntimeReport
from ..telemetry.serialize import to_native

__all__ = ["SetupReport"]


@dataclass
class SetupReport:
    """What happened during ``BlockJacobiPreconditioner.setup``.

    Attributes
    ----------
    method:
        The factorization backend the user requested.
    effective_method:
        The backend actually used for the stored factors: differs from
        ``method`` only when ``"cholesky"`` fell back to ``"lu"`` on
        non-SPD blocks (the documented policy).
    on_singular:
        The degradation policy in force during setup.
    block_sizes:
        The block partition used.
    info:
        Per-block factorization status *before* any substitution
        (LAPACK semantics: 0 = clean, ``k+1`` = step ``k`` failed).
        For the Cholesky→LU fallback this is the LU status.
    action:
        Per-block substitution action codes
        (:data:`repro.core.degradation.ACTION_NAMES`).
    shift:
        Diagonal shift applied per block (nonzero only where the
        ``"shift"`` policy succeeded).
    cholesky_lu_fallback:
        True when ``method="cholesky"`` hit non-SPD blocks and the
        whole batch was refactorized with LU.
    n_nonspd:
        Number of blocks the Cholesky factorization flagged (0 unless
        ``method="cholesky"``).
    condition_estimates:
        1-norm condition estimates ``||D_i||_1 * ||D_i^{-1}||_1`` of the
        surviving (non-substituted) blocks; NaN for substituted blocks
        and when estimation was disabled.
    apply_mode, effective_apply_mode:
        The apply mode requested at construction and the one actually
        in force after setup (``"factor"`` when the explicit inverse
        could not be built, ``"mixed"`` when the runtime autotuner
        kept it on some bins only).
    setup_seconds:
        Wall time of extraction + factorization (+ estimation).
    runtime:
        The :class:`~repro.runtime.stats.RuntimeReport` of the setup's
        factorization when it ran through the
        :mod:`repro.runtime` executor (``runtime=``/``backend=``
        knobs); None on the direct kernel path.
    """

    method: str
    effective_method: str
    on_singular: str
    block_sizes: np.ndarray
    info: np.ndarray
    action: np.ndarray
    shift: np.ndarray
    cholesky_lu_fallback: bool = False
    n_nonspd: int = 0
    condition_estimates: np.ndarray | None = None
    setup_seconds: float = 0.0
    apply_mode: str = "factor"
    effective_apply_mode: str = "factor"
    runtime: RuntimeReport | None = None

    @property
    def n_blocks(self) -> int:
        return int(self.block_sizes.size)

    @property
    def n_singular(self) -> int:
        """Blocks the (effective) factorization originally flagged."""
        return int(np.count_nonzero(self.info))

    @property
    def n_fallbacks(self) -> int:
        return int(np.count_nonzero(self.action))

    @property
    def n_identity(self) -> int:
        return int(np.count_nonzero(self.action == ACTION_IDENTITY))

    @property
    def n_scalar(self) -> int:
        return int(np.count_nonzero(self.action == ACTION_SCALAR))

    @property
    def n_shift(self) -> int:
        return int(np.count_nonzero(self.action == ACTION_SHIFT))

    @property
    def clean(self) -> bool:
        """True when every block factorized without intervention."""
        return self.n_singular == 0 and not self.cholesky_lu_fallback

    @property
    def resilience_events(self) -> list[dict]:
        """Fallback/quarantine events of the setup's runtime call
        (empty without a runtime report or on a fault-free run)."""
        if self.runtime is None:
            return []
        return list(self.runtime.fallback_events)

    @property
    def quarantined_bins(self) -> list[int]:
        """Size bins the runtime quarantined to the reference backend."""
        if self.runtime is None:
            return []
        return list(self.runtime.quarantined_bins)

    @property
    def degraded_execution(self) -> bool:
        """True when the setup survived an execution fault (backend
        fallback or bin quarantine) - distinct
        from *numerical* degradation (``n_fallbacks``)."""
        if self.runtime is None:
            return False
        return bool(
            self.runtime.fallback_events or self.runtime.quarantined_bins
        )

    @property
    def max_condition(self) -> float:
        """Largest finite condition estimate (NaN if none available)."""
        if self.condition_estimates is None:
            return float("nan")
        finite = self.condition_estimates[
            np.isfinite(self.condition_estimates)
        ]
        return float(finite.max()) if finite.size else float("nan")

    def to_dict(self) -> dict:
        """JSON-safe dict of the whole report (native Python types;
        condition estimates keep NaN as ``None``)."""
        return to_native(
            {
                "method": self.method,
                "effective_method": self.effective_method,
                "on_singular": self.on_singular,
                "n_blocks": self.n_blocks,
                "block_sizes": self.block_sizes,
                "info": self.info,
                "action": self.action,
                "shift": self.shift,
                "n_singular": self.n_singular,
                "n_fallbacks": self.n_fallbacks,
                "n_identity": self.n_identity,
                "n_scalar": self.n_scalar,
                "n_shift": self.n_shift,
                "clean": self.clean,
                "cholesky_lu_fallback": self.cholesky_lu_fallback,
                "n_nonspd": self.n_nonspd,
                "condition_estimates": self.condition_estimates,
                "max_condition": self.max_condition,
                "setup_seconds": self.setup_seconds,
                "apply_mode": self.apply_mode,
                "effective_apply_mode": self.effective_apply_mode,
                "degraded_execution": self.degraded_execution,
                "runtime": (
                    None if self.runtime is None else self.runtime.to_dict()
                ),
            }
        )

    def summary(self) -> str:
        """Multi-line human-readable setup summary (CLI output)."""
        sizes = self.block_sizes
        lines = [
            f"block-Jacobi[{self.method}] setup: {self.n_blocks} blocks "
            f"(largest {int(sizes.max()) if sizes.size else 0}), "
            f"{self.setup_seconds * 1e3:.1f} ms"
        ]
        if self.cholesky_lu_fallback:
            lines.append(
                f"  cholesky: {self.n_nonspd} non-SPD block(s) -> "
                "whole batch refactorized with LU (documented fallback)"
            )
        if self.n_singular:
            parts = []
            if self.n_shift:
                parts.append(f"{self.n_shift} shifted")
            if self.n_scalar:
                parts.append(f"{self.n_scalar} scalar-Jacobi")
            if self.n_identity:
                parts.append(f"{self.n_identity} identity")
            lines.append(
                f"  degradation[{self.on_singular}]: "
                f"{self.n_singular} singular block(s) -> "
                + (", ".join(parts) if parts else "none substituted")
            )
        else:
            lines.append(
                f"  degradation[{self.on_singular}]: all blocks factorized"
            )
        if self.apply_mode != "factor":
            lines.append(
                f"  apply mode: {self.apply_mode} requested, "
                f"{self.effective_apply_mode} in force"
            )
        if self.condition_estimates is not None and np.isfinite(
            self.max_condition
        ):
            lines.append(
                f"  1-norm condition estimate: max {self.max_condition:.2e} "
                f"over {int(np.count_nonzero(np.isfinite(self.condition_estimates)))} "
                "surviving block(s)"
            )
        if self.runtime is not None:
            rt = self.runtime
            mono = rt.monolithic_padded_flops
            pct = 100.0 * rt.flops_saved / mono if mono else 0.0
            lines.append(
                f"  runtime[{rt.backend}]: {len(rt.bins)} size bin(s), "
                f"padded flops {rt.padded_flops} "
                f"({pct:.1f}% below monolithic)"
            )
            if self.degraded_execution:
                used = rt.backend_used or rt.backend
                lines.append(
                    f"  resilience: {len(rt.fallback_events)} fallback "
                    f"event(s), {len(rt.quarantined_bins)} quarantined "
                    f"bin(s); factors produced by {used}"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = "clean" if self.clean else f"{self.n_fallbacks} fallbacks"
        return (
            f"SetupReport(method={self.method!r}, blocks={self.n_blocks}, "
            f"{tag})"
        )
