"""End-to-end telemetry: traced solves, metric consistency, overhead.

The acceptance criteria of the telemetry subsystem: one traced solve
yields a loadable, valid Chrome trace covering preconditioner setup
through solver iterations and watchdog audits; the metrics snapshot
agrees with the solver/runtime reports; and the disabled path leaves
``stage_seconds`` structurally identical to the untraced run.
"""

import numpy as np
import pytest

from repro.core import random_batch, random_rhs
from repro.precond import BlockJacobiPreconditioner
from repro.runtime import BatchRuntime
from repro.solvers import Watchdog, bicgstab, idrs
from repro.sparse import fem_block_2d
from repro.telemetry import (
    get_metrics,
    summarize_trace,
    to_chrome_trace,
    tracing,
    validate_chrome_trace,
)


def _problem(n=8, dofs=2, seed=0):
    A = fem_block_2d(n, n, dofs, seed=seed)
    b = np.random.default_rng(seed + 1).standard_normal(A.n_rows)
    return A, b


class TestTracedSolve:
    def test_trace_covers_setup_through_audits(self):
        A, b = _problem()
        with tracing() as tr:
            M = BlockJacobiPreconditioner(
                max_block_size=16, backend="binned"
            ).setup(A)
            result = idrs(
                A, b, M=M, watchdog=Watchdog(audit_every=10)
            )
        assert result.converged
        doc = to_chrome_trace(tr)
        assert validate_chrome_trace(doc) == []
        s = summarize_trace(doc)
        assert s["roots"] == ["precond.setup", "solver.idrs"]
        names = set(s["by_name"])
        assert {
            "precond.setup.blocking",
            "precond.setup.extract",
            "precond.setup.factorize",
            "precond.apply",
            "runtime.factorize",
            "watchdog.audit",
        } <= names
        assert any(n.startswith("factorize.bin[tile=") for n in names)
        assert s["events"]["solver.iteration"] >= result.iterations - 1
        # Fig. 9 split is populated and internally consistent
        split = s["split"]
        assert split["setup_us"] > 0 and split["apply_us"] > 0
        assert split["solver_us"] >= split["solver_excl_apply_us"]

    def test_solver_metrics_match_result(self):
        A, b = _problem()
        M = BlockJacobiPreconditioner(max_block_size=16).setup(A)
        result = bicgstab(A, b, M=M)
        assert result.converged
        reg = get_metrics()
        solves = reg.counter("repro_solves_total")
        iters = reg.counter("repro_solver_iterations_total")
        assert solves.value(solver="bicgstab", converged="true") == 1.0
        assert iters.value(solver="bicgstab") == float(result.iterations)

    def test_runtime_metrics_match_report(self):
        batch = random_batch(
            64, size_range=(1, 16), kind="diag_dominant", seed=3
        )
        rhs = random_rhs(batch, seed=4)
        rt = BatchRuntime(backend="binned")
        fac = rt.factorize(batch)
        fac.solve(rhs)
        waste = get_metrics().gauge("repro_padding_waste_ratio")
        rep = fac.report
        assert waste.value(backend=rep.backend) == pytest.approx(
            rep.padding_waste / rep.padded_flops
        )
        stage = get_metrics().histogram("repro_stage_seconds")
        snap = stage.snapshot()
        assert "stage=factor" in snap and "stage=solve" in snap


class TestDisabledPath:
    def test_stage_seconds_structure_identical(self):
        batch = random_batch(
            32, size_range=(1, 8), kind="diag_dominant", seed=5
        )
        rt = BatchRuntime(backend="binned")
        fac_plain = rt.factorize(batch)
        with tracing():
            fac_traced = rt.factorize(batch)
        assert set(fac_plain.report.stage_seconds) == set(
            fac_traced.report.stage_seconds
        )

    def test_disabled_run_collects_no_spans(self):
        A, b = _problem(n=4, dofs=1)
        M = BlockJacobiPreconditioner(max_block_size=8).setup(A)
        r = bicgstab(A, b, M=M)
        assert r.converged
        from repro.telemetry import NULL_TRACER, get_tracer

        assert get_tracer() is NULL_TRACER


class TestOverheadHarness:
    def test_measure_smoke(self):
        from repro.telemetry import measure_disabled_overhead

        result = measure_disabled_overhead(
            repeats=1, nb=16, solves=1, backend="binned"
        )
        assert set(result) >= {
            "instrumented_seconds",
            "bare_seconds",
            "overhead",
            "overhead_clamped",
        }
        assert result["bare_seconds"] > 0
        assert result["overhead_clamped"] >= 0.0
