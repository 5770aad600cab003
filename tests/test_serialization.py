"""JSON-safety: ``to_native`` unit behavior plus round-trip guarantees
for every report serializer in the package (``json.dumps`` must never
raise on a ``to_dict()`` result, whatever NumPy left inside)."""

import json
import math

import numpy as np
import pytest

from repro.telemetry import to_native


class TestToNative:
    def test_numpy_scalars(self):
        assert to_native(np.int64(3)) == 3
        assert isinstance(to_native(np.int64(3)), int)
        assert to_native(np.float64(0.5)) == 0.5
        assert isinstance(to_native(np.float64(0.5)), float)
        assert to_native(np.bool_(True)) is True

    def test_nonfinite_floats_become_none(self):
        assert to_native(float("nan")) is None
        assert to_native(float("inf")) is None
        assert to_native(np.float64("nan")) is None
        assert to_native(-math.inf) is None

    def test_arrays_and_containers(self):
        assert to_native(np.arange(3)) == [0, 1, 2]
        out = to_native({"a": (np.int32(1), {np.float64(2.0)})})
        assert out == {"a": [1, [2.0]]}
        json.dumps(out)

    def test_nested_nonfinite_inside_array(self):
        assert to_native(np.array([1.0, np.nan])) == [1.0, None]

    def test_object_with_to_dict(self):
        class Obj:
            def to_dict(self):
                return {"x": np.int64(7)}

        assert to_native(Obj()) == {"x": 7}

    def test_fallback_is_str(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        assert isinstance(to_native(Opaque()), str)

    def test_dict_keys_coerced_to_str(self):
        assert to_native({np.int64(1): "a"}) == {"1": "a"}


def _roundtrip(payload) -> dict:
    return json.loads(json.dumps(payload))


class TestReportRoundTrips:
    def test_runtime_report(self):
        from repro.core import random_batch, random_rhs
        from repro.runtime import BatchRuntime

        batch = random_batch(
            24, size_range=(1, 8), kind="diag_dominant", seed=0
        )
        rt = BatchRuntime(backend="binned", cache=False)
        fac = rt.factorize(batch, use_cache=False)
        fac.solve(random_rhs(batch, seed=1))
        d = _roundtrip(fac.report.to_dict())
        assert d["backend"] == "binned"
        assert d["nb"] == 24
        assert all(isinstance(b["tile"], int) for b in d["bins"])

    def test_setup_report(self):
        from repro.precond import BlockJacobiPreconditioner
        from repro.sparse import fem_block_2d

        A = fem_block_2d(5, 5, 2, seed=0)
        M = BlockJacobiPreconditioner(
            max_block_size=8, backend="binned"
        ).setup(A)
        d = _roundtrip(M.report.to_dict())
        assert d["n_blocks"] == len(d["block_sizes"])
        assert d["runtime"] is None or isinstance(d["runtime"], dict)
        assert isinstance(d["max_condition"], (float, type(None)))

    def test_watchdog_report(self):
        from repro.precond import BlockJacobiPreconditioner
        from repro.solvers import Watchdog, idrs
        from repro.sparse import fem_block_2d

        A = fem_block_2d(5, 5, 2, seed=0)
        b = np.ones(A.n_rows)
        M = BlockJacobiPreconditioner(max_block_size=8).setup(A)
        r = idrs(A, b, M=M, watchdog=Watchdog(audit_every=5))
        assert r.watchdog is not None
        d = _roundtrip(r.watchdog)
        assert d["audits"] >= 1

    def test_verification_report(self):
        from repro.verify import run_verification

        report = run_verification(quick=True, seed=0)
        d = _roundtrip(report.to_dict())
        assert isinstance(d["passed"], bool)

    def test_chaos_report(self):
        from repro.chaos import run_chaos_suite

        report = run_chaos_suite(seed=0, quick=True)
        d = _roundtrip(report.to_dict())
        assert isinstance(d, dict)

    def test_nan_condition_estimate_survives_dumps(self):
        # a singular block under on_singular="identity" produces a NaN
        # condition estimate; the serializer must null it, not crash
        from repro.precond import BlockJacobiPreconditioner
        from repro.sparse.csr import CsrMatrix

        dense = np.array(
            [[0.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 2.0]]
        )
        A = CsrMatrix.from_dense(dense)
        M = BlockJacobiPreconditioner(
            max_block_size=3, on_singular="identity"
        ).setup(A)
        d = _roundtrip(M.report.to_dict())
        assert d["n_singular"] >= 0


class TestMetricsSnapshotRoundTrip:
    def test_snapshot_after_instrumented_run(self):
        from repro.core import random_batch
        from repro.runtime import BatchRuntime
        from repro.telemetry import metrics_snapshot

        batch = random_batch(
            16, size_range=(1, 8), kind="diag_dominant", seed=2
        )
        BatchRuntime(backend="binned", cache=False).factorize(
            batch, use_cache=False
        )
        d = _roundtrip(metrics_snapshot())
        assert "repro_stage_seconds" in d
