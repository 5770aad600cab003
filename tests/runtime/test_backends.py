"""Runtime backend registry tests and random-batch bitwise properties.

The behavioural backend contract (round-trip equivalence, ``info``
merge order, degradation policies, invert demotion) lives in the
parameterized conformance harness
(``tests/runtime/test_backend_conformance.py``, ``-m conformance``) -
one suite over every registered backend instead of per-backend copies.
This module keeps what the harness does not cover: registry mechanics
and the Hypothesis property that ``binned`` LU stays within tolerance
of ``numpy`` on *random* (not just adversarial) batches.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.random_batches import random_batch
from repro.runtime import (
    BACKENDS,
    Backend,
    available_backends,
    get_backend,
    plan_batch,
    register_backend,
)
from repro.verify.metrics import solution_distance
from tests.runtime.test_backend_conformance import _solve_with
from tests.strategies import batch_shapes, make_batch, make_rhs, seeds

#: componentwise relative solution distance binned LU is held to
#: against numpy on random, non-dominant batches
RANDOM_LU_TOL = 1e-9


class TestToleranceProperty:
    @pytest.mark.conformance
    @given(batch_shapes, seeds)
    @settings(max_examples=25, deadline=None)
    def test_binned_lu_tracks_numpy_on_random_batches(self, shape, seed):
        # binned LU runs LAPACK getrf, so it is not bitwise numpy; on
        # non-dominant random batches it is held to RANDOM_LU_TOL
        batch = make_batch(*shape, seed, dominant=False)
        rhs = make_rhs(batch, seed + 1)
        _, ref = _solve_with("numpy", batch, rhs)
        _, sol = _solve_with("binned", batch, rhs)
        assert float(solution_distance(sol, ref).max()) <= RANDOM_LU_TOL


class TestRegistry:
    def test_known_backends_registered(self):
        for name in ("numpy", "binned"):
            assert name in BACKENDS

    def test_available_excludes_only_missing_deps(self):
        avail = available_backends()
        assert {"numpy", "binned"} <= set(avail)
        assert avail == sorted(avail)

    def test_get_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("cuda")

    def test_register_requires_name(self):
        class Nameless(Backend):
            pass

        with pytest.raises(ValueError, match="needs a name"):
            register_backend(Nameless)

    def test_register_roundtrip(self):
        class Dummy(Backend):
            name = "dummy-test-backend"

        try:
            register_backend(Dummy)
            assert isinstance(get_backend("dummy-test-backend"), Dummy)
        finally:
            BACKENDS.pop("dummy-test-backend", None)

    def test_binned_layout_follows_the_method(self):
        # one kernel table: the SoA sweeps where a realisation exists,
        # the AoS cores for gje/cholesky
        batch = random_batch(6, size=4, kind="spd", seed=0)
        layouts = {}
        for method in ("lu", "gh", "ght", "gje", "cholesky"):
            fac = get_backend("binned").factorize(
                plan_batch(batch), method=method
            )
            _, facs = fac.state
            layouts[method] = hasattr(facs[0], "soa")
        assert layouts == {
            "lu": True, "gh": True, "ght": True,
            "gje": False, "cholesky": False,
        }

    def test_binned_lu_factors_into_each_bins_buffer(self):
        # the LAPACK kernel writes its factors over the bin's private
        # batch copy instead of allocating fresh factor storage
        batch = random_batch(64, size_range=(1, 32),
                             kind="diag_dominant", seed=0)
        plan = plan_batch(batch)
        assert len(plan.bins) > 1
        fac = get_backend("binned").factorize(plan, method="lu")
        _, facs = fac.state
        for b, f in zip(plan.bins, facs):
            assert np.shares_memory(f.soa, b.batch.data)

    def test_unknown_method_rejected(self):
        plan = plan_batch(random_batch(4, size=4, seed=0))
        for name in ("numpy", "binned"):
            with pytest.raises(ValueError, match="unknown method"):
                get_backend(name).factorize(plan, method="qr")
