"""Parity guarantees of the sweep planner.

The hard correctness requirement of the subsystem: a sweep served
through the columnar store — written cold, then read back warm — must
produce **bit-identical** ``ParetoPoint`` sequences to the same backend
evaluated with no store at all, and the scalar backend must equal the
per-point reference loop of :class:`~repro.apps.matmul_gpu.MatmulGPUApp`
bit for bit.  ``ParetoPoint`` is a frozen dataclass whose equality
compares the raw float objectives and the config payload, so ``==``
over the sequences is exactly bit-parity.  The vectorized backend
agrees with the scalar one to :data:`PARITY_RTOL`.
"""

from __future__ import annotations

import pytest

from repro.apps.matmul_gpu import MatmulGPUApp
from repro.machines.specs import K40C, P100
from repro.sweep import EvalPlanner

#: Per-device sweep workloads: paper sizes, small enough to keep the
#: suite quick.
CASES = [("k40c", K40C, 8704), ("p100", P100, 10240)]

#: Relative agreement of the vectorized backend with the scalar one.
PARITY_RTOL = 1e-9


@pytest.mark.parametrize("device,spec,n", CASES)
class TestBackendParity:
    def test_scalar_matches_app_reference(self, device, spec, n):
        reference = MatmulGPUApp(spec).sweep_points(n)
        planner = EvalPlanner(backend="scalar")
        assert planner.sweep(device, n) == reference
        assert planner.stats.computed == len(reference)

    def test_vectorized_matches_scalar(self, device, spec, n):
        scalar = EvalPlanner(backend="scalar").sweep(device, n)
        vec = EvalPlanner(backend="vectorized").sweep(device, n)
        assert [p.config for p in vec] == [p.config for p in scalar]
        for s, v in zip(scalar, vec):
            assert v.time_s == pytest.approx(s.time_s, rel=PARITY_RTOL)
            assert v.energy_j == pytest.approx(s.energy_j, rel=PARITY_RTOL)


@pytest.mark.parametrize("backend", ["scalar", "vectorized"])
@pytest.mark.parametrize("device,spec,n", CASES)
def test_store_served_matches_cold(device, spec, n, backend, tmp_path):
    cold = EvalPlanner(backend=backend).sweep(device, n)
    # Populate the store through one planner...
    writer = EvalPlanner(backend=backend, store_dir=tmp_path)
    assert writer.sweep(device, n) == cold
    assert writer.stats.computed == len(cold)
    # ...then read it back through a fresh one.
    warm = EvalPlanner(backend=backend, store_dir=tmp_path)
    assert warm.sweep(device, n) == cold
    assert warm.stats.computed == 0
    assert warm.stats.store_hits == len(cold)
