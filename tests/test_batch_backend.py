"""Parity and wiring tests for the vectorized batch backend.

The contract under test (``repro.simgpu.batch``): the NumPy batch
evaluation agrees with the scalar reference path
(``GPUDevice.run_matmul``) to ≤ 1e-9 relative error per lane — over
the *full* K40c and P100 configuration spaces, over randomized config
spaces (property-based, seeded), and through the
``EvalPlanner(backend="vectorized")`` execution path.  The scalar path
stays the reference: its store shards and golden snapshots must be
untouched by the vectorized backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.matmul_gpu import MatmulConfig, MatmulGPUApp
from repro.machines.specs import K40C, P100
from repro.simgpu.batch import (
    BatchRunResult,
    batch_run_matmul,
    evaluate_configs_batch,
)
from repro.simgpu.calibration import calibration_for
from repro.simgpu.device import GPUDevice
from repro.simgpu.kernel import max_group_size
from repro.sweep import EvalPlanner, SweepRequest, sweep_key

PARITY_RTOL = 1e-9


def scalar_reference(spec, cal, n, configs):
    device = GPUDevice(spec, cal)
    return [device.run_matmul(n, c.bs, c.g, c.r) for c in configs]


def assert_batch_matches(spec, cal, n_values, configs, out: BatchRunResult):
    device = GPUDevice(spec, cal)
    assert len(out) == len(configs)
    for i, c in enumerate(configs):
        n = n_values[i] if not isinstance(n_values, int) else n_values
        ref = device.run_matmul(n, c.bs, c.g, c.r)
        assert out.time_s[i] == pytest.approx(ref.time_s, rel=PARITY_RTOL)
        assert out.dynamic_energy_j[i] == pytest.approx(
            ref.dynamic_energy_j, rel=PARITY_RTOL
        )
        assert out.dynamic_power_w[i] == pytest.approx(
            ref.dynamic_power_w, rel=PARITY_RTOL
        )
        assert out.clock_hz[i] == pytest.approx(ref.clock_hz, rel=PARITY_RTOL)
        assert bool(out.throttled[i]) == ref.throttled


class TestFullSpaceParity:
    """≤ 1e-9 agreement over the full default configuration spaces."""

    @pytest.mark.parametrize(
        "spec,n",
        [(P100, 10240), (P100, 18432), (K40C, 10240), (K40C, 16384)],
    )
    def test_full_sweep_parity(self, spec, n):
        app = MatmulGPUApp(spec)
        configs = app.sweep_configs()
        ref = scalar_reference(spec, app.device.cal, n, configs)
        got = evaluate_configs_batch(spec, app.device.cal, n, configs)
        assert len(got) == len(configs) == 146
        for (t, e), r in zip(got, ref):
            assert t == pytest.approx(r.time_s, rel=PARITY_RTOL)
            assert e == pytest.approx(r.dynamic_energy_j, rel=PARITY_RTOL)

    def test_full_space_includes_tiny_tiles(self):
        """BS down to 1 (outside the default sweep floor) still agrees."""
        app = MatmulGPUApp(P100)
        configs = app.sweep_configs(min_bs=1)
        assert any(c.bs < 4 for c in configs)
        got = evaluate_configs_batch(P100, app.device.cal, 1024, configs)
        ref = scalar_reference(P100, app.device.cal, 1024, configs)
        for (t, e), r in zip(got, ref):
            assert t == pytest.approx(r.time_s, rel=PARITY_RTOL)
            assert e == pytest.approx(r.dynamic_energy_j, rel=PARITY_RTOL)


@pytest.mark.parametrize("seed", range(10))
class TestRandomizedParity:
    """Property-based parity over randomized config spaces.

    Each seed draws a batch of valid ``(N, BS, G, R)`` tuples — mixed
    matrix sizes in one batch (exercising the per-unique-N paths),
    tile sizes over the whole admissible 1..32 range, group sizes up
    to the per-BS shared-memory bound, arbitrary repeat counts — and
    requires every per-lane output field to match the scalar path.
    """

    def draw(self, spec, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 50))
        n = rng.integers(64, 4096, m)
        bs = rng.integers(1, 33, m)
        g = np.array(
            [rng.integers(1, max_group_size(spec, int(b)) + 1) for b in bs]
        )
        r = rng.integers(1, 40, m)
        return n, bs, g, r

    @pytest.mark.parametrize("spec", [P100, K40C], ids=["p100", "k40c"])
    def test_random_batch_parity(self, spec, seed):
        n, bs, g, r = self.draw(spec, seed)
        cal = calibration_for(spec)
        out = batch_run_matmul(spec, cal, n, bs, g, r)
        configs = [
            MatmulConfig(bs=int(b), g=int(gg), r=int(rr))
            for b, gg, rr in zip(bs, g, r)
        ]
        assert_batch_matches(spec, cal, [int(v) for v in n], configs, out)


class TestBatchInputHandling:
    def test_scalar_inputs_become_one_lane(self):
        out = batch_run_matmul(P100, None, 1024, 32, 1, 24)
        ref = GPUDevice(P100).run_matmul(1024, 32, 1, 24)
        assert len(out) == 1
        assert out.time_s[0] == pytest.approx(ref.time_s, rel=PARITY_RTOL)

    def test_broadcasting(self):
        bs = np.array([8, 16, 32])
        out = batch_run_matmul(P100, None, 1024, bs, 1, 24)
        assert len(out) == 3

    def test_default_calibration_matches_explicit(self):
        a = batch_run_matmul(P100, None, 1024, 32, 1, 24)
        b = batch_run_matmul(P100, calibration_for(P100), 1024, 32, 1, 24)
        assert a.time_s[0] == b.time_s[0]

    def test_empty_config_list(self):
        assert evaluate_configs_batch(P100, None, 1024, []) == []

    @pytest.mark.parametrize(
        "n,bs,g,r,match",
        [
            (0, 32, 1, 1, "N must be positive"),
            (1024, 0, 1, 1, "BS=0 invalid"),
            (1024, 33, 1, 1, "BS=33 invalid"),
            (1024, 32, 8, 1, "G=8 not permissible"),
            (1024, 32, 1, 0, "R must be at least 1"),
        ],
    )
    def test_invalid_lanes_rejected(self, n, bs, g, r, match):
        """Every config the scalar path rejects is rejected, even when
        valid lanes surround it in the batch."""
        with pytest.raises(ValueError, match=match):
            batch_run_matmul(
                P100, None, [1024, n], [32, bs], [1, g], [24, r]
            )


class TestEngineBackend:
    def test_unknown_backend_is_clean_error(self):
        with pytest.raises(ValueError, match="unknown backend 'cuda'"):
            EvalPlanner(backend="cuda")

    def test_vectorized_sweep_matches_scalar_engine(self):
        scalar = EvalPlanner(backend="scalar").sweep("p100", 10240)
        vec = EvalPlanner(backend="vectorized").sweep("p100", 10240)
        assert len(scalar) == len(vec)
        for s, v in zip(scalar, vec):
            assert v.config == s.config
            assert v.time_s == pytest.approx(s.time_s, rel=PARITY_RTOL)
            assert v.energy_j == pytest.approx(s.energy_j, rel=PARITY_RTOL)

    def test_vectorized_engine_stats(self):
        engine = EvalPlanner(backend="vectorized")
        points = engine.sweep("k40c", 8192)
        assert engine.stats.requested == len(points)
        assert engine.stats.computed == len(points)
        assert engine.stats.store_hits == 0

    def test_vectorized_store_roundtrip_and_key_isolation(self, tmp_path):
        """Vectorized results are stored and reused — in shards that
        can never collide with the scalar reference's."""
        req = SweepRequest(device="p100", n=2048)
        configs = req.configs()[:10]

        vec = EvalPlanner(backend="vectorized", store_dir=tmp_path)
        first = vec.evaluate_configs(req, configs)
        warm = EvalPlanner(backend="vectorized", store_dir=tmp_path)
        again = warm.evaluate_configs(req, configs)
        assert warm.stats.store_hits == len(configs)
        assert [(p.time_s, p.energy_j) for p in again] == [
            (p.time_s, p.energy_j) for p in first
        ]

        # The scalar backend sees none of the vectorized entries.
        scalar = EvalPlanner(backend="scalar", store_dir=tmp_path)
        scalar.evaluate_configs(req, configs)
        assert scalar.stats.store_hits == 0

    def test_scalar_keys_unchanged_by_backend_parameter(self):
        cal = calibration_for(P100)
        cfg = {"bs": 32, "g": 1, "r": 24}
        assert sweep_key(P100, cal, 10240, cfg) == sweep_key(
            P100, cal, 10240, cfg, backend="scalar"
        )
        assert sweep_key(P100, cal, 10240, cfg, backend="vectorized") != (
            sweep_key(P100, cal, 10240, cfg)
        )
