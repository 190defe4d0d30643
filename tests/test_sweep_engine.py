"""Unit tests for the :mod:`repro.sweep` subsystem.

Content-addressed keys, request resolution, and the sweep engine
(:class:`~repro.sweep.EvalPlanner`) as the experiments and the CLI use
it: bit-exact scalar serving, store-backed resume, stats accounting,
and cache-identity isolation of models and calibrations.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.apps.matmul_gpu import MatmulConfig, MatmulGPUApp
from repro.experiments import fig7_k40c_pareto, fig8_p100_pareto
from repro.machines.specs import K40C, P100
from repro.simgpu.calibration import K40C_CAL, P100_CAL, calibration_for
from repro.store import ColumnarStore
from repro.sweep import (
    EvalPlanner,
    SweepRequest,
    resolve_device,
    sweep_key,
)


class TestSweepKey:
    def test_key_is_stable(self):
        cfg = {"bs": 32, "g": 1, "r": 24}
        a = sweep_key(P100, P100_CAL, 10240, cfg)
        b = sweep_key(P100, P100_CAL, 10240, dict(reversed(cfg.items())))
        assert a == b
        assert len(a) == 64 and int(a, 16) >= 0

    def test_key_distinguishes_every_input(self):
        base = sweep_key(P100, P100_CAL, 10240, {"bs": 32, "g": 1, "r": 24})
        assert sweep_key(K40C, K40C_CAL, 10240, {"bs": 32, "g": 1, "r": 24}) != base
        assert sweep_key(P100, P100_CAL, 8192, {"bs": 32, "g": 1, "r": 24}) != base
        assert sweep_key(P100, P100_CAL, 10240, {"bs": 31, "g": 1, "r": 24}) != base

    def test_key_depends_on_calibration(self):
        """A perturbed calibration (sensitivity study) gets its own key."""
        perturbed = dataclasses.replace(
            P100_CAL, e_lane_j=P100_CAL.e_lane_j * 1.2
        )
        cfg = {"bs": 32, "g": 1, "r": 24}
        assert sweep_key(P100, perturbed, 10240, cfg) != sweep_key(
            P100, P100_CAL, 10240, cfg
        )


class TestResolveDevice:
    def test_registry_keys(self):
        assert resolve_device("p100") is P100
        assert resolve_device("k40c") is K40C
        assert resolve_device(P100) is P100

    def test_cpu_is_rejected(self):
        with pytest.raises(ValueError, match="not a GPU"):
            resolve_device("haswell")


class TestSweepRequest:
    def test_configs_match_app_enumeration(self):
        req = SweepRequest(device="p100", n=10240)
        assert req.configs() == MatmulGPUApp(P100).sweep_configs()

    def test_default_calibration(self):
        assert SweepRequest(device="k40c", n=8192).calibration is calibration_for(K40C)


class TestSweepEngine:
    def test_store_args_exclusive(self, tmp_path):
        with pytest.raises(ValueError):
            EvalPlanner(store_dir=tmp_path, store=ColumnarStore(tmp_path))

    def test_sweep_matches_app(self):
        points = EvalPlanner(backend="scalar").sweep("p100", 4096)
        assert points == MatmulGPUApp(P100).sweep_points(4096)

    def test_evaluate_single_point(self):
        cfg = MatmulConfig(bs=32, g=1, r=24)
        planner = EvalPlanner(backend="scalar")
        point = planner.evaluate("k40c", 4096, cfg)
        expected = MatmulGPUApp(K40C).evaluate(4096, cfg)
        assert point == expected
        # Dict configs are accepted too.
        assert planner.evaluate("k40c", 4096, cfg.as_dict()) == expected

    def test_requests_are_served_in_request_order(self):
        reqs = [
            SweepRequest(device="p100", n=4096),
            SweepRequest(device="k40c", n=2048),
        ]
        planner = EvalPlanner(backend="scalar")
        planner.add_all(reqs)
        planner.execute()
        results = [planner.evaluate_configs(r, r.configs()) for r in reqs]
        assert results[0] == MatmulGPUApp(P100).sweep_points(4096)
        assert results[1] == MatmulGPUApp(K40C).sweep_points(2048)

    def test_stats_cold_then_warm(self, tmp_path):
        cold = EvalPlanner(store_dir=tmp_path, backend="scalar")
        points = cold.sweep("p100", 4096)
        assert cold.stats.requested == len(points)
        assert cold.stats.computed == len(points)
        assert cold.stats.store_hits == 0

        warm = EvalPlanner(store_dir=tmp_path, backend="scalar")
        again = warm.sweep("p100", 4096)
        assert again == points
        assert warm.stats.computed == 0
        assert warm.stats.store_hits == len(points)

    def test_interrupted_sweep_resumes(self, tmp_path):
        """Only the points missing from the store are recomputed."""
        req = SweepRequest(device="k40c", n=4096)
        configs = req.configs()
        # An interrupted run persisted only every third point.
        kept = configs[::3]
        EvalPlanner(store_dir=tmp_path, backend="scalar").evaluate_configs(
            req, kept
        )
        resumed = EvalPlanner(store_dir=tmp_path, backend="scalar")
        assert resumed.evaluate_configs(req, configs) == (
            MatmulGPUApp(K40C).sweep_points(4096)
        )
        assert resumed.stats.computed == len(configs) - len(kept)
        assert resumed.stats.store_hits == len(kept)

    def test_model_version_invalidates(self, tmp_path, monkeypatch):
        EvalPlanner(store_dir=tmp_path).sweep("p100", 4096)
        monkeypatch.setattr(
            "repro.store.columnar.MODEL_VERSION", "gpu-matmul/999"
        )
        monkeypatch.setattr(
            "repro.sweep.keys.MODEL_VERSION", "gpu-matmul/999"
        )
        bumped = EvalPlanner(store_dir=tmp_path)
        bumped.sweep("p100", 4096)
        assert bumped.stats.store_hits == 0
        assert bumped.stats.computed == bumped.stats.requested

    def test_perturbed_calibration_does_not_collide(self, tmp_path):
        planner = EvalPlanner(store_dir=tmp_path)
        base = planner.sweep("p100", 4096)
        perturbed_cal = dataclasses.replace(
            P100_CAL, e_lane_j=P100_CAL.e_lane_j * 1.2
        )
        perturbed = planner.sweep("p100", 4096, cal=perturbed_cal)
        assert planner.stats.store_hits == 0
        assert planner.stats.computed == 2 * len(base)
        assert [p.config for p in base] == [p.config for p in perturbed]
        assert base != perturbed

    def test_noisy_sweeps_bypass_engine(self, tmp_path):
        """rng sweeps must not populate or read the store."""
        planner = EvalPlanner(store_dir=tmp_path)
        app = MatmulGPUApp(P100)
        noisy = app.sweep_points(
            4096, rng=np.random.default_rng(7), engine=planner
        )
        assert planner.stats.requested == 0
        assert not list(tmp_path.glob("*.npy"))
        assert len(noisy) == len(app.sweep_configs())


class TestExperimentWarmStoreAcceptance:
    def test_fig7_fig8_warm_rerun_computes_nothing(self, tmp_path):
        """Acceptance: warm-store fig7+fig8 rerun = zero recomputations."""
        cold = EvalPlanner(store_dir=tmp_path, backend="scalar")
        fig7_cold = fig7_k40c_pareto.run(engine=cold)
        fig8_cold = fig8_p100_pareto.run(engine=cold)
        assert cold.stats.computed > 0

        warm = EvalPlanner(store_dir=tmp_path, backend="scalar")
        fig7_warm = fig7_k40c_pareto.run(engine=warm)
        fig8_warm = fig8_p100_pareto.run(engine=warm)
        assert warm.stats.computed == 0
        assert warm.stats.store_hits == cold.stats.requested

        # And the stored rerun is bit-identical to the cold run.
        assert fig7_warm == fig7_cold
        assert fig8_warm == fig8_cold

    def test_experiments_identical_with_and_without_engine(self, tmp_path):
        planner = EvalPlanner(store_dir=tmp_path, backend="scalar")
        assert fig7_k40c_pareto.run(engine=planner) == fig7_k40c_pareto.run()
        assert fig8_p100_pareto.run(engine=planner) == fig8_p100_pareto.run()
