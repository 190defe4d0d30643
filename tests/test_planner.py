"""Unit tests for :mod:`repro.sweep.planner` — the session planner.

Serving parity (bit-exact against the per-point reference loop for the
scalar backend, against the batch model for the vectorized one),
cross-experiment dedup accounting, warm-store zero-compute reruns,
mixed-size mega-batch exactness, and golden-snapshot identity of the
planner-served figure set.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.matmul_gpu import MatmulConfig, MatmulGPUApp
from repro.core.pareto import ParetoPoint
from repro.machines.specs import K40C, P100
from repro.simgpu.batch import evaluate_configs_batch
from repro.sweep import EvalPlanner, SweepRequest
from repro.sweep.planner import POINT_DTYPE, collect_session_requests


def batch_points(req: SweepRequest) -> list[ParetoPoint]:
    """One request evaluated as its own batch, outside any planner."""
    configs = req.configs()
    pairs = evaluate_configs_batch(req.spec, req.calibration, req.n, configs)
    return [
        ParetoPoint(time_s=t, energy_j=e, config=c.as_dict())
        for c, (t, e) in zip(configs, pairs)
    ]


class TestPlannerParity:
    def test_scalar_backend_matches_reference_loop_bit_exactly(self):
        req = SweepRequest(device="p100", n=4096)
        reference = req.app().sweep_points(4096)
        planner = EvalPlanner(backend="scalar")
        assert planner.evaluate_configs(req, req.configs()) == reference

    def test_vectorized_backend_matches_batch_model_bit_exactly(self):
        req = SweepRequest(device="k40c", n=4096)
        planner = EvalPlanner()
        assert planner.evaluate_configs(req, req.configs()) == batch_points(req)

    def test_mixed_size_mega_batch_is_bit_exact(self, tmp_path):
        """Lanes of a mixed-N fill equal their per-sweep evaluations."""
        planner = EvalPlanner(store_dir=tmp_path)
        reqs = [
            SweepRequest(device="p100", n=2048),
            SweepRequest(device="p100", n=4096),
            SweepRequest(device="p100", n=4096, total_products=120),
        ]
        planner.add_all(reqs)
        planner.execute()
        assert planner.stats.batches == 1  # one (spec, cal) mega-batch
        for req in reqs:
            per_sweep = batch_points(req)
            assert planner.evaluate_configs(req, req.configs()) == per_sweep

    def test_evaluate_single_point(self):
        cfg = MatmulConfig(bs=32, g=1, r=24)
        planner = EvalPlanner(backend="scalar")
        expected = MatmulGPUApp(K40C).evaluate(4096, cfg)
        assert planner.evaluate("k40c", 4096, cfg) == expected
        # Dict configs are accepted too.
        assert planner.evaluate("k40c", 4096, cfg.as_dict()) == expected

    def test_sweep_convenience_matches_app(self):
        planner = EvalPlanner(backend="scalar")
        assert planner.sweep("p100", 2048) == MatmulGPUApp(P100).sweep_points(
            2048
        )


class TestPlannerAccounting:
    def test_duplicate_requests_dedup_to_one_sweep(self):
        req = SweepRequest(device="p100", n=4096)
        planner = EvalPlanner()
        planner.add_all([req, req, req])
        stats = planner.execute()
        n_configs = len(req.configs())
        assert stats.requested == 3 * n_configs
        assert stats.unique_points == n_configs
        assert stats.computed == n_configs
        assert stats.dedup_ratio == pytest.approx(3.0)

    def test_execute_is_idempotent(self):
        req = SweepRequest(device="p100", n=4096)
        planner = EvalPlanner()
        planner.add(req)
        planner.execute()
        computed = planner.stats.computed
        planner.add(req)  # re-adding known points is free
        stats = planner.execute()
        assert stats.computed == computed
        assert stats.batches == 1

    def test_warm_store_computes_nothing(self, tmp_path):
        req = SweepRequest(device="k40c", n=4096)
        cold = EvalPlanner(store_dir=tmp_path)
        cold.add(req)
        cold.execute()
        assert cold.stats.computed == len(req.configs())

        warm = EvalPlanner(store_dir=tmp_path)
        warm.add(req)
        stats = warm.execute()
        assert stats.computed == 0 and stats.batches == 0
        assert stats.store_hits == len(req.configs())
        assert warm.evaluate_configs(req, req.configs()) == cold.evaluate_configs(
            req, req.configs()
        )

    def test_session_requests_cover_all_experiments(self):
        reqs = collect_session_requests()
        assert len(reqs) > 10
        devices = {r.spec.name for r in reqs}
        assert len(devices) == 2  # both GPUs
        # Overlap exists for the dedup pass to absorb (fig2/fig8 vs
        # headline share P100 sizes at default calibration).
        planner = EvalPlanner()
        planner.add_all(reqs)
        stats = planner.execute()
        assert stats.requested > stats.unique_points

    def test_store_and_store_dir_are_exclusive(self, tmp_path):
        from repro.store import ColumnarStore

        with pytest.raises(ValueError, match="not both"):
            EvalPlanner(store=ColumnarStore(tmp_path), store_dir=tmp_path)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            EvalPlanner(backend="cuda")


class TestStructuredServing:
    def test_table_returns_structured_rows_in_request_order(self):
        req = SweepRequest(device="p100", n=2048)
        configs = req.configs()
        planner = EvalPlanner()
        rows = planner.table(req, configs)
        assert rows.dtype == POINT_DTYPE
        assert len(rows) == len(configs)
        np.testing.assert_array_equal(
            rows["bs"], [c.bs for c in configs]
        )
        points = planner.evaluate_configs(req, configs)
        np.testing.assert_array_equal(
            rows["time_s"], [p.time_s for p in points]
        )

    def test_unplanned_request_fills_lazily(self, tmp_path):
        planner = EvalPlanner(store_dir=tmp_path)
        # Nothing collected up front; a direct table() still works and
        # flows through the same dedup/partition/fill machinery.
        req = SweepRequest(device="k40c", n=2048)
        rows = planner.table(req)
        assert np.isfinite(rows["time_s"]).all()
        assert planner.stats.computed == len(req.configs())
        # A second ask is served from the in-memory group table.
        planner.table(req)
        assert planner.stats.computed == len(req.configs())


class TestPlannerServedExperiments:
    @pytest.fixture(scope="class")
    def session(self, tmp_path_factory):
        planner = EvalPlanner(
            store_dir=tmp_path_factory.mktemp("session-store")
        )
        planner.add_all(collect_session_requests())
        planner.execute()
        return planner

    def test_figures_match_golden_snapshots(self, session):
        """Planner-served figures are byte-identical to the committed
        snapshots (the acceptance bar of the `repro all` path)."""
        from pathlib import Path

        from repro.analysis.goldens import (
            render_fig7_snapshot,
            render_fig8_snapshot,
            render_headline_snapshot,
        )
        from repro.experiments import (
            fig7_k40c_pareto,
            fig8_p100_pareto,
            headline,
        )

        snapshots = Path(__file__).parent.parent / "benchmarks" / "output"
        for name, rendered in [
            (
                "fig7_k40c_pareto",
                render_fig7_snapshot(fig7_k40c_pareto.run(engine=session)),
            ),
            (
                "fig8_p100_pareto",
                render_fig8_snapshot(fig8_p100_pareto.run(engine=session)),
            ),
            ("headline", render_headline_snapshot(headline.run(engine=session))),
        ]:
            # The bench emit() appends one trailing newline.
            assert rendered + "\n" == (snapshots / f"{name}.txt").read_text()

    def test_sensitivity_and_fig2_run_from_the_session(self, session):
        from repro.experiments import fig2_p100_n18432, sensitivity

        computed_before = session.stats.computed
        fig2 = fig2_p100_n18432.run(engine=session)
        sens = sensitivity.run(engine=session)
        # Everything was pre-planned: serving added zero evaluations.
        assert session.stats.computed == computed_before
        # Bit-identical to the same backend run per-experiment, and the
        # structural verdicts match the scalar reference.
        assert fig2 == fig2_p100_n18432.run(engine=EvalPlanner())
        assert sens.fraction_held == sensitivity.run().fraction_held

    def test_budgeted_search_probes_served_from_session(self, session):
        from repro.experiments import budgeted_search

        computed_before = session.stats.computed
        result = budgeted_search.run(engine=session)
        # Greedy probes hit points outside the default sweep; the
        # session's min_bs=1 request covers them, so nothing computes.
        assert session.stats.computed == computed_before
        reference = budgeted_search.run(engine=EvalPlanner())
        assert result == reference
