"""One module per paper figure/table (see DESIGN.md for the index).

Each module exposes ``run(...) -> Result`` where the result renders
itself as the rows/series the paper reports via ``.render()``; the
sweep-driven experiments additionally expose ``requests()`` — the
:class:`repro.sweep.plan.SweepRequest` list they will make — so the
cross-experiment planner (:mod:`repro.sweep.planner`) can collect and
deduplicate a whole session up front.

Submodules load lazily (PEP 562, :mod:`repro._lazy`): ``from
repro.experiments import headline`` imports only that module and its
dependencies, so a command's start-up cost is proportional to what it
runs.
"""

from repro._lazy import attach

__all__ = [
    "ablation",
    "budgeted_search",
    "dvfs_comparison",
    "ep_metrics_study",
    "measurement_methods",
    "sensitivity",
    "table1_specs",
    "fig1_strong_ep",
    "fig2_p100_n18432",
    "fig3_decomposition",
    "fig4_cpu_utilization",
    "fig5_source",
    "fig6_additivity",
    "fig7_k40c_pareto",
    "fig8_p100_pareto",
    "gpu_energy_model",
    "headline",
    "matmul_strong_ep",
]
__getattr__, __dir__ = attach(__name__, dict.fromkeys(__all__, ()))
