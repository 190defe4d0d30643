"""One module per paper figure/table (see DESIGN.md for the index).

Each module exposes an entry point (``run`` unless the table below
names another) returning a result that renders itself as the
rows/series the paper reports via ``.render()``; the sweep-driven
experiments' entry points also take ``engine=`` and their modules
expose ``requests()`` — the :class:`repro.sweep.plan.SweepRequest`
list they will make — so the cross-experiment planner
(:mod:`repro.sweep.planner`) can collect and deduplicate a whole
session up front.

:data:`EXPERIMENTS` is the one list of what ``repro experiment``
offers; the CLI's choices, ``repro all``, the run-provenance manifest
and ``repro report`` all read it, and :func:`run_experiment` is the
one way to run an entry of it.  Adding an experiment is one module
plus one row.

Submodules load lazily (PEP 562, :mod:`repro._lazy`): ``from
repro.experiments import headline`` imports only that module and its
dependencies, and :func:`run_experiment` imports only the module it
runs, so a command's start-up cost is proportional to what it runs.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, NamedTuple

from repro._lazy import attach

if TYPE_CHECKING:  # pragma: no cover
    from repro.sweep.plan import SweepRequest
    from repro.sweep.planner import EvalPlanner


class Experiment(NamedTuple):
    """One ``repro experiment`` id: where it lives and how it runs."""

    #: Submodule of :mod:`repro.experiments`.
    module: str
    #: Entry point on that module; its result has ``.render()``.
    entry: str = "run"
    #: Sweep-driven: the entry point takes ``engine=``, the module has
    #: ``requests()``, and ``repro all`` runs it through one session.
    sweep: bool = False


#: Every ``repro experiment`` id, in the order the CLI offers them.
EXPERIMENTS: dict[str, Experiment] = {
    "table1": Experiment("table1_specs"),
    "fig1": Experiment("fig1_strong_ep"),
    "fig2": Experiment("fig2_p100_n18432", sweep=True),
    "fig3": Experiment("fig3_decomposition"),
    "fig4": Experiment("fig4_cpu_utilization"),
    "fig5": Experiment("fig5_source"),
    "fig6": Experiment("fig6_additivity", "run_panels"),
    "fig7": Experiment("fig7_k40c_pareto", sweep=True),
    "fig8": Experiment("fig8_p100_pareto", sweep=True),
    "headline": Experiment("headline", sweep=True),
    "ablation": Experiment("ablation"),
    "ep-metrics": Experiment("ep_metrics_study"),
    "methods": Experiment("measurement_methods"),
    "sensitivity": Experiment("sensitivity", sweep=True),
    "dvfs": Experiment("dvfs_comparison"),
    "dvfs-gpu": Experiment("dvfs_comparison", "run_gpu"),
    "budgeted-search": Experiment("budgeted_search", sweep=True),
    "energy-model": Experiment("gpu_energy_model"),
}

#: The sweep-driven ids, in table order: what ``repro all`` runs.
SWEEP_EXPERIMENTS = tuple(k for k, e in EXPERIMENTS.items() if e.sweep)


def _module(exp_id: str):
    return importlib.import_module(f"{__name__}.{EXPERIMENTS[exp_id].module}")


def run_experiment(exp_id: str, engine: EvalPlanner | None = None) -> str:
    """Run one experiment and return its rendered text.

    Imports only that experiment's module.  The entry point is looked
    up on the module at call time, so a wrapper installed there (a
    profiler's, say) is the one that runs.  ``engine`` reaches the
    sweep-driven experiments only; ``None`` lets them build their own.
    """
    exp = EXPERIMENTS[exp_id]
    entry = getattr(_module(exp_id), exp.entry)
    result = entry(engine=engine) if exp.sweep else entry()
    return result.render()


def experiment_requests(exp_id: str) -> tuple[SweepRequest, ...] | None:
    """The sweep requests one experiment will make, or ``None`` for an
    experiment that is not sweep-driven (it has no sweep inputs)."""
    if not EXPERIMENTS[exp_id].sweep:
        return None
    return tuple(_module(exp_id).requests())


__all__ = [
    "EXPERIMENTS",
    "SWEEP_EXPERIMENTS",
    "Experiment",
    "experiment_requests",
    "run_experiment",
]
_SUBMODULES = sorted({e.module for e in EXPERIMENTS.values()} | {"matmul_strong_ep"})
__getattr__, __dir__ = attach(__name__, dict.fromkeys(_SUBMODULES, ()))
