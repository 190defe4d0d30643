"""Budgeted front search vs. exhaustive evaluation.

The paper motivates local fronts partly by cost: "determining a global
Pareto front by exhaustively obtaining the data points for all the
application configurations can be expensive and may not be feasible in
dynamic environments with time constraints" (Section V.B).  This study
quantifies the alternative: how much of the exhaustive front's quality
does the budgeted greedy search (:func:`repro.core.biobjective.
greedy_front_search`) recover at a fraction of the evaluations?

Quality is scored with the standard indicators (IGD and the additive
ε-indicator) against the exhaustive front, per evaluation budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.front_quality import additive_epsilon, igd
from repro.analysis.report import format_table
from repro.apps.matmul_gpu import MatmulConfig, MatmulGPUApp
from repro.core.biobjective import greedy_front_search
from repro.core.pareto import ParetoPoint, pareto_front
from repro.machines import get_machine
from repro.machines.specs import GPUSpec

# Registry-backed name resolution (identity-preserving for the
# in-code P100, so goldens and shard digests are unchanged).
P100 = get_machine("p100")

if TYPE_CHECKING:  # pragma: no cover
    from repro.sweep.planner import EvalPlanner

__all__ = ["BudgetRow", "BudgetedSearchResult", "run", "requests"]


def requests(spec: GPUSpec = P100, n: int = 10240):
    """The sweep requests this experiment will make (planner protocol).

    The greedy search probes configurations from the *full* space
    (``min_bs=1``, not the sweep default BS ≥ 4), so the request covers
    every point the exhaustive pass or any probe can touch.
    """
    from repro.sweep.plan import SweepRequest

    return (SweepRequest(device=spec, n=n, min_bs=1),)


@dataclass(frozen=True)
class BudgetRow:
    budget: int
    budget_fraction: float
    front_size: int
    igd: float
    epsilon: float


@dataclass(frozen=True)
class BudgetedSearchResult:
    device: str
    n: int
    space_size: int
    exhaustive_front_size: int
    rows: tuple[BudgetRow, ...]

    def render(self) -> str:
        header = (
            f"{self.device}, N={self.n}: exhaustive sweep = "
            f"{self.space_size} evaluations, front = "
            f"{self.exhaustive_front_size} points\n"
        )
        return header + format_table(
            ["budget", "of sweep", "front pts", "IGD", "eps-indicator"],
            [
                (
                    r.budget,
                    f"{r.budget_fraction:.0%}",
                    r.front_size,
                    f"{r.igd:.4f}",
                    f"{r.epsilon:.4f}",
                )
                for r in self.rows
            ],
        )


def run(
    spec: GPUSpec = P100,
    n: int = 10240,
    budget_fractions: tuple[float, ...] = (0.1, 0.2, 0.35, 0.5, 1.0),
    seed: int = 0,
    *,
    engine: "EvalPlanner | None" = None,
) -> BudgetedSearchResult:
    """Score the greedy search at several evaluation budgets.

    With ``engine`` given, every point evaluation (the exhaustive sweep
    and the greedy search's probes) is routed through the planner and
    its store; the in-run memo below still guarantees each
    configuration is modelled at most once per run either way.
    """
    from repro import obs

    with obs.span("experiment.budgeted-search", device=spec.name, n=n):
        return _run_scored(spec, n, budget_fractions, seed, engine)


def _run_scored(
    spec: GPUSpec,
    n: int,
    budget_fractions: tuple[float, ...],
    seed: int,
    engine: "EvalPlanner | None",
) -> BudgetedSearchResult:
    app = MatmulGPUApp(spec)
    space = app.config_space()
    size = space.size()

    cache: dict[tuple[int, int, int], tuple[float, float]] = {}

    table_fn = getattr(engine, "table", None) if engine is not None else None
    if table_fn is not None:
        # Columnar prefill: one table request covers the exhaustive
        # pass and every configuration a greedy probe can touch, so
        # ``evaluate`` below never leaves the in-run memo.
        from repro.sweep.plan import SweepRequest

        request = SweepRequest(
            device=spec, n=n, min_bs=1, cal=app.device.cal
        )
        rows = table_fn(
            request,
            [
                MatmulConfig(bs=c["bs"], g=c["g"], r=c["r"])
                for c in space
            ],
        )
        cache.update(
            zip(
                zip(
                    rows["bs"].tolist(),
                    rows["g"].tolist(),
                    rows["r"].tolist(),
                ),
                zip(rows["time_s"].tolist(), rows["energy_j"].tolist()),
            )
        )

    def evaluate(cfg) -> tuple[float, float]:
        key = (cfg["bs"], cfg["g"], cfg["r"])
        if key not in cache:
            if engine is not None:
                point = engine.evaluate(
                    spec, n,
                    MatmulConfig(bs=cfg["bs"], g=cfg["g"], r=cfg["r"]),
                    cal=app.device.cal,
                )
                cache[key] = (point.time_s, point.energy_j)
            else:
                run_ = app.device.run_matmul(
                    n, cfg["bs"], cfg["g"], cfg["r"]
                )
                cache[key] = (run_.time_s, run_.dynamic_energy_j)
        return cache[key]

    exhaustive_pts = [
        ParetoPoint(*evaluate(cfg), config=dict(cfg)) for cfg in space
    ]
    reference = pareto_front(exhaustive_pts)

    rows = []
    for frac in budget_fractions:
        budget = max(2, int(round(frac * size)))
        approx, _ = greedy_front_search(
            space, evaluate, budget=budget, seed=seed
        )
        rows.append(
            BudgetRow(
                budget=budget,
                budget_fraction=budget / size,
                front_size=len(approx),
                igd=igd(reference, approx),
                epsilon=additive_epsilon(reference, approx),
            )
        )
    return BudgetedSearchResult(
        device=spec.name,
        n=n,
        space_size=size,
        exhaustive_front_size=len(reference),
        rows=tuple(rows),
    )
