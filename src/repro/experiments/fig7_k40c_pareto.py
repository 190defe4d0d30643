"""Fig. 7: K40c energy nonproportionality and local Pareto fronts.

The paper's K40c findings (Section V.B, V.C):

* the *global* Pareto front contains a single point for every matrix
  size tested, and its configuration has BS = 32 ("the maximum allowed
  by the application") — performance-optimal is also energy-optimal;
* regions of high energy nonproportionality exist nonetheless; the
  *local* Pareto fronts (here: the BS ≤ 31 sub-space, which excludes
  the global optimum's tile) average 4 points with a maximum of 5;
* up to 18% dynamic energy saving at a 7% performance penalty is
  available inside the local fronts.

Fig. 7 shows N = 8704 and N = 10240; the headline statistics aggregate
a wider size range (:mod:`repro.experiments.headline`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.ep_analysis import WeakEPStudy, weak_ep_study_table
from repro.analysis.report import format_pct, format_table
from repro.apps.matmul_gpu import MatmulGPUApp
from repro.machines import get_machine

# Registry-backed name resolution (identity-preserving for the
# in-code K40c, so goldens and shard digests are unchanged).
K40C = get_machine("k40c")

if TYPE_CHECKING:  # pragma: no cover
    from repro.sweep.planner import EvalPlanner

__all__ = ["Fig7Result", "run", "requests", "LOCAL_REGION_MAX_BS"]

#: The paper's figure sizes.
PAPER_SIZES = (8704, 10240)


def requests(sizes: tuple[int, ...] = PAPER_SIZES):
    """The sweep requests this experiment will make (planner protocol)."""
    from repro.sweep.plan import SweepRequest

    return tuple(SweepRequest(device=K40C, n=n) for n in sizes)

#: The local nonproportionality region: everything below the global
#: optimum's tile dimension.
LOCAL_REGION_MAX_BS = 31


@dataclass(frozen=True)
class Fig7Result:
    studies: tuple[WeakEPStudy, ...]

    def render(self) -> str:
        rows = []
        for s in self.studies:
            front_bs = s.front[0].config["bs"] if s.front else None
            rows.append(
                (
                    s.workload,
                    "violated" if not s.weak_ep.holds else "holds",
                    len(s.front),
                    front_bs,
                    len(s.local_front or ()),
                    format_pct(s.local_headline.energy_saving),
                    format_pct(s.local_headline.perf_degradation),
                )
            )
        return format_table(
            [
                "N",
                "weak EP",
                "global front (paper: 1)",
                "global BS (paper: 32)",
                "local front (paper: 4-5)",
                "local max saving (paper: <=18%)",
                "at degradation (paper: <=7%)",
            ],
            rows,
        )


def run(
    sizes: tuple[int, ...] = PAPER_SIZES,
    *,
    engine: "EvalPlanner | None" = None,
) -> Fig7Result:
    """Regenerate the Fig. 7 analysis.

    ``engine`` routes the sweeps through a
    :class:`repro.sweep.EvalPlanner` (batched evaluation, optional
    store); the default is the in-process serial path.
    """
    from repro import obs

    with obs.span("experiment.fig7", sizes=len(sizes)):
        app = MatmulGPUApp(K40C)
        studies = []
        for n in sizes:
            table = app.sweep_table(n, engine=engine)
            studies.append(
                weak_ep_study_table(
                    "k40c",
                    n,
                    table,
                    region_mask=table["bs"] <= LOCAL_REGION_MAX_BS,
                )
            )
        return Fig7Result(studies=tuple(studies))
